from fractions import Fraction

import pytest

from rookpart import bratteli
from rookpart.bratteli import HALF, GraphPath, ihat, rhat, rook_tower, tableau_to_path
from rookpart.combinat import box_difference, f_lambda, partitions_upto, standard_tableaux, stirling2
from rookpart.characters import tensor_multiplicities
from rookpart.diagram import enumerate_monoid
from rookpart.limits import LIMITS


def path_to_tableau(path: GraphPath):
    """Growth-sequence bijection for rook_tower paths starting at () level 0:
    when the shape grows at step m, entry m lands in the new box."""
    if path.levels[0] != 0 or path.shapes[0] != ():
        raise ValueError("path must start at the empty shape, level 0")
    rows = []
    for m in range(1, len(path.shapes)):
        prev, cur = path.shapes[m - 1], path.shapes[m]
        if prev != cur:
            r, c = box_difference(cur, prev)
            if r - 1 == len(rows):
                rows.append([])
            assert len(rows[r - 1]) == c - 1, "malformed growth path"
            rows[r - 1].append(m)
    return tuple(tuple(row) for row in rows)


def test_rook_tower_shape():
    t = rook_tower(3)
    assert [len(v) for v in t.vertices] == [1, 2, 4, 7]
    assert t.is_simple()
    # the empty shape connects to itself and the one-box shape
    assert t.multiplicity(1, (), ()) == 1
    assert t.multiplicity(1, (), (1,)) == 1


def test_rook_tower_path_counts_are_tableau_counts():
    for n in range(5):
        t = rook_tower(n)
        for lam in partitions_upto(n):
            assert t.count_paths((0, ()), (n, lam)) == len(standard_tableaux(lam, n))


def test_path_tableau_bijection_examples():
    t = rook_tower(3)
    paths = {p.shapes: p for p in t.enumerate_paths((0, ()), (3, (2,)))}
    assert path_to_tableau(paths[((), (1,), (2,), (2,))]) == ((1, 2),)
    assert path_to_tableau(paths[((), (), (1,), (2,))]) == ((2, 3),)


def test_path_tableau_round_trip_exhaustive():
    t = rook_tower(4)
    for lam in partitions_upto(4):
        for path in t.enumerate_paths((0, ()), (4, lam)):
            tab = path_to_tableau(path)
            assert tableau_to_path(tab, 4) == path
    for lam in partitions_upto(4):
        for tab in standard_tableaux(lam, 4):
            assert path_to_tableau(tableau_to_path(tab, 4)) == tab


def test_path_to_tableau_rejects_bad_start():
    with pytest.raises(ValueError):
        path_to_tableau(
            GraphPath((Fraction(1), Fraction(2)), ((1,), (1, 1)), (None,))
        )


def test_rhat_shape_and_counts():
    g = rhat(3, 3)
    assert [len(v) for v in g.vertices] == [1, 3, 6]
    assert g.count_paths((1, (1,)), (3, (2,))) == 3
    edges_from_11 = {
        mu for mu in g.vertices[2] if g.multiplicity(2, (1, 1), mu) > 0
    }
    assert edges_from_11 == {(1, 1), (2,), (2, 1), (1, 1, 1)}


def test_rhat_move_edges_carry_corner_multiplicity():
    g = rhat(4, 4)
    assert g.multiplicity(3, (2, 1), (2, 1)) == 2
    assert g.multiplicity(3, (2,), (2,)) == 1


def test_rhat_counts_match_formula_and_characters():
    for kmax, n in ((4, 3), (5, 5)):
        g = rhat(n, kmax)
        for k in range(1, kmax + 1):
            for lam in g.vertices[g.level_index(k)]:
                expected = stirling2(k, sum(lam)) * f_lambda(lam)
                assert g.count_paths((1, (1,)), (k, lam)) == expected
    for k in range(1, 4):
        g = rhat(3, k)
        mult = tensor_multiplicities(3, k)
        for lam, m in mult.items():
            if lam:
                assert g.count_paths((1, (1,)), (k, lam)) == m


def test_ihat_shape_and_edges():
    g = ihat(3)
    assert [str(l) for l in g.levels] == ["1/2", "1", "3/2", "2", "5/2", "3"]
    assert [len(v) for v in g.vertices] == [1, 1, 2, 3, 4, 6]
    assert g.is_simple()
    assert g.multiplicity(Fraction(5, 2), (), (1,)) == 1
    assert g.multiplicity(Fraction(5, 2), (), (2,)) == 0


def test_ihat_path_squares_match_monoid_sizes():
    g = ihat(4)
    for k, size in ((1, 1), (2, 3), (3, 25), (4, 339)):
        total = sum(
            g.count_paths((HALF, ()), (Fraction(k), mu)) ** 2
            for mu in g.vertices[g.level_index(Fraction(k))]
        )
        assert total == size
    for k in (1, 2, 3):
        t = Fraction(k) + HALF
        total = sum(
            g.count_paths((HALF, ()), (t, mu))
            ** 2
            for mu in g.vertices[g.level_index(t)]
        )
        assert total == len(enumerate_monoid("I_half", k))


def test_ihat_single_path_example():
    g = ihat(3)
    assert g.count_paths((HALF, ()), (Fraction(3), (1,))) == 1


def test_trivial_paths_and_missing_vertices():
    g = rook_tower(2)
    assert g.count_paths((1, (1,)), (1, (1,))) == 1
    with pytest.raises(ValueError):
        g.count_paths((0, (5,)), (1, (1,)))
    with pytest.raises(ValueError):
        g.level_index(9)


def test_level_index_reads_ints_fractions_and_text():
    g = ihat(3)
    for i, level in enumerate(g.levels):
        assert g.level_index(level) == g.level_index(str(level)) == i
        if level.denominator == 1:
            assert g.level_index(int(level)) == i
    assert g.level_index("5/2") == g.level_index(Fraction(5, 2)) == g.levels.index(Fraction(5, 2))
    assert g.level_index("6/4") == g.level_index(Fraction(3, 2))
    for level, shown in ((9, "9"), (Fraction(7, 2), "7/2"), ("14/4", "7/2"), ("1/3", "1/3")):
        with pytest.raises(ValueError, match=f"^no level {shown} in graph$"):
            g.level_index(level)


def test_enumeration_ceiling():
    # 365,232 paths, counted without being built, then refused
    g = ihat(10)
    assert g.count_paths((HALF, ()), (10, (3, 2, 1))) == 365_232
    with pytest.raises(ValueError) as refused:
        g.enumerate_paths((HALF, ()), (10, (3, 2, 1)))
    assert str(refused.value) == "path enumeration: paths = 365232 exceeds the limit 200000"


def test_dot_and_json_outputs_are_deterministic():
    g = ihat(2)
    assert g.to_dot() == ihat(2).to_dot()
    assert g.to_json_dict() == ihat(2).to_json_dict()
    dot = g.to_dot()
    assert dot.startswith("graph ihat {") and dot.endswith("}")
    payload = g.to_json_dict()
    assert payload["levels"] == ["1/2", "1", "3/2", "2"]


def test_rhat_vertex_count_matches_the_graph():
    for n in range(1, 7):
        for kmax in range(1, 9):
            graph = rhat(n, kmax)
            assert bratteli._rhat_vertices(n, kmax) == sum(len(v) for v in graph.vertices)
    # the shapes row refuses nothing the graph row accepts
    shapes, graph = LIMITS["tensor-step shapes"].value, LIMITS["tensor-step graph"].value
    assert bratteli._rhat_vertices(shapes, shapes) <= graph < bratteli._rhat_vertices(shapes + 1, shapes + 1)
