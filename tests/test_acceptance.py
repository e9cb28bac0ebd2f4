"""Exit criteria: every item must pass at its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``rookpart verify`` for the JSON equivalent.
"""

import inspect
from fractions import Fraction

import pytest

from rookpart import bratteli, characters, combinat, diagram, jm, rook, rsk, seminormal, tensor
from rookpart.acceptance import CRITERIA, run_criteria
from rookpart.diagram import AlgebraElement, PartitionDiagram
from rookpart.formal import FormalSum


@pytest.mark.parametrize(
    "number,name,fn,budget", CRITERIA, ids=[f"criterion_{c[0]:02d}" for c in CRITERIA]
)
def test_criterion(number, name, fn, budget):
    (record,) = run_criteria([number])
    status = "PASS" if record["ok"] else "FAIL"
    print(f"{status} criterion {number:2d} ({record['seconds']}s) {name}: {record['detail']}")
    assert record["ok"], f"criterion {number} ({name}): {record['detail']}"
    assert record["seconds"] < budget, (
        f"criterion {number} took {record['seconds']}s, budget {budget}s"
    )


def test_every_criterion_is_registered():
    assert [c[0] for c in CRITERIA] == list(range(1, 15))


def test_only_the_orbit_product_criterion_takes_a_size():
    takes = {num: list(inspect.signature(fn).parameters) for num, _, fn, _ in CRITERIA}
    assert takes.pop(8) == ["k"]
    assert all(params == [] for params in takes.values()), takes


def test_run_criteria_rejects_unknown_numbers():
    with pytest.raises(ValueError, match=r"unknown criterion numbers: \[0, 99\]"):
        run_criteria([99, 1, 0])


# --- planted faults: each criterion fails, and its detail names the witness ---


def _record(number):
    (record,) = run_criteria([number])
    assert not record["ok"]
    return record["detail"]


def test_criterion_1_fails_when_the_rook_monoid_loses_an_element(monkeypatch):
    real = rook.enumerate_rook
    monkeypatch.setattr(rook, "enumerate_rook", lambda n: real(n)[:-1])
    assert _record(1) == "n=1: sum of squares 2, monoid size 1"


def test_criterion_2_fails_when_the_monoid_p1_has_the_wrong_rank(monkeypatch):
    # P_1 killing the letters 1 and 2: it no longer commutes with s_2
    real = rook.generator

    def p1_of_rank_n_minus_2(name, i, n):
        if (name, i) == ("P", 1) and n >= 2:
            return rook.RookElement(n, (0, 0) + tuple(range(3, n + 1)))
        return real(name, i, n)

    monkeypatch.setattr(rook, "generator", p1_of_rank_n_minus_2)
    assert _record(2) == "monoid relations fail at n=3: ['s_2P_1']"


def test_criterion_2_fails_when_the_module_p1_has_the_wrong_rank(monkeypatch):
    # the seminormal P_1 also drops the tableaux holding the letter 2
    real = seminormal.act_p1

    def keeps_fewer(tab):
        return FormalSum.zero() if 2 in combinat.tableau_entries(tab) else real(tab)

    monkeypatch.setattr(seminormal, "act_p1", keeps_fewer)
    assert _record(2) == "module relations fail at n=3, (1,): ['s_2P_1']"


def test_criterion_4_fails_when_the_content_family_stops_commuting(monkeypatch):
    real = rook.jm_x_tilde

    def last_is_s_1(i, n):
        return FormalSum.term(rook.generator("s", 1, n)) if i == n >= 2 else real(i, n)

    monkeypatch.setattr(rook, "jm_x_tilde", last_is_s_1)
    assert _record(4) == "commutation fails at n=2 (0,3)"


def test_criterion_4_fails_when_kappa_misses_one_x_i(monkeypatch):
    def without_x_n(n):
        out = FormalSum.zero()
        for i in range(1, n):
            out = out + rook.jm_x(i, n)
        return out

    monkeypatch.setattr(rook, "kappa", without_x_n)
    assert _record(4) == "central sum not central at n=2"


def test_criterion_5_fails_when_one_multiplicity_is_off_by_one(monkeypatch):
    real = characters.defining_product_multiset

    def one_more_11(lam, n):
        out = dict(real(lam, n))
        if (lam, n) == ((1,), 2):
            out[(1, 1)] += 1
        return out

    monkeypatch.setattr(characters, "defining_product_multiset", one_more_11)
    assert _record(5) == "RuntimeError: product rule fails for lam=(1,), n=2 at sigma=RookElement(2, [2, 1]): 0 != -1"


def test_criterion_3_fails_when_the_content_family_reads_sizes(monkeypatch):
    real = seminormal._jm_matrices
    monkeypatch.setattr(seminormal, "_jm_matrices", lambda irrep: [(x, x) for x, _ in real(irrep)])
    assert _record(3) == "n=1, (1,): ['(1,) ((1,),) i=1: got (1,1), want (1,0)']"


def test_criterion_6_fails_when_one_stirling_number_is_off(monkeypatch):
    real = combinat.stirling2
    monkeypatch.setattr(combinat, "stirling2", lambda k, r: real(k, r) + (r == 2))
    assert _record(6) == "n=3, k=1, (2,): paths=0, formula=1, chars=0"


def test_criterion_6_fails_when_all_three_methods_agree_on_a_wrong_count(monkeypatch):
    # S(3, 2) read as 4 by all three methods: they agree at every (k, lambda),
    # and only the hand count of the 3 paths to (2) at level 3 is left to object
    real_stirling = combinat.stirling2
    real_count = bratteli.GradedGraph.count_paths
    real_mult = characters.tensor_multiplicities

    def two_of_three(level, shape):
        return level == 3 and sum(shape) == 2

    monkeypatch.setattr(combinat, "stirling2", lambda k, r: real_stirling(k, r) + ((k, r) == (3, 2)))
    monkeypatch.setattr(
        bratteli.GradedGraph, "count_paths", lambda g, src, dst: real_count(g, src, dst) + two_of_three(*dst)
    )
    monkeypatch.setattr(
        characters,
        "tensor_multiplicities",
        lambda n, k: {lam: m + two_of_three(k, lam) for lam, m in real_mult(n, k).items()},
    )
    assert _record(6) == "expected 3 paths to (2) at level 3"


def test_criterion_10_fails_when_the_content_sum_is_the_size_sum(monkeypatch):
    monkeypatch.setattr(jm, "kappa_tilde", jm.kappa)
    assert _record(10) == "integer level 1, n=1: ['Z~ at level 1, n=1: first diffs [(0, 0)]']"


def test_criterion_10_fails_when_the_half_space_loses_the_pinned_letter(monkeypatch):
    # the rook action forgets that rho fixes the letter n: every word holding
    # n is killed, which the integer levels never see
    real = tensor._rook_cells

    def without_letter_n(rho, space):
        cells = real(rho, space)
        if not space.half:
            return cells
        n = space.n
        return [(r, c) for r, c in cells if all(c // n**j % n != n - 1 for j in range(space.k))]

    monkeypatch.setattr(tensor, "_rook_cells", without_letter_n)
    assert _record(10) == "half level 2+1/2, n=3: ['Z at level 5/2, n=3: first diffs [(2, 2), (5, 5), (6, 6), (7, 7)]']"


def test_criterion_12_fails_when_the_predicted_pairs_are_swapped(monkeypatch):
    real = jm.predicted_eigenvalues
    monkeypatch.setattr(jm, "predicted_eigenvalues", lambda path: [(mt, m) for m, mt in real(path)])
    assert _record(12) == (
        "level 1, n=2: ['path ((), (1,)): eigenspace dim 0 != 2', "
        "'LetterBlock(n=2, k=1, r=1): eigenspaces cover 0 of 1 dimensions']"
    )


def _level_2_entries_changed(monkeypatch, change):
    """gt_decompose as before, its ok report at level 2 with ``change`` applied
    to the eigenvalue pairs of the three entries."""
    real = jm.gt_decompose

    def changed(t, n):
        report = real(t, n)
        if t == 2:
            pairs = change([e["eigenvalues"] for e in report["entries"]])
            for e, p in zip(report["entries"], pairs):
                e["eigenvalues"] = p
        return report

    monkeypatch.setattr(jm, "gt_decompose", changed)


def test_criterion_12_fails_when_an_ok_report_repeats_a_tuple(monkeypatch):
    _level_2_entries_changed(monkeypatch, lambda pairs: [pairs[0], pairs[1], pairs[0]])
    assert _record(12) == "level 2: eigenvalue tuples not distinct"


def test_criterion_12_fails_when_the_content_values_alone_repeat(monkeypatch):
    # path 1 takes path 0's M~ values; its M values still differ at level 3/2
    def shared_content(pairs):
        moved = [(m, mt) for (m, _), (_, mt) in zip(pairs[1], pairs[0])]
        return [pairs[0], moved, pairs[2]]

    _level_2_entries_changed(monkeypatch, shared_content)
    assert _record(12) == "integer level 2: content family fails to separate"


def test_criterion_7_fails_when_one_worked_path_gets_a_wrong_tableau(monkeypatch):
    real = rsk.path_to_spt
    swapped = (((2,),), ((1, 3),))  # the tableau of the path (1), (1, 1), (1, 1)

    def wrong_once(path):
        return swapped if path.shapes == ((1,), (2,), (1, 1)) else real(path)

    monkeypatch.setattr(rsk, "path_to_spt", wrong_once)
    assert _record(7) == "worked correspondence fails for ((1,), (2,), (1, 1))"


def test_criterion_7_fails_when_one_path_loses_its_labels_on_the_way_back(monkeypatch):
    real = rsk.spt_to_path
    one_row = ((1,), (1,), (1,), (1,))  # the first path to (1) at level 4, labelled ((), (), ())

    def drops_the_labels(t, k):
        path = real(t, k)
        if path.shapes == one_row:
            return bratteli.GraphPath(path.levels, path.shapes, (None,) * len(path.vias))
        return path

    monkeypatch.setattr(rsk, "spt_to_path", drops_the_labels)
    assert _record(7) == "path round trip fails for ((1,), (1,), (1,), (1,))"


def test_criterion_7_fails_when_a_listed_tableau_does_not_come_back(monkeypatch):
    # the paths all round-trip; the lister writes the one block of (1) at
    # k = 4 in descending order, which the path walk gives back sorted
    real = combinat.standard_spt_tableaux

    def one_block_reversed(lam, k):
        out = list(real(lam, k))
        if lam == (1,):
            out[0] = tuple(tuple(tuple(reversed(b)) for b in row) for row in out[0])
        return out

    monkeypatch.setattr(combinat, "standard_spt_tableaux", one_block_reversed)
    assert _record(7) == "tableau round trip fails for (((4, 3, 2, 1),),)"


def test_criterion_7_fails_when_the_graph_loses_a_path(monkeypatch):
    # every listed path and tableau still round-trips, but 49 = sum of
    # S(4, r) f_lambda paths reach level 4, and the count sees one missing
    real = bratteli.GradedGraph.enumerate_paths

    def one_short(graph, src, dst):
        paths = real(graph, src, dst)
        return paths[:-1] if dst == (4, (1,)) else paths

    monkeypatch.setattr(bratteli.GradedGraph, "enumerate_paths", one_short)
    assert _record(7) == "path count 48 != 49"


def test_criterion_8_fails_when_one_product_table_cell_is_wrong(monkeypatch):
    real = diagram._product_table
    table = diagram._ProductTable(2)
    s_1 = PartitionDiagram(2, [(1, -2), (2, -1)])
    i = table[s_1._masks]
    table.cells[i * table.cap + i] = i * 3  # s_1 s_1 read as s_1, not the identity
    monkeypatch.setattr(diagram, "_product_table", lambda k: table if k == 2 else real(k))
    # the diagram-basis form of x_d holds s_1 exactly when d is finer than s_1,
    # so the first pair to differ is the first pair of such diagrams
    d = next(d for d in diagram.enumerate_monoid("A", 2) if s_1 in dict(diagram._upset(d)))
    assert _record(8) == f"orbit product mismatch for {d}, {d}"


def test_criterion_13_fails_when_the_rook_tower_loses_an_edge(monkeypatch):
    real = bratteli.rook_tower

    def one_edge_short(n):
        graph = real(n)
        top = graph.edges[-1]  # the edges into the last level
        del top[max(top)]
        return graph

    monkeypatch.setattr(bratteli, "rook_tower", one_edge_short)
    assert _record(13) == "rook tower edges differ"


def _one_vertex_short(real):
    def build(*args):
        graph = real(*args)
        graph.vertices = graph.vertices[:-1] + (graph.vertices[-1][:-1],)
        return graph

    return build


def _one_edge_short(real):
    def build(*args):
        graph = real(*args)
        del graph.edges[-1][max(graph.edges[-1])]
        return graph

    return build


@pytest.mark.parametrize(
    "make, fault, detail",
    [
        ("rook_tower", _one_vertex_short, "rook tower vertex counts differ"),
        ("rhat", _one_vertex_short, "tensor-step graph vertex counts differ"),
        ("rhat", _one_edge_short, "tensor-step graph edges differ"),
        ("ihat", _one_vertex_short, "propagating tower vertex counts differ"),
        ("ihat", _one_edge_short, "propagating tower edges differ"),
    ],
    ids=["rook-vertex", "rhat-vertex", "rhat-edge", "ihat-vertex", "ihat-edge"],
)
def test_criterion_13_fails_when_a_graph_loses_a_vertex_or_an_edge(monkeypatch, make, fault, detail):
    monkeypatch.setattr(bratteli, make, fault(getattr(bratteli, make)))
    assert _record(13) == detail


def test_criterion_13_fails_when_a_tower_holds_an_edge_with_no_label(monkeypatch):
    # an unlabelled edge adds no edge triple, so the snapshots still match;
    # only the simplicity check sees it
    real = bratteli.rook_tower

    def phantom_edge(n):
        graph = real(n)
        graph.edges[1][graph.vertex_index(1, ()), graph.vertex_index(2, (2,))] = ()
        return graph

    monkeypatch.setattr(bratteli, "rook_tower", phantom_edge)
    assert _record(13) == "tower graphs must be simple"


def test_criterion_9_fails_when_the_diagram_generators_lose_e_and_f(monkeypatch):
    real = tensor.generating_set

    def only_the_s_i(kind, k):
        # the s_i are the generators with as many blocks as places
        return tuple(g for g in real(kind, k) if g.n_blocks() == g.size)

    monkeypatch.setattr(tensor, "generating_set", only_the_s_i)
    detail = _record(9)
    assert detail.startswith("report fails at n=2, k=2, half=False: ")
    assert "'psi_image_dim': 6, 'phi_commutant_dim': 10," in detail


def test_criterion_9_fails_when_an_ok_report_at_2_3_has_the_wrong_kernel(monkeypatch):
    real = tensor.schur_weyl_report

    def kernel_of_5(n, k, half=False):
        report = real(n, k, half)
        return dict(report, kernel_dim=5) if (n, k, half) == (2, 3, False) else report

    monkeypatch.setattr(tensor, "schur_weyl_report", kernel_of_5)
    assert _record(9) == "kernel at (2,3) is 5, expected 6"


def test_criterion_11_fails_when_z_keeps_one_term(monkeypatch):
    real = jm.build_z

    def first_term(t):
        z = real(t)
        d, c = next(iter(z.sum.terms()))
        return AlgebraElement(z.size, "orbit", [(d, c)], z.half)

    monkeypatch.setattr(jm, "build_z", first_term)
    assert _record(11).startswith("level 5/2: ['Z at level 5/2 does not commute with [[1,2,-1],[3,-2,-3]]'")


def test_criterion_14_fails_when_the_half_monoid_loses_a_diagram(monkeypatch):
    real = diagram.enumerate_monoid

    def loses_the_last(kind, k):
        monoid = real(kind, k)
        return monoid[:-1] if (kind, k) == ("I_half", 2) else monoid

    monkeypatch.setattr(diagram, "enumerate_monoid", loses_the_last)
    assert _record(14) == "sum of squares at level 5/2 is 12 != 11"


def test_criterion_14_fails_when_the_listing_skips_the_s_i(monkeypatch):
    # the half monoids are listed anew with the fault, and again after it
    diagram._closure_listing.cache_clear()
    monkeypatch.setattr(diagram, "_swap_bottom", lambda masks, p: masks)
    try:
        assert _record(14) == "RuntimeError: generators of I_half at 2 miss the diagram [[1,-2],[2,-1],[3,-3]]"
    finally:
        diagram._closure_listing.cache_clear()


def test_criterion_14_fails_when_a_multiplicity_misses_an_edge(monkeypatch):
    # count_paths still walks the edge 5/2 (1,1) -> 3 (2,1), which the multiplicity misses
    real = bratteli.GradedGraph.multiplicity

    def one_short(graph, level, low, high):
        m = real(graph, level, low, high)
        return m - 1 if (graph.kind, level, low, high) == ("ihat", Fraction(5, 2), (1, 1), (2, 1)) else m

    monkeypatch.setattr(bratteli.GradedGraph, "multiplicity", one_short)
    assert _record(14) == "recursion fails at level 3, (2, 1)"


def test_criterion_14_fails_when_the_tower_loses_an_edge_into_an_integer_level(monkeypatch):
    # without the edge 5/2 (1,1) -> 3 (2,1), (2,1) at level 3 has one path, not S(3,3) f^(2,1) = 2
    real = bratteli.ihat

    def one_edge_short(t):
        graph = real(t)
        li = graph.level_index(Fraction(5, 2))
        del graph.edges[li][graph.vertex_index(Fraction(5, 2), (1, 1)), graph.vertex_index(3, (2, 1))]
        return graph

    monkeypatch.setattr(bratteli, "ihat", one_edge_short)
    assert _record(14) == "count at level 3, (2, 1) is 1 != 2"


def test_criterion_14_fails_when_the_top_level_loses_a_vertex(monkeypatch):
    # (4,) is the last vertex of level 4, with one path: every count checked still
    # holds, and the sum of squares falls to 339 - 1
    real = bratteli.ihat

    def top_vertex_short(t):
        graph = real(t)
        assert graph.vertices[-1][-1] == (4,)
        graph.vertices = graph.vertices[:-1] + (graph.vertices[-1][:-1],)
        return graph

    monkeypatch.setattr(bratteli, "ihat", top_vertex_short)
    assert _record(14) == "sum of squares at level 4 is 338 != 339"
