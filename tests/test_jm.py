import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from rookpart import jm
from rookpart.bratteli import HALF, GradedGraph, ihat, levels_upto
from rookpart.combinat import rook_irrep_dim, set_partitions
from rookpart.diagram import (
    AlgebraElement,
    PartitionDiagram,
    enumerate_monoid,
    from_orbit,
    orbit_product_general,
    to_orbit,
)
from rookpart.formal import FormalSum
from rookpart.jm import (
    as_level,
    build_m,
    build_m_tilde,
    build_z,
    build_z_tilde,
    gt_decompose,
    predicted_eigenvalues,
    size_and_half,
    verify_centrality,
    verify_operator_identity,
)
from rookpart.linalg import CommutingFamily, simultaneous_eigenspace
from rookpart.rook import kappa
from rookpart.scalars import XI, XiPoly
from rookpart.tensor import phi_element, psi_element
from test_diagram import build_dp, build_dpcd, build_dtilde, unit, with_half


def D(text, half=False):
    return PartitionDiagram.parse(text, half=half)


def tower_lift(a, target):
    """An orbit element lifted along the tower on block masks, one
    ``jm._lift_step`` per half level, as the M family is."""
    target = as_level(target)
    if a.basis != "orbit" or a.level > target:
        raise ValueError("the mask route lifts orbit elements upward")
    terms, size, half = {d._masks: c for d, c in a.sum.terms()}, a.size, a.half
    for _ in range(int(2 * (target - a.level))):
        terms = jm._lift_step(terms, size, half)
        size, half = (size, False) if half else (size + 1, True)
    return AlgebraElement._from_masks(size, "orbit", terms, half)


def zero_element(t):
    size, half = size_and_half(t)
    return AlgebraElement.zero(size, "orbit", half=half)


def test_as_level_validation():
    assert as_level(Fraction(5, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        as_level(Fraction(1, 3))
    with pytest.raises(ValueError):
        as_level(0)
    # a zero denominator or text that is no number is a malformed level,
    # not a ZeroDivisionError or Fraction's own message
    for text in ("1/0", "0/0", "abc", "nan", "inf"):
        with pytest.raises(ValueError, match=f"not a positive half-integer level: {text}"):
            as_level(text)


def test_z_examples():
    z1 = build_z(1)
    assert z1.sum == FormalSum.term(PartitionDiagram.identity(1))
    z2 = build_z(2)
    assert dict(z2.sum.terms()).get(D("[[1,2,-1,-2]]")) == 1
    assert dict(z2.sum.terms()).get(PartitionDiagram.identity(2)) == 2
    assert len(z2.sum) == 2
    # half level: weights drop by one and keys carry the anchor block
    z32 = build_z(Fraction(3, 2))
    assert z32.sum == FormalSum.term(PartitionDiagram.identity(2, half=True))


def test_z_tilde_examples():
    assert not build_z_tilde(1)
    assert not build_z_tilde(Fraction(3, 2))
    zt2 = build_z_tilde(2)
    assert zt2.sum == FormalSum.term(D("[[1,-2],[2,-1]]"))
    zt52 = build_z_tilde(Fraction(5, 2))
    assert zt52.sum == FormalSum.term(D("[[1,-2],[2,-1],[3,-3]]", half=True))


def test_z_half_weights():
    # the unordered-pair reading keeps each crossed diagram exactly once
    zt3 = build_z_tilde(3)
    assert all(c == 1 for _, c in zt3.sum.items())
    # partitions of {1,2,3} with >= 2 blocks contribute C(blocks, 2) terms
    assert len(zt3.sum) == 3 * 1 + 1 * 3


def test_tower_lift_is_unital():
    one1 = unit(1, basis="orbit")
    for target in (Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        lifted = tower_lift(one1, target)
        size = int(target) if target.denominator == 1 else int(target + HALF)
        assert lifted == unit(
            size, basis="orbit", half=target.denominator == 2
        )


def test_m_bottom_values():
    assert build_m(HALF, 1).sum == to_orbit(
        AlgebraElement.from_diagram(PartitionDiagram.identity(1))
    ).sum
    assert not build_m(1, 1)  # both central sums at the bottom are the unit
    assert not build_m_tilde(1, 1)
    assert not build_m_tilde(HALF, 2)


def test_m_three_halves_is_minus_full_block():
    m = build_m(Fraction(3, 2), Fraction(3, 2))
    assert m.sum == FormalSum.term(D("[[1,2,-1,-2]]", half=True), Fraction(-1))


def test_telescoping_to_central_sum():
    for t in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
        total = zero_element(t)
        total_tilde = zero_element(t)
        y = HALF
        while y <= t:
            total = total + build_m(y, t)
            total_tilde = total_tilde + build_m_tilde(y, t)
            y += HALF
        assert total == build_z(t)
        assert total_tilde == build_z_tilde(t)


def test_operators_commute_pairwise():
    from rookpart.tensor import TensorSpace, phi_element

    for t in (Fraction(2), Fraction(5, 2), Fraction(3)):
        n = int(t) + 1 if t.denominator == 1 else int(t + HALF) + 1
        space = (
            TensorSpace(n, int(t))
            if t.denominator == 1
            else TensorSpace(n, int(t - HALF), half=True)
        )
        mats = []
        y = HALF
        while y <= t:
            mats.append(phi_element(build_m(y, t), space))
            mats.append(phi_element(build_m_tilde(y, t), space))
            y += HALF
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert mats[i] * mats[j] == mats[j] * mats[i]


def test_centrality_small_levels():
    for t in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)):
        report = verify_centrality(t)
        assert report["ok"], report["failures"][:2]
    report = verify_centrality(4)
    assert report["ok"], report["failures"][:2]
    assert report["diagram_count"] == 339
    # commuting with the 6 generators of the half monoid, not its 2,100 diagrams
    report = verify_centrality(Fraction(9, 2))
    assert report["ok"], report["failures"][:2]
    assert report["diagram_count"] == 2100
    # the enumeration guard bounds the check, before any central sum is built
    with pytest.raises(ValueError) as refused:
        verify_centrality(Fraction(11, 2))
    assert str(refused.value) == "I_k enumeration: diagram size = 6 exceeds the limit 5"


def test_central_sum_commutes_with_every_diagram_by_hand():
    z = build_z(2)
    for d in (D("[[1,-1],[2,-2]]"), D("[[1,-2],[2,-1]]"), D("[[1,2,-1,-2]]")):
        g = to_orbit(AlgebraElement.from_diagram(d))
        assert orbit_product_general(g, z) == orbit_product_general(z, g)


def test_operator_identity_examples():
    assert verify_operator_identity(2, 1)["ok"]
    assert verify_operator_identity(3, 2)["ok"]
    assert verify_operator_identity(3, Fraction(5, 2))["ok"]
    with pytest.raises(ValueError):
        verify_operator_identity(1, 2)
    with pytest.raises(ValueError):
        verify_operator_identity(2, Fraction(5, 2))


def test_operator_identity_names_the_first_differing_cells(monkeypatch):
    # comparing Z~ with kappa in place of kappa~ must fail, naming the first
    # five cells where the two operators differ
    space = jm.tensor_space(2, 3)
    lhs = phi_element(build_z_tilde(2), space).data
    rhs = psi_element(kappa(space.rook_n), space).data
    cells = [(i, j) for i, row in enumerate(lhs) for j, v in enumerate(row) if v != rhs[i][j]]
    assert cells[:5] == [(0, 0), (1, 1), (1, 3), (2, 2), (2, 6)] and len(cells) > 5
    monkeypatch.setattr(jm, "kappa_tilde", kappa)
    report = verify_operator_identity(3, 2)
    assert not report["ok"]
    assert report["failures"] == [f"Z~ at level 2, n=3: first diffs {cells[:5]}"]


def test_predicted_eigenvalues_follow_shape_steps():
    graph = ihat(Fraction(5, 2))
    path = next(
        p
        for p in graph.enumerate_paths((HALF, ()), (Fraction(5, 2), (1,)))
        if p.shapes == ((), (1,), (1,), (2,), (1,))
    )
    values = predicted_eigenvalues(path)
    # (M, M~) at 1/2, 1, 3/2, 2, 5/2
    assert values == [
        (1, 0),
        (0, 0),
        (0, 0),
        (1, 1),
        (-1, -1),
    ]


def test_gt_decompose_level_one():
    report = gt_decompose(1, 2)
    assert report["ok"]
    (entry,) = report["entries"]
    assert entry["shape"] == (1,)
    assert entry["dimension"] == 2
    assert entry["eigenvalues"] == [(1, 0), (0, 0)]


def test_gt_decompose_three_halves():
    report = gt_decompose(Fraction(3, 2), 2)
    assert report["ok"]
    by_shape = {e["shape"]: e for e in report["entries"]}
    assert by_shape[()]["eigenvalues"][-1] == (-1, 0)
    assert by_shape[(1,)]["eigenvalues"][-1] == (0, 0)
    assert all(e["dimension"] == 1 for e in report["entries"])


def test_gt_decompose_exhausts_and_separates():
    for t, n in ((Fraction(2), 3), (Fraction(5, 2), 4)):
        report = gt_decompose(t, n)
        assert report["ok"]
        k = int(t) if t.denominator == 1 else int(t - HALF)
        assert sum(e["dimension"] for e in report["entries"]) == n**k
        tuples = [tuple(map(tuple, e["eigenvalues"])) for e in report["entries"]]
        assert len(set(tuples)) == len(tuples)


def test_gt_decompose_names_the_failing_paths(monkeypatch):
    # a tuple no path has: every eigenspace is empty, every later path shares
    # the tuple of the one before it, and nothing covers the space
    monkeypatch.setattr(
        jm, "predicted_eigenvalues", lambda path: [(Fraction(7), Fraction(7))] * len(path.levels)
    )
    report = gt_decompose(Fraction(3, 2), 2)
    assert not report["ok"]
    assert report["failures"] == [
        "path ((), (1,), ()): eigenspace dim 0 != 1",
        "paths ((), (1,), ()) and ((), (1,), (1,)) share a tuple",
        "path ((), (1,), (1,)): eigenspace dim 0 != 1",
        "LetterBlock(n=2, k=1+1/2, r=1): eigenspaces cover 0 of 1 dimensions",
        "LetterBlock(n=2, k=1+1/2, r=2): eigenspaces cover 0 of 1 dimensions",
    ]


def test_gt_decompose_names_a_wrong_dimension_alone(monkeypatch):
    real = jm.rook_irrep_dim
    monkeypatch.setattr(jm, "rook_irrep_dim", lambda mu, n: real(mu, n) + (mu == ()))
    report = gt_decompose(Fraction(3, 2), 2)
    assert not report["ok"]
    assert report["failures"] == ["path ((), (1,), ()): eigenspace dim 1 != 2"]


def test_gt_decompose_names_a_shared_tuple_alone(monkeypatch):
    # every path reads the first path's tuple: each eigenspace has the right
    # dimension, so no path line but the shared tuple's; the blocks see the
    # one eigenspace counted twice and the other block left uncovered
    real = jm.predicted_eigenvalues
    first = []

    def the_first_tuple(path):
        if not first:
            first.append(real(path))
        return first[0]

    monkeypatch.setattr(jm, "predicted_eigenvalues", the_first_tuple)
    report = gt_decompose(Fraction(3, 2), 2)
    assert not report["ok"]
    assert report["failures"] == [
        "paths ((), (1,), ()) and ((), (1,), (1,)) share a tuple",
        "LetterBlock(n=2, k=1+1/2, r=1): eigenspaces cover 2 of 1 dimensions",
        "LetterBlock(n=2, k=1+1/2, r=2): eigenspaces cover 0 of 1 dimensions",
    ]


def test_gt_decompose_names_a_shortfall_in_coverage_alone(monkeypatch):
    real = GradedGraph.enumerate_paths
    monkeypatch.setattr(GradedGraph, "enumerate_paths", lambda g, src, dst: [] if dst[1] == (1,) else real(g, src, dst))
    report = gt_decompose(Fraction(3, 2), 2)
    assert not report["ok"]
    # the path to (1,) lives on the block of the letters 1 and n
    assert report["failures"] == ["LetterBlock(n=2, k=1+1/2, r=2): eigenspaces cover 0 of 1 dimensions"]


def test_gt_decompose_reports_its_operators_and_prefix_kernels():
    # 2 operators per level 1/2, 1, ..., t; at level 2 and n = 3 the blocks of
    # 1 and 2 letters have 1 and 2 words and 3 copies each, and each block's
    # family eliminates the 13 distinct prefixes of the 3 eigenvalue tuples
    # once; the one elimination that is not inherited leaves one vector
    report = gt_decompose(Fraction(2), 3)
    assert report["operators"] == 8
    assert report["blocks"] == [(1, 1, 3), (2, 2, 3)]
    tuples = [tuple(v for pair in e["eigenvalues"] for v in pair) for e in report["entries"]]
    assert len({t[:j] for t in tuples for j in range(1, 9)}) == 13
    assert report["prefix_kernels"] == 2 * 13
    assert report["largest_prefix_kernel"] == 1
    # at level 4 and n = 5, r! S(4, r) words and C(5, r) copies, 625 in all;
    # the largest kernel an elimination gives is on the block of 3 letters
    report = gt_decompose(4, 5)
    assert report["ok"]
    assert report["blocks"] == [(1, 1, 5), (2, 14, 10), (3, 36, 10), (4, 24, 5)]
    assert report["largest_prefix_kernel"] == 30


def test_gt_decompose_reaches_the_traced_linalg_names(monkeypatch):
    # a tracer wraps these module attributes by name, so gt_decompose must call
    # through jm's binding of simultaneous_eigenspace and linalg's nullspace,
    # once per path on each letter-set block
    from rookpart import linalg

    calls = {"jm.simultaneous_eigenspace": 0, "linalg.nullspace": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(jm, "simultaneous_eigenspace", counting("jm.simultaneous_eigenspace", jm.simultaneous_eigenspace))
    monkeypatch.setattr(linalg, "nullspace", counting("linalg.nullspace", linalg.nullspace))
    report = gt_decompose(2, n=2)
    assert report["ok"]
    assert len(report["blocks"]) == 2
    assert calls["jm.simultaneous_eigenspace"] == 2 * len(report["entries"])
    assert calls["linalg.nullspace"] > 0


def _add_to_z(monkeypatch, level, diagram):
    """Z at ``level`` with the orbit element of ``diagram`` added, where Z is
    built on block masks, and the families built afresh from it."""
    real = jm._central_terms
    masks = D(diagram)._masks

    def planted(t):
        z, zt = real(t)
        return ({**z, masks: z.get(masks, 0) + 1} if t == level else z), zt

    monkeypatch.setattr(jm, "_central_terms", planted)
    monkeypatch.setattr(jm, "_family_terms", cache(jm._family_terms.__wrapped__))


def test_gt_decompose_refuses_a_term_that_joins_two_letter_sets(monkeypatch):
    # the top vertex 1 alone: the block of 1 letter already meets the term,
    # and the entry named takes the word (1, 2) to the word (2, 2)
    # planted past the family's own check, which refuses such a term first
    real = jm._m_family
    x = AlgebraElement.from_diagram(D("[[1],[2,-1,-2]]"), basis="orbit")
    monkeypatch.setattr(jm, "_m_family", lambda t: [(y, m + x if y == 2 else m, mt) for y, m, mt in real(t)])
    with pytest.raises(RuntimeError) as refused:
        gt_decompose(2, 3)
    assert str(refused.value) == "[[1],[2,-1,-2]] has a one-row block: its entry at the words (1, 2) and (2, 2) joins two letter sets"


def test_gt_decompose_names_the_block_whose_operators_do_not_commute(monkeypatch):
    # the extra term keeps Z central on the 1-letter block only; operators 7
    # and 10 are M~_2 and M_3, as verify_centrality names them
    _add_to_z(monkeypatch, 3, "[[1,3,-2],[2,-1,-3]]")
    with pytest.raises(ValueError) as refused:
        gt_decompose(3, 3)
    assert str(refused.value) == "LetterBlock(n=3, k=3, r=2): operators 7 and 10 do not commute"


def test_gt_decompose_names_a_block_whose_paths_do_not_add_up(monkeypatch):
    # one vector too many for each of the 3 paths on the 2-word block of
    # level 2 at n = 2, which has 1 copy: every path reads one too many, and
    # the block's 2 words are covered 2 + 3 times
    real = jm.simultaneous_eigenspace

    def one_more_on_two_words(ops, values):
        basis = real(ops, values)
        return basis + [{}] if ops[0].rows == 2 else basis

    monkeypatch.setattr(jm, "simultaneous_eigenspace", one_more_on_two_words)
    report = gt_decompose(2, 2)
    assert report["blocks"] == [(1, 1, 2), (2, 2, 1)]
    assert report["failures"] == [
        "path ((), (1,), (), (1,)): eigenspace dim 3 != 2",
        "path ((), (1,), (1,), (1, 1)): eigenspace dim 2 != 1",
        "path ((), (1,), (1,), (2,)): eigenspace dim 2 != 1",
        "LetterBlock(n=2, k=2, r=2): eigenspaces cover 5 of 2 dimensions",
    ]


def test_gt_decompose_checks_that_the_blocks_tile_the_space(monkeypatch):
    class OneCopyShort(jm.LetterBlock):
        def __init__(self, *args):
            super().__init__(*args)
            self.copies -= self.r == 2

    monkeypatch.setattr(jm, "LetterBlock", OneCopyShort)
    with pytest.raises(RuntimeError) as refused:
        gt_decompose(2, 3)
    assert str(refused.value) == "the letter-set blocks of (C^3)^(x)2 do not add up to its 9 words"


def test_gt_decompose_is_refused_past_its_largest_block():
    # level 11/2 (largest block 390 words) is admitted; level 6 is refused,
    # whatever n, before any central sum is built
    with pytest.raises(ValueError) as refused:
        gt_decompose(6, 6)
    assert str(refused.value) == "GT decomposition: largest block = 1800 exceeds the limit 390"


def test_gt_decompose_counts_blocks_only_at_levels_the_tower_admits(monkeypatch):
    # the block sizes of level 1000 would take Stirling numbers S(1000, r)
    # for every r, so the tower's row refuses it first
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(jm, "letter_block_dim", no_work)
    with pytest.raises(ValueError) as refused:
        gt_decompose(1000, 1000)
    assert str(refused.value) == "propagating tower: level = 1000 exceeds the limit 30"


# --- oracle: the decomposition on the whole tensor space -----------------------


def whole_space_gt_decompose(t, n):
    """The eigenspaces on the whole n^k-dimensional tensor space, with the
    per-path checks of the block route and its coverage of n^k."""
    t = as_level(t)
    space = jm.tensor_space(t, n)
    graph = ihat(t)
    ops = []
    for y in levels_upto(t):
        ops.append(phi_element(build_m(y, t), space))
        ops.append(phi_element(build_m_tilde(y, t), space))
    ops = CommutingFamily(ops)
    entries, failures, total, seen_tuples = [], [], 0, {}
    for mu in graph.vertices[graph.level_index(t)]:
        for path in graph.enumerate_paths((HALF, ()), (t, mu)):
            predicted = predicted_eigenvalues(path)
            flat = [v for pair in predicted for v in pair]
            dim = len(simultaneous_eigenspace(ops, flat))
            expected_dim = rook_irrep_dim(mu, space.rook_n)
            total += dim
            key = tuple(flat)
            if key in seen_tuples:
                failures.append(f"paths {seen_tuples[key]} and {path.shapes} share a tuple")
            seen_tuples[key] = path.shapes
            if dim != expected_dim:
                failures.append(f"path {path.shapes}: eigenspace dim {dim} != {expected_dim}")
            entries.append({"shape": mu, "path": path, "eigenvalues": predicted, "dimension": dim})
    if total != space.dim:
        failures.append(f"eigenspaces cover {total} of {space.dim} dimensions")
    return {"entries": entries, "ok": not failures, "failures": failures}


# test_linalg's EIGEN_LEVELS (every level up to 7/2 with n one past the
# diagram size, and level 3 at n = 4), every half level up to 9/2 at n equal
# to the diagram size, and level 3 at n = 5 and 6
BLOCK_ORACLE_LEVELS = (
    [(Fraction(k, 2), jm.size_and_half(Fraction(k, 2))[0] + 1) for k in range(2, 8)]
    + [(Fraction(3), 4)]
    + [(Fraction(k, 2), jm.size_and_half(Fraction(k, 2))[0]) for k in (3, 5, 7, 9)]
    + [(Fraction(3), 5), (Fraction(3), 6)]
)


@pytest.mark.parametrize("t, n", BLOCK_ORACLE_LEVELS)
def test_blocks_give_the_whole_space_entries(t, n):
    report = gt_decompose(t, n)
    whole = whole_space_gt_decompose(t, n)
    assert report["ok"] and whole["ok"], (report["failures"], whole["failures"])
    assert report["entries"] == whole["entries"]
    assert sum(dim * copies for _, dim, copies in report["blocks"]) == n ** int(t)


def test_level_eleven_halves_is_admitted_and_gives_the_rook_dimensions():
    report = gt_decompose(Fraction(11, 2), 6)
    assert report["ok"], report["failures"][:3]
    assert max(dim for _, dim, _ in report["blocks"]) == 390
    assert all(e["dimension"] == rook_irrep_dim(e["shape"], 5) for e in report["entries"])
    assert sum(e["dimension"] for e in report["entries"]) == 6**5


def test_m_family_matches_build_m_and_build_m_tilde():
    for t in levels_upto(Fraction(9, 2)):
        family = jm._m_family(t)
        assert [y for y, _, _ in family] == levels_upto(t)
        for y, m, mt in family:
            _assert_same_sum(m, build_m(y, t))
            _assert_same_sum(mt, build_m_tilde(y, t))


def test_content_family_alone_separates_at_integer_levels():
    for t, n in ((Fraction(1), 2), (Fraction(2), 3)):
        report = gt_decompose(t, n)
        tilde = [tuple(pair[1] for pair in e["eigenvalues"]) for e in report["entries"]]
        assert len(set(tilde)) == len(tilde)


def test_content_family_alone_fails_at_half_levels():
    # both families are needed at half levels: at 3/2 the two paths share all
    # content eigenvalues and differ only in the size family
    report = gt_decompose(Fraction(3, 2), 2)
    tilde = [tuple(pair[1] for pair in e["eigenvalues"]) for e in report["entries"]]
    assert len(set(tilde)) < len(tilde)
    full = [tuple(map(tuple, e["eigenvalues"])) for e in report["entries"]]
    assert len(set(full)) == len(full)


def test_restriction_consistency_of_eigenspaces():
    # grouping level-t eigenspaces by the truncated path reproduces the
    # eigenspace dimensions one half-step down
    from rookpart.linalg import simultaneous_eigenspace
    from rookpart.tensor import TensorSpace, phi_element

    t, n = Fraction(2), 3
    space = TensorSpace(n, 2)
    report = gt_decompose(t, n)
    prefix_dims = {}
    for e in report["entries"]:
        prefix = e["path"].shapes[:-1]
        values = tuple(v for pair in e["eigenvalues"][:-1] for v in pair)
        prefix_dims.setdefault((prefix, values), 0)
        prefix_dims[(prefix, values)] += e["dimension"]
    ops = []
    y = HALF
    while y <= t - HALF:
        ops.append(phi_element(build_m(y, t), space))
        ops.append(phi_element(build_m_tilde(y, t), space))
        y += HALF
    for (prefix, values), dim in prefix_dims.items():
        basis = simultaneous_eigenspace(ops, list(values))
        assert len(basis) == dim


def test_build_m_rejects_levels_above_ambient():
    with pytest.raises(ValueError):
        build_m(Fraction(5, 2), 2)
    with pytest.raises(ValueError):
        build_m_tilde(3, Fraction(5, 2))


# --- oracles: Z, the tower lift and the M family built diagram by diagram ------


def _oracle_z(t):
    """Z at level t from the validated diagrams d_p."""
    size, half = size_and_half(t)
    terms = [(with_half(build_dp(p), half), Fraction(len(p) - half)) for p in set_partitions(size, min_blocks=1 + half)]
    return AlgebraElement(size, "orbit", terms, half=half)


def _oracle_z_tilde(t):
    """Z~ at level t from the validated diagrams d_{p,c,d} and d~_{p,c,d}."""
    size, half = size_and_half(t)
    build = build_dtilde if half else build_dpcd
    terms = [
        (build(p, c, d), Fraction(1))
        for p in set_partitions(size, min_blocks=2 + half)
        for c, d in combinations([b for b in p if not (half and size in b)], 2)
    ]
    return AlgebraElement(size, "orbit", terms, half=half)


def _add_slot(a):
    """Unital embedding into the next half level, adding c = {k+1, (k+1)'},
    term by term through the validating constructor: a diagram-basis term d
    becomes d with c; an orbit-basis term x_d becomes x_{d with c} plus
    x_{d with B ∪ c} for each block B of d."""
    if a.half:
        raise ValueError("element already sits at a half level")
    k = a.size
    c = (k + 1, -(k + 1))

    def lifts(blocks):
        yield blocks + (c,)
        if a.basis == "orbit":
            for i, b in enumerate(blocks):
                yield blocks[:i] + (b + c,) + blocks[i + 1 :]

    terms = [
        (PartitionDiagram(k + 1, blocks, half=True), coeff)
        for d, coeff in a.sum.terms()
        for blocks in lifts(d.blocks)
    ]
    return AlgebraElement(k + 1, a.basis, terms, half=True)


def _oracle_lift(a, target, add_slot=_add_slot):
    target = as_level(target)
    cur = a.level
    while cur < target:
        if a.half:
            a = AlgebraElement(a.size, a.basis, [(with_half(d, False), c) for d, c in a.sum.terms()])
        else:
            a = add_slot(a)
        cur += HALF
    return a


def _lifted_difference(build, y, t, add_slot=_add_slot):
    """build(y) - build(y - 1/2), both lifted to level t; build(1/2) at y = 1/2."""
    y, t = as_level(y), as_level(t)
    if y == HALF:
        return _oracle_lift(build(y), t, add_slot)
    return _oracle_lift(build(y), t, add_slot) - _oracle_lift(build(y - HALF), t, add_slot)


def _oracle_family(t):
    """(y, M_y, M~_y) up to t, each M taken at its own level and lifted once."""
    return [
        (y, _oracle_lift(_lifted_difference(_oracle_z, y, y), t), _oracle_lift(_lifted_difference(_oracle_z_tilde, y, y), t))
        for y in levels_upto(t)
    ]


def _round_trip_add_slot(a):
    """Add the block {k+1, (k+1)'} to every diagram-basis term, converting an
    orbit-basis element to the diagram basis and back."""
    k = a.size
    dia = from_orbit(a) if a.basis == "orbit" else a

    def lift(d):
        return PartitionDiagram(k + 1, d.blocks + ((k + 1, -(k + 1)),), half=True)

    lifted = AlgebraElement(k + 1, "diagram", [(lift(d), c) for d, c in dia.sum.terms()], half=True)
    return to_orbit(lifted) if a.basis == "orbit" else lifted


def _assert_same_sum(new, old):
    # == alone would not tell a Fraction from a constant XiPoly
    assert new.sum == old.sum
    assert [(k, type(c)) for k, c in new.sum.items()] == [(k, type(c)) for k, c in old.sum.items()]


def test_m_families_match_the_round_trip_lift():
    new = {
        (build.__name__, y, t): build(y, t)
        for t in levels_upto(4)
        for y in levels_upto(t)
        for build in (build_m, build_m_tilde)
    }
    old = {
        (name, y, t): _lifted_difference(z, y, t, _round_trip_add_slot)
        for t in levels_upto(4)
        for y in levels_upto(t)
        for name, z in (("build_m", _oracle_z), ("build_m_tilde", _oracle_z_tilde))
    }
    assert new.keys() == old.keys() and len(new) == 72
    for key in new:
        _assert_same_sum(new[key], old[key])


def test_mask_route_matches_the_term_by_term_lift_up_to_eleven_halves():
    for t in levels_upto(Fraction(11, 2)):
        _assert_same_sum(build_z(t), _oracle_z(t))
        _assert_same_sum(build_z_tilde(t), _oracle_z_tilde(t))
        family = jm._m_family(t)
        assert [y for y, _, _ in family] == levels_upto(t)
        for (y, m, mt), (_, old_m, old_mt) in zip(family, _oracle_family(t)):
            _assert_same_sum(m, old_m)
            _assert_same_sum(mt, old_mt)
            _assert_same_sum(build_m(y, t), old_m)
            _assert_same_sum(build_m_tilde(y, t), old_mt)
        if t <= 4:
            for x in (build_z(t), build_z_tilde(t)):
                for step in (HALF, 1):
                    _assert_same_sum(tower_lift(x, t + step), _oracle_lift(x, t + step))


def test_add_slot_matches_the_round_trip_on_single_diagrams():
    for d in enumerate_monoid("A", 2) + enumerate_monoid("I", 3):
        for basis in ("orbit", "diagram"):
            x = AlgebraElement.from_diagram(d, basis=basis)
            _assert_same_sum(_add_slot(x), _round_trip_add_slot(x))
            if basis == "orbit":
                _assert_same_sum(tower_lift(x, d.size + HALF), _add_slot(x))


def test_add_slot_matches_the_round_trip_on_mixed_sums():
    # values only: the round trip turns some Fractions into constant XiPolys,
    # while the closed form keeps each term's own coefficient
    rng = random.Random(37)
    coeffs = [Fraction(3, 2), Fraction(-1), XI, XI - 2, XiPoly.const(3)]
    for pool in (enumerate_monoid("A", 2), enumerate_monoid("I", 3)):
        for _ in range(50):
            terms = [(d, rng.choice(coeffs)) for d in rng.sample(pool, 4)]
            x = AlgebraElement(pool[0].size, "orbit", terms)
            new = _add_slot(x)
            assert new.sum == _round_trip_add_slot(x).sum
            assert sorted(map(repr, (c for _, c in new.sum.items()))) == sorted(
                repr(c) for d, c in terms for _ in range(len(d.blocks) + 1)
            )
            _assert_same_sum(tower_lift(x, x.level + HALF), new)
            _assert_same_sum(tower_lift(x, x.level + 1), _oracle_lift(x, x.level + 1))


def test_a_central_sum_that_stops_propagating_is_named(monkeypatch):
    # the one-block partition's block split into its top and bottom rows
    real = jm._through_blocks

    def split_single(p, c=None, d=None):
        blocks = real(p, c, d)
        return [p[0], tuple(-v for v in p[0])] if len(p) == 1 else blocks

    monkeypatch.setattr(jm, "_through_blocks", split_single)
    monkeypatch.setattr(jm, "_central_terms", cache(jm._central_terms.__wrapped__))
    with pytest.raises(RuntimeError) as refused:
        build_z(2)
    assert str(refused.value) == "Z at level 2 has the term [[1,2],[-1,-2]], which is not totally propagating"


def test_a_lifted_family_term_that_stops_propagating_is_named(monkeypatch):
    # the added block {k+1, (k+1)'} split into its two vertices
    real = jm._slot_lifts

    def split_slot(masks, size):
        return [tuple(sorted([m & ~1 for m in lifted] + [1], reverse=True)) for lifted in real(masks, size)]

    monkeypatch.setattr(jm, "_slot_lifts", split_slot)
    monkeypatch.setattr(jm, "_family_terms", cache(jm._family_terms.__wrapped__))
    with pytest.raises(RuntimeError) as refused:
        build_m(HALF, Fraction(3, 2))
    assert str(refused.value) == (
        "M_1/2 at level 3/2 has the term [[1,-1],[2],[-2]], which is not totally propagating with its last column joined"
    )


def test_centrality_check_names_a_non_central_witness(monkeypatch):
    cases = [
        (
            "[[1,-2],[2,-1],[3,-3]]",
            ["Z at level 3 does not commute with [[1,-1],[2,-3],[3,-2]]"],
        ),
        # commutes with the orbit element x_g of every generator g, so only
        # the check against the diagram g itself names g
        (
            "[[1,3,-2],[2,-1,-3]]",
            [
                "Z at level 3 does not commute with [[1,-2],[2,-1],[3,-3]]",
                "Z at level 3 does not commute with [[1,-1],[2,-3],[3,-2]]",
                "M~_2 and M_3 do not commute at level 3",
                "M~_5/2 and M_3 do not commute at level 3",
            ],
        ),
    ]
    for extra, failures in cases:
        with monkeypatch.context() as planted:
            _add_to_z(planted, 3, extra)
            report = verify_centrality(3)
        assert not report["ok"]
        assert report["failures"] == failures
