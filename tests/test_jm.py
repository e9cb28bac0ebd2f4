from fractions import Fraction

import pytest

from rookpart.bratteli import HALF, ihat
from rookpart.diagram import AlgebraElement, PartitionDiagram, orbit_product_tppa, to_orbit
from rookpart.formal import FormalSum
from rookpart.jm import (
    as_level,
    build_m,
    build_m_tilde,
    build_z,
    build_z_tilde,
    gt_decompose,
    predicted_eigenvalues,
    tower_lift,
    verify_centrality,
    verify_operator_identity,
    zero_element,
)


def D(text, half=False):
    return PartitionDiagram.parse(text, half=half)


def test_as_level_validation():
    assert as_level(Fraction(5, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        as_level(Fraction(1, 3))
    with pytest.raises(ValueError):
        as_level(0)


def test_z_examples():
    z1 = build_z(1)
    assert z1.sum == FormalSum.term(PartitionDiagram.identity(1))
    z2 = build_z(2)
    assert z2.sum.coefficient(D("[[1,2,-1,-2]]")) == 1
    assert z2.sum.coefficient(PartitionDiagram.identity(2)) == 2
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
    one1 = AlgebraElement.one(1, basis="orbit")
    for target in (Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        lifted = tower_lift(one1, target)
        size = int(target) if target.denominator == 1 else int(target + HALF)
        assert lifted == AlgebraElement.one(
            size, basis="orbit", half=target.denominator == 2
        )


def test_tower_lift_refuses_downward():
    with pytest.raises(ValueError):
        tower_lift(build_z(2), 1)


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
    with pytest.raises(ValueError):
        verify_centrality(Fraction(9, 2))


def test_central_sum_commutes_with_every_diagram_by_hand():
    z = build_z(2)
    for d in (D("[[1,-1],[2,-2]]"), D("[[1,-2],[2,-1]]"), D("[[1,2,-1,-2]]")):
        g = to_orbit(AlgebraElement.from_diagram(d))
        assert orbit_product_tppa(g, z) == orbit_product_tppa(z, g)


def test_operator_identity_examples():
    assert verify_operator_identity(2, 1)["ok"]
    assert verify_operator_identity(3, 2)["ok"]
    assert verify_operator_identity(3, Fraction(5, 2))["ok"]
    with pytest.raises(ValueError):
        verify_operator_identity(1, 2)
    with pytest.raises(ValueError):
        verify_operator_identity(2, Fraction(5, 2))


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
