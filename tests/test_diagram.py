import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from rookpart import acceptance, diagram
from rookpart.combinat import bell, set_partitions
from rookpart.diagram import (
    AlgebraElement,
    PartitionDiagram,
    compose,
    diagram_product,
    enumerate_monoid,
    from_orbit,
    generating_set,
    is_half,
    is_totally_propagating,
    orbit_product_general,
    to_orbit,
)
from rookpart.formal import FormalSum
from rookpart.scalars import XI, XiPoly, falling_factorial
from test_scalars import bilinear


def D(text, half=False):
    return PartitionDiagram.parse(text, half=half)


def coarsenings(d):
    """All diagrams coarser than d (d itself included), from its upset table."""
    return tuple(c for c, _ in diagram._upset(d))


def _oracle_coarser(c, d):
    """True iff every block of d lies inside a block of c."""
    return all(any(set(b) <= set(bc) for bc in c.blocks) for b in d.blocks)


def test_parse_print_round_trip():
    texts = ["[[1,2,-1,-3],[3,-4],[4,-2]]", "[[1,-1]]", "[[1],[2],[-1,-2]]"]
    for text in texts:
        assert str(D(text)) == text
    # arbitrary block order canonicalizes
    assert str(D("[[4,-2],[3,-4],[1,2,-1,-3]]")) == "[[1,2,-1,-3],[3,-4],[4,-2]]"


def test_validation():
    with pytest.raises(ValueError):
        PartitionDiagram(2, [(1, -1)])
    with pytest.raises(ValueError):
        PartitionDiagram(1, [(1,), (1, -1)])
    with pytest.raises(ValueError):
        PartitionDiagram(2, [(1, -1), (2,), (-2,)], half=True)


def test_validation_names_malformed_blocks():
    with pytest.raises(ValueError, match="block 2 of the diagram is empty"):
        D("[[1,-1],[]]")
    with pytest.raises(ValueError, match="empty"):
        PartitionDiagram(1, [(), (1, -1)])
    with pytest.raises(ValueError, match=r"block \[1, 1, -1\] repeats a vertex"):
        D("[[1,1,-1]]")
    with pytest.raises(ValueError, match=r"block \[2, -1, 2\] repeats a vertex"):
        PartitionDiagram(2, [(1,), (2, -1, 2), (-2,)])
    with pytest.raises(ValueError, match="the diagram is empty"):
        D("[]")
    with pytest.raises(ValueError, match=r"^vertex 1 is in blocks \[1, -1\] and \[1\]$"):
        PartitionDiagram(1, [[1, -1], [1]])
    with pytest.raises(ValueError, match=r"^vertex -2 is in blocks \[2, -2\] and \[-1, -2\]$"):
        PartitionDiagram(2, [(1,), (2, -2), (-1, -2)])
    with pytest.raises(ValueError, match="^vertex 1 is in no block$"):
        PartitionDiagram(1, [])
    with pytest.raises(ValueError, match="^vertex 1 is in no block$"):
        PartitionDiagram(2, [(2, -2)])
    with pytest.raises(ValueError, match="^vertex -2 is in no block$"):
        D("[[1,-1],[2]]")
    with pytest.raises(ValueError, match="^vertex 0 is not a vertex of a size-1 diagram$"):
        D("[[0]]")
    with pytest.raises(ValueError, match="^vertex 3 is not a vertex of a size-2 diagram$"):
        PartitionDiagram(2, [(1, -1), (2, 3)])


def test_validation_of_a_far_vertex_builds_no_table_of_its_size():
    tables = diagram._block_table.cache_info().currsize
    with pytest.raises(ValueError, match="^vertex 1 is in no block$"):
        D("[[1000000,-1]]")
    assert diagram._block_table.cache_info().currsize == tables


def test_block_table_reads_the_set_bits_of_every_mask():
    # against a scan of all 2k bit positions, highest first
    for k in (1, 2, 3):
        table = diagram._BlockTable(k)
        for mask in range(1 << 2 * k):
            scan = tuple(2 * k - b if b >= k else b - k for b in range(2 * k - 1, -1, -1) if mask >> b & 1)
            assert table[mask] == scan, (k, mask)


def test_compose_identity():
    for d in enumerate_monoid("A", 2):
        out, loops = compose(PartitionDiagram.identity(2), d)
        assert out == d and loops == 0


def test_compose_crossing_example():
    d1 = D("[[1,3],[2,-1],[4],[-2,-3],[-4]]")
    d2 = D("[[1,-4],[2],[3],[4],[-1],[-2,-3]]")
    out, loops = compose(d1, d2)
    assert str(out) == "[[1,3],[2,-4],[4],[-1],[-2,-3]]"
    assert loops == 2


def test_compose_hand_example():
    d1 = D("[[1,2],[-1],[-2]]")
    d2 = D("[[1],[2],[-1,-2]]")
    out, loops = compose(d1, d2)
    assert out == D("[[1,2],[-1,-2]]")
    assert loops == 2


def test_compose_size_mismatch():
    with pytest.raises(ValueError, match="^cannot compose a size-2 diagram with a size-3 diagram$"):
        compose(PartitionDiagram.identity(2), PartitionDiagram.identity(3))
    with pytest.raises(ValueError, match="^cannot compose a size-2 half diagram with a size-2 diagram$"):
        compose(PartitionDiagram.identity(2, half=True), PartitionDiagram.identity(2))


def test_compose_associative_exhaustive_a2():
    diagrams = enumerate_monoid("A", 2)
    for a in diagrams:
        for b in diagrams:
            ab, _ = compose(a, b)
            for c in diagrams:
                bc, _ = compose(b, c)
                assert compose(ab, c)[0] == compose(a, bc)[0]


def test_compose_associative_random_a3():
    diagrams = enumerate_monoid("A", 3)
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rng.choice(diagrams) for _ in range(3))
        ab, la = compose(a, b)
        bc, lc = compose(b, c)
        left, l2 = compose(ab, c)
        right, r2 = compose(a, bc)
        assert left == right
        assert la + l2 == lc + r2  # loop counts agree too


def test_diagram_product_identity_and_xi_power():
    ident = unit(2)
    for d in enumerate_monoid("A", 2):
        elem = AlgebraElement.from_diagram(d)
        assert diagram_product(ident, elem) == elem
    d1 = AlgebraElement.from_diagram(D("[[1,3],[2,-1],[4],[-2,-3],[-4]]"))
    d2 = AlgebraElement.from_diagram(D("[[1,-4],[2],[3],[4],[-1],[-2,-3]]"))
    prod = diagram_product(d1, d2)
    ((key, coeff),) = prod.sum.items()
    assert str(key) == "[[1,3],[2,-4],[4],[-1],[-2,-3]]"
    assert coeff == XI * XI


def test_propagating_products_stay_rational():
    for t in (2, 3):
        diagrams = enumerate_monoid("I", t)
        for a in diagrams:
            for b in diagrams:
                out, loops = compose(a, b)
                assert loops == 0
                assert is_totally_propagating(out)


def test_coarser_examples_and_partial_order():
    one = D("[[1,-1]]")
    two = D("[[1],[-1]]")
    assert _oracle_coarser(one, two)
    assert not _oracle_coarser(two, one)
    diagrams = enumerate_monoid("A", 2)
    for a in diagrams:
        assert _oracle_coarser(a, a)
        for b in diagrams:
            if _oracle_coarser(a, b) and _oracle_coarser(b, a):
                assert a == b
            for c in diagrams:
                if _oracle_coarser(a, b) and _oracle_coarser(b, c):
                    assert _oracle_coarser(a, c)


def test_coarsenings_are_exactly_the_coarser_diagrams():
    for d in enumerate_monoid("A", 2):
        up = set(coarsenings(d))
        brute = {c for c in enumerate_monoid("A", 2) if _oracle_coarser(c, d)}
        assert up == brute


def test_orbit_basis_k1():
    e = D("[[1],[-1]]")
    i = D("[[1,-1]]")
    xi_elem = AlgebraElement.from_diagram(i, basis="orbit")
    assert from_orbit(xi_elem).sum == FormalSum.term(i)
    xe = AlgebraElement.from_diagram(e, basis="orbit")
    assert from_orbit(xe).sum == FormalSum([(e, Fraction(1)), (i, Fraction(-1))])


def test_orbit_round_trip_all_of_a2():
    for d in enumerate_monoid("A", 2):
        x = AlgebraElement.from_diagram(d, basis="orbit")
        assert to_orbit(from_orbit(x)) == x
        y = AlgebraElement.from_diagram(d)
        assert from_orbit(to_orbit(y)) == y


def test_orbit_product_examples():
    ident = unit(2, basis="orbit")
    x_id = AlgebraElement.from_diagram(PartitionDiagram.identity(2), basis="orbit")
    assert orbit_product_general(x_id, x_id) == x_id
    e = D("[[1],[-1]]")
    xe = AlgebraElement.from_diagram(e, basis="orbit")
    sq = orbit_product_general(xe, xe)
    assert dict(sq.sum.terms())[e] == XI - 2
    assert dict(sq.sum.terms())[D("[[1,-1]]")] == XI - 1
    assert ident != x_id  # the unit has two orbit terms at k=2


def test_orbit_product_mismatch_is_zero():
    a = AlgebraElement.from_diagram(D("[[1,2],[-1],[-2]]"), basis="orbit")
    b = AlgebraElement.from_diagram(D("[[1,2,-1,-2]]"), basis="orbit")
    assert not orbit_product_general(a, b)


def test_orbit_product_change_of_basis_oracle_a2():
    diagrams = enumerate_monoid("A", 2)
    for d1 in diagrams:
        for d2 in diagrams:
            x1 = AlgebraElement.from_diagram(d1, basis="orbit")
            x2 = AlgebraElement.from_diagram(d2, basis="orbit")
            assert orbit_product_general(x1, x2) == to_orbit(
                diagram_product(from_orbit(x1), from_orbit(x2))
            )


def test_orbit_product_swap_squared_is_the_identity():
    swap = D("[[1,-2],[2,-1]]")
    x = AlgebraElement.from_diagram(swap, basis="orbit")
    sq = orbit_product_general(x, x)
    assert sq.sum == FormalSum.term(PartitionDiagram.identity(2))
    assert [type(c) for _, c in sq.sum.terms()] == [Fraction]


def test_orbit_product_on_totally_propagating_monoids_follows_the_tp_rule():
    # x_{d1} x_{d2} is x_{d1∘d2} when the middle rows match and 0 otherwise,
    # on every pair of I_2, I_3, I_{1½} and I_{2½}, with the Fraction 1
    monoids = [enumerate_monoid("I", 2), enumerate_monoid("I", 3)]
    monoids += [enumerate_monoid("I_half", 1), enumerate_monoid("I_half", 2)]
    zeros = 0
    for diagrams in monoids:
        for a in diagrams:
            for b in diagrams:
                got = orbit_product_general(*(AlgebraElement.from_diagram(d, basis="orbit") for d in (a, b)))
                assert got.sum == _oracle_tppa_pair(a, b), (a, b)
                assert all(type(c) is Fraction and c == 1 for _, c in got.sum.terms())
                zeros += not got
    assert zeros > 0


def test_predicates():
    ident = PartitionDiagram.identity(2)
    assert is_totally_propagating(ident) and is_half(ident)
    swap = D("[[1,-2],[2,-1]]")
    assert is_totally_propagating(swap) and not is_half(swap)
    full = D("[[1,2,-1,-2]]")
    assert is_totally_propagating(full) and is_half(full)
    assert not is_totally_propagating(D("[[1,2],[-1,-2]]"))


def test_enumerate_monoid_counts():
    assert len(enumerate_monoid("A", 2)) == 15
    assert len(enumerate_monoid("A", 3)) == 203
    assert [len(enumerate_monoid("I", k)) for k in (1, 2, 3, 4)] == [1, 3, 25, 339]
    assert [len(enumerate_monoid("I_half", k)) for k in (1, 2, 3)] == [2, 12, 128]
    with pytest.raises(ValueError):
        enumerate_monoid("A", 7)
    with pytest.raises(ValueError):
        enumerate_monoid("I", 6)


def embed_half(a):
    """The orbit-key lift x_d -> x_{d with {k+1, (k+1)'}} of level k into k+1/2."""
    k = a.size

    def lift(d):
        return PartitionDiagram(k + 1, d.blocks + ((k + 1, -(k + 1)),), half=True)

    return AlgebraElement(k + 1, "orbit", [(lift(d), c) for d, c in a.sum.terms()], half=True)


def test_embed_half_preserves_products():
    diagrams = enumerate_monoid("I", 2)
    for a in diagrams:
        for b in diagrams:
            xa = AlgebraElement.from_diagram(a, basis="orbit")
            xb = AlgebraElement.from_diagram(b, basis="orbit")
            lhs = embed_half(orbit_product_general(xa, xb))
            rhs = orbit_product_general(embed_half(xa), embed_half(xb))
            assert lhs == rhs


def test_embed_half_matches_central_sum_decomposition():
    # the embedded level-k central sum is exactly the anchored-singleton part
    # of the next half-level central sum
    from rookpart.jm import build_z

    for k in (1, 2, 3):
        inside = build_z(Fraction(2 * k + 1, 2)) - embed_half(build_z(k))
        for key, coeff in inside.sum.items():
            anchor = next(b for b in key.blocks if k + 1 in b)
            assert len([v for v in anchor if v > 0]) > 1
            assert coeff == Fraction(key.n_blocks() - 1)


# --- diagrams attached to set partitions: the oracle of the central sums ----------


def canonical_set_partition(blocks):
    out = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
    seen = [e for b in out for e in b]
    if len(set(seen)) != len(seen) or any(not b for b in out):
        raise ValueError("blocks must be disjoint and nonempty")
    return out


def build_dp(p) -> PartitionDiagram:
    """Diagram with blocks B ∪ B' for each block B of the set partition p."""
    p = canonical_set_partition(p)
    k = max(e for b in p for e in b)
    blocks = [b + tuple(-v for v in b) for b in p]
    return PartitionDiagram(k, blocks)


def build_dpcd(p, c, d) -> PartitionDiagram:
    """Diagram fixing every block of p except c, d, which are crossed:
    blocks C ∪ D' and D ∪ C'."""
    p = canonical_set_partition(p)
    c = tuple(sorted(c))
    d = tuple(sorted(d))
    if c not in p or d not in p or c == d:
        raise ValueError("c and d must be distinct blocks of p")
    k = max(e for b in p for e in b)
    blocks = [b + tuple(-v for v in b) for b in p if b not in (c, d)]
    blocks.append(c + tuple(-v for v in d))
    blocks.append(d + tuple(-v for v in c))
    return PartitionDiagram(k, blocks)


def build_dtilde(p, c, d) -> PartitionDiagram:
    """Half-level crossed diagram: as build_dpcd but p partitions {1..k+1} and
    neither c nor d may be the block containing the last letter."""
    p = canonical_set_partition(p)
    k1 = max(e for b in p for e in b)
    anchor = next(b for b in p if k1 in b)
    c = tuple(sorted(c))
    d = tuple(sorted(d))
    if c == anchor or d == anchor:
        raise ValueError("crossed blocks may not contain the last letter")
    full = build_dpcd(p, c, d)
    return with_half(full, True)


def with_half(d, half):
    return PartitionDiagram(d.size, d.blocks, half)


def unit(size, basis="diagram", half=False):
    """The unit of the size-k algebra in either basis."""
    ident = AlgebraElement.from_diagram(PartitionDiagram.identity(size, half))
    return to_orbit(ident) if basis == "orbit" else ident


def test_build_dp_examples():
    assert build_dp(((1, 2), (3,))) == D("[[1,2,-1,-2],[3,-3]]")
    p = ((1, 3), (4,), (2, 5))
    got = build_dpcd(p, (1, 3), (2, 5))
    assert got == D("[[1,3,-2,-5],[2,5,-1,-3],[4,-4]]")
    tilde = build_dtilde(p, (1, 3), (4,))
    assert tilde == D("[[1,3,-4],[2,5,-2,-5],[4,-1,-3]]", half=True)
    assert tilde.half
    with pytest.raises(ValueError):
        build_dpcd(p, (1, 3), (1, 3))
    with pytest.raises(ValueError):
        build_dtilde(p, (2, 5), (4,))


def test_orbit_product_change_of_basis_oracle_random_a3():
    # richer block configurations than size 2: several row-only blocks on
    # each side, so the partial-matching sum is exercised properly
    diagrams = enumerate_monoid("A", 3)
    rng = random.Random(17)
    for _ in range(60):
        d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
        x1 = AlgebraElement.from_diagram(d1, basis="orbit")
        x2 = AlgebraElement.from_diagram(d2, basis="orbit")
        assert orbit_product_general(x1, x2) == to_orbit(
            diagram_product(from_orbit(x1), from_orbit(x2))
        )


def test_orbit_product_specializes_to_operator_product():
    # evaluating the symbolic product at xi = n must match the matrix product
    # of the strict-pattern actions
    from rookpart.tensor import TensorSpace, phi_element

    diagrams = enumerate_monoid("A", 2)
    for n in (2, 3):
        space = TensorSpace(n, 2)
        for d1 in diagrams:
            for d2 in diagrams:
                x1 = AlgebraElement.from_diagram(d1, basis="orbit")
                x2 = AlgebraElement.from_diagram(d2, basis="orbit")
                lhs = phi_element(x1, space) * phi_element(x2, space)
                rhs = phi_element(orbit_product_general(x1, x2), space)
                assert lhs == rhs


# --- oracles: the vertex-level, unmatched and multiply-by-one routes ----------


def _oracle_compose(d1, d2):
    """Union-find over the 3k vertices of the stacked diagrams."""
    k = d1.size
    # vertex ids: 0..k-1 top, k..2k-1 middle, 2k..3k-1 bottom
    parent = list(range(3 * k))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def top_id(v):
        return v - 1 if v > 0 else k + (-v - 1)

    def bot_id(v):
        return k + (v - 1) if v > 0 else 2 * k + (-v - 1)

    for blocks, vid in ((d1.blocks, top_id), (d2.blocks, bot_id)):
        for b in blocks:
            for v in b[1:]:
                rx, ry = find(vid(b[0])), find(vid(v))
                if rx != ry:
                    parent[rx] = ry
    comps = {}
    for x in range(3 * k):
        comps.setdefault(find(x), []).append(x)
    blocks, internal = [], 0
    for members in comps.values():
        outer = [m for m in members if m < k or m >= 2 * k]
        if not outer:
            internal += 1
            continue
        blocks.append(tuple(m + 1 if m < k else -(m - 2 * k + 1) for m in outer))
    return PartitionDiagram(k, blocks, d1.half), internal


def _oracle_rows_match(d1, d2):
    bottom = [tuple(-v for v in b if v < 0) for b in d1.blocks]
    top = [tuple(v for v in b if v > 0) for b in d2.blocks]
    return canonical_set_partition([p for p in bottom if p]) == canonical_set_partition(
        [p for p in top if p]
    )


def _oracle_orbit_pair(d1, d2):
    if not _oracle_rows_match(d1, d2):
        return FormalSum.zero()
    comp, internal = _oracle_compose(d1, d2)
    top_only = [b for b in d1.blocks if all(v > 0 for v in b)]
    bottom_only = [b for b in d2.blocks if all(v < 0 for v in b)]
    out = []
    for m in range(min(len(top_only), len(bottom_only)) + 1):
        for tops in combinations(range(len(top_only)), m):
            for bots in permutations(range(len(bottom_only)), m):
                glue = {top_only[t]: bottom_only[b] for t, b in zip(tops, bots)}
                used = set(glue.values())
                blocks = [b + glue.get(b, ()) for b in comp.blocks if b not in used]
                d = PartitionDiagram(comp.size, blocks, comp.half)
                out.append((d, falling_factorial(XI - d.n_blocks(), internal)))
    return FormalSum(out)


def _oracle_tppa_pair(d1, d2):
    if not _oracle_rows_match(d1, d2):
        return FormalSum.zero()
    return FormalSum.term(_oracle_compose(d1, d2)[0], Fraction(1))


def _oracle_diagram_pair(d1, d2):
    d, loops = _oracle_compose(d1, d2)
    return FormalSum.term(d, Fraction(1) if loops == 0 else XiPoly([0] * loops + [1]))


def map_terms(s, fn):
    """Linear extension of fn: key -> FormalSum."""
    return FormalSum([(k, coeff * c) for key, coeff in s.terms() for k, c in fn(key).terms()])


def _oracle_to_orbit(s):
    return map_terms(s, lambda d: FormalSum([(c, Fraction(1)) for c in coarsenings(d)]))


def _canonical_type(c):
    """Fraction for a constant value, XiPoly for any other."""
    return XiPoly if type(c) is XiPoly and not c.is_constant() else Fraction


def _assert_same_sum(new, old):
    """Equal sums, and term by term the canonical type of the oracle's value:
    a Fraction exactly when it is constant.  == alone would not tell a
    Fraction from a constant XiPoly."""
    assert new.sum == old
    assert [(k, type(c)) for k, c in new.sum.items()] == [(k, _canonical_type(c)) for k, c in old.items()]


def _oracle_monoids():
    return [
        enumerate_monoid("A", 2),
        enumerate_monoid("I", 3),
        enumerate_monoid("I_half", 2),
    ]


def _sampled_a3_pairs(count, seed):
    diagrams = enumerate_monoid("A", 3)
    rng = random.Random(seed)
    return [(rng.choice(diagrams), rng.choice(diagrams)) for _ in range(count)]


def _all_oracle_pairs():
    pairs = [(a, b) for monoid in _oracle_monoids() for a in monoid for b in monoid]
    return pairs + _sampled_a3_pairs(300, 23)


def test_compose_matches_vertex_level_oracle():
    for d1, d2 in _all_oracle_pairs():
        got, loops = compose(d1, d2)
        want, want_loops = _oracle_compose(d1, d2)
        assert got.blocks == want.blocks, (d1, d2)
        assert loops == want_loops, (d1, d2)
        assert got.half == d1.half
        assert got == want and hash(got) == hash(want)


def test_middle_rows_read_cached_partitions():
    for d1, d2 in _all_oracle_pairs():
        assert (d1.bottom_partition() == d2.top_partition()) == _oracle_rows_match(d1, d2)
    for d in enumerate_monoid("A", 3):
        top = canonical_set_partition([[v for v in b if v > 0] for b in d.blocks if b[0] > 0])
        assert d.top_partition() == top
        flipped = PartitionDiagram(d.size, [[-v for v in b] for b in d.blocks])
        assert d.bottom_partition() == flipped.top_partition()


def test_products_match_unmatched_oracles_on_single_diagrams():
    for d1, d2 in _all_oracle_pairs():
        y1, y2 = AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2)
        _assert_same_sum(diagram_product(y1, y2), bilinear(y1.sum, y2.sum, _oracle_diagram_pair))
        x1 = AlgebraElement.from_diagram(d1, basis="orbit")
        x2 = AlgebraElement.from_diagram(d2, basis="orbit")
        _assert_same_sum(orbit_product_general(x1, x2), bilinear(x1.sum, x2.sum, _oracle_orbit_pair))
        if is_totally_propagating(d1) and is_totally_propagating(d2):
            assert orbit_product_general(x1, x2).sum == bilinear(x1.sum, x2.sum, _oracle_tppa_pair)


def test_matched_middles_compose_as_the_component_search_does():
    # every matched pair of A_2, A_3 and I_{3 1/2}: the orbit product's first
    # term is d1 ∘ d2 with no one-row blocks joined, and its falling-factorial
    # row has degree equal to the number of internal blocks
    count = 0
    for monoid in (enumerate_monoid("A", 2), enumerate_monoid("A", 3), enumerate_monoid("I_half", 3)):
        by_top = {}
        for d2 in monoid:
            by_top.setdefault(d2.top_partition(), []).append(d2)
        for d1 in monoid:
            k = d1.size
            left = [m << k for m in d1._masks]
            for d2 in by_top.get(d1.bottom_partition(), ()):
                masks, loops = diagram._compose_masks(k, left, d2._masks)
                first = diagram._orbit_pair_product(d1, d2)[0]
                assert first == (masks, diagram._falling_row(len(masks), loops)), (d1, d2)
                count += 1
    assert count > 10_000


def test_an_unmatched_middle_names_both_diagrams(monkeypatch):
    # a planted fault: with every row read as the same partition, the orbit
    # product pairs diagrams whose middle rows differ
    monkeypatch.setattr(PartitionDiagram, "top_partition", lambda d: ())
    monkeypatch.setattr(PartitionDiagram, "bottom_partition", lambda d: ())
    x1 = AlgebraElement.from_diagram(D("[[1,-1],[2,-2]]"), basis="orbit")
    x2 = AlgebraElement.from_diagram(D("[[1,2,-1,-2]]"), basis="orbit")
    with pytest.raises(ValueError) as raised:
        orbit_product_general(x1, x2)
    assert str(raised.value) == (
        "the middle rows of [[1,-1],[2,-2]] and [[1,2,-1,-2]] do not match: "
        "the bottom part [1] of the first is no top part of the second"
    )


def _random_element(rng, pool, basis):
    # int, Fraction and XiPoly coefficients, constant XiPolys included
    coeffs = [1, -2, Fraction(3, 2), Fraction(-1), XI, XI - 2, XiPoly.const(3)]
    terms = [(d, rng.choice(coeffs)) for d in rng.sample(pool, min(4, len(pool)))]
    return AlgebraElement(pool[0].size, basis, terms, pool[0].half)


def test_products_match_unmatched_oracles_on_mixed_sums():
    rng = random.Random(29)
    for monoid in _oracle_monoids() + [enumerate_monoid("A", 3)]:
        propagating = [d for d in monoid if is_totally_propagating(d)]
        for _ in range(25):
            y1, y2 = (_random_element(rng, monoid, "diagram") for _ in range(2))
            _assert_same_sum(diagram_product(y1, y2), bilinear(y1.sum, y2.sum, _oracle_diagram_pair))
            _assert_same_sum(to_orbit(y1), _oracle_to_orbit(y1.sum))
            x1, x2 = (_random_element(rng, monoid, "orbit") for _ in range(2))
            _assert_same_sum(orbit_product_general(x1, x2), bilinear(x1.sum, x2.sum, _oracle_orbit_pair))
            t1, t2 = (_random_element(rng, propagating, "orbit") for _ in range(2))
            tp = orbit_product_general(t1, t2)
            _assert_same_sum(tp, bilinear(t1.sum, t2.sum, _oracle_orbit_pair))
            assert tp.sum == bilinear(t1.sum, t2.sum, _oracle_tppa_pair)


def test_to_orbit_matches_map_terms_oracle():
    for monoid in _oracle_monoids() + [enumerate_monoid("A", 3)]:
        for d in monoid:
            y = AlgebraElement.from_diagram(d)
            _assert_same_sum(to_orbit(y), _oracle_to_orbit(y.sum))


# --- the XiPoly-summing route: the products' former bodies, as oracles --------


def _old_terms(s):
    return [(d, c.numerator if type(c) is Fraction and c.denominator == 1 else c) for d, c in s.terms()]


def _old_exact_sum(acc):
    return FormalSum({d: Fraction(c) if isinstance(c, int) else c for d, c in acc.items()})


def _old_diagram_product(a, b):
    """Sums per (masks, loops), each times XiPoly xi^loops, summed per masks."""
    k = a.size
    right = [(d2._masks, c2) for d2, c2 in _old_terms(b.sum)]
    grouped = {}
    for d1, c1 in _old_terms(a.sum):
        left = tuple(m << k for m in d1._masks)
        for masks2, c2 in right:
            key = diagram._compose_masks(k, left, masks2)
            grouped[key] = grouped.get(key, 0) + c1 * c2
    acc = {}
    for (masks, loops), c in grouped.items():
        if loops:
            c = c * XiPoly([0] * loops + [1])
        acc[masks] = acc.get(masks, 0) + c
    return _old_exact_sum({PartitionDiagram._from_masks(k, m, a.half): c for m, c in acc.items()})


def _old_over_upset(a, mobius):
    acc = {}
    for d, coeff in _old_terms(a.sum):
        for c, mu in diagram._upset(d):
            acc[c] = acc.get(c, 0) + (mu * coeff if mobius else coeff)
    return _old_exact_sum(acc)


def test_products_and_basis_changes_match_the_xipoly_summing_route():
    rng = random.Random(59)
    for monoid in _oracle_monoids() + [enumerate_monoid("A", 3)]:
        for _ in range(25):
            y1, y2 = (_random_element(rng, monoid, "diagram") for _ in range(2))
            _assert_same_sum(diagram_product(y1, y2), _old_diagram_product(y1, y2))
            _assert_same_sum(to_orbit(y1), _old_over_upset(y1, mobius=False))
            x = _random_element(rng, monoid, "orbit")
            _assert_same_sum(from_orbit(x), _old_over_upset(x, mobius=True))


def _merged_over_upset(a, mobius):
    """_over_upset through its ``_Coeffs`` merge: a's entries, each split in
    two, then 1 and -1 on a second diagram, so that no one diagram holds them
    all.  The second is the one-block diagram, its own only coarsening and
    one of every diagram's, so the merge has a's keys and a's values."""
    entries, degree = diagram._entries(a)
    split = []
    for d, j, x in entries:
        split += [(d, j, x - 1), (d, j, 1)] if x != 1 else [(d, j, 2), (d, j, -1)]
    full = PartitionDiagram._from_masks(a.size, ((1 << 2 * a.size) - 1,), a.half)
    assert all(d is not full for d, _, _ in entries)
    split += [(full, 0, 1), (full, 0, -1)]
    merged = AlgebraElement._from_entries(a.size, a.basis, split, degree, a.half)
    return diagram._over_upset(merged, "diagram" if mobius else "orbit", mobius)


def test_one_diagram_basis_changes_equal_the_merge():
    half = D("[[1,-1],[2,3,-3],[-2]]", half=True)
    coeffs = [1, -3, Fraction(2, 3), Fraction(-5), XI, XiPoly([Fraction(1, 2), 0, -2, 7]), XiPoly.const(4)]
    for d in (D("[[1],[2],[3],[-1],[-2],[-3]]"), D("[[1,2],[-1],[3,-2,-3]]"), half):
        for c in coeffs:
            for basis, f, mobius in (("orbit", from_orbit, True), ("diagram", to_orbit, False)):
                a = AlgebraElement(d.size, basis, [(d, c)], d.half)
                got = f(a)
                assert diagram._entries(got) == diagram._entries(_merged_over_upset(a, mobius)), (d, c)
                _assert_same_sum(got, _old_over_upset(a, mobius))
    # a half times mu is integral where mu is even: mu = 2 where the three top
    # blocks of d merge, and -6 where all four do
    d = D("[[1],[2],[3],[-1,-2,-3]]")
    got = from_orbit(AlgebraElement(3, "orbit", [(d, Fraction(1, 2))]))
    values = {c.blocks: x for c, _, x in diagram._entries(got)[0]}
    assert values[((1, 2, 3), (-1, -2, -3))] == 1 and values[((1, 2, 3, -1, -2, -3),)] == -3
    assert all(type(x) is int for x in values.values() if x.denominator == 1)
    assert {type(x) for x in values.values()} == {int, Fraction}
    _assert_same_sum(got, _old_over_upset(AlgebraElement(3, "orbit", [(d, Fraction(1, 2))]), mobius=True))


def _cancelling_triple(monoid):
    """Diagrams x, y, w, z with x∘z = y∘z = w∘z, one loop in the first two
    and none in the third: in (x - y + w) z the xi terms cancel."""
    by_result = {}
    for z in monoid:
        for d in monoid:
            comp, loops = compose(d, z)
            by_result.setdefault((z, comp), {}).setdefault(min(loops, 2), []).append(d)
    for (z, _), found in by_result.items():
        if len(found.get(1, ())) >= 2 and found.get(0):
            (x, y, *_), (w, *_) = found[1], found[0]
            return x, y, w, z
    raise AssertionError("no cancelling triple")


def test_xipoly_sums_that_cancel_to_a_constant_become_fractions():
    x, y, w, z = _cancelling_triple(enumerate_monoid("A", 2))
    one = Fraction(1)
    # rational coefficients: the one-loop group sums to 0, and the key is left a Fraction
    a = AlgebraElement(2, "diagram", [(x, one), (y, -one), (w, Fraction(3))])
    prod = diagram_product(a, AlgebraElement.from_diagram(z))
    ((key, coeff),) = prod.sum.terms()
    assert key == compose(w, z)[0] and type(coeff) is Fraction and coeff == 3
    _assert_same_sum(prod, _old_diagram_product(a, AlgebraElement.from_diagram(z)))
    # an XiPoly coefficient whose xi term cancels the loop group's
    b = AlgebraElement(2, "diagram", [(x, one), (w, XiPoly.const(2) - XI)])
    got = diagram_product(b, AlgebraElement.from_diagram(z))
    assert dict(got.sum.terms()) == {compose(w, z)[0]: 2}
    assert [type(c) for _, c in got.sum.terms()] == [Fraction]
    _assert_same_sum(got, _old_diagram_product(b, AlgebraElement.from_diagram(z)))
    # two 3-block diagrams share the one-block coarsening, where xi and 2 - xi
    # (times mu = 2 for Möbius inversion) add to a constant
    terms = [(D("[[1],[2],[-1,-2]]"), XI), (D("[[1,2],[-1],[-2]]"), XiPoly.const(2) - XI)]
    c = AlgebraElement(2, "diagram", terms)
    for got, want in (
        (to_orbit(c), _old_over_upset(c, mobius=False)),
        (from_orbit(AlgebraElement(2, "orbit", terms)), _old_over_upset(c, mobius=True)),
    ):
        _assert_same_sum(got, want)
        full = dict(got.sum.terms())[D("[[1,2,-1,-2]]")]
        assert type(full) is Fraction


def _a3_stratified_pairs(seed):
    """A seeded sample of A_3 pairs, one per (blocks, blocks) cell, with the
    6-block diagram (every vertex alone, all 203 diagrams in its upset) in
    each cell that has it, and a second pair in the cells of at most 3 blocks
    each.  The three largest cells, (6, 6), (5, 6) and (6, 5), are left out:
    the bilinear oracle took 2.2 s on the (6, 6) pair and 0.45 s on a (5, 6)
    pair, single runs on a 2-CPU machine."""
    rng = random.Random(seed)
    by_blocks = {}
    for d in enumerate_monoid("A", 3):
        by_blocks.setdefault(d.n_blocks(), []).append(d)
    pairs = []
    for b1 in by_blocks:
        for b2 in by_blocks:
            if min(b1, b2) >= 5 and max(b1, b2) == 6:
                continue
            for _ in range(2 if max(b1, b2) <= 3 else 1):
                pairs.append((rng.choice(by_blocks[b1]), rng.choice(by_blocks[b2])))
    return pairs


def test_orbit_product_matches_both_via_basis_routes_on_a_stratified_a3_sample():
    pairs = _a3_stratified_pairs(61)
    assert len(pairs) == 42
    assert {(d1.n_blocks(), d2.n_blocks()) for d1, d2 in pairs} >= {(6, 1), (1, 6), (6, 4), (5, 5)}
    for d1, d2 in pairs:
        x1 = AlgebraElement.from_diagram(d1, basis="orbit")
        x2 = AlgebraElement.from_diagram(d2, basis="orbit")
        direct = orbit_product_general(x1, x2)
        y1, y2 = from_orbit(x1), from_orbit(x2)
        assert direct == to_orbit(diagram_product(y1, y2)), (d1, d2)
        assert direct.sum == _oracle_to_orbit(bilinear(y1.sum, y2.sum, _oracle_diagram_pair)), (d1, d2)


def _assert_built_once(r):
    """r equals the element the public constructors build from its terms, and
    holds no zero coefficient and no key off its level."""
    terms = list(r.sum.terms())
    assert r == AlgebraElement(r.size, r.basis, FormalSum(terms), r.half)
    assert all(c and type(c) in (Fraction, XiPoly) for _, c in terms)
    assert all(d.size == r.size and d.half == r.half for d, _ in terms)


def _cancelled(f, pool, basis):
    """f(a, b) for the first a = xi u - xi v and b, one diagram of pool or the
    sum of two, such that f(a, b) is not 0 and misses a key of some f(x, y),
    x in {u, v} and y in b: a key whose sum cancels."""
    for ws in [(w,) for w in pool] + list(combinations(pool, 2)):
        b = AlgebraElement(pool[0].size, basis, [(w, Fraction(1)) for w in ws], pool[0].half)
        singles = [AlgebraElement.from_diagram(w, basis=basis) for w in ws]
        for u, v in combinations(pool, 2):
            a = AlgebraElement(u.size, basis, [(u, XI), (v, -XI)], u.half)
            parts = [f(AlgebraElement.from_diagram(x, basis=basis), y) for x in (u, v) for y in singles]
            r = f(a, b)
            if r and set().union(*(dict(part.sum.terms()) for part in parts)) - dict(r.sum.terms()).keys():
                return r
    raise AssertionError("no key cancels")


def test_internal_results_equal_their_publicly_built_form():
    rng = random.Random(67)
    a_2, i_3 = enumerate_monoid("A", 2), enumerate_monoid("I", 3)
    cases = [
        (lambda a, b: to_orbit(a), "diagram", a_2),
        (lambda a, b: from_orbit(a), "orbit", a_2),
        (diagram_product, "diagram", a_2),
        (orbit_product_general, "orbit", a_2),
        (orbit_product_general, "orbit", i_3),
    ]
    for f, basis, pool in cases:
        _assert_built_once(_cancelled(f, pool, basis))
        for _ in range(20):
            _assert_built_once(f(_random_element(rng, pool, basis), _random_element(rng, pool, basis)))


# --- deferred sums: the former eager _Coeffs.element as the oracle ----------


def _eager_sum(acc, a):
    """An eager ``_Coeffs.element``: one coefficient and one diagram per
    nonzero key, in key order, the coefficient a Fraction when only power 0
    survives and an XiPoly otherwise.  It trims a copy of each row, so the
    rows reach the real body as they were."""
    k, half = a.size, a.half
    out = {}
    for key, row in acc.items():
        row = list(row)
        while row and not row[-1]:
            row.pop()
        if not row:
            continue
        c = Fraction(row[0]) if len(row) == 1 else XiPoly(row)
        out[PartitionDiagram._from_masks(k, key if acc.masks is None else acc.masks[key], half)] = c
    return FormalSum._from_dict(out)


def _summed_entries(entries, degree):
    """The entries summed into a ``_Coeffs`` by block masks, as the merge
    sums them."""
    acc = diagram._Coeffs(degree + 1)
    for d, j, x in entries:
        acc[d._masks][j] += x
    return acc


@pytest.fixture
def eager_oracle(monkeypatch):
    """(result, its entries, eager sum, whether a key was dropped) for every
    result that a product or a change of basis makes while the test runs.
    Every result is made by ``AlgebraElement._from_entries``; one made from
    a ``_Coeffs`` gets the eager sum of those sums, and one made without,
    such as a one-diagram change of basis, that of its entries summed."""
    made = []
    real_element = diagram._Coeffs.element
    real_from_entries = AlgebraElement._from_entries

    def from_entries(cls, size, basis, entries, degree, half):
        got = real_from_entries(size, basis, entries, degree, half)
        assert got._sum is None  # the sum waits for its first read
        made.append((got, got._kept, _eager_sum(_summed_entries(entries, degree), got), False))
        return got

    def element(acc, a, basis):
        want = _eager_sum(acc, a)
        got = real_element(acc, a, basis)
        assert made[-1][0] is got
        made[-1] = (got, got._kept, want, len(want) < len(acc))
        return got

    monkeypatch.setattr(AlgebraElement, "_from_entries", classmethod(from_entries))
    monkeypatch.setattr(diagram._Coeffs, "element", element)
    return made


def _through_every_route(x1, x2):
    """x1 and x2 (orbit basis) through both basis changes and both products,
    chained as criterion 8 chains them and from public elements."""
    y1, y2 = from_orbit(x1), from_orbit(x2)
    to_orbit(diagram_product(y1, y2))
    pub1 = AlgebraElement(x1.size, "diagram", x1.sum, x1.half)
    pub2 = AlgebraElement(x2.size, "diagram", x2.sum, x2.half)
    to_orbit(diagram_product(pub1, pub2))
    orbit_product_general(x1, x2)


def _assert_deferred_sums_match(made):
    for got, kept, want, _ in made:
        assert all(type(x) is int or type(x) is Fraction and x.denominator != 1 for _, _, x in kept[0])
        s = got.sum
        assert s == want
        assert [(d, type(c)) for d, c in s.terms()] == [(d, type(c)) for d, c in want.terms()]
        # the sum took the entries' place, and reads back to the same entries
        assert got._kept is None
        assert diagram._entries(got) == kept


def test_deferred_sums_equal_the_eager_oracle_on_every_route(eager_oracle):
    rng = random.Random(71)
    pairs = [(a, b) for k in (1, 2) for monoid in [enumerate_monoid("A", k)] for a in monoid for b in monoid]
    pairs += _sampled_a3_pairs(20, 71)
    i_half = enumerate_monoid("I_half", 2)
    pairs += [(rng.choice(i_half), rng.choice(i_half)) for _ in range(40)]
    for d1, d2 in pairs:
        _through_every_route(*(AlgebraElement.from_diagram(d, basis="orbit") for d in (d1, d2)))
    # mixed sums, with an XiPoly whose xi term is 0
    coeffs = [1, Fraction(-3, 2), XI, XiPoly([1, 0, 2]), XiPoly.const(3)]
    for pool in (enumerate_monoid("A", 2), enumerate_monoid("I", 3), i_half):
        for _ in range(15):
            x1, x2 = (
                AlgebraElement(pool[0].size, "orbit", [(d, rng.choice(coeffs)) for d in rng.sample(pool, 3)], pool[0].half)
                for _ in range(2)
            )
            _through_every_route(x1, x2)
    polys = [c for _, _, want, _ in eager_oracle for _, c in want.terms() if type(c) is XiPoly]
    assert any(0 in c.coeffs[:-1] for c in polys)
    _assert_deferred_sums_match(eager_oracle)


def test_deferred_sums_that_cancel_equal_the_eager_oracle(eager_oracle):
    # xi terms cancelling to a constant, which is a Fraction
    x, y, w, z = _cancelling_triple(enumerate_monoid("A", 2))
    a = AlgebraElement(2, "diagram", [(x, Fraction(1)), (y, Fraction(-1)), (w, Fraction(3))])
    diagram_product(a, AlgebraElement.from_diagram(z))
    terms = [(D("[[1],[2],[-1,-2]]"), XI), (D("[[1,2],[-1],[-2]]"), XiPoly.const(2) - XI)]
    to_orbit(AlgebraElement(2, "diagram", terms))
    from_orbit(AlgebraElement(2, "orbit", terms))
    # rows whose every power cancels, on each route
    a_2, i_3 = enumerate_monoid("A", 2), enumerate_monoid("I", 3)
    for f, basis, pool in [
        (lambda a, b: to_orbit(a), "diagram", a_2),
        (lambda a, b: from_orbit(a), "orbit", a_2),
        (diagram_product, "diagram", a_2),
        (orbit_product_general, "orbit", a_2),
        (orbit_product_general, "orbit", i_3),
    ]:
        _cancelled(f, pool, basis)
    wants = [want for _, _, want, _ in eager_oracle]
    full = D("[[1,2,-1,-2]]")
    for want, d in zip(wants, (compose(w, z)[0], full, full)):
        assert type(dict(want.terms())[d]) is Fraction
    assert sum(dropped for *_, dropped in eager_oracle) >= 5
    _assert_deferred_sums_match(eager_oracle)


def _assert_type_follows_value(r) -> set:
    """Every coefficient of r is an XiPoly exactly when a positive power of
    xi has a nonzero coefficient, and a Fraction otherwise; r's entries read
    back from its sum unchanged.  Returns the types seen."""
    kept = diagram._entries(r)
    for _, c in r.sum.terms():
        assert type(c) is _canonical_type(c), c
    assert r._kept is None and diagram._entries(r) == kept
    return {type(c) for _, c in r.sum.terms()}


def _cancelled_to_constant(f, pool, basis):
    """f(xi u + (1 - xi) v, b) for the first u, v and b, one diagram of pool
    or the sum of two, where a term of f(u, b) keeps a nonzero constant once
    the xi terms cancel."""
    for ws in [(w,) for w in pool] + list(combinations(pool, 2)):
        b = AlgebraElement(pool[0].size, basis, [(w, Fraction(1)) for w in ws], pool[0].half)
        for u, v in combinations(pool, 2):
            a = AlgebraElement(u.size, basis, [(u, XI), (v, XiPoly.const(1) - XI)], u.half)
            single = dict(f(AlgebraElement.from_diagram(u, basis=basis), b).sum.terms())
            if any(d in single and _canonical_type(c) is Fraction for d, c in f(a, b).sum.terms()):
                return f(a, b)  # a fresh result, whose sum is not built yet
    raise AssertionError("no xi term cancels to a constant")


def test_a_coefficient_is_an_xipoly_exactly_when_xi_survives_on_every_route():
    rng = random.Random(73)
    # a constant XiPoly, an XiPoly whose xi term is 0, and xi terms that can cancel
    coeffs = [XiPoly.const(2), XiPoly([1, 0, 2]), XI, -XI, XiPoly.const(1) - XI, Fraction(-1, 2)]
    routes = [
        (lambda a, b: to_orbit(a), "diagram"),
        (lambda a, b: from_orbit(a), "orbit"),
        (diagram_product, "diagram"),
        (orbit_product_general, "orbit"),
    ]
    for pool in (enumerate_monoid("A", 2), enumerate_monoid("I_half", 2)):
        for f, basis in routes:
            seen = _assert_type_follows_value(_cancelled_to_constant(f, pool, basis))
            assert Fraction in seen
            for _ in range(10):
                a, b = (
                    AlgebraElement(pool[0].size, basis, [(d, rng.choice(coeffs)) for d in rng.sample(pool, 3)], pool[0].half)
                    for _ in range(2)
                )
                seen |= _assert_type_follows_value(f(a, b))
            assert seen == {Fraction, XiPoly}, (pool[0], basis)
    # totally propagating diagrams compose with no loop: xi never appears
    for pool in (enumerate_monoid("I", 3), enumerate_monoid("I_half", 2)):
        for d1 in pool:
            for d2 in pool:
                for basis, product in (("diagram", diagram_product), ("orbit", orbit_product_general)):
                    r = product(*(AlgebraElement.from_diagram(d, basis=basis) for d in (d1, d2)))
                    assert _assert_type_follows_value(r) <= {Fraction}


def test_reading_the_sum_twice_returns_the_same_object():
    x = AlgebraElement.from_diagram(D("[[1],[2,-1],[-2]]"), basis="orbit")
    for r in (from_orbit(x), orbit_product_general(x, x), unit(2, "orbit"), x):
        assert r.sum is r.sum


def _count_formal_sums(monkeypatch) -> list:
    """Every FormalSum built from now on, through either constructor."""
    built = []
    real_init, real_from_dict = FormalSum.__init__, FormalSum._from_dict

    def init(self, terms=None):
        real_init(self, terms)
        built.append(self)

    def from_dict(cls, terms):
        s = real_from_dict(terms)
        built.append(s)
        return s

    monkeypatch.setattr(FormalSum, "__init__", init)
    monkeypatch.setattr(FormalSum, "_from_dict", classmethod(from_dict))
    return built


def test_a_change_of_basis_chain_builds_one_sum_when_it_is_read(monkeypatch):
    d1, d2 = D("[[1],[2,-1],[3,-3],[-2]]"), D("[[1,-1,-2],[2],[3,-3]]")  # middle rows match
    x1, x2 = (AlgebraElement.from_diagram(d, basis="orbit") for d in (d1, d2))
    built = _count_formal_sums(monkeypatch)
    r = to_orbit(diagram_product(from_orbit(x1), from_orbit(x2)))
    assert built == []
    s = r.sum
    assert len(built) == 1 and built[0] is s and s
    assert r.sum is s and len(built) == 1


def test_criterion_8_reads_each_orbit_form_once_and_each_compared_result_once(monkeypatch):
    reads = []  # holds every element read, so their ids stay distinct
    real = AlgebraElement.sum
    monkeypatch.setattr(AlgebraElement, "sum", property(lambda a: reads.append(a) or real.fget(a)))
    assert acceptance.crit_orbit_product(2) == (True, "all 225 orbit products match the change of basis")
    # the 15 x_d are read into entries once; their diagram-basis forms and the
    # products pass entries on and are never read, and the 225 comparisons
    # read both sides' entries, so no compared result is read as a sum
    assert len(reads) == 15 == len({id(a) for a in reads})
    assert all(a.basis == "orbit" for a in reads)


# --- equality on entries ---------------------------------------------------------


def test_a_result_equals_a_public_element_of_the_same_values():
    d1, d2 = D("[[1],[2,-1],[3,-3],[-2]]"), D("[[1,-1,-2],[2],[3,-3]]")  # middle rows match
    x1, x2 = (AlgebraElement.from_diagram(d, basis="orbit") for d in (d1, d2))
    routes = [
        lambda: orbit_product_general(x1, x2),
        lambda: from_orbit(x1),
        lambda: diagram_product(from_orbit(x1), from_orbit(x2)),
    ]
    seen = set()
    for route in routes:
        terms = list(route().sum.terms())
        seen |= {type(c) for _, c in terms}
        # each Fraction of the result's sum is an XiPoly constant on the public side
        public_terms = [(d, XiPoly.const(c) if type(c) is Fraction else c) for d, c in terms]
        r = route()
        public = AlgebraElement(r.size, r.basis, public_terms, r.half)
        assert r == public and public == r and not r != public
        assert r._sum is None
    assert seen == {Fraction, XiPoly}
    # a rational result and a public element holding a constant XiPoly
    t = AlgebraElement.from_diagram(D("[[1,-2],[2,-1]]"), basis="orbit")
    one = AlgebraElement(2, "orbit", [(PartitionDiagram.identity(2), XiPoly.const(1))])
    assert orbit_product_general(t, t) == one == AlgebraElement.from_diagram(PartitionDiagram.identity(2), basis="orbit")


def test_elements_that_differ_anywhere_compare_unequal():
    d, e = D("[[1],[2,-1],[-2]]"), D("[[1,2],[-1,-2]]")
    base = AlgebraElement(2, "diagram", [(d, XiPoly([1, 2, 3])), (e, Fraction(1, 2))])
    same = AlgebraElement(2, "diagram", [(e, Fraction(1, 2)), (d, XiPoly([1, 2, 3]))])
    assert base == same
    differ = [
        AlgebraElement(2, "diagram", [(d, XiPoly([1, 2, 4])), (e, Fraction(1, 2))]),  # one power of xi
        AlgebraElement(2, "diagram", [(d, XiPoly([1, 2])), (e, Fraction(1, 2))]),  # a power missing
        AlgebraElement(2, "diagram", [(d, XiPoly([1, 2, 3])), (e, Fraction(1, 3))]),  # one diagram's value
        AlgebraElement(2, "diagram", [(d, XiPoly([1, 2, 3]))]),  # a diagram missing
        AlgebraElement(2, "diagram", [(d, XiPoly([1, 2, 3])), (D("[[1,2,-1],[-2]]"), Fraction(1, 2))]),  # one diagram
        AlgebraElement(2, "orbit", [(d, XiPoly([1, 2, 3])), (e, Fraction(1, 2))]),  # the basis
    ]
    for other in differ:
        assert base != other and other != base and not base == other
    # the same masks at a half level
    one = AlgebraElement.from_diagram(PartitionDiagram.identity(2))
    one_half = AlgebraElement.from_diagram(PartitionDiagram.identity(2, half=True))
    assert one != one_half and one_half != one
    assert diagram_product(one, one) != diagram_product(one_half, one_half)
    assert one != unit(3) and one != "one"


def test_comparing_results_builds_no_sum():
    d1, d2 = D("[[1],[2,-1],[3,-3],[-2]]"), D("[[1,-1,-2],[2],[3,-3]]")
    x1, x2 = (AlgebraElement.from_diagram(d, basis="orbit") for d in (d1, d2))
    direct = orbit_product_general(x1, x2)
    via_basis = to_orbit(diagram_product(from_orbit(x1), from_orbit(x2)))
    assert direct == via_basis and not direct != via_basis
    assert direct._sum is None and via_basis._sum is None
    assert direct != orbit_product_general(x2, x1)
    assert direct._sum is None


# --- oracles past A_3: seeded random diagrams, not enumerations --------------


def _random_set_partition(rng, items):
    """A seeded random set partition of items, with a block count that varies
    from call to call: each item opens a new block or joins an earlier one."""
    fresh = rng.random()
    blocks = []
    for x in rng.sample(items, len(items)):
        if not blocks or rng.random() < fresh:
            blocks.append([x])
        else:
            rng.choice(blocks).append(x)
    return blocks


def _random_diagram(rng, k, half=False):
    """A random diagram of A_k, or of A_{k-1/2} (the blocks of k and k' merged)."""
    blocks = _random_set_partition(rng, [*range(1, k + 1), *range(-1, -k - 1, -1)])
    if half:
        top = next(b for b in blocks if k in b)
        bottom = next(b for b in blocks if -k in b)
        if top is not bottom:
            top.extend(bottom)
            blocks = [b for b in blocks if b is not bottom]
    return PartitionDiagram(k, blocks, half)


def _random_half_propagating(rng, k):
    """A random diagram of I_{k-1/2}: two row partitions with the same number of
    blocks, matched at random, the blocks of k and k' matched together."""
    top = _random_set_partition(rng, list(range(1, k + 1)))
    letters = rng.sample(range(1, k + 1), k)
    bottom = [[x] for x in letters[: len(top)]]
    for x in letters[len(top) :]:
        rng.choice(bottom).append(x)
    rng.shuffle(bottom)
    i = next(i for i, b in enumerate(top) if k in b)
    j = next(j for j, b in enumerate(bottom) if k in b)
    bottom[i], bottom[j] = bottom[j], bottom[i]
    return PartitionDiagram(k, [t + [-v for v in b] for t, b in zip(top, bottom)], half=True)


def _random_pools(seed, count=40):
    """Random diagrams of A_4, A_5 and A_6 (6 is one past the enumeration limit, 18 bits
    in the middle layout of compose), of A_{4 1/2} and of I_{4 1/2}."""
    rng = random.Random(seed)
    pools = [[_random_diagram(rng, k) for _ in range(count)] for k in (4, 5, 6)]
    pools.append([_random_diagram(rng, 5, half=True) for _ in range(count)])
    pools.append([_random_half_propagating(rng, 5) for _ in range(count)])
    return pools


def test_random_pools_cover_the_levels():
    pools = _random_pools(37)
    assert [p[0].size for p in pools] == [4, 5, 6, 5, 5]
    assert set(pools[-1]) <= set(enumerate_monoid("I_half", 4))
    assert all(is_half(d) and d.half for d in pools[-2])
    for pool in pools:
        # both single blocks and many blocks occur
        assert min(d.n_blocks() for d in pool) <= 2 and max(d.n_blocks() for d in pool) >= pool[0].size


def test_compose_matches_vertex_level_oracle_past_a3():
    rng = random.Random(41)
    *partition_pools, propagating = _random_pools(37)
    for pool in partition_pools + [propagating]:
        most_loops = 0
        for _ in range(150):
            d1, d2 = rng.choice(pool), rng.choice(pool)
            got, loops = compose(d1, d2)
            want, want_loops = _oracle_compose(d1, d2)
            assert got.blocks == want.blocks, (d1, d2)
            assert loops == want_loops, (d1, d2)
            assert got.half == d1.half
            assert got == want and hash(got) == hash(want)
            most_loops = max(most_loops, loops)
        # products with several loops occur wherever blocks may miss a row
        assert most_loops >= 4 or pool is propagating


def test_diagram_product_matches_bilinear_oracle_past_a3():
    rng = random.Random(43)
    for pool in _random_pools(47):
        for _ in range(10):
            y1, y2 = (_random_element(rng, pool, "diagram") for _ in range(2))
            _assert_same_sum(diagram_product(y1, y2), bilinear(y1.sum, y2.sum, _oracle_diagram_pair))


# --- the product table of sizes 1..3 -------------------------------------------


def test_product_table_composes_only_the_generator_columns(monkeypatch):
    compose_masks = diagram._compose_masks
    calls = []

    def counted(*args):
        calls.append(args)
        return compose_masks(*args)

    monkeypatch.setattr(diagram, "_compose_masks", counted)
    diagram._product_table.cache_clear()
    # Bell(2k) diagrams times the generators s_1..s_{k-1}, p_1 and b_1 (k >= 2)
    for k, composed in ((1, 2), (2, 45), (3, 812)):
        calls.clear()
        diagram._product_table(k)
        assert len(calls) == composed == bell(2 * k) * (k + 1 if k >= 2 else 1)
    calls.clear()
    pairs = [(a, b) for k in (1, 2) for a in enumerate_monoid("A", k) for b in enumerate_monoid("A", k)]
    for d1, d2 in pairs + _sampled_a3_pairs(300, 23):
        got = diagram_product(AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2))
        _assert_same_sum(got, _oracle_diagram_pair(d1, d2))
    assert calls == []


def test_product_table_serves_half_levels_at_size_3():
    diagram._product_table.cache_clear()
    rng = random.Random(53)
    pool = [_random_diagram(rng, 3, half=True) for _ in range(30)] + list(enumerate_monoid("I_half", 2))
    for _ in range(40):
        y1, y2 = (_random_element(rng, pool, "diagram") for _ in range(2))
        # the same masks at the integer level fill the cells the half product then reads
        whole = [AlgebraElement(3, "diagram", [(with_half(d, False), c) for d, c in y.sum.terms()])
                 for y in (y1, y2)]
        assert not any(d.half for d, _ in diagram_product(*whole).sum.terms())
        got = diagram_product(y1, y2)
        assert got.half and all(d.half and is_half(d) for d, _ in got.sum.terms())
        _assert_same_sum(got, bilinear(y1.sum, y2.sum, _oracle_diagram_pair))


def test_product_table_cells_stay_within_bell_squared():
    diagram._product_table.cache_clear()
    for k in (1, 2, 3):
        monoid = enumerate_monoid("A", k)
        table = diagram._product_table(k)
        assert table.cap == bell(2 * k) == len(monoid) == len(table) == len(table.masks)
        assert len(table.cells) == bell(2 * k) ** 2
        # every cell is the composition of its pair, so no id reaches the cap
        for d1 in monoid:
            base = table[d1._masks] * table.cap
            for d2 in monoid:
                masks, loops = diagram._compose_masks(k, [m << k for m in d1._masks], d2._masks)
                assert divmod(table.cells[base + table[d2._masks]], k + 1) == (table[masks], loops), (d1, d2)


def test_product_table_names_the_size_a_generator_shortfall_reaches(monkeypatch):
    real = diagram._a_generators
    # without b_1 the generators reach only the rook monoid R_k: sum of C(k,r)^2 r! diagrams
    monkeypatch.setattr(diagram, "_a_generators", lambda k: real(k)[:-1])
    for k, reached in ((2, 7), (3, 34)):
        with pytest.raises(RuntimeError) as raised:
            diagram._ProductTable(k)
        expected = f"the generators of A_{k} reach {reached} diagrams, not Bell({2 * k}) = {bell(2 * k)}"
        assert str(raised.value) == expected


def test_tabled_products_match_the_composing_route_term_for_term(monkeypatch):
    rng = random.Random(71)
    a_3, i_half = enumerate_monoid("A", 3), enumerate_monoid("I_half", 2)
    pairs = [(d1, d2) for k in (1, 2) for d1 in enumerate_monoid("A", k) for d2 in enumerate_monoid("A", k)]
    pairs += [(rng.choice(a_3), rng.choice(a_3)) for _ in range(200)]
    pairs += [(rng.choice(i_half), rng.choice(i_half)) for _ in range(60)]
    elements = [(AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2)) for d1, d2 in pairs]
    elements += [
        (_random_element(rng, pool, "diagram"), _random_element(rng, pool, "diagram"))
        for pool in (a_3, i_half)
        for _ in range(20)
    ]
    with monkeypatch.context() as patched:
        patched.setattr(diagram, "_MAX_TABLED_SIZE", 0)
        composed = [diagram_product(a, b) for a, b in elements]
    for (a, b), want in zip(elements, composed):
        got = diagram_product(a, b)
        _assert_same_sum(got, want.sum)
        # the table's ids and the composed masks give the same pooled diagrams
        table = diagram._product_table(a.size)
        for (d, _), (e, _) in zip(got.sum.items(), want.sum.items()):
            assert d is e and d.half == a.half, (a, b)
            assert d is PartitionDiagram._from_masks(a.size, table.masks[table[d._masks]], a.half)


def test_basis_changes_build_no_product_table():
    # callers that only change basis, such as jm.verify_centrality, never pay for a table
    diagram._product_table.cache_clear()
    for d in enumerate_monoid("A", 3)[::20] + list(enumerate_monoid("I_half", 2)):
        to_orbit(AlgebraElement.from_diagram(d))
        from_orbit(AlgebraElement.from_diagram(d, basis="orbit"))
    assert diagram._product_table.cache_info().currsize == 0


def test_size_4_products_allocate_no_table():
    diagram._product_table.cache_clear()
    rng = random.Random(59)
    pool = [_random_diagram(rng, 4) for _ in range(20)]
    y1, y2 = (_random_element(rng, pool, "diagram") for _ in range(2))
    _assert_same_sum(diagram_product(y1, y2), bilinear(y1.sum, y2.sum, _oracle_diagram_pair))
    assert diagram._product_table.cache_info().currsize == 0
    diagram_product(unit(3), unit(3))
    assert diagram._product_table.cache_info().currsize == 1


def _oracle_mobius(d, upset):
    """mu(d, c) over the upset of d from the recursion mu(d, d) = 1 and
    mu(d, c) = -(sum of mu(d, e) over d <= e < c), finer diagrams first."""
    mu = {}
    for c in sorted(upset, key=lambda c: -c.n_blocks()):
        mu[c] = 1 if c == d else -sum(m for e, m in mu.items() if _oracle_coarser(c, e))
    return mu


def _old_upset(d):
    """The coarsenings of d and their Möbius values from the set partitions
    of its blocks, each group's mu (-1)^(m-1) (m-1)! taken whole."""
    masks = d._masks
    out = []
    for grouping in set_partitions(len(masks)):
        merged = sorted((sum(masks[i - 1] for i in group) for group in grouping), reverse=True)
        mu = prod((-1) ** (len(g) - 1) * factorial(len(g) - 1) for g in grouping)
        out.append((PartitionDiagram._from_masks(d.size, tuple(merged), d.half), mu))
    return sorted(out, key=lambda e: e[0].blocks)


def test_upset_matches_the_set_partition_route():
    seven = D("[[1,-1],[2],[3],[4],[-2],[-3],[-4]]")
    half = D("[[1],[2],[3,-3],[-1],[-2]]", half=True)
    assert (seven.n_blocks(), half.n_blocks()) == (7, 5)
    for d in [*enumerate_monoid("A", 3), seven, half]:
        got, want = diagram._upset(d), _old_upset(d)
        assert [(c.blocks, c.half, mu) for c, mu in got] == [(c.blocks, c.half, mu) for c, mu in want], d
        assert all(list(c._masks) == sorted(c._masks, reverse=True) for c, _ in got), d
    assert len(diagram._upset(seven)) == bell(7)


def test_upset_matches_brute_force_coarsenings_at_size_4():
    a4 = enumerate_monoid("A", 4)
    rng = random.Random(53)
    pool = [d for d in (_random_diagram(rng, 4) for _ in range(80)) if 2 <= d.n_blocks() <= 6]
    pool = pool[:4] + sorted(pool, key=lambda d: -d.n_blocks())[:2]
    assert max(d.n_blocks() for d in pool) == 6
    for d in pool:
        brute = [c for c in a4 if _oracle_coarser(c, d)]
        table = diagram._upset(d)
        assert [c for c, _ in table] == brute, d
        assert dict(table) == _oracle_mobius(d, brute), d


def _closure(gens, one):
    """Monoid generated by gens: breadth-first right multiplication from the
    identity, every element by every generator."""
    seen = {one}
    todo = [one]
    while todo:
        todo = [y for y in {compose(x, g)[0] for x in todo for g in gens} if y not in seen]
        seen.update(todo)
    return seen


def _oracle_monoid(kind, k):
    """I_k or I_{k+1/2} from every top and bottom partition and matching."""
    half = kind == "I_half"
    return diagram._enumerate_propagating(k + half, half)


@pytest.fixture
def fresh_listing():
    """Lists the monoids anew inside the test, and again after it."""
    diagram._closure_listing.cache_clear()
    yield
    diagram._closure_listing.cache_clear()


@pytest.mark.parametrize(
    "kind, k, count",
    [
        ("I", 1, 1),
        ("I", 2, 2),
        ("I", 3, 4),
        ("I", 4, 5),
        ("I", 5, 6),
        ("I_half", 1, 1),
        ("I_half", 2, 4),
        ("I_half", 3, 5),
        ("I_half", 4, 6),
    ],
)
def test_generating_set_closes_to_the_monoid(kind, k, count):
    monoid = _oracle_monoid(kind, k)
    assert enumerate_monoid(kind, k) == monoid
    gens = generating_set(kind, k)
    assert len(gens) == count
    assert all(g in monoid for g in gens)
    one = PartitionDiagram.identity(monoid[0].size, monoid[0].half)
    assert _closure(gens, one) == set(monoid)


def test_generating_set_is_the_named_diagrams():
    # I_3: e, f, s_1, s_2; I_{2+1/2}: e_2, f_1, its transpose, s_1, each fixing 3
    assert [str(g) for g in generating_set("I", 3)] == [
        "[[1,2,-1,-2],[3,-3]]",
        "[[1,2,-1],[3,-2,-3]]",
        "[[1,-2],[2,-1],[3,-3]]",
        "[[1,-1],[2,-3],[3,-2]]",
    ]
    assert [str(g) for g in generating_set("I_half", 2)] == [
        "[[1,-1],[2,3,-2,-3]]",
        "[[1,2,-1],[3,-2,-3]]",
        "[[1,-1,-2],[2,3,-3]]",
        "[[1,-2],[2,-1],[3,-3]]",
    ]
    assert all(g.half for g in generating_set("I_half", 2))
    assert generating_set("I", 1) == (PartitionDiagram.identity(1),)


def test_generating_set_refuses_kinds_without_named_generators():
    for kind in ("A", "B"):
        with pytest.raises(ValueError, match="no named generators"):
            generating_set(kind, 2)


def test_generating_set_names_a_missing_diagram(monkeypatch, fresh_listing):
    merge = D("[[1,2,-1,-2]]")
    real = diagram._compose_masks

    def loses_merge(k, left, right):
        masks, loops = real(k, left, right)
        return (PartitionDiagram.identity(2)._masks, loops) if masks == merge._masks else (masks, loops)

    monkeypatch.setattr(diagram, "_compose_masks", loses_merge)
    with pytest.raises(RuntimeError, match=r"miss the diagram \[\[1,2,-1,-2\]\]"):
        generating_set("I", 2)


def test_generating_set_names_an_extra_diagram(monkeypatch, fresh_listing):
    # the membership test is wrong about the identity, s_1 s_1
    real = diagram.is_totally_propagating
    one = PartitionDiagram.identity(3)
    monkeypatch.setattr(diagram, "is_totally_propagating", lambda d: d != one and real(d))
    with pytest.raises(RuntimeError, match=r"give the diagram \[\[1,-1\],\[2,-2\],\[3,-3\]\] outside"):
        generating_set("I", 3)


def test_listing_names_a_diagram_reached_in_two_block_orders(monkeypatch, fresh_listing):
    # a swap that sorts ascending reaches s_1 s_1 = id as (5, 10) besides (10, 5): one too many
    real = diagram._swap_bottom
    monkeypatch.setattr(diagram, "_swap_bottom", lambda masks, p: tuple(sorted(real(masks, p))))
    with pytest.raises(RuntimeError) as raised:
        generating_set("I", 2)
    assert str(raised.value) == "generators of I at 2 give the diagram [[2,-2],[1,-1]] with its blocks out of order"


@pytest.mark.parametrize(
    "kind, k, product, bad, named",
    [
        # id ∘ e comes out with a block on each row alone
        ("I", 3, "[[1,2,-1,-2],[3,-3]]", "[[1,2],[3,-3],[-1,-2]]", "[[1,2],[3,-3],[-1,-2]]"),
        # id ∘ e_2 comes out totally propagating but with 3 and 3' apart; the error
        # names the least of the diagrams outside I_{2+1/2} that the closure reaches
        ("I_half", 2, "[[1,-1],[2,3,-2,-3]]", "[[1,-1],[2,-3],[3,-2]]", "[[1,-2],[2,-3],[3,-1]]"),
    ],
)
def test_listing_names_a_composed_diagram_outside_the_monoid(
    monkeypatch, fresh_listing, kind, k, product, bad, named
):
    real = diagram._compose_masks

    def leaves_the_monoid(size, left, right):
        masks, loops = real(size, left, right)
        return (D(bad)._masks, loops) if masks == D(product)._masks else (masks, loops)

    monkeypatch.setattr(diagram, "_compose_masks", leaves_the_monoid)
    with pytest.raises(RuntimeError) as raised:
        generating_set(kind, k)
    assert str(raised.value) == f"generators of {kind} at {k} give the diagram {named} outside it"


@pytest.mark.parametrize("kind, k", [("I", 4), ("I_half", 3)])
def test_bottom_bit_swap_is_composing_with_s_i(kind, k):
    # unsorted: every block meets the top row, so the swap keeps the block order
    monoid = enumerate_monoid(kind, k)
    size, half = monoid[0].size, monoid[0].half
    for i in range(1, k):
        fixed = [(j, -j) for j in range(1, size + 1) if j not in (i, i + 1)]
        s = PartitionDiagram(size, [(i, -i - 1), (i + 1, -i), *fixed], half)
        for x in monoid:
            assert diagram._swap_bottom(x._masks, size - i - 1) == compose(x, s)[0]._masks


def test_closed_form_sizes_are_the_oracle_counts():
    for k in (1, 2, 3, 4, 5):
        assert diagram._closed_form_size("I", k) == len(_oracle_monoid("I", k))
    for k in (1, 2, 3, 4):
        assert diagram._closed_form_size("I_half", k) == len(_oracle_monoid("I_half", k))
    # one level past the enumeration row: the squared path counts at level 11/2 and 6
    assert (diagram._closed_form_size("I_half", 5), diagram._closed_form_size("I", 6)) == (48_032, 179_643)


def test_a_mutated_listing_does_not_leak_into_the_next_call():
    for kind, k in (("I", 3), ("I_half", 2)):
        listed = enumerate_monoid(kind, k)
        first = listed[0]
        listed.clear()
        again = enumerate_monoid(kind, k)
        assert again == _oracle_monoid(kind, k) and again[0] == first


def test_the_listing_never_runs_the_oracle_when_it_closes(monkeypatch, fresh_listing):
    def no_oracle(*args):
        raise AssertionError("the oracle listed the monoid")

    monkeypatch.setattr(diagram, "_enumerate_propagating", no_oracle)
    assert [len(enumerate_monoid("I", k)) for k in (1, 2, 3, 4, 5)] == [1, 3, 25, 339, 6721]
    assert [len(generating_set("I_half", k)) for k in (1, 2, 3, 4)] == [1, 4, 5, 6]
    assert [len(enumerate_monoid("I_half", k)) for k in (1, 2, 3, 4)] == [2, 12, 128, 2100]


# --- oracles: recursive basis inversion and the filtered half monoid ----------


@cache
def _oracle_orbit_in_diagram_basis(d):
    """x_d in the diagram basis, inverting d = sum of x_{d'} over the
    coarsenings d' of d by recursion over that upset."""
    out = FormalSum.term(d, Fraction(1))
    for c in coarsenings(d):
        if c != d:
            out = out - _oracle_orbit_in_diagram_basis(c)
    return out


def _oracle_from_orbit(s):
    return map_terms(s, _oracle_orbit_in_diagram_basis)


def test_from_orbit_matches_recursive_inversion_on_every_diagram():
    monoids = [enumerate_monoid("A", k) for k in (1, 2, 3)] + [enumerate_monoid("I_half", 2)]
    for monoid in monoids:
        for d in monoid:
            for coeff in (Fraction(-3, 2), 2, XI - 1):
                x = AlgebraElement.from_diagram(d, coeff, basis="orbit")
                _assert_same_sum(from_orbit(x), _oracle_from_orbit(x.sum))


def test_from_orbit_matches_recursive_inversion_on_mixed_sums():
    rng = random.Random(31)
    for monoid in _oracle_monoids() + [enumerate_monoid("A", 3)]:
        for _ in range(25):
            x = _random_element(rng, monoid, "orbit")
            _assert_same_sum(from_orbit(x), _oracle_from_orbit(x.sum))


def test_half_monoid_matches_the_filtered_propagating_monoid():
    for k in (1, 2, 3, 4):
        filtered = sorted(with_half(d, True) for d in _oracle_monoid("I", k + 1) if is_half(d))
        assert enumerate_monoid("I_half", k) == filtered


# --- one object per diagram: the pool, with the former value equality as oracle ---


def _value(d):
    """The former ``PartitionDiagram.__eq__`` and ``__hash__`` read these."""
    return d.size, d.half, d._masks


def _assert_pooled(diagrams):
    """Each diagram is the one object its size, half flag and masks give,
    whether asked for unchecked or through the public constructor."""
    for d in diagrams:
        assert PartitionDiagram._from_masks(d.size, d._masks, d.half) is d, d
        assert PartitionDiagram(d.size, d.blocks, d.half) is d, d


def test_every_route_returns_the_pooled_diagram():
    d = PartitionDiagram(3, [(1, -1), (2, 3, -2, -3)])
    reordered = [(-3, 3, -2, 2), (-1, 1)]
    assert PartitionDiagram(3, reordered) is d is D("[[2,-3,3,-2],[1,-1]]")
    assert PartitionDiagram.identity(3) is D("[[1,-1],[2,-2],[3,-3]]") is PartitionDiagram.identity(3)
    assert PartitionDiagram.identity(2, half=True) is D("[[1,-1],[2,-2]]", half=True)
    monoids = [enumerate_monoid(kind, k) for kind, k in (("A", 2), ("A", 3), ("I", 3), ("I_half", 2))]
    for monoid in monoids:
        _assert_pooled(monoid)
        _assert_pooled(c for x in monoid[::7] for c in coarsenings(x))
    # the tabled products (size 3), the composing ones (size 4) and the basis changes
    rng = random.Random(83)
    a_4 = [PartitionDiagram(4, blocks) for blocks in (
        [(1, -2), (2, -1), (3, 4, -3), (-4,)],
        [(1, 2, 3, 4, -1, -2, -3, -4)],
        [(1,), (2, 3, -1), (4, -4), (-2, -3)],
        [(1, -1), (2, -2), (3, -3), (4, -4)],
    )]
    for pool in monoids + [a_4]:
        for _ in range(8):
            y1, y2 = (_random_element(rng, pool, "diagram") for _ in range(2))
            x1, x2 = (_random_element(rng, pool, "orbit") for _ in range(2))
            for r in (diagram_product(y1, y2), to_orbit(y1), from_orbit(x1), orbit_product_general(x1, x2)):
                _assert_pooled(d for d, _ in r.sum.terms())
    _assert_pooled([compose(d, PartitionDiagram.identity(3))[0]])


def test_identity_equality_matches_the_value_oracle():
    for monoid in (enumerate_monoid("A", 2), enumerate_monoid("I", 3), enumerate_monoid("I_half", 2)):
        rebuilt = [D(str(d), half=d.half) for d in reversed(monoid)]
        for x in monoid:
            for y in rebuilt:
                same = _value(x) == _value(y)
                assert (x == y) is same and (x is y) is same and (hash(x) == hash(y)) is same, (x, y)
        assert len(set(monoid) | set(rebuilt)) == len(monoid)


def test_a_half_diagram_is_not_its_integer_twin():
    for size in (1, 2, 3):
        whole, half = PartitionDiagram.identity(size), PartitionDiagram.identity(size, half=True)
        assert whole._masks == half._masks and whole is not half and whole != half
        assert (whole.half, half.half) == (False, True)
        _assert_pooled([whole, half])
