import random
import re
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, prod

import pytest

from rookpart import characters
from rookpart.characters import (
    _chi_star_by_type,
    _sub_multisets,
    _sym_char_by_type,
    chi_star,
    class_representatives,
    closed_type,
    kronecker_with_defining,
    tensor_multiplicities,
)
from rookpart.combinat import (
    check_partition,
    corner_set,
    f_lambda,
    partitions,
    partitions_upto,
    shape_key,
)
from rookpart.rook import RookElement, enumerate_rook, generator, rook_mul
from rookpart.seminormal import RookIrrep
from rookpart.tensor import TensorSpace, psi_rook
from test_linalg import dense_rref, dense_solve


def trace(m):
    return sum(m[i, i] for i in range(m.rows))


def is_permutation(sigma):
    return all(sigma.mapping)


def fixed_points(sigma):
    return [i + 1 for i, j in enumerate(sigma.mapping) if j == i + 1]


def transpose(sigma):
    """The inverse partial map: row j goes back to column i."""
    mapping = [0] * sigma.n
    for i, j in enumerate(sigma.mapping):
        if j:
            mapping[j - 1] = i + 1
    return RookElement(sigma.n, mapping)


# --- test-local copies of the routes the type formula replaced ------------------


def cycle_type(perm):
    """Sorted cycle lengths of a permutation in one-line notation."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def chi_sym(lam, sigma):
    """Symmetric-group irreducible character: trace of the seminormal module
    at n = |lam| on a permutation of {1..|lam|}."""
    lam = check_partition(lam)
    if sigma.n != sum(lam) or not is_permutation(sigma):
        raise ValueError(f"need a permutation of 1..{sum(lam)}")
    value = trace(RookIrrep(lam, sigma.n).rep_rook(sigma))
    assert value.denominator == 1
    return int(value)


def branching_restrict(mult, n):
    """Plain restriction along the branching rule: a shape goes to its one-box
    removals together with itself (when it still fits one level down)."""
    out = {}
    for lam, m in mult.items():
        for mu in corner_set(check_partition(lam), "minus_eq"):
            if sum(mu) <= n - 1:
                out[mu] = out.get(mu, 0) + m
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def mod_induce(mult, n):
    """Modified induction: each shape goes to its one-box additions inside
    the size-n world, multiplicities carried along."""
    out = {}
    for lam, m in mult.items():
        lam = check_partition(lam)
        if sum(lam) > n - 1:
            raise ValueError(f"{lam} out of bounds for induction to n={n}")
        for mu in corner_set(lam, "plus_n", n):
            out[mu] = out.get(mu, 0) + m
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def invariant_subsets(sigma, r):
    """Brute force: every size-r index set K inside the domain with
    sigma K = K, with sigma compressed to a permutation of {1..r}."""
    out = []
    dom = set(sigma.domain())
    for k_set in combinations(range(1, sigma.n + 1), r):
        if set(k_set) <= dom and {sigma.image(i) for i in k_set} == set(k_set):
            pos = {v: idx + 1 for idx, v in enumerate(k_set)}
            out.append((k_set, tuple(pos[sigma.image(v)] for v in k_set)))
    return out


def solomon_sum_over_subsets(lam, sigma):
    """chi*_lam(sigma) as the sum of chi_lam over the compressed invariant
    subsets of size |lam|."""
    return sum(
        _sym_char_by_type(lam, cycle_type(perm)) for _, perm in invariant_subsets(sigma, sum(lam))
    )


def test_cycle_type():
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)


def test_chi_sym_examples():
    assert chi_sym((1, 1), generator("s", 1, 2)) == -1
    assert chi_sym((2, 1), RookElement(3, (2, 3, 1))) == -1
    for lam in partitions_upto(4):
        if lam:
            assert chi_sym(lam, RookElement.identity(sum(lam))) == f_lambda(lam)


def test_chi_sym_needs_full_permutation():
    with pytest.raises(ValueError):
        chi_sym((2,), RookElement(2, (1, 0)))


def test_chi_star_trivial_and_defining():
    for n in range(1, 5):
        for sigma in enumerate_rook(n):
            assert chi_star((), sigma) == 1
            assert chi_star((1,), sigma) == len(fixed_points(sigma))


def test_chi_star_examples_at_identity_zero_and_s1():
    ident = RookElement.identity(3)
    zero = RookElement.zero(3)
    s1 = generator("s", 1, 2)
    # three invariant singletons under the identity, none under the zero map
    assert chi_star((1,), ident) == 3
    assert chi_star((2, 1), ident) == 2
    assert chi_star((1,), zero) == 0
    assert chi_star((2,), zero) == 0
    assert chi_star((), ident) == chi_star((), zero) == 1
    # s_1 in R_2: the one invariant pair {1, 2}, on which it is a transposition
    assert chi_star((2,), s1) == 1
    assert chi_star((1, 1), s1) == -1
    assert chi_star((1,), s1) == 0
    assert chi_star((3,), s1) == 0  # |lam| > n


def test_chi_star_refuses_past_the_rook_characters_row(monkeypatch):
    # closed cycles of lengths 1, ..., 59 on 1,770 letters, and the identity on
    # 3,000 letters: both are refused before sigma's type is read
    mapping, start = [], 1
    for length in range(1, 60):
        mapping += [start + (i + 1) % length for i in range(length)]
        start += length
    cycles = RookElement(len(mapping), mapping)

    def no_work(sigma):
        raise AssertionError("the closed type was read")

    monkeypatch.setattr(characters, "closed_type", no_work)
    for lam, sigma in (((1,), cycles), ((3000,), RookElement.identity(3000))):
        message = f"rook characters: n = {sigma.n} exceeds the limit 66"
        with pytest.raises(ValueError, match=f"^{message}$"):
            chi_star(lam, sigma)
    assert cycles.n == 1770


def test_chi_star_matches_sum_over_invariant_subsets():
    # Solomon's sum over the invariant index sets K of sigma, brute force
    for n in range(1, 5):
        for sigma in enumerate_rook(n):
            for lam in partitions_upto(n):
                assert chi_star(lam, sigma) == solomon_sum_over_subsets(lam, sigma), (lam, sigma)


def test_chi_star_at_identity_is_dimension():
    for n in range(1, 5):
        ident = RookElement.identity(n)
        for lam in partitions_upto(n):
            assert chi_star(lam, ident) == RookIrrep(lam, n).dim


def test_chi_star_is_a_trace():
    # oracle: the literal trace of the seminormal module
    for n in range(1, 4):
        for lam in partitions_upto(n):
            irrep = RookIrrep(lam, n)
            for sigma in enumerate_rook(n):
                assert chi_star(lam, sigma) == trace(irrep.rep_rook(sigma))


def test_chi_star_constant_on_conjugacy_classes():
    rng = random.Random(3)
    for n in (3, 4):
        perms = [x for x in enumerate_rook(n) if is_permutation(x)]
        pool = enumerate_rook(n)
        for _ in range(30):
            sigma = rng.choice(pool)
            tau = rng.choice(perms)
            conj = rook_mul(rook_mul(tau, sigma), transpose(tau))
            for lam in partitions_upto(n):
                assert chi_star(lam, sigma) == chi_star(lam, conj)


def test_regular_representation_trace():
    for n in range(1, 4):
        ident = RookElement.identity(n)
        assert sum(chi_star(lam, ident) ** 2 for lam in partitions_upto(n)) == len(
            enumerate_rook(n)
        )


def test_kronecker_examples():
    assert kronecker_with_defining((), 3) == {(1,): 1}
    assert kronecker_with_defining((1,), 3) == {(1,): 1, (1, 1): 1, (2,): 1}
    assert kronecker_with_defining((2,), 3) == {
        (1, 1): 1,
        (2,): 1,
        (2, 1): 1,
        (3,): 1,
    }
    # two removable corners put the shape back twice
    assert kronecker_with_defining((2, 1), 4)[(2, 1)] == 2


def test_kronecker_full_shape_has_no_additions():
    out = kronecker_with_defining((2, 1), 3)
    assert all(sum(mu) == 3 for mu in out)


def test_mod_induce_restrict_examples():
    # the two oracles composed below, on hand-worked shapes
    assert mod_induce({(): 1}, 3) == {(1,): 1}
    assert mod_induce({(1,): 2}, 3) == {(1, 1): 2, (2,): 2}
    assert branching_restrict({(1,): 1}, 3) == {(): 1, (1,): 1}
    assert branching_restrict({(2, 1): 1}, 3) == {(1, 1): 1, (2,): 1}
    with pytest.raises(ValueError):
        mod_induce({(3,): 1}, 3)


def test_tensor_identity_pointwise():
    # modified induction after the branching restriction equals tensoring
    # with the defining representation, shape by shape
    n = 3
    for lam in partitions_upto(n):
        via_rules = mod_induce(branching_restrict({lam: 1}, n), n)
        kron = kronecker_with_defining(lam, n, verify=False)
        assert via_rules == kron


def test_iterated_induction_matches_tensor_power():
    # iterating (induce o restrict) from the trivial module reproduces the
    # decomposition of the k-fold tensor power of the defining module
    n = 3
    for k in range(4):
        mult = {(): 1}
        for _ in range(k):
            mult = mod_induce(branching_restrict(mult, n), n)
        expected = tensor_multiplicities(n, k) if k else {(): 1}
        assert mult == expected


def test_tensor_multiplicities_against_traces():
    # sanity: the solved multiplicities reproduce the tensor character
    n, k = 3, 3
    mult = tensor_multiplicities(n, k)
    space = TensorSpace(n, k)
    for sigma in enumerate_rook(n):
        lhs = trace(psi_rook(sigma, space))
        rhs = sum(m * chi_star(lam, sigma) for lam, m in mult.items())
        assert lhs == rhs


def test_kronecker_failure_reports_witness(monkeypatch):
    # force a failure by lying about the multiset
    from rookpart import characters

    good = characters.defining_product_multiset((1,), 2)
    bad = dict(good)
    bad[(2,)] += 1
    monkeypatch.setattr(characters, "defining_product_multiset", lambda lam, n: dict(bad))
    with pytest.raises(RuntimeError, match=r"lam=\(1,\), n=2 at sigma=RookElement"):
        kronecker_with_defining((1,), 2)
    assert kronecker_with_defining((1,), 2, verify=False)[(2,)] == 2


def test_tensor_multiplicities_rejects_non_integral_solution(monkeypatch):
    # a planted fault: the order of S_1 read as 2, so the one term at size 1 halves
    real = characters.factorial
    monkeypatch.setattr(characters, "factorial", lambda m: 2 if m == 1 else real(m))
    message = "multiplicity of (1,) in the tensor power n=2, k=1 is 1/2, not a nonnegative integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tensor_multiplicities(2, 1)


def test_tensor_multiplicities_check_names_the_type(monkeypatch):
    # a planted fault: the class of the identity in S_1 counted twice, so (1,)
    # comes out twice and the types of size 1 get 2 back, not 1^k
    real = characters._class_size
    monkeypatch.setattr(characters, "_class_size", lambda mu: 2 if mu == (1,) else real(mu))
    message = "tensor multiplicities n=2, k=3 give 2 at closed type (1,), not (#fixed points)^k = 1"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        tensor_multiplicities(2, 3)


def test_class_sizes_count_each_symmetric_group():
    for m in range(8):
        assert sum(characters._class_size(mu) for mu in partitions(m)) == factorial(m)
    assert [characters._class_size(mu) for mu in partitions(4)] == [6, 8, 3, 6, 1]


def test_tensor_multiplicities_needs_positive_sizes():
    for n, k in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="n and k must be positive"):
            tensor_multiplicities(n, k)


def test_closed_type_reads_only_cycles():
    assert closed_type(RookElement(3, (2, 3, 1))) == (3,)
    assert closed_type(RookElement(4, (2, 1, 4, 0))) == (2,)  # 3 -> 4 -> undefined
    assert closed_type(RookElement(4, (1, 0, 0, 4))) == (1, 1)
    assert closed_type(RookElement.zero(3)) == ()
    for sigma in enumerate_rook(3):
        if is_permutation(sigma):
            assert closed_type(sigma) == cycle_type(sigma.mapping)


def test_class_representatives():
    for n in range(0, 6):
        classes = class_representatives(n)
        assert [mu for mu, _ in classes] == partitions_upto(n)
        for mu, rep in classes:
            assert rep.n == n and len(rep.domain()) == sum(mu)
            assert closed_type(rep) == mu


# --- oracles: the routes the class-function code replaced -----------------------


def test_psi_rook_trace_is_fixed_points_to_the_k():
    for n in range(1, 4):
        for k in range(1, 4):
            space = TensorSpace(n, k)
            for sigma in enumerate_rook(n):
                assert trace(psi_rook(sigma, space)) == len(fixed_points(sigma)) ** k


def test_murnaghan_nakayama_matches_seminormal_trace():
    for r in range(1, 7):
        for ctype, rep in class_representatives(r)[-len(partitions(r)):]:
            for lam in partitions(r):
                assert _sym_char_by_type(lam, ctype) == chi_sym(lam, rep), (lam, ctype)


def test_murnaghan_nakayama_checks_sizes():
    with pytest.raises(ValueError, match="differ in size"):
        _sym_char_by_type((2, 1), (2,))


@cache
def _murnaghan_nakayama_to_the_end(lam, ctype):
    """The rule with no f_lam base case: rim hooks are removed until ctype is
    empty, on the beta-numbers of lam."""
    if not ctype:
        return 1
    r, rest = ctype[0], ctype[1:]
    top = len(lam) - 1
    beta = [part + top - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        leg = sum(1 for c in beta if b - r < c < b)
        moved = sorted([c for c in beta if c != b] + [b - r], reverse=True)
        mu = tuple(p for p in (c - top + i for i, c in enumerate(moved)) if p)
        total += (-1) ** leg * _murnaghan_nakayama_to_the_end(mu, rest)
    return total


def _chi_star_filtered_by_size(lam, mu):
    """Solomon's sum with every sub-multiset of mu walked for each pair and
    those of the wrong size skipped."""
    lengths = sorted(Counter(mu).items(), reverse=True)
    total = 0
    for counts in product(*(range(m + 1) for _, m in lengths)):
        if sum(length * c for (length, _), c in zip(lengths, counts)) != sum(lam):
            continue
        ways = prod(comb(m, c) for (_, m), c in zip(lengths, counts))
        nu = tuple(length for (length, _), c in zip(lengths, counts) for _ in range(c))
        total += ways * _murnaghan_nakayama_to_the_end(lam, nu)
    return total


def test_murnaghan_nakayama_matches_the_rule_without_its_base_case():
    # every order of every cycle type, since callers may pass an unsorted one
    for r in range(9):
        for nu in partitions(r):
            for ctype in set(permutations(nu)):
                for lam in partitions(r):
                    assert _sym_char_by_type(lam, ctype) == _murnaghan_nakayama_to_the_end(lam, ctype), (lam, ctype)


def test_base_case_reads_every_part_of_the_type():
    # a base case that looked only at the first part would return f_(2,1) = 2
    assert _sym_char_by_type((2, 1), (1, 2)) == 0
    assert _sym_char_by_type((2, 1), (1, 1, 1)) == f_lambda((2, 1)) == 2
    assert _sym_char_by_type((), ()) == 1


def test_chi_star_by_type_matches_the_filtered_enumeration():
    shapes = partitions_upto(8)
    for lam in shapes:
        for mu in shapes:
            assert _chi_star_by_type(lam, mu) == _chi_star_filtered_by_size(lam, mu), (lam, mu)


def test_sub_multisets_by_size_with_their_ways():
    assert _sub_multisets((2, 1, 1)) == {
        0: ((1, ()),),
        1: ((2, (1,)),),
        2: ((1, (1, 1)), (1, (2,))),
        3: ((2, (2, 1)),),
        4: ((1, (2, 1, 1)),),
    }


def test_staircase_at_the_identity_is_f_lambda_in_one_step():
    staircase = tuple(range(11, 0, -1))
    _chi_star_by_type.cache_clear()
    _sym_char_by_type.cache_clear()
    assert _chi_star_by_type(staircase, (1,) * 66) == f_lambda(staircase)
    assert _sym_char_by_type.cache_info().currsize == 1


def test_ways_check_names_the_type(monkeypatch):
    # a planted fault: every binomial read as 1, so (1, 1) counts 3 ways, not 4
    monkeypatch.setattr(characters, "comb", lambda m, c: 1)
    message = "the ways to pick sub-multisets of (1, 1) do not sum to 2^2"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        _sub_multisets.__wrapped__((1, 1))


def test_chi_star_is_a_class_function_exhaustive():
    for n in range(1, 5):
        reps = dict(class_representatives(n))
        for sigma in enumerate_rook(n):
            rep = reps[closed_type(sigma)]
            for lam in partitions_upto(n):
                assert chi_star(lam, sigma) == chi_star(lam, rep), (lam, sigma)


def _tensor_multiplicities_over_monoid(n, k):
    # the former route: one row per element of R_n, traces of actual matrices
    shapes = partitions_upto(n)
    space = TensorSpace(n, k)
    elements = enumerate_rook(n)
    rows = [[chi_star(lam, sigma) for lam in shapes] for sigma in elements]
    rhs = [trace(psi_rook(sigma, space)) for sigma in elements]
    sol = dense_solve(rows, rhs)
    assert sol is not None, (n, k)
    return {lam: m for lam, m in zip(shapes, sol) if m}


def test_tensor_multiplicities_match_the_closed_type_system():
    # the former route: the square system of every shape at every closed type,
    # eliminated whole, one right-hand side (#fixed points)^k per k
    ks = range(1, 8)
    for n in range(1, 11):
        shapes = partitions_upto(n)
        rows = [[_chi_star_by_type(lam, mu) for lam in shapes] + [mu.count(1) ** k for k in ks] for mu in shapes]
        reduced, pivots = dense_rref(rows, len(shapes) + len(ks))
        assert pivots == list(range(len(shapes)))
        for j, k in enumerate(ks):
            solved = {lam: row[len(shapes) + j] for lam, row in zip(shapes, reduced) if row[len(shapes) + j]}
            assert tensor_multiplicities(n, k) == solved, (n, k)


def test_tensor_multiplicities_match_monoid_system():
    for n in range(1, 5):
        for k in range(1, 5):
            assert tensor_multiplicities(n, k) == _tensor_multiplicities_over_monoid(n, k)


def test_pairing_rows_distinguish_shapes():
    # summing chi*_lam(sigma) chi*_mu(sigma^T) over the monoid gives a pairing
    # whose rows separate the shapes
    for n in (2, 3):
        shapes = partitions_upto(n)
        elements = enumerate_rook(n)
        gram = {
            lam: tuple(
                sum(
                    chi_star(lam, sigma) * chi_star(mu, transpose(sigma))
                    for sigma in elements
                )
                for mu in shapes
            )
            for lam in shapes
        }
        rows = list(gram.values())
        assert len(set(rows)) == len(rows)
