"""Characters of the rook monoid and the defining-representation product rule.

The irreducible character attached to a shape lam evaluates at a rook element
by summing symmetric-group character values over the invariant index subsets
of size |lam|.  Symmetric-group values are traces of the seminormal modules at
n = |lam| and are cached by cycle type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .combinat import (
    Partition,
    check_partition,
    corner_set,
    move_steps,
    partitions_upto,
    shape_key,
)
from .linalg import ExactMatrix, solve_unique
from .rook import RookElement, enumerate_rook, support_data
from .seminormal import RookIrrep


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
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


def _perm_of_type(ctype: tuple[int, ...]) -> RookElement:
    mapping = []
    offset = 0
    for length in ctype:
        cycle = list(range(offset + 2, offset + length + 1)) + [offset + 1]
        mapping.extend(cycle)
        offset += length
    return RookElement(offset, tuple(mapping))


@cache
def _irrep(lam: Partition, n: int) -> RookIrrep:
    return RookIrrep(lam, n)


@cache
def _sym_char_by_type(lam: Partition, ctype: tuple[int, ...]) -> int:
    value = _irrep(lam, sum(lam)).rep_rook(_perm_of_type(ctype)).trace()
    assert value.denominator == 1
    return int(value)


def chi_sym(lam, sigma: RookElement) -> int:
    """Symmetric-group irreducible character: trace of the seminormal module
    at n = |lam| on a permutation of {1..|lam|}."""
    lam = check_partition(lam)
    if sigma.n != sum(lam) or not sigma.is_permutation():
        raise ValueError(f"need a permutation of 1..{sum(lam)}")
    value = _irrep(lam, sigma.n).rep_rook(sigma).trace()
    assert value.denominator == 1
    return int(value)


def chi_star(lam, sigma: RookElement) -> int:
    """Irreducible rook character: sum of chi_lam over the compressed
    invariant index subsets of size |lam|."""
    lam = check_partition(lam)
    r = sum(lam)
    if r > sigma.n:
        return 0
    if r == 0:
        return 1
    return sum(_sym_char_by_type(lam, cycle_type(perm)) for _, perm in support_data(sigma, r))


def defining_product_multiset(lam, n: int) -> dict[Partition, int]:
    """Multiset of shapes in the product of the defining character with lam's.

    Move steps contribute once per removable corner (so a shape obtained from
    several intermediates carries that multiplicity) and the add-a-box shapes
    contribute once each; the two parts are disjoint since their sizes differ.
    """
    lam = check_partition(lam)
    out: dict[Partition, int] = {}
    for _, mu in move_steps(lam):
        out[mu] = out.get(mu, 0) + 1
    added = corner_set(lam, "plus_n", n)
    if set(added) & set(out):
        raise AssertionError("move and add parts unexpectedly overlap")
    for mu in added:
        out[mu] = out.get(mu, 0) + 1
    return out


def kronecker_with_defining(lam, n: int, verify: bool = True) -> dict[Partition, int]:
    """Decomposition of (defining representation) x (irreducible of shape lam).

    When ``verify`` is set, the character identity
    chi*_(1)(sigma) chi*_lam(sigma) = sum over the multiset of chi*_mu(sigma)
    is checked pointwise over the whole monoid; a failure raises with the
    witnessing element.
    """
    lam = check_partition(lam)
    if sum(lam) > n:
        raise ValueError(f"{lam} does not fit in n={n}")
    out = defining_product_multiset(lam, n)
    if verify:
        one = (1,)
        for sigma in enumerate_rook(n):
            lhs = chi_star(one, sigma) * chi_star(lam, sigma)
            rhs = sum(m * chi_star(mu, sigma) for mu, m in out.items())
            if lhs != rhs:
                raise RuntimeError(
                    f"product rule fails for lam={lam}, n={n} at sigma={sigma!r}: "
                    f"{lhs} != {rhs}"
                )
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def mod_induce(mult: dict, n: int) -> dict[Partition, int]:
    """Modified induction: each shape goes to its one-box additions inside
    the size-n world, multiplicities carried along."""
    out: dict[Partition, int] = {}
    for lam, m in mult.items():
        lam = check_partition(lam)
        if sum(lam) > n - 1:
            raise ValueError(f"{lam} out of bounds for induction to n={n}")
        for mu in corner_set(lam, "plus_n", n):
            out[mu] = out.get(mu, 0) + m
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def mod_restrict(mult: dict, n: int) -> dict[Partition, int]:
    """Modified restriction: each shape goes to its one-box removals."""
    out: dict[Partition, int] = {}
    for lam, m in mult.items():
        lam = check_partition(lam)
        if sum(lam) > n:
            raise ValueError(f"{lam} out of bounds for restriction from n={n}")
        for mu in corner_set(lam, "minus"):
            out[mu] = out.get(mu, 0) + m
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def branching_restrict(mult: dict, n: int) -> dict[Partition, int]:
    """Plain restriction along the branching rule: a shape goes to its one-box
    removals together with itself (when it still fits one level down).

    Composing ``mod_induce`` with this map realizes tensoring with the
    defining representation.
    """
    out: dict[Partition, int] = {}
    for lam, m in mult.items():
        lam = check_partition(lam)
        if sum(lam) > n:
            raise ValueError(f"{lam} out of bounds for restriction from n={n}")
        for mu in corner_set(lam, "minus_eq"):
            if sum(mu) <= n - 1:
                out[mu] = out.get(mu, 0) + m
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def check_frobenius(lam, mu, n: int) -> bool:
    """Adjointness of modified induction and restriction on irreducibles:
    the two hom-space dimensions are the indicator multiplicities, which must
    agree."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) > n or sum(mu) > n - 1:
        raise ValueError("shapes out of bounds")
    ind_side = 1 if lam in corner_set(mu, "plus_n", n) else 0
    res_side = 1 if mu in corner_set(lam, "minus") else 0
    return ind_side == res_side


def tensor_multiplicities(n: int, k: int) -> dict[Partition, int]:
    """Multiplicities of the irreducibles in the k-th tensor power of the
    defining representation, solved exactly from characters.

    The trace of the tensor action is computed from actual matrices on the
    tensor space, so this route is independent of any branching-graph count.
    """
    from .tensor import TensorSpace, psi_rook

    shapes = partitions_upto(n)
    space = TensorSpace(n, k)
    elements = enumerate_rook(n)
    rows = [[Fraction(chi_star(lam, sigma)) for lam in shapes] for sigma in elements]
    rhs = [psi_rook(sigma, space).trace() for sigma in elements]
    sol = solve_unique(ExactMatrix(rows), rhs)
    out = {}
    for lam, m in zip(shapes, sol):
        if m:
            assert m.denominator == 1 and m > 0
            out[lam] = int(m)
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))
