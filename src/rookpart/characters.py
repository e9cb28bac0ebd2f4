"""Characters of the rook monoid and the defining-representation product rule.

A rook character is a class function: its value at a rook element depends only
on the cycle type of the element's closed part, the cycles of the partial map
(W. D. Munn, Proc. Cambridge Philos. Soc. 53, 1957).  ``closed_type`` reads
that type and ``class_representatives`` gives one element per class, a
permutation of type mu on {1..|mu|} undefined on the rest, for every partition
mu of size at most n.

The irreducible character attached to a shape lam evaluates at a rook element
by summing symmetric-group character values over the invariant index subsets
of size |lam|.  Symmetric-group values come from the Murnaghan-Nakayama rule
and are cached by (shape, cycle type); ``chi_sym``, the trace of the seminormal
module, is the independent route kept for comparison.
"""

from __future__ import annotations

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
from .rook import RookElement, _cycles, support_data
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


def closed_type(sigma: RookElement) -> Partition:
    """Cycle type of the closed part of a rook element: the lengths of the
    cycles of the partial map, largest first.  Rook characters read nothing
    else of sigma."""
    return tuple(sorted((len(c) for c in _cycles(sigma)), reverse=True))


def _perm_of_type(ctype: tuple[int, ...], n: int) -> RookElement:
    """Permutation of cycle type ctype on {1..|ctype|}, undefined up to n."""
    mapping = []
    offset = 0
    for length in ctype:
        mapping.extend(range(offset + 2, offset + length + 1))
        mapping.append(offset + 1)
        offset += length
    return RookElement(n, mapping + [0] * (n - offset))


@cache
def class_representatives(n: int) -> tuple[tuple[Partition, RookElement], ...]:
    """One (mu, rep) per class of R_n, for mu in ``partitions_upto(n)``, with
    ``closed_type(rep) == mu``."""
    return tuple((mu, _perm_of_type(mu, n)) for mu in partitions_upto(n))


@cache
def _irrep(lam: Partition, n: int) -> RookIrrep:
    return RookIrrep(lam, n)


@cache
def _sym_char_by_type(lam: Partition, ctype: tuple[int, ...]) -> int:
    """Symmetric-group character of lam at cycle type ctype, by the
    Murnaghan-Nakayama rule: remove a rim hook of length ctype[0] in every
    way, each with sign (-1)^(leg length), and recurse on the rest of ctype.

    On the beta-numbers lam_i + l - i of lam (l parts), removing a rim hook
    of length r moves a bead b to a free position b - r >= 0, and the leg
    length is the number of beads strictly between b - r and b.
    """
    if sum(lam) != sum(ctype):
        raise ValueError(f"shape {lam} and cycle type {ctype} differ in size")
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
        total += (-1) ** leg * _sym_char_by_type(mu, rest)
    return total


def chi_sym(lam, sigma: RookElement) -> int:
    """Symmetric-group irreducible character: trace of the seminormal module
    at n = |lam| on a permutation of {1..|lam|}."""
    lam = check_partition(lam)
    if sigma.n != sum(lam) or not sigma.is_permutation():
        raise ValueError(f"need a permutation of 1..{sum(lam)}")
    value = _irrep(lam, sigma.n).rep_rook(sigma).trace()
    if value.denominator != 1:
        raise RuntimeError(f"seminormal trace of {lam} at sigma={sigma!r} is {value}")
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
        raise RuntimeError(f"move and add parts overlap for lam={lam}, n={n}")
    for mu in added:
        out[mu] = out.get(mu, 0) + 1
    return out


def kronecker_with_defining(lam, n: int, verify: bool = True) -> dict[Partition, int]:
    """Decomposition of (defining representation) x (irreducible of shape lam).

    When ``verify`` is set, the character identity
    chi*_(1)(sigma) chi*_lam(sigma) = sum over the multiset of chi*_mu(sigma)
    is checked at every class representative of R_n.  That covers the whole
    monoid, since every character involved is a class function; a failure
    raises with the witnessing representative.
    """
    lam = check_partition(lam)
    if sum(lam) > n:
        raise ValueError(f"{lam} does not fit in n={n}")
    out = defining_product_multiset(lam, n)
    if verify:
        one = (1,)
        for _, sigma in class_representatives(n):
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

    The system is square, one row per class of R_n: at the representative of
    type mu the tensor character is the trace of sigma on V^(x)k, which is
    (#fixed points)^k = mu.count(1)^k.  The right-hand side comes from the
    action on the tensor space, not from any branching-graph count.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    shapes = partitions_upto(n)
    classes = class_representatives(n)
    rows = [[chi_star(lam, rep) for lam in shapes] for _, rep in classes]
    rhs = [mu.count(1) ** k for mu, _ in classes]
    sol = solve_unique(ExactMatrix(rows), rhs)
    out = {}
    for lam, m in zip(shapes, sol):
        if m.denominator != 1 or m < 0:
            raise ValueError(
                f"multiplicity of {lam} in the tensor power n={n}, k={k} is {m}, "
                "not a nonnegative integer"
            )
        if m:
            out[lam] = int(m)
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))
