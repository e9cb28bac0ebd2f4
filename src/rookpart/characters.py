"""Characters of the rook monoid and the defining-representation product rule.

Rook characters are class functions on closed cycle types.  The value of a
rook character at an element depends only on the cycle type of the element's
closed part, the cycles of the partial map (W. D. Munn, Proc. Cambridge
Philos. Soc. 53, 1957).  ``closed_type`` reads that type and
``class_representatives`` gives one element per class, a permutation of type
mu on {1..|mu|} undefined on the rest, for every partition mu of size at most
n.

The irreducible character attached to a shape lam is read on types by
Solomon's formula (J. Algebra 256, 2002): chi*_lam(mu) is the sum over the
sub-multisets nu of mu with |nu| = |lam| of prod_l C(m_l(mu), m_l(nu))
chi_lam(nu), where m_l counts the parts equal to l.  Each type's sub-multisets
are listed once, by size, and chi_lam(nu) comes from the Murnaghan-Nakayama
rule, which ends at f_lam on fixed points; values are cached by (shape, type).
``tensor_multiplicities`` solves the block-triangular system of these values at
the closed types size by size, by column orthogonality in each S_m.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from fractions import Fraction
from math import comb, factorial, prod

from .combinat import (
    Partition,
    check_partition,
    corner_set,
    f_lambda,
    move_steps,
    partitions,
    partitions_upto,
    shape_key,
)
from .limits import check
from .rook import RookElement


def closed_type(sigma: RookElement) -> Partition:
    """Cycle type of the closed part of a rook element: the lengths of the
    cycles of the partial map, largest first.  Rook characters read nothing
    else of sigma."""
    lengths = []
    seen = set()
    for start in sigma.domain():
        if start in seen:
            continue
        seen.add(start)
        cur, length = sigma.image(start), 1
        while cur and cur != start and cur not in seen:
            seen.add(cur)
            cur, length = sigma.image(cur), length + 1
        if cur == start:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


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
def _sym_char_by_type(lam: Partition, ctype: tuple[int, ...]) -> int:
    """Symmetric-group character of lam at cycle type ctype, by the Murnaghan-Nakayama
    rule: remove a rim hook of length ctype[0] in every way, each with sign (-1)^(leg
    length), and recurse on the rest of ctype until its parts are all 1 (f_lam there).

    On the beta-numbers lam_i + l - i of lam (l parts), removing a rim hook
    of length r moves a bead b to a free position b - r >= 0, and the leg
    length is the number of beads strictly between b - r and b.
    """
    if sum(lam) != sum(ctype):
        raise ValueError(f"shape {lam} and cycle type {ctype} differ in size")
    if ctype.count(1) == len(ctype):
        return f_lambda(lam)
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


@cache
def _sub_multisets(mu: Partition) -> dict[int, tuple[tuple[int, Partition], ...]]:
    """mu's sub-multisets nu in one pass, by |nu|, each with its ways prod_l C(m_l(mu), m_l(nu));
    each cycle is in nu or out, so the ways must sum to 2^len(mu), or RuntimeError names mu."""
    lengths = sorted(Counter(mu).items(), reverse=True)
    by_size: dict[int, list] = {}
    for counts in product(*(range(m + 1) for _, m in lengths)):
        nu = tuple(length for (length, _), c in zip(lengths, counts) for _ in range(c))
        ways = prod(comb(m, c) for (_, m), c in zip(lengths, counts))
        by_size.setdefault(sum(nu), []).append((ways, nu))
    if sum(w for row in by_size.values() for w, _ in row) != 2 ** len(mu):
        raise RuntimeError(f"the ways to pick sub-multisets of {mu} do not sum to 2^{len(mu)}")
    return {r: tuple(row) for r, row in by_size.items()}


@cache
def _chi_star_by_type(lam: Partition, mu: Partition) -> int:
    """Irreducible rook character of lam at closed type mu, by Solomon's
    formula: the sum of ways * chi_lam(nu) over mu's sub-multisets nu of size
    |lam|, listed once per type by ``_sub_multisets``."""
    return sum(ways * _sym_char_by_type(lam, nu) for ways, nu in _sub_multisets(mu).get(sum(lam), ()))


def chi_star(lam, sigma: RookElement) -> int:
    """Irreducible rook character of lam at sigma; it reads only
    ``closed_type(sigma)``.  Sizes past the "rook characters" row of
    ``limits.LIMITS`` are refused before any work, as on the command line."""
    check("rook characters", sigma.n)
    return _chi_star_by_type(check_partition(lam), closed_type(sigma))


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
    chi*_(1) chi*_lam = sum over the multiset of chi*_nu is checked at every
    closed type mu of size at most n.  That covers the whole monoid, since
    every character involved is a class function; a failure raises with the
    class representative of the witnessing type.
    """
    lam = check_partition(lam)
    if sum(lam) > n:
        raise ValueError(f"{lam} does not fit in n={n}")
    out = defining_product_multiset(lam, n)
    if verify:
        for mu, sigma in class_representatives(n):
            lhs = _chi_star_by_type((1,), mu) * _chi_star_by_type(lam, mu)
            rhs = sum(m * _chi_star_by_type(nu, mu) for nu, m in out.items())
            if lhs != rhs:
                raise RuntimeError(
                    f"product rule fails for lam={lam}, n={n} at sigma={sigma!r}: "
                    f"{lhs} != {rhs}"
                )
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))


def _class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu in S_|mu|: |mu|! / prod_l l^m_l m_l!."""
    return factorial(sum(mu)) // prod(length**m * factorial(m) for length, m in Counter(mu).items())


def tensor_multiplicities(n: int, k: int) -> dict[Partition, int]:
    """Multiplicities of the irreducibles in the k-th tensor power of the
    defining representation, solved exactly from characters.

    There is one equation per class of R_n, that is per closed type mu of size
    at most n, read off the type with no representative built.  At type mu the
    tensor character is the trace of an element on V^(x)k, which is
    (#fixed points)^k = mu.count(1)^k.  The right-hand side comes from the
    action on the tensor space, not from any branching-graph count.

    The system is block-triangular: chi*_lam(mu) is 0 when |lam| > |mu| and
    chi_lam(mu) when |lam| = |mu|.  So at each size m = 0..n, the types of size
    m lose the smaller shapes' share of their right-hand side, and S_m's
    character table is inverted by column orthogonality, in ints:
    a_lam = (1/m!) sum_mu |C_mu| chi_lam(mu) residual_mu.  A multiplicity that
    is not a nonnegative integer raises ValueError; a type that does not get
    its (#fixed points)^k back raises RuntimeError naming both values.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    out: dict[Partition, int] = {}
    for m in range(n + 1):
        types, order = partitions(m), factorial(m)
        rhs = [mu.count(1) ** k for mu in types]
        residual = [r - sum(a * _chi_star_by_type(lam, mu) for lam, a in out.items()) for mu, r in zip(types, rhs)]
        weighted = [_class_size(mu) * r for mu, r in zip(types, residual)]
        for lam in types:
            total = sum(w * _chi_star_by_type(lam, mu) for mu, w in zip(types, weighted))
            a, rem = divmod(total, order)
            if rem or a < 0:
                raise ValueError(
                    f"multiplicity of {lam} in the tensor power n={n}, k={k} is "
                    f"{Fraction(total, order)}, not a nonnegative integer"
                )
            if a:
                out[lam] = a
        for mu, r, rest in zip(types, rhs, residual):
            got = r - rest + sum(out.get(lam, 0) * _chi_star_by_type(lam, mu) for lam in types)
            if got != r:
                raise RuntimeError(
                    f"tensor multiplicities n={n}, k={k} give {got} at closed type {mu}, not (#fixed points)^k = {r}"
                )
    return dict(sorted(out.items(), key=lambda kv: shape_key(kv[0])))
