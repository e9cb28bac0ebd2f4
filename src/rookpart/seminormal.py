"""Irreducible seminormal modules of the rook monoid algebra.

The module attached to a shape lam with at most n boxes has a basis indexed by
n-standard tableaux of shape lam.  Basis vectors are ordered by their
branching path read from the top level down, so restriction to the subalgebra
fixing the last letter splits into contiguous blocks.

A monoid element acts through its factorization into the generators s_i and
P_1, whose matrices are cached per module.  The commuting family X_i, X~_i
is not expanded into monoid elements: its matrices follow the recursions
X_i = s_{i-1} X_{i-1} s_{i-1} and its content analogue, one conjugation by
the token matrix of s_{i-1} per step (``_jm_matrices``).
"""

from __future__ import annotations

from fractions import Fraction

from .bratteli import tableau_to_path
from .combinat import (
    check_partition,
    content,
    is_standard_tableau,
    rook_irrep_dim,
    shape_key,
    standard_tableaux,
    tableau_entries,
)
from .formal import FormalSum
from .limits import check
from .linalg import ExactMatrix
from .rook import RookElement, factor_to_word


def _position(tab, entry) -> tuple[int, int]:
    for r, row in enumerate(tab, start=1):
        for c, e in enumerate(row, start=1):
            if e == entry:
                return (r, c)
    raise KeyError(entry)


def _swap_adjacent(tab, i):
    """Exchange the letters i and i+1 wherever they appear."""
    swap = {i: i + 1, i + 1: i}
    return tuple(tuple(swap.get(e, e) for e in row) for row in tab)


def act_si(n: int, i: int, tab) -> FormalSum:
    """Action of the adjacent transposition s_i on a basis tableau.

    Four cases, depending on which of i, i+1 occur in the tableau; when both
    occur the coefficient is the inverse axial distance a = 1/(ct(i+1)-ct(i))
    and the off-diagonal term (1+a) is dropped if the swap is not standard.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} out of range for n={n}")
    entries = tableau_entries(tab)
    has_i, has_j = i in entries, (i + 1) in entries
    if has_i != has_j:
        return FormalSum.term(_swap_adjacent(tab, i))
    if not has_i:
        return FormalSum.term(tab)
    a = Fraction(1, content(_position(tab, i + 1)) - content(_position(tab, i)))
    out = FormalSum.term(tab, a)
    swapped = _swap_adjacent(tab, i)
    if is_standard_tableau(swapped):
        out = out + FormalSum.term(swapped, 1 + a)
    return out


def act_p1(tab) -> FormalSum:
    """P_1 keeps a basis tableau iff the letter 1 does not occur in it."""
    if 1 in tableau_entries(tab):
        return FormalSum.zero()
    return FormalSum.term(tab)


def _path_sort_key(tab, n: int):
    """Branching path of the tableau, read from level n-1 down to level 0."""
    return tuple(shape_key(s) for s in reversed(tableau_to_path(tab, n).shapes[:-1]))


class RookIrrep:
    """Seminormal module for a shape with at most n boxes.

    Generator matrices are cached at construction; matrices of arbitrary
    monoid elements are obtained through their factorization into the
    generators s_i, P_1 and memoized.
    """

    def __init__(self, lam, n: int):
        lam = check_partition(lam)
        if sum(lam) > n:
            raise ValueError(f"shape {lam} does not fit in n={n}")
        self.lam = lam
        self.n = n
        self.basis = tuple(
            sorted(standard_tableaux(lam, n), key=lambda t: _path_sort_key(t, n))
        )
        self.index = {t: i for i, t in enumerate(self.basis)}
        self._tokens = {}
        for i in range(1, n):
            self._tokens[("s", i)] = self._matrix_of(lambda t, i=i: act_si(n, i, t))
        self._tokens[("P1", 0)] = self._matrix_of(act_p1)
        self._elements: dict[RookElement, ExactMatrix] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _matrix_of(self, act) -> ExactMatrix:
        """Matrix whose column j is act(basis[j]) in the basis coordinates."""
        pairs = [
            ((self.index[key], j), coeff)
            for j, t in enumerate(self.basis)
            for key, coeff in act(t).terms()
        ]
        return ExactMatrix.from_entries(self.dim, self.dim, pairs)

    def token_matrix(self, token) -> ExactMatrix:
        return self._tokens[token]

    def rep_rook(self, rho: RookElement) -> ExactMatrix:
        if rho.n != self.n:
            raise ValueError("size mismatch")
        cached = self._elements.get(rho)
        if cached is not None:
            return cached
        mat = ExactMatrix.identity(self.dim)
        for token in factor_to_word(rho):
            mat = mat * self._tokens[token]
        self._elements[rho] = mat
        return mat


def _jm_matrices(irrep: RookIrrep) -> list[tuple[ExactMatrix, ExactMatrix]]:
    """(rho(X_i), rho(X~_i)) for i = 1..n, along the recursions of the
    family, from the cached token matrices.

    rho(X_1) = I - rho(P_1), rho(X~_1) = 0 and gamma_1 = P_1; for i >= 2,
    with s = rho(s_{i-1}),

        rho(X_i)     = s rho(X_{i-1}) s,
        rho(gamma_i) = s rho(gamma_{i-1}) s,
        rho(X~_i)    = s rho(X~_{i-1}) s + s - s rho(gamma_{i-1})
                       - rho(gamma_{i-1}) s + rho(gamma_{i-1}) rho(gamma_i),

    the last term being rho(Q_i), as Q_i = gamma_{i-1} gamma_i.  So a module
    takes O(n) sparse products.  Each rho(gamma_i) formed is checked to be
    the 0/1 diagonal of the tableaux without the letter i (RuntimeError
    naming the first tableau whose row differs).
    """
    n, d = irrep.n, irrep.dim
    letters = [tableau_entries(t) for t in irrep.basis]
    out = []
    for i in range(1, n + 1):
        if i == 1:
            gamma = irrep.token_matrix(("P1", 0))
            x, xt = ExactMatrix.identity(d) - gamma, ExactMatrix.zeros(d, d)
        else:
            s = irrep.token_matrix(("s", i - 1))
            before, s_before = gamma, s * gamma
            gamma = s_before * s
            x = s * x * s
            xt = s * xt * s + s - s_before - before * s + before * gamma
        want = ExactMatrix.from_entries(d, d, (((j, j), 1) for j in range(d) if i not in letters[j]))
        if gamma != want:
            j = next(j for j in range(d) if gamma.data[j] != want.data[j])
            raise RuntimeError(
                f"rho(gamma_{i}) on {irrep.lam} at n={n} is not the 0/1 diagonal of the tableaux "
                f"without {i}: its row {j}, at the tableau {irrep.basis[j]}, differs"
            )
        out.append((x, xt))
    return out


def verify_jm_action(lam, n: int) -> dict:
    """Check that the commuting family acts diagonally with the stated spectrum.

    X_i reads off membership of i in the tableau, and the content family reads
    ct(box of i).  Returns a report with one row per (tableau, i); any
    mismatch lands in report["mismatches"].  The matrices come from
    ``_jm_matrices``: O(n) sparse products, each linear in the dimension,
    since a token matrix has at most two entries per row.  The report has
    n rows per tableau, each reading the tableau's letters, and ordering the
    basis reads each tableau's path through n levels, so the work grows like
    n (|lambda| + 1) times the dimension, which the "rook-jm" limit bounds
    first.
    """
    check("rook-jm", n * (sum(lam) + 1) * rook_irrep_dim(lam, n))
    irrep = RookIrrep(lam, n)
    rows = []
    mismatches = []
    for i, (mat_x, mat_t) in enumerate(_jm_matrices(irrep), start=1):
        if not mat_x.is_diagonal():
            mismatches.append(f"X_{i} not diagonal on {lam}")
        if not mat_t.is_diagonal():
            mismatches.append(f"X~_{i} not diagonal on {lam}")
        for j, tab in enumerate(irrep.basis):
            present = i in tableau_entries(tab)
            want_x = Fraction(1 if present else 0)
            want_t = Fraction(content(_position(tab, i))) if present else Fraction(0)
            got_x, got_t = mat_x[j, j], mat_t[j, j]
            rows.append(
                {
                    "lambda": lam,
                    "tableau": tab,
                    "i": i,
                    "x_eig": got_x,
                    "xtilde_eig": got_t,
                }
            )
            if got_x != want_x or got_t != want_t:
                mismatches.append(
                    f"{lam} {tab} i={i}: got ({got_x},{got_t}), want ({want_x},{want_t})"
                )
    return {"ok": not mismatches, "rows": rows, "mismatches": mismatches}
