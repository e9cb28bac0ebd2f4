"""Sparse exact linear algebra over the rationals.

Matrices are immutable and stored by rows: each row is a dict
``{column: value}`` holding only its nonzero entries.  Values stay Python
ints until a division forces a Fraction.  Entries are handed back as
Fractions; kernel vectors stay sparse dicts of exact ints and Fractions.

All elimination is sparse Gauss-Jordan with exact pivoting: over the
rationals for ranks and commutants, and without fractions, on integer rows
with no common factor, for kernels and joint eigenspaces.  There is no
tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

_ZERO = Fraction(0)


def _exact(value):
    """The value as an int when it is integral, as a Fraction otherwise."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _div(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _axpy(row: dict, f, other: dict) -> None:
    """row += f * other in place, keeping only nonzero entries."""
    for k, v in other.items():
        s = row.get(k, 0) + f * v
        if s:
            row[k] = s
        else:
            row.pop(k, None)


class ExactMatrix:
    """Immutable rows x cols matrix of exact rationals, stored as sparse rows."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, data):
        grid = [list(row) for row in data]
        width = len(grid[0]) if grid else 0
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        self.rows = len(grid)
        self.cols = width
        self._rows = tuple({j: _exact(x) for j, x in enumerate(row) if x} for row in grid)

    @classmethod
    def _from_rows(cls, cols: int, rows) -> "ExactMatrix":
        # rows: sparse row dicts without zeros, owned by the new matrix
        m = cls.__new__(cls)
        m._rows = tuple(rows)
        m.rows = len(m._rows)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, d: int) -> "ExactMatrix":
        return cls._from_rows(d, ({i: 1} for i in range(d)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_rows(cols, ({} for _ in range(rows)))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "ExactMatrix":
        """Matrix from ``((i, j), value)`` pairs.

        The values given for one cell add up, ints staying ints until a
        Fraction arrives; a cell whose values sum to zero is left out.  A cell
        outside the matrix raises IndexError naming it.
        """
        out = [{} for _ in range(rows)]
        for (i, j), v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            row = out[i]
            row[j] = row.get(j, 0) + _exact(v)
        return cls._from_rows(cols, ({j: _exact(v) for j, v in row.items() if v} for row in out))

    @property
    def data(self) -> tuple:
        """Read-only dense view: a tuple of rows of Fractions."""
        out = []
        for row in self._rows:
            dense = [_ZERO] * self.cols
            for j, v in row.items():
                dense[j] = Fraction(v)
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside 0..{self.cols - 1}")
        return Fraction(self._rows[i].get(j, 0))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self._rows == other._rows

    def _combine(self, other, f) -> "ExactMatrix":
        self._check_same_shape(other)
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            _axpy(row, f, rb)
            out.append(row)
        return ExactMatrix._from_rows(self.cols, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, c) -> "ExactMatrix":
        c = _exact(c)
        if not c:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix._from_rows(
            self.cols, ({j: c * v for j, v in row.items()} for row in self._rows)
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} != {other.rows}")
        right = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for j, v in row.items():
                _axpy(acc, v, right[j])
            out.append(acc)
        return ExactMatrix._from_rows(other.cols, out)

    def is_diagonal(self) -> bool:
        return all(row.keys() <= {i} for i, row in enumerate(self._rows))

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _gauss_jordan(rows) -> dict:
    """Sparse Gauss-Jordan elimination of rows given as {column: value} dicts.

    Returns ``{pivot column: pivot row}``, each pivot row scaled to a leading
    1 at its pivot column; the number of pivots is the rank.  Rows are taken
    one at a time and eliminated at their lowest column until they either
    start a new pivot or empty out (a dependent row), so pivot rows stay
    sparse.  Pivot columns are not cleared from the pivot rows above them:
    every caller reads only the rank.  The input rows are not modified.
    """
    pivots = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                lead = row[c]
                if lead != 1:
                    row = {k: _div(v, lead) for k, v in row.items()}
                pivots[c] = row
                break
            _axpy(row, -row[c], p)
    return pivots


def _primitive(row: dict) -> dict:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _integer_gauss_jordan(rows) -> dict:
    """Fraction-free sparse Gauss-Jordan elimination of integer rows.

    The same steps as ``_gauss_jordan``, each row operation r := a r - b p
    taken with the smallest integers a, b that clear the column, and each
    pivot row divided by the gcd of its entries; then each pivot column is
    cleared from the pivot rows above it the same way.  Returns
    ``{pivot column: pivot row}``: the reduced row echelon form with each
    row scaled to integers with no common factor.  The rows must be dicts of
    nonzero ints that the caller gives up: they are modified in place."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = _primitive(row)
                break
            a, b = p[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            _axpy(row, -b, p)
            if row and a != 1:
                row = _primitive(row)
    order = sorted(pivots)
    for idx in range(len(order) - 1, 0, -1):
        col = order[idx]
        p = pivots[col]
        for c in order[:idx]:
            q = pivots[c]
            f = q.get(col)
            if f:
                a, b = p[col], f
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    q = {k: a * v for k, v in q.items()}
                _axpy(q, -b, p)
                pivots[c] = _primitive(q)
    return pivots


def nullspace(m: ExactMatrix) -> list:
    """Exact basis of the right kernel; size = cols - rank.

    One sparse vector ``{column: value}`` per free column f of the reduced
    row echelon form, listed by f: 1 at f, 0 at every other free column, and
    minus the pivot rows' entries at f at their pivot columns.  The form is
    found without fractions (``_integer_gauss_jordan``), each row first
    scaled to integers, and divided by each pivot row's lead at the end.
    """
    rows = []
    for row in m._rows:
        # every value to an int, integral Fractions too, since gcd takes ints only
        scale = lcm(*(v.denominator for v in row.values()))
        rows.append({k: v.numerator * (scale // v.denominator) for k, v in row.items() if v})
    pivots = _integer_gauss_jordan(rows)
    basis = {f: {f: 1} for f in range(m.cols) if f not in pivots}
    for c, row in pivots.items():
        lead = row[c]
        for f, v in row.items():
            if f != c:
                basis[f][c] = _div(-v, lead)
    return list(basis.values())


def _commutator_rows(g: ExactMatrix, ids):
    """Rows of the linear system M g - g M = 0, one per entry (i, k) of the
    commutator, in the unknowns ``ids[a * d + b]`` of the entries M_{ab}."""
    d = g.rows
    col_nz = [[] for _ in range(d)]
    for j, row in enumerate(g._rows):
        for k, v in row.items():
            col_nz[k].append((j, v))
    for i, g_row in enumerate(g._rows):
        base = i * d
        for k in range(d):
            row = {}
            for j, v in col_nz[k]:
                u = ids[base + j]
                row[u] = row.get(u, 0) + v
            for j, v in g_row.items():
                u = ids[j * d + k]
                row[u] = row.get(u, 0) - v
            yield row


def commutant_dimension(generators, unknowns) -> int:
    """Dimension of {M : M g = g M for every generator g}, M ranging over the
    d x d matrices whose entries with one name share one unknown.

    ``unknowns[a * d + b]`` names the unknown of entry (a, b), so
    ``range(d * d)`` gives every entry its own and the whole commutant.  A
    matrix commutes with a permutation action exactly when it is constant on
    the orbits of that action on entries (a combination of orbital
    matrices), so a caller whose generators include a permutation group
    names the unknowns by those orbits and passes only the other generators:
    the system left is one of orbits, not of d^2 entries.  The stacked
    commutator rows, d^2 per generator with their columns gathered by name,
    are eliminated one by one, and the result is the number of names minus
    the rank; with no generator, it is the number of names.
    """
    d = isqrt(len(unknowns))
    if d * d != len(unknowns):
        raise ValueError(f"{len(unknowns)} unknowns do not name the entries of a square matrix")
    for g in generators:
        if g.rows != d or g.cols != d:
            raise ValueError(f"dimension mismatch: a {g.rows}x{g.cols} generator for {d}x{d} unknowns")
    names = {}
    ids = [names.setdefault(u, len(names)) for u in unknowns]
    rows = chain.from_iterable(_commutator_rows(g, ids) for g in generators)
    return len(names) - len(_gauss_jordan(rows))


def _is_scalar(m: ExactMatrix) -> bool:
    """Every row is {i: c} for one c, or every row is empty: a multiple of
    the identity, read in O(d)."""
    rows = m._rows
    if not rows or not rows[0]:
        return not any(rows)
    c = rows[0].get(0)
    return c is not None and all(row == {i: c} for i, row in enumerate(rows))


class CommutingFamily(tuple):
    """Square matrices of one size, checked on construction to commute pairwise.

    Construction raises ValueError naming the first pair of indices (i, j)
    with ``ops[i] * ops[j] != ops[j] * ops[i]``.  The check runs at every size
    and under ``python -O``, and skips the pairs of a scalar operator (a
    multiple of the identity, such as M_{1/2} = 1 or M_1 = 0), which commutes
    with every matrix; a caller that reuses one family for many
    eigenspaces builds it once and pays for the check once.

    The family also keeps, for as long as it lives, the joint kernel of each
    eigenvalue prefix it has been asked for: at (lambda_1, ..., lambda_j), the
    vectors killed by op_i - lambda_i for every i <= j, as sparse basis
    vectors of integers with no common factor.  Eigenvalue tuples that share
    a prefix, as those of the paths of a branching graph through one vertex
    do, share its kernel, and each new prefix is eliminated once, in the r
    unknowns its parent's kernel leaves; with integer operators and
    eigenvalues, its images of the parent's vectors stay integers.
    """

    def __new__(cls, ops):
        ops = tuple(ops)
        if not ops:
            raise ValueError("need at least one operator")
        d = ops[0].rows
        for op in ops:
            if op.rows != d or op.cols != d:
                raise ValueError("operators must be square and same size")
        # a scalar operator commutes with every other, so its pairs are skipped
        checked = [i for i, op in enumerate(ops) if not _is_scalar(op)]
        for a, i in enumerate(checked):
            for j in checked[a + 1 :]:
                if ops[i] * ops[j] != ops[j] * ops[i]:
                    raise ValueError(f"operators {i} and {j} do not commute")
        family = super().__new__(cls, ops)
        # each operator by columns, to apply it to sparse vectors
        family._columns = [[{} for _ in range(d)] for _ in ops]
        for op, columns in zip(ops, family._columns):
            for i, row in enumerate(op._rows):
                for c, v in row.items():
                    columns[c][i] = v
        family._kernels = {(): [{i: 1} for i in range(d)]}
        return family

    @property
    def prefix_kernels(self) -> int:
        """How many nonempty eigenvalue prefixes the family holds a kernel of."""
        return len(self._kernels) - 1

    @property
    def largest_kernel(self) -> int:
        """The most vectors in a prefix kernel that an elimination gave, not
        inherited from its parent; 0 when no elimination ran."""
        kernels = self._kernels
        return max((len(v) for key, v in kernels.items() if key and v is not kernels[key[:-1]]), default=0)

    def _kernel(self, values: tuple) -> list:
        """Joint kernel of the first len(values) operators at those values.

        A new prefix applies op_j - lambda_j to each of the r sparse vectors
        of its parent's kernel, and each sparse vector that ``nullspace`` gives
        for the d x r matrix of the images names a combination of them that it
        kills, taken as the primitive integer vector it is a multiple of; when
        every image is zero, the parent's kernel is the prefix's own.
        """
        kernel = self._kernels.get(values)
        if kernel is not None:
            return kernel
        parent = self._kernel(values[:-1])
        columns, lam = self._columns[len(values) - 1], values[-1]
        rows = [{} for _ in columns]
        for col, vec in enumerate(parent):
            image = {i: -lam * v for i, v in vec.items()} if lam else {}
            for c, v in vec.items():
                _axpy(image, v, columns[c])
            for i, v in image.items():
                rows[i][col] = v
        if any(rows):
            kernel = []
            for coeffs in nullspace(ExactMatrix._from_rows(len(parent), rows)):
                # integer multiples of the parent's integer vectors, then primitive
                scale = lcm(*(c.denominator for c in coeffs.values()))
                vec = {}
                for col, c in coeffs.items():
                    _axpy(vec, c.numerator * (scale // c.denominator), parent[col])
                kernel.append(_primitive(vec))
        else:
            kernel = parent
        self._kernels[values] = kernel
        return kernel


def simultaneous_eigenspace(ops, eigenvalues) -> list:
    """Exact basis of the intersection of ker(op_i - lambda_i I).

    The operators must commute pairwise: unless ``ops`` is already a
    :class:`CommutingFamily`, it is checked here and a non-commuting pair
    raises ValueError.  The basis is the family's kernel of the eigenvalue
    tuple, each vector divided by its last entry, as fresh sparse dicts.  It
    equals, vector for vector, the ``nullspace`` of the stacked system of
    every op_i - lambda_i: the one kernel vector per free column f that ends
    at f with a 1 and is 0 at the other free columns.  Each prefix keeps that
    form up to a nonzero factor per vector: the combination that
    ``nullspace`` gives for a free column g of the image matrix adds to a
    multiple of the parent's g-th vector only parent vectors that end before
    it and are 0 at its free column, so it ends there, and it is 0 at the
    free columns of the other combinations.  Dividing by the last entry
    removes the factor, so the basis does not depend on which prefixes were
    asked for before.
    """
    if len(ops) != len(eigenvalues):
        raise ValueError("one eigenvalue per operator")
    if not isinstance(ops, CommutingFamily):
        ops = CommutingFamily(ops)
    basis = []
    for vec in ops._kernel(tuple(_exact(lam) for lam in eigenvalues)):
        last = vec[max(vec)]
        basis.append({i: _div(v, last) for i, v in vec.items()})
    return basis
