"""The rook monoid, its monoid algebra, and its commuting element family.

A rook element is a partial injective map on {1..n}, equivalently an n x n
0/1 matrix with at most one nonzero entry in each row and column; composition
is matrix product.  Algebra elements are FormalSums of rook elements with
rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from .formal import FormalSum
from .limits import check


class RookElement:
    """Partial injective map i -> mapping[i-1], with 0 meaning undefined."""

    __slots__ = ("n", "mapping")

    def __init__(self, n: int, mapping):
        mapping = tuple(mapping)
        if len(mapping) != n:
            raise ValueError("mapping length must be n")
        images = [j for j in mapping if j]
        if any(not (0 <= j <= n) for j in mapping) or len(set(images)) != len(images):
            raise ValueError(f"not a partial injection on 1..{n}: {mapping}")
        self.n = n
        self.mapping = mapping

    @classmethod
    def _unchecked(cls, n: int, mapping: tuple) -> "RookElement":
        """Element of a mapping tuple known to be a partial injection on 1..n."""
        rho = object.__new__(cls)
        rho.n = n
        rho.mapping = mapping
        return rho

    @classmethod
    def identity(cls, n: int) -> "RookElement":
        return cls(n, range(1, n + 1))

    @classmethod
    def zero(cls, n: int) -> "RookElement":
        return cls(n, (0,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "RookElement":
        mapping = [0] * n
        for col, row in pairs:
            if not (1 <= col <= n and 1 <= row <= n):
                raise ValueError(f"pair {(col, row)} out of range for n={n}")
            if mapping[col - 1]:
                raise ValueError(f"column {col} repeated")
            mapping[col - 1] = row
        return cls(n, mapping)

    def image(self, i: int) -> int:
        """Image of column i, 0 if undefined."""
        return self.mapping[i - 1]

    def domain(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, j in enumerate(self.mapping) if j)

    def is_diagonal(self) -> bool:
        return all(j in (0, i + 1) for i, j in enumerate(self.mapping))

    def __eq__(self, other):
        if not isinstance(other, RookElement):
            return NotImplemented
        return self.n == other.n and self.mapping == other.mapping

    def __hash__(self):
        return hash((self.n, self.mapping))

    def __lt__(self, other):
        return (self.n, self.mapping) < (other.n, other.mapping)

    def __repr__(self):
        return f"RookElement({self.n}, {list(self.mapping)})"


def rook_mul(a: RookElement, b: RookElement) -> RookElement:
    """Composition a∘b, matching the 0/1 matrix product."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    return RookElement(a.n, tuple(a.mapping[j - 1] if j else 0 for j in b.mapping))


def transposition(l1: int, l2: int, n: int) -> RookElement:
    mapping = list(range(1, n + 1))
    mapping[l1 - 1], mapping[l2 - 1] = mapping[l2 - 1], mapping[l1 - 1]
    return RookElement(n, mapping)


def generator(kind: str, index: int, n: int) -> RookElement:
    """Named monoid elements: s_i, P_j, Q_i and gamma_i.

    Q_i is built from its defining product (2,i-1)(1,i) P_2 (1,i)(2,i-1); the
    diagonal shape with zeros exactly at i-1 and i is asserted by tests.
    """
    if kind == "s":
        if not 1 <= index <= n - 1:
            raise ValueError(f"s_{index} out of range for n={n}")
        return transposition(index, index + 1, n)
    if kind == "P":
        if not 1 <= index <= n:
            raise ValueError(f"P_{index} out of range for n={n}")
        return RookElement(n, tuple(0 if i <= index else i for i in range(1, n + 1)))
    if kind == "Q":
        if not 2 <= index <= n:
            raise ValueError(f"Q_{index} out of range for n={n}")
        a = transposition(2, index - 1, n) if index - 1 >= 1 else RookElement.identity(n)
        b = transposition(1, index, n)
        p2 = generator("P", 2, n)
        return rook_mul(rook_mul(rook_mul(rook_mul(a, b), p2), b), a)
    if kind == "gamma":
        if not 1 <= index <= n:
            raise ValueError(f"gamma_{index} out of range for n={n}")
        return RookElement(n, tuple(0 if i == index else i for i in range(1, n + 1)))
    raise ValueError(f"unknown generator kind {kind!r}")


def generators(n: int) -> list[RookElement]:
    """s_1, ..., s_{n-1} and P_1, which generate R_n as a monoid."""
    return [generator("s", i, n) for i in range(1, n)] + [generator("P", 1, n)]


def enumerate_rook(n: int) -> list[RookElement]:
    """All of R_n, deterministic order; |R_n| = sum_r C(n,r)^2 r!, 130,922 at
    n = 7, the "R_n enumeration" limit."""
    if n < 1:
        raise ValueError(f"cannot enumerate R_n for n = {n}: need n >= 1")
    check("R_n enumeration", n)
    out = []
    for r in range(n + 1):
        for dom in combinations(range(1, n + 1), r):
            for img in permutations(range(1, n + 1), r):
                mapping = [0] * n
                for c, v in zip(dom, img):
                    mapping[c - 1] = v
                out.append(RookElement(n, tuple(mapping)))
    return out


# --- words in the generators s_i, P_1 ---------------------------------------

SToken = tuple[str, int]


def _perm_to_word(one_line: tuple[int, ...]) -> list[SToken]:
    """Adjacent-transposition word for a permutation, by bubble sorting."""
    w = list(one_line)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                swaps.append(("s", i + 1))
                changed = True
    # sigma * s_{i1} * ... * s_{im} = id, hence sigma = s_{im} ... s_{i1}
    return list(reversed(swaps))


def _gamma_word(i: int) -> list[SToken]:
    # gamma_i = s_{i-1} ... s_1 P_1 s_1 ... s_{i-1}
    down = [("s", j) for j in range(i - 1, 0, -1)]
    up = [("s", j) for j in range(1, i)]
    return down + [("P1", 0)] + up


def factor_to_word(rho: RookElement) -> list[SToken]:
    """A word in {s_i, P_1} evaluating to rho.

    rho = sigma * prod_{i not in dom(rho)} gamma_i, where sigma extends the
    partial map to a permutation by matching unused columns to unused rows in
    increasing order.
    """
    n = rho.n
    dom = set(rho.domain())
    used_rows = set(j for j in rho.mapping if j)
    free_cols = [i for i in range(1, n + 1) if i not in dom]
    free_rows = [j for j in range(1, n + 1) if j not in used_rows]
    mapping = list(rho.mapping)
    for c, r in zip(free_cols, free_rows):
        mapping[c - 1] = r
    word = _perm_to_word(tuple(mapping))
    for i in free_cols:
        word.extend(_gamma_word(i))
    return word


# --- monoid algebra ----------------------------------------------------------


def algebra_mul(a: FormalSum, b: FormalSum) -> FormalSum:
    """Product in the monoid algebra.

    Each pair of terms composes its mapping tuples, as ``rook_mul`` does, and
    the coefficient products are summed per composed tuple in one dict.  A
    composition of partial injections is one, so each element of the result
    is made once, unchecked, from its tuple.  Mixed sizes raise ValueError.
    """
    sizes = {x.n for x, _ in a.terms()} | {y.n for y, _ in b.terms()}
    if len(sizes) > 1:
        raise ValueError("size mismatch")
    right = [(y.mapping, c) for y, c in b.terms()]
    acc = {}
    for x, c1 in a.terms():
        image = (0,) + x.mapping  # image[j] is x(j), 0 at j = 0
        for m, c2 in right:
            key = tuple(map(image.__getitem__, m))
            acc[key] = acc.get(key, 0) + c1 * c2
    n = sizes.pop() if sizes else 0
    return FormalSum._from_dict({RookElement._unchecked(n, m): c for m, c in acc.items() if c})


@cache
def jm_x(i: int, n: int) -> FormalSum:
    """X_1 = 1 - P_1 and X_i = s_{i-1} X_{i-1} s_{i-1}."""
    if not 1 <= i <= n:
        raise ValueError(f"X_{i} out of range for n={n}")
    if i == 1:
        return FormalSum(
            [(RookElement.identity(n), Fraction(1)), (generator("P", 1, n), Fraction(-1))]
        )
    s = FormalSum.term(generator("s", i - 1, n))
    return algebra_mul(algebra_mul(s, jm_x(i - 1, n)), s)


@cache
def jm_x_tilde(i: int, n: int) -> FormalSum:
    """The content-reading family: X~_1 = 0 and

    X~_i = s_{i-1} X~_{i-1} s_{i-1} + s_{i-1} - s_{i-1} gamma_{i-1}
           - gamma_{i-1} s_{i-1} + Q_i.
    """
    if not 1 <= i <= n:
        raise ValueError(f"X~_{i} out of range for n={n}")
    if i == 1:
        return FormalSum.zero()
    s = FormalSum.term(generator("s", i - 1, n))
    g = FormalSum.term(generator("gamma", i - 1, n))
    q = FormalSum.term(generator("Q", i, n))
    return (
        algebra_mul(algebra_mul(s, jm_x_tilde(i - 1, n)), s)
        + s
        - algebra_mul(s, g)
        - algebra_mul(g, s)
        + q
    )


def kappa(n: int) -> FormalSum:
    """Sum of the X_i; central in the monoid algebra."""
    out = FormalSum.zero()
    for i in range(1, n + 1):
        out = out + jm_x(i, n)
    return out


def kappa_tilde(n: int) -> FormalSum:
    """Sum of the X~_i; central in the monoid algebra."""
    out = FormalSum.zero()
    for i in range(1, n + 1):
        out = out + jm_x_tilde(i, n)
    return out
