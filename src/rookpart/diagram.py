"""Partition diagrams and the diagram/orbit bases of their algebras.

Vertices of a size-k diagram are encoded as +1..+k (top row) and -1..-k
(bottom row).  A diagram at a half level k+1/2 is stored as a size-(k+1)
diagram with ``half=True``; its last top and bottom vertices must share a
block.  All diagrams are kept in a canonical form, so they are hashable and
comparable.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from .combinat import canonical_set_partition, set_partitions
from .formal import FormalSum
from .scalars import XI, XiPoly, falling_factorial

_GUARD_A = 6
_GUARD_I = 5


def _enum_cap(default: int) -> int:
    cap = os.environ.get("ROOKPART_ENUM_CAP")
    return min(default, int(cap)) if cap else default


def _vertex_key(v: int) -> tuple[int, int]:
    # top vertices before bottom ones, each row in increasing position
    return (0 if v > 0 else 1, abs(v))


class PartitionDiagram:
    """Set partition of {1..k, -1..-k} in canonical block order."""

    __slots__ = ("size", "half", "blocks")

    def __init__(self, size: int, blocks, half: bool = False):
        if size < 1:
            raise ValueError("size must be positive")
        canon = tuple(
            sorted(
                (tuple(sorted(set(b), key=_vertex_key)) for b in blocks),
                key=lambda b: _vertex_key(b[0]),
            )
        )
        vertices = [v for b in canon for v in b]
        expected = set(range(1, size + 1)) | set(range(-size, 0))
        if len(vertices) != 2 * size or set(vertices) != expected:
            raise ValueError(f"blocks must partition the {2 * size} vertices")
        if half and not _joins_last_column(canon, size):
            raise ValueError(f"half diagram must join {size} and {size}'")
        self.size = size
        self.half = half
        self.blocks = canon

    @classmethod
    def identity(cls, size: int, half: bool = False) -> "PartitionDiagram":
        return cls(size, [(i, -i) for i in range(1, size + 1)], half)

    @property
    def level(self) -> Fraction:
        return Fraction(self.size) - (Fraction(1, 2) if self.half else 0)

    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, v: int) -> tuple[int, ...]:
        for b in self.blocks:
            if v in b:
                return b
        raise KeyError(v)

    def top_partition(self) -> tuple:
        """Restriction to the top row, as a set partition of {1..k}."""
        parts = [tuple(v for v in b if v > 0) for b in self.blocks]
        return canonical_set_partition([p for p in parts if p])

    def bottom_partition(self) -> tuple:
        """Restriction to the bottom row, unprimed."""
        parts = [tuple(-v for v in b if v < 0) for b in self.blocks]
        return canonical_set_partition([p for p in parts if p])

    def flip(self) -> "PartitionDiagram":
        """Swap top and bottom rows."""
        return PartitionDiagram(self.size, [tuple(-v for v in b) for b in self.blocks], self.half)

    def with_half(self, half: bool) -> "PartitionDiagram":
        return PartitionDiagram(self.size, self.blocks, half)

    def __eq__(self, other):
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return (self.size, self.half, self.blocks) == (other.size, other.half, other.blocks)

    def __hash__(self):
        return hash((self.size, self.half, self.blocks))

    def __lt__(self, other):
        return (self.size, self.half, self.blocks) < (other.size, other.half, other.blocks)

    def __str__(self):
        return json.dumps([list(b) for b in self.blocks], separators=(",", ":"))

    def __repr__(self):
        tag = ", half" if self.half else ""
        return f"PartitionDiagram({self.size}{tag}: {self})"

    @classmethod
    def parse(cls, text: str, size: int | None = None, half: bool = False) -> "PartitionDiagram":
        blocks = json.loads(text)
        if size is None:
            size = max(abs(v) for b in blocks for v in b)
        return cls(size, [tuple(b) for b in blocks], half)


def _joins_last_column(blocks, size: int) -> bool:
    return any(size in b and -size in b for b in blocks)


def is_totally_propagating(d: PartitionDiagram) -> bool:
    """Every block meets both the top and the bottom row."""
    return all(any(v > 0 for v in b) and any(v < 0 for v in b) for b in d.blocks)


def is_half(d: PartitionDiagram) -> bool:
    """Last top and bottom vertices share a block (membership in the half monoid)."""
    return _joins_last_column(d.blocks, d.size)


def compose(d1: PartitionDiagram, d2: PartitionDiagram) -> tuple[PartitionDiagram, int]:
    """Concatenation d1 over d2; returns (diagram, number of internal components).

    The middle row identifies the bottom of d1 with the top of d2; components
    living entirely in the middle row are dropped and counted.
    """
    if d1.size != d2.size or d1.half != d2.half:
        raise ValueError("size mismatch")
    k = d1.size
    # vertex ids: 0..k-1 top, k..2k-1 middle, 2k..3k-1 bottom
    parent = list(range(3 * k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def top_id(v):
        return v - 1 if v > 0 else k + (-v - 1)

    def bot_id(v):
        return k + (v - 1) if v > 0 else 2 * k + (-v - 1)

    for b in d1.blocks:
        first = top_id(b[0])
        for v in b[1:]:
            union(first, top_id(v))
    for b in d2.blocks:
        first = bot_id(b[0])
        for v in b[1:]:
            union(first, bot_id(v))

    comps: dict[int, list[int]] = {}
    for x in range(3 * k):
        comps.setdefault(find(x), []).append(x)

    blocks = []
    internal = 0
    for members in comps.values():
        outer = [m for m in members if m < k or m >= 2 * k]
        if not outer:
            internal += 1
            continue
        blocks.append(tuple(m + 1 if m < k else -(m - 2 * k + 1) for m in outer))
    return PartitionDiagram(k, blocks, d1.half), internal


def is_coarser(d1: PartitionDiagram, d2: PartitionDiagram) -> bool:
    """True iff every block of d2 is contained in a block of d1."""
    if d1.size != d2.size:
        raise ValueError("size mismatch")
    owner = {}
    for idx, b in enumerate(d1.blocks):
        for v in b:
            owner[v] = idx
    return all(len({owner[v] for v in b}) == 1 for b in d2.blocks)


@cache
def coarsenings(d: PartitionDiagram) -> tuple[PartitionDiagram, ...]:
    """All diagrams coarser than d (d itself included), by merging blocks."""
    b = len(d.blocks)
    out = []
    for grouping in set_partitions(b):
        merged = [
            tuple(v for idx in group for v in d.blocks[idx - 1]) for group in grouping
        ]
        out.append(PartitionDiagram(d.size, merged, d.half))
    return tuple(sorted(set(out)))


class AlgebraElement:
    """Element of a diagram algebra, in the diagram or the orbit basis.

    Coefficients may be Fractions or XiPolys; elements of the totally
    propagating algebras stay rational.
    """

    __slots__ = ("size", "half", "basis", "sum")

    def __init__(self, size: int, basis: str, terms, half: bool = False):
        if basis not in ("diagram", "orbit"):
            raise ValueError(f"unknown basis {basis!r}")
        s = terms if isinstance(terms, FormalSum) else FormalSum(terms)
        for key in s.keys():
            if key.size != size or key.half != half:
                raise ValueError("all keys must live at the same level")
        self.size = size
        self.half = half
        self.basis = basis
        self.sum = s

    @property
    def level(self) -> Fraction:
        return Fraction(self.size) - (Fraction(1, 2) if self.half else 0)

    @classmethod
    def from_diagram(cls, d: PartitionDiagram, coeff=Fraction(1), basis: str = "diagram"):
        return cls(d.size, basis, FormalSum.term(d, coeff), d.half)

    @classmethod
    def zero(cls, size: int, basis: str, half: bool = False):
        return cls(size, basis, FormalSum.zero(), half)

    @classmethod
    def one(cls, size: int, basis: str = "diagram", half: bool = False):
        ident = cls.from_diagram(PartitionDiagram.identity(size, half))
        return to_orbit(ident) if basis == "orbit" else ident

    def _like(self, s: FormalSum) -> "AlgebraElement":
        return AlgebraElement(self.size, self.basis, s, self.half)

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self.sum + other.sum)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self.sum - other.sum)

    def __neg__(self):
        return self._like(-self.sum)

    def scaled(self, c):
        return self._like(self.sum.scaled(c))

    def __rmul__(self, c):
        return self.scaled(c)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.basis == "diagram":
            return diagram_product(self, other)
        return orbit_product_general(self, other)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.size == other.size
            and self.half == other.half
            and self.basis == other.basis
            and self.sum == other.sum
        )

    def __bool__(self):
        return bool(self.sum)

    def _check_compatible(self, other):
        if (
            self.size != other.size
            or self.half != other.half
            or self.basis != other.basis
        ):
            raise ValueError("elements live in different algebras/bases")

    def __repr__(self):
        return f"AlgebraElement({self.basis}, level={self.level}, {self.sum!r})"


def diagram_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of d1 * d2 = xi^l (d1 ∘ d2)."""
    if a.basis != "diagram" or b.basis != "diagram":
        raise ValueError("diagram_product needs diagram-basis elements")
    a._check_compatible(b)

    def pair(d1, d2):
        d, loops = compose(d1, d2)
        return FormalSum.term(d, _xi_power(loops))

    return a._like(a.sum.bilinear(b.sum, pair))


def _xi_power(l: int):
    if l == 0:
        return Fraction(1)
    return XiPoly([0] * l + [1])


@cache
def _orbit_in_diagram_basis(d: PartitionDiagram) -> FormalSum:
    """The orbit element x_d written in the diagram basis.

    Inverts d = sum over coarser d' of x_{d'} by recursion over the
    coarsening upset of d.
    """
    out = FormalSum.term(d, Fraction(1))
    for c in coarsenings(d):
        if c != d:
            out = out - _orbit_in_diagram_basis(c)
    return out


def from_orbit(a: AlgebraElement) -> AlgebraElement:
    """Rewrite an orbit-basis element in the diagram basis."""
    if a.basis != "orbit":
        raise ValueError("from_orbit needs an orbit-basis element")
    return AlgebraElement(a.size, "diagram", a.sum.map_terms(_orbit_in_diagram_basis), a.half)


def to_orbit(a: AlgebraElement) -> AlgebraElement:
    """Rewrite a diagram-basis element in the orbit basis.

    Uses d = sum over the coarsening upset of d of the orbit elements, so only
    the support's coarsenings are ever touched.
    """
    if a.basis != "diagram":
        raise ValueError("to_orbit needs a diagram-basis element")

    def expand(d):
        return FormalSum([(c, Fraction(1)) for c in coarsenings(d)])

    return AlgebraElement(a.size, "orbit", a.sum.map_terms(expand), a.half)


def rows_match(d1: PartitionDiagram, d2: PartitionDiagram) -> bool:
    """Bottom row of d1 induces the same set partition as the top row of d2."""
    return d1.bottom_partition() == d2.top_partition()


def _orbit_pair_product(d1: PartitionDiagram, d2: PartitionDiagram) -> FormalSum:
    """Orbit-basis structure constants.

    Zero unless the middle rows match; otherwise a sum over the coarsenings of
    d1 ∘ d2 obtained by matching top-row-only blocks of d1 with
    bottom-row-only blocks of d2, with falling-factorial coefficients.
    """
    if not rows_match(d1, d2):
        return FormalSum.zero()
    comp, internal = compose(d1, d2)
    top_only = [b for b in d1.blocks if all(v > 0 for v in b)]
    bottom_only = [b for b in d2.blocks if all(v < 0 for v in b)]
    out = []
    for m in range(min(len(top_only), len(bottom_only)) + 1):
        for tops in combinations(range(len(top_only)), m):
            for bots in permutations(range(len(bottom_only)), m):
                glue = {top_only[t]: bottom_only[b] for t, b in zip(tops, bots)}
                blocks = []
                used_bottoms = set(glue.values())
                for b in comp.blocks:
                    if b in glue:
                        blocks.append(b + glue[b])
                    elif b not in used_bottoms:
                        blocks.append(b)
                d = PartitionDiagram(comp.size, blocks, comp.half)
                coeff = falling_factorial(XI - d.n_blocks(), internal)
                out.append((d, coeff))
    return FormalSum(out)


def orbit_product_general(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the orbit basis with symbolic xi coefficients."""
    if a.basis != "orbit" or b.basis != "orbit":
        raise ValueError("orbit product needs orbit-basis elements")
    a._check_compatible(b)
    return a._like(a.sum.bilinear(b.sum, _orbit_pair_product))


def orbit_product_tppa(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Orbit product inside a totally propagating algebra: x_{d1} x_{d2} is
    x_{d1∘d2} when the middle rows match and 0 otherwise; coefficients stay
    rational."""
    if a.basis != "orbit" or b.basis != "orbit":
        raise ValueError("orbit product needs orbit-basis elements")
    a._check_compatible(b)
    for key in list(a.sum.keys()) + list(b.sum.keys()):
        if not is_totally_propagating(key):
            raise ValueError(f"not totally propagating: {key}")

    def pair(d1, d2):
        if not rows_match(d1, d2):
            return FormalSum.zero()
        comp, internal = compose(d1, d2)
        if internal:
            raise RuntimeError(f"composing {d1} with {d2} leaves {internal} internal blocks")
        return FormalSum.term(comp, Fraction(1))

    return a._like(a.sum.bilinear(b.sum, pair))


def embed_half(a: AlgebraElement) -> AlgebraElement:
    """Orbit-basis embedding of the propagating algebra at k into level k+1/2:
    each orbit key gains the block {k+1, (k+1)'}."""
    if a.basis != "orbit":
        raise ValueError("embed_half needs an orbit-basis element")
    if a.half:
        raise ValueError("element already lives at a half level")
    k = a.size
    for key in a.sum.keys():
        if not is_totally_propagating(key):
            raise ValueError(f"not totally propagating: {key}")

    def lift(d):
        return PartitionDiagram(k + 1, d.blocks + ((k + 1, -(k + 1)),), half=True)

    return AlgebraElement(k + 1, "orbit", a.sum.map_keys(lift), half=True)


# --- monoid enumeration -------------------------------------------------------


def enumerate_monoid(kind: str, k: int) -> list[PartitionDiagram]:
    """Complete enumeration of A_k, I_k or I_{k+1/2} (kind "A", "I", "I_half").

    For "I_half" the argument k is the integer below the half level, so the
    diagrams have size k+1 and carry the half flag.
    """
    if kind == "A":
        if k < 1 or k > _enum_cap(_GUARD_A):
            raise ValueError(f"A_{k} enumeration out of guarded range")
        verts = list(range(1, k + 1)) + list(range(-1, -k - 1, -1))
        out = []
        for part in set_partitions(2 * k):
            blocks = [tuple(verts[i - 1] for i in b) for b in part]
            out.append(PartitionDiagram(k, blocks))
        return sorted(set(out))
    if kind == "I":
        if k < 1 or k > _enum_cap(_GUARD_I):
            raise ValueError(f"I_{k} enumeration out of guarded range")
        return _enumerate_propagating(k, half=False)
    if kind == "I_half":
        if k < 1 or k + 1 > _enum_cap(_GUARD_I):
            raise ValueError(f"I_{k}+1/2 enumeration out of guarded range")
        full = _enumerate_propagating(k + 1, half=False)
        return sorted(d.with_half(True) for d in full if is_half(d))
    raise ValueError(f"unknown monoid kind {kind!r}")


def _enumerate_propagating(k: int, half: bool) -> list[PartitionDiagram]:
    out = []
    tops = set_partitions(k)
    for top in tops:
        r = len(top)
        for bottom in set_partitions(k):
            if len(bottom) != r:
                continue
            for matching in permutations(range(r)):
                blocks = [
                    top[i] + tuple(-v for v in bottom[matching[i]]) for i in range(r)
                ]
                out.append(PartitionDiagram(k, blocks, half))
    return sorted(set(out))


# --- diagrams attached to set partitions ---------------------------------------


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
    return full.with_half(True)
