"""Partition diagrams and the diagram/orbit bases of their algebras.

Vertices of a size-k diagram are encoded as +1..+k (top row) and -1..-k
(bottom row).  A diagram at a half level k+1/2 is stored as a size-(k+1)
diagram with ``half=True``; its last top and bottom vertices must share a
block.  All diagrams are kept in a canonical form, so they are hashable and
comparable.  Each diagram reads its two row partitions once and keeps them.

Each diagram also keeps its blocks as bitmasks over its 2k vertices: top
vertex v is bit 2k-v and bottom vertex -v is bit k-v, so the top row holds
bits k..2k-1 and the bottom row bits 0..k-1, and the canonical vertex order
(1..k, then -1..-k) is descending bit order.  Disjoint masks compare like
their highest bits, so the canonical block order is descending numeric
order.  A per-size table turns a mask back into its block, filled on demand
(at most 4^k entries for size k).

Products do only the work whose result they keep:

- An orbit-basis product x_{d1} x_{d2} vanishes unless the bottom row of d1
  and the top row of d2 induce the same set partition (the middle rows
  match), so the orbit product indexes the right factor's terms by top row
  and pairs each left term only with the terms its bottom row matches.  In
  such a pair each block of d1 with a bottom part meets exactly one block
  of d2, the one whose top part it is, so d1 ∘ d2 is read off by a lookup
  on those parts, with no search for components.
- ``compose`` works on 3k-bit masks: d1's masks shifted up by k put its
  bottom row on the middle bits k..2k-1, where d2's top row already sits.
  Each mask of d2 absorbs the components it meets; the components with no
  top or bottom bits are the loops.
- ``diagram_product`` sums coefficient products per (result, loop count)
  and adds each such sum at its power of xi once.  Up to size 3 it reads
  each pair's result from a per-size product table, built whole on first use
  and kept for the process: A_k is listed as a generator tree, the
  breadth-first closure of the identity under right multiplication by s_i,
  p_1 and b_1, so only the diagram-times-generator cells are composed (812
  at size 3), and every other column is gathered whole from a column
  already filled, through one list per generator and loop count.
  One int cell per pair holds the result's id times k+1 plus its loop count,
  Bell(2k)^2 cells in all (41,209 at size 3, 165 KB).  The sums stay on
  those ints: each cell is split once, and each result term is the table's
  own diagram for its id, one list per half flag made on first use.  Past
  size 3 a table would need Bell(8)^2, about 17M cells, and pairs repeat
  less, so each pair is composed as it comes.
- ``to_orbit`` and ``from_orbit`` add each coefficient (times the Möbius
  value, for the latter) over one cached table of a diagram's coarsenings,
  built by adding its masks one at a time, each into a new group or OR-ed
  into one; they never read the product table.  An element of one diagram
  sums nothing: its coarsenings are distinct, so the result's entries are
  the table's, each times the coefficient.  The orbit product adds c1*c2
  times cached int rows of its falling-factorial structure constants.

Inside a product or a change of basis, every coefficient is summed in one
form: per result key (its block-mask tuple, or its product-table id), a list
of coefficients by power of xi, kept as ints while integral (an XiPoly
coefficient contributes one entry per power).  The result keeps these sums
as its entries, one per nonzero coefficient of a power of xi, each with its
diagram, reused from the coarsening or product table where it has one.  The
next product or change of basis reads them as they are, and the result
builds its public sum, one Fraction or one XiPoly per term, only the first
time ``sum`` is read; the sum then takes the entries' place.  A term's type
follows from its value alone: it is an XiPoly exactly when a nonzero
coefficient of a positive power of xi survives, and a Fraction otherwise,
whatever Fractions, XiPolys, loops or structure constants contributed to it;
sums carry Fraction or XiPoly coefficients, never ints.  Zero sums are
dropped as the entries are made, so the result skips the public
constructors' checks.  An element that holds only its sum, as one built
through the public constructor does, has it read into entries once, by the
first product, change of basis or comparison that reads it.  Two elements
are compared on their entries, so ``==`` builds no sum either.

``generating_set`` names generators of I_k and I_{k+1/2} (5 of the 339
diagrams of I_4), and their closure is the one listing of the monoid, made
once per process and read by ``enumerate_monoid`` as well: a breadth-first
closure on block-mask tuples, where e and f are composed on masks and each
s_i swaps two bottom bits, with one diagram built per element.  Two checks,
always on, prove it is the monoid without listing it a second way: every
element is totally propagating (with k+1 and (k+1)' joined at a half level),
and there are as many as the closed form counts, sum over r of S(k,r)^2 r!
for I_k and of S(k+1,r)^2 (r-1)! for I_{k+1/2}.
"""

from __future__ import annotations

import json
from array import array
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, repeat
from math import factorial
from operator import itemgetter

from .combinat import bell, set_partitions, stirling2
from .formal import FormalSum
from .limits import check
from .scalars import XI, XiPoly, falling_factorial


class _BlockTable(dict):
    """Mask -> block (its vertices in canonical order) for one size, filled on
    demand, so it holds at most 4^size entries; ``bits`` maps each vertex to
    its bit: 2k-v for top vertex v, k-v for bottom vertex -v."""

    __slots__ = ("size", "bits")

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self.bits = {v: 2 * size - v if v > 0 else size + v for v in range(-size, size + 1) if v}

    def __missing__(self, mask: int) -> tuple[int, ...]:
        """The mask's set bits, from the highest down, as vertices."""
        k = self.size
        vertices = []
        rest = mask
        while rest:
            b = rest.bit_length() - 1
            vertices.append(2 * k - b if b >= k else b - k)
            rest ^= 1 << b
        block = self[mask] = tuple(vertices)
        return block


@cache
def _block_table(size: int) -> _BlockTable:
    return _BlockTable(size)


class PartitionDiagram:
    """Set partition of {1..k, -1..-k} in canonical block order."""

    __slots__ = ("size", "half", "blocks", "_masks", "_rows", "_hash")

    def __init__(self, size: int, blocks, half: bool = False):
        if size < 1:
            raise ValueError("size must be positive")
        blocks = [tuple(b) for b in blocks]
        for i, b in enumerate(blocks):
            if not b:
                raise ValueError(f"block {i + 1} of the diagram is empty")
        vertices = [v for b in blocks for v in b]
        # the length test comes first, so a far vertex builds no table of its size
        if len(vertices) != 2 * size or set(vertices) != _block_table(size).bits.keys():
            owner = {}
            for b in blocks:
                if len(set(b)) != len(b):
                    raise ValueError(f"block {list(b)} repeats a vertex")
                for v in b:
                    if v in owner:
                        raise ValueError(f"vertex {v} is in blocks {list(owner[v])} and {list(b)}")
                    owner[v] = b
            raise ValueError(f"blocks must partition the {2 * size} vertices")
        masks = _vertex_masks(size, blocks)
        if half and not _joins_last_column(masks, size):
            raise ValueError(f"half diagram must join {size} and {size}'")
        self._set(size, masks, half)

    def _set(self, size: int, masks: tuple, half: bool) -> None:
        table = _block_table(size)
        self.size = size
        self.half = half
        self.blocks = tuple([table[m] for m in masks])
        self._masks = masks
        self._rows = None
        self._hash = None

    @classmethod
    def _from_masks(cls, size: int, masks: tuple, half: bool) -> "PartitionDiagram":
        """Diagram from disjoint block masks in descending order, without checks."""
        d = object.__new__(cls)
        d._set(size, masks, half)
        return d

    @classmethod
    def identity(cls, size: int, half: bool = False) -> "PartitionDiagram":
        return cls(size, [(i, -i) for i in range(1, size + 1)], half)

    def n_blocks(self) -> int:
        return len(self.blocks)

    def _row_partitions(self) -> tuple:
        # canonical block order puts the top parts in canonical order already;
        # the bottom parts need one sort by their first element
        if self._rows is None:
            top = (tuple(v for v in b if v > 0) for b in self.blocks)
            bottom = (tuple(-v for v in b if v < 0) for b in self.blocks)
            self._rows = (tuple(p for p in top if p), tuple(sorted(p for p in bottom if p)))
        return self._rows

    def top_partition(self) -> tuple:
        """Restriction to the top row, as a set partition of {1..k}."""
        return self._row_partitions()[0]

    def bottom_partition(self) -> tuple:
        """Restriction to the bottom row, unprimed."""
        return self._row_partitions()[1]

    def __eq__(self, other):
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return self._masks == other._masks and self.half == other.half and self.size == other.size

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, self.half, self.blocks))
        return self._hash

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
        if not blocks:
            raise ValueError("the diagram is empty")
        if size is None:
            # with no vertex at all, size 1 lets the constructor name the first empty block
            size = max((abs(v) for b in blocks for v in b), default=1)
        return cls(size, [tuple(b) for b in blocks], half)


def _vertex_masks(size: int, blocks) -> tuple:
    """The masks of blocks given as vertex lists, in canonical order, unchecked."""
    bits = _block_table(size).bits
    return tuple(sorted((sum(1 << bits[v] for v in b) for b in blocks), reverse=True))


def _slot_lifts(masks: tuple, size: int) -> list:
    """The masks of the orbit-basis terms that the unital tower lift of one
    orbit element x_d from size k to the half level k+1/2 gives: every vertex
    keeps its name, so top bits move up by 2 and bottom bits by 1, and the
    block c = {k+1, (k+1)'} is added as a new block, then OR-ed into each
    block in turn."""
    low = (1 << size) - 1
    moved = tuple([(m >> size) << (size + 2) | (m & low) << 1 for m in masks])
    c = 1 << (size + 1) | 1
    out = [tuple(sorted(moved + (c,), reverse=True))]
    for i, m in enumerate(moved):
        out.append(tuple(sorted(_joined(moved, i, m | c), reverse=True)))
    return out


def _propagates(masks, size: int, half: bool) -> bool:
    """Every block meets both rows, and at a half level one joins k+1 and (k+1)'."""
    low = (1 << size) - 1
    meets = all(map(low.__and__, masks)) and all(map((low << size).__and__, masks))
    return meets and (not half or _joins_last_column(masks, size))


def _joins_last_column(masks, size: int) -> bool:
    # top vertex k is bit k, bottom vertex -k is bit 0
    both = 1 << size | 1
    return both in map(both.__and__, masks)


def is_totally_propagating(d: PartitionDiagram) -> bool:
    """Every block meets both the top and the bottom row."""
    # a canonical block lists its top vertices first
    return all(b[0] > 0 > b[-1] for b in d.blocks)


def is_half(d: PartitionDiagram) -> bool:
    """Last top and bottom vertices share a block (membership in the half monoid)."""
    return _joins_last_column(d._masks, d.size)


def _compose_masks(k: int, left, right: tuple) -> tuple[tuple, int]:
    """Masks of d1 ∘ d2 in canonical order and its loop count, from d1's masks
    shifted up by k (``left``) and d2's masks (``right``)."""
    low = (1 << k) - 1
    high = low << k
    comps = list(left)
    for m in right:
        if m > low:  # a top bit of d2: the block meets the middle row
            rest = []
            for c in comps:
                if c & m:
                    m |= c
                else:
                    rest.append(c)
            rest.append(m)
            comps = rest
        else:
            comps.append(m)
    out = []
    loops = 0
    for c in comps:
        outer = c >> k & high | c & low
        if outer:
            out.append(outer)
        else:
            loops += 1
    out.sort(reverse=True)
    return tuple(out), loops


def compose(d1: PartitionDiagram, d2: PartitionDiagram) -> tuple[PartitionDiagram, int]:
    """Concatenation d1 over d2; returns (diagram, number of internal components).

    The middle row identifies the bottom of d1 with the top of d2.  On 3k
    bits, d1's masks shifted up by k hold its top row on bits 2k..3k-1 and
    its bottom row on the middle bits k..2k-1, where d2's top row sits
    unshifted above its bottom row on bits 0..k-1.  Each mask of d2 with a
    middle bit absorbs every component it overlaps.  A component with no top
    or bottom bit lives in the middle row only: it is dropped and counted.
    The others, with the middle bits stripped and the top bits shifted back
    down by k, are the result's masks, sorted descending into canonical order.
    """
    if d1.size != d2.size or d1.half != d2.half:
        kind = ["half diagram" if d.half else "diagram" for d in (d1, d2)]
        raise ValueError(f"cannot compose a size-{d1.size} {kind[0]} with a size-{d2.size} {kind[1]}")
    k = d1.size
    masks, loops = _compose_masks(k, (m << k for m in d1._masks), d2._masks)
    return PartitionDiagram._from_masks(k, masks, d1.half), loops


@cache
def _upset(d: PartitionDiagram) -> tuple[tuple[PartitionDiagram, int], ...]:
    """The coarsenings d' of d (d included), sorted, with the Möbius values
    mu(d, d'): products of (-1)^(m-1) (m-1)! over the groups of m merged
    blocks (Stanley, EC I, section 3.10).  There are Bell(blocks) of them, so
    the block count is checked first, on a cache miss.

    d's masks join the groups one at a time, in canonical order: each starts
    a new group or is OR-ed into one of the groups so far.  Joining a group
    of s blocks multiplies mu by -s, which builds (-1)^(m-1) (m-1)! one join
    at a time.  A group keeps the highest bit of its first mask, so the
    groups stay in descending, canonical order."""
    masks = d._masks
    check("coarsenings", len(masks))
    *first, last = masks
    # (group masks, their block counts, mu) for each grouping of the masks so far
    states = [((), (), 1)]
    for m in first:
        grown = []
        for groups, sizes, mu in states:
            grown.append((groups + (m,), sizes + (1,), mu))
            for i, s in enumerate(sizes):
                grown.append((_joined(groups, i, groups[i] | m), _joined(sizes, i, s + 1), -s * mu))
        states = grown
    # the last mask's groupings become diagrams at once, with no state kept
    size, half, make = d.size, d.half, PartitionDiagram._from_masks
    out = []
    for groups, sizes, mu in states:
        out.append((make(size, groups + (last,), half), mu))
        for i, s in enumerate(sizes):
            out.append((make(size, _joined(groups, i, groups[i] | last), half), -s * mu))
    return tuple(sorted(out, key=lambda e: e[0].blocks))


def _joined(t: tuple, i: int, x) -> tuple:
    """t with its entry i replaced by x."""
    return t[:i] + (x,) + t[i + 1 :]


class AlgebraElement:
    """Element of a diagram algebra, in the diagram or the orbit basis.

    Coefficients may be Fractions or XiPolys.  A product or a change of
    basis gives a term an XiPoly exactly when xi survives in it, so elements
    of the totally propagating algebras I_k and I_{k+1/2} stay rational.

    An element holds its terms as ``sum``, the public FormalSum, or as the
    entries that products and changes of basis read (see ``_entries``), or
    both.  The public constructor starts from the sum, and the entries are
    read from it, and kept, the first time a product or a change of basis
    needs them.  A product or a change of basis returns an element that
    holds only its entries; the first read of ``sum`` builds the sum from
    them and keeps it in their place, so a result that is read and not
    multiplied again holds one form, as a publicly built one does.
    """

    __slots__ = ("size", "half", "basis", "_sum", "_kept")

    def __init__(self, size: int, basis: str, terms, half: bool = False):
        if basis not in ("diagram", "orbit"):
            raise ValueError(f"unknown basis {basis!r}")
        s = terms if isinstance(terms, FormalSum) else FormalSum(terms)
        for key, _ in s.terms():
            if key.size != size or key.half != half:
                raise ValueError("all keys must live at the same level")
        self._set(size, basis, half, s, None)

    def _set(self, size: int, basis: str, half: bool, s: FormalSum | None, kept: tuple | None) -> None:
        self.size = size
        self.half = half
        self.basis = basis
        self._sum = s
        self._kept = kept

    @classmethod
    def _from_entries(cls, size: int, basis: str, entries: list, degree: int, half: bool) -> "AlgebraElement":
        """Element from entries as ``_entries`` returns them, all at (size,
        half), nonzero and by ascending power for each diagram, without
        checks."""
        a = object.__new__(cls)
        a._set(size, basis, half, None, (entries, degree))
        return a

    @classmethod
    def _from_masks(cls, size: int, basis: str, terms: dict, half: bool) -> "AlgebraElement":
        """Element of ``{masks: coefficient}``, the masks canonical at (size,
        half) and the coefficients nonzero, with one diagram made per term and
        no checks; the coefficients are kept as they are."""
        make = PartitionDiagram._from_masks
        s = FormalSum._from_dict({make(size, m, half): c for m, c in terms.items()})
        a = object.__new__(cls)
        a._set(size, basis, half, s, None)
        return a

    @property
    def sum(self) -> FormalSum:
        """The terms as a FormalSum, built from the entries on first read and
        kept in their place.  A diagram whose one entry is at power 0 gets
        the Fraction of that entry; any other gets the XiPoly of its entries
        by power, with 0 at the powers it lacks.  The diagrams keep their
        entries' order."""
        s = self._sum
        if s is None:
            out = {}
            for d, j, x in self._kept[0]:
                row = out.get(d)
                if row is None:
                    row = out[d] = []
                row.extend(repeat(0, j - len(row)))
                row.append(x)
            for d, row in out.items():
                out[d] = Fraction(row[0]) if len(row) == 1 else XiPoly(row)
            s = self._sum = FormalSum._from_dict(out)
            self._kept = None
        return s

    @property
    def level(self) -> Fraction:
        return Fraction(self.size) - (Fraction(1, 2) if self.half else 0)

    @classmethod
    def from_diagram(cls, d: PartitionDiagram, coeff=Fraction(1), basis: str = "diagram"):
        return cls(d.size, basis, FormalSum.term(d, coeff), d.half)

    @classmethod
    def zero(cls, size: int, basis: str, half: bool = False):
        return cls(size, basis, FormalSum.zero(), half)

    def _like(self, s: FormalSum) -> "AlgebraElement":
        return AlgebraElement(self.size, self.basis, s, self.half)

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self.sum + other.sum)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self.sum - other.sum)

    def __eq__(self, other):
        """Same level and basis, and the same coefficient at every power of
        xi of every diagram.  Both sides are compared on their entries (see
        ``_entries``), so no sum is built; an XiPoly constant and its
        Fraction give the same entry, as they compare equal in a sum."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.size == other.size
            and self.half == other.half
            and self.basis == other.basis
            and _entry_values(self) == _entry_values(other)
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


def _entries(a: AlgebraElement) -> tuple[list, int]:
    """(diagram, j, c) for each nonzero coefficient c of xi^j in a term of
    a, c an int when integral, so that sums stay in ints.  Also the highest
    j.  A product or a change of basis made its result's entries with it;
    when a holds none, its sum is read here once, and the entries are kept
    on a."""
    kept = a._kept
    if kept is None:
        out = []
        degree = 0
        for d, c in a.sum.terms():
            if type(c) is XiPoly:
                degree = max(degree, len(c.coeffs) - 1)
                for j, x in enumerate(c.coeffs):
                    if x:
                        out.append((d, j, x.numerator if x.denominator == 1 else x))
            else:
                out.append((d, 0, c.numerator if c.denominator == 1 else c))
        kept = a._kept = out, degree
    return kept


def _entry_values(a: AlgebraElement) -> dict:
    """{(masks, j): c} over the entries of a."""
    return {(d._masks, j): x for d, j, x in _entries(a)[0]}


class _Coeffs(dict):
    """The coefficients of a result, summed per key: its block-mask tuple,
    or its id in the product table.

    Each value lists the coefficient of xi^0 .. xi^(width-1), kept as ints
    while integral.  ``made`` lists, in key order, a diagram that already
    exists for every key, to be reused; it is empty when the diagrams are to
    be built from mask keys.
    """

    __slots__ = ("width", "made")

    def __init__(self, width: int):
        super().__init__()
        self.width = width
        self.made = []

    def __missing__(self, key) -> list:
        row = self[key] = [0] * self.width
        return row

    def element(self, a: AlgebraElement, basis: str) -> AlgebraElement:
        """The sums as an element at a's level that holds them as its entries
        (see ``_entries``), in key order, each an int where integral; a key
        gives one entry per nonzero power, so it ends as an XiPoly exactly
        when a positive power survives.  Keys whose sums are all zero are
        dropped here and every diagram is made at a's level, so the element
        skips the public constructors' zero filter and level check.  No
        Fraction, XiPoly or FormalSum is built: the element's sum is made
        when it is first read."""
        k, half = a.size, a.half
        entries = []
        degree = 0
        for (key, row), d in zip(self.items(), self.made or repeat(None)):
            if any(row[1:]):
                powers = [(j, x) for j, x in enumerate(row) if x]
                degree = max(degree, powers[-1][0])
            elif row[0]:
                powers = ((0, row[0]),)
            else:
                continue
            d = d or PartitionDiagram._from_masks(k, key, half)
            for j, x in powers:
                if type(x) is not int and x.denominator == 1:
                    x = x.numerator
                entries.append((d, j, x))
        return AlgebraElement._from_entries(k, basis, entries, degree, half)


# a size-4 table could need Bell(8)^2 = 17,139,600 cells
_MAX_TABLED_SIZE = 3


def _named(size: int, half: bool, *blocks) -> PartitionDiagram:
    """The diagram with the given blocks, fixing each place {i, i'} they do not name."""
    rest = set(range(1, size + 1)).difference(abs(v) for b in blocks for v in b)
    return PartitionDiagram(size, [*blocks, *((i, -i) for i in rest)], half)


def _a_generators(k: int) -> list[tuple]:
    """Masks of s_1, ..., s_{k-1}, p_1 = {1},{1'} and b_1 = {1,2,1',2'} (k >= 2),
    which generate the partition monoid A_k up to powers of xi (Halverson and
    Ram, "Partition algebras", European J. Combin. 26, 2005)."""
    gens = [_named(k, False, (i, -i - 1), (i + 1, -i)) for i in range(1, k)]
    gens.append(_named(k, False, (1,), (-1,)))
    if k >= 2:
        gens.append(_named(k, False, (1, 2, -1, -2)))
    return [g._masks for g in gens]


class _ProductTable(dict):
    """The products of all diagrams of one size k, built whole.

    A_k is listed as a generator tree: a breadth-first closure from the
    identity under right multiplication by the generators of
    ``_a_generators``.  Ids are given in the order found, and the table maps
    each block-mask tuple to its id; ``masks`` lists the tuples by id.  Each
    d_j past the identity was first found as d_p ∘ g = xi^l d_j with p < j.
    The cell ``i * cap + j`` of ``cells`` holds ``id(d_i ∘ d_j) * (k+1) +
    loops`` (there are at most k loops); ``cap`` is Bell(2k), the number of
    diagrams of size k, so there are Bell(2k)^2 cells: 41,209 at size 3.

    The closure composes each d_i with each generator, Bell(2k) * |gens|
    compositions (812 at size 3), and no other pair is composed.  By
    associativity, d_i d_j = xi^-l (d_i d_p) g, so the column of d_j is filled
    from the column of its parent d_p and that of g, in id order: cell(i, j)
    = gen_g[c // (k+1)] + c % (k+1) - l with c = cell(i, p).  That value
    depends only on c, g and l, so it is listed once per (g, l) pair the
    tree uses, as ``step[c]`` for each of the Bell(2k) * (k+1) packed cells
    c, and each column is one gather of the parent's cells from that list
    (``operator.itemgetter``), with no Python-level work per cell.  Every
    closure element is a diagram of size k, so the closure is all of A_k
    exactly when it has Bell(2k) elements; this is checked on every build,
    and a shortfall raises RuntimeError naming the size reached.

    ``diagrams(half)`` lists the diagram of each id, made once per half flag,
    so the products read at this size share their result diagrams (and the
    hashes and coarsening tables cached on them).
    """

    __slots__ = ("size", "cap", "masks", "cells", "_made")

    def __init__(self, size: int):
        super().__init__()
        self._made = {}
        k = self.size = size
        width = k + 1
        cap = self.cap = bell(2 * k)
        gens = _a_generators(k)
        one = PartitionDiagram.identity(k)._masks
        self[one] = 0
        self.masks = [one]
        tree = [None]  # (parent id, generator, loops) of each id
        columns = [[] for _ in gens]  # columns[g][i]: the cell of d_i ∘ g
        for i, x in enumerate(self.masks):  # ids found here join the walk
            left = [m << k for m in x]
            for g, (right, column) in enumerate(zip(gens, columns)):
                y, loops = _compose_masks(k, left, right)
                j = self.get(y)
                if j is None:
                    j = self[y] = len(self.masks)
                    self.masks.append(y)
                    tree.append((i, g, loops))
                column.append(j * width + loops)
        if len(self.masks) != cap:
            raise RuntimeError(f"the generators of A_{k} reach {len(self.masks)} diagrams, not Bell({2 * k}) = {cap}")
        # one column at a time, in place: no more than the array and one column is held
        cells = self.cells = array("i", [0]) * (cap * cap)
        cells[::cap] = array("i", range(0, cap * width, width))  # d_i ∘ 1 = d_i
        steps = {}  # (g, l) -> the new cell for each packed cell c
        for j, (p, g, loops) in enumerate(tree[1:], 1):
            step = steps.get((g, loops))
            if step is None:
                step = steps[g, loops] = [c + r - loops for c in columns[g] for r in range(width)]
            cells[j::cap] = array("i", itemgetter(*cells[p::cap])(step))

    def diagrams(self, half: bool) -> list[PartitionDiagram]:
        """The diagram of each id, with the half flag given, built the first
        time that flag is asked for and kept with the table."""
        made = self._made.get(half)
        if made is None:
            made = self._made[half] = [PartitionDiagram._from_masks(self.size, m, half) for m in self.masks]
        return made


@cache
def _product_table(size: int) -> _ProductTable:
    return _ProductTable(size)


def _sums_from_table(table: _ProductTable, entries_a: list, right: dict) -> dict:
    """Coefficient products of the pairs summed per packed cell of the table,
    one dict from cell to sum per power of xi; the cells are returned as
    they are, each the result's id times k+1 plus its loops."""
    cells, cap = table.cells, table.cap
    right = {key: [(table[masks2], c2) for masks2, c2 in pairs] for key, pairs in right.items()}
    grouped = {}
    for d1, j1, c1 in entries_a:
        base = table[d1._masks] * cap
        for j2, pairs in right.items():
            group = grouped.setdefault(j1 + j2, {})
            for id2, c2 in pairs:
                cell = cells[base + id2]
                group[cell] = group.get(cell, 0) + c1 * c2
    return grouped


def _sums_by_composing(k: int, entries_a: list, right: dict) -> dict:
    """As ``_sums_from_table``, composing every pair as it comes: each group
    maps (masks of d1 ∘ d2, loops) to its sum."""
    grouped = {}
    for d1, j1, c1 in entries_a:
        left = tuple(m << k for m in d1._masks)
        for j2, pairs in right.items():
            group = grouped.setdefault(j1 + j2, {})
            for masks2, c2 in pairs:
                key = _compose_masks(k, left, masks2)
                group[key] = group.get(key, 0) + c1 * c2
    return grouped


def diagram_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of d1 * d2 = xi^l (d1 ∘ d2).

    The coefficient products are summed as ints per (d1 ∘ d2, l), one such
    group per power of xi the two coefficients contribute.  Each group's sum
    is added at the power l plus that contribution once.  Up to size 3 each
    term's masks are looked up as an int id once, and the pair loop reads
    d1 ∘ d2 and l, packed in one int, from the product table of that size,
    built whole from a generator tree on first use and kept for the process
    (see ``_ProductTable``).  Each packed cell is split once, the sums are
    kept per result id, and each result term is the table's own diagram for
    its id, so no diagram is built per product.  Past size 3 every pair is
    composed, and each distinct result diagram is built once from its masks.
    """
    if a.basis != "diagram" or b.basis != "diagram":
        raise ValueError("diagram_product needs diagram-basis elements")
    a._check_compatible(b)
    k, width = a.size, a.size + 1
    (entries_a, degree_a), (entries_b, degree_b) = _entries(a), _entries(b)
    # b's coefficients sliced by power of xi, so the pair loop only multiplies
    right = {}
    for d2, j2, c2 in entries_b:
        right.setdefault(j2, []).append((d2._masks, c2))
    table = _product_table(k) if k <= _MAX_TABLED_SIZE else None
    sums = _sums_by_composing(k, entries_a, right) if table is None else _sums_from_table(table, entries_a, right)
    # at most k loops, each holding a vertex of the middle row
    acc = _Coeffs(degree_a + degree_b + width)
    for j, group in sums.items():
        for key, c in group.items():
            # a table cell packs the result's id and its loop count
            key, loops = key if table is None else divmod(key, width)
            acc[key][j + loops] += c
    if table is not None:
        made = table.diagrams(a.half)
        acc.made = [made[i] for i in acc]
    return acc.element(a, "diagram")


def _over_upset(a: AlgebraElement, basis: str, mobius: bool) -> AlgebraElement:
    """Each term of a spread over its upset, times the Möbius value or 1; the
    upset's diagrams are the result's.

    When every entry of a has one diagram d, the coarsenings of d are
    distinct and mu is never 0, so nothing is summed: at each coarsening c
    of the cached upset of d, in its order, each entry (d, j, x) of a gives
    the entry (c, j, mu x) or (c, j, x), an int wherever it is integral.
    Two or more diagrams are summed per coarsening in a ``_Coeffs``."""
    entries, degree = _entries(a)
    if entries and all(e[0] is entries[0][0] for e in entries):
        powers = [(j, x) for _, j, x in entries]
        out = [(c, j, mu * x if mobius else x) for c, mu in _upset(entries[0][0]) for j, x in powers]
        if mobius and any(type(x) is not int for _, x in powers):
            # mu times a Fraction can be integral
            out = [(c, j, y.numerator if y.denominator == 1 else y) for c, j, y in out]
        return AlgebraElement._from_entries(a.size, basis, out, degree, a.half)
    acc = _Coeffs(degree + 1)
    width, made = acc.width, acc.made
    for d, j, x in entries:
        for c, mu in _upset(d):
            masks = c._masks
            row = acc.get(masks)
            if row is None:
                row = acc[masks] = [0] * width
                made.append(c)
            row[j] += mu * x if mobius else x
    return acc.element(a, basis)


def from_orbit(a: AlgebraElement) -> AlgebraElement:
    """Rewrite an orbit-basis element in the diagram basis by Möbius
    inversion: x_d = sum of mu(d, d') d' over the coarsenings d' of d.

    Each coefficient times mu is added as ints per power of xi over the
    cached upset table of its diagram, whose diagrams the result reuses.
    """
    if a.basis != "orbit":
        raise ValueError("from_orbit needs an orbit-basis element")
    return _over_upset(a, "diagram", mobius=True)


def to_orbit(a: AlgebraElement) -> AlgebraElement:
    """Rewrite a diagram-basis element in the orbit basis.

    Uses d = sum of x_{d'} over the upset table of d: every coarsening of a
    support diagram gets that diagram's coefficient added, as ints per power
    of xi, and nothing outside the support's coarsenings is touched.  The
    result reuses the table's diagrams.
    """
    if a.basis != "diagram":
        raise ValueError("to_orbit needs a diagram-basis element")
    return _over_upset(a, "orbit", mobius=False)


@cache
def _falling_row(blocks: int, internal: int) -> tuple:
    """Coefficients of (xi - blocks)_internal by power of xi, as ints."""
    return tuple(int(c) for c in falling_factorial(XI - blocks, internal).coeffs)


def _orbit_pair_product(d1: PartitionDiagram, d2: PartitionDiagram) -> list:
    """Orbit-basis structure constants of two diagrams whose middle rows match.

    A sum, as (masks, coefficients by power of xi) terms with distinct masks,
    over the coarsenings of d1 ∘ d2 obtained by matching top-row-only blocks
    of d1 with bottom-row-only blocks of d2, with falling-factorial
    coefficients.

    As the middle rows match, a block m of d1 with bottom part b = m & low
    meets one block m2 of d2, the one whose top part m2 >> k is b, and only
    that one: d2's blocks are indexed by top part, and the joined block is
    m's top part with m2's bottom part, (m & high) | (m2 & low), or an
    internal block when that is 0.  d1's top-only and d2's bottom-only blocks
    pass through, and one descending sort gives d1 ∘ d2 in canonical order.
    A bottom part with no partner means the rows do not match, and raises
    ValueError naming both diagrams.
    """
    k = d1.size
    low = (1 << k) - 1
    high = low << k
    # d2's blocks by their top part, moved down onto the bottom row's bits
    by_top = {m2 >> k: m2 for m2 in d2._masks if m2 > low}
    top_only = []
    joined = []
    internal = 0
    for m in d1._masks:
        b = m & low
        if not b:
            top_only.append(m)
            continue
        m2 = by_top.get(b)
        if m2 is None:
            part = [-v for v in _block_table(k)[b]]
            raise ValueError(
                f"the middle rows of {d1} and {d2} do not match: "
                f"the bottom part {part} of the first is no top part of the second"
            )
        outer = m & high | m2 & low
        if outer:
            joined.append(outer)
        else:
            internal += 1
    # blocks of one row only pass through composition unchanged
    bottom_only = [m for m in d2._masks if m <= low]
    comp = tuple(sorted(joined + top_only + bottom_only, reverse=True))
    out = [(comp, _falling_row(len(comp), internal))]  # d1 ∘ d2, no one-row blocks joined
    for n in range(1, min(len(top_only), len(bottom_only)) + 1):
        row = _falling_row(len(comp) - n, internal)
        for tops in combinations(top_only, n):
            for bots in permutations(bottom_only, n):
                masks = [m for m in comp if m not in tops and m not in bots]
                masks.extend(t | b for t, b in zip(tops, bots))
                masks.sort(reverse=True)
                out.append((tuple(masks), row))
    return out


def orbit_product_general(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the orbit basis with symbolic xi coefficients.

    Only entry pairs whose middle rows match are formed, b's entries being
    indexed by top row.  Each adds c1*c2 times the cached int rows of its
    falling-factorial structure constants, shifted by the powers of xi of c1
    and c2.  Totally propagating diagrams have no one-row block and compose
    with no internal block, so their one structure constant is x_{d1∘d2}
    times 1, and their products stay rational.
    """
    if a.basis != "orbit" or b.basis != "orbit":
        raise ValueError("orbit product needs orbit-basis elements")
    a._check_compatible(b)
    (entries_a, degree_a), (entries_b, degree_b) = _entries(a), _entries(b)
    by_top: dict[tuple, list] = {}
    for d2, j2, c2 in entries_b:
        by_top.setdefault(d2.top_partition(), []).append((d2, j2, c2))
    # structure constants have degree at most k, the most internal blocks
    acc = _Coeffs(degree_a + degree_b + a.size + 1)
    for d1, j1, c1 in entries_a:
        for d2, j2, c2 in by_top.get(d1.bottom_partition(), ()):
            scale = c1 * c2
            for masks, row in _orbit_pair_product(d1, d2):
                out = acc[masks]
                for i, f in enumerate(row, j1 + j2):
                    out[i] += scale * f
    return acc.element(a, "orbit")


# --- monoid enumeration -------------------------------------------------------


def enumerate_monoid(kind: str, k: int) -> list[PartitionDiagram]:
    """Complete enumeration of A_k, I_k or I_{k+1/2} (kind "A", "I", "I_half").

    For "I_half" the argument k is the integer below the half level, so the
    diagrams have size k+1 and carry the half flag.  I_k and I_{k+1/2} are
    a fresh copy of the one cached listing that ``generating_set`` also
    reads: the closure of the named generators, checked by membership and by
    its closed-form size.
    """
    if kind in ("I", "I_half"):
        return list(_listing(kind, k)[0])
    if k < 1:
        raise ValueError(f"cannot enumerate a monoid of kind {kind!r} at k = {k}: need k >= 1")
    if kind == "A":
        check("A_k enumeration", k)
        verts = list(range(1, k + 1)) + list(range(-1, -k - 1, -1))
        out = []
        for part in set_partitions(2 * k):
            blocks = [tuple(verts[i - 1] for i in b) for b in part]
            out.append(PartitionDiagram(k, blocks))
        return sorted(set(out))
    raise ValueError(f"unknown monoid kind {kind!r}")


def generating_set(kind: str, k: int) -> tuple[PartitionDiagram, ...]:
    """Named generators of I_k (kind "I") or I_{k+1/2} (kind "I_half"), each
    fixing the places {i, i'} it does not name, and left out if it names a
    place outside 1..size: for I_k, e = {1,2,1',2'}, f = {1,2,1'} ∪ {3,2',3'}
    and s_1, ..., s_{k-1} (I_1 has its identity); for I_{k+1/2}, of size k+1,
    e_k = {k,k+1,k',(k+1)'}, f_{k-1} = {k-1,k,(k-1)'} ∪ {k+1,k',(k+1)'}, its
    transpose and s_1, ..., s_{k-1}.  Their closure from the identity is the
    monoid's listing (``enumerate_monoid``), made once per process and
    checked on every miss: each element is in the monoid, and there are as
    many as the closed form counts; a failure raises RuntimeError naming the
    first diagram outside the monoid or missing from the closure.
    """
    if kind not in ("I", "I_half"):
        raise ValueError(f"no named generators for monoid kind {kind!r}")
    return _listing(kind, k)[1]


def _listing(kind: str, k: int) -> tuple[tuple[PartitionDiagram, ...], tuple[PartitionDiagram, ...]]:
    """The sorted monoid and its generators.  The size checks run here, in
    front of the cached ``_closure_listing``, so a refused size never calls
    it."""
    if k < 1:
        raise ValueError(f"cannot enumerate a monoid of kind {kind!r} at k = {k}: need k >= 1")
    check("I_k enumeration", k + 1 if kind == "I_half" else k)
    return _closure_listing(kind, k)


def _swap_bottom(masks: tuple, p: int) -> tuple:
    """Masks of d ∘ s_i from d's masks, p = size-i-1: s_i moves d's bottom
    vertices -i and -(i+1), bits p+1 and p, to each other's place.  Every
    block of d must meet the top row, as in I_k and I_{k+1/2}: each mask then
    keeps its highest bit, and with it the descending order, unsorted."""
    both = 3 << p
    return tuple([m ^ ((m >> p ^ m >> p + 1) & 1) * both for m in masks])


def _closed_form_size(kind: str, k: int) -> int:
    """|I_k| = sum over r of S(k,r)^2 r! (top and bottom partitions into r
    blocks, matched by a bijection); |I_{k+1/2}| = sum of S(k+1,r)^2 (r-1)!,
    the block of k+1 and (k+1)' being matched already."""
    if kind == "I":
        return sum(stirling2(k, r) ** 2 * factorial(r) for r in range(1, k + 1))
    return sum(stirling2(k + 1, r) ** 2 * factorial(r - 1) for r in range(1, k + 2))


@cache
def _closure_listing(kind: str, k: int) -> tuple[tuple[PartitionDiagram, ...], tuple[PartitionDiagram, ...]]:
    """Breadth-first closure of the named generators from the identity, on
    block-mask tuples, under right multiplication.  e and f (e_k, f_{k-1}
    and its transpose) are composed with ``_compose_masks``; s_i only moves
    the bottom vertex -i to -(i+1) and back, a swap of bottom bits size-i and
    size-i-1.  Each element becomes one diagram, sorted once.  The closure
    lies in the monoid if every element passes the membership test, and is
    then the whole monoid if its size is the closed form's.  A size that
    differs names the first element whose masks are not in descending order,
    which an excess must have (one diagram reached in two block orders), or
    else lists the monoid again, to name the first diagram missing."""
    size, half = (k + 1, True) if kind == "I_half" else (k, False)

    # e and f (e_k, f_{k-1}, f_{k-1}ᵀ), the generators that are not permutations, come first
    if half:
        f = [(k - 1, k, 1 - k), (k + 1, -k, -k - 1)]
        named_blocks = [[(k, k + 1, -k, -k - 1)], f, [tuple(-v for v in b) for b in f]]
    else:
        named_blocks = [[(1, 2, -1, -2)], [(1, 2, -1), (3, -2, -3)]]
    composed = [_named(size, half, *b) for b in named_blocks if all(0 < abs(v) <= size for c in b for v in c)]
    swapped = [_named(size, half, (i, -i - 1), (i + 1, -i)) for i in range(1, k)]
    one = _named(size, half)
    right = [g._masks for g in composed]
    shifts = [size - i - 1 for i in range(1, k)]
    seen = {one._masks}
    todo = [one._masks]
    while todo:
        new = []
        for x in todo:
            left = [m << size for m in x]
            products = [_compose_masks(size, left, g)[0] for g in right]
            products += [_swap_bottom(x, p) for p in shifts]
            for y in products:
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        todo = new
    monoid = sorted((PartitionDiagram._from_masks(size, m, half) for m in seen), key=lambda d: d.blocks)
    outside = [d for d in monoid if not is_totally_propagating(d) or (half and not is_half(d))]
    if outside:
        raise RuntimeError(f"generators of {kind} at {k} give the diagram {outside[0]} outside it")
    # inside the monoid, the closure is all of it exactly when it is as large
    if len(monoid) != _closed_form_size(kind, k):
        unsorted = [d for d in monoid if list(d._masks) != sorted(d._masks, reverse=True)]
        if unsorted:
            raise RuntimeError(
                f"generators of {kind} at {k} give the diagram {unsorted[0]} with its blocks out of order"
            )
        listed = set(monoid)
        missing = next(d for d in _enumerate_propagating(size, half) if d not in listed)
        raise RuntimeError(f"generators of {kind} at {k} miss the diagram {missing}")
    return tuple(monoid), tuple(composed + swapped or [one])


def _enumerate_propagating(k: int, half: bool) -> list[PartitionDiagram]:
    out = []
    for top in set_partitions(k):
        r = len(top)
        last_top = next(i for i, b in enumerate(top) if k in b)
        for bottom in set_partitions(k):
            if len(bottom) != r:
                continue
            last_bottom = next(j for j, b in enumerate(bottom) if k in b)
            for matching in permutations(range(r)):
                if half and matching[last_top] != last_bottom:
                    continue
                blocks = [
                    top[i] + tuple(-v for v in bottom[matching[i]]) for i in range(r)
                ]
                out.append(PartitionDiagram(k, blocks, half))
    return sorted(set(out))

