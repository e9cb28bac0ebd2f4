"""Exact actions on tensor powers of the defining representation.

The space with parameters (n, k) has basis indexed by tuples in {1..n}^k; the
half variant pins a hidden extra slot to the last basis vector and is acted on
by size-(k+1) half diagrams and by rook elements of size n-1.

Diagrams act on the right, rook elements on the left.  Diagram matrices are
stored row-convention (row = input index), which makes the diagram map
multiplicative; rook matrices are column-convention.  Since the rook
generators are symmetric matrices, the two actions commute as plain matrix
products.

Every action is built one way: a basis element gives the (row, col) cells
where its 0/1 matrix has a 1 (one per assignment of letters to the blocks of a
diagram, one per basis tuple a rook element keeps), and each term's
coefficient, made exact once, is added at its cells.  The cells are found by
index arithmetic alone: a word's index is its letters minus one read in base
n, first letter most significant, which is the order of ``TensorSpace.basis``.
So a rook element's cells are the k-fold tensor power of the cells of its
n x n matrix, and a letter x given to a diagram block adds x times the
block's place values, the sums of n^(k-j) over its top vertices j and over
its bottom vertices j'.

The totally propagating algebras also act on each letter-set block alone
(``LetterBlock``, ``phi_block``): the same cells grown on r letters, kept when
they use all r, never listing the n^k words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .combinat import stirling2
from .diagram import (
    AlgebraElement,
    PartitionDiagram,
    enumerate_monoid,
    generating_set,
    is_half,
    is_totally_propagating,
)
from .formal import FormalSum
from .limits import check
from .linalg import ExactMatrix, _exact, commutant_dimension
from .rook import RookElement, generator
from .scalars import XiPoly


class TensorSpace:
    """Basis bookkeeping for the k-fold tensor power of an n-dim space, whose
    dimension n^k is bounded by the "tensor space" limit."""

    def __init__(self, n: int, k: int, half: bool = False):
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        if half and n < 2:
            raise ValueError("a half space needs n >= 2")
        check("tensor space", n**k)
        self.n = n
        self.k = k
        self.half = half
        self.basis = list(product(range(1, n + 1), repeat=k))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def diagram_size(self) -> int:
        return self.k + 1 if self.half else self.k

    @property
    def rook_n(self) -> int:
        """Size of the rook elements acting here: a half space fixes its last
        basis vector, leaving n-1 letters."""
        return self.n - 1 if self.half else self.n

    def __repr__(self):
        tag = "+1/2" if self.half else ""
        return f"TensorSpace(n={self.n}, k={self.k}{tag})"


def _check_diagram(d: PartitionDiagram, space: TensorSpace):
    if d.size != space.diagram_size():
        raise ValueError(f"diagram size {d.size} does not fit {space!r}")
    if space.half and not is_half(d):
        raise ValueError("half space needs diagrams joining the last column")


def _place_values(block, place: list) -> tuple[int, int]:
    """What a letter one higher adds to the (row, col) indices through a
    block: the place values of its top vertices and of its bottom vertices,
    ``place[j]`` being n^(k-j) for the k visible places and 0 for a hidden
    one."""
    top = bottom = 0
    for v in block:
        if v > 0:
            top += place[v]
        else:
            bottom += place[-v]
    return top, bottom


def _grown_cells(d: PartitionDiagram, letters: int, k: int, half: bool, injective: bool) -> list:
    """(row, col, used) cells of a diagram action on the words of k places
    over ``letters`` letters, indexed in base ``letters``: one per assignment
    of letters to blocks, every assignment for the diagram basis, the
    injective ones for the orbit basis, of which there are none when the
    blocks outnumber the letters.  The cells grow block by block, a letter x
    (counted from 0) adding x times the block's place values; ``used`` is
    the mask of the letters given so far, which the injective walk skips.
    On a half space the block holding the hidden slot is pinned to the last
    letter, so it starts every cell and is taken in the starting mask.  The
    cells come in the lexicographic order of the assignments in block
    order."""
    blocks = d.blocks
    if injective and len(blocks) > letters:
        return []
    place = [0] + [letters ** (k - j) for j in range(1, k + 1)] + [0]
    cells = [(0, 0, 0)]
    if half:
        pinned = next(b for b in blocks if k + 1 in b)
        blocks = [b for b in blocks if b is not pinned]
        top, bottom = _place_values(pinned, place)
        last = letters - 1
        cells = [(last * top, last * bottom, 1 << last)]
    for block in blocks:
        top, bottom = _place_values(block, place)
        cells = [
            (r + x * top, c + x * bottom, used | 1 << x)
            for r, c, used in cells
            for x in range(letters)
            if not (injective and used >> x & 1)
        ]
    return cells


def _diagram_cells(d: PartitionDiagram, space: TensorSpace, injective: bool) -> list:
    """(row, col) cells of a diagram action on the whole tensor space, whose
    word indices are the words read in base n (``_grown_cells``)."""
    _check_diagram(d, space)
    return [(r, c) for r, c, _ in _grown_cells(d, space.n, space.k, space.half, injective)]


def _crossing_words(d: PartitionDiagram, n: int, k: int, half: bool, injective: bool):
    """Two words, on the letters 1..n, at which the action of d has an entry
    joining different letter sets, or None when it has none.  Only a block
    that misses a row can cross: the first such block takes the letter 1 and
    the others the letters from 2 up (orbit basis) or the letter n (diagram
    basis), so that the letter 1 is in one word only."""
    blocks = d.blocks
    if is_totally_propagating(d) or (injective and len(blocks) > n) or (not injective and n == 1):
        return None
    lone = next(b for b in blocks if not b[0] > 0 > b[-1])
    pinned = [b for b in blocks if half and k + 1 in b]
    others = [b for b in blocks if b is not lone and b not in pinned]
    letter = {v: 1 for v in lone}
    for i, b in enumerate(others):
        letter.update((v, i + 2 if injective else n) for v in b)
    for b in pinned:
        letter.update((v, n) for v in b)
    return tuple(letter[j] for j in range(1, k + 1)), tuple(letter[-j] for j in range(1, k + 1))


def letter_block_dim(k: int, r: int, half: bool = False) -> int:
    """The number of words of k places whose letter set is [r], r! S(k, r),
    or on a half space (r-1)! S(k+1, r): the dimension of ``LetterBlock``."""
    return factorial(r - 1) * stirling2(k + 1, r) if half else factorial(r) * stirling2(k, r)


class LetterBlock:
    """The words of the tensor space (C^n)^{(x)k} whose letter set is [r] =
    {1..r}, or on a half space [r-1] with the hidden slot's letter n: the
    block V_[r].

    A diagram of I_k, or of I_{k+1/2}, has no one-row block, so its action
    sends each word only to words with the same letters (with n added on a
    half space); the tensor space is the direct sum of the blocks V_S over
    the letter sets S, each kept by the algebra.  Renaming letters commutes
    with the action, whose entries depend only on letter-equality patterns,
    so V_S is a copy of V_[r] when |S| = r.  ``copies`` counts those letter
    sets, C(n, r), or C(n-1, r-1) on a half space, and ``dim`` is the
    number of words, r! S(k, r), or (r-1)! S(k+1, r); neither listing nor
    elimination on a block depends on n.  The words are listed on the
    letters 0..r-1 (the letter n read as r-1), in lexicographic order, and
    xi coefficients still evaluate at the true n."""

    def __init__(self, n: int, k: int, r: int, half: bool = False):
        if not 1 <= r <= min(n, k + half):
            raise ValueError(f"no letter-set block of {r} letters in (C^{n})^(x){k}")
        self.n, self.k, self.r, self.half = n, k, r, half
        self.copies = comb(n - 1, r - 1) if half else comb(n, r)
        full = self._full = (1 << r) - 1
        # the words on r letters are the diagonal cells of the identity
        identity = PartitionDiagram.identity(k + half, half)
        words = [w for w, _, used in _grown_cells(identity, r, k, half, injective=False) if used == full]
        self._index = {w: i for i, w in enumerate(words)}
        self.dim = len(words)

    def diagram_size(self) -> int:
        return self.k + 1 if self.half else self.k

    def _cells(self, d: PartitionDiagram, injective: bool) -> list:
        """(row, col) cells of a diagram action on the block: the cells of
        ``_grown_cells`` on r letters that use every letter.  A diagram whose
        action has an entry joining two letter sets raises RuntimeError
        naming it and the two words."""
        _check_diagram(d, self)
        crossing = _crossing_words(d, self.n, self.k, self.half, injective)
        if crossing is not None:
            raise RuntimeError(f"{d} has a one-row block: its entry at the words {crossing[0]} and {crossing[1]} joins two letter sets")
        if injective and len(d.blocks) != self.r:
            return []  # an injective cell uses one letter per block
        index, full = self._index, self._full
        return [(index[r], index[c]) for r, c, used in _grown_cells(d, self.r, self.k, self.half, injective) if used == full]

    def __repr__(self):
        tag = "+1/2" if self.half else ""
        return f"LetterBlock(n={self.n}, k={self.k}{tag}, r={self.r})"


def _rook_cells(rho: RookElement, space: TensorSpace) -> list:
    """(row, col) cells of the diagonal action of a rook element: the k-fold
    tensor power of the cells (rho(i)-1, i-1) of its n x n matrix, with the
    cell (n-1, n-1) of the fixed letter n added on a half space."""
    if rho.n != space.rook_n:
        raise ValueError(f"{space!r} needs rook elements of size {space.rook_n}")
    n = space.n
    ones = [(j - 1, i) for i, j in enumerate(rho.mapping) if j]
    if space.half:
        ones.append((n - 1, n - 1))
    cells = [(0, 0)]
    for _ in range(space.k):
        cells = [(r * n + a, c * n + b) for r, c in cells for a, b in ones]
    return cells


def _action(n: int, dim: int, terms) -> ExactMatrix:
    """The dim x dim matrix of the sum of c * E over (c, cells) terms, E
    having a 1 at each cell, on words of n letters; an XiPoly coefficient is
    evaluated at n.  Each term's coefficient is made exact once and added at
    its cells, which the cell builders keep inside the matrix; nothing here
    checks them again."""
    rows = [{} for _ in range(dim)]
    fractional = False
    for coeff, cells in terms:
        if not cells:
            continue
        if isinstance(coeff, XiPoly):
            coeff = coeff.subs(n)
        coeff = _exact(coeff)
        fractional |= type(coeff) is Fraction
        for i, j in cells:
            row = rows[i]
            row[j] = row.get(j, 0) + coeff
    if fractional:
        return ExactMatrix._from_rows(dim, ({j: _exact(v) for j, v in row.items() if v} for row in rows))
    return ExactMatrix._from_rows(dim, ({j: v for j, v in row.items() if v} for row in rows))


def phi_diagram(d: PartitionDiagram, space: TensorSpace) -> ExactMatrix:
    """Right action of a diagram-basis element (row convention)."""
    return _action(space.n, space.dim, [(1, _diagram_cells(d, space, injective=False))])


def phi_element(a: AlgebraElement, space: TensorSpace) -> ExactMatrix:
    """Linear extension of the diagram action; xi coefficients evaluate at n."""
    injective = a.basis == "orbit"
    return _action(space.n, space.dim, ((c, _diagram_cells(d, space, injective)) for d, c in a.sum.terms()))


def phi_block(a: AlgebraElement, block: LetterBlock) -> ExactMatrix:
    """The action of an element of I_k (or I_{k+1/2}) on one letter-set
    block, on its listed words; xi coefficients evaluate at the true n."""
    injective = a.basis == "orbit"
    return _action(block.n, block.dim, ((c, block._cells(d, injective)) for d, c in a.sum.terms()))


def psi_rook(rho: RookElement, space: TensorSpace) -> ExactMatrix:
    """Diagonal left action of a rook element (column convention).

    On a half space, rho must have size n-1 and is embedded fixing the last
    basis vector.
    """
    return _action(space.n, space.dim, [(1, _rook_cells(rho, space))])


def psi_element(x: FormalSum, space: TensorSpace) -> ExactMatrix:
    return _action(space.n, space.dim, ((c, _rook_cells(rho, space)) for rho, c in x.terms()))


def _phi_orbits(space: TensorSpace):
    """The unknown of each entry (a, b), row by row, in the diagram commutant:
    its orbit under S_k permuting the k positions of both words, the
    multiset of letter pairs."""
    for a in space.basis:
        for b in space.basis:
            yield tuple(sorted(zip(a, b)))


def _orbit_unknowns(space: TensorSpace, names, expected: int) -> list:
    """The unknowns of every entry of a dim x dim matrix, row by row, as
    ints; there must be as many as the closed form ``expected`` counts, and a
    mismatch raises RuntimeError naming the space."""
    ids = {}
    unknowns = [ids.setdefault(name, len(ids)) for name in names]
    if len(ids) != expected:
        raise RuntimeError(f"{space!r}: {len(ids)} phi orbital unknowns, the closed form counts {expected}")
    return unknowns


def _rook_counts(space: TensorSpace) -> tuple[int, int]:
    """(rook image, rook commutant) dimensions, counted on the premise that
    psi acts letter by letter (n kept apart on a half space).  It is checked
    always, on two generators of R_n: psi(P_1) must be the diagonal D with
    D_a = 1 exactly when a avoids the letter 1, and psi(s_1) must swap the
    letters 1 and 2 of each word; a mismatch raises RuntimeError naming the
    space, the generator and the word.

    Image (Solomon, J. Algebra 256, 2002): psi(rho) is the sum of E_sigma
    over the restrictions sigma of rho, E_sigma sending each word whose
    letter set is dom sigma to its image.  This change of basis is
    unitriangular and the E_sigma have disjoint supports, so there is one
    dimension per sigma whose domain is some word's letter set.  Commutant:
    the matrices constant on the letter-equality patterns of a b that
    commute with D.  Entry (a, b) of M D - D M is M_ab (D_b - D_a), so a
    pattern is left when each letter class but n meets both words: r!
    S(k, r)^2 for r <= n, or r! S(k+1, r+1)^2 for r <= n - 1 on a half
    space, where the class of n holds the hidden place of both words."""
    n, k, rook_n = space.n, space.k, space.rook_n
    p1 = psi_rook(generator("P", 1, rook_n), space)
    for a, word in enumerate(space.basis):
        if p1._rows[a] != ({} if 1 in word else {a: 1}):
            raise RuntimeError(f"{space!r}: psi(P_1) is not the diagonal of the words without the letter 1, at {word}")
    if rook_n >= 2:
        s1 = psi_rook(generator("s", 1, rook_n), space)
        index = {word: a for a, word in enumerate(space.basis)}
        for a, word in enumerate(space.basis):
            swapped = tuple(3 - x if x <= 2 else x for x in word)
            if s1._rows[index[swapped]] != {a: 1}:
                raise RuntimeError(f"{space!r}: psi(s_1) does not send {word} to {swapped}")
    if space.half:
        image = sum(comb(rook_n, r) ** 2 * factorial(r) for r in range(min(rook_n, k) + 1))
        return image, sum(factorial(r) * stirling2(k + 1, r + 1) ** 2 for r in range(n))
    image = sum(comb(n, r) ** 2 * factorial(r) for r in range(1, min(n, k) + 1))
    return image, sum(factorial(r) * stirling2(k, r) ** 2 for r in range(n + 1))


def schur_weyl_report(n: int, k: int, half: bool = False) -> dict:
    """Kernel, image and commutant bookkeeping for the two commuting actions.

    Checks that (a) the kernel of the diagram action, over the orbit basis, is
    spanned by the orbit elements with more than n blocks, (b) the image
    dimension equals the commutant dimension of the rook action, and (c)
    symmetrically, the rook image equals the commutant of the diagram action.

    A matrix commutes with the action of a monoid as soon as it commutes with
    a generating set, and it commutes with a permutation action exactly when
    it is a combination of orbital matrices, one per orbit on pairs of basis
    words (Halverson-Ram 2005; Benkart-Halverson 2019).  (b) R_n is generated
    by S_n and P_1, and psi(P_1) is diagonal, so the rook commutant is a
    count; (c) so is the rook image, in Solomon's basis of restrictions
    (both in ``_rook_counts``, whose premise is checked).  The diagram
    commutant is solved in orbital unknowns
    (``linalg.commutant_dimension``): the S_k-orbits on position pairs, the
    multisets of k letter pairs, whose number is checked against
    C(n^2+k-1, k) (a mismatch raises RuntimeError naming the space), imposing
    only the non-permutation diagrams of ``diagram.generating_set`` (e and
    f, or e_k, f_{k-1} and its transpose; I_1 has none, and its commutant is
    every orbital).

    The orbit vectors of distinct diagrams have disjoint supports, since
    each entry (a, b) has one letter-equality pattern, so the diagram image
    has the dimension of the number of diagrams with any injective cell; an
    always-on check that no cell is met twice backs this, and raises
    RuntimeError naming the diagram whose vector meets an earlier one.  The
    monoid and its generators come from one cached listing, and the sizes
    are bounded by the "tensor space" and "I_k enumeration" limits, both
    checked before any listing or elimination; R_n is never listed.

    Besides the checked dimensions and ``ok``, the report gives the sizes it
    touched: ``dim`` (of the tensor space), ``diagram_count`` (of the
    monoid), ``rook_elements`` (of R_n, or R_{n-1} on a half space),
    ``phi_generators`` (the non-permutation diagrams imposed) and
    ``phi_unknowns`` (the orbital unknowns of the diagram commutant).
    """
    space = TensorSpace(n, k, half)
    rook_n = space.rook_n
    rook_elements = sum(comb(rook_n, r) ** 2 * factorial(r) for r in range(rook_n + 1))
    kind = "I_half" if half else "I"
    diagrams = enumerate_monoid(kind, k)

    expected_kernel = sum(1 for d in diagrams if d.n_blocks() > n)
    owner = {}
    image_dim = 0
    for d in diagrams:
        before = len(owner)
        for cell in _diagram_cells(d, space, injective=True):
            if owner.setdefault(cell, d) is not d:
                raise RuntimeError(f"{space!r}: the orbit vector of {d} meets that of {owner[cell]} at cell {cell}")
        image_dim += len(owner) > before
    kernel_dim = len(diagrams) - image_dim
    psi_image_dim, commutant_dim = _rook_counts(space)

    phi_count = comb(n * n + k - 1, k)
    phi_unknowns = _orbit_unknowns(space, _phi_orbits(space), phi_count)
    phi_gens = [phi_diagram(d, space) for d in generating_set(kind, k) if d.n_blocks() < d.size]
    phi_commutant_dim = commutant_dimension(phi_gens, phi_unknowns)

    ok = (
        kernel_dim == expected_kernel
        and image_dim == commutant_dim
        and psi_image_dim == phi_commutant_dim
    )
    return {
        "n": n,
        "k": k,
        "half": half,
        "kernel_dim": kernel_dim,
        "expected_kernel_dim": expected_kernel,
        "image_dim": image_dim,
        "commutant_dim": commutant_dim,
        "psi_image_dim": psi_image_dim,
        "phi_commutant_dim": phi_commutant_dim,
        "ok": ok,
        "dim": space.dim,
        "diagram_count": len(diagrams),
        "rook_elements": rook_elements,
        "phi_generators": len(phi_gens),
        "phi_unknowns": phi_count,
    }
