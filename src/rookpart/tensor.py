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
diagram, one per basis tuple a rook element keeps), each cell is paired with
its term's coefficient, and ``ExactMatrix.from_entries`` adds up the pairs.
The cells are found by index arithmetic alone: a word's index is its letters
minus one read in base n, first letter most significant, which is the order
of ``TensorSpace.basis``.  So a rook element's cells are the k-fold tensor
power of the cells of its n x n matrix, and a letter x given to a diagram
block adds x times the block's place values, the sums of n^(k-j) over its
top vertices j and over its bottom vertices j'.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .combinat import stirling2
from .diagram import AlgebraElement, PartitionDiagram, enumerate_monoid, generating_set, is_half
from .formal import FormalSum
from .limits import check
from .linalg import ExactMatrix, commutant_dimension, sparse_rank_of_vectors
from .rook import RookElement, enumerate_rook, generator
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


def _diagram_cells(d: PartitionDiagram, space: TensorSpace, injective: bool) -> list:
    """(row, col) cells of a diagram action, one per assignment of letters to
    blocks: every assignment for the diagram basis, the injective ones for the
    orbit basis, of which there are none when the blocks outnumber the
    letters.  The cells grow block by block, a letter x (counted from 0)
    adding x times the block's place values; each cell carries the mask of
    the letters used so far, which the injective walk skips.  On a half space
    the block holding the hidden slot is pinned to the letter n, so it starts
    every cell and is taken in the starting mask.  The cells come in the
    lexicographic order of the assignments in block order."""
    _check_diagram(d, space)
    n, k = space.n, space.k
    blocks = d.blocks
    if injective and len(blocks) > n:
        return []
    place = [0] + [n ** (k - j) for j in range(1, k + 1)] + [0]
    cells = [(0, 0, 0)]
    if space.half:
        pinned = next(b for b in blocks if k + 1 in b)
        blocks = [b for b in blocks if b is not pinned]
        top, bottom = _place_values(pinned, place)
        cells = [((n - 1) * top, (n - 1) * bottom, 1 << (n - 1))]
    for block in blocks:
        top, bottom = _place_values(block, place)
        if injective:
            cells = [
                (r + x * top, c + x * bottom, used | 1 << x)
                for r, c, used in cells
                for x in range(n)
                if not used >> x & 1
            ]
        else:
            cells = [(r + x * top, c + x * bottom, used) for r, c, used in cells for x in range(n)]
    return [(r, c) for r, c, _ in cells]


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


def _action(space: TensorSpace, terms) -> ExactMatrix:
    """Matrix of the sum of c * E over (c, cells) terms, E having a 1 at each
    cell; an XiPoly coefficient is evaluated at n."""
    pairs = []
    for coeff, cells in terms:
        if isinstance(coeff, XiPoly):
            coeff = coeff.subs(space.n)
        pairs += [(cell, coeff) for cell in cells]
    return ExactMatrix.from_entries(space.dim, space.dim, pairs)


def phi_diagram(d: PartitionDiagram, space: TensorSpace) -> ExactMatrix:
    """Right action of a diagram-basis element (row convention)."""
    return _action(space, [(1, _diagram_cells(d, space, injective=False))])


def phi_element(a: AlgebraElement, space: TensorSpace) -> ExactMatrix:
    """Linear extension of the diagram action; xi coefficients evaluate at n."""
    injective = a.basis == "orbit"
    return _action(space, ((c, _diagram_cells(d, space, injective)) for d, c in a.sum.terms()))


def psi_rook(rho: RookElement, space: TensorSpace) -> ExactMatrix:
    """Diagonal left action of a rook element (column convention).

    On a half space, rho must have size n-1 and is embedded fixing the last
    basis vector.
    """
    return _action(space, [(1, _rook_cells(rho, space))])


def psi_element(x: FormalSum, space: TensorSpace) -> ExactMatrix:
    return _action(space, ((c, _rook_cells(rho, space)) for rho, c in x.terms()))


def _phi_orbits(space: TensorSpace):
    """The unknown of each entry (a, b), row by row, in the diagram commutant:
    its orbit under S_k permuting the k positions of both words, the
    multiset of letter pairs."""
    for a in space.basis:
        for b in space.basis:
            yield tuple(sorted(zip(a, b)))


def _psi_orbits(space: TensorSpace):
    """The unknown of each entry (a, b), row by row, in the rook commutant:
    its orbit under the letter permutations of S_{rook n}, the
    letter-equality pattern of the word a b, with the letter n apart on a
    half space, where the rook elements fix it."""
    for a in space.basis:
        head_seen = {space.n: 0} if space.half else {}
        head = tuple([head_seen.setdefault(x, len(head_seen)) for x in a])
        for b in space.basis:
            seen = head_seen.copy()
            yield head + tuple([seen.setdefault(x, len(seen)) for x in b])


def _orbit_unknowns(space: TensorSpace, names, expected: int, side: str) -> list:
    """The unknowns of every entry of a dim x dim matrix, row by row, as
    ints; there must be as many as the closed form ``expected`` counts, and a
    mismatch raises RuntimeError naming the space."""
    ids = {}
    unknowns = [ids.setdefault(name, len(ids)) for name in names]
    if len(ids) != expected:
        raise RuntimeError(f"{space!r}: {len(ids)} {side} orbital unknowns, the closed form counts {expected}")
    return unknowns


def _psi_orbit_count(space: TensorSpace) -> int:
    """Letter-equality patterns of 2k letters from n: set partitions of the
    2k places into at most n blocks; on a half space, the j places holding
    the fixed letter n are chosen first and the rest get at most n-1 blocks."""
    places = 2 * space.k
    if not space.half:
        return sum(stirling2(places, r) for r in range(space.n + 1))
    return sum(
        comb(places, j) * sum(stirling2(places - j, r) for r in range(space.n))
        for j in range(places + 1)
    )


def schur_weyl_report(n: int, k: int, half: bool = False) -> dict:
    """Kernel, image and commutant bookkeeping for the two commuting actions.

    Checks that (a) the kernel of the diagram action, over the orbit basis, is
    spanned by the orbit elements with more than n blocks, (b) the image
    dimension equals the commutant dimension of the rook action, and (c)
    symmetrically, the rook image equals the commutant of the diagram action.

    A matrix commutes with the action of a monoid as soon as it commutes with
    a generating set, and it commutes with a permutation action exactly when
    it is a combination of orbital matrices, one per orbit on pairs of basis
    words (Halverson-Ram 2005; Benkart-Halverson 2019).  So each commutant is
    solved in orbital unknowns (``linalg.commutant_dimension``), imposing only
    the generators outside the permutation group:
    (b) the unknowns are the S_{rook n}-orbits on the words a b, their
    letter-equality patterns, and only psi(P_1) is imposed; (c) the unknowns
    are the S_k-orbits on position pairs, the multisets of k letter pairs,
    and only the non-permutation diagrams of ``diagram.generating_set`` are
    imposed (e and f, or e_k, f_{k-1} and its transpose; I_1 has none, and
    its commutant is every orbital).  The number of each kind of unknown is
    checked against its closed form, a sum of Stirling numbers for (b) and
    C(n^2+k-1, k) for (c), and a mismatch raises RuntimeError naming the
    space.

    The orbit vectors of distinct diagrams have disjoint supports, since
    each entry (a, b) has one letter-equality pattern, so the diagram image
    has the dimension of the number of diagrams with any injective cell; an
    always-on check that no cell is met twice backs this, and raises
    RuntimeError naming the diagram whose vector meets an earlier one.  The
    rook image is the rank of the rook elements' vectors.  The monoid and its
    generators come from one cached listing, and the sizes are bounded by
    the "tensor space", "R_n enumeration" and "I_k enumeration" limits, all
    checked before any elimination.

    Besides the checked dimensions and ``ok``, the report gives the sizes it
    touched: ``dim`` (of the tensor space), ``diagram_count`` (of the
    monoid), ``phi_generators`` (the non-permutation diagrams imposed),
    ``phi_unknowns`` and ``psi_unknowns`` (the orbital unknowns of the two
    commutants).
    """
    space = TensorSpace(n, k, half)
    # first, so that an R_n too large to list is refused before any elimination
    rooks = enumerate_rook(space.rook_n)
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

    psi_count = _psi_orbit_count(space)
    psi_unknowns = _orbit_unknowns(space, _psi_orbits(space), psi_count, "psi")
    commutant_dim = commutant_dimension([psi_rook(generator("P", 1, space.rook_n), space)], psi_unknowns)

    psi_image_dim = sparse_rank_of_vectors(
        [{i * space.dim + j: 1 for i, j in _rook_cells(rho, space)} for rho in rooks]
    )
    phi_count = comb(n * n + k - 1, k)
    phi_unknowns = _orbit_unknowns(space, _phi_orbits(space), phi_count, "phi")
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
        "phi_generators": len(phi_gens),
        "phi_unknowns": phi_count,
        "psi_unknowns": psi_count,
    }
