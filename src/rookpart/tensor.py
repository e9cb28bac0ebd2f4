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
"""

from __future__ import annotations

from itertools import permutations, product

from .diagram import AlgebraElement, PartitionDiagram, enumerate_monoid, generating_set, is_half
from .formal import FormalSum
from .limits import check
from .linalg import ExactMatrix, commutant_dimension, sparse_rank_of_vectors
from .rook import RookElement, embed, enumerate_rook, generators
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
        self.index = {t: i for i, t in enumerate(self.basis)}

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


def _diagram_cells(d: PartitionDiagram, space: TensorSpace, injective: bool):
    """(row, col) cells of a diagram action, one per assignment of values to
    blocks: every assignment for the diagram basis, the injective ones for the
    orbit basis.  On a half space the block holding the hidden slot is pinned
    to n."""
    _check_diagram(d, space)
    n, k, index = space.n, space.k, space.index
    pinned = [b for b in d.blocks if k + 1 in b] if space.half else []
    free = [b for b in d.blocks if b not in pinned]
    # slot of each vertex in the value tuple: free blocks first, then the pinned one
    slot = {v: s for s, b in enumerate(free + pinned) for v in b}
    top = [slot[j] for j in range(1, k + 1)]
    bottom = [slot[-j] for j in range(1, k + 1)]
    tail = (n,) if pinned else ()
    if injective:
        choices = permutations(range(1, n if pinned else n + 1), len(free))
    else:
        choices = product(range(1, n + 1), repeat=len(free))
    for values in choices:
        values += tail
        yield index[tuple(values[s] for s in top)], index[tuple(values[s] for s in bottom)]


def _rook_cells(rho: RookElement, space: TensorSpace):
    """(row, col) cells of the diagonal action of a rook element."""
    if rho.n != space.rook_n:
        raise ValueError(f"{space!r} needs rook elements of size {space.rook_n}")
    if space.half:
        rho = embed(rho, space.n)
    for col, tup in enumerate(space.basis):
        images = tuple(rho.image(i) for i in tup)
        if all(images):
            yield space.index[images], col


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


def phi_orbit(d: PartitionDiagram, space: TensorSpace) -> ExactMatrix:
    """Right action of an orbit-basis element: the strict-pattern matrix.

    Zero whenever the diagram has more than n blocks.
    """
    return _action(space, [(1, _diagram_cells(d, space, injective=True))])


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


def schur_weyl_report(n: int, k: int, half: bool = False) -> dict:
    """Kernel, image and commutant bookkeeping for the two commuting actions.

    Checks that (a) the kernel of the diagram action, over the orbit basis, is
    spanned by the orbit elements with more than n blocks, (b) the image
    dimension equals the commutant dimension of the rook action, and (c)
    symmetrically, the rook image equals the commutant of the diagram action.

    A matrix commutes with the action of a monoid as soon as it commutes with
    the action of a generating set, so the commutant in (b) is taken over the
    rook generators s_i, P_1 (``rook.generators``), and the commutant in (c)
    over the named diagrams of ``diagram.generating_set``.  The monoid and
    its generators come from one cached listing, their closure, so the
    monoid is listed once.
    The images are spanned over every orbit diagram and every rook element,
    so the sizes are bounded by the "tensor space", "R_n enumeration" and
    "I_k enumeration" limits, all checked before any elimination.

    Besides the checked dimensions and ``ok``, the report gives the sizes it
    touched: ``dim`` (of the tensor space), ``diagram_count`` (of the
    monoid), ``phi_generators`` (diagram matrices whose commutant is taken)
    and ``phi_commutant_rows`` (dim^2 rows per such matrix).
    """
    space = TensorSpace(n, k, half)
    # first, so that an R_n too large to list is refused before any elimination
    rooks = enumerate_rook(space.rook_n)
    kind = "I_half" if half else "I"
    diagrams = enumerate_monoid(kind, k)

    def flat(cells):
        return {i * space.dim + j: 1 for i, j in cells}

    expected_kernel = sum(1 for d in diagrams if d.n_blocks() > n)
    image_dim = sparse_rank_of_vectors(
        [flat(_diagram_cells(d, space, injective=True)) for d in diagrams]
    )
    kernel_dim = len(diagrams) - image_dim

    gens = [psi_rook(g, space) for g in generators(space.rook_n)]
    commutant_dim = commutant_dimension(gens)

    psi_image_dim = sparse_rank_of_vectors([flat(_rook_cells(rho, space)) for rho in rooks])
    phi_gens = [phi_diagram(d, space) for d in generating_set(kind, k)]
    phi_commutant_dim = commutant_dimension(phi_gens)

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
        "phi_commutant_rows": space.dim**2 * len(phi_gens),
    }
