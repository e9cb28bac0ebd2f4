"""Commuting element families of the totally propagating algebras.

For every half-integer level the module builds the central sums Z and Z~ in
the orbit basis, lifts them along the tower, and forms the differences M and
M~ whose joint spectrum labels the canonical basis of each irreducible by a
branching-graph path.  Everything stays in the orbit basis.

Tower lifting is the unital embedding that adds the block c = {k+1, (k+1)'}
to every diagram-basis term (followed by the plain subalgebra inclusion at
the half-to-integer steps).  In the orbit basis it has a closed form: x_d
goes to x_{d with c} plus, for each block B of d, x_{d with B ∪ c}.  The map
that only adds c to each orbit key is also an algebra embedding, but it is
not unital: lifting along it collapses the differences M_y (for instance M at
level 3/2 would vanish identically), so the unital embedding is the one that
matches the spectrum on tensor space.

Z, Z~, their lifts and the M family are built on block-mask tuples (see
``diagram``), not on diagrams.  A lift step from size k moves top bits up by
2 and bottom bits up by 1, then adds c as a new mask or ORs it into each mask
in turn; the half-to-integer step only drops the flag.  Each level's Z, Z~
and family are kept for the process, and the family at t is grown from the
family at t - 1/2 by one step, so M_y = Z_y - lift(Z_{y-1/2}) is formed once,
at level y.  One diagram is made per term, when an element is handed out.
Every term of Z, Z~, M and M~ is checked to be totally propagating at its
level, with the last column joined at half levels (RuntimeError naming it).

On tensor space the family is phi of elements of C I_k (or C I_{k+1/2}),
whose diagrams have no one-row block, so it keeps each letter-set block of
words; ``gt_decompose`` eliminates on one block per number of letters and
counts each block's copies, never listing the n^k words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .bratteli import HALF, GraphPath, as_level, ihat, levels_upto
from .combinat import content_sum, rook_irrep_dim, set_partitions
from .diagram import (
    AlgebraElement,
    PartitionDiagram,
    _propagates,
    _slot_lifts,
    _vertex_masks,
    enumerate_monoid,
    generating_set,
    orbit_product_general,
    to_orbit,
)
from .linalg import CommutingFamily, simultaneous_eigenspace
from .rook import kappa, kappa_tilde
from .limits import check
from .tensor import LetterBlock, TensorSpace, letter_block_dim, phi_block, phi_element, psi_element


def size_and_half(t) -> tuple[int, bool]:
    """Diagram size and half flag of the level-t algebra (level 1/2 is read as
    I_1): k at level k, and k+1 with the half flag at level k+1/2."""
    t = max(as_level(t), Fraction(1))
    return int(t + HALF), t.denominator == 2


def _space_shape(t, n: int) -> tuple[int, bool]:
    """k and the half flag of the tensor space the level-t algebra acts on:
    k = floor(t) factors of C^n, plus the hidden slot at half levels; n must
    reach the diagram size.  Level 1/2 has no factor, so the tower acts on
    tensor space from level 1."""
    t = as_level(t)
    if t < 1:
        raise ValueError(f"level {t} has no tensor space; need a level >= 1")
    size, half = size_and_half(t)
    if n < size:
        raise ValueError(f"need n >= {size} at level {t}")
    return int(t), half


def tensor_space(t, n: int) -> TensorSpace:
    """The tensor space the level-t algebra acts on (``_space_shape``)."""
    k, half = _space_shape(t, n)
    return TensorSpace(n, k, half=half)


def _through_blocks(p, c=None, d=None) -> list:
    """The blocks B ∪ B' of the set partition p, except that the blocks c and
    d, when given, are crossed: C ∪ D' and D ∪ C'."""
    return [b + tuple(-v for v in (d if b == c else c if b == d else b)) for b in p]


@cache
def _central_terms(t) -> tuple[dict, dict]:
    """Z and Z~ at level t on block masks, each ``{masks: coefficient}``.

    Z sums the block-diagonal orbit elements d_p weighted by their number of
    blocks, at a half level over the p with two blocks or more, shifted by
    one; Z at level 1/2 is 1.  Z~ sums the crossed-pair elements d_{p,c,d}
    over unordered pairs of blocks, avoiding the block of the last letter at
    a half level; it is zero at levels 1/2, 1 and 3/2.  The unordered reading
    is forced by the operator identity with the rook center on tensor space;
    the ordered one would double it.  Kept for the process."""
    size, half = size_and_half(t)
    z, zt = {}, {}
    for p in set_partitions(size, min_blocks=1 + half):
        z[_vertex_masks(size, _through_blocks(p))] = Fraction(len(p) - half)
        free = [b for b in p if not (half and size in b)]
        for c, d in combinations(free, 2):
            zt[_vertex_masks(size, _through_blocks(p, c, d))] = Fraction(1)
    _check_propagating(t, (("Z", z), ("Z~", zt)))
    return z, zt


def _check_propagating(t, named) -> None:
    """Raise RuntimeError naming the first term of the (name, terms) pairs
    that is not totally propagating at level t, with its last column joined
    at a half level."""
    size, half = size_and_half(t)
    for name, terms in named:
        for masks in terms:
            if not _propagates(masks, size, half):
                joined = " with its last column joined" if half else ""
                d = PartitionDiagram._from_masks(size, masks, half)
                raise RuntimeError(f"{name} at level {t} has the term {d}, which is not totally propagating{joined}")


def _lift_step(terms: dict, size: int, half: bool) -> dict:
    """Orbit-basis ``{masks: coefficient}`` lifted one half step up the tower
    from the level of (size, half): from a half level the flag only drops, so
    the terms are the same; from size k each term goes to its ``_slot_lifts``
    at k+1/2 with its own coefficient.  The lifts of distinct terms are
    distinct (removing k+1 and (k+1)' gives the term back), so nothing is
    summed."""
    if half:
        return terms
    return {lifted: c for masks, c in terms.items() for lifted in _slot_lifts(masks, size)}


def _difference(a: dict, b: dict) -> dict:
    out = dict(a)
    for masks, c in b.items():
        v = out.get(masks, 0) - c
        if v:
            out[masks] = v
        else:
            del out[masks]
    return out


@cache
def _family_terms(t) -> tuple:
    """(y, M_y, M~_y) on block masks at level t for every y up to t, grown
    from the family at t - 1/2 by one lift step of each term, with M_t =
    Z_t - lift(Z_{t-1/2}) and M~_t likewise (Z below level 1/2 being 0, M at
    1/2 is 1 and M~ is 0).  Level 1/2 is read as I_1, so the step from 1/2 to
    1 lifts nothing.  Every term formed is checked to be totally propagating
    (RuntimeError).  Kept for the process."""
    z, zt = _central_terms(t)
    if t == HALF:
        return ((t, z, zt),)
    below = t - HALF
    lower = _family_terms(below)
    lz, lzt = _central_terms(below)
    if t == 1:
        family = lower
    else:
        size, half = size_and_half(below)
        family = tuple((y, _lift_step(m, size, half), _lift_step(mt, size, half)) for y, m, mt in lower)
        lz, lzt = _lift_step(lz, size, half), _lift_step(lzt, size, half)
    family += ((t, _difference(z, lz), _difference(zt, lzt)),)
    for y, m, mt in family:
        _check_propagating(t, ((f"M_{y}", m), (f"M~_{y}", mt)))
    return family


def _orbit_element(t, terms: dict) -> AlgebraElement:
    size, half = size_and_half(t)
    return AlgebraElement._from_masks(size, "orbit", terms, half)


def build_z(t) -> AlgebraElement:
    """Z at level t (``_central_terms``): the block-diagonal orbit elements
    weighted by their number of blocks (shifted by one at half levels); Z at
    level 1/2 is 1."""
    t = as_level(t)
    return _orbit_element(t, _central_terms(t)[0])


def build_z_tilde(t) -> AlgebraElement:
    """Z~ at level t (``_central_terms``): crossed-pair orbit elements summed
    over unordered block pairs; zero at levels 1/2, 1 and 3/2."""
    t = as_level(t)
    return _orbit_element(t, _central_terms(t)[1])


def _family_member(y, t, tilde: bool) -> AlgebraElement:
    y, t = as_level(y), as_level(t)
    if y > t:
        raise ValueError("y exceeds the ambient level")
    return _orbit_element(t, _family_terms(t)[int(2 * y) - 1][1 + tilde])


def build_m(y, t) -> AlgebraElement:
    """M at position y inside the level-t algebra: M_{1/2} = 1 and otherwise
    Z_y - Z_{y-1/2}, both lifted to level t, read from ``_family_terms``;
    one diagram is made per term, here."""
    return _family_member(y, t, False)


def build_m_tilde(y, t) -> AlgebraElement:
    """M~ likewise from Z~, with M~_{1/2} = 0."""
    return _family_member(y, t, True)


def _m_family(t) -> list[tuple[Fraction, AlgebraElement, AlgebraElement]]:
    """(y, M_y, M~_y) for every y up to t, from the block masks that
    ``_family_terms`` keeps for level t."""
    return [(y, build_m(y, t), build_m_tilde(y, t)) for y in levels_upto(t)]


def verify_centrality(t) -> dict:
    """Check Z and Z~ commute with the named generators of the level-t monoid
    (``diagram.generating_set``), which makes them central, since the monoid
    spans the algebra, and that all M, M~ up to t commute pairwise.
    ``diagram_count`` is the size of the monoid, read from the same cached
    listing as the generators, so the monoid is listed once."""
    t = as_level(t)
    size, half = size_and_half(t)
    kind, k = ("I_half", size - 1) if half else ("I", size)
    gens = generating_set(kind, k)  # first, so that a monoid too large to list is refused
    failures = []
    z, zt = build_z(t), build_z_tilde(t)
    for g in gens:
        go = to_orbit(AlgebraElement.from_diagram(g))
        for name, elem in (("Z", z), ("Z~", zt)):
            left = orbit_product_general(go, elem)
            right = orbit_product_general(elem, go)
            if left != right:
                failures.append(f"{name} at level {t} does not commute with {g}")
    family = []
    for y, m, mt in _m_family(t):
        family += [(f"M_{y}", m), (f"M~_{y}", mt)]
    for (na, a), (nb, b) in combinations(family, 2):
        if orbit_product_general(a, b) != orbit_product_general(b, a):
            failures.append(f"{na} and {nb} do not commute at level {t}")
    return {
        "level": str(t),
        "diagram_count": len(enumerate_monoid(kind, k)),
        "ok": not failures,
        "failures": failures,
    }


def verify_operator_identity(n: int, t) -> dict:
    """Match the level-t central sums with the rook central sums on tensor
    space: Z against kappa and Z~ against kappa~, with the rook size dropping
    by one at half levels."""
    t = as_level(t)
    space = tensor_space(t, n)
    failures = []
    pairs = [
        ("Z", build_z(t), kappa(space.rook_n)),
        ("Z~", build_z_tilde(t), kappa_tilde(space.rook_n)),
    ]
    for name, elem, rook_elem in pairs:
        lhs = phi_element(elem, space)
        rhs = psi_element(rook_elem, space)
        if lhs != rhs:
            bad = [
                (i, j)
                for i in range(space.dim)
                for j in range(space.dim)
                if lhs[i, j] != rhs[i, j]
            ][:5]
            failures.append(f"{name} at level {t}, n={n}: first diffs {bad}")
    return {"level": str(t), "n": n, "ok": not failures, "failures": failures}


def predicted_eigenvalues(path: GraphPath) -> list[tuple[Fraction, Fraction]]:
    """Predicted (M, M~) eigenvalue pairs along a branching path.

    At each step the M value is the size difference and the M~ value is the
    content-sum difference of consecutive shapes.  The bottom of the tower is
    special: M at 1/2 is the identity, and M at level 1 is the zero element
    (both Z's there are the identity), so its value is 0.
    """
    out = []
    for idx, y in enumerate(path.levels):
        if y == HALF:
            out.append((Fraction(1), Fraction(0)))
        elif y == 1:
            out.append((Fraction(0), Fraction(0)))
        else:
            prev, cur = path.shapes[idx - 1], path.shapes[idx]
            out.append(
                (
                    Fraction(sum(cur) - sum(prev)),
                    Fraction(content_sum(cur) - content_sum(prev)),
                )
            )
    return out


def gt_decompose(t, n: int) -> dict:
    """Simultaneous eigenspaces of the lifted M family on tensor space.

    For each branching path to level t the predicted eigenvalue tuple must cut
    out a space of dimension equal to the matching rook irreducible, the
    eigenspaces must exhaust the tensor space, and the tuples must be pairwise
    distinct.

    The family is phi of elements of C I_k (or C I_{k+1/2}), so it keeps each
    letter-set block, and a path's dimension is the sum over r of the copies
    of V_[r] times its dimension there (``tensor.LetterBlock``).  The family
    is built and eliminated on one block per r up to the diagram size, so
    neither grows with n, and the n^k words are never listed.  Each block
    has its own :class:`CommutingFamily`, checked to commute (a pair that
    does not raises ValueError naming the block), which its paths share, so
    a prefix common to several paths is eliminated once per block.  The
    eigenspaces exhaust the space when on each block the path dimensions add
    up to the block's (a failure line names the block) and the blocks'
    copies add up to n^k (checked always; RuntimeError).  A term that would
    join two letter sets raises RuntimeError in the block builder.  The
    "propagating tower" and "GT decomposition" limits bound the level and
    the largest block, both checked before any work.

    Each entry gives a path's shape, path, eigenvalues and eigenspace
    ``dimension``.  Besides the entries, the report gives ``operators`` (the
    size of the family), ``blocks`` ((r, dimension, copies) per block),
    ``prefix_kernels`` (the eigenvalue prefixes whose kernel was eliminated,
    summed over the blocks) and ``largest_prefix_kernel`` (the most vectors
    an elimination gave).
    """
    t = as_level(t)
    k, half = _space_shape(t, n)
    sizes = range(1, k + half + 1)
    check("propagating tower", t)  # first, so that the blocks are counted only at levels it admits
    check("GT decomposition", max(letter_block_dim(k, r, half) for r in sizes))
    graph = ihat(t)
    paths = []
    for mu in graph.vertices[graph.level_index(t)]:
        for path in graph.enumerate_paths((HALF, ()), (t, mu)):
            predicted = predicted_eigenvalues(path)
            paths.append((mu, path, predicted, [v for pair in predicted for v in pair]))
    family = _m_family(t)
    blocks = [LetterBlock(n, k, r, half) for r in sizes]
    if sum(b.copies * b.dim for b in blocks) != n**k:
        raise RuntimeError(f"the letter-set blocks of (C^{n})^(x){k} do not add up to its {n**k} words")

    dims = [0] * len(paths)
    block_failures = []
    prefix_kernels = largest = 0
    for block in blocks:
        ops = [phi_block(x, block) for _, m, mt in family for x in (m, mt)]
        try:
            ops = CommutingFamily(ops)  # checked here, not again for every path
        except ValueError as err:
            raise ValueError(f"{block!r}: {err}") from None
        covered = 0
        for i, (_, _, _, flat) in enumerate(paths):
            dim = len(simultaneous_eigenspace(ops, flat))
            dims[i] += block.copies * dim
            covered += dim
        if covered != block.dim:
            block_failures.append(f"{block!r}: eigenspaces cover {covered} of {block.dim} dimensions")
        prefix_kernels += ops.prefix_kernels
        largest = max(largest, ops.largest_kernel)

    entries = []
    failures = []
    seen_tuples = {}
    for (mu, path, predicted, flat), dim in zip(paths, dims):
        expected_dim = rook_irrep_dim(mu, n - half)
        key = tuple(flat)
        if key in seen_tuples:
            failures.append(f"paths {seen_tuples[key]} and {path.shapes} share a tuple")
        seen_tuples[key] = path.shapes
        if dim != expected_dim:
            failures.append(f"path {path.shapes}: eigenspace dim {dim} != {expected_dim}")
        entries.append({"shape": mu, "path": path, "eigenvalues": predicted, "dimension": dim})
    failures += block_failures
    return {
        "level": str(t),
        "n": n,
        "entries": entries,
        "ok": not failures,
        "failures": failures,
        "operators": 2 * len(family),
        "blocks": [(b.r, b.dim, b.copies) for b in blocks],
        "prefix_kernels": prefix_kernels,
        "largest_prefix_kernel": largest,
    }
