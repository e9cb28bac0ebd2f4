"""Partitions, tableaux and set partitions at desk scale.

Conventions used throughout:

* a partition / Young diagram is a tuple of weakly decreasing positive ints,
  the empty tuple being the empty diagram;
* boxes are 1-based (row, col) pairs, drawn matrix-style;
* a standard tableau is a tuple of row tuples whose entries are distinct
  integers increasing along rows and columns (entries need not be 1..m);
* a set partition of {1..k} is a tuple of disjoint blocks, each block a
  sorted tuple, blocks sorted by minimum;
* a set-partition tableau is a tuple of row tuples whose entries are blocks.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, factorial, prod

Partition = tuple[int, ...]
Box = tuple[int, int]
Tableau = tuple[tuple[int, ...], ...]
Block = tuple[int, ...]
SetPartition = tuple[Block, ...]
SetTableau = tuple[tuple[Block, ...], ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(lam) -> Partition:
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


def shape_key(lam: Partition) -> tuple:
    """Deterministic total order on shapes: by size, then lexicographic parts."""
    return (sum(lam), lam)


@cache
def partitions(r: int) -> tuple[Partition, ...]:
    """All partitions of r, largest first part first."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return ((),)

    def gen(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(r, r))


def partitions_upto(n: int) -> list[Partition]:
    """All partitions of every r with 0 <= r <= n, smaller sizes first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [lam for r in range(n + 1) for lam in partitions(r)]


def content(box: Box) -> int:
    """Content col - row of a box."""
    row, col = box
    return col - row


def content_sum(lam: Partition) -> int:
    return sum(content((r + 1, c + 1)) for r, width in enumerate(lam) for c in range(width))


def inner_corners(lam: Partition) -> list[Box]:
    """Boxes that can be removed leaving a partition."""
    out = []
    for r, width in enumerate(lam):
        below = lam[r + 1] if r + 1 < len(lam) else 0
        if width > below:
            out.append((r + 1, width))
    return out


def outer_corners(lam: Partition) -> list[Box]:
    """Positions where a box can be added."""
    out = []
    for r in range(len(lam) + 1):
        width = lam[r] if r < len(lam) else 0
        above = lam[r - 1] if r >= 1 else None
        if above is None or above > width:
            out.append((r + 1, width + 1))
    return out


def remove_box(lam: Partition, box: Box) -> Partition:
    r, c = box
    if box not in inner_corners(lam):
        raise ValueError(f"{box} is not an inner corner of {lam}")
    parts = list(lam)
    parts[r - 1] -= 1
    if parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def add_box(lam: Partition, box: Box) -> Partition:
    r, c = box
    if box not in outer_corners(lam):
        raise ValueError(f"{box} is not an outer corner of {lam}")
    parts = list(lam)
    if r - 1 == len(parts):
        parts.append(1)
    else:
        parts[r - 1] += 1
    return tuple(parts)


def box_difference(big: Partition, small: Partition) -> Box:
    """The single box of big not in small; raises if they do not differ by one box."""
    rows = max(len(big), len(small))
    diffs = []
    for r in range(rows):
        a = big[r] if r < len(big) else 0
        b = small[r] if r < len(small) else 0
        if a == b + 1:
            diffs.append((r + 1, a))
        elif a != b:
            raise ValueError(f"{big} and {small} do not differ by one box")
    if len(diffs) != 1:
        raise ValueError(f"{big} and {small} do not differ by one box")
    return diffs[0]


def move_steps(lam: Partition) -> list[tuple[Partition, Partition]]:
    """All (intermediate, result) pairs from removing one corner then adding one box.

    The same result shape can occur once per removable corner; the list keeps
    the repetitions, which carry representation-theoretic multiplicity.
    """
    out = []
    for corner in inner_corners(lam):
        omega = remove_box(lam, corner)
        for spot in outer_corners(omega):
            out.append((omega, add_box(omega, spot)))
    out.sort(key=lambda pair: (shape_key(pair[0]), shape_key(pair[1])))
    return out


def corner_set(lam: Partition, mode: str, bound: int = 0) -> list[Partition]:
    """Shape neighborhoods, deduplicated and sorted.

    plus_n     -> add one box, keeping the result within size <= bound
    minus_eq   -> remove one inner corner, or keep lam itself
    plus_eq    -> plus_n plus lam itself
    """
    lam = check_partition(lam)
    if mode == "plus_n":
        if sum(lam) + 1 > bound:
            shapes = set()
        else:
            shapes = {add_box(lam, c) for c in outer_corners(lam)}
    elif mode == "minus_eq":
        shapes = {remove_box(lam, c) for c in inner_corners(lam)} | {lam}
    elif mode == "plus_eq":
        shapes = set(corner_set(lam, "plus_n", bound)) | {lam}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return sorted(shapes, key=shape_key)


@cache
def _syt(lam: Partition) -> tuple[Tableau, ...]:
    """Standard Young tableaux of shape lam with entries exactly 1..|lam|."""
    if not lam:
        return ((),)
    m = sum(lam)
    out = []
    for corner in sorted(inner_corners(lam)):
        smaller = remove_box(lam, corner)
        r = corner[0] - 1
        for t in _syt(smaller):
            rows = [list(row) for row in t]
            if r == len(rows):
                rows.append([m])
            else:
                rows[r].append(m)
            out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def f_lambda(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by the hook length
    formula: |lam|! over the product of the hook lengths of its boxes."""
    lam = check_partition(lam)
    columns = [sum(part > c for part in lam) for c in range(lam[0] if lam else 0)]
    hooks = prod(part - c + columns[c] - r - 1 for r, part in enumerate(lam) for c in range(part))
    return factorial(sum(lam)) // hooks


def relabel_tableau(t: Tableau, values) -> Tableau:
    """Replace entry i by values[i-1] (values strictly increasing)."""
    values = tuple(values)
    return tuple(tuple(values[e - 1] for e in row) for row in t)


def standard_tableaux(lam: Partition, n: int) -> list[Tableau]:
    """All fillings with distinct entries from {1..n} increasing along rows and columns."""
    lam = check_partition(lam)
    m = sum(lam)
    if m > n:
        raise ValueError(f"shape {lam} has more than {n} boxes")
    base = _syt(lam)
    return [relabel_tableau(t, subset) for subset in combinations(range(1, n + 1), m) for t in base]


def rook_irrep_dim(lam: Partition, n: int) -> int:
    """Dimension of the R_n irreducible of shape lam, the number of its
    n-standard tableaux: C(n, |lam|) sets of entries times f_lam, in closed
    form (0 when lam does not fit in n)."""
    m = sum(lam)
    return comb(n, m) * f_lambda(lam) if m <= n else 0


def tableau_shape(t) -> Partition:
    """The row lengths of a tableau, of letters or of blocks."""
    return tuple(len(row) for row in t)


def tableau_entries(t: Tableau) -> frozenset:
    return frozenset(e for row in t for e in row)


def is_standard_tableau(t) -> bool:
    shape = tuple(len(row) for row in t)
    if not is_partition(shape) and shape != ():
        return False
    entries = [e for row in t for e in row]
    if len(set(entries)) != len(entries):
        return False
    for row in t:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if t[r][c] >= t[r + 1][c]:
                return False
    return True


@cache
def stirling2(k: int, r: int) -> int:
    """Number of set partitions of {1..k} into exactly r blocks.

    Row by row of the triangle S(i, j) = j S(i-1, j) + S(i-1, j-1), kept to
    the columns 0..r, so no recursion depth grows with k."""
    if k < 0 or r < 0:
        raise ValueError("arguments must be nonnegative")
    if r > k:
        return 0
    row = [1] + [0] * r  # S(0, j)
    for i in range(1, k + 1):
        for j in range(min(i, r), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[r]


def bell(k: int) -> int:
    return sum(stirling2(k, r) for r in range(k + 1))


def set_partitions(k: int, min_blocks: int = 1) -> list[SetPartition]:
    """All set partitions of {1..k} with at least min_blocks blocks.

    Enumerated through restricted-growth strings, so the order is stable.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = []

    def grow(i, assignment, used):
        if i > k:
            if used >= min_blocks:
                blocks = [[] for _ in range(used)]
                for elem, b in enumerate(assignment, start=1):
                    blocks[b].append(elem)
                out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(used + 1):
            grow(i + 1, assignment + [b], max(used, b + 1))

    grow(1, [], 0)
    return out


def is_standard_set_tableau(t) -> bool:
    """Rows and columns strictly increase under the maximum-entry order: the
    blocks are nonempty and disjoint, and their maxima form a standard
    tableau."""
    entries = [e for row in t for b in row for e in b]
    if len(set(entries)) != len(entries) or any(not b for row in t for b in row):
        return False
    return is_standard_tableau([[max(b) for b in row] for row in t])


def is_standard_spt(t, k: int) -> bool:
    """Standard set-partition tableau over {1..k}."""
    if not is_standard_set_tableau(t):
        return False
    entries = sorted(e for row in t for b in row for e in b)
    # the count first, so a large k builds no range
    return len(entries) == k and entries == list(range(1, k + 1))


def standard_spt_tableaux(lam: Partition, k: int) -> list[SetTableau]:
    """All standard set-partition tableaux of shape lam filled from {1..k}.

    Standardness only depends on the ranks of the block maxima, so the fillings
    are the standard-tableau patterns applied to the blocks sorted by maximum.
    """
    lam = check_partition(lam)
    m = sum(lam)
    out = []
    for part in set_partitions(k):
        if len(part) != m:
            continue
        by_max = sorted(part, key=max)
        for pattern in _syt(lam):
            out.append(tuple(tuple(by_max[e - 1] for e in row) for row in pattern))
    return out
