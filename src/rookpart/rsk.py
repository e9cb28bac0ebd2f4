"""Row insertion on standard set tableaux and the path correspondence.

Blocks are compared by their largest entries; since blocks of a tableau are
disjoint, maxima are distinct and the order is total.  ``spt_to_path`` peels
the block containing the largest letter and re-inserts its remainder;
``path_to_spt`` replays the growth and bump steps, reading the intermediate
shape off the path labels when a move step is ambiguous.
"""

from __future__ import annotations

from fractions import Fraction

from .bratteli import GraphPath
from .combinat import (
    Block,
    Partition,
    SetTableau,
    box_difference,
    inner_corners,
    is_partition,
    is_standard_set_tableau,
    is_standard_spt,
    remove_box,
    tableau_shape,
)
from .limits import check


def _check_insertable(t: SetTableau, b) -> Block:
    b = tuple(sorted(b))
    if not b:
        raise ValueError("cannot insert an empty block")
    entries = {e for row in t for blk in row for e in blk}
    if entries & set(b):
        raise ValueError(f"block {b} overlaps the tableau entries")
    return b


def insert(t: SetTableau, b) -> SetTableau:
    """Row-insert block b: bump the leftmost entry of each row not below b."""
    b = _check_insertable(t, b)
    rows = [list(row) for row in t]
    r = 0
    while True:
        if r == len(rows):
            rows.append([b])
            break
        row = rows[r]
        spot = next((i for i, blk in enumerate(row) if max(blk) > max(b)), None)
        if spot is None:
            row.append(b)
            break
        b, row[spot] = row[spot], b
        r += 1
    return tuple(tuple(row) for row in rows)


def _unbump(rows: list, corner) -> Block:
    """Reverse bumping in place on a list of rows, from an inner corner of
    their shape: the corner block leaves, and in each row above it replaces
    the rightmost block of smaller maximum, which moves up in turn."""
    r, c = corner
    b = rows[r - 1].pop(c - 1)
    if not rows[r - 1]:
        rows.pop(r - 1)
    for q in range(r - 2, -1, -1):
        row = rows[q]
        spot = max(i for i, blk in enumerate(row) if max(blk) < max(b))
        b, row[spot] = row[spot], b
    return b


def _place(rows: list, r: int, block: Block) -> bool:
    """Append a block at the end of row r (from 1) of a standard tableau kept
    as a list of rows, and say whether the tableau stays standard.  Only the
    new box can break that: the block to its left and the block above it
    (which must exist, so the shape stays a partition) need smaller maxima,
    and nothing lies to its right or below it."""
    if r == len(rows) + 1:
        rows.append([])
    elif not 1 <= r <= len(rows):
        return False
    row = rows[r - 1]
    c, top = len(row), max(block)
    if c and max(row[-1]) >= top:
        return False
    if r > 1 and (len(rows[r - 2]) <= c or max(rows[r - 2][c]) >= top):
        return False
    row.append(block)
    return True


def _find_block_with(t: SetTableau, letter: int):
    for r, row in enumerate(t, start=1):
        for c, blk in enumerate(row, start=1):
            if letter in blk:
                return (r, c), blk
    raise ValueError(f"letter {letter} not in tableau")


def path_to_spt(path: GraphPath | list) -> SetTableau:
    """Standard set-partition tableau attached to a tensor-step path.

    The path must start at the one-box shape on level 1.  A move step needs
    its intermediate shape whenever the shape stays put and has several
    corners; enumerated paths carry it as the edge label.

    The rows are kept as lists during the walk.  Reverse bumping keeps a
    standard tableau standard, so each step checks only the box it places
    against its neighbours; the whole tableau is checked once at the end.
    """
    if isinstance(path, GraphPath):
        shapes, vias = list(path.shapes), list(path.vias)
    else:
        shapes, vias = list(path), [None] * (len(path) - 1)
    check("path correspondence", len(shapes))
    if not shapes or tuple(shapes[0]) != (1,):
        raise ValueError("path must start at the one-box shape")
    rows = [[(1,)]]
    for i in range(2, len(shapes) + 1):
        prev, cur = tuple(shapes[i - 2]), tuple(shapes[i - 1])
        if sum(cur) == sum(prev) + 1:
            block = (i,)
            r = box_difference(cur, prev)[0]
        elif sum(cur) == sum(prev):
            omega = _intermediate_shape(prev, cur, vias[i - 2])
            corner = box_difference(prev, omega)
            if corner not in inner_corners(prev):
                raise ValueError(f"{corner} is not an inner corner of {prev}")
            block = tuple(sorted(_unbump(rows, corner) + (i,)))
            r = box_difference(cur, omega)[0]
        else:
            raise ValueError(f"invalid step {prev} -> {cur}")
        if not _place(rows, r, block):
            raise ValueError(f"step {i} left a non-standard tableau")
    t = tuple(tuple(row) for row in rows)
    if not is_standard_set_tableau(t):
        raise ValueError("the path gave a non-standard tableau")
    return t


def _intermediate_shape(prev: Partition, cur: Partition, via) -> Partition:
    if via is not None:
        via = tuple(via)
        box_difference(prev, via)
        box_difference(cur, via)
        return via
    if prev != cur:
        rows = max(len(prev), len(cur))
        omega = tuple(
            m
            for m in (
                min(
                    prev[r] if r < len(prev) else 0,
                    cur[r] if r < len(cur) else 0,
                )
                for r in range(rows)
            )
            if m
        )
        if not is_partition(omega):
            raise ValueError(f"invalid move step {prev} -> {cur}")
        return omega
    corners = inner_corners(prev)
    if len(corners) == 1:
        return remove_box(prev, corners[0])
    raise ValueError(
        f"ambiguous stay-step at shape {prev}: the intermediate shape is required"
    )


def spt_to_path(t: SetTableau, k: int) -> GraphPath:
    """Path attached to a standard set-partition tableau over {1..k}.

    Returns integer-level shapes; move steps carry the intermediate shape as
    the via label so the correspondence stays invertible.
    """
    check("path correspondence", k)
    if k < 1:
        raise ValueError(f"need k >= 1 letters, not {k}")
    if not is_standard_spt(t, k):
        raise ValueError("not a standard set-partition tableau over 1..k")
    shapes: list[Partition] = [None] * k
    vias: list = [None] * (k - 1)
    cur = t
    for i in range(k, 1, -1):
        shapes[i - 1] = tableau_shape(cur)
        corner, blk = _find_block_with(cur, i)
        if corner not in inner_corners(tableau_shape(cur)):
            raise ValueError(f"letter {i} is not at a corner")
        rows = [list(row) for row in cur]
        rows[corner[0] - 1].pop(corner[1] - 1)
        if not rows[corner[0] - 1]:
            rows.pop(corner[0] - 1)
        stripped = tuple(tuple(row) for row in rows)
        rest = tuple(e for e in blk if e != i)
        if rest:
            vias[i - 2] = tableau_shape(stripped)
            cur = insert(stripped, rest)
        else:
            cur = stripped
    shapes[0] = tableau_shape(cur)
    if shapes[0] != (1,):
        raise ValueError("peeling did not end at the one-box shape")
    return GraphPath(
        tuple(Fraction(m) for m in range(1, k + 1)), tuple(shapes), tuple(vias)
    )
