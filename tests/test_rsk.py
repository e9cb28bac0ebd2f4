import random
import re
from fractions import Fraction

import pytest

from rookpart.bratteli import GraphPath, rhat
from rookpart.combinat import (
    box_difference,
    inner_corners,
    f_lambda,
    is_standard_set_tableau,
    is_standard_spt,
    partitions,
    standard_spt_tableaux,
    stirling2,
    tableau_shape,
)
from rookpart import rsk
from rookpart.rsk import _intermediate_shape, insert, path_to_spt, spt_to_path


def uninsert(t, corner):
    """Reverse bumping on a tuple tableau from an inner corner, the inverse of
    insert; the path walk does it in place on its list of rows."""
    shape = tableau_shape(t)
    corner = tuple(corner)
    if corner not in inner_corners(shape):
        raise ValueError(f"{corner} is not an inner corner of {shape}")
    rows = [list(row) for row in t]
    b = rsk._unbump(rows, corner)
    return tuple(tuple(row) for row in rows), b


def test_insert_into_empty_and_append():
    assert insert((), (1,)) == (((1,),),)
    assert insert((((1,),),), (2,)) == (((1,), (2,)),)


def test_insert_bumps_smaller_maxima():
    # inserting {1,2} into [{3}] bumps {3} to the second row
    out = insert((((3,),),), (1, 2))
    assert out == (((1, 2),), ((3,),))


def test_insert_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        insert((((1,),),), (1, 2))
    with pytest.raises(ValueError):
        insert((), ())


def test_uninsert_examples():
    assert uninsert((((5,),),), (1, 1)) == ((), (5,))
    assert uninsert((((1,), (2,)),), (1, 2)) == ((((1,),),), (2,))
    with pytest.raises(ValueError):
        uninsert((((1,), (2,)),), (2, 1))


def test_insert_uninsert_round_trip_small():
    tableaux = []
    for r in range(1, 4):
        for lam in partitions(r):
            tableaux.extend(standard_spt_tableaux(lam, 3))
    for t in tableaux:
        shape = tableau_shape(t)
        for r, width in enumerate(shape, start=1):
            below = shape[r] if r < len(shape) else 0
            if width > below:
                rest, block = uninsert(t, (r, width))
                assert insert(rest, block) == t
    # and the other direction: insert then uninsert at the new corner
    base = (((1,),),)
    grown = insert(base, (2,))
    assert uninsert(grown, (1, 2)) == (base, (2,))


def test_insert_grows_shape_by_one_corner_and_stays_standard():
    for lam in partitions(3):
        for t in standard_spt_tableaux(lam, 3):
            grown = insert(t, (4, 5))
            assert is_standard_spt(grown, 5)
            old, new = sorted(tableau_shape(t)), sorted(tableau_shape(grown))
            assert sum(tableau_shape(grown)) == sum(tableau_shape(t)) + 1


def test_worked_correspondences():
    assert path_to_spt([(1,), (2,), (1, 1)]) == (((1,),), ((2, 3),))
    assert path_to_spt([(1,), (1, 1), (1, 1)]) == (((2,),), ((1, 3),))
    assert path_to_spt([(1,), (1,), (1, 1)]) == (((1, 2),), ((3,),))


def test_spt_to_path_examples():
    path = spt_to_path((((1,),), ((2, 3),)), 3)
    assert path.shapes == ((1,), (2,), (1, 1))
    assert path.vias == (None, (1,))
    path = spt_to_path((((1, 2),), ((3,),)), 3)
    assert path.shapes == ((1,), (1,), (1, 1))


def test_bijection_exhaustive_up_to_four_letters():
    for k in range(1, 5):
        graph = rhat(k, k)
        seen = set()
        for lam in graph.vertices[graph.level_index(k)]:
            for path in graph.enumerate_paths((1, (1,)), (k, lam)):
                t = path_to_spt(path)
                assert is_standard_spt(t, k)
                assert t not in seen
                seen.add(t)
                back = spt_to_path(t, k)
                assert back.shapes == path.shapes
                assert back.vias == path.vias
        all_tabs = {
            t
            for r in range(1, k + 1)
            for lam in partitions(r)
            for t in standard_spt_tableaux(lam, k)
        }
        assert seen == all_tabs


def test_counting_identity_up_to_five():
    for k in range(1, 6):
        graph = rhat(k, k)
        for r in range(1, k + 1):
            for lam in partitions(r):
                count = len(standard_spt_tableaux(lam, k))
                assert count == stirling2(k, r) * f_lambda(lam)
                assert count == graph.count_paths((1, (1,)), (k, lam))


def test_ambiguous_stay_step_requires_intermediate():
    # the two-corner shape (2,1) staying put cannot be replayed blind
    with pytest.raises(ValueError):
        path_to_spt([(1,), (2,), (2, 1), (2, 1)])


def test_path_to_spt_rejects_bad_paths():
    with pytest.raises(ValueError):
        path_to_spt([(2,)])
    with pytest.raises(ValueError):
        path_to_spt([(1,), (3,)])


def test_spt_to_path_rejects_non_standard():
    with pytest.raises(ValueError):
        spt_to_path((((2, 3),), ((1,),)), 3)
    # the empty tableau is standard over no letters, but a path has k >= 1 steps
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"need k >= 1 letters, not {k}"):
            spt_to_path((), k)


# --- the per-step route, kept as an oracle for the path walk ------------------


def old_path_to_spt(path):
    """The path walk that rebuilds the tuple tableau and re-checks all of it
    after every step."""
    if isinstance(path, GraphPath):
        shapes, vias = list(path.shapes), list(path.vias)
    else:
        shapes, vias = list(path), [None] * (len(path) - 1)
    if not shapes or tuple(shapes[0]) != (1,):
        raise ValueError("path must start at the one-box shape")
    t = (((1,),),)
    for i in range(2, len(shapes) + 1):
        prev, cur = tuple(shapes[i - 2]), tuple(shapes[i - 1])
        if sum(cur) == sum(prev) + 1:
            r, _ = box_difference(cur, prev)
            block = (i,)
        elif sum(cur) == sum(prev):
            omega = _intermediate_shape(prev, cur, vias[i - 2])
            t, b = uninsert(t, box_difference(prev, omega))
            r, _ = box_difference(cur, omega)
            block = tuple(sorted(b + (i,)))
        else:
            raise ValueError(f"invalid step {prev} -> {cur}")
        rows = [list(row) for row in t]
        if r - 1 == len(rows):
            rows.append([block])
        else:
            rows[r - 1].append(block)
        t = tuple(tuple(row) for row in rows)
        if not is_standard_set_tableau(t):
            raise ValueError(f"step {i} left a non-standard tableau")
    return t


def test_path_walk_matches_the_per_step_route():
    cases = [(6, 6), (3, 8)]  # every path to level 6; paths through <= 3 boxes to level 8
    total = 0
    for n, k in cases:
        graph = rhat(n, k)
        for lam in graph.vertices[graph.level_index(k)]:
            for path in graph.enumerate_paths((1, (1,)), (k, lam)):
                assert path_to_spt(path) == old_path_to_spt(path), path
                total += 1
    assert total == 1539 + 4119


def _neighbour(rng, shape):
    """A shape one box larger, or the same shape, as a path step mostly is."""
    rows = list(shape) + [0]
    if rng.random() < 0.5:
        rows[rng.randrange(len(rows))] += 1
    return tuple(x for x in rows if x) or (1,)


def test_path_walk_refuses_what_the_per_step_route_refuses():
    # random shape sequences up to 8 steps, most of them not paths: the walk
    # refuses, with ValueError, exactly those the per-step route refuses, some
    # of which it refused with IndexError
    rng = random.Random(0)
    pool = [s for r in range(1, 5) for s in partitions(r)] + [(1, 2), (2, 0), (1, 0, 1), (0, 1)]
    refused = 0
    for _ in range(3000):
        shapes = [(1,)]
        for _ in range(rng.randrange(1, 8)):
            shapes.append(rng.choice(pool) if rng.random() < 0.4 else _neighbour(rng, shapes[-1]))
        try:
            want = old_path_to_spt(shapes)
        except (ValueError, IndexError):
            refused += 1
            with pytest.raises(ValueError):
                path_to_spt(shapes)
        else:
            assert path_to_spt(shapes) == want, shapes
    assert 0 < refused < 3000


def test_path_walk_names_the_step_and_the_corner():
    # a box with nothing above it is refused at its step, not only by the
    # check of the whole tableau at the end
    with pytest.raises(ValueError, match="^step 3 left a non-standard tableau$"):
        path_to_spt([(1,), (1, 1), (1, 2)])
    # a move step whose intermediate shape is no partition removes no corner
    levels = tuple(Fraction(m) for m in range(1, 6))
    shapes = ((1,), (2,), (2, 1), (2, 2), (2, 2))
    with pytest.raises(ValueError, match=re.escape("(1, 2) is not an inner corner of (2, 2)")):
        path_to_spt(GraphPath(levels, shapes, (None, None, None, (1, 2))))


def test_path_walk_checks_the_whole_tableau_at_the_end(monkeypatch):
    def place_unchecked(rows, r, block):
        if r == len(rows) + 1:
            rows.append([])
        rows[r - 1].append(block)
        return True

    monkeypatch.setattr(rsk, "_place", place_unchecked)
    with pytest.raises(ValueError, match="^the path gave a non-standard tableau$"):
        path_to_spt([(1,), (1, 1), (1, 2)])


def test_path_walk_takes_long_growth_paths():
    row = [(m,) for m in range(1, 4001)]
    assert path_to_spt(row) == (tuple((m,) for m in range(1, 4001)),)
    column = [(1,) * m for m in range(1, 301)]
    assert path_to_spt(column) == tuple(((m,),) for m in range(1, 301))
