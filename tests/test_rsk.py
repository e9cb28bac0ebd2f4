import pytest

from rookpart.bratteli import rhat
from rookpart.combinat import (
    f_lambda,
    is_standard_spt,
    partitions,
    standard_spt_tableaux,
    stirling2,
    tableau_shape,
)
from rookpart.rsk import insert, path_to_spt, spt_to_path, uninsert


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
