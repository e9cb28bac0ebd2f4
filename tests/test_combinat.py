import random
import sys
from collections import Counter
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rookpart import combinat
from rookpart.combinat import (
    bell,
    content,
    corner_set,
    f_lambda,
    inner_corners,
    is_partition,
    is_standard_set_tableau,
    is_standard_spt,
    move_steps,
    outer_corners,
    partitions,
    partitions_upto,
    rook_irrep_dim,
    set_partitions,
    standard_spt_tableaux,
    standard_tableaux,
    stirling2,
)

small_partitions = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.sampled_from(list(partitions(r)))
)


def hook_length_count(lam) -> int:
    """Independent oracle: product formula over hook lengths."""
    m = sum(lam)
    if m == 0:
        return 1
    conj = [sum(1 for p in lam if p > r) for r in range(lam[0])]
    hooks = 1
    for r, width in enumerate(lam):
        for c in range(width):
            hooks *= (width - c) + (conj[c] - r) - 1
    return factorial(m) // hooks


def bell_by_binomial_recurrence(k: int) -> int:
    """Independent oracle: B(n+1) = sum C(n, j) B(j)."""
    values = [1]
    for n in range(k):
        values.append(sum(comb(n, j) * values[j] for j in range(n + 1)))
    return values[k]


def test_partitions_upto_examples():
    assert partitions_upto(0) == [()]
    assert partitions_upto(2) == [(), (1,), (2,), (1, 1)]
    assert len(partitions_upto(3)) == 7


def test_partitions_rejects_negative():
    with pytest.raises(ValueError):
        partitions(-1)


def test_content_examples():
    assert content((1, 1)) == 0
    assert content((1, 2)) == 1
    assert content((3, 1)) == -2


def test_corner_set_examples():
    assert corner_set((1,), "plus_n", 2) == [(1, 1), (2,)]
    assert corner_set((), "minus_eq") == [()]
    assert corner_set((2,), "minus_eq") == [(1,), (2,)]
    assert corner_set((1,), "plus_eq", 1) == [(1,)]
    with pytest.raises(ValueError):
        corner_set((1,), "sideways")


def test_move_steps_records_one_pair_per_corner():
    # a two-corner shape returns to itself once per corner
    steps = move_steps((2, 1))
    assert steps.count(((2,), (2, 1))) == 1
    assert steps.count(((1, 1), (2, 1))) == 1
    assert [mu for _, mu in steps].count((2, 1)) == 2


@given(small_partitions)
def test_corners_are_adjoint(lam):
    for mu in corner_set(lam, "minus_eq"):
        assert mu == lam or lam in corner_set(mu, "plus_n", sum(lam))
    for mu in corner_set(lam, "plus_n", sum(lam) + 1):
        assert lam in corner_set(mu, "minus_eq")


@given(small_partitions)
def test_corner_counts(lam):
    assert len(outer_corners(lam)) == len(inner_corners(lam)) + 1


def test_standard_tableaux_examples():
    assert sorted(standard_tableaux((2,), 3)) == [((1, 2),), ((1, 3),), ((2, 3),)]
    assert standard_tableaux((), 5) == [()]
    assert len(standard_tableaux((1,), 2)) == 2
    with pytest.raises(ValueError):
        standard_tableaux((2, 1), 2)


def test_tableau_count_formula():
    # the closed form against the enumeration, which is its oracle
    for n in range(8):
        for lam in partitions_upto(n):
            expected = comb(n, sum(lam)) * f_lambda(lam)
            assert len(standard_tableaux(lam, n)) == expected == rook_irrep_dim(lam, n)
    assert rook_irrep_dim((2, 1), 2) == rook_irrep_dim((1,), -3) == 0


def test_f_lambda_examples_and_hook_oracle():
    assert f_lambda(()) == 1
    assert f_lambda((2, 1)) == 2
    assert f_lambda((2, 2)) == 2
    for r in range(7):
        for lam in partitions(r):
            assert f_lambda(lam) == hook_length_count(lam)


def test_f_lambda_squares_sum_to_factorial():
    for r in range(7):
        assert sum(f_lambda(lam) ** 2 for lam in partitions(r)) == factorial(r)


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    assert all(stirling2(k, k) == 1 for k in range(1, 8))
    assert all(stirling2(k, 0) == 0 for k in range(1, 8))


def test_bell_against_binomial_recurrence():
    for k in range(1, 8):
        assert bell(k) == bell_by_binomial_recurrence(k)
        assert len(set_partitions(k)) == bell(k)
        assert sum(stirling2(k, r) for r in range(k + 1)) == bell(k)


def test_set_partitions_examples():
    assert set_partitions(2) == [((1, 2),), ((1,), (2,))]
    assert set_partitions(3, min_blocks=3) == [((1,), (2,), (3,))]
    assert len(set_partitions(4)) == 15
    assert all(len(p) >= 2 for p in set_partitions(4, min_blocks=2))


def _stirling_by_recurrence(k, r):
    if k == 0:
        return 1 if r == 0 else 0
    if r == 0:
        return 0
    return r * _stirling_by_recurrence(k - 1, r) + _stirling_by_recurrence(k - 1, r - 1)


def test_stirling_runs_far_past_the_recursion_limit():
    k = 3 * sys.getrecursionlimit()
    assert stirling2(k, 1) == 1
    assert stirling2(k, 2) == 2 ** (k - 1) - 1
    assert stirling2(k, 3) == (3 ** (k - 1) - 2**k + 1) // 2
    assert stirling2(k, k + 1) == 0


def test_stirling_matches_enumeration():
    for k in range(1, 11):
        blocks = Counter(len(p) for p in set_partitions(k))
        for r in range(k + 2):
            assert stirling2(k, r) == _stirling_by_recurrence(k, r) == blocks[r], (k, r)


def test_standard_spt_examples():
    assert is_standard_spt((((1,),), ((2, 3),)), 3)
    assert not is_standard_spt((((2, 3),), ((1,),)), 3)
    assert is_standard_spt((((1, 2, 3, 4),),), 4)
    assert not is_standard_spt((((1,),), ((2,),)), 3)  # 3 missing
    assert not is_standard_spt((((1,),),), 10**8)  # the entry count is compared before any range is built


def test_standard_spt_enumeration_against_filter():
    # brute-force oracle: place the blocks in the boxes in every order and
    # keep the standard ones
    from itertools import permutations

    for k in range(1, 5):
        for r in range(1, k + 1):
            for lam in partitions(r):
                brute = set()
                for part in set_partitions(k):
                    if len(part) != r:
                        continue
                    for order in permutations(part):
                        rows = []
                        idx = 0
                        for width in lam:
                            rows.append(tuple(order[idx : idx + width]))
                            idx += width
                        cand = tuple(rows)
                        if is_standard_spt(cand, k):
                            brute.add(cand)
                produced = standard_spt_tableaux(lam, k)
                assert len(produced) == len(set(produced))
                assert set(produced) == brute
                assert len(produced) == stirling2(k, r) * f_lambda(lam)


def _old_is_standard_set_tableau(t):
    # the former body: the row and column loops written out on block maxima
    shape = tuple(len(row) for row in t)
    if shape and not is_partition(shape):
        return False
    entries = [e for row in t for b in row for e in b]
    if len(set(entries)) != len(entries) or any(not b for row in t for b in row):
        return False
    for row in t:
        for i in range(len(row) - 1):
            if not max(row[i]) < max(row[i + 1]):
                return False
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if not max(t[r][c]) < max(t[r + 1][c]):
                return False
    return True


def test_standard_set_tableau_matches_former_body():
    for k in range(1, 6):
        for r in range(1, k + 1):
            for lam in partitions(r):
                for t in standard_spt_tableaux(lam, k):
                    assert is_standard_set_tableau(t) and _old_is_standard_set_tableau(t)
    rng = random.Random(11)
    for _ in range(3000):
        widths = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        t = tuple(
            tuple(tuple(rng.sample(range(1, 9), rng.randint(0, 2))) for _ in range(w))
            for w in widths
        )
        assert is_standard_set_tableau(t) == _old_is_standard_set_tableau(t), t


def test_box_difference():
    assert combinat.box_difference((2, 1), (1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        combinat.box_difference((2, 2), (1, 1))
