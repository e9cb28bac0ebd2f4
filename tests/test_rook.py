import random
from fractions import Fraction

import pytest

from rookpart.formal import FormalSum
from rookpart.rook import (
    RookElement,
    algebra_mul,
    enumerate_rook,
    factor_to_word,
    generator,
    generators,
    jm_x,
    jm_x_tilde,
    kappa,
    kappa_tilde,
    rook_mul,
)
from test_scalars import bilinear


def test_identity_and_zero():
    ident = RookElement.identity(3)
    zero = RookElement.zero(3)
    a = RookElement(3, (2, 0, 1))
    assert rook_mul(ident, a) == a == rook_mul(a, ident)
    assert rook_mul(zero, a) == zero


def test_pairs_round_trip():
    a = RookElement.from_pairs(4, [(1, 3), (4, 2)])
    assert [(i, a.image(i)) for i in a.domain()] == [(1, 3), (4, 2)]
    assert a.mapping == (3, 0, 0, 2)
    with pytest.raises(ValueError):
        RookElement.from_pairs(2, [(1, 1), (1, 2)])


def test_transpose_is_inverse_partial_map():
    a = RookElement(3, (2, 0, 1))
    transpose = RookElement.from_pairs(3, [(a.image(i), i) for i in a.domain()])
    assert transpose.mapping == (3, 1, 0)
    assert rook_mul(a, rook_mul(transpose, a)) == a


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generators_close_to_the_monoid(n):
    gens = generators(n)
    assert gens == [generator("s", i, n) for i in range(1, n)] + [generator("P", 1, n)]
    closure = new = {RookElement.identity(n)}
    while new:
        new = {rook_mul(x, g) for x in new for g in gens} - closure
        closure |= new
    assert closure == set(enumerate_rook(n))


def test_generator_examples():
    n = 3
    s1 = generator("s", 1, n)
    p1 = generator("P", 1, n)
    p2 = generator("P", 2, n)
    assert rook_mul(s1, s1) == RookElement.identity(n)
    assert rook_mul(rook_mul(p1, s1), p1) == p2
    assert generator("Q", 2, n) == p2
    assert generator("gamma", 1, n) == p1
    assert generator("Q", 4, 4).mapping == (1, 2, 0, 0)
    assert generator("gamma", 3, 4).mapping == (1, 2, 0, 4)
    with pytest.raises(ValueError):
        generator("s", 3, 3)
    with pytest.raises(ValueError):
        generator("Q", 1, 3)


def test_q_is_diagonal_with_two_zeros():
    for n in range(2, 6):
        for i in range(2, n + 1):
            q = generator("Q", i, n)
            assert q.is_diagonal()
            zeros = [j + 1 for j, v in enumerate(q.mapping) if v == 0]
            assert zeros == [i - 1, i]


def test_monoid_sizes():
    sizes = {1: 2, 2: 7, 3: 34, 4: 209}
    for n, size in sizes.items():
        elements = enumerate_rook(n)
        assert len(elements) == size
        assert len(set(elements)) == size


def test_enumeration_refuses_sizes_past_the_bound():
    for n in (8, 27):
        with pytest.raises(ValueError) as refused:
            enumerate_rook(n)
        assert str(refused.value) == f"R_n enumeration: n = {n} exceeds the limit 7"
    # a lower bound is input validation, with its own message
    with pytest.raises(ValueError) as refused:
        enumerate_rook(0)
    assert str(refused.value) == "cannot enumerate R_n for n = 0: need n >= 1"


def test_presentation_relations_hold_up_to_n5():
    for n in range(2, 6):
        ident = RookElement.identity(n)
        s = [None] + [generator("s", i, n) for i in range(1, n)]
        p1 = generator("P", 1, n)
        for i in range(1, n):
            assert rook_mul(s[i], s[i]) == ident
        for i in range(1, n - 1):
            assert rook_mul(rook_mul(s[i], s[i + 1]), s[i]) == rook_mul(
                rook_mul(s[i + 1], s[i]), s[i + 1]
            )
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    assert rook_mul(s[i], s[j]) == rook_mul(s[j], s[i])
        for i in range(2, n):
            assert rook_mul(s[i], p1) == rook_mul(p1, s[i])
        assert rook_mul(p1, p1) == p1
        for j in range(2, n + 1):
            pj = generator("P", j, n)
            pj1 = generator("P", j - 1, n)
            assert pj == rook_mul(rook_mul(pj1, s[j - 1]), pj1)


def evaluate_word(word, n):
    out = RookElement.identity(n)
    for kind, idx in word:
        tok = generator("s", idx, n) if kind == "s" else generator("P", 1, n)
        out = rook_mul(out, tok)
    return out


def test_factor_to_word_examples():
    assert factor_to_word(RookElement.identity(3)) == []
    word = factor_to_word(generator("P", 1, 3))
    assert word == [("P1", 0)]
    zero2 = RookElement.zero(2)
    assert evaluate_word(factor_to_word(zero2), 2) == zero2


def test_factor_to_word_re_evaluates_everywhere():
    for rho in enumerate_rook(3):
        assert evaluate_word(factor_to_word(rho), 3) == rho
    rng = random.Random(7)
    pool = enumerate_rook(5)
    for rho in rng.sample(pool, 100):
        assert evaluate_word(factor_to_word(rho), 5) == rho


def test_jm_x_examples():
    n = 2
    x1 = jm_x(1, n)
    assert x1 == FormalSum(
        [(RookElement.identity(n), Fraction(1)), (generator("P", 1, n), Fraction(-1))]
    )
    assert jm_x_tilde(1, n) == FormalSum.zero()
    xt2 = jm_x_tilde(2, 2)
    s1 = generator("s", 1, 2)
    expected = (
        FormalSum.term(s1)
        - FormalSum.term(rook_mul(s1, generator("gamma", 1, 2)))
        - FormalSum.term(rook_mul(generator("gamma", 1, 2), s1))
        + FormalSum.term(generator("Q", 2, 2))
    )
    assert xt2 == expected
    assert len(xt2) == 4
    assert all(c in (1, -1) for _, c in xt2.items())


def test_jm_x_equals_one_minus_gamma():
    for n in range(1, 5):
        for i in range(1, n + 1):
            direct = FormalSum(
                [
                    (RookElement.identity(n), Fraction(1)),
                    (generator("gamma", i, n), Fraction(-1)),
                ]
            )
            assert jm_x(i, n) == direct


def test_family_commutes_formally():
    for n in range(1, 5):
        fam = [jm_x(i, n) for i in range(1, n + 1)]
        fam += [jm_x_tilde(i, n) for i in range(1, n + 1)]
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert algebra_mul(fam[i], fam[j]) == algebra_mul(fam[j], fam[i])


def test_kappa_examples_and_centrality():
    assert kappa(1) == FormalSum(
        [(RookElement.identity(1), Fraction(1)), (generator("P", 1, 1), Fraction(-1))]
    )
    assert kappa_tilde(1) == FormalSum.zero()
    for n in range(2, 5):
        gens = [FormalSum.term(generator("s", i, n)) for i in range(1, n)]
        gens.append(FormalSum.term(generator("P", 1, n)))
        for central in (kappa(n), kappa_tilde(n)):
            for g in gens:
                assert algebra_mul(central, g) == algebra_mul(g, central)


def test_rook_mul_size_mismatch():
    with pytest.raises(ValueError):
        rook_mul(RookElement.identity(2), RookElement.identity(3))


def _bilinear_mul(a, b):
    """The product term by term: one checked composition and one FormalSum per pair."""
    return bilinear(a, b, lambda x, y: FormalSum.term(rook_mul(x, y)))


def _assert_same_sum(new, old):
    assert new == old
    assert [(k, type(c)) for k, c in new.items()] == [(k, type(c)) for k, c in old.items()]


def test_tuple_products_match_the_bilinear_route():
    for n in range(1, 5):
        fam = [jm_x(i, n) for i in range(1, n + 1)] + [jm_x_tilde(i, n) for i in range(1, n + 1)]
        fam += [kappa(n), kappa_tilde(n)] + [FormalSum.term(g) for g in generators(n)]
        for a in fam:
            for b in fam:
                _assert_same_sum(algebra_mul(a, b), _bilinear_mul(a, b))
    # seeded sums with repeated products, so that coefficients cancel
    rng = random.Random(53)
    coeffs = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3)]
    for n in (2, 3):
        pool = enumerate_rook(n)
        for _ in range(60):
            a, b = (FormalSum([(rho, rng.choice(coeffs)) for rho in rng.sample(pool, 5)]) for _ in range(2))
            _assert_same_sum(algebra_mul(a, b), _bilinear_mul(a, b))
    assert algebra_mul(FormalSum.zero(), jm_x(1, 2)) == FormalSum.zero()


def test_algebra_mul_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        algebra_mul(FormalSum.term(RookElement.identity(2)), FormalSum.term(RookElement.identity(3)))
