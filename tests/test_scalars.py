from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from rookpart.formal import FormalSum
from rookpart.scalars import XI, XiPoly, falling_factorial

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(rationals, max_size=5).map(XiPoly)


def test_zero_polynomial_degree_sentinel():
    # the zero polynomial has no coefficients, so its degree len - 1 is -1
    assert XiPoly().coeffs == ()
    assert XiPoly((0, 0)).coeffs == ()
    assert not XiPoly((Fraction(0),))


def test_trailing_zeros_trimmed():
    assert XiPoly((1, 2, 0, 0)).coeffs == (1, 2)


def test_basic_arithmetic():
    p = XI * XI - 3 * XI + 1
    assert p.coeffs == (1, -3, 1)
    assert p.subs(2) == -1
    assert str(p) == "xi^2 - 3*xi + 1"
    assert str(XiPoly()) == "0"
    assert str(-XI) == "-xi"
    assert str(XiPoly((Fraction(1, 2), Fraction(-5, 2)))) == "-5/2*xi + 1/2"


scalars = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).map(XiPoly.const),
    st.lists(st.integers(-2, 2), max_size=3).map(XiPoly),
)


@given(scalars, scalars)
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_constant_polynomials_share_sets_with_numbers():
    assert {XiPoly.const(2), Fraction(2), 2} == {2}
    assert hash(XiPoly(())) == hash(0)
    assert XI not in {Fraction(0), 1}


def test_constant_comparison_with_numbers():
    assert XiPoly.const(3) == 3
    assert XiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert XI != 1


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + (-p) == XiPoly()


@given(polys, rationals)
def test_substitution_is_a_homomorphism(p, x):
    q = p * p - 2 * p + 1
    assert q.subs(x) == p.subs(x) ** 2 - 2 * p.subs(x) + 1


def test_falling_factorial_matches_direct_product():
    assert falling_factorial(Fraction(5), 0) == 1
    assert falling_factorial(Fraction(5), 3) == 5 * 4 * 3
    poly = falling_factorial(XI, 3)
    for n in range(-2, 6):
        assert poly.subs(n) == n * (n - 1) * (n - 2)


def test_formal_sum_prunes_zeros_and_adds():
    a = FormalSum([("x", Fraction(1)), ("y", Fraction(2))])
    b = FormalSum([("x", Fraction(-1))])
    assert (a + b) == FormalSum([("y", Fraction(2))])
    assert not (a - a)
    assert "z" not in dict(a.terms())


def test_formal_sum_accumulates_duplicate_keys():
    s = FormalSum([("x", 1), ("x", 2)])
    assert dict(s.terms()) == {"x": 3}


def test_formal_sum_mixed_coefficient_equality():
    # constant polynomials compare equal to plain rationals inside sums
    assert FormalSum([("x", XiPoly.const(1))]) == FormalSum([("x", Fraction(1))])


def bilinear(a, b, pair_fn):
    """Sum of c1*c2*pair_fn(k1, k2) over all term pairs of two FormalSums;
    pair_fn returns a FormalSum.  The term-by-term product route, kept as
    the oracle of the products that compose their terms directly."""
    acc = {}
    for k1, c1 in a.terms():
        for k2, c2 in b.terms():
            for k, c in pair_fn(k1, k2).terms():
                acc[k] = acc.get(k, 0) + c1 * c2 * c
    return FormalSum(acc)


def test_bilinear_expands_products():
    a = FormalSum([("a", 1), ("b", 1)])
    out = bilinear(a, a, lambda x, y: FormalSum.term(x + y))
    assert out == FormalSum([("aa", 1), ("ab", 1), ("ba", 1), ("bb", 1)])


@given(rationals)
def test_rationals_are_normalized_and_invertible(r):
    # stored in lowest terms with positive denominator, and re-normalizing is
    # the identity
    assert r.denominator > 0
    from math import gcd

    assert gcd(r.numerator, r.denominator) == 1
    assert Fraction(r.numerator, r.denominator) == r
    assert r + (-r) == 0
