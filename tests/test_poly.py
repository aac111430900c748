import random
from fractions import Fraction

import pytest

from superpoly import CPoly, C


def test_difference_of_squares():
    p = CPoly((1, 1))   # c + 1
    q = CPoly((-1, 1))  # c - 1
    assert p * q == CPoly((-1, 0, 1))


def test_additive_identity():
    p = CPoly((3, 0, Fraction(1, 2)))
    assert p + CPoly.zero() == p


def test_inverse_scaling():
    assert CPoly((0, 0, 3)).scale(Fraction(1, 3)) == CPoly((0, 0, 1))


def test_derivative_basic():
    assert CPoly((0, 0, 0, 1)).derive(1) == CPoly((0, 0, 3))
    assert CPoly((0, 0, 0, 1)).derive(4) == CPoly.zero()


def test_derivative_hand_value():
    # d^2/dc^2 (32 c^2 - 5) = 64
    assert CPoly((-5, 0, 32)).derive(2) == CPoly((64,))


def test_canonical_trailing_zeros():
    p = CPoly((1, 2, 0, 0))
    assert len(p.coeffs) == 2
    assert p.degree == 1


def test_zero_degree_is_minus_inf():
    assert CPoly.zero().degree == float("-inf")
    assert not CPoly((0, 0))


def test_degree_multiplicative():
    random.seed(20240811)
    for _ in range(50):
        p = CPoly([Fraction(random.randint(-5, 5), random.randint(1, 5))
                   for _ in range(random.randint(1, 6))])
        q = CPoly([Fraction(random.randint(-5, 5), random.randint(1, 5))
                   for _ in range(random.randint(1, 6))])
        if p and q:
            assert (p * q).degree == p.degree + q.degree


def test_distributivity_fuzz():
    random.seed(7)
    for _ in range(60):
        def rnd():
            return CPoly([Fraction(random.randint(-9, 9), random.randint(1, 9))
                          for _ in range(random.randint(0, 5))])
        p, q, s = rnd(), rnd(), rnd()
        assert (p + q) * s == p * s + q * s


def test_parity():
    assert CPoly((1, 0, -3)).parity() == 0
    assert CPoly((0, 2, 0, 5)).parity() == 1
    assert CPoly((1, 1)).parity() is None
    assert CPoly.zero().parity() is None


def test_evaluation():
    p = CPoly((-5, 0, 32))
    assert p(Fraction(1, 2)) == 3


def test_serialization_roundtrip():
    p = CPoly((Fraction(-5, 35), 0, Fraction(32, 35)))
    strings = p.to_strings()
    assert strings == ["-1/7", "0", "32/35"]
    assert CPoly.from_strings(strings) == p


def test_rational_string_forms():
    assert CPoly((Fraction(3, 4), 5)).to_strings() == ["3/4", "5"]
    assert CPoly.from_strings(["-7/2"]) == CPoly((Fraction(-7, 2),))


def test_monomial_and_shift():
    assert CPoly.monomial(3) == CPoly((0, 0, 0, 1))
    assert C.shift(2) == CPoly.monomial(3)
    with pytest.raises(ValueError):
        CPoly.monomial(-1)
