import random
from fractions import Fraction
from math import gcd

import pytest

from superpoly.families import stream
from superpoly.ode import build_operator
from superpoly.poly import CPoly, RationalStrings, shift_symbols

from cpoly_helpers import coefficient, coefficients, derive, evaluate, from_strings, parity


def test_difference_of_squares():
    p = CPoly((1, 1))   # c + 1
    q = CPoly((-1, 1))  # c - 1
    assert p * q == CPoly((-1, 0, 1))


def test_an_int_on_the_right_is_a_constant():
    p = CPoly((Fraction(1, 2), 3))
    assert p + 2 == p + CPoly((2,)) == CPoly((Fraction(5, 2), 3))
    assert p - 2 == p - CPoly((2,)) == CPoly((Fraction(-3, 2), 3))
    assert CPoly((-2,)) + 2 == CPoly.zero() and CPoly.zero() - 0 == CPoly.zero()


def test_additive_identity():
    p = CPoly((3, 0, Fraction(1, 2)))
    assert p + CPoly.zero() == p


def test_inverse_scaling():
    assert CPoly((0, 0, 3)).scale(Fraction(1, 3)) == CPoly((0, 0, 1))


def test_derivative_basic():
    assert derive(CPoly((0, 0, 0, 1)), 1) == CPoly((0, 0, 3))
    assert derive(CPoly((0, 0, 0, 1)), 4) == CPoly.zero()


def test_derivative_hand_value():
    # d^2/dc^2 (32 c^2 - 5) = 64
    assert derive(CPoly((-5, 0, 32)), 2) == CPoly((64,))


def test_derivative_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        derive(CPoly((1, 2)), -1)


def test_canonical_trailing_zeros():
    p = CPoly((1, 2, 0, 0))
    assert p.num == (1, 2) and p.den == 1
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
    assert parity(CPoly((1, 0, -3))) == 0
    assert parity(CPoly((0, 2, 0, 5))) == 1
    assert parity(CPoly((1, 1))) is None
    assert parity(CPoly.zero()) is None


def test_evaluation():
    p = CPoly((-5, 0, 32))
    assert evaluate(p, Fraction(1, 2)) == 3


def test_serialization_roundtrip():
    p = CPoly((Fraction(-5, 35), 0, Fraction(32, 35)))
    strings = p.to_strings()
    assert strings == ["-1/7", "0", "32/35"]
    assert from_strings(strings) == p


def test_rational_string_forms():
    assert CPoly((Fraction(3, 4), 5)).to_strings() == ["3/4", "5"]
    assert from_strings(["-7/2"]) == CPoly((Fraction(-7, 2),))


def test_monomial_and_shift():
    assert CPoly.monomial(3) == CPoly((0, 0, 0, 1))
    assert CPoly.monomial(1).shift(2) == CPoly.monomial(3)
    with pytest.raises(ValueError):
        CPoly.monomial(-1)


# -- the integer representation against a plain-Fraction reference ---------
# Each reference below works on tuples of Fraction, low power first, with no
# trailing zeros; it is the arithmetic CPoly replaced, kept here to check it.

def ref_trim(cs):
    cs = [Fraction(a) for a in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                    for i in range(n))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_derive(a, order):
    for _ in range(order):
        a = [a[i] * i for i in range(1, len(a))]
    return ref_trim(a)


def ref_call(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def random_rational_coeffs(rng, length=None, big=False):
    length = rng.randint(0, 7) if length is None else length
    top = 10 ** 30 if big else 12

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-top, top), rng.randint(1, top))
    return [entry() for _ in range(length)]


def assert_canonical(p, reference):
    """p is in canonical form and holds exactly the reference coefficients."""
    assert isinstance(p.num, tuple) and all(type(a) is int for a in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    if not p.num:
        assert p.den == 1
    assert coefficients(p) == reference
    assert all(Fraction(a, p.den) == c for a, c in zip(p.num, reference))
    assert p.to_strings() == [str(c) for c in reference]
    assert type(p.to_strings()) is RationalStrings  # the writer skips escaping it
    built = CPoly(reference)
    assert built == p and hash(built) == hash(p)
    assert from_strings(p.to_strings()) == p


def test_integer_representation_matches_fraction_reference():
    rng = random.Random(20261018)
    for trial in range(300):
        big = trial % 3 == 0
        ca, cb = random_rational_coeffs(rng, big=big), random_rational_coeffs(rng, big=big)
        a, b = CPoly(ca), CPoly(cb)
        ra, rb = ref_trim(ca), ref_trim(cb)
        assert_canonical(a, ra)
        assert_canonical(b, rb)
        assert_canonical(a + b, ref_add(ra, rb))
        assert_canonical(a - b, ref_add(ra, rb, -1))
        assert_canonical(a - a, ())
        assert_canonical(a.scale(-1), ref_trim(-x for x in ra))
        assert_canonical(a * b, ref_mul(ra, rb))
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert_canonical(a.scale(s), ref_trim(x * s for x in ra))
        assert_canonical(a.scale(int(s.numerator)), ref_trim(x * s.numerator for x in ra))
        assert_canonical(s * a, ref_trim(x * s for x in ra))
        k = rng.randint(0, 3)
        assert_canonical(a.shift(k), ref_trim([0] * k + list(ra)) if ra else ())
        order = rng.randint(0, 5)
        assert_canonical(derive(a, order), ref_derive(ra, order))
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        assert evaluate(a, x) == ref_call(ra, x)
        n = rng.randint(-5, 5)
        assert evaluate(a, n) == ref_call(ra, n)
    # an integer polynomial with interior zeros, and a member of the deep
    # family, whose coefficients alternate zeros with numbers of hundreds of
    # digits, each reduced on its own
    assert_canonical(CPoly((5, 0, 0, -7, 0, 1)), ref_trim((5, 0, 0, -7, 0, 1)))
    k, deep = list(stream(2, 3, -4, 200))[-1]
    assert k == 200 and deep.den > 1 and 0 in deep.num
    assert_canonical(deep, coefficients(deep))


def ref_act(p, table):
    """The table's operator as coefficient polynomials times derivatives."""
    return sum((CPoly(row) * derive(p, i) for i, row in enumerate(table)), CPoly.zero())


def random_table(rng, top):
    # up to six rows; a row is empty or up to i + 3 entries long, so some
    # entries shift powers up
    lengths = [rng.choice((0, rng.randint(1, i + 3))) for i in range(rng.randint(0, 6))]
    return tuple(tuple(rng.randint(-top, top) for _ in range(n)) for n in lengths)


def test_act_matches_derivatives_and_products():
    rng = random.Random(4)
    fixed = [(), ((),), ((), (), (), (1,)), ((1, 2, 3),), ((0,), (), (0, 0, 0, 0, 5)),
             ((7,), (0, -3), (2, 0, -2))]
    for trial in range(300):
        top = 10 ** 30 if trial % 5 == 0 else 9
        table = fixed[trial] if trial < len(fixed) else random_table(rng, top)
        p = CPoly(random_rational_coeffs(rng, length=rng.randint(0, 9), big=trial % 3 == 0))
        assert_canonical(p.act(table), coefficients(ref_act(p, table)))
        assert CPoly.zero().act(table) == CPoly.zero()
        symbols = shift_symbols(table, range(7))
        for s in range(7):
            image = ref_act(CPoly.monomial(s), table)
            for d, f in symbols.items():
                assert f[s] == (coefficient(image, s + d) if s + d >= 0 else 0)
    # a deep member, whose coefficients run to hundreds of digits, under its
    # own operator and under a table with 30-digit entries
    k, deep = list(stream(2, 3, -4, 200))[-1]
    big = random_table(random.Random(5), 10 ** 30)
    for table in (build_operator(1, 2, 3, k + 4).table, big):
        assert_canonical(deep.act(table), coefficients(ref_act(deep, table)))
    assert deep.act(build_operator(1, 2, 3, k + 4).table) == CPoly.zero()


def test_integer_input_builds_no_fraction(monkeypatch):
    import superpoly.poly as poly

    def refuse(*args):
        raise AssertionError("Fraction built")
    monkeypatch.setattr(poly, "Fraction", refuse)
    p = CPoly((6, 0, -4, 0, 2))
    assert (p.num, p.den) == ((6, 0, -4, 0, 2), 1)
    q = CPoly([4, 6], 8)
    assert (q.num, q.den) == ((2, 3), 4)
    assert q.shift(1) + p.scale(5) - derive(q, 1) == CPoly([117, 2, -77, 0, 40], 4)
    assert (p * q).to_strings() == ["3", "9/2", "-2", "-3", "1", "3/2"]
    assert p.act(((0,), (0, 1), (1,))) == CPoly((-8, 0, 16, 0, 8))
    assert q.act(((1, 2), (0, 0, 3))) == CPoly([2, 7, 15], 4)


def test_constructor_rejects_nonpositive_den():
    with pytest.raises(ValueError):
        CPoly((1,), 0)
    with pytest.raises(ValueError):
        CPoly((1,), -3)
