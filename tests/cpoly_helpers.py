"""CPoly queries that only the tests need: parity, evaluation, parsing."""

from fractions import Fraction

from superpoly import CPoly


def parity(p: CPoly):
    """0 if even, 1 if odd, None if mixed or zero."""
    powers = {i % 2 for i, a in enumerate(p.num) if a}
    return powers.pop() if len(powers) == 1 else None


def evaluate(p: CPoly, x) -> Fraction:
    """p(x) for a rational x, by Horner on the integer numerators."""
    if not p.num:
        return Fraction(0)
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    acc, bpow = 0, 1  # Horner on sum num[i] a^i b^(n-1-i)
    for c in reversed(p.num):
        acc = acc * a + c * bpow
        bpow *= b
    return Fraction(acc, p.den * (bpow // b))


def from_strings(strings) -> CPoly:
    """The inverse of CPoly.to_strings."""
    return CPoly(Fraction(s) for s in strings)
