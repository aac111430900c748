"""Dense univariate polynomials in c over exact rationals.

Coefficients are `fractions.Fraction`, index = power of c, no trailing zeros
stored.  Everything is immutable and exact; there is no floating-point path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

NEG_INF = float("-inf")


class CPoly:
    """Polynomial in c with exact rational coefficients, canonical form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(a) for a in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "CPoly":
        return CPoly()

    @staticmethod
    def one() -> "CPoly":
        return CPoly((1,))

    @staticmethod
    def monomial(power: int, coeff=1) -> "CPoly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return CPoly([0] * power + [coeff])

    # -- basic queries ------------------------------------------------
    @property
    def degree(self):
        """Degree, -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def parity(self):
        """0 if even, 1 if odd, None if mixed or zero."""
        if not self.coeffs:
            return None
        powers = {i % 2 for i, a in enumerate(self.coeffs) if a != 0}
        return powers.pop() if len(powers) == 1 else None

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return CPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))

    def __sub__(self, other: "CPoly") -> "CPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return CPoly((a[i] if i < len(a) else Fraction(0))
                     - (b[i] if i < len(b) else Fraction(0))
                     for i in range(n))

    def __neg__(self) -> "CPoly":
        return CPoly(-a for a in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CPoly):
            if not self.coeffs or not other.coeffs:
                return CPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return CPoly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "CPoly":
        s = Fraction(s)
        if s == 0:
            return CPoly()
        return CPoly(a * s for a in self.coeffs)

    def shift(self, powers: int) -> "CPoly":
        """Multiply by c**powers."""
        if not self.coeffs:
            return CPoly()
        return CPoly([Fraction(0)] * powers + list(self.coeffs))

    def derive(self, order: int = 1) -> "CPoly":
        """Exact order-th derivative."""
        if order < 0:
            raise ValueError("order must be >= 0")
        cs: Sequence[Fraction] = self.coeffs
        for _ in range(order):
            cs = [cs[i] * i for i in range(1, len(cs))]
            if not cs:
                break
        return CPoly(cs)

    def band(self, diag, sub2, sub4=None) -> "CPoly":
        """Image under c^s -> diag(s) c^s + sub2(s) c^(s-2) + sub4(s) c^(s-4).

        diag, sub2 and sub4 are functions of the power s with exact values;
        coefficient s of the result is diag(s) p[s] + sub2(s+2) p[s+2]
        + sub4(s+4) p[s+4].  Every operator in the package has this shape.
        """
        cs = self.coeffs
        out = [diag(s) * a if a else a for s, a in enumerate(cs)]
        for f, lower in ((sub2, 2), (sub4, 4)):
            if f is not None:
                for s in range(lower, len(cs)):
                    if cs[s]:
                        out[s - lower] += f(s) * cs[s]
        return CPoly(out)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    # -- equality / hashing / display ----------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, CPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CPoly(0)"
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}*c" if a != 1 else "c")
            else:
                terms.append(f"{a}*c^{i}" if a != 1 else f"c^{i}")
        return "CPoly(" + " + ".join(terms) + ")"

    # -- serialization --------------------------------------------------
    def to_strings(self) -> list[str]:
        """JSON form: "p/q" in lowest terms ("p" when q = 1), index = power of c."""
        return [str(a) for a in self.coeffs]

    @staticmethod
    def from_strings(strings: Iterable[str]) -> "CPoly":
        return CPoly(Fraction(s) for s in strings)


#: the polynomial c itself
C = CPoly.monomial(1)
