"""Queries and reference computations that only the tests need: a CPoly's
coefficients as Fractions, its derivatives, parity, evaluation and parsing,
an operator's coefficient polynomials and leading symbol, two-term fits on
Fraction rows, and a direct Gram matrix."""

from fractions import Fraction
from itertools import accumulate
from operator import mul

from superpoly.errors import ParameterError
from superpoly.linalg import solve_exact
from superpoly.ode import indicial_factors, is_resonant
from superpoly.poly import CPoly, shift_symbols


def coefficients(p: CPoly) -> tuple:
    """p's coefficients as Fractions, index = power of c."""
    return tuple(Fraction(a, p.den) for a in p.num)


def coefficient(p: CPoly, power: int) -> Fraction:
    """The coefficient of c^power in p, 0 beyond its degree."""
    return Fraction(p.num[power], p.den) if 0 <= power < len(p.num) else Fraction(0)


def leading(p: CPoly) -> Fraction:
    """The leading coefficient of a nonzero p."""
    if not p.num:
        raise ValueError("zero polynomial has no leading coefficient")
    return Fraction(p.num[-1], p.den)


def fraction_two_term_fit(*triples):
    """(x, y) with p = x q1 + y q2 for every (p, q1, q2), or None: solve_exact
    on one Fraction row per coefficient."""
    rows, rhs = [], []
    for p, q1, q2 in triples:
        for i in range(max(len(p), len(q1), len(q2))):
            rows.append([coefficient(q1, i), coefficient(q2, i)])
            rhs.append(coefficient(p, i))
    return solve_exact(rows, rhs)


def derive(p: CPoly, order: int) -> CPoly:
    """p's exact order-th derivative: the reference CPoly.act is checked against."""
    if order < 0:
        raise ValueError("order must be >= 0")
    cs = p.num
    for _ in range(order):
        cs = [cs[i] * i for i in range(1, len(cs))]
    return CPoly(cs, p.den)


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


def indicial_value(family_type, r, m, n, s) -> int:
    """The product of the certified indicial factors at s."""
    v = 1
    for slope, intercept in indicial_factors(family_type, r, m, n):
        v *= slope * s + intercept
    return v


def operator_coefficients(op) -> tuple:
    """(coeff0, ..., coeff4): the c-polynomial multiplying d^i/dc^i, one per table row."""
    return tuple(CPoly(row) for row in op.table)


def leading_symbol(op, s) -> Fraction:
    """Coefficient of c^s in op(c^s): the shift-0 symbol I(s) of its table."""
    if s < 0:
        raise ParameterError("s must be >= 0")
    return Fraction(shift_symbols(op.table, [s])[0][0])


def resonant_pairs(r_range, m_range):
    return [(r, m) for r in r_range for m in m_range if is_resonant(r, m)]


def reference_gram(fd, N: int) -> dict:
    """gram_check's report from every <p_i, p_j> summed directly in Fractions."""
    findings = []
    diag = []
    norms = list(accumulate(fd.a[1:N + 1], mul, initial=Fraction(1)))
    for i in range(N + 1):
        for j in range(i, N + 1):
            val = Fraction(0)
            for s, xs in enumerate(coefficients(fd.monic[i])):
                if not xs:
                    continue
                for t, yt in enumerate(coefficients(fd.monic[j])):
                    if yt:
                        val += xs * yt * fd.moments[s + t]
            if i == j:
                diag.append(val)
                if val != norms[i] or val <= 0:
                    findings.append({"kind": "norm-violation", "i": i,
                                     "value": str(val), "expected": str(norms[i])})
            elif val != 0:
                findings.append({"kind": "orthogonality-violation",
                                 "i": i, "j": j, "value": str(val)})
    return {
        "N": N,
        "offdiag_zero": not any(f["kind"] == "orthogonality-violation" for f in findings),
        "diag": [str(x) for x in diag],
        "findings": findings,
        "pass": not findings,
    }


def reference_moments(a, order: int):
    """moment_j = (J^j)_00 for j <= order, iterating v <- J v from e_0 in Fractions."""
    cap = order // 2
    v = [Fraction(1)] + [Fraction(0)] * cap
    out = [Fraction(1)]
    for _ in range(order):
        nxt = [Fraction(0)] * (cap + 1)
        for t in range(cap + 1):
            if v[t]:
                if t + 1 <= cap:
                    nxt[t + 1] += v[t]
                if t >= 1:
                    nxt[t - 1] += a[t] * v[t]
        v = nxt
        out.append(v[0])
    return out
