"""Fourth-order operators in c for the two canonical families.

Both operators share the leading structure

    (c^2-1)^2 m^2 r^4 d^4  +  10 c (c^2-1) m^2 r^4 d^3
        + (X c^2 + Y) d^2  +  Z c d  +  W,

with (W, X, Y, Z) scalar in (r, m, n) per family type; the type-2 scalars
carry the correction Delta = r^2 (r-2) m (2mn - 7mr + 2m + 4r), which
vanishes for r = 2 and wherever 2mn - 7mr + 2m + 4r = 0.  An `OdeOperator`
is any coefficient table; `build_operator` writes the families' once.  They
send c^s to c^s, c^(s-2) and c^(s-4) only; applying one (`CPoly.act`), its
leading symbol I(s) and its polynomial kernel all read the table's
per-shift symbols (`poly.shift_symbols`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Literal, Optional, Sequence, Tuple

from .errors import ParameterError
from .families import Family, FamilyType, _check_params, canonical_j0, generate
from .linalg import nullspace
from .poly import CPoly, shift_symbols


def delta_correction(r: int, m: int, n: int) -> int:
    return r * r * (r - 2) * m * (2 * m * n - 7 * m * r + 2 * m + 4 * r)


def scalar_coefficients(family_type: FamilyType, r: int, m: int, n: int) -> Tuple[int, int, int, int]:
    """(W, X, Y, Z) for the requested family type; integer +, - and * only,
    n on the left of every + and -, so n = CPoly((0, 1)) gives them in n."""
    _check_params(r, m)
    if family_type == 1:
        W = n * (n - 2 * r) * (m * (n - 2 * r + 2) + 2 * r) * (m * (n - 4 * r + 2) + 2 * r)
        X = r * r * (-2 * m * m * ((n + 2) * n + 2)
                     + 4 * m * r * (m * (2 * n + 3) - n - 2)
                     + r * r * (3 * m * (5 * m + 4) - 4))
        Y = r * r * (2 * m * m * ((n + 2) * n + 2)
                     - 4 * m * r * (m * (2 * n + 3) - n - 2)
                     - 16 * m * r * r)
        Z = -3 * r * r * (m * m * (-8 * n * r + 2 * (n + 2) * n + 5 * r * r - 12 * r + 4)
                          + 4 * m * r * (n - 3 * r + 2) + 4 * r * r)
    elif family_type == 2:
        D = delta_correction(r, m, n)
        W = (n * n - r * r) * (m * (n - 5 * r + 2) + 2 * r) * (m * (n - 3 * r + 2) + 2 * r)
        X = -2 * r * r * (m * m * ((n - r) * (n - 2 * r) - 10 * r * r)
                          + 2 * m * r * (n - 3 * r) + 2 * r * r) + D
        Y = (2 * r * r * (m * m * ((n - r) * (n - 2 * r) - (2 * r * r + r))
                          + 2 * m * r * (n - 4 * r))
             - r * r * (r - 2) * m * (2 * m * n - 6 * m * r + 2 * m + 4 * r))
        Z = -3 * r * r * (2 * m * m * (n - r) * (n - 2 * r)
                          + 4 * m * r * (n - 3 * r) + 4 * r * r) + 3 * D
    else:
        raise ParameterError(f"family_type must be 1 or 2, got {family_type}")
    return W, X, Y, Z


class OdeOperator:
    """sum_i table[i](c) d^i/dc^i: row i holds the c-coefficients, low power
    first, of the factor of d^i/dc^i (`CPoly.act`'s form), as ints, or at
    n = CPoly((0, 1)) as polynomials in n (`fitting.operator_vector`)."""

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table = table

    def apply(self, p: CPoly) -> CPoly:
        """The exact image of p."""
        return p.act(self.table)


def build_operator(family_type: FamilyType, r: int, m: int, n: int) -> OdeOperator:
    """L_n of the family type: the scalars (W, X, Y, Z) of scalar_coefficients
    below the two leading rows both types share, with M = m^2 r^4."""
    W, X, Y, Z = scalar_coefficients(family_type, r, m, n)
    M = m * m * r ** 4
    return OdeOperator(((W,), (0, Z), (Y, 0, X),
                        (0, -10 * M, 0, 10 * M),  # 10 M c (c^2 - 1)
                        (M, 0, -2 * M, 0, M)))  # M (c^2 - 1)^2


def align_index(fam: Family, family_type: FamilyType) -> Optional[int]:
    """The shift delta with n = k + delta, searched over {0, r, 2r}; None if
    the family has fewer than three nonzero members or no shift aligns.

    Certified by exact annihilation of the first three nonzero members;
    deterministic: the smallest admissible delta.  fit-ode searches, since a
    non-canonical seed may align at another shift or at none; the scans fix
    delta = 2r (n is the generating-function z-exponent k + 2r).
    """
    r, m = fam.r, fam.m
    members = fam.nonzero_members()[:3]
    if len(members) < 3:
        return None
    return next((d for d in (0, r, 2 * r)
                 if all(build_operator(family_type, r, m, k + d).apply(p).is_zero()
                        for k, p in members)), None)


# ---------------------------------------------------------------------------
# indicial data
# ---------------------------------------------------------------------------

def indicial_factors(family_type: FamilyType, r: int, m: int, n: int) -> List[Tuple[int, int]]:
    """The four linear factors (slope, intercept) of I(s), slope*s + intercept.

    Type 1 is the printed factorization; for type 2 the printed one holds iff
    Delta = 0, so the factors certified against the operator are used:

        type 1: (sr+n)(sr-n+2r)(smr-mn+4mr-2m-2r)(smr+mn-2mr+2m+2r)
        type 2: (sr-n+r)(sr+n+r)(smr-mn+5mr-2m-2r)(smr+mn-3mr+2m+2r)

    (the type-2 printed middle factors smr-mn+4mr-2r and smr+mn-2mr+2r are
    these shifted by -/+ m(r-2), so the printed product is
    I(s) - (Delta / r^2)(sr-n+r)(sr+n+r): the two agree iff Delta = 0, at
    r = 2, where the factors coincide, or where 2mn - 7mr + 2m + 4r = 0,
    where the shifts swap them).
    """
    _check_params(r, m)
    if family_type == 1:
        return [(r, n), (r, -n + 2 * r),
                (m * r, -m * n + 4 * m * r - 2 * m - 2 * r),
                (m * r, m * n - 2 * m * r + 2 * m + 2 * r)]
    return [(r, -n + r), (r, n + r),
            (m * r, -m * n + 5 * m * r - 2 * m - 2 * r),
            (m * r, m * n - 3 * m * r + 2 * m + 2 * r)]


def printed_indicial_factors(family_type: FamilyType, r: int, m: int, n: int) -> List[Tuple[int, int]]:
    """The published factorizations (which for type 2 hold iff Delta = 0)."""
    if family_type == 1:
        return indicial_factors(1, r, m, n)
    return [(r, -n + r), (r, n + r),
            (m * r, -m * n + 4 * m * r - 2 * r),
            (m * r, m * n - 2 * m * r + 2 * r)]


def _factor_product(factors: Sequence[Tuple[int, int]], s: int) -> int:
    v = 1
    for slope, intercept in factors:
        v *= slope * s + intercept
    return v


def is_resonant(r: int, m: int) -> bool:
    """Extra nonnegative integer indicial root appears iff 1/r + 1/m = 1/2."""
    return Fraction(1, r) + Fraction(1, m) == Fraction(1, 2)


def indicial(family_type: FamilyType, r: int, m: int, n: int) -> dict:
    """Roots of I(s) with multiplicity, admissible polynomial degrees, resonance.

    I(s) and both factorized products have degree 4 in s, so their values at
    s = 0..4 decide whether they are equal: the certified factors must
    reproduce I, and the printed ones match it iff Delta = 0.
    """
    symbol = shift_symbols(build_operator(family_type, r, m, n).table, range(5))[0]

    def is_symbol(factors) -> bool:
        return [_factor_product(factors, s) for s in range(5)] == symbol
    factors = indicial_factors(family_type, r, m, n)
    if not is_symbol(factors):
        raise ArithmeticError(f"indicial factors of type {family_type} at "
                              f"(r, m, n) = ({r}, {m}, {n}) disagree with the operator")
    roots: dict = {}
    for slope, intercept in factors:
        root = Fraction(-intercept, slope)
        roots[root] = roots.get(root, 0) + 1
    return {
        "family_type": family_type, "r": r, "m": m, "n": n,
        "roots": [{"root": str(root), "multiplicity": mult}
                  for root, mult in sorted(roots.items())],
        "admissible_degrees": sorted(int(root) for root in roots
                                     if root.denominator == 1 and root >= 0),
        "resonant": is_resonant(r, m),
        "matches_printed_factorization": is_symbol(
            printed_indicial_factors(family_type, r, m, n)),
    }


# ---------------------------------------------------------------------------
# polynomial kernel
# ---------------------------------------------------------------------------

def polynomial_kernel(op: OdeOperator, degree_bound: int,
                      parity: Literal["even", "odd", "both"] = "both") -> List[CPoly]:
    """Exact basis of {p : deg p <= bound, requested parity, op(p) = 0}.

    With I, J and K the table's symbols at shifts 0, -2 and -4 (zero where
    it has none; any other shift is a ParameterError), coefficient t of
    op(p) is I(t) a_t + J(t+2) a_(t+2) + K(t+4) a_(t+4), so the a_s are
    solved downward from the top power.  Where I(s) != 0, a_s is fixed by
    the two above it.  Where I(s) = 0, a_s is a free parameter and the
    equation at t = s constrains the parameters above it.  I has degree 4 in
    s, so the constraints have at most 4 columns; they go through
    `nullspace`, the one elimination path.  Each parametric solution is 1 at
    its own power, 0 at the other parameters and 0 above its own power, so a
    constraint kernel vector maps to the reduced-echelon basis vector of the
    operator's matrix on the monomials, up to the first-nonzero-is-1 scale.
    """
    if degree_bound < 0:
        raise ParameterError("degree_bound must be >= 0")
    if parity not in ("even", "odd", "both"):
        raise ParameterError(f'parity must be "even", "odd" or "both", got {parity!r}')
    powers = range(1 if parity == "odd" else 0, degree_bound + 1,
                   1 if parity == "both" else 2)
    symbols = shift_symbols(op.table, range(degree_bound + 5))
    if set(symbols) - {0, -2, -4}:
        raise ParameterError(f"polynomial_kernel solves shifts 0, -2 and -4 only; "
                             f"the table has {sorted(symbols)}")
    diag, sub2, sub4 = (symbols.get(d, [0] * (degree_bound + 5)) for d in (0, -2, -4))
    params = [s for s in powers if diag[s] == 0]
    if not params:
        return []
    zero = [Fraction(0)] * len(params)
    coords = {}  # power s -> a_s as a vector over the parameters
    constraints = []
    for s in reversed(powers):
        above = [-(sub2[s + 2] * x + sub4[s + 4] * y)
                 for x, y in zip(coords.get(s + 2, zero), coords.get(s + 4, zero))]
        if s in params:
            constraints.append(above)
            coords[s] = [Fraction(int(s == t)) for t in params]
        else:
            d = diag[s]
            coords[s] = [x / d for x in above]
    out = []
    for u in nullspace(constraints, len(params)):
        coeffs = [Fraction(0)] * (degree_bound + 1)
        for s in powers:
            coeffs[s] = sum(map(mul, u, coords[s]), Fraction(0))
        first = next(x for x in coeffs if x)
        out.append(CPoly(x / first for x in coeffs))
    return out


# ---------------------------------------------------------------------------
# residual scan
# ---------------------------------------------------------------------------

def scan_cell(family_type: FamilyType, r: int, m: int, n_points="paper") -> dict:
    """Verify apply(L_n, P_{n-2r}) = 0 for one (r, m) cell of the canonical family.

    n is P_k's z-exponent k + 2r, the paper's index map, checked at every n.
    n_points: "paper" means n = 5r..9r (sampled evidence, not a proof for all
    n: P_{n-2r} is not polynomial in n); "all" means every member to
    k = 12r; a sequence of ints, the given n.  The family is generated once,
    to the deepest member read (k = 7r for the paper points, never below 0).
    """
    delta = 2 * r
    if n_points == "paper":
        ns = [t * r for t in range(5, 10)]
    elif n_points == "all":
        ns = [k + delta for k in range(12 * r + 1)]
    elif isinstance(n_points, str):
        raise ParameterError(f'n_points must be "paper", "all" or a sequence of n, '
                             f"got {n_points!r}")
    else:
        ns = list(n_points)
    fam = generate(r, m, canonical_j0(family_type, r), max([0] + [n - delta for n in ns]))
    checked, failures = [], []
    for n in ns:
        k = n - delta
        if k < -2 * r:
            continue  # before the initial block: no member
        if not fam[k]:
            continue  # off the support lattice: nothing to check
        checked.append(n)
        res = build_operator(family_type, r, m, n).apply(fam[k])
        if not res.is_zero():
            failures.append({"r": r, "m": m, "n": n, "residual": res.to_strings()})
    if not checked:
        raise ParameterError(f"no nonzero member P_(n-{delta}) at the requested n "
                             f"for r={r}, m={m}: nothing to verify")
    return {"r": r, "m": m, "delta": delta, "checked_n": checked,
            "pass": not failures, "failures": failures}


def residual_scan(family_type: FamilyType, r_range: Sequence[int], m_range: Sequence[int],
                  n_points="paper") -> dict:
    """`scan_cell` over every (r, m) in r_range x m_range, r-major, as one grid report."""
    cells = [scan_cell(family_type, r, m, n_points) for r in r_range for m in m_range]
    if not cells:
        raise ParameterError("empty (r, m) grid: nothing to verify")
    return {
        "family_type": family_type,
        "cells": cells,
        "summary": {"cells": len(cells), "pass": all(cell["pass"] for cell in cells)},
    }
