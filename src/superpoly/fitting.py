"""Blind fitting of order-4 annihilating operators with n-polynomial scalars.

The ansatz annihilates members P_k simultaneously under an affine index map
n(k) = k + delta: each coefficient of each c-power of each derivative order is
an unknown polynomial in n of degree <= 4.  The exact nullspace of the
resulting linear system is the candidate space; each candidate is re-verified
on held-out members.  A member's rows (`_member_rows`) are the one place a
fitted operator acts: the fit stacks them, and the re-verification checks
each kernel vector against them with linalg's exact row check.

For the type-1 family the kernel is one-dimensional and recovers the closed
operator up to scale.  Type-2 families admit a genuinely multi-dimensional
kernel (their second derivatives satisfy a classical second-order equation,
so factorizable shaped operators annihilate too); the closed operator is then
certified by exact membership in the fitted span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import perm
from typing import List, Sequence, Tuple

from .errors import FitError
from .families import Family
from .linalg import _first_violated_row, nullspace, solve_exact
from .ode import build_operator
from .poly import CPoly

N_DEGREE = 4  # degree cap of the unknown scalars as polynomials in n
CLOSED_BOUNDS = (0, 1, 2, 3, 4)  # c-degree bounds of the closed operator, by derivative order


class FitResult:
    """The kernel of a fit: `candidates` are the kernel vectors that also
    annihilate every held-out member.  A vector is the (i, j) blocks in
    order, i = 0.. and j = 0..bounds[i], each the N_DEGREE + 1 coefficients,
    low power first, of the n-polynomial at c^j d^i/dc^i."""

    def __init__(self, bounds: Tuple[int, ...], delta: int, candidates: List[List[Fraction]],
                 kernel_dim: int, unknowns: int, fit_k: List[int], holdout_k: List[int]):
        self.bounds, self.delta, self.candidates = bounds, delta, candidates
        self.kernel_dim, self.unknowns = kernel_dim, unknowns
        self.fit_k, self.holdout_k = fit_k, holdout_k

    def to_json(self) -> dict:
        def n_polys(vec):  # [i][j]: the n-polynomial at c^j d^i/dc^i, low n-power first
            it = iter(vec)
            return [[[str(w) for w in islice(it, N_DEGREE + 1)] for _ in range(b + 1)]
                    for b in self.bounds]
        return {
            "kernel_dim": self.kernel_dim,
            "rank": self.unknowns - self.kernel_dim,
            "unknowns": self.unknowns,
            "fit_k": self.fit_k,
            "holdout_k": self.holdout_k,
            "candidates": [{"order": len(self.bounds) - 1, "bounds": list(self.bounds),
                            "delta": self.delta, "n_polys": n_polys(vec)}
                           for vec in self.candidates],
        }


def _member_rows(p: CPoly, n: int, bounds: Sequence[int]) -> List[List[int]]:
    """How the fitted operators act on the member p at index n, as integer rows.

    Row t is den(p) times the c^t coefficient of sum w_(i,j,l) n^l c^j d^i p/dc^i,
    linear in the unknowns w; zero rows are dropped.  d^i c^s is
    s!/(s-i)! c^(s-i), read straight from p.num.  The fit stacks these
    rows, and a kernel vector annihilates p iff it is orthogonal to each.
    """
    width = N_DEGREE + 1
    npows = [n ** l for l in range(width)]
    block = [[0] * (width * sum(b + 1 for b in bounds)) for _ in range(len(p.num) + max(bounds))]
    col = 0
    for i, b in enumerate(bounds):
        # each c^(s-i) of d^i p times n^0..n^N_DEGREE, shared by every c^j
        terms = [(s - i, [a * perm(s, i) * x for x in npows])
                 for s, a in enumerate(p.num) if a and s >= i]
        for j in range(b + 1):
            for t, products in terms:  # block (i, j) meets row t + j once per t
                block[t + j][col:col + width] = products
            col += width
    return [row for row in block if any(row)]


def fit_ode(fam: Family, coeff_degree_bounds: Sequence[int] = CLOSED_BOUNDS,
            delta: int = 0, holdout: int = 4) -> FitResult:
    """Fit annihilating operators to the generated members of a family.

    coeff_degree_bounds[i] is the c-degree bound of the coefficient of the
    i-th derivative, so the fitted order is len(coeff_degree_bounds) - 1 (the
    shape of the closed fourth-order equations is CLOSED_BOUNDS).  The last
    `holdout` nonzero members are excluded from the fit and used to re-verify
    every kernel basis vector; at least one is.
    """
    if holdout < 1:
        raise FitError(f"need holdout >= 1 to re-verify the candidates, got {holdout}")
    bounds = tuple(coeff_degree_bounds)
    if not bounds:
        raise FitError("need a degree bound for at least derivative order 0")
    members = fam.nonzero_members()
    if len(members) < holdout + 6:
        raise FitError(
            f"{fam!r} has only {len(members)} members; generate more "
            f"to overdetermine the system")
    fit_members = members[:len(members) - holdout]
    hold_members = members[len(members) - holdout:]

    ncols = (N_DEGREE + 1) * sum(b + 1 for b in bounds)  # one n-polynomial per (i, j)
    rows = [row for k, p in fit_members for row in _member_rows(p, k + delta, bounds)]
    if len(rows) < ncols:
        raise FitError(f"fitting system underdetermined: {len(rows)} equations "
                       f"for {ncols} unknowns")
    basis = nullspace(rows, ncols)
    held = [row for k, p in hold_members for row in _member_rows(p, k + delta, bounds)]
    candidates = [vec for vec in basis if _first_violated_row(held, [vec]) is None]
    return FitResult(bounds, delta, candidates, kernel_dim=len(basis), unknowns=ncols,
                     fit_k=[k for k, _ in fit_members],
                     holdout_k=[k for k, _ in hold_members])


def operator_vector(family_type, r: int, m: int) -> List[Fraction]:
    """The closed operator as a vector in the coordinates of a CLOSED_BOUNDS fit.

    Built once at the polynomial n = CPoly((0, 1)), each coefficient-table
    entry is exact in n and its n-coefficients are its coordinates, so the
    embedding holds for every n; an entry above degree N_DEGREE in n raises
    FitError.  Used to certify span membership of a fitted kernel.
    """
    vec = []
    for row in build_operator(family_type, r, m, CPoly((0, 1))).table:
        for entry in row:
            q = CPoly.zero() + entry  # an int entry is a constant in n
            if len(q) > N_DEGREE + 1:
                raise FitError(f"operator coefficient of degree {q.degree} in n, "
                               f"above {N_DEGREE}")
            vec.extend(Fraction(a, q.den) for a in q.num + (0,) * (N_DEGREE + 1 - len(q)))
    return vec


def in_span(candidates: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Exact membership of the target vector in the span of the fitted kernel vectors."""
    # the candidates are the columns: one row per coordinate
    rows = [[vec[j] for vec in candidates] for j in range(len(target))]
    return solve_exact(rows, target) is not None
