"""Blind fitting of order-4 annihilating operators with n-polynomial scalars.

The ansatz annihilates members P_k simultaneously under an affine index map
n(k) = k + delta: each coefficient of each c-power of each derivative order is
an unknown polynomial in n of degree <= 4.  The exact nullspace of the
resulting linear system is the candidate space; candidates are re-verified on
held-out members.

For the type-1 family the kernel is one-dimensional and recovers the closed
operator up to scale.  Type-2 families admit a genuinely multi-dimensional
kernel (their second derivatives satisfy a classical second-order equation,
so factorizable shaped operators annihilate too); the closed operator is then
certified by exact membership in the fitted span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import FitError
from .families import Family
from .linalg import nullspace, solve_exact
from .ode import build_operator
from .poly import CPoly

N_DEGREE = 4  # degree cap of the unknown scalars as polynomials in n


@dataclass(frozen=True)
class FitCandidate:
    """One fitted operator: per derivative order, per c-power, an n-polynomial."""

    order: int
    bounds: Tuple[int, ...]
    delta: int
    # table[i][j] = coefficients (low n-power first) of the n-polynomial
    # multiplying c^j d^i/dc^i
    table: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    def materialize(self, n: int) -> List[CPoly]:
        """Concrete c-coefficient polynomials [order 0 .. order] at index n."""
        out = []
        for i in range(self.order + 1):
            coeffs = []
            for j in range(self.bounds[i] + 1):
                coeffs.append(sum((w * Fraction(n) ** l
                                   for l, w in enumerate(self.table[i][j])), Fraction(0)))
            out.append(CPoly(coeffs))
        return out

    def apply(self, p: CPoly, n: int) -> CPoly:
        res = CPoly.zero()
        d = p
        for i, coeff in enumerate(self.materialize(n)):
            res = res + coeff * d
            d = d.derive(1)
        return res

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "bounds": list(self.bounds),
            "delta": self.delta,
            "n_polys": [[[str(w) for w in jpoly] for jpoly in row] for row in self.table],
        }


@dataclass(frozen=True)
class FitResult:
    candidates: Tuple[FitCandidate, ...]
    kernel_dim: int
    rank: int
    unknowns: int
    fit_k: Tuple[int, ...]
    holdout_k: Tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "rank": self.rank,
            "unknowns": self.unknowns,
            "fit_k": list(self.fit_k),
            "holdout_k": list(self.holdout_k),
            "candidates": [c.to_json() for c in self.candidates],
        }


def _unknown_layout(bounds: Sequence[int]):
    index = {}
    pos = 0
    for i, b in enumerate(bounds):
        for j in range(b + 1):
            for l in range(N_DEGREE + 1):
                index[(i, j, l)] = pos
                pos += 1
    return index, pos


def fit_ode(fam: Family, coeff_degree_bounds: Sequence[int] = (0, 1, 2, 3, 4),
            delta: int = 0, holdout: int = 4) -> FitResult:
    """Fit annihilating operators to the generated members of a family.

    coeff_degree_bounds[i] is the c-degree bound of the coefficient of the
    i-th derivative, so the fitted order is len(coeff_degree_bounds) - 1 (the
    shape of the closed fourth-order equations is (0, 1, 2, 3, 4)).  The last
    `holdout` nonzero members are excluded from the fit and used to re-verify
    every kernel basis vector; at least one is.
    """
    if holdout < 1:
        raise FitError(f"need holdout >= 1 to re-verify the candidates, got {holdout}")
    bounds = tuple(coeff_degree_bounds)
    if not bounds:
        raise FitError("need a degree bound for at least derivative order 0")
    order = len(bounds) - 1
    members = fam.nonzero_members()
    if len(members) < holdout + 6:
        raise FitError(
            f"family {fam.params} has only {len(members)} members; generate more "
            f"to overdetermine the system")
    fit_members = members[:len(members) - holdout]
    hold_members = members[len(members) - holdout:]

    index, ncols = _unknown_layout(bounds)
    rows: List[List[int]] = []
    for k, p in fit_members:
        # the member's block times its den: integer rows with the same kernel
        nval = k + delta
        npows = [nval ** l for l in range(N_DEGREE + 1)]
        derivs = [p]
        for _ in range(order):
            derivs.append(derivs[-1].derive(1))
        height = max((len(derivs[i]) + bounds[i]) for i in range(order + 1) if derivs[i]) \
            if any(derivs) else 0
        block = [[0] * ncols for _ in range(height)]
        for i in range(order + 1):
            scale = p.den // derivs[i].den
            coeffs = [a * scale for a in derivs[i].num]
            for j in range(bounds[i] + 1):
                for t, a in enumerate(coeffs):
                    if a:
                        for l in range(N_DEGREE + 1):
                            block[t + j][index[(i, j, l)]] += a * npows[l]
        rows.extend(row for row in block if any(row))

    if len(rows) < ncols:
        raise FitError(f"fitting system underdetermined: {len(rows)} equations "
                       f"for {ncols} unknowns")
    basis = nullspace(rows, ncols)
    candidates = []
    for vec in basis:
        table = tuple(
            tuple(tuple(vec[index[(i, j, l)]] for l in range(N_DEGREE + 1))
                  for j in range(bounds[i] + 1))
            for i in range(order + 1))
        cand = FitCandidate(order=order, bounds=bounds, delta=delta, table=table)
        if all(cand.apply(p, k + delta).is_zero() for k, p in hold_members):
            candidates.append(cand)
    return FitResult(
        candidates=tuple(candidates),
        kernel_dim=len(basis),
        rank=ncols - len(basis),
        unknowns=ncols,
        fit_k=tuple(k for k, _ in fit_members),
        holdout_k=tuple(k for k, _ in hold_members),
    )


def operator_vector(family_type, r: int, m: int,
                    bounds: Sequence[int] = (0, 1, 2, 3, 4)) -> List[Fraction]:
    """The closed operator as a vector in the fit's unknown coordinates.

    Its c-coefficients are polynomial in n with degree <= 4, so the embedding
    is exact; used to certify span membership of a fitted kernel.
    """
    # interpolate each (i, j) entry from N_DEGREE+1 sample values of n
    index, ncols = _unknown_layout(bounds)
    samples = list(range(N_DEGREE + 1))
    vec = [Fraction(0)] * ncols
    coeff_lists = [build_operator(family_type, r, m, n).coefficients for n in samples]
    vrows = [[Fraction(n) ** l for l in range(N_DEGREE + 1)] for n in samples]
    for i in range(len(bounds)):
        for j in range(bounds[i] + 1):
            values = [coeff_lists[t][i][j] for t in range(len(samples))]
            sol = solve_exact(vrows, values)
            if sol is None:
                raise FitError("operator coefficient not polynomial of degree <= 4 in n")
            for l in range(N_DEGREE + 1):
                vec[index[(i, j, l)]] = sol[l]
    return vec


def in_span(candidates: Sequence[FitCandidate], target: Sequence[Fraction]) -> bool:
    """Exact membership of the target vector in the span of fitted candidates."""
    if not candidates:
        return False
    vecs = []
    for cand in candidates:
        flat = [w for row in cand.table for jpoly in row for w in jpoly]
        vecs.append(flat)
    ncols = len(vecs) + 1
    rows = [[v[j] for v in vecs] + [Fraction(t)] for j, t in enumerate(target)]
    for ker in nullspace(rows, ncols):
        if ker[-1] != 0:
            return True
    return False
