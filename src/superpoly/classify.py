"""Taxonomy of the 2r unit initial conditions and the Gegenbauer reductions.

The kinds partition [-2r, -1]:

    A_type1               j0 = -2r
    A_prime_type2         j0 = -r
    B_linear_combination  j0 in [-2r+1, -r-1]
    C_case3               j0 = -1
    C_new                 j0 in [-r+1, -2]
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Literal, Optional, Tuple

from .errors import FitError, ParameterError
from .families import Family, _check_params, canonical_j0, generate
from .linalg import solve_exact
from .poly import CPoly

Kind = Literal["A_type1", "A_prime_type2", "B_linear_combination", "C_case3", "C_new"]


def seed_kind(r: int, m: int, j0: int) -> Kind:
    _check_params(r, m, j0)
    type1, type2 = canonical_j0(1, r), canonical_j0(2, r)
    if j0 == type1:
        return "A_type1"
    if j0 == type2:
        return "A_prime_type2"
    if j0 < type2:
        return "B_linear_combination"
    if j0 == -1:
        return "C_case3"
    return "C_new"


# ---------------------------------------------------------------------------
# type-B superposition against the two canonical families
# ---------------------------------------------------------------------------

def superposition_depth(r: int, members: int) -> int:  # the k superposition_fit generates to
    return (members + 6) * r


def _check_members(members: int) -> None:
    if members < 1:
        raise ParameterError(f"members must be at least 1, got {members}")


def _canonical_pair(r: int, m: int, members: int) -> Tuple[Family, Family]:
    """The type-1 and type-2 canonical families to the depth superposition_fit reads."""
    depth = superposition_depth(r, members)
    return tuple(generate(r, m, canonical_j0(t, r), depth) for t in (1, 2))


def _two_term_rows(p: CPoly, q1: CPoly, q2: CPoly, powers: Optional[List[int]] = None):
    """p = x q1 + y q2 at each power i of c (default all), times the lcm of the
    three denominators: integer rows [q1_i, q2_i] and right-hand sides p_i."""
    den = lcm(p.den, q1.den, q2.den)
    powers = range(max(len(p), len(q1), len(q2))) if powers is None else powers

    def column(q):
        return [q.num[i] * (den // q.den) if i < len(q.num) else 0 for i in powers]
    return [list(row) for row in zip(column(q1), column(q2))], column(p)


def superposition_fit(r: int, m: int, j0: int, members: int = 10,
                      canonical: Optional[Tuple[Family, Family]] = None) -> dict:
    """Fit (alpha, beta) with P_{j0,.} = alpha P_{-2r,.} + beta P_{-r,.} and certify.

    Degenerate cases: j0 = -2r -> (1, 0) and j0 = -r -> (0, 1), trivially
    certified.  For genuine type-B seeds the three families live on different
    support lattices mod r, so members are aligned by degree (the only
    parity-consistent pairing); the fit is solved exactly from the first two
    aligned members and certified on all the rest to superposition_depth.
    A failed certification is reported as a superposition-violation finding,
    never patched.  `canonical` is the (type-1, type-2) canonical pair to
    that depth, for a caller that fits several seeds; None generates it.
    The report's alpha and beta are strings, or None where the fit fails.
    Fewer than one member would certify a shrunken depth: ParameterError.
    """
    _check_members(members)

    def report(alpha, beta, certified_k, findings):
        return {"r": r, "m": m, "j0": j0,
                "alpha": None if alpha is None else str(alpha),
                "beta": None if beta is None else str(beta),
                "certified_k": certified_k, "findings": findings}
    kind = seed_kind(r, m, j0)
    if kind == "A_type1":
        return report(1, 0, [], [])
    if kind == "A_prime_type2":
        return report(0, 1, [], [])
    if kind != "B_linear_combination":
        raise ParameterError(f"j0={j0} is not in the type-B range for r={r}")

    fam_b = generate(r, m, j0, superposition_depth(r, members))
    fam_1, fam_2 = canonical or _canonical_pair(r, m, members)
    mem_b = fam_b.nonzero_members()
    by_degree_1 = {int(p.degree): p for _, p in fam_1.nonzero_members()}
    by_degree_2 = {int(p.degree): p for _, p in fam_2.nonzero_members()}

    triples = []
    for k, p in mem_b:
        d = int(p.degree)
        triples.append((k, p, by_degree_1.get(d, CPoly.zero()), by_degree_2.get(d, CPoly.zero())))
    if len(triples) < 3:
        raise FitError("not enough members to fit and certify")

    (rows_1, rhs_1), (rows_2, rhs_2) = (_two_term_rows(*t[1:]) for t in triples[:2])
    sol = solve_exact(rows_1 + rows_2, rhs_1 + rhs_2)
    if sol is None:
        return report(None, None, [], [{
            "kind": "fit-degeneracy",
            "detail": "the first two aligned members admit no (alpha, beta)"}])
    alpha, beta = sol
    certified, findings = [], []
    for k, p, q1, q2 in triples[2:]:
        if (p - q1.scale(alpha) - q2.scale(beta)).is_zero():
            certified.append(k)
        else:
            findings.append({
                "kind": "superposition-violation",
                "k": k,
                "detail": (f"P_({j0}),{k} != {alpha}*P_type1 + {beta}*P_type2 on the "
                           "degree-aligned members"),
            })
    return report(alpha, beta, certified, findings)


# ---------------------------------------------------------------------------
# Gegenbauer basis and reductions
# ---------------------------------------------------------------------------

def gegenbauer_ode_residual(m: int, n: int, y: CPoly) -> CPoly:
    """(1 - c^2) y'' - c (2/m + 3) y' + n (2/m + n + 2) y.

    Its table is m times the equation's, so that every entry is an integer;
    the result is divided by m once.
    """
    return y.act(((n * (2 + m * (n + 2)),), (0, -(2 + 3 * m)), (m, 0, -m))).scale(Fraction(1, m))


def gegenbauer(m: int, nmax: int) -> List[CPoly]:
    """Ultraspherical Q_0..Q_nmax with lambda = 1 + 1/m.

    Generated by the standard three-term recurrence
    n Q_n = 2c (n + lambda - 1) Q_{n-1} - (n + 2 lambda - 2) Q_{n-2},
    times m: nm Q_n = 2(nm + 1) c Q_{n-1} - (nm + 2) Q_{n-2}, one integer
    `combine` per member (Q_{-1} = 0).  Each member is certified against the
    second-order equation, which is the anchor the construction must reproduce.
    """
    if m < 2 or nmax < 0:
        raise ParameterError("need m >= 2 and nmax >= 0")
    polys = [CPoly.one()]
    for n in range(1, nmax + 1):
        nm = n * m
        below = polys[n - 2] if n >= 2 else CPoly.zero()
        polys.append(polys[n - 1].shift(1).combine(below, 2 * (nm + 1), -(nm + 2), nm))
    for n, q in enumerate(polys):
        if not gegenbauer_ode_residual(m, n, q).is_zero():
            raise FitError(f"generated Q_{n} fails its own defining equation")
    return polys


def verify_gegenbauer_reduction(r: int, m: int, j0: int, kmax: Optional[int] = None) -> dict:
    """Certify the Gegenbauer structure of the j0 = -1 and j0 = -r-1 families.

    Both cases decompose exactly in span{Q_n, c Q_{n-1}} with n = degree; the
    engine additionally certifies which single basis element carries each
    member and whether the member satisfies the printed second-order equation.
    A member's (x, y) with p = x Q_n + y c Q_{n-1} is `solve_exact` on the
    columns [Q_n, c Q_{n-1}] at the rows of c^n and c^(n-2), certified by
    one CPoly comparison; only where that fails do all rows decide.  Where
    the columns are dependent (degree <= 1), the free y is 0 and the fit is
    a single Q_n.  Empirically j0 = -r-1 members are single Q_n multiples
    (and satisfy the equation) while j0 = -1 members are single c Q_{n-1}
    multiples (and do not); the published reductions attribute these the
    other way around.  The members that fail the printed equation are
    reported in one printed-reduction-mismatch finding, which does not fail
    the reduction.  Members with k <= kmax (default 14r) are examined; a
    kmax below the first member raises ParameterError.
    """
    if j0 not in (-1, -r - 1):
        raise ParameterError("gegenbauer reduction applies to j0 in {-1, -r-1}")
    if kmax is None:
        kmax = 14 * r
    fam = generate(r, m, j0, kmax)
    members = fam.nonzero_members()
    if not members:
        raise ParameterError(f"no member with k <= kmax = {kmax}: nothing to reduce")
    degmax = max(int(p.degree) for _, p in members)
    basis = gegenbauer(m, degmax)
    entries = []
    all_two_term = True
    for k, p in members:
        d = int(p.degree)
        q = basis[d]
        cq = basis[d - 1].shift(1) if d >= 1 else CPoly.zero()
        fit = solve_exact(*_two_term_rows(p, q, cq, [t for t in (d, d - 2) if t >= 0]))
        if fit is not None and q.scale(fit[0]) + cq.scale(fit[1]) != p:
            fit = solve_exact(*_two_term_rows(p, q, cq))  # every row decides
        all_two_term = all_two_term and fit is not None
        ode_zero = gegenbauer_ode_residual(m, d, p).is_zero()
        entries.append({
            "k": k, "degree": d,
            "two_term": fit is not None,
            "x": str(fit[0]) if fit else None,
            "y": str(fit[1]) if fit else None,
            "single_Q": bool(fit and fit[1] == 0),
            "single_cQ": bool(fit and fit[0] == 0 and d >= 1),
            "ode_zero": ode_zero,
        })
    findings = [] if all_two_term else [
        {"kind": "reduction-violation", "detail": "member outside span{Q_n, c Q_{n-1}}"}]
    off_ode = [e["k"] for e in entries if not e["ode_zero"]]
    if off_ode:
        findings.append({
            "kind": "printed-reduction-mismatch", "k": off_ode,
            "detail": "members that fail the printed second-order equation at n = degree",
        })
    return {
        "r": r, "m": m, "j0": j0, "lambda": f"{m + 1}/{m}",  # 1 + 1/m in lowest terms
        "entries": entries,
        "all_two_term": all_two_term,
        "all_single_Q_with_ode": all(e["single_Q"] and e["ode_zero"] for e in entries),
        "findings": findings,
    }


def classification_report(r: int, m: int, members: int = 10) -> dict:
    """Per-j0 classification with superposition data for the type-B range;
    ParameterError for fewer than one member, as superposition_fit."""
    _check_members(members)
    entries = []
    canonical = _canonical_pair(r, m, members)
    for j0 in range(-2 * r, 0):
        kind = seed_kind(r, m, j0)
        entry: Dict = {"j0": j0, "kind": kind}
        if kind in ("A_type1", "A_prime_type2", "B_linear_combination"):
            rep = superposition_fit(r, m, j0, members=members, canonical=canonical)
            entry.update((key, rep[key]) for key in ("alpha", "beta", "certified_k", "findings"))
        entries.append(entry)
    return {"r": r, "m": m, "entries": entries}
