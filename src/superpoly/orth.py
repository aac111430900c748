"""Favard-form analysis and associated-ultraspherical identification.

The nonzero members q_0, q_1, ... of a family (`Family.nonzero_members`) sit
at k_t = k_0 + t r: the recursion's alpha vanishes only at k = r - 1 - r/m < r,
so from the first nonzero member k_0 on every lattice step raises the degree
by one.  The recursion gamma P_k = alpha c P_(k-r) - beta P_(k-2r) of
`families` at k = k_{t+1} rearranges to

    c q_t = A_t q_{t+1} + B_t q_{t-1},    A_t = gamma / alpha,    B_t = beta / alpha,

exact rationals for every t, since alpha >= 2(r + m) at every k >= r.
Orthogonality is certified through the moment functional induced by the
monic Jacobi matrix (subdiagonal 1, superdiagonal a_t = B_t A_{t-1}, zero
diagonal by parity); no measure is constructed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from operator import mul
from typing import List, Optional, Tuple

from .errors import ParameterError
from .families import Family, _recursion_coefficients
from .poly import CPoly


def _coefficients(r: int, m: int, k0: int, ts: range) -> Tuple[List[Fraction], List[Fraction]]:
    """A_t and B_t for t in ts, read off the recursion at k_(t+1) = k_0 + (t+1) r."""
    gab = [_recursion_coefficients(r, m, k0 + (t + 1) * r) for t in ts]
    return [Fraction(g, a) for g, a, _ in gab], [Fraction(b, a) for _, a, b in gab]


def _relation_failures(q: List[CPoly], A: List[Fraction], B: List[Fraction],
                       ts: range) -> List[int]:
    """The t in ts where the stored members break c q_t = A_t q_(t+1) + B_t q_(t-1)."""
    return [t for t in ts
            if not (q[t].shift(1) - q[t + 1].scale(A[t]) - q[t - 1].scale(B[t])).is_zero()]


class FavardData:
    """The members q_t from k_0 and the stored t >= 1 whose relation fails; A_t,
    B_t and a_t = B_t A_(t-1) (t <= N); the abstract monic OPS p_0 = 1, p_(t+1)
    = c p_t - a_t p_(t-1); moment_j = (J^j)_00 of its Jacobi matrix."""

    def __init__(self, k0: int, q: List[CPoly], A: List[Fraction], B: List[Fraction],
                 a: List[Fraction], monic: List[CPoly], moments: List[Fraction],
                 relation_certified_t: List[int], failed: List[int], findings: List[dict]):
        self.k0, self.q, self.failed = k0, q, failed
        self.A, self.B, self.a, self.monic, self.moments = A, B, a, monic, moments
        self.relation_certified_t, self.findings = relation_certified_t, findings

    def to_json(self) -> dict:
        return {
            "A": [str(x) for x in self.A],
            "B": [str(x) for x in self.B],
            "a": [str(x) for x in self.a],
            "moments": [str(x) for x in self.moments],
            "relation_certified_t": self.relation_certified_t,
            "findings": self.findings,
        }


def _moments(a: List[Fraction], order: int) -> List[Fraction]:
    """moment_j = (J^j)_{00} by iterating v <- J v from e_0, in integers.

    J is the multiplication-by-c matrix in the monic basis: column t has 1 at
    row t+1 and a_t at row t-1.  A path from row 0 that is back at row 0
    within `order` steps is at a row t <= min(j, order - j) after j steps, so
    no other row is kept.

    With a_t = A_t / L over one denominator L, a path of length j to row t
    makes (j - t)/2 downward steps, so w_t = L^((j - t)/2) v_t is an integer:
    an upward step carries w_t over unchanged and a downward one from row t
    multiplies it by A_t.  moment_j = w_0 / L^(j/2) is the one Fraction built
    per even j; odd moments are zero.
    """
    cap = order // 2
    L = lcm(*(x.denominator for x in a[1:cap + 1]))
    A = [x.numerator * (L // x.denominator) for x in a[:cap + 1]]
    w = [1]  # rows 0..top of step j
    out, scale = [Fraction(1)], 1
    for j in range(1, order + 1):
        top = min(j, order - j)  # a higher row cannot return to row 0 by step `order`
        nxt = [0] * (top + 1)
        for t, x in enumerate(w):
            if x:
                if t < top:
                    nxt[t + 1] += x                  # p_{t+1} component
                if t:
                    nxt[t - 1] += A[t] * x           # a_t p_{t-1} component
        w = nxt
        if j % 2:
            out.append(Fraction(0))
        else:
            scale *= L
            out.append(Fraction(w[0], scale))
    return out


def favard(fam: Family, N: int, gram_N: Optional[int] = None) -> FavardData:
    """Extract A_t, B_t, a_t for t <= N, certify the relation, build moments.

    q_t is the member at k_t = k_0 + t r, k_0 the first nonzero one; a family
    with no nonzero member up to kmax is a ParameterError.  The three-term
    relation is checked once, for every stored 1 <= t <= len(q) - 2, and the
    failing t are kept as `failed` (the t = 0 relation reads a seed initial
    value for the type-2 family and is not a pure three-term statement); the
    report stays within t <= N.  a_t must be positive for 1 <= t <= N; a
    violation is reported as a finding.  The monic sequence and the moments
    (to order 2*gram_N) only need the Gram depth, which defaults to N; both
    must be at least 1.
    """
    gram_N = N if gram_N is None else min(gram_N, N)
    if gram_N < 1:
        raise ParameterError(f"N must be >= 1, got {gram_N}")
    members = fam.nonzero_members()
    if not members:
        raise ParameterError(f"{fam!r} has no nonzero member up to kmax={fam.kmax}")
    k0, q = members[0][0], [p for _, p in members]
    tmax = len(q) - 2
    A, B = _coefficients(fam.r, fam.m, k0, range(max(N, tmax) + 1))
    failed = _relation_failures(q, A, B, range(1, tmax + 1))
    A, B = A[:N + 1], B[:N + 1]
    a = [Fraction(0)] + [B[t] * A[t - 1] for t in range(1, N + 1)]
    findings = [{"kind": "positivity-violation", "t": t, "a": str(a[t])}
                for t in range(1, N + 1) if a[t] <= 0]
    findings += [{"kind": "recurrence-violation", "t": t} for t in failed if t <= N]
    certified = [t for t in range(1, min(N, tmax) + 1) if t not in failed]
    monic = [CPoly.one(), CPoly.monomial(1)]
    for t in range(1, gram_N):
        monic.append(monic[t].shift(1) - monic[t - 1].scale(a[t]))
    moments = _moments(a, 2 * gram_N)
    return FavardData(k0, q, A, B, a, monic, moments, certified, failed, findings)


def gram_check(fd: FavardData, N: int) -> dict:
    """Gram matrix of the monic OPS under the moment functional, in integers.

    Off-diagonal entries must be exactly zero; diagonal entries must equal
    a_1 a_2 ... a_t (positive).  By Favard's theorem the monic p_t are
    orthogonal under their own Jacobi functional by construction, so this
    checks the stored monic members and moments, not a claim of the paper,
    and assumes no recurrence between them; for type 2 the p_t are those of
    the family without its first member.

    The moments go over one denominator D, moment_s = M_s / D, and p_j =
    num_j / den_j.  Each L(p_j c^l), L the moment functional, is staged once
    as the integer sigma_(j,l) = sum_s num_j[s] M_(s+l) = den_j D L(p_j c^l),
    and each entry is g = sum_l num_i[l] sigma_(j,l) = den_i den_j D <p_i, p_j>:
    O(N^3) integer products in all.  An off-diagonal entry is zero iff g = 0,
    so a Fraction is built only for a diagonal entry or a finding.
    """
    if len(fd.monic) <= N or len(fd.moments) < 2 * N + 1:
        raise ParameterError(f"FavardData holds {len(fd.monic) - 1} monic members; "
                             f"gram_check needs N <= that and moments to 2N")
    monic = fd.monic[:N + 1]
    D = lcm(*(x.denominator for x in fd.moments))
    M = [x.numerator * (D // x.denominator) for x in fd.moments]
    sigma, reach = [], 0  # sigma[j][l] for every l that some p_i, i <= j, reaches
    for p in monic:
        reach = max(reach, len(p.num))
        sigma.append([sum(x * M[s + l] for s, x in enumerate(p.num) if x)
                      for l in range(reach)])
    findings = []
    diag = []
    norms = list(accumulate(fd.a[1:N + 1], mul, initial=Fraction(1)))  # a_1 ... a_i
    for i, p in enumerate(monic):
        for j in range(i, N + 1):
            g = sum(x * sigma[j][l] for l, x in enumerate(p.num) if x)
            if i == j:
                val = Fraction(g, p.den * p.den * D)
                diag.append(val)
                if val != norms[i] or val <= 0:
                    findings.append({"kind": "norm-violation", "i": i,
                                     "value": str(val), "expected": str(norms[i])})
            elif g:
                findings.append({"kind": "orthogonality-violation", "i": i, "j": j,
                                 "value": str(Fraction(g, p.den * monic[j].den * D))})
    return {
        "N": N,
        "offdiag_zero": not any(f["kind"] == "orthogonality-violation" for f in findings),
        "diag": [str(x) for x in diag],
        "findings": findings,
        "pass": not findings,
    }


# ---------------------------------------------------------------------------
# associated ultraspherical identification
# ---------------------------------------------------------------------------

def closed_form_AB(nu: Fraction, c0: Fraction, n: Fraction) -> Tuple[Fraction, Fraction]:
    """A_n = (n + 2 nu + c0) / (2 (n + nu + c0)), B_n = (n + c0) / (2 (n + nu + c0))."""
    den = 2 * (n + nu + c0)
    return Fraction(n + 2 * nu + c0, 1) / den, Fraction(n + c0, 1) / den


def _identification(r: int, m: int, fd: Optional[FavardData]) -> dict:
    """identify_ultraspherical's report from favard's k_0, q_t and relation
    failures (fd is None if no member is nonzero): a match needs at least 5
    members, no failed relation and the closed form at t = 1, 2, 3."""
    nu = 1 + Fraction(1, m)
    if fd and len(fd.q) >= 5 and not fd.failed:
        s0 = Fraction(fd.k0 + 1, r) - 1
        shift = ceil(s0) - 1
        c0 = s0 - shift
        A, B = _coefficients(r, m, fd.k0, range(4))
        if all(closed_form_AB(nu, c0, t + shift) == (A[t], B[t]) for t in (1, 2, 3)):
            return {"identified": {"nu": str(nu), "c0": str(c0), "shift": shift},
                    "certified_t": len(fd.q) - 2}
    return {"identified": None, "nu": str(nu), "certified_t": 0}


def identify_ultraspherical(fam: Family) -> dict:
    """Identify the members q_t as associated ultraspherical polynomials.

    The recursion fixes the parameters: nu = 1 + 1/m and
    c0 + shift = (k_0 + 1)/r - 1, split so that c0 lies in (0, 1].  Then
    closed_form_AB(nu, c0, t + shift) = (A_t, B_t) is, cross-multiplied, an
    identity of degree 2 in t, so checking it at t = 1, 2, 3 proves it for
    every t.  favard's relation check over every stored member then also
    certifies, for every stored t >= 1,

        2c (t + shift + nu + c0) q_t
            = (t + shift + c0) q_{t-1} + (t + shift + 2 nu + c0) q_{t+1}

    exactly.  Fewer than 5 members or a failed relation is a recorded no match.
    """
    fd = favard(fam, 1) if fam.nonzero_members() else None
    return _identification(fam.r, fam.m, fd)


def orthogonality_report(fam: Family, N: int = 12, n_positive: int = 200,
                         closed_form_n: int = 0) -> dict:
    """The orth-lab summary for one family: positivity, Gram, identification.

    a_positive covers a_1 .. a_{n_positive} (n_positive >= 1).  closed_form_n
    > 0 additionally compares extracted A_t, B_t against the closed forms at
    the identified (nu, c0, shift) for t <= closed_form_n; 0 skips it.
    """
    if n_positive < 1 or closed_form_n < 0:
        raise ParameterError(f"need n_positive >= 1 and closed_form_n >= 0, got "
                             f"{n_positive} and {closed_form_n}")
    big = max(N, n_positive, closed_form_n)
    fd = favard(fam, big, gram_N=N)
    ident = _identification(fam.r, fam.m, fd)["identified"]
    closed_ok = None
    if closed_form_n and ident:
        nu, c0 = Fraction(ident["nu"]), Fraction(ident["c0"])
        closed_ok = all(closed_form_AB(nu, c0, t + ident["shift"]) == (fd.A[t], fd.B[t])
                        for t in range(closed_form_n + 1))
    gram = gram_check(fd, N)
    return {
        "family": {"r": fam.r, "m": fam.m, "j0": fam.j0},
        "N": N,
        "a_positive": all(x > 0 for x in fd.a[1:n_positive + 1]),
        "gram_offdiag_zero": gram["offdiag_zero"],
        "gram_pass": gram["pass"],
        "relation_certified_t": fd.relation_certified_t,
        "identified": ident,
        "closed_form_match": closed_ok,
        "findings": fd.findings + gram["findings"],
    }
