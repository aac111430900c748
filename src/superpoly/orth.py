"""Favard-form analysis and associated-ultraspherical identification.

The nonzero members q_0, q_1, ... of a family sit at k_t = k_0 + t * stride,
along the detected support stride.  The recursion at k = k_{t+1} rearranges to

    c q_t = A_t q_{t+1} + B_t q_{t-1},
    A_t = (2r + m + k_{t+1} m) / (2 (r + (1 + k_{t+1} - r) m)),
    B_t = (k_{t+1} - 2r + 1) m / (2 (r + (1 + k_{t+1} - r) m)),

exact rationals for every t.  Orthogonality is certified through the moment
functional induced by the monic Jacobi matrix (subdiagonal 1, superdiagonal
a_t = B_t A_{t-1}, zero diagonal by parity); no measure is constructed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ParameterError, SupportError
from .families import Family, support_profile
from .poly import CPoly


def recurrence_AB(r: int, m: int, k: int) -> Tuple[Fraction, Fraction]:
    """(A_t, B_t) of c q_t = A_t q_{t+1} + B_t q_{t-1}, where k = k_{t+1}."""
    den = 2 * (r + (1 + k - r) * m)
    if den == 0:
        raise SupportError(f"recurrence coefficient 2B({k}) vanishes")
    return Fraction(2 * r + m + k * m, den), Fraction((k - 2 * r + 1) * m, den)


class FavardData:
    """A_t, B_t and a_t = B_t A_(t-1) (t >= 1); the abstract monic OPS p_0 = 1,
    p_(t+1) = c p_t - a_t p_(t-1); moment_j = (J^j)_00 of its Jacobi matrix."""

    def __init__(self, A: List[Fraction], B: List[Fraction], a: List[Fraction],
                 monic: List[CPoly], moments: List[Fraction],
                 relation_certified_t: List[int], findings: List[dict]):
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
    """moment_j = (J^j)_{00} by iterating v <- J v from e_0.

    J is the multiplication-by-c matrix in the monic basis: column t has 1 at
    row t+1 and a_t at row t-1.  A path of length j from 0 back to 0 never
    climbs above row j//2, so rows 0..order//2 suffice and dropped upward
    transitions at the cap can never feed back into moment_j for j <= order.
    """
    cap = order // 2
    v = [Fraction(0)] * (cap + 1)
    v[0] = Fraction(1)
    out = [Fraction(1)]
    for _ in range(order):
        nxt = [Fraction(0)] * (cap + 1)
        for t in range(cap + 1):
            if v[t]:
                if t + 1 <= cap:
                    nxt[t + 1] += v[t]               # p_{t+1} component
                if t >= 1:
                    nxt[t - 1] += a[t] * v[t]        # a_t p_{t-1} component
        v = nxt
        out.append(v[0])
    return out


def favard(fam: Family, N: int, gram_N: Optional[int] = None) -> FavardData:
    """Extract A_t, B_t, a_t for t <= N, certify the relation, build moments.

    q_t is the t-th nonzero member of fam, at k_t = k_0 + t * stride.  The
    three-term relation is certified on stored members for 1 <= t (the
    t = 0 relation reads a seed initial value for the type-2 family and is
    not a pure three-term statement).  a_t must be positive for 1 <= t <= N;
    a violation is reported as a finding.  The monic sequence and the moments
    (to order 2*gram_N) only need the Gram depth, which defaults to N; both
    must be at least 1.
    """
    gram_N = N if gram_N is None else min(gram_N, N)
    if gram_N < 1:
        raise ParameterError(f"N must be >= 1, got {gram_N}")
    r, m = fam.r, fam.m
    stride = support_profile(fam)
    ks, q = zip(*fam.nonzero_members())
    A, B = (list(x) for x in zip(*(recurrence_AB(r, m, ks[0] + (t + 1) * stride)
                                    for t in range(N + 1))))
    a = [Fraction(0)] + [B[t] * A[t - 1] for t in range(1, N + 1)]
    findings = []
    for t in range(1, N + 1):
        if a[t] <= 0:
            findings.append({"kind": "positivity-violation", "t": t, "a": str(a[t])})
    certified = []
    for t in range(1, min(N, len(q) - 2) + 1):
        lhs = q[t].shift(1)
        rhs = q[t + 1].scale(A[t]) + q[t - 1].scale(B[t])
        if (lhs - rhs).is_zero():
            certified.append(t)
        else:
            findings.append({"kind": "recurrence-violation", "t": t})
    monic = [CPoly.one(), CPoly.monomial(1)]
    for t in range(1, gram_N):
        monic.append(monic[t].shift(1) - monic[t - 1].scale(a[t]))
    moments = _moments(a, 2 * gram_N)
    return FavardData(A, B, a, monic, moments, certified, findings)


def gram_check(fd: FavardData, N: int) -> dict:
    """Gram matrix of the monic OPS under the moment functional.

    Off-diagonal entries must be exactly zero; diagonal entries must equal
    a_1 a_2 ... a_t (positive).
    """
    if len(fd.monic) <= N or len(fd.moments) < 2 * N + 1:
        raise ParameterError(f"FavardData holds {len(fd.monic) - 1} monic members; "
                             f"gram_check needs N <= that and moments to 2N")
    findings = []
    diag = []
    for i in range(N + 1):
        for j in range(i, N + 1):
            val = Fraction(0)
            for s, xs in enumerate(fd.monic[i].coeffs):
                if not xs:
                    continue
                for t, yt in enumerate(fd.monic[j].coeffs):
                    if yt:
                        val += xs * yt * fd.moments[s + t]
            if i == j:
                diag.append(val)
                expected = Fraction(1)
                for u in range(1, i + 1):
                    expected *= fd.a[u]
                if val != expected or val <= 0:
                    findings.append({"kind": "norm-violation", "i": i,
                                     "value": str(val), "expected": str(expected)})
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


# ---------------------------------------------------------------------------
# associated ultraspherical identification
# ---------------------------------------------------------------------------

def closed_form_AB(nu: Fraction, c0: Fraction, n: Fraction) -> Tuple[Fraction, Fraction]:
    """A_n = (n + 2 nu + c0) / (2 (n + nu + c0)), B_n = (n + c0) / (2 (n + nu + c0))."""
    den = 2 * (n + nu + c0)
    return Fraction(n + 2 * nu + c0, 1) / den, Fraction(n + c0, 1) / den


def identify_ultraspherical(fam: Family) -> dict:
    """Match the shifted ultraspherical recurrence against the nonzero members q_t.

    nu is pinned to (r/2)(1 + 1/m); c0 is searched in {1/2, 1} and the integer
    index shift in -3..3.  A match certifies, for every available t >= 1,

        2c (t + shift + nu + c0) q_t
            = (t + shift + c0) q_{t-1} + (t + shift + 2 nu + c0) q_{t+1}

    exactly.  No match is a recorded result, not an error.
    """
    r, m = fam.r, fam.m
    q = [p for _, p in fam.nonzero_members()]
    nu = Fraction(r, 2) * (1 + Fraction(1, m))
    tmax = len(q) - 2
    for c0 in (Fraction(1, 2), Fraction(1)):
        for shift in range(-3, 4):
            count = 0
            ok = True
            for t in range(1, tmax + 1):
                lhs = q[t].shift(1).scale(2 * (t + shift + nu + c0))
                rhs = (q[t - 1].scale(t + shift + c0)
                       + q[t + 1].scale(t + shift + 2 * nu + c0))
                if not (lhs - rhs).is_zero():
                    ok = False
                    break
                count += 1
            if ok and count >= 3:
                return {"identified": {"nu": str(nu), "c0": str(c0), "shift": shift},
                        "certified_t": count}
    return {"identified": None, "nu": str(nu), "certified_t": 0}


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
    ident = identify_ultraspherical(fam)
    closed_ok = None
    if closed_form_n and ident["identified"]:
        nu = Fraction(ident["identified"]["nu"])
        c0 = Fraction(ident["identified"]["c0"])
        shift = ident["identified"]["shift"]
        closed_ok = all(
            closed_form_AB(nu, c0, Fraction(t + shift)) == (fd.A[t], fd.B[t])
            for t in range(0, closed_form_n + 1))
    gram = gram_check(fd, N)
    return {
        "family": {"r": fam.r, "m": fam.m, "j0": fam.j0},
        "N": N,
        "a_positive": all(x > 0 for x in fd.a[1:n_positive + 1]),
        "gram_offdiag_zero": gram["offdiag_zero"],
        "gram_pass": gram["pass"],
        "relation_certified_t": fd.relation_certified_t,
        "identified": ident["identified"],
        "closed_form_match": closed_ok,
        "findings": fd.findings + gram["findings"],
    }
