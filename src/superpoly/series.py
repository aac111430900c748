"""Truncated-series verification of the generating-function identities.

The generating function is P(c, z) = sum_{k>=0} z^k P_{k-2r}(c), so the
coefficient of z^k is P_{k-2r}.  All rational functions of z are cleared to
polynomial operators before application, so every residual coefficient is an
exact CPoly.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import ParameterError
from .families import Family, FamilyType, canonical_j0, generate, walk
from .poly import CPoly


def first_order_residual(fam: Family, K: int) -> List[CPoly]:
    """Residual of the first-order ODE in z, cleared by z m (1 - 2cz^r + z^{2r}).

    The cleared identity is

        m z (1 - 2cz^r + z^{2r}) dP/dz
          + [2r - 2crz^r + (1-2r) m (1 - 2cz^r + z^{2r})] P  -  z^{2r} N(z) = 0,

    where N collects the initial-condition sums; for a unit seed at j0,
    N = z^{j0} (m + 2r + j0 m) plus, when j0 < -r, the coupling term
    -2 (j0 m + m + r) c z^{j0 + r}.  The residual is exact for every exponent
    <= K and must vanish identically (it encodes the recursion); entry j of
    the returned list is the residual at z^j.  K >= 2r, so that at least the
    exponent 2r, where P_0 enters, is checked.  It walks fam to K - 2r, so
    fam ends with at most 2r + 1 members through k = K - 2r.
    """
    r, m = fam.r, fam.m
    if K < 2 * r:
        raise ParameterError("K must be at least 2r")
    zero = CPoly.zero()
    resid = []
    for k, g0 in walk(fam, K - 2 * r):
        j = k + 2 * r
        g1, g2 = (fam.polys.get(e, zero) for e in (k - r, k - 2 * r))
        res = g0.combine(g2, m * j + 2 * r + (1 - 2 * r) * m, m * (j - 2 * r) + (1 - 2 * r) * m)
        res = res.combine(g1.shift(1), 1, -(2 * m * (j - r) + 2 * r + 2 * (1 - 2 * r) * m))
        # subtract z^{2r} N(z)
        jj = j - 2 * r
        if -2 * r <= jj <= -1:
            init = fam.polys[jj]
            if init:
                res = res - init.scale(m + 2 * r + jj * m)
        jj = j - 3 * r
        if -2 * r <= jj < -r:
            init = fam.polys[jj]
            if init:
                res = res + init.shift(1).scale(2 * (jj * m + m + r))
        resid.append(res)
    return resid


# ---------------------------------------------------------------------------
# fourth-order PDE, reduced per z-exponent
# ---------------------------------------------------------------------------

def pde_reduced(family_type: FamilyType, r: int, m: int, v: int, g: CPoly,
                corrected: bool = False) -> CPoly:
    """The per-exponent reduction of the printed fourth-order PDE applied to g.

    The PDE operators contain no multiplication by z, so d/dv acts diagonally
    as the z-exponent v.  The reduction is the bracket applied twice plus
    lower terms.  The bracket is

        m [r^2 ((1-c^2) d^2 - 3c d) + v^2 + (2/m)(r+(1-2r)m) v + const],

    multiplied through by m so that its table is integral; the constant is
    (2r/m)(m(r-1)-r) for type 1 and -r^2 for type 2.  Type 1 subtracts
    4 r^2 (m(r-1)-r)^2 g, 12 r^2 (-(m+r)^2 + mr(2r+m(r+2))) c g' and adds
    4 r^2 ((m+r)^2 + mr(-2r+m(r-2))) (1-c^2) g''.  With corrected=True it also
    subtracts the two terms the published statement is missing,
    4 r^4 (m+1) g'' + 24 r^2 (m^2 - 2m^2 r + 2mr - 2mr^2 + r^2) c g',
    which makes it identical to the type-1 fourth-order operator at n = v.
    Type 2 subtracts 4 r^2 (m+r-2mr)^2 (-(1-c^2) g'' + 3c g' + g) and
    4 r^4 (m+1) g''; it equals the type-2 operator at n = v as printed.
    """
    const = 2 * r * (m * (r - 1) - r) if family_type == 1 else -m * r * r
    mr2 = m * r * r
    bracket = ((m * v * v + 2 * (r + (1 - 2 * r) * m) * v + const,), (0, -3 * mr2), (mr2, 0, -mr2))
    if family_type == 1:
        q0 = 4 * r * r * (m * (r - 1) - r) ** 2
        q1 = 12 * r * r * (-(m + r) ** 2 + m * r * (2 * r + m * (r + 2)))
        q2 = t = 4 * r * r * ((m + r) ** 2 + m * r * (-2 * r + m * (r - 2)))
        if corrected:
            q1 += 24 * r * r * (m * m - 2 * m * m * r + 2 * m * r - 2 * m * r * r + r * r)
            t -= 4 * r ** 4 * (m + 1)
    else:
        q2 = 4 * r * r * (m + r - 2 * m * r) ** 2
        q0, q1, t = q2, 3 * q2, q2 - 4 * r ** 4 * (m + 1)
    # -q0 g - q1 c g' + (t - q2 c^2) g''
    lower = ((-q0,), (0, -q1), (t, 0, -q2))
    return g.act(bracket).act(bracket) + g.act(lower)


def certify_exponent_mapping(family_type: FamilyType, fam: Family, K: int,
                             corrected: bool = False) -> Optional[int]:
    """Find the offset o such that eigenvalue v = exponent + o zeroes every residual.

    Searched over {0, r, 2r, -r, -2r} in that order; None if nothing works.
    """
    r = fam.r
    members = [(k, g) for k in range(K + 1) if (g := fam.polys[k - 2 * r])]
    return next((o for o in (0, r, 2 * r, -r, -2 * r)
                 if all(pde_reduced(family_type, r, fam.m, k + o, g, corrected).is_zero()
                        for k, g in members)), None)


def pde_residual(family_type: FamilyType, r: int, m: int, K: int,
                 corrected: bool = False) -> dict:
    """Per-exponent residuals of the fourth-order PDE on the canonical family.

    Returns a report with the certified exponent mapping (searched on the
    exponents <= 6r, the prefix generated), one residual per exponent, read
    as a walk extends the family, and the overall verdict.
    A failing mapping is reported as a finding, never patched.
    """
    if K < 2 * r:
        raise ParameterError("K must be at least 2r")
    fam = generate(r, m, canonical_j0(family_type, r), min(K, 6 * r) - 2 * r)
    offset = certify_exponent_mapping(family_type, fam, min(K, 6 * r), corrected)
    residuals = []  # the nonzero ones only
    if offset is not None:
        for k, g in walk(fam, K - 2 * r):
            if res := pde_reduced(family_type, r, m, k + 2 * r + offset, g, corrected):
                residuals.append({"exponent": k + 2 * r, "zero": False,
                                  "residual": res.to_strings()})
    all_zero = offset is not None and not residuals
    return {
        "family_type": family_type, "r": r, "m": m, "K": K,
        "corrected": corrected,
        "offset": offset,
        "pass": all_zero,
        "findings": ([] if all_zero else
                     [{"kind": "pde-mapping-failure" if offset is None else "pde-residual",
                       "detail": ("no exponent mapping in {0, +-r, +-2r} zeroes the "
                                  "printed PDE reduction" if offset is None else
                                  "nonzero residuals under the certified mapping")}]),
        "residuals": residuals[:8],
    }
