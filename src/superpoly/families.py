"""Polynomial families generated by the superelliptic three-term recursion.

For k >= 0,

    gamma P_k = alpha c P_{k-r} - beta P_{k-2r},
    gamma = 2r + m + k m,  alpha = 2 (r + (1 + k - r) m),  beta = (k - (2r - 1)) m,

seeded by a unit initial condition P_{j0} = 1, P_j = 0 for the other
j in [-2r, -1].  The divisor gamma >= m + 2r >= 6 for k >= 0, so
generation is total.  Nonzero members live on the lattice k == j0 (mod r).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Literal, Tuple

from .errors import ParameterError
from .poly import CPoly


def _check_params(r: int, m: int, j0: int = -1):
    """Raise ParameterError unless r >= 2, m >= 2 and -2r <= j0 <= -1."""
    if r < 2 or m < 2:
        raise ParameterError(f"need r >= 2 and m >= 2, got r={r}, m={m}")
    if not (-2 * r <= j0 <= -1):
        raise ParameterError(f"j0 must lie in [-{2 * r}, -1], got {j0}")


def _recursion_coefficients(r: int, m: int, k: int) -> Tuple[int, int, int]:
    """(gamma, alpha, beta) at k: the one statement of them, which `orth` reads too."""
    return 2 * r + m + k * m, 2 * (r + (1 + k - r) * m), (k - (2 * r - 1)) * m


def _check_kmax(r: int, kmax: int | None) -> int:
    """kmax, or 12r when it is None; ParameterError when it is negative."""
    if kmax is None:
        return 12 * r
    if kmax < 0:
        raise ParameterError("kmax must be >= 0")
    return kmax


class Family:
    """A generated family; polys maps k in [-2r, kmax] to P_k, less what `walk` dropped.

    Zero polynomials are stored explicitly (off-lattice indices and zero
    initial entries) so series code can index densely.
    """

    def __init__(self, r: int, m: int, j0: int):
        _check_params(r, m, j0)
        self.r, self.m, self.j0 = r, m, j0
        self.polys: Dict[int, CPoly] = {
            j: CPoly.one() if j == j0 else CPoly.zero() for j in range(-2 * r, 0)}
        self.kmax = -1

    def __repr__(self) -> str:
        return f"Family(r={self.r}, m={self.m}, j0={self.j0})"

    def extend(self, kmax: int) -> "Family":
        """Generate P_k for k <= kmax, one integer CPoly.combine per k whose
        inputs P_(k-r), P_(k-2r) are not both zero (else P_k is zero).
        Only `generate` and `walk` call it; a check generates its family once."""
        r, m = self.r, self.m
        for k in range(self.kmax + 1, kmax + 1):
            prev, prev2 = self.polys[k - r], self.polys[k - 2 * r]
            if prev or prev2:
                gamma, alpha, beta = _recursion_coefficients(r, m, k)
                self.polys[k] = prev.shift(1).combine(prev2, alpha, -beta, gamma)
            else:
                self.polys[k] = prev  # the zero polynomial
        self.kmax = max(self.kmax, kmax)
        return self

    def nonzero_members(self) -> List[Tuple[int, CPoly]]:
        """(k, P_k) for the k >= 0 held in polys with P_k != 0, in polys' order: increasing k."""
        return [(k, p) for k, p in self.polys.items() if k >= 0 and p]


def generate(r: int, m: int, j0: int, kmax: int | None = None) -> Family:
    """A new family seeded at j0, holding exactly P_k for k <= kmax; default kmax = 12r."""
    fam = Family(r, m, j0)
    return fam.extend(_check_kmax(r, kmax))


def walk(fam: Family, kmax: int) -> Iterator[Tuple[int, CPoly]]:
    """(k, P_k) for k = -2r..kmax in order, fam extended as it goes.

    P_(k-2r-1), which no later member reads, is dropped before P_k is read:
    a reader at k still finds P_(k-r) and P_(k-2r) in fam.polys, and fam
    holds at most 2r + 1 members through k.  Every in-order reader walks:
    gen, series, pde, reduce and the scans (`ode.scan_cell`).
    """
    r = fam.r
    for k in range(-2 * r, kmax + 1):
        fam.polys.pop(k - 2 * r - 1, None)
        fam.extend(k)
        yield k, fam.polys[k]


def stream(r: int, m: int, j0: int, kmax: int | None) -> Iterator[Tuple[int, CPoly]]:
    """`walk` over a new family seeded at j0.  The arguments are checked when
    stream is called, and kmax = None read as 12r, as `generate` does."""
    return walk(Family(r, m, j0), _check_kmax(r, kmax))


FamilyType = Literal[1, 2]


def canonical_j0(family_type: FamilyType, r: int) -> int:
    """Seed of the canonical family of a type: -2r for type 1, -r for type 2."""
    if family_type not in (1, 2):
        raise ParameterError(f"family_type must be 1 or 2, got {family_type}")
    return -2 * r if family_type == 1 else -r

