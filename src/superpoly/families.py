"""Polynomial families generated by the superelliptic three-term recursion.

For k >= 0,

    gamma P_k = alpha c P_{k-r} - beta P_{k-2r},
    gamma = 2r + m + k m,  alpha = 2 (r + (1 + k - r) m),  beta = (k - (2r - 1)) m,

seeded by a unit initial condition P_{j0} = 1, P_j = 0 for the other
j in [-2r, -1].  The divisor gamma >= m + 2r >= 6 for k >= 0, so
generation is total.  Nonzero members live on the lattice k == j0 (mod r).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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


class Family:
    """A generated family; polys maps every k >= -2r up to kmax to its CPoly.

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
        """Generate P_k for k <= kmax, one integer CPoly.combine per k."""
        r, m = self.r, self.m
        for k in range(self.kmax + 1, kmax + 1):
            gamma, alpha, beta = _recursion_coefficients(r, m, k)
            self.polys[k] = self.polys[k - r].shift(1).combine(self.polys[k - 2 * r],
                                                               alpha, -beta, gamma)
        self.kmax = max(self.kmax, kmax)
        return self

    def __getitem__(self, k: int) -> CPoly:
        return self.polys[k]

    def nonzero_members(self) -> List[Tuple[int, CPoly]]:
        """(k, P_k) for 0 <= k <= kmax with P_k != 0, in increasing k."""
        return [(k, self.polys[k]) for k in range(0, self.kmax + 1) if self.polys[k]]

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "j0": self.j0,
            "polys": [{"k": k, "coeffs": self.polys[k].to_strings()}
                      for k in sorted(self.polys)],
        }


def generate(r: int, m: int, j0: int, kmax: int | None = None) -> Family:
    """A new family seeded at j0, holding exactly P_k for k <= kmax; default kmax = 12r."""
    fam = Family(r, m, j0)
    if kmax is None:
        kmax = 12 * r
    if kmax < 0:
        raise ParameterError("kmax must be >= 0")
    return fam.extend(kmax)


def canonical_j0(family_type: int, r: int) -> int:
    """Seed of the canonical family of a type: -2r for type 1, -r for type 2."""
    if family_type not in (1, 2):
        raise ParameterError(f"family_type must be 1 or 2, got {family_type}")
    return -2 * r if family_type == 1 else -r

