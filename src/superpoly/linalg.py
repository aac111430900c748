"""Exact linear algebra over the rationals.

Every routine goes through one kernel computation, `nullspace`, which runs
in three steps on the matrix M with each row cleared to integers:

1. Kernel mod p.  Each row is reduced mod a prime p against an incremental
   reduced echelon basis.  Its pivots are the pivots of the reduced echelon
   form of M mod p, and each free column f gives the kernel vector mod p
   with v[f] = 1, 0 at the other free columns, and v[pivots[t]] =
   -basis[t][f].
2. Reconstruction.  The kernel vectors of successive primes with the same
   free columns are combined by the Chinese remainder theorem, and each
   entry is recovered as the rational n/d with |n|, d <= sqrt(m/2), where
   m is the product of the primes (Wang's rational reconstruction).  A prime
   with other free columns restarts the accumulation.
3. Exact check.  Each reconstructed vector, scaled to integers, is checked
   against every row in Z.  Reconstruction and check are tried when the
   accumulation holds 1, 2, 4, 8, ... primes.  If a reconstruction fails or
   a row is violated, the next prime is taken: 1073741789, the largest prime
   below 2^30, first, then the primes below it in descending order, so every
   residue fits one 30-bit CPython digit.  A checked vector is scaled so
   that its first nonzero entry is 1.

Why the result is exact.  A set of rows independent mod p is independent
over Q, so rank over Q >= rank mod p.  The check passes only when
d = ncols - rank mod p vectors lie in ker M; they are independent, since
each is 1 at its own free column and 0 at the others.  So dim ker M >= d
>= dim ker M, and the checked vectors span ker M exactly.

Why the result is canonical.  The checked vectors are the reduced-echelon
basis over Q: one vector per free column of the reduced echelon form of M
over Q, 1 there and 0 at the other free columns.  If a prime's pivots
differed from those over Q, some free column f mod p would be a pivot
column over Q.  Write column f as a combination of the prime's pivot
columns.  Over Q some coefficient at a pivot j > f is nonzero, since column
f is not in the span of the columns before it; mod p each such coefficient
is zero, since it is.  The vector of f carries these coefficients, so one
of its entries has a numerator divisible by every prime accumulated.  It
exceeds the reconstruction bound, and the check never accepts that vector.

Both arguments hold for any primes and any schedule of checks.  Only
finitely many primes change the rank or the pivots, and past them the
modulus grows until the bound covers every entry, so the loop ends.  (The
primes below 2^30 multiply to about e^(2^30), a modulus of some 1.5e9 bits.)
An unlucky prime costs time, never correctness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, List, Optional, Sequence

_P = 1073741789  # the largest prime below 2^30, the first prime tried
_ODD_PRIMES = []  # the 3,511 odd primes below 2^15, sieved when _is_prime first runs


def _is_prime(n: int) -> bool:
    """For odd n with 3 <= n < 2^30: read off the sieve below 2^15, else trial
    division by all of _ODD_PRIMES, which reach isqrt(n) and lie below n."""
    if not _ODD_PRIMES:
        sieve = bytearray([1]) * (1 << 15)
        for d in range(3, isqrt(1 << 15) + 1, 2):
            sieve[d * d::2 * d] = bytes(len(range(d * d, 1 << 15, 2 * d)))
        _ODD_PRIMES.extend(d for d in range(3, 1 << 15, 2) if sieve[d])
    return n in _ODD_PRIMES if n < 1 << 15 else all(map(n.__mod__, _ODD_PRIMES))


_PRIMES = [_P]  # the primes _primes() has reached, in its order


def _primes() -> Iterator[int]:
    """_P, then every prime below it in descending order.

    Each prime is found by trial division once per process: a walk reads
    _PRIMES and extends it only past its last entry.
    """
    i = 0
    while True:
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]
        i += 1


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[Sequence[int]]:
    """Each row over the integers with the same span: integer rows as given,
    other rows scaled to coprime integers."""
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _echelon_mod_p(M: List[Sequence[int]], ncols: int, p: int):
    """The reduced echelon basis mod p of the rows of M, built greedily in order.

    Returns (pivots, free, cols).  Basis row t has 1 in column pivots[t] and
    0 in every other pivot column, so only its entries in the free columns
    are stored: cols[i][t] is the entry of basis row t in column free[i].
    A row v lies in the span iff v - sum_t v[pivots[t]] * basis[t]
    vanishes, and that difference is zero in the pivot columns by
    construction; testing a row therefore costs one dot product per free
    column.  `free` is ascending.
    """
    pivots: List[int] = []
    free = list(range(ncols))
    basis: List[List[int]] = []  # entries of each basis row in the free columns
    cols: List[tuple] = [()] * ncols  # the same entries, one tuple per free column
    for row in M:
        if not free:
            break
        coeffs = [row[c] % p for c in pivots]
        resid = [(row[c] - sum(map(mul, coeffs, col))) % p for c, col in zip(free, cols)]
        t = next((t for t, x in enumerate(resid) if x), None)
        if t is None:
            continue
        inv = pow(resid[t], -1, p)
        new = [x * inv % p for x in resid]
        for s, b in enumerate(basis):
            f = b[t]
            if f:
                basis[s] = [(x - f * y) % p for x, y in zip(b, new)]
        basis.append(new)
        for b in basis:
            del b[t]
        pivots.append(free.pop(t))
        cols = list(zip(*basis))
    return pivots, free, cols


def _reconstruct(a: int, m: int, bound: int) -> Optional[Fraction]:
    """The n/d = a mod m with |n| <= bound and 0 < d <= bound, if there is one."""
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lift(vecs: List[List[int]], m: int) -> Optional[List[List[Fraction]]]:
    """Each entry of the vectors mod m as a rational, or None if one fails."""
    bound = isqrt(m // 2)
    out = []
    for vec in vecs:
        lifted = []
        for a in vec:
            x = _reconstruct(a, m, bound)
            if x is None:
                return None
            lifted.append(x)
        out.append(lifted)
    return out


def _first_violated_row(M: List[Sequence[int]], basis: List[List[Fraction]]) -> Optional[int]:
    """Index of the first row of M that some kernel vector does not satisfy."""
    scaled = _integer_rows(basis)
    for i, row in enumerate(M):
        for w in scaled:
            if sum(map(mul, row, w)):
                return i
    return None


def _check_shape(rows: Sequence[Sequence], ncols: int) -> None:
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"row {i} has {len(row)} entries, expected {ncols}")


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None):
    """Exact basis of the right kernel of the matrix.

    Deterministic: reduced-echelon pivots, one basis vector per free column,
    each normalized so its first nonzero entry is 1.  This basis depends only
    on the row space.  Empty list iff the kernel is trivial.  Every row must
    have ncols entries (ValueError otherwise).
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    return _nullspace(rows, ncols)


def _nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[List[Fraction]]:
    """The three steps of the module docstring.

    `solve_exact` calls this rather than `nullspace`, so a tracer wrapping
    the public functions sees each call once.
    """
    _check_shape(rows, ncols)
    M = _integer_rows(rows)
    key = None
    for p in _primes():
        pivots, free, cols = _echelon_mod_p(M, ncols, p)
        if not free:
            return []
        vecs = []
        for f, col in zip(free, cols):
            vec = [0] * ncols
            vec[f] = 1
            for c, x in zip(pivots, col):
                vec[c] = -x % p
            vecs.append(vec)
        if free != key:
            key, m, acc, count = free, p, vecs, 1
        else:  # x = a mod m and x = b mod p
            u = pow(m, -1, p)
            acc = [[a + m * ((b - a) * u % p) for a, b in zip(va, vb)]
                   for va, vb in zip(acc, vecs)]
            m *= p
            count += 1
        if count & (count - 1):  # lift only at 1, 2, 4, 8, ... primes
            continue
        basis = _lift(acc, m)
        if basis is not None and _first_violated_row(M, basis) is None:
            out = []
            for vec in basis:
                first = next(x for x in vec if x)
                out.append([x / first for x in vec] if first != 1 else vec)
            return out


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """The reduced-echelon solution x of rows * x = rhs, or None if there is none.

    Every free unknown (a column in the span of the columns before it) is 0,
    so the solution depends only on the system.  None means exactly that rhs
    lies outside the column span.  The kernel of [A | b] has a vector with a
    nonzero last entry v[n] iff b is in the span; that vector is the
    reduced-echelon basis vector of the free column n, the last of the basis,
    which is 0 at every other free column, so x = -v[:n] / v[n].  Every row
    must have as many entries as the first, and rhs one entry per row
    (ValueError otherwise).
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("solve_exact needs at least one row")
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    ncols = len(rows[0])
    _check_shape(rows, ncols)
    aug = [r + [b] for r, b in zip(rows, rhs)]
    basis = _nullspace(aug, ncols + 1)
    if not basis or basis[-1][ncols] == 0:
        return None
    v = basis[-1]
    return [-x / v[ncols] for x in v[:ncols]]
