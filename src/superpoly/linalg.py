"""Exact linear algebra over the rationals.

Every routine goes through one kernel computation, `nullspace`, which runs
in three steps on the matrix with each row cleared to integers:

1. Select rows mod p.  Each row is reduced mod the prime p = 2^61 - 1
   against an incremental echelon basis; the rows that are independent mod p
   are kept (at most ncols of them).
2. Solve the selected rows exactly.  Fraction-free (Bareiss) elimination,
   whose two-step determinant identity keeps every intermediate entry an
   exact integer, is followed by back-substitution over Fraction.
3. Check every row exactly.  Each kernel vector, scaled to integers, is
   checked against every row in Z.  A violated row joins the selection and
   step 2 runs again.

Rows independent mod p are independent over Q, so the kernel of the selected
rows contains the true kernel; the check makes the two equal.  Each added row
lowers the kernel dimension, so the loop ends.  An unlucky prime costs time,
never correctness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence

_P = (1 << 61) - 1  # Mersenne prime used to select rows


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    """Each row scaled to coprime integers; the row space is unchanged."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _independent_rows_mod_p(M: List[List[int]], ncols: int) -> List[int]:
    """Indices of the rows of M that are independent mod _P, greedily in order.

    The span of the rows picked so far is held as a reduced echelon basis
    mod _P: basis row t has 1 in column pivots[t] and 0 in every other pivot
    column, so only its entries in the free columns are stored.  A row v lies
    in the span iff v - sum_t v[pivots[t]] * basis[t] vanishes, and that
    difference is zero in the pivot columns by construction; testing a row
    therefore costs one dot product per free column.
    """
    pivots: List[int] = []
    free = list(range(ncols))
    basis: List[List[int]] = []  # entries of each basis row in the free columns
    cols: List[tuple] = [()] * ncols  # the same entries, one tuple per free column
    picked: List[int] = []
    for i, row in enumerate(M):
        if not free:
            break
        coeffs = [row[p] % _P for p in pivots]
        resid = [(row[c] - sum(map(mul, coeffs, col))) % _P for c, col in zip(free, cols)]
        t = next((t for t, x in enumerate(resid) if x), None)
        if t is None:
            continue
        inv = pow(resid[t], -1, _P)
        new = [x * inv % _P for x in resid]
        for s, b in enumerate(basis):
            f = b[t]
            if f:
                basis[s] = [(x - f * y) % _P for x, y in zip(b, new)]
        basis.append(new)
        for b in basis:
            del b[t]
        pivots.append(free.pop(t))
        cols = list(zip(*basis))
        picked.append(i)
    return picked


def _bareiss_echelon(M: List[List[int]], ncols: int):
    """In-place fraction-free echelon form; returns the pivot column list."""
    nrows = len(M)
    piv_cols: List[int] = []
    piv_row = 0
    prev = 1
    for col in range(ncols):
        pr = None
        for i in range(piv_row, nrows):
            if M[i][col] != 0:
                pr = i
                break
        if pr is None:
            continue
        M[piv_row], M[pr] = M[pr], M[piv_row]
        p = M[piv_row][col]
        for i in range(piv_row + 1, nrows):
            mi = M[i][col]
            if mi == 0 and all(M[i][j] == 0 for j in range(col, ncols)):
                continue
            for j in range(col, ncols):
                num = p * M[i][j] - mi * M[piv_row][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination invariant violated")
                M[i][j] = q
        prev = p
        piv_cols.append(col)
        piv_row += 1
        if piv_row == nrows:
            break
    return piv_cols


def _kernel_of_rows(M: List[List[int]], ncols: int) -> List[List[Fraction]]:
    """Reduced-echelon kernel basis of the integer rows M, by Bareiss."""
    M = [list(row) for row in M]
    piv_cols = _bareiss_echelon(M, ncols)
    free_cols = [j for j in range(ncols) if j not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in reversed(list(enumerate(piv_cols))):
            s = Fraction(0)
            for j in range(pc + 1, ncols):
                if vec[j]:
                    s += M[i][j] * vec[j]
            vec[pc] = -s / M[i][pc]
        first = next(x for x in vec if x != 0)
        basis.append([x / first for x in vec])
    return basis


def _first_violated_row(M: List[List[int]], basis: List[List[Fraction]]) -> Optional[int]:
    """Index of the first row of M that some kernel vector does not satisfy."""
    scaled = _integer_rows(basis)
    for i, row in enumerate(M):
        for w in scaled:
            if sum(a * b for a, b in zip(row, w) if a):
                return i
    return None


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None):
    """Exact basis of the right kernel of the matrix.

    Deterministic: reduced-echelon pivots, one basis vector per free column,
    each normalized so its first nonzero entry is 1.  This basis depends only
    on the row space.  Empty list iff the kernel is trivial.
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
    M = _integer_rows(rows)
    picked = _independent_rows_mod_p(M, ncols)
    while True:
        basis = _kernel_of_rows([M[i] for i in picked], ncols)
        bad = _first_violated_row(M, basis) if basis else None
        if bad is None:
            return basis
        picked = sorted(picked + [bad])


def solve_exact(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """The reduced-echelon solution x of rows * x = rhs, or None if there is none.

    Every free unknown (a column in the span of the columns before it) is 0,
    so the solution depends only on the system.  None means exactly that rhs
    lies outside the column span.  The kernel of [A | b] has a vector with a
    nonzero last entry v[n] iff b is in the span; that vector is the
    reduced-echelon basis vector of the free column n, the last of the basis,
    which is 0 at every other free column, so x = -v[:n] / v[n].
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("solve_exact needs at least one row")
    ncols = len(rows[0])
    aug = [r + [Fraction(b)] for r, b in zip(rows, rhs)]
    basis = _nullspace(aug, ncols + 1)
    if not basis or basis[-1][ncols] == 0:
        return None
    v = basis[-1]
    return [-x / v[ncols] for x in v[:ncols]]
