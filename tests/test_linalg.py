import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

from superpoly import linalg
from superpoly.linalg import nullspace, solve_exact

P = linalg._P


def F(x):
    return Fraction(x)


def test_identity_has_trivial_kernel():
    eye = [[F(i == j) for j in range(3)] for i in range(3)]
    assert nullspace(eye) == []


def test_zero_matrix_full_kernel():
    basis = nullspace([[F(0), F(0)], [F(0), F(0)]])
    assert len(basis) == 2
    assert basis[0] == [F(1), F(0)]
    assert basis[1] == [F(0), F(1)]


def test_rank_one():
    basis = nullspace([[F(1), F(1)], [F(2), F(2)]])
    assert basis == [[F(1), F(-1)]]


def test_first_nonzero_normalized_to_one():
    # kernel of [1 2 3] contains vectors whose first nonzero entry must be 1
    for vec in nullspace([[F(1), F(2), F(3)]]):
        first = next(x for x in vec if x != 0)
        assert first == 1


def test_kernel_vectors_annihilate_fuzz():
    random.seed(99)
    for _ in range(40):
        nrows = random.randint(1, 5)
        ncols = random.randint(1, 5)
        M = [[Fraction(random.randint(-4, 4), random.randint(1, 3))
              for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(M, ncols)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in M)
        assert ncols - len(rref_nullspace(M, ncols)) + len(basis) == ncols


def test_nullspace_deterministic():
    M = [[F(1), F(2), F(0), F(-1)], [F(0), F(0), F(1), F(3)]]
    assert nullspace(M) == nullspace(M)


def test_solve_exact_unique():
    rows = [[F(2), F(1)], [F(1), F(-1)], [F(3), F(0)]]
    rhs = [F(5), F(1), F(6)]  # x=2, y=1
    assert solve_exact(rows, rhs) == [F(2), F(1)]


def test_solve_exact_inconsistent():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    assert solve_exact(rows, [F(1), F(2)]) is None


def test_solve_exact_underdetermined():
    # the reduced-echelon solution: the free unknown is 0
    assert solve_exact([[1, 1]], [2]) == [2, 0]


def test_solve_exact_dependent_columns():
    # column 1 is twice column 0, so it is free and set to 0; column 2 is a pivot
    rows = [[F(1), F(2), F(0)], [F(2), F(4), F(1)], [F(3), F(6), F(1)]]
    assert solve_exact(rows, [F(3), F(10), F(13)]) == [F(3), F(0), F(4)]
    # the same columns, with the right-hand side outside their span
    assert solve_exact(rows, [F(3), F(10), F(14)]) is None


def test_solve_exact_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(-1, 7)]]
    sol = solve_exact(rows, [Fraction(13, 6), Fraction(-16, 35)])
    assert sol is not None
    for row, b in zip(rows, [Fraction(13, 6), Fraction(-16, 35)]):
        assert sum(x * y for x, y in zip(row, sol)) == b


# ---------------------------------------------------------------------------
# modular-first elimination: exact whatever the prime
# ---------------------------------------------------------------------------

def rref_nullspace(M, ncols):
    """Reference: Gauss-Jordan over Fraction, then one vector per free column."""
    R = [[Fraction(x) for x in row] for row in M]
    pivots = []
    for col in range(ncols):
        pr = next((i for i in range(len(pivots), len(R)) if R[i][col]), None)
        if pr is None:
            continue
        top = len(pivots)
        R[top], R[pr] = R[pr], R[top]
        R[top] = [x / R[top][col] for x in R[top]]
        for i in range(len(R)):
            if i != top and R[i][col]:
                R[i] = [a - R[i][col] * b for a, b in zip(R[i], R[top])]
        pivots.append(col)
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -R[i][fc]
        first = next(x for x in vec if x)
        basis.append([x / first for x in vec])
    return basis


def primes_tried(monkeypatch):
    """The free columns mod each prime `nullspace` tries, in order."""
    tried = []
    inner = linalg._echelon_mod_p

    def spy(M, ncols, p):
        pivots, free, cols = inner(M, ncols, p)
        tried.append(list(free))
        return pivots, free, cols

    monkeypatch.setattr(linalg, "_echelon_mod_p", spy)
    return tried


def test_rows_vanishing_mod_p():
    assert nullspace([[F(P), F(0)], [F(0), F(1)]]) == []
    assert nullspace([[F(P), F(2 * P)], [F(3 * P), F(6 * P)]]) == [[F(1), Fraction(-1, 2)]]
    M = [[F(P), F(0)], [F(0), F(P * P)]]
    assert 2 - len(nullspace(M, 2)) == 2


def test_rows_equal_mod_p_are_added_back(monkeypatch):
    # [1, p] and [1, 0] agree mod p, so the first prime sees rank 1; its
    # kernel e_1 violates the second row exactly, and the next prime has rank 2
    tried = primes_tried(monkeypatch)
    assert nullspace([[F(1), F(0)], [F(1), F(P)]]) == []
    assert tried == [[1], []]


def test_unlucky_prime_loop_reaches_true_kernel(monkeypatch):
    # rows 2..4 lie in the span of rows 0..1 mod p but not over Q
    M = [[F(1), F(0), F(0), F(0)],
         [F(0), F(1), F(0), F(0)],
         [F(1), F(1), F(P), F(0)],
         [F(0), F(1), F(0), F(P)],
         [F(2), F(3), F(P), F(P)]]
    tried = primes_tried(monkeypatch)
    assert nullspace(M) == rref_nullspace(M, 4) == []
    assert tried == [[2, 3], []]
    assert 4 - len(nullspace(M, 4)) == 4
    assert solve_exact(M[:4], [F(1), F(2), F(3 + P), F(2)]) == [F(1), F(2), F(1), F(0)]


def test_entries_beyond_one_prime_need_several(monkeypatch):
    # the kernel vector of free column 1 is (-1/N, 1): its 101-bit
    # denominator needs a modulus above 2 N^2 > 2^201, so seven 30-bit
    # primes; reconstruction is tried at 1, 2, 4 and 8 primes, so eight
    N = (1 << 100) + 277
    M = [[F(N), F(1)]]
    tried = primes_tried(monkeypatch)
    assert nullspace(M) == rref_nullspace(M, 2) == [[F(1), F(-N)]]
    assert tried == [[1]] * 8


def test_prime_with_other_pivots_gives_the_rational_basis(monkeypatch):
    # mod p the second row reduces to [0, 0, 1], so p has pivots {0, 2} and
    # free column 1 where Q has pivots {0, 1} and free column 2; the vector
    # of free column 1 over Q is (-1, 1, p), whose last entry is 0 mod p
    M = [[F(1), F(1), F(0)], [F(1 + P), F(1), F(1)]]
    tried = primes_tried(monkeypatch)
    assert nullspace(M) == rref_nullspace(M, 3) == [[F(1), F(-1), F(-P)]]
    assert tried[0] == [1] and tried[1:] == [[2]] * (len(tried) - 1)
    # the entries 1/p of (-1/p, 1/p, 1) need a modulus above 2 p^2, so three
    # 30-bit primes after the unlucky one; the schedule tries four
    assert len(tried) == 5


def test_reconstruction_waits_for_a_power_of_two_primes(monkeypatch):
    # _lift runs when the accumulation holds 1, 2, 4, 8, ... primes: after
    # echelons 1, 2, 4 and 8 for the seven primes of (-1/N, 1), and after
    # echelons 1, then 2, 3 and 5 where an unlucky prime restarts the count
    tried = primes_tried(monkeypatch)
    counts = []
    inner = linalg._lift

    def spy(vecs, m):
        counts.append(len(tried))
        return inner(vecs, m)

    monkeypatch.setattr(linalg, "_lift", spy)
    N = (1 << 100) + 277
    assert nullspace([[F(N), F(1)]]) == [[F(1), F(-N)]]
    assert counts == [1, 2, 4, 8]
    tried.clear()
    counts.clear()
    assert nullspace([[F(1), F(1), F(0)], [F(1 + P), F(1), F(1)]]) == [[F(1), F(-1), F(-P)]]
    assert counts == [1, 2, 3, 5]


def test_first_prime_is_the_largest_below_2_to_the_30():
    assert P == 1073741789 and linalg._is_prime(P)
    assert not any(linalg._is_prime(n) for n in range(P + 2, 1 << 30, 2))  # P is odd
    # trial division must reach isqrt(n): 32749 is the largest prime below 2^15
    assert linalg._is_prime(32749)
    assert not linalg._is_prime(32749 ** 2) and 32749 ** 2 == 1_072_497_001
    assert [n for n in range(3, 30, 2) if linalg._is_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_each_prime_is_found_once(monkeypatch):
    calls = []
    is_prime = linalg._is_prime
    monkeypatch.setattr(linalg, "_PRIMES", [P])  # a fresh process's cache
    monkeypatch.setattr(linalg, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    first = list(islice(linalg._primes(), 30))
    # _P, then every prime below it: each odd number in between was tried
    assert first[0] == P and calls == list(range(P - 2, first[-1] - 1, -2))
    assert first == [n for n in [P] + calls if is_prime(n)]
    calls.clear()
    assert list(islice(linalg._primes(), 30)) == first
    assert calls == []


def test_first_primes_match_plain_trial_division(monkeypatch):
    # a fresh process's caches: the sieve of odd primes below 2^15 runs when
    # the walk first needs a prime below P
    monkeypatch.setattr(linalg, "_PRIMES", [P])
    monkeypatch.setattr(linalg, "_ODD_PRIMES", [])
    plain = (n for n in range(P, 0, -2) if all(map(n.__mod__, range(3, isqrt(n) + 1, 2))))
    assert list(islice(linalg._primes(), 100)) == list(islice(plain, 100))
    assert len(linalg._ODD_PRIMES) == 3511 and linalg._ODD_PRIMES[-1] == 32749


def test_malformed_rows_are_rejected():
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        nullspace([[1, 0], [0, 0, 1]], 2)
    with pytest.raises(ValueError, match="row 0 has 1 entries, expected 2"):
        nullspace([[1]], 2)
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        solve_exact([[1, 0], [1]], [1, 1])


def test_solve_exact_needs_one_rhs_per_row():
    with pytest.raises(ValueError, match="2 rows but 1 right-hand sides"):
        solve_exact([[1, 0], [0, 1]], [1])


def test_empty_systems_are_rejected():
    # an empty matrix has no width to read, and an empty system no solution to pin
    with pytest.raises(ValueError, match="ncols required"):
        nullspace([])
    with pytest.raises(ValueError, match="at least one row"):
        solve_exact([], [])


def test_integer_rows_are_passed_through():
    rows = [[2, 4], [Fraction(1, 2), 1]]
    out = linalg._integer_rows(rows)
    assert out[0] is rows[0] and out[1] == [1, 2]


def test_tall_matrix_only_last_row_independent():
    M = [[F(0)] * 6 for _ in range(199)]
    M.append([F(0), Fraction(3, 7), F(-1), F(0), F(2), Fraction(5, 3)])
    assert 6 - len(nullspace(M, 6)) == 1
    assert nullspace(M) == rref_nullspace(M, 6)
    assert len(nullspace(M)) == 5


def random_low_rank(rng, nrows, ncols, rk, entry):
    """(nrows x rk) times (rk x ncols) with entries drawn by `entry`: rank <= rk."""
    left = [[entry() for _ in range(rk)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rk)]
    return [[sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
             for j in range(ncols)] for row in left]


def test_random_tall_matrices_match_reference():
    rng = random.Random(2024)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(ncols, 40)
        rk = rng.randint(0, ncols)
        M = random_low_rank(rng, nrows, ncols, rk,
                            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        expected = rref_nullspace(M, ncols)
        assert nullspace(M, ncols) == expected
        assert ncols - len(nullspace(M, ncols)) == ncols - len(expected)


def test_random_big_entries_match_reference():
    # entries above 2^64 and kernels of dimension >= 2, so the vectors need
    # several primes and the CRT combines whole bases
    rng = random.Random(2025)
    big = 1 << 70
    for _ in range(30):
        ncols = rng.randint(2, 6)
        nrows = rng.randint(1, 12)
        rk = rng.randint(1, ncols - 2) if ncols > 2 else 0
        M = random_low_rank(rng, nrows, ncols, rk,
                            lambda: Fraction(rng.randint(-big, big), rng.randint(1, big)))
        expected = rref_nullspace(M, ncols)
        assert len(expected) >= 2
        assert nullspace(M, ncols) == expected
