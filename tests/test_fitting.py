import sys
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from superpoly.errors import FitError
from superpoly.families import generate
from superpoly.fitting import N_DEGREE, fit_ode, in_span, operator_vector
from superpoly.linalg import nullspace
from superpoly.ode import OdeOperator, align_index, build_operator, polynomial_kernel
from superpoly.poly import CPoly

from cpoly_helpers import coefficients, derive, leading, operator_coefficients


def materialize(vec, bounds, n):
    """A fitted kernel vector's c-coefficient polynomials [order 0 .. order] at index n."""
    it = iter(vec)
    return [CPoly(sum(w * n ** l for l, w in enumerate(islice(it, N_DEGREE + 1)))
                  for _ in range(b + 1)) for b in bounds]


def proportional(fitted, paper):
    """One exact ratio across all five coefficient polynomials."""
    ratios = set()
    for f, p in zip(fitted, paper):
        if f.is_zero() != p.is_zero():
            return False
        if f:
            ratio = leading(p) / leading(f)
            if f.scale(ratio) != p:
                return False
            ratios.add(ratio)
    return len(ratios) == 1


def test_fit_recovers_type1_operator():
    fam = generate(2, 2, -4, 40)
    delta = align_index(fam, 1)
    result = fit_ode(fam, coeff_degree_bounds=(0, 1, 2, 3, 4), delta=delta, holdout=4)
    assert result.kernel_dim == 1
    assert len(result.candidates) == 1
    cand = result.candidates[0]
    for n in (8, 12, 16):
        fitted = materialize(cand, result.bounds, n)
        assert proportional(fitted, operator_coefficients(build_operator(1, 2, 2, n)))


def test_fitted_candidate_is_an_operator_with_its_member_as_kernel():
    # the type-1 fit at (r, m) = (2, 4), read at n = k + delta and cleared to
    # integers, is an operator in its own right: it annihilates P_k, and its
    # polynomial kernel to degree deg P_k is P_k alone
    fam = generate(2, 4, -4, 40)
    delta = align_index(fam, 1)
    (cand,) = fit_ode(fam, delta=delta).candidates
    checked = []
    for k, p in fam.nonzero_members():
        if not 6 <= k <= 14:
            continue
        polys = materialize(cand, (0, 1, 2, 3, 4), k + delta)
        den = lcm(*(q.den for q in polys))
        op = OdeOperator(tuple(tuple(a * (den // q.den) for a in q.num) for q in polys))
        assert op.apply(p).is_zero()
        first = next(a for a in p.num if a)
        assert polynomial_kernel(op, int(p.degree)) == [p.scale(Fraction(p.den, first))]
        checked.append(k)
    assert checked == [6, 8, 10, 12, 14]


def test_fit_type2_kernel_contains_operator():
    # type-2 members' second derivatives satisfy a classical second-order
    # equation, so the shaped annihilator space is genuinely larger than one
    # dimension; the closed operator must still lie exactly in the fitted span
    fam = generate(2, 4, -2, 40)
    delta = align_index(fam, 2)
    result = fit_ode(fam, coeff_degree_bounds=(0, 1, 2, 3, 4), delta=delta, holdout=4)
    assert result.kernel_dim >= 1
    assert len(result.candidates) == result.kernel_dim
    target = operator_vector(2, 2, 4)
    assert in_span(result.candidates, target)


def residual(vec, p, n, bounds=(0, 1, 2, 3, 4)):
    """Reference action of a fitted operator: sum_i materialize(n)[i] * p^(i)."""
    return sum((coeff * derive(p, i) for i, coeff in enumerate(materialize(vec, bounds, n))),
               CPoly.zero())


def test_fit_candidates_annihilate_holdout():
    fam = generate(2, 4, -2, 40)
    result = fit_ode(fam, delta=4)
    for cand in result.candidates:
        for k in result.holdout_k:
            assert residual(cand, fam.polys[k], k + 4).is_zero()


def test_holdout_drops_kernel_vectors_that_miss_a_held_out_member(monkeypatch):
    # one held-out member rejects 6 of the 7 kernel vectors of the fit rows
    import superpoly.fitting as fitting
    fam = generate(2, 2, -4, 24)
    kernels = []

    def recording_nullspace(rows, ncols):
        kernels.append(nullspace(rows, ncols))
        return kernels[-1]
    monkeypatch.setattr(fitting, "nullspace", recording_nullspace)
    result = fit_ode(fam, delta=4, holdout=1)
    assert result.kernel_dim == 7 and len(kernels) == 1
    assert len(result.candidates) == 1
    (k,) = result.holdout_k
    kept = [list(c) for c in result.candidates]
    for vec in kernels[0]:
        assert residual(vec, fam.polys[k], k + 4).is_zero() == (vec in kept)


def test_fit_type_c_family_candidate():
    # conjecture-explorer route: no ground truth, candidate verified on holdout
    fam = generate(4, 3, -2, 70)
    result = fit_ode(fam, delta=0, holdout=3)
    assert result.kernel_dim == 1
    assert len(result.candidates) == 1


def test_fit_ignores_deeper_cached_members():
    # kmax = 44 fits k = 0, 2, ..., 36 and holds out 38..44, fresh or after
    # the family was generated to k = 120
    fresh = fit_ode(generate(2, 2, -4, 44), delta=4)
    generate(2, 2, -4, 120)
    deep = fit_ode(generate(2, 2, -4, 44), delta=4)
    assert fresh.fit_k[-1] == 36 and fresh.holdout_k == [38, 40, 42, 44]
    assert deep.to_json() == fresh.to_json()


def test_fit_underdetermined_raises():
    from superpoly.families import Family
    fam = Family(2, 11, -4).extend(12)
    with pytest.raises(FitError):
        fit_ode(fam, delta=4, holdout=4)


def test_fit_needs_a_degree_bound():
    with pytest.raises(FitError, match="need a degree bound"):
        fit_ode(generate(2, 2, -4, 40), coeff_degree_bounds=())


def test_operator_vector_roundtrip():
    # the embedding evaluated back at concrete n reproduces the operator
    vec = operator_vector(1, 3, 5)
    for n in (6, 9, 15):
        assert materialize(vec, (0, 1, 2, 3, 4), n) == list(
            operator_coefficients(build_operator(1, 3, 5, n)))


def test_operator_vector_rejects_a_coefficient_above_degree_4(monkeypatch):
    # W + n^5 is no polynomial of degree <= 4 in n: six samples of n show it
    ode_module = sys.modules["superpoly.ode"]
    closed = ode_module.scalar_coefficients

    def perturbed(family_type, r, m, n):
        W, X, Y, Z = closed(family_type, r, m, n)
        return W + n * n * n * n * n, X, Y, Z

    monkeypatch.setattr(ode_module, "scalar_coefficients", perturbed)
    with pytest.raises(FitError):
        operator_vector(1, 3, 5)


def test_operator_vector_rejects_a_term_that_vanishes_at_six_samples(monkeypatch):
    # n(n-1)...(n-5) is zero at n = 0..5, so no six samples 0..5 of the
    # operator see it; read at the polynomial n it has degree 6
    ode_module = sys.modules["superpoly.ode"]
    closed = ode_module.scalar_coefficients

    def perturbed(family_type, r, m, n):
        W, X, Y, Z = closed(family_type, r, m, n)
        return W + n * (n - 1) * (n - 2) * (n - 3) * (n - 4) * (n - 5), X, Y, Z

    monkeypatch.setattr(ode_module, "scalar_coefficients", perturbed)
    with pytest.raises(FitError):
        operator_vector(1, 3, 5)


def test_operator_vector_builds_one_operator_and_solves_nothing(monkeypatch):
    import superpoly.fitting as fitting
    built, solves = [], []
    monkeypatch.setattr(fitting, "build_operator",
                        lambda *args: built.append(args) or build_operator(*args))
    monkeypatch.setattr(fitting, "solve_exact", lambda *args: solves.append(args))
    vec = operator_vector(2, 3, 4)
    assert len(built) == 1 and not solves
    assert len(vec) == (N_DEGREE + 1) * sum(b + 1 for b in (0, 1, 2, 3, 4))


# the canonical cells of the grid workloads: verify-ode and scan
GRID_CELLS = [(t, r, m) for t, rs in ((1, range(2, 9)), (2, range(2, 11)))
              for r in rs for m in range(2, 11)]


def test_operator_vector_reads_back_the_operator_on_every_grid_cell():
    for t, r, m in GRID_CELLS:
        vec = operator_vector(t, r, m)
        for n in (-3, 7, 1000):
            assert materialize(vec, (0, 1, 2, 3, 4), n) == list(
                operator_coefficients(build_operator(t, r, m, n))), (t, r, m, n)


def test_in_span_rejects_foreign_operator():
    fam = generate(2, 2, -4, 40)
    result = fit_ode(fam, delta=4)
    # the type-2 operator of a different cell is not in the type-1 fit's span
    target = operator_vector(2, 2, 4)
    assert not in_span(result.candidates, target)


def fraction_rows(fam, delta, holdout=4, bounds=(0, 1, 2, 3, 4)):
    """The fit rows assembled with Fraction arithmetic, as a reference."""
    index = {}  # (i, j, l) -> column: n^l c^j d^i, in the fit's block order
    for i, b in enumerate(bounds):
        for j in range(b + 1):
            for l in range(N_DEGREE + 1):
                index[(i, j, l)] = len(index)
    ncols = len(index)
    members = fam.nonzero_members()
    rows = []
    for k, p in members[:len(members) - holdout]:
        npows = [Fraction(k + delta) ** l for l in range(N_DEGREE + 1)]
        derivs = [derive(p, i) for i in range(len(bounds))]
        height = max(len(d) + b for d, b in zip(derivs, bounds) if d)
        block = [[Fraction(0)] * ncols for _ in range(height)]
        for i, d in enumerate(derivs):
            for j in range(bounds[i] + 1):
                for t, a in enumerate(coefficients(d)):
                    for l in range(N_DEGREE + 1):
                        block[t + j][index[(i, j, l)]] += a * npows[l]
        rows.extend(row for row in block if any(row))
    return rows, ncols


# the fits of `fit-ode --type 1 --r 2 --m 2 --kmax 80` and
# `fit-ode --type 2 --r 2 --m 3 --kmax 60`
ELIM_FITS = [(1, 2, 2, -4, 80), (2, 2, 3, -2, 60)]


@pytest.mark.parametrize("family_type,r,m,j0,kmax", ELIM_FITS)
def test_elim_fits_reconstruct_from_one_prime(monkeypatch, family_type, r, m, j0, kmax):
    # every kernel entry has at most 10 bits, and one 30-bit prime
    # reconstructs entries up to about 2^14.5 = sqrt(2^30 / 2)
    import superpoly.linalg as linalg
    fam = generate(r, m, j0, kmax)
    delta = align_index(fam, family_type)
    primes = []
    inner = linalg._echelon_mod_p

    def spy(M, ncols, p):
        primes.append(p)
        return inner(M, ncols, p)
    monkeypatch.setattr(linalg, "_echelon_mod_p", spy)
    assert fit_ode(fam, delta=delta).kernel_dim >= 1
    assert primes == [linalg._P]


@pytest.mark.parametrize("family_type,r,m,j0,kmax", ELIM_FITS)
def test_integer_rows_give_the_fraction_kernel(monkeypatch, family_type, r, m, j0, kmax):
    import superpoly.fitting as fitting
    fam = generate(r, m, j0, kmax)
    delta = align_index(fam, family_type)
    seen = []

    def recording_nullspace(rows, ncols):
        seen.append(rows)
        return nullspace(rows, ncols)
    monkeypatch.setattr(fitting, "nullspace", recording_nullspace)
    result = fit_ode(fam, delta=delta)
    reference, ncols = fraction_rows(fam, delta)
    assert all(type(x) is int for row in seen[0] for x in row)
    assert len(seen[0]) == len(reference)
    for row, ref in zip(seen[0], reference):  # each row a positive multiple of its reference
        ratio = next(x / y for x, y in zip(row, ref) if y)
        assert ratio > 0 and [x * ratio for x in ref] == row
    kernel = nullspace(reference, ncols)
    assert result.kernel_dim == len(kernel)
    assert [list(c) for c in result.candidates] == kernel


def test_fit_with_fewer_equations_than_unknowns_raises():
    # 9 fitted members give 99 rows for the 210 unknowns of six degree-6 bounds
    with pytest.raises(FitError, match="99 equations for 210 unknowns"):
        fit_ode(generate(2, 2, -4, 24), coeff_degree_bounds=(6,) * 6, delta=4)
