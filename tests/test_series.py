import random
import tracemalloc
from fractions import Fraction

import pytest

import superpoly.series as series
from superpoly.families import Family, generate, walk
from superpoly.ode import build_operator
from superpoly.poly import CPoly
from superpoly.series import (certify_exponent_mapping, first_order_residual, pde_reduced,
                              pde_residual)

from cpoly_helpers import derive


def zero_through(resid, bound):
    return all(resid[k].is_zero() for k in range(bound + 1))


def test_first_order_residual_type1():
    fam = generate(2, 2, -4, 20)
    resid = first_order_residual(fam, 20)
    assert zero_through(resid, 20)


def test_first_order_residual_type2():
    fam = generate(2, 3, -2, 20)
    resid = first_order_residual(fam, 20)
    assert zero_through(resid, 16)


def test_first_order_residual_all_seed_positions():
    # the cleared numerator includes the c z^{r+j0} coupling exactly when
    # j0 < -r; a wrong numerator shows up immediately as a nonzero residual
    for j0 in range(-6, 0):
        fam = generate(3, 4, j0, 24)
        assert zero_through(first_order_residual(fam, 24), 24)


def test_first_order_residual_zero_family():
    fam = Family(2, 2, -4)
    fam.polys[-4] = CPoly.zero()
    fam.extend(12)
    assert zero_through(first_order_residual(fam, 12), 12)


def test_first_order_residual_linear_in_initial_data():
    # residual(alpha f + beta g) = alpha residual(f) + beta residual(g):
    # with both residuals zero, any superposed initial data must also give zero
    fam = Family(2, 5, -4)
    fam.polys[-4] = CPoly((3,))
    fam.polys[-1] = CPoly((Fraction(-2, 7),))
    fam.extend(16)
    assert zero_through(first_order_residual(fam, 16), 16)


def test_a_shallow_family_is_walked_to_K_minus_2r():
    # the residual extends the family it is given, keeping only its window
    fam = Family(2, 7, -4).extend(4)
    assert zero_through(first_order_residual(fam, 40), 40)
    assert fam.kmax == 36 and sorted(fam.polys) == list(range(32, 37))


def test_zseries_convention():
    # the coefficient of z^k is P_{k-2r}: a change to P_4 first shows in the
    # residual at z^8, then where it enters as P_{j-r-2r} and P_{j-2r-2r}
    fam = generate(2, 2, -4, 8)
    assert fam.polys[-4] == CPoly.one()
    fam.polys[4] = fam.polys[4] + CPoly.one()
    resid = first_order_residual(fam, 12)
    assert [j for j in range(13) if resid[j]] == [8, 10, 12]


# ---------------------------------------------------------------------------
# fourth-order PDE reductions
# ---------------------------------------------------------------------------

def reference_bracket(family_type, r, m, v, g):
    const = 2 * r * (m * (r - 1) - r) if family_type == 1 else -m * r * r
    s = m * v * v + 2 * (r + (1 - 2 * r) * m) * v + const
    return ((CPoly((1, 0, -1)) * derive(g, 2)).scale(m * r * r)
            - (CPoly((0, 1)) * derive(g, 1)).scale(3 * m * r * r)
            + g.scale(s))


def reference_pde_reduced(family_type, r, m, v, g, corrected):
    """The printed reduction by derivatives and polynomial products, the
    reference the table-driven reduction is checked against."""
    omc2, c = CPoly((1, 0, -1)), CPoly((0, 1))
    res = reference_bracket(family_type, r, m, v, reference_bracket(family_type, r, m, v, g))
    if family_type == 1:
        res = res - g.scale(4 * r * r * (m * (r - 1) - r) ** 2)
        res = res - (c * derive(g, 1)).scale(
            12 * r * r * (-(m + r) ** 2 + m * r * (2 * r + m * (r + 2))))
        res = res + (omc2 * derive(g, 2)).scale(
            4 * r * r * ((m + r) ** 2 + m * r * (-2 * r + m * (r - 2))))
        if corrected:
            res = res - derive(g, 2).scale(4 * r ** 4 * (m + 1))
            res = res - (c * derive(g, 1)).scale(
                24 * r * r * (m * m - 2 * m * m * r + 2 * m * r - 2 * m * r * r + r * r))
    else:
        res = res - (omc2.scale(-1) * derive(g, 2) + (c * derive(g, 1)).scale(3) + g).scale(
            4 * r * r * (m + r - 2 * m * r) ** 2)
        res = res - derive(g, 2).scale(4 * r ** 4 * (m + 1))
    return res


def test_banded_pde_reduction_equals_derivative_composition():
    rng = random.Random(77)
    for _ in range(200):
        tp, corrected = rng.choice((1, 2)), rng.choice((False, True))
        r, m = rng.randint(2, 8), rng.randint(2, 10)
        v = rng.randint(-2 * r, 14 * r)
        g = CPoly(Fraction(rng.randint(-99, 99), rng.randint(1, 40))
                  for _ in range(rng.randint(1, 17)))
        assert pde_reduced(tp, r, m, v, g, corrected) \
            == reference_pde_reduced(tp, r, m, v, g, corrected)


def test_type2_pde_reduction_equals_operator():
    # the per-exponent reduction of the type-2 PDE is exactly L2 at n = exponent
    for (r, m) in [(2, 4), (3, 2), (4, 3)]:
        for n in (2 * r, 3 * r, 5 * r):
            p = generate(r, m, -r, 8 * r).polys[n - 2 * r]
            lhs = pde_reduced(2, r, m, n, p)
            rhs = build_operator(2, r, m, n).apply(p)
            assert lhs == rhs


def test_type2_pde_mapping_is_exponent():
    fam = generate(2, 4, -2, 24)
    assert certify_exponent_mapping(2, fam, 16) == 0


def test_type2_pde_residual_report():
    report = pde_residual(2, 2, 4, 16)
    assert report["pass"] and report["offset"] == 0
    report = pde_residual(2, 3, 2, 18)
    assert report["pass"]


def test_type1_pde_printed_fails_and_is_reported():
    report = pde_residual(1, 2, 2, 16)
    assert not report["pass"]
    assert report["findings"]


def test_type1_pde_corrected_is_exact():
    # subtracting 4 r^4 (m+1) d^2 + 24 r^2 (m^2-2m^2 r+2mr-2mr^2+r^2) c d makes
    # the printed type-1 reduction equal L1 at n = exponent
    for (r, m) in [(2, 2), (3, 3), (2, 4)]:
        report = pde_residual(1, r, m, 8 * r, corrected=True)
        assert report["pass"] and report["offset"] == 0


def test_corrected_type1_reduction_equals_operator():
    for (r, m) in [(2, 2), (4, 2)]:
        for n in (3 * r, 4 * r):
            p = generate(r, m, -2 * r, 8 * r).polys[n - 2 * r]
            assert pde_reduced(1, r, m, n, p, corrected=True) \
                == build_operator(1, r, m, n).apply(p)


def test_pde_off_lattice_zero_coefficient():
    assert pde_reduced(2, 2, 4, 7, CPoly.zero()).is_zero()


def test_pde_residual_generates_to_the_last_exponent_read(monkeypatch):
    # exponent K reads P_(K-2r); at K = 2r that is P_0, far below 12r.  The
    # mapping search reads k <= 6r - 2r = 8, and the walk the rest
    made = []
    monkeypatch.setattr(series, "generate",
                        lambda r, m, j0, kmax: made.append(generate(r, m, j0, kmax)) or made[-1])
    for K in (4, 10, 60):
        assert pde_residual(2, 2, 3, K)["pass"]
    assert [fam.kmax for fam in made] == [0, 6, 56]
    assert all(len(fam.polys) <= 5 for fam in made)


def test_a_tampered_member_past_the_mapping_prefix_is_a_pde_residual(monkeypatch):
    # the mapping is certified on exponents <= 6r = 12; exponent 20 reads P_16,
    # which the walk yields perturbed; the members after it are generated
    # from the stored P_16
    def tampered(fam, kmax):
        for k, g in walk(fam, kmax):
            yield k, g + CPoly.one() if k == 16 else g
    monkeypatch.setattr(series, "walk", tampered)
    report = pde_residual(2, 2, 4, 24)
    assert report["offset"] == 0 and not report["pass"]
    assert [f["kind"] for f in report["findings"]] == ["pde-residual"]
    assert [e["exponent"] for e in report["residuals"]] == [20]


def test_series_checks_hold_a_window_of_the_family():
    # the type-2 family to k = 396, the last member K = 400 reads, against the
    # peaks of both checks; each reads its members through the walk's 2r + 1
    def peak(check):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        check()
        return tracemalloc.get_traced_memory()[1] - base

    pde_residual(2, 2, 3, 16)  # first calls, outside the window
    first_order_residual(generate(2, 3, -2, 0), 16)
    tracemalloc.start()
    try:
        fam = generate(2, 3, -2, 396)
        family_bytes = tracemalloc.get_traced_memory()[0]
        del fam
        pde_peak = peak(lambda: pde_residual(2, 2, 3, 400))
        shallow = generate(2, 3, -2, 0)
        series_peak = peak(lambda: first_order_residual(shallow, 400))
    finally:
        tracemalloc.stop()
    assert pde_peak < family_bytes / 3, (pde_peak, family_bytes)
    assert series_peak < family_bytes / 3, (series_peak, family_bytes)
