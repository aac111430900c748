import random
import sys
from fractions import Fraction

import pytest

from superpoly import (CPoly, ParameterError, classification_report, classify,
                       gegenbauer, gegenbauer_ode_residual, generate,
                       superposition_fit, verify_gegenbauer_reduction)
from superpoly.linalg import solve_exact


def test_classify_examples():
    assert classify(4, 2, -8) == "A_type1"
    assert classify(4, 2, -5) == "B_linear_combination"
    assert classify(4, 2, -2) == "C_new"
    assert classify(4, 2, -4) == "A_prime_type2"
    assert classify(4, 2, -1) == "C_case3"


def test_taxonomy_partitions():
    for r in range(2, 8):
        kinds = [classify(r, 2, j0) for j0 in range(-2 * r, 0)]
        assert len(kinds) == 2 * r
        assert kinds.count("A_type1") == 1
        assert kinds.count("A_prime_type2") == 1
        assert kinds.count("B_linear_combination") == r - 1
        assert kinds.count("C_case3") == 1
        assert kinds.count("C_new") == r - 2


def test_superposition_degenerate_cases():
    rep = superposition_fit(3, 2, -6)
    assert (rep["alpha"], rep["beta"]) == ("1", "0") and not rep["findings"]
    rep = superposition_fit(3, 2, -3)
    assert (rep["alpha"], rep["beta"]) == ("0", "1") and not rep["findings"]


def test_superposition_rejects_type_c():
    with pytest.raises(ParameterError):
        superposition_fit(4, 2, -2)


def test_superposition_type_b_violation_is_reported():
    # the three families live on different support lattices mod r, so the
    # member-wise identity cannot hold; the engine must say so, not guess
    rep = superposition_fit(3, 2, -4, members=10)
    assert rep["findings"]
    assert any(f["kind"] in ("superposition-violation", "fit-degeneracy")
               for f in rep["findings"])


def test_superposition_certifies_against_its_own_family():
    # with the seed's own family as the first of the pair the fit is (1, 0),
    # and every aligned member after the two fitted ones certifies
    rep = superposition_fit(3, 2, -4, canonical=(generate(3, 2, -4, 48),
                                                 generate(3, 2, -3, 48)))
    assert (rep["alpha"], rep["beta"]) == ("1", "0")
    assert rep["certified_k"] == list(range(8, 48, 3)) and not rep["findings"]


def test_superposition_ignores_deeper_cached_members():
    # members=10 at r = 3 reads k <= 48: 16 type-B members, the first two fit
    # (alpha, beta), the other 14 are findings.  A deeper generation of any of
    # the three families earlier in the process must not change that.
    fresh = superposition_fit(3, 2, -4)
    for j0 in (-4, -6, -3):
        generate(3, 2, j0, 300)
    deep = superposition_fit(3, 2, -4)
    assert len(fresh["findings"]) == 14
    assert deep == fresh


def test_classification_report_generates_the_canonical_pair_once(monkeypatch):
    classify_module = sys.modules["superpoly.classify"]  # the attribute is the function
    seeds = []
    generate = classify_module.generate

    def counting(r, m, j0, kmax=None):
        seeds.append(j0)
        return generate(r, m, j0, kmax)

    fresh = classification_report(4, 3, members=6)
    monkeypatch.setattr(classify_module, "generate", counting)
    assert classification_report(4, 3, members=6) == fresh
    # the two canonical families, then the three type-B seeds
    assert seeds == [-8, -4, -7, -6, -5]


def test_classification_report_schema():
    report = classification_report(3, 2, members=6)
    assert {e["j0"] for e in report["entries"]} == set(range(-6, 0))
    for entry in report["entries"]:
        if entry["kind"] == "B_linear_combination":
            assert "findings" in entry


# ---------------------------------------------------------------------------
# Gegenbauer basis
# ---------------------------------------------------------------------------

def test_banded_gegenbauer_residual_equals_derivative_composition():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(2, 10), rng.randint(0, 30)
        y = CPoly(Fraction(rng.randint(-99, 99), rng.randint(1, 40))
                  for _ in range(rng.randint(1, 17)))
        reference = (CPoly((1, 0, -1)) * y.derive(2)
                     - (CPoly((0, 1)) * y.derive(1)).scale(Fraction(2, m) + 3)
                     + y.scale(n * (Fraction(2, m) + n + 2)))
        assert gegenbauer_ode_residual(m, n, y) == reference


def test_gegenbauer_q0_q1():
    basis = gegenbauer(2, 5)
    assert basis[0] == CPoly.one()
    assert basis[1] == CPoly((0, 3))  # Q_1 = 2 lambda c, lambda = 1 + 1/m = 3/2
    assert gegenbauer_ode_residual(2, 1, basis[1]).is_zero()


def test_gegenbauer_q5_ode():
    basis = gegenbauer(2, 6)
    assert gegenbauer_ode_residual(2, 5, basis[5]).is_zero()
    # and a non-member fails: Q_5's equation does not annihilate Q_4
    assert not gegenbauer_ode_residual(2, 5, basis[4]).is_zero()


def test_gegenbauer_rational_lambda():
    basis = gegenbauer(3, 8)
    assert basis[1] == CPoly((0, 2 * Fraction(4, 3)))  # Q_1 = 2 lambda c
    for n, q in enumerate(basis):
        assert gegenbauer_ode_residual(3, n, q).is_zero()


# ---------------------------------------------------------------------------
# reductions of the j0 = -1 and j0 = -r-1 families
# ---------------------------------------------------------------------------

def test_case4_members_single_q_with_ode():
    # j0 = -r-1 members are exact single Gegenbauer multiples and satisfy the
    # published second-order equation (which is attributed to j0 = -1 instead)
    report = verify_gegenbauer_reduction(2, 3, -3)
    assert report["all_two_term"]
    assert report["all_single_Q_with_ode"]


def test_case3_members_single_cq():
    # j0 = -1 members are exact single multiples of c Q_{n-1}; they fail the
    # printed second-order equation beyond the degree-1 member
    report = verify_gegenbauer_reduction(2, 3, -1)
    assert report["all_two_term"]
    entries = report["entries"]
    assert all(e["single_cQ"] or e["degree"] <= 1 for e in entries)
    assert not report["all_single_Q_with_ode"]
    assert any(not e["ode_zero"] for e in entries)


def test_case3_first_member_hand_value():
    # k = r-1 row: (2r + rm) P_{r-1} = 2cr, so P_{r-1} = 2c/(2+m)
    fam = generate(2, 3, -1, 4)
    assert fam[1] == CPoly((0, Fraction(2, 5)))


def test_case4_first_member_hand_value():
    # k = r-1 row: (2r + rm) P_{r-1} = rm, so P_{r-1} = m/(2+m)
    fam = generate(2, 3, -3, 4)
    assert fam[1] == CPoly((Fraction(3, 5),))


def test_reduction_m2_case4_pure_q():
    # for m = 2 the published series' (m-2) term drops; members stay single-Q
    report = verify_gegenbauer_reduction(3, 2, -4)
    assert report["all_two_term"] and report["all_single_Q_with_ode"]


def test_reduction_ignores_deeper_cached_members():
    # kmax = 48 at r = 3 holds the 16 members k = 2, 5, ..., 47, fresh or
    # after the family was generated to k = 300
    fresh = verify_gegenbauer_reduction(3, 2, -1, kmax=48)
    generate(3, 2, -1, 300)
    deep = verify_gegenbauer_reduction(3, 2, -1, kmax=48)
    assert len(fresh["entries"]) == 16
    assert [e["k"] for e in fresh["entries"]] == list(range(2, 48, 3))
    assert deep == fresh


def test_reduction_reports_the_printed_mismatch():
    # j0 = -1: every member after the degree-1 one fails the printed equation,
    # reported as one finding that does not fail the reduction
    report = verify_gegenbauer_reduction(3, 2, -1)
    assert report["all_two_term"]
    assert [f["kind"] for f in report["findings"]] == ["printed-reduction-mismatch"]
    assert report["findings"][0]["k"] == [e["k"] for e in report["entries"][1:]]
    assert verify_gegenbauer_reduction(3, 2, -4)["findings"] == []


def test_two_term_fit_is_exact():
    # the fit verify_gegenbauer_reduction makes: solve_exact on the columns [q, cq]
    def two_term_fit(p, q, cq):
        top = max(len(p), len(q), len(cq))
        return solve_exact([[q[i], cq[i]] for i in range(top)], [p[i] for i in range(top)])

    basis = gegenbauer(2, 3)
    c = CPoly.monomial(1)
    # at degree 1, Q_1 and c Q_0 are proportional: the fit is a single Q_1
    assert two_term_fit(c.scale(3), basis[1], c * basis[0]) == [1, 0]
    assert two_term_fit(basis[2] + (c * basis[1]).scale(Fraction(1, 2)),
                        basis[2], c * basis[1]) == [1, Fraction(1, 2)]
    assert two_term_fit(basis[3], basis[2], c * basis[1]) is None


def test_reduction_rejects_other_j0():
    with pytest.raises(ParameterError):
        verify_gegenbauer_reduction(3, 2, -2)


def test_reduction_grid():
    for (r, m) in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3)]:
        assert verify_gegenbauer_reduction(r, m, -1)["all_two_term"]
        assert verify_gegenbauer_reduction(r, m, -r - 1)["all_single_Q_with_ode"]
