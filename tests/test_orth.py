from fractions import Fraction
import random

import pytest

from superpoly import orth
from superpoly.errors import ParameterError
from superpoly.families import Family, canonical_j0, generate
from superpoly.orth import (closed_form_AB, favard, gram_check, identify_ultraspherical,
                            orthogonality_report)
from superpoly.poly import CPoly

from cpoly_helpers import coefficient, parity, reference_gram, reference_moments


def support(fam):
    """(k_t, q_t) of the nonzero members, the sequence favard reads."""
    ks, q = zip(*fam.nonzero_members())
    return list(ks), list(q)


def test_reindex_ignores_deeper_cached_members():
    # kmax = 44 holds the 23 members k = 0, 2, ..., 44, fresh or after the
    # family was generated to k = 200
    fresh = support(generate(2, 2, -4, 44))
    generate(2, 2, -4, 200)
    deep = support(generate(2, 2, -4, 44))
    assert fresh[0] == list(range(0, 45, 2))
    assert deep == fresh


def test_reindex_type2_values():
    _, q = support(generate(2, 4, -2, 12))
    assert q[0] == CPoly((0, Fraction(-1, 2)))
    assert q[1] == CPoly((Fraction(1, 4), 0, Fraction(-3, 8)))
    assert q[2] == CPoly((0, Fraction(6, 16), 0, Fraction(-7, 16)))


def test_reindex_type1_values():
    _, q = support(generate(2, 2, -4, 12))
    assert q[0] == CPoly.one()
    assert q[1] == CPoly((0, Fraction(4, 5)))
    assert q[2] == CPoly((Fraction(-1, 7), 0, Fraction(32, 35)))


def test_reindex_degrees():
    _, q = support(generate(3, 4, -6, 24))
    assert [int(p.degree) for p in q] == list(range(len(q)))


def test_closed_form_a1_identified_case():
    # a_n = (n+c0)(n-1+2nu+c0) / (4 (n+nu+c0)(n-1+nu+c0)) at nu=3/2, c0=1/2, n=1
    nu, c0 = Fraction(3, 2), Fraction(1, 2)
    A1, B1 = closed_form_AB(nu, c0, 1)
    A0, _ = closed_form_AB(nu, c0, 0)
    assert B1 * A0 == Fraction(7, 32)


def test_favard_relation_and_positivity():
    fd = favard(generate(2, 2, -4, 40), 12)
    assert not fd.findings
    assert fd.relation_certified_t == list(range(1, 13))
    assert all(x > 0 for x in fd.a[1:])


def test_favard_positivity_deep():
    # a_t > 0 for t <= 200 for both canonical families over a grid sample
    for (r, m) in [(2, 2), (2, 10), (8, 2), (8, 10), (5, 7)]:
        for j0 in (-2 * r, -r):
            fd = favard(generate(r, m, j0, 12 * r), 200, gram_N=2)
            assert all(x > 0 for x in fd.a[1:201])


def test_moment_normalization_and_parity():
    fd = favard(generate(2, 4, -2, 40), 10)
    assert fd.moments[0] == 1
    assert all(fd.moments[j] == 0 for j in range(1, 21, 2))


def test_monic_recurrence_and_parity():
    fd = favard(generate(2, 2, -4, 40), 8)
    c = CPoly.monomial(1)
    for t in range(1, 8):
        assert c * fd.monic[t] == fd.monic[t + 1] + fd.monic[t - 1].scale(fd.a[t])
        assert parity(fd.monic[t]) == t % 2


def test_gram_orthogonality():
    fd = favard(generate(2, 4, -2, 40), 10)
    report = gram_check(fd, 10)
    assert report["pass"] and report["offdiag_zero"]
    # diagonal = running product a_1 ... a_t
    prods = [Fraction(1)]
    for t in range(1, 11):
        prods.append(prods[-1] * fd.a[t])
    assert [Fraction(x) for x in report["diag"]] == prods


def test_gram_hand_checks():
    fd = favard(generate(2, 2, -4, 40), 4)
    # <p_0, p_1> = moment_1 = 0 and <p_2, p_2> = a_1 a_2
    m = fd.moments
    assert m[1] == 0
    p2 = fd.monic[2]
    val = sum(coefficient(p2, i) * coefficient(p2, j) * m[i + j]
              for i in range(3) for j in range(3))
    assert val == fd.a[1] * fd.a[2]


def test_gram_check_reports_tampered_moments():
    fd = favard(generate(2, 3, -4, 40), 12)
    fd.moments[4] += 1
    report = gram_check(fd, 6)
    assert not report["pass"] and not report["offdiag_zero"]
    assert len(report["findings"]) == 13
    assert [f["i"] for f in report["findings"] if f["kind"] == "norm-violation"] == [2, 3, 4, 5, 6]
    assert [(f["i"], f["j"]) for f in report["findings"]
            if f["kind"] == "orthogonality-violation"] == [
        (0, 4), (0, 6), (1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (4, 6)]


def favard_of(family_type, r, m, N):
    """favard's data to depth N for a canonical family, generated as the CLI does."""
    return favard(generate(r, m, canonical_j0(family_type, r), max(12, N + 3) * r), N)


@pytest.mark.parametrize("family_type", [1, 2])
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gram_check_matches_direct_sums(family_type, r, m):
    fd = favard_of(family_type, r, m, 20)
    for N in (1, 2, 7, 20):
        report = gram_check(fd, N)
        assert report == reference_gram(fd, N)
        assert report["pass"]


@pytest.mark.parametrize("family_type", [1, 2])
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_moments_match_fraction_iteration(family_type, r, m):
    # each order keeps its own rows, so every order is compared, not a prefix
    fd = favard(generate(r, m, canonical_j0(family_type, r), 33 * r), 30, gram_N=1)
    for N in (1, 2, 7, 30):
        assert orth._moments(fd.a, 2 * N) == reference_moments(fd.a, 2 * N)


@pytest.mark.parametrize("family_type,r,m", [(1, 2, 3), (2, 4, 5)])
def test_moments_match_fraction_iteration_at_N_100(family_type, r, m):
    fd = favard_of(family_type, r, m, 100)
    assert fd.moments == reference_moments(fd.a, 200)


def test_moments_of_arbitrary_coefficients():
    # negative, zero and unrelated a_t, every order from 0 to 16
    rng = random.Random(5)
    for _ in range(20):
        a = [Fraction(0)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 40)) for _ in range(8)]
        for order in range(17):
            assert orth._moments(a, order) == reference_moments(a, order)


def tamper_moment(fd):
    fd.moments[6] += 1


def tamper_coefficient(fd):
    fd.monic[5] = fd.monic[5] + CPoly.monomial(3, Fraction(1, 5))


def tamper_leading(fd):
    fd.monic[4] = fd.monic[4].scale(2)  # no longer monic


@pytest.mark.parametrize("tamper", [tamper_moment, tamper_coefficient, tamper_leading])
@pytest.mark.parametrize("family_type", [1, 2])
def test_gram_check_matches_direct_sums_on_tampered_data(tamper, family_type):
    fd = favard_of(family_type, 3, 4, 12)
    tamper(fd)
    report = gram_check(fd, 12)
    assert report == reference_gram(fd, 12)
    assert report["findings"] and not report["pass"]


def test_gram_check_at_N_80():
    fd = favard_of(2, 2, 3, 80)
    report = gram_check(fd, 80)
    assert report["pass"] and report["offdiag_zero"]
    prods = [Fraction(1)]
    for t in range(1, 81):
        prods.append(prods[-1] * fd.a[t])
    assert report["diag"] == [str(x) for x in prods]


def test_identify_r2():
    # all r = 2 cells match with c0 = 1/2; the (2,2) type-2 support starts one
    # stride late (the 2c-coefficient vanishes at k = 0), shifting the match
    for (m, j0, shift) in [(2, -4, -1), (2, -2, 0), (3, -4, -1), (3, -2, -1),
                           (4, -4, -1), (4, -2, -1)]:
        got = identify_ultraspherical(generate(2, m, j0, 24))
        ident = got["identified"]
        assert ident is not None
        assert ident["c0"] == "1/2"
        assert ident["shift"] == shift
        assert Fraction(ident["nu"]) == Fraction(2, 2) * (1 + Fraction(1, m))


def test_identify_r3():
    # nu = 1 + 1/m and c0 + shift = (k_0 + 1)/r - 1 = -2/3, with k_0 = 0
    for j0 in (-6, -3):
        fam = generate(3, 3, j0, 36)
        got = identify_ultraspherical(fam)
        assert got["identified"] == {"nu": "4/3", "c0": "1/3", "shift": -1}
        assert got["certified_t"] == len(fam.nonzero_members()) - 2 == 11


def test_identify_late_first_member():
    # (4, 2, -3) starts at k_0 = 5: c0 + shift = 6/4 - 1 = 1/2
    got = identify_ultraspherical(generate(4, 2, -3, 48))
    assert got["identified"] == {"nu": "3/2", "c0": "1/2", "shift": 0}


def test_tampered_member_breaks_identification_and_relation():
    fam = generate(2, 3, -4, 40)
    assert identify_ultraspherical(fam)["identified"] is not None
    fam.polys[10] = fam[10] + CPoly.one()  # q_5, read by the relations at t = 4, 5, 6
    assert identify_ultraspherical(fam) == {"identified": None, "nu": "4/3",
                                            "certified_t": 0}
    fd = favard(fam, 12)
    assert fd.findings == [{"kind": "recurrence-violation", "t": t} for t in (4, 5, 6)]
    assert fd.relation_certified_t == [t for t in range(1, 13) if t not in (4, 5, 6)]


def test_identification_reads_the_relation_failures_favard_found():
    fam = generate(2, 3, -4, 40)
    fam.polys[4] = fam[4] + CPoly.one()  # q_2, read by the relations at t = 1, 2, 3
    assert identify_ultraspherical(fam)["identified"] is None
    report = orthogonality_report(fam)
    assert report["relation_certified_t"] == list(range(4, 20))
    assert report["identified"] is None


def test_favard_checks_relations_past_its_depth():
    # favard checks every stored relation, but reports only t <= N: a member
    # past N breaks the identification through favard's failed list alone
    fam = generate(2, 3, -4, 40)
    fam.polys[20] = fam[20] + CPoly.one()  # q_10, read by the relations at t = 9, 10, 11
    fd = favard(fam, 3)
    assert fd.failed == [9, 10, 11]
    assert fd.findings == []
    assert fd.relation_certified_t == [1, 2, 3]
    assert identify_ultraspherical(fam)["identified"] is None


def test_favard_rejects_a_family_with_no_member():
    fam = Family(2, 2, -4)
    fam.polys[-4] = CPoly.zero()  # blank the seed: nothing can be nonzero
    fam.extend(6)
    with pytest.raises(ParameterError):
        favard(fam, 2)
    assert identify_ultraspherical(fam)["identified"] is None


def test_identified_closed_forms_match_extraction():
    report = orthogonality_report(generate(2, 3, -4, 60), N=6, n_positive=50,
                                  closed_form_n=50)
    assert report["identified"] is not None
    assert report["closed_form_match"] is True
    assert report["a_positive"] and report["gram_pass"]


def test_orthogonality_report_r3_identified():
    report = orthogonality_report(generate(3, 3, -3, 36), N=6, n_positive=60,
                                  closed_form_n=60)
    assert report["identified"] == {"nu": "4/3", "c0": "1/3", "shift": -1}
    assert report["closed_form_match"] is True
    assert report["a_positive"] and report["gram_pass"]


def test_orthogonality_report_ignores_deeper_cached_members():
    # the relation is certified for t <= min(n_positive, len(q) - 2), so a
    # deeper cached generation would lengthen relation_certified_t
    fresh = orthogonality_report(generate(2, 3, -4, 60), N=6, n_positive=50)
    generate(2, 3, -4, 200)
    deep = orthogonality_report(generate(2, 3, -4, 60), N=6, n_positive=50)
    assert fresh["relation_certified_t"] == list(range(1, 30))
    assert deep == fresh


@pytest.mark.parametrize("flags", [{}, {"N": 1, "n_positive": 1}])
def test_orthogonality_report_checks_each_relation_once(monkeypatch, flags):
    # favard checks all 47 stored relations and the identification reads its
    # failures, so each relation is checked once at any flags
    checked = []
    relation_failures = orth._relation_failures

    def counting(q, A, B, ts):
        checked.extend(ts)
        return relation_failures(q, A, B, ts)

    monkeypatch.setattr(orth, "_relation_failures", counting)
    report = orthogonality_report(generate(2, 3, -4, 96), **flags)
    assert checked == list(range(1, 48))
    assert report["identified"] == {"nu": "4/3", "c0": "1/2", "shift": -1}


def test_gram_check_rejects_a_depth_beyond_the_favard_data():
    fd = favard(generate(2, 3, -4, 40), 5)
    assert gram_check(fd, 5)["pass"]
    with pytest.raises(ParameterError, match="gram_check needs N"):
        gram_check(fd, 6)
