from fractions import Fraction

import pytest

from superpoly import (CPoly, ParameterError, closed_form_AB, favard, generate,
                       gram_check, identify_ultraspherical, orthogonality_report)
from superpoly import orth
from superpoly.families import Family

from cpoly_helpers import parity


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
    val = sum(p2[i] * p2[j] * m[i + j] for i in range(3) for j in range(3))
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
    # favard checks t <= min(N', 47) and the identification the rest, so the
    # 47 stored relations are checked once each at any flags
    checked = []
    relation_failures = orth._relation_failures

    def counting(q, A, B, ts):
        checked.extend(ts)
        return relation_failures(q, A, B, ts)

    monkeypatch.setattr(orth, "_relation_failures", counting)
    report = orthogonality_report(generate(2, 3, -4, 96), **flags)
    assert checked == list(range(1, 48))
    assert report["identified"] == {"nu": "4/3", "c0": "1/2", "shift": -1}
