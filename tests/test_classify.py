import random
import types
import weakref
from fractions import Fraction

import pytest

import superpoly.classify as classify_module
from superpoly.classify import (_canonical_pair, _two_term_rows, classification_report, gegenbauer,
                                gegenbauer_ode_residual, seed_kind, superposition_fit,
                                verify_gegenbauer_reduction)
from superpoly.errors import FitError, ParameterError
from superpoly.families import Family, generate, stream
from superpoly.linalg import solve_exact
from superpoly.poly import CPoly

from cpoly_helpers import derive, fraction_two_term_fit


def test_classify_examples():
    assert seed_kind(4, 2, -8) == "A_type1"
    assert seed_kind(4, 2, -5) == "B_linear_combination"
    assert seed_kind(4, 2, -2) == "C_new"
    assert seed_kind(4, 2, -4) == "A_prime_type2"
    assert seed_kind(4, 2, -1) == "C_case3"


def test_taxonomy_partitions():
    for r in range(2, 8):
        kinds = [seed_kind(r, 2, j0) for j0 in range(-2 * r, 0)]
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


@pytest.mark.parametrize("members", [0, -1, -5])
def test_fewer_than_one_member_is_refused_before_generating(monkeypatch, members):
    # members = 0 used to certify nothing at depth 6r and report a full result
    monkeypatch.setattr(classify_module, "generate", None)  # a seed generated raises TypeError
    for call in (lambda: superposition_fit(3, 2, -4, members=members),
                 lambda: superposition_fit(3, 2, -6, members=members),
                 lambda: classification_report(4, 3, members=members)):
        with pytest.raises(ParameterError, match="members must be at least 1"):
            call()


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


def test_the_classify_import_is_the_module():
    import superpoly
    assert isinstance(classify_module, types.ModuleType)
    assert superpoly.classify is classify_module
    assert classify_module.seed_kind is seed_kind


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
        reference = (CPoly((1, 0, -1)) * derive(y, 2)
                     - (CPoly((0, 1)) * derive(y, 1)).scale(Fraction(2, m) + 3)
                     + y.scale(n * (Fraction(2, m) + n + 2)))
        assert gegenbauer_ode_residual(m, n, y) == reference


def test_gegenbauer_q0_q1():
    basis = list(gegenbauer(2, 5))
    assert basis[0] == CPoly.one()
    assert basis[1] == CPoly((0, 3))  # Q_1 = 2 lambda c, lambda = 1 + 1/m = 3/2
    assert gegenbauer_ode_residual(2, 1, basis[1]).is_zero()


def test_gegenbauer_q5_ode():
    basis = list(gegenbauer(2, 6))
    assert gegenbauer_ode_residual(2, 5, basis[5]).is_zero()
    # and a non-member fails: Q_5's equation does not annihilate Q_4
    assert not gegenbauer_ode_residual(2, 5, basis[4]).is_zero()


def test_gegenbauer_rational_lambda():
    basis = list(gegenbauer(3, 8))
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
    assert fam.polys[1] == CPoly((0, Fraction(2, 5)))


def test_case4_first_member_hand_value():
    # k = r-1 row: (2r + rm) P_{r-1} = rm, so P_{r-1} = m/(2+m)
    fam = generate(2, 3, -3, 4)
    assert fam.polys[1] == CPoly((Fraction(3, 5),))


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


@pytest.mark.parametrize("j0, last", [(-1, 16), (-4, 15)])
def test_reduction_builds_the_basis_only_to_the_last_degree_read(monkeypatch, j0, last):
    # kmax = 48 at r = 3 reads the 16 members k = 2, 5, ..., 47; the basis is
    # asked for up to a bound on their degree, (kmax - j0) // r = 16 or 17.
    # Each Q_n is certified at n as it is built, and each member at its degree.
    certified = []
    monkeypatch.setattr(classify_module, "gegenbauer_ode_residual",
                        lambda m, n, y: certified.append(n) or gegenbauer_ode_residual(m, n, y))
    report = verify_gegenbauer_reduction(3, 2, j0, kmax=48)
    degrees = [e["degree"] for e in report["entries"]]
    assert degrees == list(range(last - 15, last + 1))
    assert sorted(certified) == sorted(list(range(last + 1)) + degrees)


@pytest.mark.parametrize("r, m, j0", [(2, 3, -1), (2, 3, -3), (3, 2, -1), (4, 5, -5)])
def test_reduction_holds_2r_plus_1_members_and_two_basis_members(monkeypatch, r, m, j0):
    # recorded at each step of the walk: the family's members, and the Q_n
    # that the basis handed out and that are still alive
    class Held(CPoly):  # a CPoly that a weak reference can follow
        pass

    alive = []

    def basis(m, nmax):
        for q in gegenbauer(m, nmax):
            q = Held._canonical(q.num, q.den)
            alive.append(weakref.ref(q))
            yield q

    held = []
    extend = Family.extend

    def recording(self, k):
        out = extend(self, k)
        held.append((len(self.polys), sum(ref() is not None for ref in alive)))
        return out

    monkeypatch.setattr(classify_module, "gegenbauer", basis)
    monkeypatch.setattr(Family, "extend", recording)
    report = verify_gegenbauer_reduction(r, m, j0, kmax=20 * r)
    assert len(report["entries"]) == 20
    assert len(held) == 20 * r + 2 * r + 1  # one step per k = -2r..kmax
    assert max(members for members, _ in held) == 2 * r + 1
    assert max(q for _, q in held) == 2


def test_reduction_reports_the_printed_mismatch():
    # j0 = -1: every member after the degree-1 one fails the printed equation,
    # reported as one finding that does not fail the reduction
    report = verify_gegenbauer_reduction(3, 2, -1)
    assert report["all_two_term"]
    assert [f["kind"] for f in report["findings"]] == ["printed-reduction-mismatch"]
    assert report["findings"][0]["k"] == [e["k"] for e in report["entries"][1:]]
    assert verify_gegenbauer_reduction(3, 2, -4)["findings"] == []


def test_reduction_falls_back_to_every_row_where_the_top_rows_mislead(monkeypatch):
    # P_9 + 1 keeps its c^5 and c^3 rows, so the top-row fit is P_9's own;
    # the certificate rejects it, and solve_exact on every row finds no fit.
    # The walk hands out the tampered P_9; later members read the true one.
    monkeypatch.setattr(classify_module, "stream", lambda *args: (
        (k, p + 1 if k == 9 else p) for k, p in stream(*args)))
    solves = []
    monkeypatch.setattr(classify_module, "solve_exact",
                        lambda rows, rhs: solves.append(len(rows)) or solve_exact(rows, rhs))
    report = verify_gegenbauer_reduction(2, 3, -1, kmax=12)
    assert [e["k"] for e in report["entries"] if not e["two_term"]] == [9]
    assert not report["all_two_term"]
    assert report["findings"][0]["kind"] == "reduction-violation"
    # the members k = 1, 3, ..., 11 have degrees 1..6: one top-row solve each
    # (one row at degree 1), then P_9's 6 rows once
    assert [e["degree"] for e in report["entries"]] == [1, 2, 3, 4, 5, 6]
    assert solves == [1, 2, 2, 2, 2, 6, 2]


def test_two_term_fit_is_exact():
    # the fit verify_gegenbauer_reduction makes: solve_exact on the integer
    # columns [q, cq] over one common denominator
    def two_term_fit(p, q, cq):
        rows, rhs = _two_term_rows(p, q, cq)
        assert {type(x) for row in rows for x in row} | set(map(type, rhs)) == {int}
        return solve_exact(rows, rhs)

    basis = list(gegenbauer(2, 3))
    c = CPoly.monomial(1)
    # at degree 1, Q_1 and c Q_0 are proportional: the fit is a single Q_1
    assert two_term_fit(c.scale(3), basis[1], c * basis[0]) == [1, 0]
    assert two_term_fit(basis[2] + (c * basis[1]).scale(Fraction(1, 2)),
                        basis[2], c * basis[1]) == [1, Fraction(1, 2)]
    assert two_term_fit(basis[3], basis[2], c * basis[1]) is None


def test_integer_column_fits_equal_fraction_row_fits():
    # both classify fits solve on integer columns; each (alpha, beta) and
    # (x, y) equals solve_exact on the Fraction rows of the same members
    for r in range(2, 6):
        for m in range(2, 7):
            fam_1, fam_2 = _canonical_pair(r, m, 10)
            by_degree = [{int(p.degree): p for _, p in fam.nonzero_members()}
                         for fam in (fam_1, fam_2)]
            for j0 in range(-2 * r + 1, -r):
                triples = [(p, by_degree[0].get(int(p.degree), CPoly.zero()),
                            by_degree[1].get(int(p.degree), CPoly.zero()))
                           for _, p in generate(r, m, j0, 16 * r).nonzero_members()]
                rep = superposition_fit(r, m, j0, canonical=(fam_1, fam_2))
                alpha, beta = fraction_two_term_fit(*triples[:2])
                assert (rep["alpha"], rep["beta"]) == (str(alpha), str(beta))
            for j0 in (-1, -r - 1):
                report = verify_gegenbauer_reduction(r, m, j0)
                basis = list(gegenbauer(m, max(e["degree"] for e in report["entries"]) + 1))
                members = dict(generate(r, m, j0, 14 * r).nonzero_members())
                for e in report["entries"]:
                    d = e["degree"]
                    cq = basis[d - 1].shift(1) if d >= 1 else CPoly.zero()
                    fit = fraction_two_term_fit((members[e["k"]], basis[d], cq))
                    assert fit is not None and [e["x"], e["y"]] == [str(x) for x in fit]


def test_reduction_rejects_other_j0():
    with pytest.raises(ParameterError):
        verify_gegenbauer_reduction(3, 2, -2)


def test_reduction_grid():
    for (r, m) in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3)]:
        assert verify_gegenbauer_reduction(r, m, -1)["all_two_term"]
        assert verify_gegenbauer_reduction(r, m, -r - 1)["all_single_Q_with_ode"]


def test_first_members_outside_the_canonical_span_are_a_fit_degeneracy(monkeypatch):
    # P_4 of (3, 2, -5) is 7c; 7c + 1 has no odd-parity (alpha, beta) fit
    def tampered(r, m, j0, kmax=None):
        fam = generate(r, m, j0, kmax)
        if j0 == -5:
            fam.polys[4] = fam.polys[4] + CPoly.one()
        return fam
    monkeypatch.setattr(classify_module, "generate", tampered)
    report = superposition_fit(3, 2, -5)
    assert report["alpha"] is None and report["beta"] is None
    assert [f["kind"] for f in report["findings"]] == ["fit-degeneracy"]


def test_gegenbauer_raises_when_a_member_fails_its_equation(monkeypatch):
    # Q_0 and Q_1 satisfy the equation of every m, and are yielded; Q_2 only its own
    monkeypatch.setattr(classify_module, "gegenbauer_ode_residual",
                        lambda m, n, y: gegenbauer_ode_residual(m + 1, n, y))
    basis = gegenbauer(3, 5)
    assert [next(basis), next(basis)] == [CPoly.one(), CPoly((0, Fraction(8, 3)))]
    with pytest.raises(FitError, match="Q_2 fails"):
        next(basis)
