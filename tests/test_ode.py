import random
from fractions import Fraction

import pytest

import superpoly.ode as ode
from superpoly.classify import gegenbauer
from superpoly.errors import ParameterError
from superpoly.families import canonical_j0, generate
from superpoly.linalg import nullspace
from superpoly.ode import (OdeOperator, align_index, build_operator, delta_correction, indicial,
                           is_resonant, polynomial_kernel, printed_indicial_factors, residual_scan,
                           scalar_coefficients, scan_cell)
from superpoly.poly import CPoly

from cpoly_helpers import (coefficient, derive, indicial_value, leading, leading_symbol,
                           operator_coefficients, parity, resonant_pairs)


def reference_apply(op, p):
    """The operator as coefficient polynomials times derivatives, the reference
    the table-driven action is checked against."""
    return sum((coeff * derive(p, i) for i, coeff in enumerate(operator_coefficients(op))),
               CPoly.zero())


def random_poly(rng, degree):
    return CPoly(Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(degree + 1))


def test_build_operator_type1_hand_expansion():
    # hand expansion of the four closed scalar formulas at (r=2, m=2, n=8)
    assert scalar_coefficients(1, 2, 2, 8) == (4096, 448, 320, -2496)
    assert build_operator(1, 2, 2, 8).table == ((4096,), (0, -2496), (320, 0, 448),
                                                (0, -640, 0, 640), (64, 0, -128, 0, 64))


def test_build_operator_coefficients_equal_the_products():
    c2m1 = CPoly((-1, 0, 1))
    for tp in (1, 2):
        for (r, m, n) in [(2, 2, 8), (3, 5, 0), (4, 4, 17), (7, 9, 70)]:
            coeffs = operator_coefficients(build_operator(tp, r, m, n))
            W, X, Y, Z = scalar_coefficients(tp, r, m, n)
            M = m * m * r ** 4
            assert coeffs[4] == (c2m1 * c2m1).scale(M)
            assert coeffs[3] == (CPoly((0, 1)) * c2m1).scale(10 * M)
            assert coeffs[:3] == (CPoly((W,)), CPoly((0, Z)), CPoly((Y, 0, X)))


def test_build_operator_type2_hand_expansion():
    assert scalar_coefficients(2, 2, 4, 6) == (-1536, 4032, -512, -3264)
    assert build_operator(2, 2, 4, 6).table[:3] == ((-1536,), (0, -3264), (-512, 0, 4032))
    assert delta_correction(2, 4, 6) == 0


def test_delta_vanishes_for_r2():
    for m in range(2, 11):
        for n in range(0, 30):
            assert delta_correction(2, m, n) == 0
    assert delta_correction(3, 3, 9) != 0


def test_apply_annihilates_hand_members():
    # c^2 coefficient: 448*64 - 2496*64 + 4096*32 = 0, constant: 320*64 - 4096*5 = 0
    assert build_operator(1, 2, 2, 8).apply(CPoly((-5, 0, 32))).is_zero()
    # c^2 coefficient: -24192 + 19584 + 4608 = 0
    assert build_operator(2, 2, 4, 6).apply(CPoly((2, 0, -3))).is_zero()


def test_banded_apply_equals_derivative_composition():
    rng = random.Random(2026)
    for _ in range(300):
        tp = rng.choice((1, 2))
        r = rng.randint(2, 8)
        op = build_operator(tp, r, rng.randint(2, 10), rng.randint(0, 12 * r))
        p = random_poly(rng, rng.randint(0, 16))
        assert op.apply(p) == reference_apply(op, p)
        s = rng.randint(0, 30)
        assert leading_symbol(op, s) == coefficient(reference_apply(op, CPoly.monomial(s)), s)


def test_apply_linearity_on_zero():
    assert build_operator(2, 5, 7, 10).apply(CPoly.zero()).is_zero()


def test_align_index_is_2r():
    # every canonical cell of the verify-ode and scan grids: the scans read
    # n = k + 2r off instead of searching, so the search must agree there
    for tp, r_max in ((1, 8), (2, 10)):
        for r in range(2, r_max + 1):
            for m in range(2, 11):
                fam = generate(r, m, canonical_j0(tp, r), 8 * r)
                assert align_index(fam, tp) == 2 * r, (tp, r, m)


def test_align_degree_relation():
    # deg P_k = n/r - 2 (type 1) and n/r - 1 (type 2) under n = k + 2r
    fam1 = generate(2, 2, -4, 12)
    for k, p in fam1.nonzero_members():
        assert p.degree == (k + 4) // 2 - 2
    fam2 = generate(2, 4, -2, 12)
    for k, p in fam2.nonzero_members():
        assert p.degree == (k + 4) // 2 - 1


def test_align_failure_reported():
    # a family the type-1 operator does not annihilate under any shift
    fam = generate(3, 3, -2, 24)
    assert len(fam.nonzero_members()) >= 3
    assert align_index(fam, 1) is None


def test_parity_preservation_fuzz():
    random.seed(11)
    for _ in range(20):
        tp = random.choice((1, 2))
        r = random.randint(2, 6)
        m = random.randint(2, 8)
        n = r * random.randint(1, 8)
        op = build_operator(tp, r, m, n)
        even = CPoly([Fraction(random.randint(-9, 9)) if i % 2 == 0 else Fraction(0)
                      for i in range(7)])
        odd = CPoly([Fraction(random.randint(-9, 9)) if i % 2 == 1 else Fraction(0)
                     for i in range(8)])
        assert parity(op.apply(even)) in (0, None)
        assert parity(op.apply(odd)) in (1, None)


def test_degree_preservation_fuzz():
    random.seed(12)
    for _ in range(20):
        tp = random.choice((1, 2))
        op = build_operator(tp, random.randint(2, 6), random.randint(2, 8), 12)
        p = CPoly([Fraction(random.randint(-9, 9)) for _ in range(random.randint(1, 9))])
        if p:
            assert op.apply(p).degree <= p.degree


# ---------------------------------------------------------------------------
# indicial machinery
# ---------------------------------------------------------------------------

def test_leading_symbol_equals_factored_product():
    random.seed(7)
    for _ in range(20):
        tp = random.choice((1, 2))
        r = random.randint(2, 8)
        m = random.randint(2, 10)
        n = r * random.randint(1, 10)
        op = build_operator(tp, r, m, n)
        for s in range(0, 21):
            assert leading_symbol(op, s) == indicial_value(tp, r, m, n, s)


def test_leading_symbol_systematic_grid():
    # exhaustive over the verification grid at a few n and s: the factored
    # forms used by indicial() agree with the operators everywhere
    for tp in (1, 2):
        for r in range(2, 9):
            for m in range(2, 11):
                for n in (r, 3 * r, 7 * r):
                    op = build_operator(tp, r, m, n)
                    for s in (0, 1, 2, 5, 11):
                        assert leading_symbol(op, s) == indicial_value(tp, r, m, n, s)


def test_printed_factorization_matches_type1_and_r2():
    # published type-1 products match everywhere; type-2 iff Delta = 0, that is
    # at r = 2 or where 2mn - 7mr + 2m + 4r = 0 (sampled here at r = 2)
    for s in range(0, 13):
        for n in (4, 8, 12):
            assert (indicial_value(1, 4, 3, n, s)
                    == prod_printed(1, 4, 3, n, s))
            assert (indicial_value(2, 2, 5, n, s)
                    == prod_printed(2, 2, 5, n, s))
    # explicit r >= 3 counterexample, certified against the operator
    op = build_operator(2, 6, 2, 54)
    assert leading_symbol(op, 0) == indicial_value(2, 6, 2, 54, 0) == 16220160
    assert prod_printed(2, 6, 2, 54, 0) == 19906560  # the printed value differs


def prod_printed(tp, r, m, n, s):
    v = 1
    for slope, intercept in printed_indicial_factors(tp, r, m, n):
        v *= slope * s + intercept
    return v


def test_leading_symbol_examples():
    # s = 2 is the n/r - 2 root of the type-1 indicial polynomial
    op = build_operator(1, 2, 2, 8)
    assert leading_symbol(op, 2) == 0
    # s = 0 value is the product of the published factors (8)(-4)(-8)(16) = 4096,
    # which equals the constant coefficient of apply(op, 1)
    assert leading_symbol(op, 0) == 4096 == coefficient(op.apply(CPoly.one()), 0)
    # type-2 factor sr - n + r vanishes at s = 1 for n = 4 (the degree-1 member)
    assert leading_symbol(build_operator(2, 2, 4, 4), 1) == 0
    assert leading_symbol(build_operator(2, 2, 4, 6), 1) == -4800


def test_indicial_type1_roots():
    data = indicial(1, 2, 4, 8)
    roots = {Fraction(e["root"]): e["multiplicity"] for e in data["roots"]}
    assert roots == {Fraction(2): 1, Fraction(-4): 1,
                     Fraction(3, 2): 1, Fraction(-7, 2): 1}
    assert data["admissible_degrees"] == [2]
    assert not data["resonant"]
    assert data["matches_printed_factorization"]


def test_indicial_type2_r2_extra_root():
    data = indicial(2, 2, 2, 8)
    assert set(data["admissible_degrees"]) == {1, 3}
    assert data["matches_printed_factorization"]


def test_indicial_type2_r3_flags_printed_mismatch():
    data = indicial(2, 3, 4, 12)
    assert not data["matches_printed_factorization"]
    assert 3 in data["admissible_degrees"]  # n/r - 1 stays a root


def test_indicial_printed_factorization_holds_where_delta_vanishes():
    # Delta = r^2 (r-2) m (2mn - 7mr + 2m + 4r) is 0 at these r >= 3 points
    for r, m, n in [(3, 4, 8), (4, 2, 9), (5, 4, 14)]:
        assert delta_correction(r, m, n) == 0
        assert indicial(2, r, m, n)["matches_printed_factorization"]
        assert all(prod_printed(2, r, m, n, s) == indicial_value(2, r, m, n, s)
                   for s in range(30))


def test_indicial_raises_when_the_factors_miss_the_operator(monkeypatch):
    import superpoly.ode as ode
    monkeypatch.setattr(ode, "indicial_factors",
                        lambda tp, r, m, n: ode.printed_indicial_factors(2, r, m, n))
    with pytest.raises(ArithmeticError):
        indicial(2, 3, 4, 12)


def test_resonant_pairs():
    assert resonant_pairs(range(2, 11), range(2, 11)) == [(3, 6), (4, 4), (6, 3)]
    assert is_resonant(4, 4) and not is_resonant(2, 2)


def test_indicial_nr_minus_roots_always_present():
    for (tp, r, m, n) in [(1, 3, 5, 9), (1, 5, 2, 20), (2, 3, 4, 12), (2, 7, 9, 21)]:
        data = indicial(tp, r, m, n)
        expected = n // r - 2 if tp == 1 else n // r - 1
        if expected >= 0:
            assert expected in data["admissible_degrees"]


# ---------------------------------------------------------------------------
# polynomial kernel
# ---------------------------------------------------------------------------

def reference_kernel(images, bound, parity):
    """Nullspace of the operator's full matrix on the monomials of the requested
    parity; images[j] is the reference image of c^j."""
    powers = {"even": range(0, bound + 1, 2), "odd": range(1, bound + 1, 2),
              "both": range(bound + 1)}[parity]
    if not powers:
        return []
    out = []
    for vec in nullspace([[coefficient(images[j], i) for j in powers] for i in range(bound + 1)],
                         len(powers)):
        coeffs = [0] * (bound + 1)
        for power, v in zip(powers, vec):
            coeffs[power] = v
        out.append(CPoly(coeffs))
    return out


def test_kernel_back_substitution_equals_full_matrix_nullspace():
    # the resonant pairs (4,4), (3,6), (6,3) carry a kernel vector per parity;
    # `killed` counts cases where a root of I carries no kernel vector, so the
    # constraint system is exercised, not only the free parameters
    dims, killed = set(), 0
    for tp in (1, 2):
        for (r, m) in [(2, 2), (2, 5), (3, 6), (4, 4), (6, 3), (5, 2)]:
            for n in (0, r, 2 * r + 1, 4 * r, 7 * r - 1):
                op = build_operator(tp, r, m, n)
                images = [reference_apply(op, CPoly.monomial(j)) for j in range(26)]
                for bound in (0, 3, 12, 25):
                    roots = sum(1 for s in range(bound + 1) if leading_symbol(op, s) == 0)
                    for parity in ("even", "odd", "both"):
                        basis = polynomial_kernel(op, bound, parity)
                        assert basis == reference_kernel(images, bound, parity)
                        dims.add(len(basis))
                    killed += len(basis) < roots
    assert dims == {0, 1, 2} and killed


def test_kernel_rejects_negative_bound():
    with pytest.raises(ParameterError):
        polynomial_kernel(build_operator(1, 2, 2, 8), -1)


@pytest.mark.parametrize("parity", ["Odd", "", None])
def test_kernel_rejects_an_unknown_parity(parity):
    # any other value used to read as "even"
    with pytest.raises(ParameterError, match="parity must be"):
        polynomial_kernel(build_operator(2, 4, 4, 40), 80, parity)


@pytest.mark.parametrize("table", [((0, 1),), ((0,), (1,)), ((0,), (0,), (0,), (1,)),
                                   build_operator(1, 2, 2, 8).table + ((1,),)])
def test_kernel_rejects_a_shift_outside_its_band(table):
    # c p, p', p''' and L_8 p + p^(5): shifts +1, -1, -3 and -5
    with pytest.raises(ParameterError, match="shifts 0, -2 and -4 only"):
        polynomial_kernel(OdeOperator(table), 6)


def test_kernel_reads_a_missing_shift_as_zero():
    # the Gegenbauer equation, m times over: no d^4 row, so no shift -4; its
    # kernel at degree n is Q_n, first nonzero coefficient 1
    m = 3
    for n, q in enumerate(gegenbauer(m, 9)):
        op = OdeOperator(((n * (2 + m * (n + 2)),), (0, -(2 + 3 * m)), (m, 0, -m)))
        assert op.apply(q).is_zero()
        assert polynomial_kernel(op, n) == [q.scale(Fraction(q.den, next(a for a in q.num if a)))]
    # the lone d^2 row sends c^s to s(s-1) c^(s-2): no shift 0, every power free
    assert polynomial_kernel(OdeOperator(((), (), (1,))), 3) == [CPoly((1,)), CPoly((0, 1))]


def test_scalar_coefficients_rejects_an_unknown_type():
    with pytest.raises(ParameterError, match="family_type must be 1 or 2"):
        scalar_coefficients(3, 2, 3, 8)


def test_scan_rejects_an_empty_grid():
    with pytest.raises(ParameterError, match="empty"):
        residual_scan(1, [], [3])


@pytest.mark.parametrize("scan", [lambda points: scan_cell(1, 2, 3, points),
                                  lambda points: residual_scan(1, [2], [3], points)],
                         ids=["scan_cell", "residual_scan"])
def test_scan_rejects_an_unknown_points_name(scan):
    # a string is not a sequence of n: "some" used to die on "s" - 4
    with pytest.raises(ParameterError, match="n_points must be"):
        scan("some")


def test_kernel_type2_matches_member():
    basis = polynomial_kernel(build_operator(2, 2, 4, 6), 2, "both")
    assert len(basis) == 1
    # spanned by 2 - 3c^2 (normalized first-nonzero-to-1 representative)
    assert basis[0] == CPoly((1, 0, Fraction(-3, 2)))


def test_kernel_type1_r3():
    basis = polynomial_kernel(build_operator(1, 3, 5, 12), 2, "both")
    assert len(basis) == 1
    member = generate(3, 5, -6, 6)[6]
    ratio = leading(member) / leading(basis[0])
    assert basis[0].scale(ratio) == member


def test_kernel_trivial_when_no_admissible_degree():
    # n = 8, type 1, r=2, m=4: only admissible degree is 2; bound 1 excludes it
    basis = polynomial_kernel(build_operator(1, 2, 4, 8), 1, "both")
    assert basis == []


def test_kernel_parity_split():
    op = build_operator(2, 2, 2, 8)  # admissible degrees {1, 3}, both odd
    assert len(polynomial_kernel(op, 4, "odd")) >= 1
    assert polynomial_kernel(op, 4, "even") == []


def test_kernel_resonant_pairs_two_dimensional():
    # at the resonant pairs the extra opposite-parity solution exists: the
    # full kernel is 2-dimensional with exactly one member per parity
    for (tp, r, m, n) in [(1, 3, 6, 12), (2, 3, 6, 12), (1, 4, 4, 16),
                          (2, 6, 3, 24)]:
        op = build_operator(tp, r, m, n)
        bound = max(indicial(tp, r, m, n)["admissible_degrees"]) + 3
        assert len(polynomial_kernel(op, bound, "both")) == 2
        assert len(polynomial_kernel(op, bound, "even")) == 1
        assert len(polynomial_kernel(op, bound, "odd")) == 1


# ---------------------------------------------------------------------------
# residual scan
# ---------------------------------------------------------------------------

def test_scan_small_grid_paper_points():
    report = residual_scan(2, [2, 3], [2, 3], "paper")
    assert report["summary"]["pass"]
    for cell in report["cells"]:
        assert cell["pass"] and not cell["failures"]
        assert cell["checked_n"] == [t * cell["r"] for t in range(5, 10)]


def test_scan_all_generated_points():
    report = residual_scan(1, [2], [3], "all")
    assert report["summary"]["pass"]
    assert len(report["cells"][0]["checked_n"]) >= 10


def test_scan_lists_only_nonzero_members():
    # type 2, r = 2: members live on even k = n - 4; n = 3 (k = -1) and odd n
    # are off the lattice, n < 0 lies before the initial block
    cell = residual_scan(2, [2], [3], list(range(-20, 9)))["cells"][0]
    assert cell["checked_n"] == [2, 4, 6, 8] and cell["pass"]
    for points in (list(range(-20, -11)), [7], [3, 5]):
        with pytest.raises(ParameterError):
            residual_scan(2, [2], [3], points)


def test_scan_cell_extends_past_the_default_depth():
    # n = 60 reads P_56, past the default depth 12r = 24
    assert scan_cell(1, 2, 2, [60]) == {"r": 2, "m": 2, "delta": 4, "checked_n": [60],
                                        "pass": True, "failures": []}


def test_scan_checks_exactly_the_requested_points_past_12r():
    # k = 36 and 56, both past 12r = 24, on the even lattice of type 2 at r = 2
    report = residual_scan(2, [2], [3], [40, 60])
    assert report["summary"]["pass"]
    assert report["cells"][0]["checked_n"] == [40, 60]


@pytest.mark.parametrize("points, kmax, checks", [
    ("paper", 21, True), ("all", 36, True), ([42, 60], 54, True),
    ([0], 0, True),  # n = 0 reads the seed P_(-6) = 1, which L_0 annihilates
    ([-20, 5], 0, False), ([], 0, False)])
def test_scan_cell_generates_once_to_the_deepest_member_read(monkeypatch, points, kmax,
                                                             checks):
    # type 1, r = 3: the paper points n = 15..27 read k <= 7r = 21, "all"
    # reads k <= 12r = 36; a list with no nonzero member still raises
    calls = []

    def recording(r, m, j0, depth=None):
        calls.append(depth)
        return generate(r, m, j0, depth)
    monkeypatch.setattr(ode, "generate", recording)
    if checks:
        assert scan_cell(1, 3, 2, points)["pass"]
    else:
        with pytest.raises(ParameterError):
            scan_cell(1, 3, 2, points)
    assert calls == [kmax]


def test_scan_all_ignores_deeper_cached_members():
    # "all" reads the members generated to k = 12r: k = 0, 2, ..., 24
    fresh = residual_scan(2, [2], [3], "all")
    generate(2, 3, -2, 200)
    deep = residual_scan(2, [2], [3], "all")
    assert len(fresh["cells"][0]["checked_n"]) == 13
    assert deep == fresh


def test_align_index_needs_three_members():
    # k <= 2 holds P_0 and P_2 only; k <= 4 adds P_4, and the search aligns
    assert align_index(generate(2, 3, -4, 2), 1) is None
    assert align_index(generate(2, 3, -4, 4), 1) == 4
