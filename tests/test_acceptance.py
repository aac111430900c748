"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every check is exact (zero tolerance).  Three legs certify errata: each one
asserts a witness, derived by hand and recomputed here with plain Fraction
arithmetic, that refutes a claim of the source material, together with the
corrected statement the engine establishes in its place:

  5a  type-B superposition        (refuted at equal index and under degree
                                   alignment; no member is certified)
  5b  j0 = -1 second-order ODE    (second member leaves the constant 4/(m+2);
                                   the equation holds for j0 = -r-1 instead)
  6c  printed type-1 PDE          (no exponent offset zeroes it; at exponent
                                   3r it leaves 24 r^2 Q a c; the corrected
                                   reduction is the type-1 operator)

A PASS line on these legs means the finding is certified; a FAIL means the
engine no longer reproduces the witness.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

from superpoly.classify import (gegenbauer_ode_residual, superposition_fit,
                                verify_gegenbauer_reduction)
from superpoly.families import generate
from superpoly.fitting import fit_ode, in_span, operator_vector
from superpoly.ode import (align_index, build_operator, indicial, polynomial_kernel,
                           printed_indicial_factors, residual_scan)
from superpoly.orth import orthogonality_report
from superpoly.poly import CPoly
from superpoly.series import (certify_exponent_mapping, first_order_residual, pde_reduced,
                              pde_residual)

from cpoly_helpers import (indicial_value, leading, leading_symbol, operator_coefficients,
                           resonant_pairs)
from test_fitting import materialize

GRID_R = range(2, 9)
GRID_M = range(2, 11)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def certify(criterion, misses, witness):
    """Report a certified finding: PASS iff no hand witness was missed."""
    return report(criterion, not misses,
                  witness if not misses else "missed: " + "; ".join(misses[:4]))


def test_criterion_1_type2_grid():
    """Type-2 operator annihilates aligned members at n = 5r..9r, full grid."""
    started = time.monotonic()
    result = residual_scan(2, GRID_R, GRID_M, "paper")
    elapsed = time.monotonic() - started
    ok = result["summary"]["pass"] and elapsed < 300
    assert report("1 type-2 grid 5r..9r", ok,
                  f"{result['summary']['cells']} cells, {elapsed:.1f}s")


def test_criterion_2_type1_grid():
    """Type-1 operator annihilates all aligned members with n <= 12r, full grid."""
    ok = True
    for r in GRID_R:
        for m in GRID_M:
            points = list(range(2 * r, 12 * r + 1, r))
            cell = residual_scan(1, [r], [m], points)["cells"][0]
            ok = ok and cell["pass"]
    assert report("2 type-1 grid n<=12r", ok)


def test_criterion_3_indicial():
    """Leading symbol == factored indicial products; resonant set over {2..10}^2.

    The printed products are asserted in the regime where they are correct
    (type 1: every r; type 2: iff Delta = r^2 (r-2) m (2mn - 7mr + 2m + 4r)
    vanishes, that is at r = 2 or where 2mn - 7mr + 2m + 4r = 0, sampled here
    at r = 2; elsewhere the printed form is an erratum the engine corrects);
    the operator-certified factorization is asserted on the whole sample.
    """
    random.seed(20250810)
    sampled = []
    while len(sampled) < 10:
        r, m = random.choice(GRID_R), random.choice(GRID_M)
        sampled.append((1, r, m, r * random.randint(1, 10)))
    while len(sampled) < 20:
        m = random.choice(GRID_M)
        sampled.append((2, 2, m, 2 * random.randint(1, 10)))
    ok = True
    for tp, r, m, n in sampled:
        op = build_operator(tp, r, m, n)
        for s in range(0, 21):
            printed = 1
            for slope, intercept in printed_indicial_factors(tp, r, m, n):
                printed *= slope * s + intercept
            value = leading_symbol(op, s)
            ok = ok and value == printed == indicial_value(tp, r, m, n, s)
    # corrected factorization certified against the operator for r >= 3 too
    for (r, m, n) in [(3, 4, 9), (5, 2, 20), (8, 10, 24)]:
        op = build_operator(2, r, m, n)
        for s in range(0, 21):
            ok = ok and leading_symbol(op, s) == indicial_value(2, r, m, n, s)
        ok = ok and not indicial(2, r, m, n)["matches_printed_factorization"]
    pairs = resonant_pairs(range(2, 11), range(2, 11))
    ok = ok and set(pairs) == {(4, 4), (3, 6), (6, 3)}
    assert report("3 indicial certification", ok,
                  "20 sampled tuples, s = 0..20, resonant set {(4,4),(3,6),(6,3)}")


def test_criterion_4_uniqueness():
    """Kernel dimension exactly 1; generator matches the family member up to scale.

    Resonant pairs are excluded from the dimension-1 assertion and checked
    against the within-parity bound instead (for the sample that is only
    (r, m) = (3, 6), where the corrected type-2 indicial factorization has a
    second admissible degree of opposite parity and the kernel is genuinely
    two-dimensional for both types: the extra solutions exist).
    """
    ok = True
    resonant = {(4, 4), (3, 6), (6, 3)}
    for tp in (2, 1):
        for r in (2, 3, 5):
            for m in (4, 5, 6):
                for n in (4 * r, 6 * r):
                    op = build_operator(tp, r, m, n)
                    bound = max(indicial(tp, r, m, n)["admissible_degrees"]) + 3
                    member = generate(r, m, -2 * r if tp == 1 else -r, n).polys[n - 2 * r]
                    if (r, m) in resonant:
                        for par in ("even", "odd"):
                            ok = ok and len(polynomial_kernel(op, bound, par)) <= 1
                        par = "even" if int(member.degree) % 2 == 0 else "odd"
                        basis = polynomial_kernel(op, bound, par)
                    else:
                        basis = polynomial_kernel(op, bound, "both")
                    good = (len(basis) == 1 and not member.is_zero()
                            and basis[0].scale(leading(member) / leading(basis[0])) == member)
                    ok = ok and good
    assert report("4 uniqueness of polynomial solutions", ok,
                  "type 1 and 2, r in {2,3,5}, m in {4,5,6}, n in {4r,6r}; "
                  "resonant (3,6) held to the within-parity bound")


def _recursion_row(r, m, k, below_r, below_2r):
    """P_k from its recursion row, by hand: coefficient lists, index = power of c.

    (2r + m + km) P_k = 2c (r + (1+k-r) m) P_{k-r} - (k - (2r-1)) m P_{k-2r}.
    """
    den = 2 * r + m + k * m
    out = [Fraction(0)] * max(len(below_r) + 1, len(below_2r))
    for i, x in enumerate(below_r):
        out[i + 1] += Fraction(2 * (r + (1 + k - r) * m) * x, den)
    for i, x in enumerate(below_2r):
        out[i] -= Fraction((k - (2 * r - 1)) * m * x, den)
    return out


def test_criterion_5a_superposition():
    """Certifies that no type-B seed is a two-family superposition.

    The claim P_{j0,.} = alpha P_{-2r,.} + beta P_{-r,.} is refuted for every
    j0 in [-2r+1, -r-1], r in {3,4,5}, m in {2,3}, under both pairings:

    * equal index: at k = j0 + 2r the recursion leaves the nonzero constant
      P_{j0,k} = -(j0+1) m / (2r+m+km), while both canonical families vanish
      there, since their members live on k = 0 mod r;
    * degree alignment, the pairing `superposition_fit` uses: the degree-0
      members give alpha = p0 / q10 with q10 = (2r-1) m / (2r+m), the degree-1
      members give beta, and the degree-2 member misses alpha q1 + beta q2.

    `superposition_fit` must agree: the same (alpha, beta), no certified
    member, and one superposition-violation finding for every later member.
    """
    misses = []
    seeds = 0
    for r in (3, 4, 5):
        for m in (2, 3):
            # canonical members of degree 0, 1, 2: P_0, P_r, P_2r and P_0, P_r
            q1 = [_recursion_row(r, m, 0, [], [1])]
            q1.append(_recursion_row(r, m, r, q1[0], []))
            q1.append(_recursion_row(r, m, 2 * r, q1[1], q1[0]))
            q2 = [[], _recursion_row(r, m, 0, [1], [])]
            q2.append(_recursion_row(r, m, r, q2[1], [1]))
            q10 = Fraction((2 * r - 1) * m, 2 * r + m)
            fam_1, fam_2 = generate(r, m, -2 * r, 2 * r), generate(r, m, -r, r)
            if not (q1[0] == [q10]
                    and [fam_1.polys[k] for k in (0, r, 2 * r)] == [CPoly(q) for q in q1]
                    and [fam_2.polys[k] for k in (0, r)] == [CPoly(q) for q in q2[1:]]):
                misses.append(f"canonical members (r={r},m={m})")
            for j0 in range(-2 * r + 1, -r):
                seeds += 1
                cell = f"(r={r},m={m},j0={j0})"
                k0 = j0 + 2 * r
                p0 = Fraction(-(j0 + 1) * m, 2 * r + m + k0 * m)
                p = [_recursion_row(r, m, k0, [], [1])]
                p.append(_recursion_row(r, m, k0 + r, p[0], []))
                p.append(_recursion_row(r, m, k0 + 2 * r, p[1], p[0]))
                fam_b = generate(r, m, j0, k0 + 2 * r)
                if [fam_b.polys[k0 + t * r] for t in range(3)] != [CPoly(x) for x in p]:
                    misses.append(f"type-B members {cell}")
                # equal index: a nonzero constant where both canonical families vanish
                if not (p[0] == [p0] and p0 != 0
                        and fam_1.polys[k0].is_zero() and fam_2.polys[k0].is_zero()):
                    misses.append(f"equal-index witness {cell}")
                # degree alignment: fit on degrees 0 and 1, miss at degree 2
                alpha = p0 / q10
                beta = (p[1][1] - alpha * q1[1][1]) / q2[1][1]
                fitted = [alpha * x for x in q1[2]]
                for i, x in enumerate(q2[2]):
                    fitted[i] += beta * x
                if p[2] == fitted:
                    misses.append(f"degree-2 member fits {cell}")
                rep = superposition_fit(r, m, j0, members=10)
                later = list(range(k0 + 2 * r, 16 * r + 1, r))
                if not (rep["alpha"] == str(alpha) and rep["beta"] == str(beta)
                        and rep["certified_k"] == []
                        and [f["kind"] for f in rep["findings"]]
                        == ["superposition-violation"] * len(later)
                        and [f["k"] for f in rep["findings"]] == later):
                    misses.append(f"superposition_fit report {cell}")
    assert certify("5a type-B superposition", misses,
                   f"refuted on {seeds} seeds: P_(j0),(j0+2r) = -(j0+1)m/(2r+m+km) "
                   "where both canonical families vanish; degree-2 member "
                   "misses the degree-aligned fit"), misses


def test_criterion_5b_case3_ode():
    """Certifies that the j0 = -1 members fail the printed second-order equation.

    The claim "the first 10 nonzero j0 = -1 members satisfy the Gegenbauer
    equation" is refuted on r in {3,4,5}, m in {2,3}.  The degree-1 member
    2c/(m+2) satisfies it.  The second member is P_{2r-1} = 2c^2/(m+2), and its
    residual is exactly the constant 4/(m+2).  That constant term is
    2 y''(0) = 4/(m+2) whatever n the equation is taken at, so no index
    convention rescues the claim.  The other eight members are single
    multiples of c Q_{n-1} that fail the equation too.  The j0 = -r-1 members
    satisfy it instead (the printed attribution is swapped), re-certified here
    as in 5c.
    """
    misses = []
    for r in (3, 4, 5):
        for m in (2, 3):
            cell = f"(r={r},m={m})"
            fam = generate(r, m, -1, 2 * r - 1)
            lam = 1 + Fraction(1, m)
            amp = Fraction(2, m + 2)
            if not (fam.polys[r - 1] == CPoly((0, amp))
                    and fam.polys[2 * r - 1] == CPoly((0, 0, amp))):
                misses.append(f"hand members {cell}")
            # y = amp c^2 leaves 2 amp + amp (n(2/m+n+2) - 4/m - 8) c^2 at index
            # n: exactly the constant 4/(m+2) at n = 2, never zero at any n
            for n in range(11):
                top = amp * (n * (Fraction(2, m) + n + 2) - Fraction(4, m) - 8)
                hand = CPoly((Fraction(4, m + 2), 0, top))
                if gegenbauer_ode_residual(m, n, fam.polys[2 * r - 1]) != hand:
                    misses.append(f"residual at n={n} {cell}")
            entries = verify_gegenbauer_reduction(r, m, -1, kmax=16 * r)["entries"][:10]
            first, second = entries[0], entries[1]
            if not ([(e["k"], e["degree"]) for e in entries]
                    == [(r - 1 + t * r, t + 1) for t in range(10)]
                    and first["single_Q"] and first["ode_zero"]
                    and second["single_cQ"] and not second["ode_zero"]
                    and Fraction(second["y"]) == amp / (2 * lam)
                    and all(e["single_cQ"] and not e["ode_zero"]
                            for e in entries[1:])):
                misses.append(f"j0=-1 entries {cell}")
            swapped = verify_gegenbauer_reduction(r, m, -r - 1, kmax=16 * r)["entries"][:10]
            if not (len(swapped) == 10
                    and all(e["single_Q"] and e["ode_zero"] for e in swapped)):
                misses.append(f"j0=-r-1 entries {cell}")
    assert certify("5b case-3 second-order ODE", misses,
                   "refuted: j0=-1: P_(2r-1) = 2c^2/(m+2) leaves residual 4/(m+2); "
                   "members 2..10 single c*Q; ODE holds for j0=-r-1"), misses


def test_criterion_5c_case4_span_and_swapped_ode():
    """j0 = -r-1 members decompose exactly in span{Q_n, c Q_{n-1}}.

    Also certifies the structure the swapped printed claims intended: the
    j0 = -r-1 members are single Q_n multiples satisfying the second-order
    equation, and the j0 = -1 members are single c Q_{n-1} multiples.
    """
    ok = True
    for r in (3, 4, 5):
        for m in (2, 3):
            rep4 = verify_gegenbauer_reduction(r, m, -r - 1, kmax=16 * r)
            rep3 = verify_gegenbauer_reduction(r, m, -1, kmax=16 * r)
            ok = ok and rep4["all_two_term"] and rep4["all_single_Q_with_ode"]
            ok = ok and rep3["all_two_term"]
            ok = ok and all(e["single_cQ"] or e["degree"] <= 1
                            for e in rep3["entries"])
    assert report("5c case-4 two-term Gegenbauer span", ok,
                  "j0=-r-1 single-Q + ODE; j0=-1 single-cQ; both in the two-term span")


SERIES_CASES = [(2, 2), (2, 4), (3, 3)]


def test_criterion_6a_first_order_series():
    """First-order ODE residual vanishes through z-order K - 2r with K = 60."""
    ok = True
    for (r, m) in SERIES_CASES:
        for j0 in (-2 * r, -r):
            fam = generate(r, m, j0, 60 - 2 * r)
            resid = first_order_residual(fam, 60)
            ok = ok and all(resid[k].is_zero() for k in range(60 - 2 * r + 1))
    assert report("6a first-order series residual", ok,
                  "both families, (r,m) in {(2,2),(2,4),(3,3)}, K = 60")


def test_criterion_6b_pde_type2():
    """Type-2 PDE per-degree residuals vanish through K = 40 (mapping: exponent)."""
    ok = True
    for (r, m) in SERIES_CASES:
        rep = pde_residual(2, r, m, 40)
        ok = ok and rep["pass"] and rep["offset"] == 0
    assert report("6b type-2 PDE residuals", ok, "K = 40, eigenvalue = z-exponent")


def test_criterion_6c_pde_type1():
    """Certifies the two terms missing from the printed type-1 PDE.

    Corrected form: subtracting 4 r^4 (m+1) d^2 and 24 r^2 Q c d, with
    Q = m^2 - 2m^2 r + 2mr - 2mr^2 + r^2, zeroes every residual through
    K = 40 at offset 0, and the corrected reduction equals the type-1 operator
    L_v at every exponent v <= 40 (agreement on c^0..c^4 fixes a fourth-order
    operator; the series coefficient at v is checked too).

    Printed form, refuted: no offset in {0, +-r, +-2r} zeroes it, and at
    exponent 3r, whose coefficient is P_r = a c with
    a = 2(r+m)(2r-1)m / ((2r+m)(2r+m+rm)), it leaves exactly 24 r^2 Q a c.
    Q <= -(2r^2 + 2m^2 + (r-m)^2) < 0 for r, m >= 2, so the witness never
    vanishes.
    """
    misses = []
    for (r, m) in SERIES_CASES:
        cell = f"(r={r},m={m})"
        rep = pde_residual(1, r, m, 40, corrected=True)
        if not (rep["pass"] and rep["offset"] == 0):
            misses.append(f"corrected residuals {cell}")
        fam = generate(r, m, -2 * r, 40 - 2 * r)
        for v in range(41):
            op = build_operator(1, r, m, v)
            for g in [CPoly.monomial(s) for s in range(5)] + [fam.polys[v - 2 * r]]:
                if pde_reduced(1, r, m, v, g, corrected=True) != op.apply(g):
                    misses.append(f"corrected != L_v at v={v} {cell}")
        if certify_exponent_mapping(1, fam, 40) is not None:
            misses.append(f"printed form has an offset {cell}")
        printed = pde_residual(1, r, m, 40)
        if not (printed["offset"] is None and not printed["pass"]
                and [f["kind"] for f in printed["findings"]] == ["pde-mapping-failure"]):
            misses.append(f"printed report {cell}")
        Q = m * m - 2 * m * m * r + 2 * m * r - 2 * m * r * r + r * r
        a = Fraction(2 * (r + m) * (2 * r - 1) * m,
                     (2 * r + m) * (2 * r + m + r * m))
        if not (Q < 0 and fam.polys[r] == CPoly((0, a))
                and pde_reduced(1, r, m, 3 * r, fam.polys[r]) == CPoly((0, 24 * r * r * Q * a))):
            misses.append(f"exponent-3r witness {cell}")
    assert certify("6c type-1 PDE residuals (printed)", misses,
                   "refuted: no offset zeroes the printed reduction; exponent 3r leaves "
                   "24r^2 Q a c; corrected reduction = L_v for v <= 40"), misses


def test_criterion_7_orthogonality():
    """Positivity to n = 200, exact Gram to N = 12, identification and closed forms."""
    ok = True
    for r in GRID_R:
        for m in GRID_M:
            for j0 in (-2 * r, -r):
                fam = generate(r, m, j0, 15 * r)
                rep = orthogonality_report(fam, N=12, n_positive=200, closed_form_n=50)
                ok = ok and rep["a_positive"] and rep["gram_pass"]
                ok = ok and rep["gram_offdiag_zero"]
                ident = rep["identified"]
                k0 = fam.nonzero_members()[0][0]
                ok = (ok and ident is not None
                      and ident["nu"] == str(Fraction(1) + Fraction(1, m))
                      and Fraction(ident["c0"]) + ident["shift"] == Fraction(k0 + 1, r) - 1
                      and rep["closed_form_match"] is True)
    assert report("7 Favard positivity + exact Gram + closed-form coefficients", ok,
                  "full grid, both families; identified, closed forms to n = 50")


def test_criterion_8_fit_recovery():
    """Blind fit recovers the closed operators from family data alone."""
    fam1 = generate(2, 2, -4, 44)
    res1 = fit_ode(fam1, delta=align_index(fam1, 1), holdout=4)
    ok = res1.kernel_dim == 1 and len(res1.candidates) == 1
    cand = res1.candidates[0] if res1.candidates else None
    if ok:
        for n in (8, 14, 20):
            fitted = materialize(cand, res1.bounds, n)
            paper = operator_coefficients(build_operator(1, 2, 2, n))
            ratios = set()
            for f, p in zip(fitted, paper):
                ok = ok and f.is_zero() == p.is_zero()
                if f:
                    ratio = leading(p) / leading(f)
                    ratios.add(ratio)
                    ok = ok and f.scale(ratio) == p
            ok = ok and len(ratios) == 1
    fam2 = generate(2, 4, -2, 44)
    res2 = fit_ode(fam2, delta=align_index(fam2, 2), holdout=4)
    ok = ok and len(res2.candidates) >= 1
    ok = ok and in_span(res2.candidates, operator_vector(2, 2, 4))
    assert report("8 blind ODE recovery", ok,
                  f"type-1 kernel dim {res1.kernel_dim} (proportional); "
                  f"type-2 closed operator in fitted span (dim {res2.kernel_dim})")
