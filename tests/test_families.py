import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from superpoly.cli import _write_report, build_parser
from superpoly.errors import ParameterError
from superpoly.families import Family, canonical_j0, generate, stream
from superpoly.poly import CPoly
from superpoly.series import first_order_residual

from cpoly_helpers import coefficients


def gen_args(r, m, j0, kmax=None):
    """gen's parsed command line, as the CLI reads it."""
    argv = ["gen", "--r", str(r), "--m", str(m), "--j0", str(j0)]
    if kmax is not None:
        argv.append(f"--kmax={kmax}")
    return build_parser("gen").parse_args(argv)


def gen_report(r, m, j0, kmax=None):
    """gen's report object, as the CLI builds it before writing it."""
    ns = gen_args(r, m, j0, kmax)
    report, ok = ns.fn(ns)
    assert ok
    return report


def test_unit_initial_condition():
    fam = generate(2, 2, -4, 0)
    for j in range(-4, 0):
        assert fam[j] == (CPoly.one() if j == -4 else CPoly.zero())


def test_p0_type1_hand_value():
    # k=0 row of the recursion: 6 P_0 = 6 P_{-4}
    assert generate(2, 2, -4, 0)[0] == CPoly.one()


def test_off_lattice_is_zero():
    assert generate(2, 2, -4, 4)[1].is_zero()
    assert generate(2, 2, -4, 4)[3].is_zero()


def test_p4_hand_value():
    # P_2 = 4c/5, then 14 P_4 = 16c P_2 - 2 P_0
    fam = generate(2, 2, -4, 4)
    assert fam[2] == CPoly((0, Fraction(4, 5)))
    assert fam[4] == CPoly((Fraction(-5, 35), 0, Fraction(32, 35)))


def test_type2_hand_values():
    # P_0 = -c/2, then 16 P_2 = 12c P_0 + 4
    fam = generate(2, 4, -2, 2)
    assert fam[0] == CPoly((0, Fraction(-1, 2)))
    assert fam[2] == CPoly((Fraction(2, 8), 0, Fraction(-3, 8)))


def test_recursion_residual_zero_grid_sample():
    for (r, m, j0) in [(2, 2, -4), (2, 4, -2), (3, 3, -6), (3, 2, -5),
                       (4, 3, -1), (5, 2, -7)]:
        fam = generate(r, m, j0, 6 * r)
        # entry k + 2r of the generating-function residual is the recursion at k >= 0
        resid = first_order_residual(fam, 8 * r)
        for k in range(0, 6 * r + 1):
            assert resid[k + 2 * r].is_zero()


def test_divisor_positive():
    # 2r + m + km >= m + 2r >= 6 for all k >= 0
    for r in range(2, 9):
        for m in range(2, 11):
            assert all(2 * r + m + k * m >= 6 for k in range(0, 50))


def degree_map(fam):
    return [(k, int(p.degree)) for k, p in fam.nonzero_members()]


def lattice(fam):
    """The indices of the nonzero members."""
    return [k for k, _ in fam.nonzero_members()]


def test_members_type1():
    fam = generate(2, 2, -4, 8)
    assert lattice(fam) == [0, 2, 4, 6, 8]
    assert degree_map(fam)[:3] == [(0, 0), (2, 1), (4, 2)]


def test_members_type2():
    fam = generate(2, 4, -2, 8)
    assert lattice(fam) == [0, 2, 4, 6, 8]
    assert degree_map(fam)[:3] == [(0, 1), (2, 2), (4, 3)]


def test_members_leading_zero_member():
    # r + (1 + k - r) m vanishes at k = 1 for (r=4, m=2): the j0 = -3 family
    # starts late, at k = 5
    fam = generate(4, 2, -3, 20)
    assert lattice(fam) == [5, 9, 13, 17]


def test_degree_growth_along_support():
    for (r, m) in [(2, 2), (3, 4), (4, 3)]:
        fam = generate(r, m, -2 * r, 8 * r)
        degs = [d for _, d in degree_map(fam)]
        assert degs == list(range(len(degs)))


def test_members_at_every_lattice_step_from_k0():
    # the 2c-coefficient 2(r + (1 + k - r) m) vanishes only at k = r - 1 - r/m < r,
    # so from k_0 < 2r on every step of r carries a member one degree higher
    for r in range(2, 9):
        for m in range(2, 11):
            for j0 in range(-2 * r, 0):
                fam = generate(r, m, j0, 6 * r)
                ks, degs = zip(*degree_map(fam))
                assert ks[0] < 2 * r
                assert list(ks) == list(range(ks[0], 6 * r + 1, r))
                assert list(degs) == list(range(degs[0], degs[0] + len(degs)))


def test_generate_returns_a_new_family():
    deep = generate(3, 5, -6, 12)
    shallow = generate(3, 5, -6, 6)
    assert shallow is not deep
    assert shallow.kmax == 6 and deep.kmax == 12
    assert shallow.polys == {k: deep.polys[k] for k in shallow.polys}


def test_results_independent_of_deeper_generation():
    # k = -4..10 and the 23 support members k = 0, 2, ..., 44, before and
    # after the same family was generated to k = 200
    def observe():
        polys = gen_report(2, 2, -4, 10)["polys"]
        return list(polys), len(generate(2, 2, -4, 44).nonzero_members())

    before = observe()
    generate(2, 2, -4, 200)
    after = observe()
    assert len(before[0]) == 15 and before[1] == 23
    assert after == before


def test_canonical_j0():
    assert [canonical_j0(t, r) for t in (1, 2) for r in (2, 5)] == [-4, -10, -2, -5]
    with pytest.raises(ParameterError):
        canonical_j0(3, 2)


def test_parameter_domain_errors():
    with pytest.raises(ParameterError):
        Family(1, 2, -1)
    with pytest.raises(ParameterError):
        Family(2, 1, -1)
    with pytest.raises(ParameterError):
        Family(2, 2, -5)
    with pytest.raises(ParameterError):
        Family(2, 2, 0)


def written(report) -> str:
    """The report's text, as the CLI writes it."""
    fh = io.StringIO()
    _write_report(report, fh)
    return fh.getvalue()


def test_json_dump_schema():
    dump = json.loads(written(gen_report(2, 2, -4, 4)))
    assert dump["r"] == 2 and dump["m"] == 2 and dump["j0"] == -4
    entry = {e["k"]: e["coeffs"] for e in dump["polys"]}
    assert entry[4] == ["-1/7", "0", "32/35"]


def eager_members(fam):
    """The "polys" entry as a plain list, every member's strings built at once."""
    return [{"k": k, "coeffs": p.to_strings()} for k, p in sorted(fam.polys.items())]


def test_gen_report_builds_members_only_when_iterated(monkeypatch):
    # 67 members, 22 of them nonzero.  With a second CPU a forked worker
    # builds the strings of every other nonzero member, 11 of them, and its
    # calls are not counted here; generation stays in this process either way.
    eager = eager_members(generate(3, 4, -6, 60))
    for cpus, share in (({0}, 67), ({0, 1}, 67 - 11 * hasattr(os, "fork"))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls, extends = [], []
        to_strings, extend = CPoly.to_strings, Family.extend

        def counting(self):
            calls.append(1)
            return to_strings(self)

        def counting_extend(self, kmax):
            extends.append(kmax)
            return extend(self, kmax)

        monkeypatch.setattr(CPoly, "to_strings", counting)
        monkeypatch.setattr(Family, "extend", counting_extend)
        polys = gen_report(3, 4, -6, 60)["polys"]
        assert calls == extends == []
        first = next(polys)
        assert first == {"k": -6, "coeffs": ["1"]} and len(calls) == 1 and extends == [-6]
        assert [first] + list(polys) == eager
        assert len(calls) == share and extends == list(range(-6, 61))
        monkeypatch.undo()


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("family_type", [1, 2])
def test_lazy_members_encode_as_the_eager_list(r, family_type):
    # both canonical seeds, and j0 = -r - 1 with the type-1 ones
    for j0 in [canonical_j0(family_type, r)] + [-r - 1] * (family_type == 1):
        for kmax in (0, 2 * r - 1, None, 20 * r):
            lazy = gen_report(r, 3, j0, kmax)
            eager = dict(lazy, polys=eager_members(generate(r, 3, j0, kmax)))
            assert list(lazy["polys"]) == eager["polys"]
            assert (written(gen_report(r, 3, j0, kmax))
                    == json.dumps(eager, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("r,m,j0,kmax", [(2, 3, -4, 60), (3, 2, -5, 30), (4, 7, -1, 45)])
def test_stream_holds_at_most_2r_plus_1_members(monkeypatch, r, m, j0, kmax):
    held = []
    extend = Family.extend

    def recording(self, k):
        out = extend(self, k)
        held.append(len(self.polys))
        return out

    monkeypatch.setattr(Family, "extend", recording)
    members = list(stream(r, m, j0, kmax))
    assert members == sorted(generate(r, m, j0, kmax).polys.items())
    assert max(held[:kmax + 2 * r + 1]) == 2 * r + 1


@pytest.mark.parametrize("args", [(2, 3, -4, -1), (1, 2, -1, 5), (2, 1, -1, 5),
                                  (2, 3, 0, 5), (2, 3, -5, 5)])
def test_stream_checks_its_arguments_when_called(args):
    # as generate does, before a member is asked for
    with pytest.raises(ParameterError):
        generate(*args)
    with pytest.raises(ParameterError):
        stream(*args)


def assert_gen_report_memory_is_bounded():
    """The family to k = 400 against the peak while its report is drained.

    The command line is parsed before the window opens, so only gen's runner
    and the drain fall inside it; argparse's first use allocates about
    48 KiB on Python 3.10.
    """
    tracemalloc.start()
    try:
        fam = generate(2, 3, -4, 400)
        family_bytes = tracemalloc.get_traced_memory()[0]
        del fam
        ns = gen_args(2, 3, -4, 400)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report, _ = ns.fn(ns)
        for _ in report["polys"]:
            pass
        drain_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert drain_peak < family_bytes / 10, (drain_peak, family_bytes)


def test_gen_report_memory_is_bounded():
    assert_gen_report_memory_is_bounded()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
def test_first_drain_memory_is_bounded_in_a_fresh_interpreter():
    # the same bound where no earlier test has loaded what the first drain
    # loads, the strings worker's pipe codec among it; the child reports two
    # CPUs, so its worker is forked on any host
    here = Path(__file__).resolve().parent
    code = ("import os; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from test_families import assert_gen_report_memory_is_bounded as check; check()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def reference_members(r, m, j0, kmax):
    """P_k for k <= kmax by the recursion over plain Fraction coefficient lists."""
    polys = {j: [Fraction(1)] if j == j0 else [] for j in range(-2 * r, 0)}
    for k in range(kmax + 1):
        alpha, beta = 2 * (r + (1 + k - r) * m), (k - (2 * r - 1)) * m
        shifted, lower = [Fraction(0)] + polys[k - r], polys[k - 2 * r]
        out = [Fraction(0)] * max(len(shifted), len(lower))
        for i, a in enumerate(shifted):
            out[i] += alpha * a
        for i, b in enumerate(lower):
            out[i] -= beta * b
        out = [x / (2 * r + m + k * m) for x in out]
        while out and out[-1] == 0:
            out.pop()
        polys[k] = out
    return polys


@pytest.mark.parametrize("r,m,j0", [(2, 3, -4), (2, 5, -2), (3, 2, -5), (4, 7, -1),
                                    (5, 4, -3)])
def test_members_match_fraction_recursion_to_k_200(r, m, j0):
    fam = generate(r, m, j0, 200)
    reference = reference_members(r, m, j0, 200)
    for k in range(-2 * r, 201):
        assert coefficients(fam[k]) == tuple(reference[k])
        assert fam[k].to_strings() == [str(x) for x in reference[k]]


def test_generation_and_strings_build_no_fraction(monkeypatch):
    import superpoly.poly as poly

    def refuse(*args):
        raise AssertionError("Fraction built")
    monkeypatch.setattr(poly, "Fraction", refuse)
    # 14 P_1 = 16 P_-5 and 26 P_4 = 22 c P_1 + 4 P_-2
    coeffs = {e["k"]: e["coeffs"] for e in gen_report(3, 4, -5, 60)["polys"]}
    assert coeffs[1] == ["8/7"] and coeffs[4] == ["0", "88/91"]


def always_combining(seeded, kmax):
    """P_k for k <= kmax from the seeds of a fresh Family, with a combine at every k."""
    r, m = seeded.r, seeded.m
    polys = dict(seeded.polys)
    for k in range(kmax + 1):
        gamma, alpha, beta = 2 * r + m + k * m, 2 * (r + (1 + k - r) * m), (k - (2 * r - 1)) * m
        polys[k] = polys[k - r].shift(1).combine(polys[k - 2 * r], alpha, -beta, gamma)
    return polys


def test_skipped_combines_change_no_member():
    # extend skips the combine where P_(k-r) = P_(k-2r) = 0, read off the data,
    # so a seed on two lattices keeps both
    for r in range(2, 9):
        for m in range(2, 11):
            for j0 in range(-2 * r, 0):
                assert generate(r, m, j0, 16 * r).polys == always_combining(Family(r, m, j0),
                                                                            16 * r)
    seeded = Family(2, 5, -4)
    seeded.polys[-1] = CPoly((Fraction(-2, 7),))
    expected = always_combining(seeded, 32)
    assert seeded.extend(32).polys == expected
    assert all(expected[k] for k in range(0, 33))


def test_extend_combines_only_where_a_member_can_be_nonzero(monkeypatch):
    # a unit seed has both inputs zero at r - 1 of every r indices
    calls = []
    combine = CPoly.combine

    def counting(self, *args):
        calls.append(1)
        return combine(self, *args)

    monkeypatch.setattr(CPoly, "combine", counting)
    generate(2, 3, -4, 800)
    assert len(calls) == 401
    calls.clear()
    generate(8, 10, -16, 96)
    assert len(calls) == 13
