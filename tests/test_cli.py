import ast
import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import threading
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import superpoly.cli as cli
from superpoly import LAYERS
from superpoly.classify import gegenbauer
from superpoly.cli import COMMANDS, build_parser, main, parse_span
from superpoly.errors import ParameterError
from superpoly.families import generate, stream
from superpoly.poly import CPoly, split_strings


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_span():
    assert parse_span("2..5") == [2, 3, 4, 5]
    assert parse_span("7") == [7]


def test_gen_p0(capsys):
    code, doc = capture(capsys, ["gen", "--r", "2", "--m", "2", "--j0", "-4",
                                 "--kmax", "0"])
    assert code == 0
    by_k = {e["k"]: e["coeffs"] for e in doc["report"]["polys"]}
    assert by_k[0] == ["1"]


def test_verify_ode_small_grid(capsys):
    code, doc = capture(capsys, ["verify-ode", "--type", "2",
                                 "--r-range", "2..3", "--m-range", "2..3"])
    assert code == 0
    assert doc["report"]["summary"]["pass"]


def test_kernel_subcommand(capsys):
    code, doc = capture(capsys, ["kernel", "--type", "2", "--r", "2",
                                 "--m", "4", "--n", "6"])
    assert code == 0
    assert doc["report"]["dimension"] == 1
    assert doc["report"]["basis"] == [["1", "0", "-3/2"]]


def test_indicial_subcommand(capsys):
    code, doc = capture(capsys, ["indicial", "--type", "1", "--r", "2",
                                 "--m", "4", "--n", "8"])
    assert code == 0
    assert doc["report"]["admissible_degrees"] == [2]


def test_indicial_printed_factorization_without_finding(capsys):
    # type 2 at r = 3: the printed product is right here, as Delta = 0 at n = 8
    code, doc = capture(capsys, ["indicial", "--type", "2", "--r", "3",
                                 "--m", "4", "--n", "8"])
    assert code == 0
    assert doc["report"]["matches_printed_factorization"]
    assert doc["report"]["findings"] == []


def test_superpose_finding_exits_1(capsys):
    code, doc = capture(capsys, ["superpose", "--r", "3", "--m", "2",
                                 "--j0", "-4"])
    assert code == 1
    assert doc["status"] == "fail"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--type", "3", "--r", "2", "--m", "2", "--n", "4"])
    assert exc.value.code == 2


def test_domain_error_exits_2(capsys):
    code = main(["gen", "--r", "1", "--m", "2", "--j0", "-1"])
    assert code == 2


def test_gen_print_lists_every_nonzero_member(capsys):
    code = main(["gen", "--r", "3", "--m", "2", "--j0", "-5", "--kmax", "30", "--print"])
    err = capsys.readouterr().err.splitlines()
    assert code == 0 and err[-1].startswith("gen: PASS")
    fam = generate(3, 2, -5, 30)
    assert err[:-1] == [f"P_{k} = {fam.polys[k]!r}" for k in sorted(fam.polys) if fam.polys[k]]


def test_gen_print_generates_the_family_once(monkeypatch, capsys):
    # the one call checks the arguments and streams the report; --print
    # prints each member as the report writes it, so it adds none
    counts = {}
    for flags in ([], ["--print"]):
        calls = []
        monkeypatch.setattr(cli.families, "stream", lambda *a: calls.append(a) or stream(*a))
        assert main(["gen", "--r", "2", "--m", "3", "--j0", "-4", "--kmax", "8"] + flags) == 0
        counts[tuple(flags)] = len(calls)
    capsys.readouterr()
    assert counts == {(): 1, ("--print",): 1}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one CPU", "two CPUs"])
def test_gen_print_builds_no_more_strings(monkeypatch, capsys, cpus):
    # --print shows each member from the strings the report writes; a forked
    # worker's calls land in its own copy of the list and are not counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    counts, to_strings = {}, CPoly.to_strings
    for flags in ([], ["--print"]):
        calls = []
        monkeypatch.setattr(CPoly, "to_strings", lambda self: calls.append(1) or to_strings(self))
        assert main(["gen", "--r", "3", "--m", "2", "--j0", "-5", "--kmax", "30"] + flags) == 0
        counts[tuple(flags)] = len(calls)
    assert len(capsys.readouterr().err.splitlines()) > 10
    assert counts[("--print",)] <= counts[()]


def test_report_idempotent(capsys):
    argv = ["identify", "--type", "1", "--r", "2", "--m", "3"]
    _, doc1 = capture(capsys, argv)
    _, doc2 = capture(capsys, argv)
    assert doc1 == doc2  # wall time lives outside the report envelope


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gegenbauer", "--m", "3", "--nmax", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["lambda"] == "4/3"


@pytest.mark.parametrize("name", [None, "missing/report.json"])
def test_unwritable_out_exits_2(tmp_path, capsys, name):
    # a directory, or a file in a directory that does not exist
    out = tmp_path if name is None else tmp_path / name
    assert main(["gegenbauer", "--m", "3", "--nmax", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def cli_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli(*argv, **kwargs):
    """A superpoly process on argv: a Popen with kwargs if any are given, else the
    CompletedProcess with stdout discarded and stderr captured."""
    cmd = [sys.executable, "-m", "superpoly.cli", *argv]
    if kwargs:
        return subprocess.Popen(cmd, env=cli_env(), **kwargs)
    return subprocess.run(cmd, env=cli_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def assert_one_error_line(stderr: str, dest: str):
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr
    assert lines[0].startswith(f"error: cannot write the report to {dest}: ")


# a report of about 0.5 MB, more than a pipe buffers
LARGE_REPORT = ["gen", "--r", "2", "--m", "3", "--j0", "-4", "--kmax", "200"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["gegenbauer", "--m", "3", "--nmax", "4"], LARGE_REPORT],
                         ids=["small", "large"])
def test_full_device_exits_2(argv):
    with open("/dev/full", "w") as full, run_cli(*argv, stdout=full, stderr=subprocess.PIPE,
                                                   text=True) as proc:
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert_one_error_line(err, "stdout")
    proc = run_cli(*argv, "--out", "/dev/full")
    assert proc.returncode == 2
    assert_one_error_line(proc.stderr, "/dev/full")


@pytest.mark.parametrize("argv", [LARGE_REPORT, ["verify-ode", "--type", "2", "--r-range",
                                                 "2..3", "--m-range", "2..4"]],
                         ids=" ".join)
def test_report_bytes_independent_of_unbuffered_stdout(monkeypatch, argv):
    reports = []
    for unbuffered in ("1", None):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        with run_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            reports.append(proc.communicate(timeout=60)[0])
        assert proc.returncode == 0
    assert reports[0] == reports[1] and reports[0].endswith(b"}\n")


def test_closed_pipe_exits_2():
    with run_cli(*LARGE_REPORT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True) as proc:
        assert proc.stdout.read(20).startswith('{\n  "argv"')
        proc.stdout.close()  # the reader goes away with most of the report unread
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert_one_error_line(err, "stdout")


# the process entry freezes the heap on the way out; what a process prints,
# its exit code and what a profiler wraps around it must not change
@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_entry_prints_the_whole_text_into_a_pipe(monkeypatch, flag):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    with run_cli(flag, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == ""
    assert out == (cli.__version__ + "\n" if flag == "--version"
                   else build_parser().format_help())


def test_entry_usage_error_exits_2_with_the_parser_message(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["kernel", "--type", "3", "--r", "2", "--m", "2", "--n", "4"]
    with pytest.raises(SystemExit):
        main(argv)
    message = capsys.readouterr().err
    assert "error: argument --type: invalid choice" in message
    with run_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (2, "", message)


def test_entry_freezes_the_heap_and_main_does_not():
    code = ("import gc, sys, superpoly.cli as cli\n"
            "sys.argv = ['superpoly', '--version']\n"
            "try:\n    cli.entry()\n"
            "finally:\n    print(gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.__version__ + "\n", "True\n")
    # in-process callers keep their collector
    frozen = gc.get_freeze_count()
    assert main(["indicial", "--type", "1", "--r", "2", "--m", "4", "--n", "8"]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen


def test_profiler_writes_its_output_around_the_entry(tmp_path):
    # an exit through os._exit would skip atexit handlers and this write
    stats = tmp_path / "cli.prof"
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(stats),
                           "-m", "superpoly.cli", "--version"],
                          env=cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == cli.__version__ + "\n"
    assert stats.stat().st_size > 0


def test_gegenbauer_strings_built_only_when_iterated(monkeypatch):
    # with a second CPU a forked worker builds Q_1, Q_3, ..., Q_9's strings,
    # and its calls are not counted here
    for cpus, share in (({0}, 11), ({0, 1}, 11 - 5 * hasattr(os, "fork"))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls = []
        to_strings = CPoly.to_strings

        def counting(self):
            calls.append(1)
            return to_strings(self)

        monkeypatch.setattr(CPoly, "to_strings", counting)
        runner = {row[0]: row[3] for row in COMMANDS}["gegenbauer"]
        ns = build_parser("gegenbauer").parse_args(["gegenbauer", "--m", "3", "--nmax", "10"])
        report, ok = runner(ns)
        assert ok and calls == []
        eager = dict(report, polys=[to_strings(p) for p in gegenbauer(3, 10)])
        assert list(report["polys"]) == eager["polys"] and len(calls) == share
        assert written(runner(ns)[0]) == json.dumps(eager, indent=2, sort_keys=True) + "\n"
        monkeypatch.undo()


def two_cpus(monkeypatch):
    """Let split_strings fork its worker, whatever this host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_beside_another_thread(monkeypatch):
    # a fork copies only the calling thread, so with another one running
    # every member's strings are built in this process
    two_cpus(monkeypatch)
    calls, to_strings = [], CPoly.to_strings
    monkeypatch.setattr(CPoly, "to_strings", lambda self: calls.append(1) or to_strings(self))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(list(split_strings(gegenbauer(3, 10)))) == 11
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and len(calls) == 11


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
@pytest.mark.parametrize("argv", [["gen", "--r", "2", "--m", "3", "--j0", "-4", "--kmax", "60"],
                                  ["gegenbauer", "--m", "3", "--nmax", "10"]], ids=" ".join)
def test_dead_worker_exits_2_with_one_error_line(monkeypatch, capsys, argv):
    two_cpus(monkeypatch)
    parent, to_strings = os.getpid(), CPoly.to_strings

    def dying(self):
        if os.getpid() != parent:
            os._exit(0)  # the worker ends without writing its first member
        return to_strings(self)

    monkeypatch.setattr(CPoly, "to_strings", dying)
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "worker" in lines[0]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_failed_write_reaps_the_worker(monkeypatch, capsys):
    two_cpus(monkeypatch)
    assert main([*LARGE_REPORT, "--out", "/dev/full"]) == 2
    assert_one_error_line(capsys.readouterr().err, "/dev/full")
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
def test_abandoned_or_failed_iteration_reaps_the_worker(monkeypatch):
    two_cpus(monkeypatch)
    ns = build_parser("gen").parse_args(LARGE_REPORT)
    report, _ = ns.fn(ns)
    assert next(report["polys"])["k"] == -4  # the worker is running, then abandoned
    del report  # the last reference to its iterator, which closes it
    assert_no_child_left()
    report, _ = ns.fn(ns)
    calls, to_strings = [], CPoly.to_strings

    def failing(self):
        calls.append(1)
        if len(calls) == 20:
            raise ValueError("a failure in this process")
        return to_strings(self)

    monkeypatch.setattr(CPoly, "to_strings", failing)
    with pytest.raises(ValueError):
        list(report["polys"])
    assert_no_child_left()


@pytest.mark.parametrize("argv", [LARGE_REPORT, ["gegenbauer", "--m", "3", "--nmax", "60"]],
                         ids=" ".join)
def test_cold_split_report_matches_the_one_process_report(monkeypatch, capsys, argv):
    # the cold process splits its strings when its host has two CPUs; this one does not
    with run_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        cold = proc.communicate(timeout=60)[0]
    assert proc.returncode == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(argv) == 0
    assert cold.decode() == capsys.readouterr().out


def test_summary_time_includes_the_report_write(monkeypatch, capsys):
    now = [100.0]
    write = cli._write_report

    def slow_write(envelope, fh):
        now[0] += 5  # the write takes five seconds on the fake clock
        write(envelope, fh)

    monkeypatch.setattr(cli.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(cli, "_write_report", slow_write)
    assert main(["gegenbauer", "--m", "3", "--nmax", "4"]) == 0
    assert capsys.readouterr().err == "gegenbauer: PASS (5.00s)\n"


TEXT = 'az09-/ "\\\n\t\x00\x1f\x7féλ€\U0001d11e'  # quotes, escapes, non-ASCII


def random_report_value(rng, depth=0):
    """A nested value of every kind the report writer takes, and its twin for
    json.dumps: the same value with each iterator in it made a list."""
    kinds = ["str", "int", "bool", "none"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "iterator", "rational"]
    kind = rng.choice(kinds)
    if kind == "str":
        value = "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 6)))
    elif kind == "int":
        value = rng.choice([0, -1, 7, -(1 << 2000) - 3, rng.randint(-10 ** 40, 10 ** 40)])
    elif kind == "bool":
        value = rng.random() < 0.5
    elif kind == "none":
        value = None
    elif kind == "rational":  # empty or with zeros, integers and fractions
        value = CPoly(Fraction(rng.randint(-99, 99), rng.choice([1, 1, 3, 10 ** 30]))
                      for _ in range(rng.randint(0, 5))).to_strings()
    else:
        pairs = [random_report_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        items, twins = [item for item, _ in pairs], [twin for _, twin in pairs]
        if kind == "dict":
            keys = ["".join(rng.choice(TEXT) for _ in range(3)) + str(i)
                    for i in range(len(pairs))]
            return dict(zip(keys, items)), dict(zip(keys, twins))
        if kind == "iterator":
            return (item for item in items), twins
        return (tuple(items), tuple(twins)) if kind == "tuple" else (items, twins)
    return value, value


def written(value) -> str:
    fh = io.StringIO()
    cli._write_report(value, fh)
    return fh.getvalue()


def test_report_writer_matches_json_dumps():
    rng = random.Random(20261019)
    for _ in range(300):
        value, twin = random_report_value(rng)
        assert written(value) == json.dumps(twin, indent=2, sort_keys=True) + "\n"
    subclasses = [type("Text", (str,), {})('a"\\é'), IntEnum("Small", "ONE TWO").TWO]
    assert written(subclasses) == json.dumps(subclasses, indent=2, sort_keys=True) + "\n"
    # an empty iterator, alone and nested in a dict beside a full one
    assert written(iter(())) == "[]\n"
    nested = {"a": iter([]), "b": (x for x in [1, {"c": iter(["d"])}])}
    assert written(nested) == json.dumps({"a": [], "b": [1, {"c": ["d"]}]}, indent=2,
                                         sort_keys=True) + "\n"
    # one report of many writes: pieces far above and below WRITE_SIZE
    notes, note_twins = zip(*(random_report_value(rng) for _ in range(2000)))
    value = {"polys": map(lambda item: {"k": item[0], "coeffs": item[1].to_strings()},
                          stream(2, 3, -4, 300)),
             "notes": notes}
    twin = {"polys": [{"k": k, "coeffs": p.to_strings()} for k, p in stream(2, 3, -4, 300)],
            "notes": note_twins}
    text = written(value)
    assert len(text) > 20 * cli.WRITE_SIZE
    assert text == json.dumps(twin, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": [float("nan")]}, {1, 2}, [{3: "key"}],
                                   {"a": 1, 2: "b"}, Fraction(1, 2)],
                         ids=["float", "nested float", "set", "int key", "mixed keys",
                              "Fraction"])
def test_report_writer_rejects_what_json_would_convert_or_reject(value):
    with pytest.raises(TypeError):
        written(value)


def test_series_subcommand(capsys):
    code, doc = capture(capsys, ["series", "--type", "2", "--r", "2",
                                 "--m", "3", "--K", "20"])
    assert code == 0
    assert doc["report"]["zero_through"] == 16


def test_pde_subcommands(capsys):
    code, doc = capture(capsys, ["pde", "--type", "2", "--r", "2", "--m", "4",
                                 "--K", "12"])
    assert code == 0
    code, doc = capture(capsys, ["pde", "--type", "1", "--r", "2", "--m", "2",
                                 "--K", "12"])
    assert code == 1  # published type-1 identity fails; reported as finding
    code, doc = capture(capsys, ["pde", "--type", "1", "--r", "2", "--m", "2",
                                 "--K", "12", "--corrected"])
    assert code == 0


def test_fit_ode_subcommand(capsys):
    code, doc = capture(capsys, ["fit-ode", "--type", "1", "--r", "2",
                                 "--m", "2", "--kmax", "40"])
    assert code == 0
    assert doc["report"]["closed_operator_in_span"] is True


def test_fit_ode_bounds_of_the_closed_operator_match_the_default(capsys):
    # the envelope echoes argv, so the report objects are compared, not digests
    argv = ["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"]
    code, default = capture(capsys, argv)
    assert capture(capsys, argv + ["--bounds", "0,1,2,3,4"]) == (code, {
        **default, "argv": argv + ["--bounds", "0,1,2,3,4"]})


def test_fit_ode_other_bounds_report_no_closed_operator(capsys):
    # three bounds fit a second-order operator, and none annihilates the
    # family; the closed operator's span is asked about only at its own bounds
    code, doc = capture(capsys, ["fit-ode", "--type", "1", "--r", "2", "--m", "2",
                                 "--kmax", "40", "--bounds", "0,1,2"])
    assert code == 1 and doc["report"]["candidates"] == []
    assert "closed_operator_in_span" not in doc["report"]


def test_fit_ode_falls_back_to_delta_0_only_on_alignment_errors(capsys, monkeypatch):
    # align_index's None (no shift aligns) fits at delta = 0; an exception propagates
    argv = ["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"]
    deltas = []
    fit = cli.fitting.fit_ode
    monkeypatch.setattr(cli.fitting, "fit_ode",
                        lambda fam, **kw: deltas.append(kw["delta"]) or fit(fam, **kw))
    monkeypatch.setattr(cli.ode, "align_index", lambda fam, family_type: None)
    capture(capsys, argv)
    assert deltas == [0]

    def broken(fam, family_type):
        raise ParameterError("not an alignment failure")

    monkeypatch.setattr(cli.ode, "align_index", broken)
    assert main(argv) == 2
    assert "not an alignment failure" in capsys.readouterr().err
    assert deltas == [0]


@pytest.mark.parametrize("j0", ["-2", "-4"])
def test_fit_ode_aligns_a_canonical_seed_with_its_own_type(capsys, j0):
    # at r = 2, j0 = -4 seeds the type-1 family and -2 the type-2 one; either
    # --type gives the report of the seed's own operator
    reports = []
    for family_type in ("1", "2"):
        code, doc = capture(capsys, ["fit-ode", "--type", family_type, "--r", "2", "--m", "3",
                                     "--j0", j0, "--kmax", "40"])
        assert code == 0
        reports.append(doc["report"])
    assert reports[0] == reports[1]
    assert [c["delta"] for c in reports[0]["candidates"]] == [4]
    assert reports[0]["closed_operator_in_span"] is True


def test_fit_ode_aligns_other_seeds_with_the_type_flag(capsys, monkeypatch):
    # j0 = -3 seeds neither canonical family at r = 2, so --type chooses the operator
    seen, align = [], cli.ode.align_index
    monkeypatch.setattr(cli.ode, "align_index", lambda fam, family_type: (
        seen.append(family_type) or align(fam, family_type)))
    for family_type in ("1", "2"):
        code, _ = capture(capsys, ["fit-ode", "--type", family_type, "--r", "2", "--m", "3",
                                   "--j0", "-3", "--kmax", "40"])
        assert code == 0
    assert seen == [1, 2]


def test_scan_reports_members_the_operator_misses(capsys, monkeypatch):
    # L_n + 1 sends every member P to L_n P + P = P: each checked n fails
    ode_module = sys.modules["superpoly.ode"]
    closed = ode_module.scalar_coefficients

    def perturbed(family_type, r, m, n):
        W, X, Y, Z = closed(family_type, r, m, n)
        return W + 1, X, Y, Z

    monkeypatch.setattr(ode_module, "scalar_coefficients", perturbed)
    code, doc = capture(capsys, ["scan", "--type", "1", "--r-range", "2", "--m-range", "3"])
    cell = doc["report"]["cells"][0]
    assert code == 1 and doc["status"] == "fail" and not cell["pass"]
    assert cell["delta"] == 4 and cell["checked_n"]
    assert [f["n"] for f in cell["failures"]] == cell["checked_n"]


@pytest.mark.parametrize("flag,value", [("--r-range", "5..2"), ("--r-range", "x..3"),
                                        ("--m-range", "3..x"), ("--points", "x..3"),
                                        ("--bounds", "0,x"), ("--bounds", "0,1,2,3,4,5,6"),
                                        ("--bounds", "0,1,7"), ("--bounds", "0,-1"),
                                        ("--N", "0"), ("--N", "-1")])
def test_bad_range_exits_2(capsys, flag, value):
    command = {"--bounds": ["fit-ode", "--type", "1", "--r", "2", "--m", "2"],
               "--N": ["orth", "--type", "2", "--r", "2", "--m", "4"]}.get(
                   flag, ["verify-ode", "--type", "2"])
    argv = command + [f"{flag}={value}"]
    if flag == "--N":  # a domain error, reported by run
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert value in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gen", "--r", "2", "--m", "2", "--j0", "-4", "--kmax", "2501"],
    ["reduce", "--r", "3", "--m", "2", "--j0", "-4", "--kmax", "2501"],
    ["series", "--type", "2", "--r", "2", "--m", "3", "--K", "2501"],
    ["kernel", "--type", "2", "--r", "2", "--m", "4", "--n", "6", "--bound", "2501"],
    ["gram", "--type", "2", "--r", "2", "--m", "4", "--N", "101"],
    ["classify", "--r", "4", "--m", "3", "--members", "101"],
    ["verify-ode", "--type", "2", "--r-range", "2..2", "--m-range", "3..3", "--points", "2501"],
    ["scan", "--type", "1", "--r-range", "2..2", "--m-range", "3..3",
     "--points", "0..1000000000"],
    ["verify-ode", "--type", "2", "--r-range", "2..2", "--m-range", "3..3",
     "--points=-2501..0"],
    ["verify-ode", "--type", "2", "--m-range", "3..3", "--r-range", "2..1000000000"],
    ["scan", "--type", "1", "--r-range", "2..2", "--m-range", "2501"],
    ["kernel", "--type", "1", "--r", "2", "--m", "2", "--n", "8000"],
    ["kernel", "--type", "1", "--r", "2", "--m", "2", "--n=-8000"],
    ["gen", "--m", "2", "--j0", "-1", "--kmax", "0", "--r", "3000000"],
    ["indicial", "--type", "1", "--r", "2", "--n", "8", "--m", "2501"],
    ["gegenbauer", "--m", "3", "--nmax", "2501"],
    ["gegenbauer", "--m", "3", "--nmax", "601"],
    ["orth", "--type", "2", "--r", "2", "--m", "4", "--n-positive", "200000"],
    ["orth", "--type", "2", "--r", "2", "--m", "4", "--closed-form-n", "2501"],
    ["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--delta", "2501"],
], ids=" ".join)
def test_above_cap_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    value = argv[-1].rpartition("=")[2]
    assert f"{value} is above the cap" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify-ode", "scan"])
def test_a_grid_above_the_cell_cap_exits_2_before_any_cell(capsys, monkeypatch, command):
    def checked(*args):
        raise AssertionError("a cell was checked")
    monkeypatch.setattr(cli.ode, "scan_cell", checked)
    argv = [command, "--type", "1", "--m-range", "2..51", "--r-range"]
    assert main(argv + ["2..52"]) == 2  # 51 x 50 cells
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: --r-range 51 x --m-range 50 is 2550 (r, m) cells, "
                                 "above the cap 2500\n")
    monkeypatch.setattr(cli.ode, "scan_cell", lambda *args: {"pass": True})
    code, doc = capture(capsys, argv + ["2..51"])
    assert code == 0 and doc["report"]["summary"] == {"cells": 2500, "pass": True}


@pytest.mark.parametrize("r", [2, 3])
def test_fit_ode_kmax_above_300_r_exits_2_before_generating(capsys, monkeypatch, r):
    depths = []

    def generating(r, m, j0, kmax):
        depths.append(kmax)
        raise ParameterError("generated")
    monkeypatch.setattr(cli.families, "generate", generating)
    argv = ["fit-ode", "--type", "1", "--r", str(r), "--m", "3", "--kmax"]
    assert main(argv + [str(300 * r + 1)]) == 2
    assert capsys.readouterr().err == (f"error: --kmax {300 * r + 1} at --r {r} is above "
                                       f"the fit's cap 300 r = {300 * r}\n")
    assert depths == []
    assert main(argv + [str(300 * r)]) == 2
    assert capsys.readouterr().err == "error: generated\n" and depths == [300 * r]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
def test_report_integers_longer_than_the_digit_limit(capsys):
    # the members hold coefficients of more than 640 digits, the lowest limit
    # Python allows on int <-> str conversion
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["gen", "--r", "2", "--m", "2500", "--j0", "-2", "--kmax", "400"])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    polys = json.loads(out)["report"]["polys"]
    assert max(len(x.lstrip("-")) for e in polys for c in e["coeffs"]
               for x in c.split("/")) > 640


def test_import_loads_no_process_pool():
    # each module costs every process start its import time; dataclasses
    # imports inspect, a process pool loads multiprocessing, and the report's
    # strings worker is started with os alone
    code = ("import sys, superpoly.cli; "
            "sys.exit(any(name in sys.modules for name in "
            "('concurrent.futures', 'dataclasses', 'multiprocessing', 'subprocess')))")
    assert subprocess.run([sys.executable, "-c", code], env=cli_env()).returncode == 0


# the package registers its modules lazily; a command executes only the layers
# it reaches, and type() reads a module without executing it; cli imports
# errors by name, so every process executes it
LAZY_LAYERS = ("poly", "families", "linalg", "ode", "fitting", "series", "classify", "orth")
GEN_LAYERS = ["poly", "families"]
ODE_LAYERS = ["poly", "families", "linalg", "ode"]  # ode imports linalg


def executed_layers(*commands):
    """Run each argv through cli.main in one fresh interpreter; after each,
    (exit code, the LAZY_LAYERS executed so far, whether json is imported)."""
    code = f"""if True:
        import io, sys, types
        import superpoly.cli as cli
        for argv in {[list(argv) for argv in commands]!r}:
            sys.stdout = io.StringIO()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            finally:
                sys.stdout = sys.__stdout__
            print((code, [name for name in {LAZY_LAYERS!r}
                          if type(sys.modules["superpoly." + name]) is types.ModuleType],
                   "json" in sys.modules))
    """
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [ast.literal_eval(line) for line in proc.stdout.splitlines()]


def test_commands_without_a_lazy_layer_leave_them_unexecuted():
    # one interpreter, in an order where each command adds what it calls
    commands = [
        (["--version"], []),
        (["gen", "--r", "2", "--m", "2", "--j0", "-4", "--kmax", "8"], GEN_LAYERS),
        (["verify-ode", "--type", "2", "--r-range", "2..3", "--m-range", "2..3"], ODE_LAYERS),
        (["scan", "--type", "1", "--r-range", "2", "--m-range", "3", "--points", "10..12"],
         ODE_LAYERS),
        (["kernel", "--type", "2", "--r", "2", "--m", "4", "--n", "6"], ODE_LAYERS),
        (["indicial", "--type", "1", "--r", "2", "--m", "4", "--n", "8"], ODE_LAYERS),
        (["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"],
         ODE_LAYERS + ["fitting"]),
    ]
    assert (executed_layers(*(argv for argv, _ in commands))
            == [(0, layers, False) for _, layers in commands])


@pytest.mark.parametrize("argv,code,layer", [
    (["pde", "--type", "1", "--r", "2", "--m", "2", "--K", "24", "--corrected"], 0, "series"),
    (["series", "--r", "2", "--m", "3", "--K", "40"], 0, "series"),
    (["classify", "--r", "2", "--m", "3", "--members", "4"], 1, "classify"),
    (["gram", "--type", "2", "--r", "2", "--m", "4", "--N", "12"], 0, "orth"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_a_command_executes_only_its_own_lazy_layer(argv, code, layer):
    # the layer, and the layers it imports
    imports = {"series": GEN_LAYERS, "classify": ["poly", "families", "linalg"],
               "orth": GEN_LAYERS}
    assert executed_layers(argv) == [(code, imports[layer] + [layer], False)]


def test_only_a_report_with_an_escape_imports_json():
    # int() reads "\u0662" (ARABIC-INDIC DIGIT TWO) as 2; the argv echo escapes it
    argv = ["indicial", "--type", "1", "--r", "\u0662", "--m", "3", "--n", "8"]
    assert executed_layers(argv) == [(0, ODE_LAYERS, True)]


def test_cli_serves_a_layer_name_from_the_layer(monkeypatch):
    # the tracer wraps a layer's functions where the layer binds them, and
    # reads cli.generate and cli.fit_ode for its binding check
    families, fitting = sys.modules["superpoly.families"], sys.modules["superpoly.fitting"]
    assert cli.generate is families.generate and cli.fit_ode is fitting.fit_ode
    # a name no layer binds executes every layer on its way to the error, so
    # it is read before a layer that imports generate could bind the stand-in
    with pytest.raises(AttributeError, match="'superpoly.cli' has no attribute 'nosuch'"):
        cli.nosuch
    wrapped = object()
    monkeypatch.setattr(families, "generate", wrapped)
    assert cli.generate is wrapped


@pytest.mark.parametrize("layer", LAYERS)
def test_cli_serves_every_public_name_a_layer_defines(layer):
    module = sys.modules[f"superpoly.{layer}"]
    defined = [name for name, value in vars(module).items()
               if (inspect.isfunction(value) or inspect.isclass(value))
               and not name.startswith("_") and value.__module__ == module.__name__]
    assert defined
    for name in defined:
        assert getattr(cli, name) is getattr(module, name), name


@pytest.mark.parametrize("text", [
    *map(chr, range(0x80)),
    "".join(map(chr, range(0x80))),
    "\u00e9", "\u0100", "\u2028", "\u4e2d\u6587", "\ufeff", "\uffff",
    "\U0001F600", "\ud800", "\udfff", "a\U0001F600\ud800b\"\\",
], ids=ascii)
def test_quoted_is_json_dumps(text):
    assert cli._quoted(text) == json.dumps(text)


# run lifts the digit limit for a report and gives the caller back its own
@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
@pytest.mark.parametrize("argv,code", [
    (["indicial", "--type", "1", "--r", "2", "--m", "4", "--n", "8"], 0),
    (["superpose", "--r", "3", "--m", "2", "--j0", "-4"], 1),
    (["gen", "--r", "1", "--m", "2", "--j0", "-1"], 2),
    pytest.param(["gegenbauer", "--m", "3", "--nmax", "4", "--out", "/dev/full"], 2,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full on this system")),
], ids=["pass", "finding", "domain error", "failed write"])
def test_run_restores_the_callers_digit_limit(capsys, argv, code):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main(argv) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ["classify", "--r", "200", "--m", "3", "--members", "100"],
    ["classify", "--r", "157", "--m", "3"],
    ["superpose", "--r", "2500", "--m", "3", "--j0", "-1", "--members", "0"],
    ["superpose", "--r", "25", "--m", "3", "--j0", "-1", "--members", "95"],
], ids=" ".join)
def test_seeds_deeper_than_the_cap_exit_2_before_generating(monkeypatch, capsys, argv):
    monkeypatch.setattr(cli.classify, "generate", None)  # a seed generated raises TypeError
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --members ")
    assert err.endswith(f"above the cap {cli.INDEX_CAP}\n")


def test_seeds_at_the_cap_are_generated(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli.classify, "classification_report",
                        lambda r, m, members: seen.append((r, members)) or {"entries": []})
    assert main(["classify", "--r", "25", "--m", "3", "--members", "94"]) == 0
    assert seen == [(25, 94)]


def test_no_module_imports_a_name_it_never_uses():
    # every module, __init__ too now that it re-exports through __getattr__,
    # reads each name it imports, so a deletion that strands an import shows here
    package = Path(__file__).resolve().parents[1] / "src" / "superpoly"
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unused


def test_every_private_function_is_read():
    # a private module-level function has its readers in src/ alone, so one
    # whose last reader is deleted shows here; a module's dunder hook
    # (__getattr__, __dir__) is read by the interpreter
    package = Path(__file__).resolve().parents[1] / "src" / "superpoly"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    private = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert private
    assert [f"{name}: {fn}" for name, fn in private if fn not in read] == []


def test_every_public_method_is_read():
    # a public method or property of a class in src/ has a reader in src/ or
    # perfbench/ (CPoly.coeffs has only perfbench/traced.py); one that only
    # the tests call belongs in tests/cpoly_helpers.py
    root = Path(__file__).resolve().parents[1]
    sources = [*(root / "src" / "superpoly").glob("*.py")]
    trees = [ast.parse(path.read_text()) for path in [*sources, *(root / "perfbench").glob("*.py")]]
    public = [f"{cls.name}.{node.name}" for tree in trees[:len(sources)] for cls in tree.body
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert {"CPoly.scale", "CPoly.coeffs", "OdeOperator.apply", "Family.extend"} <= set(public)
    assert [name for name in public if name.split(".")[1] not in read] == []


def _parse_outcome(parser, argv, capsys):
    try:
        ns = vars(parser.parse_args(argv))
        code = None
    except SystemExit as exc:
        ns, code = None, exc.code
    return ns, code, capsys.readouterr()


# run builds only the subcommand it is given; every outcome must match the full parser
@pytest.mark.parametrize("name", [row[0] for row in COMMANDS])
@pytest.mark.parametrize("extra", [[], ["-h"], ["--r", "x"], ["--type", "2", "--r", "2",
                                                              "--m", "3", "--n", "9",
                                                              "--j0", "-4"]],
                         ids=" ".join)
def test_one_command_parser_matches_the_full_parser(capsys, name, extra):
    argv = [name] + extra
    assert (_parse_outcome(build_parser(name), argv, capsys)
            == _parse_outcome(build_parser(), argv, capsys))


# inputs that would check nothing: an empty series or PDE window, an empty
# Gegenbauer basis, fewer than one member to classify or superpose, no
# held-out member, an empty positivity range, an empty closed-form range,
# points with no nonzero member, a reduction below the first member
@pytest.mark.parametrize("argv", [
    ["series", "--type", "2", "--r", "2", "--m", "3", "--K", "3"],
    ["pde", "--type", "1", "--r", "3", "--m", "2", "--K", "5"],
    ["gegenbauer", "--m", "3", "--nmax", "-1"],
    ["superpose", "--r", "3", "--m", "2", "--j0", "-4", "--members", "-5"],
    ["superpose", "--r", "3", "--m", "2", "--j0", "-4", "--members", "-2"],
    ["classify", "--r", "2", "--m", "3", "--members", "-3"],
    ["classify", "--r", "2", "--m", "3", "--members", "0"],
    ["verify-ode", "--type", "2", "--r-range", "2..2", "--m-range", "3..3",
     "--points=-20..-12"],
    ["scan", "--type", "2", "--r-range", "2..2", "--m-range", "3..3", "--points", "7"],
    ["reduce", "--r", "3", "--m", "2", "--j0", "-4", "--kmax", "1"],
    ["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--holdout", "0"],
    ["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--holdout", "-1"],
    ["orth", "--type", "2", "--r", "2", "--m", "4", "--n-positive", "0"],
    ["orth", "--type", "2", "--r", "2", "--m", "4", "--closed-form-n", "-1"],
    # gen's members are generated as the report is written, so its checks come first
    ["gen", "--r", "2", "--m", "2", "--j0", "-4", "--kmax=-1"],
    ["gen", "--r", "2", "--m", "2", "--j0", "0"],
    ["gen", "--r", "1", "--m", "2", "--j0", "-1"],
], ids=" ".join)
def test_vacuous_input_exits_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["series", "pde"])
def test_window_below_2r_is_reported_as_such(capsys, command):
    # a window below 2r is refused before any member is read past the seed
    assert main([command, "--type", "1", "--r", "2", "--m", "3", "--K", "3"]) == 2
    assert capsys.readouterr().err == "error: K must be at least 2r\n"


# exit code and sha256 of the stdout report.  The first four were recorded
# before the modular-first elimination replaced whole-matrix Bareiss inside
# linalg.nullspace; the README examples after them were recorded before the
# CLI became a command table.
GOLDEN_REPORTS = [
    (["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"], 0,
     "bab00f23ccb08451c24eef92e832b13bc357d2157be03e9b25c8f709690f8906"),
    (["fit-ode", "--type", "2", "--r", "2", "--m", "3", "--kmax", "40"], 0,
     "ae273dbcf2cfc5fc700c060ff7972179bb6ace1a8449c1ac6fb5db53be5ada24"),
    # kernel_dim 18
    (["fit-ode", "--type", "1", "--r", "2", "--m", "3", "--j0", "-3", "--kmax", "40"], 0,
     "a4d18d067d456b23d7bf0406a0b5a7f731be9e8c39921aa4c4fe16ee0a4d54ad"),
    (["kernel", "--type", "2", "--r", "4", "--m", "4", "--n", "40", "--bound", "80"], 0,
     "7642b0a6f4f9ee53e551336247d120bbc58bd8ecec4eff933ac327bb816408c1"),
    # (4, 4) is resonant: one kernel polynomial of each parity, two with "both"
    (["kernel", "--type", "2", "--r", "4", "--m", "4", "--n", "40", "--bound", "80",
      "--parity", "even"], 0,
     "00bd2f4fcfc2d605110d1de28ee22ee9e1cd4df66ee564656635eea86dbc9bda"),
    (["kernel", "--type", "2", "--r", "4", "--m", "4", "--n", "40", "--bound", "80",
      "--parity", "odd"], 0,
     "cb0f7c135458498649bc01a67a56ec98c38d4bea9088a119e5f05a170d137a8a"),
    # README examples
    (["gen", "--r", "2", "--m", "2", "--j0", "-4", "--kmax", "8", "--print"], 0,
     "7d06baa1cc43d1fc9a317e7fcec186f52fbbd2ce090339112aba0f6922ff3c0f"),
    (["verify-ode", "--type", "2", "--r-range", "2..8", "--m-range", "2..10"], 0,
     "8c65ddaa7950475d92c20f1be302d215d3e8e4df9a8e85f36d30052ad072bf5c"),
    (["scan", "--type", "1", "--r-range", "2..4", "--m-range", "2..4"], 0,
     "193fae52ef6cef68037d779a6cadb777aae9296e91afe56115966f7bd9134257"),
    (["indicial", "--type", "2", "--r", "3", "--m", "4", "--n", "12"], 0,
     "f245407c787a6698ef45b909d4ac7f84051d357eee448170d3e537cb1dabcb1b"),
    # the one report whose argv needs an escape: --r is "\u0662", the digit two
    (["indicial", "--type", "1", "--r", "\u0662", "--m", "3", "--n", "8"], 0,
     "fa9514cc8644111ba39849222b060804a798b1dcf86fe597a8029168d0440c5e"),
    (["kernel", "--type", "2", "--r", "2", "--m", "4", "--n", "6"], 0,
     "e4e5073fbab15964caf46e2f4bc2effe799ff64e811169155ff13487004bc189"),
    (["classify", "--r", "4", "--m", "3"], 1,
     "8f2ddc46370ca1df424e80cc8a7e4157360331bcdff71aa14253b75a709c199d"),
    (["superpose", "--r", "3", "--m", "2", "--j0", "-4"], 1,
     "429f91e832f80c659717dfb80e33ca35ee821e6be1b9131c7360489df9aac144"),
    (["gegenbauer", "--m", "3", "--nmax", "10"], 0,
     "cc108ec932f2d27e49a74432e4155afd66d76b5790cfb3f75310e78d5d60a8ad"),
    (["reduce", "--r", "3", "--m", "2", "--j0", "-4"], 0,
     "80a022dbd49e7a860310a1b95a3aad0f628a6e23d0cab3ed520b97f976d7f553"),
    # the 5b finding; at degree 1, Q_1 and c Q_0 are dependent columns
    (["reduce", "--r", "3", "--m", "2", "--j0", "-1"], 0,
     "378a8c9ee8a1edc57cf4b3bedb0fdaf7e282ecbcbb3673305795ced60c80bdf9"),
    (["favard", "--type", "2", "--r", "2", "--m", "4", "--N", "12"], 0,
     "f10886133b704bd2104d732a7476a097d42229f7489efafff48f249dac793edd"),
    (["gram", "--type", "2", "--r", "2", "--m", "4", "--N", "12"], 0,
     "be11f60b60448747dfcaf05937ba74c0509944b49ad1395788f54b70dd0f24fc"),
    # recorded with the Fraction triple loop, before the staged integer Gram
    (["gram", "--type", "1", "--r", "3", "--m", "4", "--N", "40"], 0,
     "927aeb0d3f13d57798f09fa2b0c72237c199186899c5cfec617d9ec411aa4987"),
    (["identify", "--type", "1", "--r", "2", "--m", "2"], 0,
     "d69e6dda78a7c022df752fec5cc8de93836df2a525740cdf6f79239078ec98a2"),
    # recorded with the derived identification: nu = 3/2, c0 = 1/3, shift = -1
    (["identify", "--type", "1", "--r", "3", "--m", "2"], 0,
     "91a21fc17596e35c9d6d79e994d837cfeb42efc9f7e6b0fbf79c993ee7ea96f1"),
    (["orth", "--type", "2", "--r", "2", "--m", "4", "--closed-form-n", "50"], 0,
     "10b17c2effcefe64e0fa100958c1272705c5296810bd405e552a00ad86b7b393"),
    (["series", "--type", "2", "--r", "2", "--m", "3", "--K", "40"], 0,
     "4202a87d9e2084d8caf34ca1ead4092f825ca0607d03c4925c954f72ade9a351"),
    # the j0 < -r coupling term of the generating-function numerator
    (["series", "--type", "1", "--r", "3", "--m", "4", "--j0", "-5"], 0,
     "f8c674a74c13a1e540339671129697cb1e422e2c7b004db412b0bd435c0ff787"),
    (["pde", "--type", "1", "--r", "2", "--m", "2", "--K", "24"], 1,
     "fbee58097d19e3427328e513597ec694fd442c657cc1034438635a46f5136ac1"),
    (["pde", "--type", "1", "--r", "2", "--m", "2", "--K", "24", "--corrected"], 0,
     "883ce61ead5169dae6f202ebdcc0cd1b0f671849b49e63bd7d4064b4a4847358"),
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN_REPORTS,
                         ids=[" ".join(a) for a, _, _ in GOLDEN_REPORTS])
def test_elimination_reports_byte_identical(capsys, argv, exit_code, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads.json").read_text())
WORKLOAD_COMMANDS = [cmd for spec in WORKLOADS.values() for cmd in spec["commands"]]


# the benchmark's commands, with the exit code and stdout sha256 it records
@pytest.mark.parametrize("cmd", WORKLOAD_COMMANDS,
                         ids=[" ".join(cmd["argv"]) for cmd in WORKLOAD_COMMANDS])
def test_benchmark_workloads_byte_identical(capsys, cmd):
    code = main(cmd["argv"])
    out = capsys.readouterr().out
    assert code == cmd["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == cmd["sha256"]


def test_every_command_has_a_golden():
    assert {name for name, *_ in COMMANDS} == {argv[0] for argv, _, _ in GOLDEN_REPORTS}
