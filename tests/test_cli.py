import ast
import hashlib
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
from superpoly import CPoly, ParameterError, gegenbauer, generate
from superpoly.cli import COMMANDS, build_parser, main, parse_span
from superpoly.families import stream
from superpoly.poly import LazyJSON, split_strings


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
    # one call checks the arguments and one streams the report; --print
    # prints each member as the report writes it, so it adds none
    counts = {}
    for flags in ([], ["--print"]):
        calls = []
        monkeypatch.setattr(cli, "stream", lambda *a: calls.append(a) or stream(*a))
        assert main(["gen", "--r", "2", "--m", "3", "--j0", "-4", "--kmax", "8"] + flags) == 0
        counts[tuple(flags)] = len(calls)
    capsys.readouterr()
    assert counts == {(): 2, ("--print",): 2}


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


def run_cli(*argv, **kwargs):
    """A superpoly process on argv: a Popen with kwargs if any are given, else the
    CompletedProcess with stdout discarded and stderr captured."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "superpoly.cli", *argv]
    if kwargs:
        return subprocess.Popen(cmd, env=env, **kwargs)
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60)


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
        report, ok = runner(build_parser("gegenbauer").parse_args(
            ["gegenbauer", "--m", "3", "--nmax", "10"]))
        assert ok and calls == [] and len(report["polys"]) == 11
        eager = dict(report, polys=[to_strings(p) for p in gegenbauer(3, 10)])
        assert list(report["polys"]) == eager["polys"] and len(calls) == share
        assert json.dumps(report) == json.dumps(eager)
        assert (json.dumps(report, indent=2, sort_keys=True)
                == json.dumps(eager, indent=2, sort_keys=True))
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
        assert len(list(split_strings(gegenbauer(3, 10).__iter__)())) == 11
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
    assert next(iter(report["polys"]))["k"] == -4  # the worker is running, then abandoned
    assert_no_child_left()
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
    """A nested value of every kind the report writer takes."""
    kinds = ["str", "int", "bool", "none"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "lazy", "rational"]
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, 6)))
    if kind == "int":
        return rng.choice([0, -1, 7, -(1 << 2000) - 3, rng.randint(-10 ** 40, 10 ** 40)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "rational":  # empty or with zeros, integers and fractions
        return CPoly(Fraction(rng.randint(-99, 99), rng.choice([1, 1, 3, 10 ** 30]))
                     for _ in range(rng.randint(0, 5))).to_strings()
    items = [random_report_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == "dict":
        return {"".join(rng.choice(TEXT) for _ in range(3)) + str(i): item
                for i, item in enumerate(items)}
    if kind == "lazy":
        return LazyJSON(items.__iter__, lambda item: item, len(items))
    return tuple(items) if kind == "tuple" else items


def written(value) -> str:
    fh = io.StringIO()
    cli._write_report(value, fh)
    return fh.getvalue()


def test_report_writer_matches_json_dumps():
    rng = random.Random(20261019)
    for _ in range(300):
        value = random_report_value(rng)
        assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    subclasses = [type("Text", (str,), {})('a"\\é'), IntEnum("Small", "ONE TWO").TWO]
    assert written(subclasses) == json.dumps(subclasses, indent=2, sort_keys=True) + "\n"
    # one report of many writes: pieces far above and below WRITE_SIZE
    value = {"polys": LazyJSON(lambda: stream(2, 3, -4, 300),
                               lambda item: {"k": item[0], "coeffs": item[1].to_strings()}, 305),
             "notes": [random_report_value(rng) for _ in range(2000)]}
    text = written(value)
    assert len(text) > 20 * cli.WRITE_SIZE
    assert text == json.dumps(value, indent=2, sort_keys=True) + "\n"


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


def test_fit_ode_falls_back_to_delta_0_only_on_alignment_errors(capsys, monkeypatch):
    def broken(fam, family_type):
        raise ParameterError("not an alignment failure")

    monkeypatch.setattr(cli, "align_index", broken)
    assert main(["fit-ode", "--type", "1", "--r", "2", "--m", "2", "--kmax", "40"]) == 2
    assert "not an alignment failure" in capsys.readouterr().err


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module reads each name it
    # imports, so a deletion that strands an import shows here
    package = Path(__file__).resolve().parents[1] / "src" / "superpoly"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
    # whose last reader is deleted shows here
    package = Path(__file__).resolve().parents[1] / "src" / "superpoly"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    private = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert private
    assert [f"{name}: {fn}" for name, fn in private if fn not in read] == []


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
# Gegenbauer basis, too few members to fit, no held-out member, an empty
# positivity range, an empty closed-form range, points with no nonzero
# member, a reduction below the first member
@pytest.mark.parametrize("argv", [
    ["series", "--type", "2", "--r", "2", "--m", "3", "--K", "3"],
    ["pde", "--type", "1", "--r", "3", "--m", "2", "--K", "5"],
    ["gegenbauer", "--m", "3", "--nmax", "-1"],
    ["superpose", "--r", "3", "--m", "2", "--j0", "-4", "--members", "-5"],
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
    # the family is generated only to k = K - 2r, which is never negative
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
