"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

They spawn real CLI processes (about a minute in all), so they are kept out
of the package's own test suite.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402

WORKLOADS = bench.load_workloads()

# Every count of a layer a workload stresses (workloads.json's "layers") must be
# nonzero; the counts below must stay exactly zero.
NONZERO = {name: [key for key in bench.COUNT_METRICS
                  if key.split(".", 1)[0] in spec["layers"]]
           for name, spec in WORKLOADS.items()}
ZERO = {
    "grid": ["ode.apply_calls", "families.members", "series.exponents", "classify.fits"],
    "deep": ["families.members", "families.max_num_bits", "orth.max_moment_bits",
             "cli.report_bytes"],
    "elim": ["linalg.calls", "linalg.kernel_dim", "fitting.rows", "fitting.unknowns",
             "ode.apply_calls"],
}
ZERO = {
    "grid": ["fitting.unknowns", "fitting.rows", "linalg.kernel_dim",
             "orth.max_moment_bits"],
    "deep": ["ode.apply_calls", "linalg.calls", "fitting.unknowns", "series.exponents",
             "classify.fits"],
    "elim": ["orth.max_moment_bits", "series.exponents", "classify.fits"],
}
ZERO_TIME = {
    "deep": ["ode.apply_s", "ode.kernel_s", "linalg.nullspace_s", "linalg.solve_s",
             "fitting.assemble_s", "series.pde_s", "classify.superpose_s"],
    "elim": ["orth.favard_s", "orth.gram_s", "series.pde_s", "classify.superpose_s"],
    "grid": ["ode.kernel_s", "fitting.assemble_s", "orth.favard_s", "orth.gram_s"],
}


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as path:
        yield path


def traced_pass(name, workdir, label):
    commands = WORKLOADS[name]["commands"]
    deadline = time.monotonic() + bench.HARD_LIMIT_S
    record = bench.run_pass(commands, list(range(len(commands))), deadline, workdir,
                            traced_as=label)
    assert record["failures"] == []
    return bench.layer_metrics(record)


@pytest.fixture(scope="module")
def traced(workdir):
    return {name: traced_pass(name, workdir, "a") for name in WORKLOADS}


def test_every_command_has_a_recorded_outcome():
    for spec in WORKLOADS.values():
        for cmd in spec["commands"]:
            assert cmd["exit"] in (0, 1)
            assert len(cmd["sha256"]) == 64
            assert "--out" not in cmd["argv"]  # the envelope echoes argv


def test_repeat_in_one_pass_is_cold(workdir):
    cmd = next(c for c in WORKLOADS["deep"]["commands"] if c["argv"][0] == "gram")
    deadline = time.monotonic() + bench.HARD_LIMIT_S
    runs = [bench.run_command(cmd, deadline, workdir) for _ in range(2)]
    assert [problem for _, _, problem in runs] == [None, None]  # exit code and digest
    walls = [res["wall"] for res, _, _ in runs]
    setup = statistics.median(bench.measure_setup(3, deadline, workdir)[0])
    assert min(walls) > 0.5 * max(walls)
    assert min(walls) > 3 * setup


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_reaches_the_right_layers(traced, name):
    times, counts = traced[name]
    for key in NONZERO[name]:
        assert counts[key] > 0, key
    for key in ZERO[name]:
        assert counts[key] == 0, key
    for key in ZERO_TIME[name]:
        assert times[key] == 0.0, key
    # calls missed through a `from ... import` binding would land in cli.run
    assert times["trace.unattributed_s"] < 0.1 * sum(times.values())


def test_counts_repeat_exactly(traced, workdir):
    assert traced_pass("elim", workdir, "b")[1] == traced["elim"][1]


def test_wrappers_cover_every_binding():
    # `superpoly.classify` the attribute is the function, so modules come from sys.modules
    code = """if True:
        import sys, traced
        traced.install(traced.Recorder())
        cli, classify, fitting, ode, series, families, linalg = (
            sys.modules["superpoly." + name] for name in
            ("cli", "classify", "fitting", "ode", "series", "families", "linalg"))
        pairs = [(cli.generate, families.generate), (classify.generate, families.generate),
                 (series.generate, families.generate), (ode.nullspace, linalg.nullspace),
                 (fitting.nullspace, linalg.nullspace),
                 (classify.solve_exact, linalg.solve_exact), (cli.fit_ode, fitting.fit_ode)]
        assert all(a is b and hasattr(a, "__wrapped__") for a, b in pairs)
        assert hasattr(families.Family.extend, "__wrapped__")
        assert hasattr(ode.OdeOperator.apply, "__wrapped__")
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench.SRC, bench.HERE]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=bench.ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_self_time_subtracts_children_and_wrapper_time():
    spans = [
        ["cli.run", 0.0, 10.0, 1.0, -1, None],
        ["families.generate", 1.0, 5.0, 0.5, 0, None],
        ["families.extend", 1.5, 4.0, 0.0, 1, {"members": 3, "num_bits": 7, "den_bits": 5}],
        ["linalg.nullspace", 6.0, 8.0, 0.0, 0,
         {"rows": 4, "cols": 3, "entry_bits": 9, "kernel_dim": 1}],
    ]
    times, counts = bench.layer_metrics({"spans": [spans], "bytes": 11})
    assert times["trace.unattributed_s"] == pytest.approx(9.0 - 3.5 - 2.0)
    assert times["families.generate_s"] == pytest.approx(3.5)
    assert times["linalg.nullspace_s"] == pytest.approx(2.0)
    assert counts["families.members"] == 3
    assert counts["linalg.max_rows"] == 4 and counts["linalg.kernel_dim"] == 1
    assert counts["cli.report_bytes"] == 11
