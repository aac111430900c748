"""Benchmark of the superpoly CLI: cold-process workloads, a report-digest gate
and a per-layer trace.

    python3 perfbench/bench.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  A workload (perfbench/workloads.json) is a
fixed list of CLI commands; one pass runs each of them once, every command in
a fresh `python -m superpoly.cli` process, sequentially, in an order drawn
from --seed.  A fresh process per command means no in-process memo can turn a
repeat into a cache hit.  Passes repeat until --seconds have elapsed (at
least one pass).

Every command's exit code and the sha256 of its stdout report are checked
against the values recorded in workloads.json; a mismatch, a timeout or a
crash counts as a failed command.  Commands that exit 1 by design (the
paper-errata findings) succeed when code and digest match.

--trace 0 reports the end-to-end metrics, from untraced processes only:
  wall_s       median over passes of the summed spawn-to-exit seconds
  setup_s      median seconds of `python -m superpoly.cli --version`:
               interpreter start, import and parser construction, no work
  peak_rss_mb  median over passes of the largest command's peak RSS
Both times are reported at the reference host speed.  reference_s is the
time of a fixed exact-rational computation, timed right before every command
and every setup sample.  Each pass's wall seconds are multiplied by REF_S /
the median reference_s of that pass, and wall_s is the median of the scaled
passes; setup_s is REF_S times the median of each setup sample over the
reference_s timed just before it, since the host's speed changes within
seconds.  The detail line holds the raw seconds.
--trace 1 runs every command through traced.py and reports the per-layer
self times, the per-layer counts and sizes (which must repeat exactly from
pass to pass) and trace.overhead_s, the tracer's own time in a pass as
traced.py measures it.  Self times and overhead are scaled to the reference
speed like wall_s, per pass; the medians over passes are reported.

The last stdout line is the result object; the line before it holds the
provenance, sample counts, quartiles, error rate and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HARD_LIMIT_S = 150.0   # a run must end within 180 s even when commands hang
SETUP_PER_PASS = 4
REF_S = 0.045  # reference_s median on the 2-vCPU x86_64 host of the first baseline

# Span name -> per-layer self-time metric.  Spans of a layer not listed here
# count toward that layer's entry in LAYER_TIME.
SPAN_TIME = {
    "ode.apply": "ode.apply_s",
    "ode.apply_operator": "ode.apply_s",
    "ode.polynomial_kernel": "ode.kernel_s",
    "linalg.solve_exact": "linalg.solve_s",
    "linalg.matvec": "linalg.solve_s",
    "orth.gram_check": "orth.gram_s",
    "cli.run": "trace.unattributed_s",   # CLI glue, argparse, report output
}
LAYER_TIME = {
    "families": "families.generate_s",
    "ode": "ode.scan_s",
    "linalg": "linalg.nullspace_s",
    "fitting": "fitting.assemble_s",
    "orth": "orth.favard_s",
    "series": "series.pde_s",
    "classify": "classify.superpose_s",
    "cli": "cli.serialize_s",
}
TIME_METRICS = sorted(set(SPAN_TIME.values()) | set(LAYER_TIME.values()))
COUNT_METRICS = {  # name -> unit; summed over a pass, or maximised for sizes
    "families.members": "count", "families.max_num_bits": "bits",
    "families.max_den_bits": "bits",
    "ode.apply_calls": "count",
    "linalg.calls": "count", "linalg.max_rows": "count", "linalg.max_cols": "count",
    "linalg.max_entry_bits": "bits", "linalg.kernel_dim": "count",
    "fitting.rows": "count", "fitting.unknowns": "count",
    "orth.max_moment_bits": "bits",
    "series.exponents": "count",
    "classify.fits": "count",
    "cli.report_bytes": "bytes",
}


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC  # the checkout's sources, never an installed copy
    return env


def reference_s() -> float:
    """Seconds for a fixed exact-rational recurrence that runs no superpoly code.

    A shared host's speed drifts by up to a third over minutes, and the drift
    slows this loop as it slows the CLI; times scaled by REF_S / its median
    stay steady from run to run where raw seconds do not.
    """
    start = time.perf_counter()
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(2, 90):
        nxt = [Fraction(0)] + [x * Fraction(2 * k + 1, k + 3) for x in cur]
        for i, x in enumerate(prev):
            nxt[i] -= x * Fraction(k, k + 5)
        prev, cur = cur, nxt
    return time.perf_counter() - start


def spawn(argv: list, timeout: float, workdir: str) -> dict:
    """Run argv to completion; time it from spawn to exit and take its peak RSS.

    stdout and stderr go to files in workdir, as a user redirecting the
    report would see it, and stdout is hashed after the process has ended.
    The benchmark process never holds a report in memory: a vfork-spawned
    child's peak RSS starts at its parent's, so the parent must stay small.
    """
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, lambda: (timed_out.set(), proc.kill()))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    digest, size = hashlib.sha256(), 0
    with open(out_path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    with open(err_path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(err_path) - 4096))
        stderr = fh.read()  # the tail, where a traceback ends
    return {"code": proc.returncode, "sha256": digest.hexdigest(), "bytes": size,
            "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": timed_out.is_set(), "stderr": stderr}


def run_command(cmd: dict, deadline: float, workdir: str, run_id: str | None = None):
    """One command in a fresh process, traced when run_id is given.

    Returns (result, trace object or None, problem or None).
    """
    trace_path = os.path.join(workdir, "trace.json")
    if run_id is None:
        argv = [sys.executable, "-m", "superpoly.cli"] + cmd["argv"]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced.py"),
                trace_path, run_id] + cmd["argv"]
    res = spawn(argv, max(1.0, deadline - time.monotonic()), workdir)
    problem = None
    if res["timed_out"]:
        problem = "timeout"
    elif res["code"] != cmd["exit"]:
        problem = f"exit code {res['code']}, expected {cmd['exit']}"
    elif res["sha256"] != cmd["sha256"]:
        problem = "report digest mismatch"
    if problem:
        tail = res["stderr"].decode(errors="replace").strip().splitlines()[-3:]
        print(f"FAILED {' '.join(cmd['argv'])}: {problem}", *tail, sep="\n  ",
              file=sys.stderr)
        return res, None, problem
    trace = None
    if run_id is not None:
        with open(trace_path) as fh:
            trace = json.load(fh)
    return res, trace, None


def measure_setup(n: int, deadline: float, workdir: str) -> tuple[list, list]:
    """Seconds to spawn the CLI, import it and build its parser, with no work.

    Returns the samples and the reference_s timed right before each of them.
    """
    argv = [sys.executable, "-m", "superpoly.cli", "--version"]
    walls, refs = [], []
    for _ in range(n):
        refs.append(reference_s())
        res = spawn(argv, max(1.0, deadline - time.monotonic()), workdir)
        if res["code"] != 0:
            raise RuntimeError("superpoly --version failed: "
                               + res["stderr"].decode(errors="replace"))
        walls.append(res["wall"])
    return walls, refs


def run_pass(commands: list, order: list, deadline: float, workdir: str,
             traced_as: str | None = None, setup: int = 0) -> dict:
    """`setup` setup samples, then each command once, in the given order, with
    reference_s timed before it; traced when traced_as names the pass."""
    record = {"wall": 0.0, "rss_mb": 0.0, "attempted": 0, "failures": [],
              "bytes": 0, "spans": [], "overhead": 0.0, "ref": []}
    record["setup"], record["setup_ref"] = measure_setup(setup, deadline, workdir)
    for i in order:
        cmd = commands[i]
        run_id = None if traced_as is None else f"{traced_as}.{i}"
        record["ref"].append(reference_s())
        res, trace, problem = run_command(cmd, deadline, workdir, run_id)
        record["attempted"] += 1
        record["wall"] += res["wall"]
        record["rss_mb"] = max(record["rss_mb"], res["rss_mb"])
        record["bytes"] += res["bytes"]
        if problem:
            record["failures"].append({"argv": cmd["argv"], "problem": problem})
        elif trace is not None:
            record["spans"].append(trace["spans"])
            record["overhead"] += trace["overhead_s"]
    return record


def layer_metrics(record: dict) -> tuple[dict, dict]:
    """Per-layer self times and counts of one traced pass."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    counts["cli.report_bytes"] = record["bytes"]

    def grow(key, value):
        counts[key] = max(counts[key], value)

    for spans in record["spans"]:
        net = [end - start - excluded for _, start, end, excluded, _, _ in spans]
        self_time = list(net)
        for i, span in enumerate(spans):
            if span[4] >= 0:
                self_time[span[4]] -= net[i]
        for i, (name, _, _, _, parent, size) in enumerate(spans):
            layer = name.split(".", 1)[0]
            times[SPAN_TIME.get(name) or LAYER_TIME[layer]] += self_time[i]
            size = size or {}
            if name == "families.extend":
                counts["families.members"] += size["members"]
                grow("families.max_num_bits", size["num_bits"])
                grow("families.max_den_bits", size["den_bits"])
            elif name == "ode.apply":
                counts["ode.apply_calls"] += 1
            elif layer == "linalg":
                counts["linalg.calls"] += 1
                grow("linalg.max_rows", size.get("rows", 0))
                grow("linalg.max_cols", size.get("cols", 0))
                grow("linalg.max_entry_bits", size.get("entry_bits", 0))
                counts["linalg.kernel_dim"] += size.get("kernel_dim", 0)
                if parent >= 0 and spans[parent][0] == "fitting.fit_ode":
                    counts["fitting.rows"] += size.get("rows", 0)
            elif name == "fitting.fit_ode":
                counts["fitting.unknowns"] += size["unknowns"]
            elif name == "orth.favard":
                grow("orth.max_moment_bits", size["moment_bits"])
            elif name == "series.pde_reduced":
                counts["series.exponents"] += 1
            elif name == "series.first_order_residual":
                counts["series.exponents"] += size["exponents"]
            elif name == "classify.superposition_fit":
                counts["classify.fits"] += 1
    return times, counts


def src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": src_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "samples": len(values), "values": values}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result object, detail object)."""
    commands = load_workloads()[workload]["commands"]
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        while True:
            order = rng.sample(range(len(commands)), len(commands))
            if trace:
                passes.append(run_pass(commands, order, deadline, workdir,
                                       traced_as=f"pass{len(passes)}"))
            else:
                passes.append(run_pass(commands, order, deadline, workdir,
                                       setup=SETUP_PER_PASS))
            failed = any(p["failures"] for p in passes)
            if failed or time.monotonic() - start >= seconds:
                break
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "provenance": provenance(), "passes": len(passes),
              "error_rate": len(failures) / attempted, "failures": failures[:8]}
    metrics = {}
    correct = not failures
    # reference speed over the host speed during each pass
    scales = [REF_S / statistics.median(p["ref"] + p["setup_ref"]) for p in passes]
    if trace:
        layers = [layer_metrics(p) for p in passes]
        counts = [c for _, c in layers]
        repeatable = all(c == counts[0] for c in counts)
        correct = correct and repeatable
        detail["counts_repeat"] = repeatable
        for key in TIME_METRICS:
            value = statistics.median(t[key] * k for (t, _), k in zip(layers, scales))
            metrics[key] = {"value": value, "unit": "s"}
        for key, unit in COUNT_METRICS.items():
            metrics[key] = {"value": counts[0][key], "unit": unit}
        overhead = [p["overhead"] * k for p, k in zip(passes, scales)]
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        detail["metrics"] = {"overhead_s": summary(overhead),
                             "reference_s": summary([x for p in passes for x in p["ref"]])}
    else:
        setup = [x for p in passes for x in p["setup"]]
        setup_ref = [x for p in passes for x in p["setup_ref"]]
        samples = {"wall_s": [p["wall"] for p in passes], "setup_s": setup,
                   "peak_rss_mb": [p["rss_mb"] for p in passes],
                   "reference_s": [x for p in passes for x in p["ref"]],
                   "setup_reference_s": setup_ref}
        detail["metrics"] = {k: summary(v) for k, v in samples.items()}
        wall = statistics.median(p["wall"] * k for p, k in zip(passes, scales))
        setup_s = REF_S * statistics.median(x / ref for x, ref in zip(setup, setup_ref))
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]),
                                   "unit": "MB"}}
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superpoly", "cli.py")):
        print(f"bench: no superpoly sources under {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if ns.workload not in workloads:
        print(f"bench: unknown workload {ns.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    try:
        result, detail = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
