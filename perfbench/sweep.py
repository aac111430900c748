"""Run the benchmark over ten seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --out perfbench/results/FILE.json

Run from the repository root.  For every workload in BENCHMARK.json it runs
the benchmark command once per seed 1..10 with --trace 0 and then twice with
--trace 1, each as its own process, sequentially, for BENCHMARK.json's
run_seconds.  For each end-to-end metric it reports the median, the quartiles
(as `statistics.quantiles(values, n=4)` gives them) and the quartile spread
as a share of the median, next to the metric's bound; for wall_s and setup_s
it also gives the spread of the raw seconds, before the reference-speed
scaling.  A metric whose spread is not below a third of its bound is flagged
WIDE.  Per-layer counts and sizes must be identical across the traced runs;
per-layer times are given as medians.  With --out the raw result lines and
the summary are written to a JSON file, with the provenance each run
recorded.  The exit code is 1 when any run was incorrect, any spread is WIDE
or any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
TRACE_RUNS = 2


def bench_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, "trace": trace, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def summarise(spec: dict, runs: list) -> dict:
    plain = [r for r in runs if r["trace"] == 0]
    traced = [r for r in runs if r["trace"] == 1]
    out = {"correct": all(r["result"]["correct"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs),
           "attempted": sum(r["result"]["attempted"] for r in runs),
           "end_to_end": {}, "per_layer": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        entry = spread([r["result"]["metrics"][name]["value"] for r in plain])
        entry["bound"] = metric["bound"]
        if metric["unit"] == "s":
            raw = [r["detail"]["metrics"][name]["median"] for r in plain]
            entry["raw_spread"] = spread(raw)["spread"]
        out["end_to_end"][name] = entry
    for metric in spec["per_layer"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in traced]
        if metric["unit"] == "s":
            out["per_layer"][name] = {"median": statistics.median(values), "values": values}
        else:
            out["per_layer"][name] = {"value": values[0],
                                      "identical": all(v == values[0] for v in values)}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    ns = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(bench_once(spec, workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
        for seed in range(1, TRACE_RUNS + 1):
            runs.append(bench_once(spec, workload, seed, seconds, 1))
        summ = summarise(spec, runs)
        report["workloads"][workload] = {"summary": summ, "runs": runs}
        ok = ok and summ["correct"]
        for name, e in summ["end_to_end"].items():
            flag = "ok" if e["spread"] < e["bound"] / 3 else "WIDE"
            raw = f" raw {e['raw_spread']:.4f}" if "raw_spread" in e else ""
            print(f"{workload:6s} {name:12s} median {e['median']:.4f} "
                  f"spread {e['spread']:.4f}{raw} bound {e['bound']} {flag}")
            ok = ok and flag == "ok"
        for name, e in summ["per_layer"].items():
            if "identical" in e:
                print(f"{workload:6s} {name:24s} {e['value']} "
                      f"{'repeats' if e['identical'] else 'DIFFERS'}")
                ok = ok and e["identical"]
            else:
                print(f"{workload:6s} {name:24s} {e['median']:.4f} s")
    if runs:
        report["provenance"] = runs[-1]["detail"]["provenance"]
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
