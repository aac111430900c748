"""Batch driver: every verification as a subcommand with JSON reports.

Reports go to stdout (or --out FILE) as JSON with sorted keys; a one-line
human summary goes to stderr.  Exit codes: 0 all checks pass, 1 verification
finding, 2 usage error.  Identical inputs produce byte-identical reports
(wall time is kept outside the report object).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product, repeat

from . import __version__
from .classify import (classification_report, gegenbauer, superposition_fit,
                       verify_gegenbauer_reduction)
from .errors import SuperpolyError
from .families import FamilyParams, canonical_j0, generate
from .fitting import fit_ode, in_span, operator_vector
from .ode import (align_index, build_operator, indicial, polynomial_kernel, scan_cell,
                  scan_report)
from .orth import favard, gram_check, identify_ultraspherical, orthogonality_report, reindex
from .series import first_order_residual, pde_residual


def parse_span(text: str) -> list[int]:
    """Inclusive integer range "a..b", or a single integer; never empty."""
    lo, dots, hi = text.partition("..")
    try:
        span = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range a..b, got {text!r}") from None
    if not span:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return span


def parse_points(text: str):
    """--points: "paper", "all", or a span of n as parse_span reads it."""
    return text if text in ("paper", "all") else parse_span(text)


def _seed(ns) -> int:
    """The command's --j0 when it has one and it is given, else the canonical seed."""
    j0 = getattr(ns, "j0", None)
    return canonical_j0(ns.type, ns.r) if j0 is None else j0


def _favard_kmax(ns) -> int:
    """Generation depth of favard, gram and orth: k <= (N + 3) r, at least 12r."""
    return max(12, ns.N + 3) * ns.r


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (report_dict, ok)
# ---------------------------------------------------------------------------

def cmd_gen(ns) -> tuple[dict, bool]:
    fam = generate(FamilyParams(ns.r, ns.m, ns.j0), ns.kmax)
    report = fam.to_json()
    if ns.print_members:
        for k in sorted(fam.polys):
            if fam.polys[k]:
                print(f"P_{k} = {fam.polys[k]!r}", file=sys.stderr)
    return report, True


def cmd_verify_ode(ns) -> tuple[dict, bool]:
    rs, ms = zip(*product(ns.r_range, ns.m_range))
    tasks = (repeat(ns.type), rs, ms, repeat(ns.points))
    jobs = min(ns.jobs, os.cpu_count() or 1, len(rs))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(scan_cell, *tasks))  # map keeps task order
    else:
        cells = list(map(scan_cell, *tasks))
    report = scan_report(ns.type, cells)
    return report, report["summary"]["pass"]


def cmd_indicial(ns) -> tuple[dict, bool]:
    data = indicial(ns.type, ns.r, ns.m, ns.n)
    report = data.to_json()
    report["findings"] = [] if data.matches_printed else [{
        "kind": "printed-factorization-mismatch",
        "detail": ("the printed type-2 factorization matches the operator only "
                   "for r = 2; roots shown come from the operator-certified factors"),
    }]
    return report, True  # the discrepancy is a documented finding, not a failure


def cmd_kernel(ns) -> tuple[dict, bool]:
    op = build_operator(ns.type, ns.r, ns.m, ns.n)
    bound = ns.bound if ns.bound is not None else max(
        indicial(ns.type, ns.r, ns.m, ns.n).admissible_degrees, default=0) + 2
    basis = polynomial_kernel(op, bound, ns.parity)
    report = {
        "family_type": ns.type, "r": ns.r, "m": ns.m, "n": ns.n,
        "degree_bound": bound, "parity": ns.parity,
        "dimension": len(basis),
        "basis": [p.to_strings() for p in basis],
    }
    return report, True


def cmd_classify(ns) -> tuple[dict, bool]:
    report = classification_report(ns.r, ns.m, members=ns.members)
    ok = not any(e.get("findings") for e in report["entries"])
    return report, ok


def cmd_superpose(ns) -> tuple[dict, bool]:
    rep = superposition_fit(ns.r, ns.m, ns.j0, members=ns.members)
    return rep.to_json(), rep.ok


def cmd_gegenbauer(ns) -> tuple[dict, bool]:
    basis = gegenbauer(ns.m, ns.nmax)
    report = {
        "m": ns.m, "lambda": str(basis.lam),
        "polys": [p.to_strings() for p in basis.polys],
        "ode_certified": True,  # gegenbauer() raises if any member fails its equation
    }
    return report, True


def cmd_reduction(ns) -> tuple[dict, bool]:
    report = verify_gegenbauer_reduction(ns.r, ns.m, ns.j0, ns.kmax)
    return report, report["all_two_term"]


def cmd_favard(ns) -> tuple[dict, bool]:
    fam = generate(FamilyParams(ns.r, ns.m, _seed(ns)), _favard_kmax(ns))
    fd = favard(reindex(fam), ns.N)
    return fd.to_json(), fd.ok


def cmd_gram(ns) -> tuple[dict, bool]:
    fam = generate(FamilyParams(ns.r, ns.m, _seed(ns)), _favard_kmax(ns))
    fd = favard(reindex(fam), ns.N)
    report = gram_check(fd, ns.N)
    return report, report["pass"]


def cmd_identify(ns) -> tuple[dict, bool]:
    fam = generate(FamilyParams(ns.r, ns.m, _seed(ns)))
    report = identify_ultraspherical(reindex(fam))
    return report, True  # no-match is a recorded result, not a failure


def cmd_orth(ns) -> tuple[dict, bool]:
    fam = generate(FamilyParams(ns.r, ns.m, _seed(ns)), _favard_kmax(ns))
    report = orthogonality_report(fam, N=ns.N, n_positive=ns.n_positive,
                                  closed_form_n=ns.closed_form_n)
    ok = report["a_positive"] and report["gram_pass"]
    return report, ok


def cmd_series(ns) -> tuple[dict, bool]:
    j0 = _seed(ns)
    fam = generate(FamilyParams(ns.r, ns.m, j0), max(ns.K - 2 * ns.r, 12 * ns.r))
    resid = first_order_residual(fam, ns.K)
    window = ns.K - 2 * ns.r
    bad = [k for k in range(window + 1) if resid[k]]
    report = {
        "r": ns.r, "m": ns.m, "j0": j0, "K": ns.K,
        "zero_through": window if not bad else min(bad) - 1,
        "pass": not bad,
        "findings": [{"kind": "series-residual", "exponent": k} for k in bad[:8]],
    }
    return report, not bad


def cmd_pde(ns) -> tuple[dict, bool]:
    report = pde_residual(ns.type, ns.r, ns.m, ns.K, corrected=ns.corrected)
    return report, report["pass"]


def cmd_fit_ode(ns) -> tuple[dict, bool]:
    j0 = _seed(ns)
    fam = generate(FamilyParams(ns.r, ns.m, j0), ns.kmax)
    delta = ns.delta
    if delta is None:
        try:
            delta = align_index(fam, ns.type)
        except SuperpolyError:
            delta = 0
    bounds = tuple(int(b) for b in ns.bounds.split(","))
    result = fit_ode(fam, order=len(bounds) - 1, coeff_degree_bounds=bounds,
                     delta=delta, holdout=ns.holdout)
    report = result.to_json()
    seed_type = {canonical_j0(t, ns.r): t for t in (1, 2)}.get(j0)
    if seed_type is not None and bounds == (0, 1, 2, 3, 4):
        target = operator_vector(build_operator, seed_type, ns.r, ns.m, bounds)
        report["closed_operator_in_span"] = in_span(result.candidates, target)
    return report, bool(result.candidates)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superpoly",
        description="exact verification of superelliptic orthogonal polynomial claims")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", metavar="FILE", help="write the JSON report to FILE")
        return p

    p = add("gen", cmd_gen, help="generate a family and dump it as JSON")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--print", dest="print_members", action="store_true",
                   help="also pretty-print nonzero members to stderr")

    for name, default_points in (("verify-ode", "paper"), ("scan", "all")):
        p = add(name, cmd_verify_ode,
                help=("verify the fourth-order operator annihilates the family "
                      f"(default points: {default_points})"))
        p.add_argument("--type", type=int, choices=(1, 2), required=True)
        p.add_argument("--r-range", type=parse_span, default="2..8")
        p.add_argument("--m-range", type=parse_span, default="2..10")
        p.add_argument("--points", type=parse_points, default=default_points,
                       help='"paper" (n = 5r..9r), "all", or "a..b"')
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes, clamped to 1..CPU count")

    p = add("indicial", cmd_indicial, help="indicial roots, admissible degrees, resonance")
    p.add_argument("--type", type=int, choices=(1, 2), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("kernel", cmd_kernel, help="exact polynomial kernel of the operator")
    p.add_argument("--type", type=int, choices=(1, 2), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")

    p = add("classify", cmd_classify, help="classify all 2r initial conditions")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--members", type=int, default=10)

    p = add("superpose", cmd_superpose, help="type-B superposition fit + certification")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, required=True)
    p.add_argument("--members", type=int, default=10)

    p = add("gegenbauer", cmd_gegenbauer, help="ultraspherical basis certified against its equation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nmax", type=int, default=12)

    p = add("reduce", cmd_reduction, help="Gegenbauer reduction of the j0=-1 / j0=-r-1 families")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None)

    p = add("favard", cmd_favard, help="three-term coefficients, positivity, monic data")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, default=None)
    p.add_argument("--N", type=int, default=12)

    p = add("gram", cmd_gram, help="exact Gram-matrix orthogonality check")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, default=12)

    p = add("identify", cmd_identify, help="associated-ultraspherical identification")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("orth", cmd_orth, help="full orthogonality report for one family")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--n-positive", type=int, default=200)
    p.add_argument("--closed-form-n", type=int, default=0)

    p = add("series", cmd_series, help="first-order generating-function ODE residual")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, default=None)
    p.add_argument("--K", type=int, default=40)

    p = add("pde", cmd_pde, help="per-exponent fourth-order PDE residuals")
    p.add_argument("--type", type=int, choices=(1, 2), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--K", type=int, default=24)
    p.add_argument("--corrected", action="store_true",
                   help="apply the erratum terms to the type-1 reduction")

    p = add("fit-ode", cmd_fit_ode, help="blind exact fit of annihilating operators")
    p.add_argument("--type", type=int, choices=(1, 2), default=1)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j0", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--bounds", default="0,1,2,3,4",
                   help="c-degree bound per derivative order, comma separated")
    p.add_argument("--delta", type=int, default=None,
                   help="index map n = k + delta (default: aligned, else 0)")
    p.add_argument("--holdout", type=int, default=4)

    return ap


def run(argv) -> tuple[dict, int]:
    ap = build_parser()
    ns = ap.parse_args(argv)
    started = time.monotonic()
    try:
        report, ok = ns.fn(ns)
    except SuperpolyError as exc:
        report = {"error": type(exc).__name__, "detail": str(exc)}
        print(f"error: {exc}", file=sys.stderr)
        return {"command": ns.command, "argv": list(argv), "report": report}, 2
    elapsed = time.monotonic() - started
    envelope = {
        "command": ns.command,
        "argv": list(argv),
        "report": report,
        "status": "pass" if ok else "fail",
    }
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"{ns.command}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)", file=sys.stderr)
    return envelope, 0 if ok else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)[1]


if __name__ == "__main__":
    sys.exit(main())
