"""Batch driver: every verification as a subcommand with JSON reports.

Reports are streamed to stdout (or --out FILE) as JSON with sorted keys; a
one-line human summary goes to stderr.  Exit codes: 0 all checks pass,
1 verification finding, 2 usage error or a report that could not be written
whole (a failed write, or a dead strings worker).  Identical
inputs produce byte-identical reports (wall time is kept outside the report
object).  The parser is built from two tables: FLAGS declares each flag
once, COMMANDS each subcommand.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .classify import (classification_report, gegenbauer, superposition_fit,
                       verify_gegenbauer_reduction)
from .errors import AlignmentError, SuperpolyError
from .families import _check_kmax, canonical_j0, generate, stream
from .fitting import CLOSED_BOUNDS, fit_ode, in_span, operator_vector
from .ode import align_index, build_operator, indicial, polynomial_kernel, residual_scan
from .orth import favard, gram_check, identify_ultraspherical, orthogonality_report
from .poly import LazyJSON, RationalStrings, split_strings
from .series import first_order_residual, pde_residual


INDEX_CAP = 2500  # largest member index, c-degree or n a run may ask for


def parse_span(text: str) -> list[int]:
    """Inclusive integer range "a..b", or a single integer; never empty.

    An endpoint above INDEX_CAP in absolute value is rejected before the
    range is built.
    """
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range a..b, got {text!r}") from None
    if max(abs(lo), abs(hi)) > INDEX_CAP:
        raise argparse.ArgumentTypeError(
            f"{text} is above the cap {INDEX_CAP} in absolute value")
    span = list(range(lo, hi + 1))
    if not span:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return span


def parse_points(text: str):
    """--points: "paper", "all", or a span of n, as parse_span reads it."""
    return text if text in ("paper", "all") else parse_span(text)


BOUNDS_CAP = 6  # most --bounds entries, and largest entry


def parse_bounds(text: str) -> tuple[int, ...]:
    """--bounds: one c-degree bound per derivative order, comma separated.

    At most BOUNDS_CAP entries, each in 0..BOUNDS_CAP: the fit has
    5 * sum(b_i + 1) unknowns, and every member's rows are built before the
    system's size is checked.
    """
    try:
        bounds = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if len(bounds) > BOUNDS_CAP or not all(0 <= b <= BOUNDS_CAP for b in bounds):
        raise argparse.ArgumentTypeError(
            f"{text} needs at most {BOUNDS_CAP} entries, each in 0..{BOUNDS_CAP}")
    return bounds


def capped(cap: int):
    """An argparse type: an integer no larger than cap in absolute value."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if abs(value) > cap:
            raise argparse.ArgumentTypeError(
                f"{value} is above the cap {cap} in absolute value")
        return value
    return parse


def _family(ns, kmax: int | None = None):
    """The family of --r, --m to kmax; seeded at --j0 if given, else canonically."""
    j0 = getattr(ns, "j0", None)
    j0 = canonical_j0(ns.type, ns.r) if j0 is None else j0
    return generate(ns.r, ns.m, j0, kmax)


def _favard_family(ns):
    """The family favard, gram and orth read: k <= (N + 3) r, at least 12r."""
    return _family(ns, max(12, ns.N + 3) * ns.r)


def _verdict(report: dict, *keys: str) -> tuple[dict, bool]:
    """The report, passing when all the named keys of it are true."""
    return report, all(report[key] for key in keys)


# ---------------------------------------------------------------------------
# runners that do more than call a library function: ns -> (report, ok)
# ---------------------------------------------------------------------------

def _gen(ns) -> tuple[dict, bool]:
    kmax = _check_kmax(ns.r, ns.kmax)
    members = functools.partial(stream, ns.r, ns.m, ns.j0, kmax)
    members()  # checks the arguments; the report is iterated only as it is written

    def member_json(pair) -> dict:  # --print shows P_k as the report writes it
        (k, p), strings = pair
        if ns.print_members and p:
            print(f"P_{k} = {p!r}", file=sys.stderr)
        return {"k": k, "coeffs": strings}
    report = {"r": ns.r, "m": ns.m, "j0": ns.j0,
              "polys": LazyJSON(split_strings(members, itemgetter(1)), member_json,
                                kmax + 2 * ns.r + 1)}
    return report, True


def _indicial(ns) -> tuple[dict, bool]:
    report = indicial(ns.type, ns.r, ns.m, ns.n)
    report["findings"] = [] if report["matches_printed_factorization"] else [{
        "kind": "printed-factorization-mismatch",
        "detail": ("the printed type-2 factorization matches the operator only "
                   "for r = 2; roots shown come from the operator-certified factors"),
    }]
    return report, True  # the discrepancy is a documented finding, not a failure


def _kernel(ns) -> tuple[dict, bool]:
    op = build_operator(ns.type, ns.r, ns.m, ns.n)
    bound = ns.bound if ns.bound is not None else max(
        indicial(ns.type, ns.r, ns.m, ns.n)["admissible_degrees"], default=0) + 2
    basis = polynomial_kernel(op, bound, ns.parity)
    report = {
        "family_type": ns.type, "r": ns.r, "m": ns.m, "n": ns.n,
        "degree_bound": bound, "parity": ns.parity,
        "dimension": len(basis),
        "basis": [p.to_strings() for p in basis],
    }
    return report, True


def _gegenbauer(ns) -> tuple[dict, bool]:
    qs = gegenbauer(ns.m, ns.nmax)  # every Q_n certified before any output
    report = {
        "m": ns.m, "lambda": f"{ns.m + 1}/{ns.m}",  # 1 + 1/m in lowest terms
        "polys": LazyJSON(split_strings(qs.__iter__), itemgetter(1), len(qs)),
        "ode_certified": True,  # gegenbauer() raises if any member fails its equation
    }
    return report, True


def _series(ns) -> tuple[dict, bool]:
    window = ns.K - 2 * ns.r
    # a negative window is first_order_residual's "K must be at least 2r"
    fam = _family(ns, max(window, 0))
    resid = first_order_residual(fam, ns.K)
    bad = [k for k in range(window + 1) if resid[k]]
    report = {
        "r": ns.r, "m": ns.m, "j0": fam.j0, "K": ns.K,
        "zero_through": window if not bad else min(bad) - 1,
        "pass": not bad,
        "findings": [{"kind": "series-residual", "exponent": k} for k in bad[:8]],
    }
    return report, not bad


def _fit_ode(ns) -> tuple[dict, bool]:
    fam = _family(ns, ns.kmax)
    delta = ns.delta
    if delta is None:
        try:
            delta = align_index(fam, ns.type)
        except AlignmentError:
            delta = 0
    result = fit_ode(fam, coeff_degree_bounds=ns.bounds, delta=delta, holdout=ns.holdout)
    report = result.to_json()
    seed_type = {canonical_j0(t, ns.r): t for t in (1, 2)}.get(fam.j0)
    if seed_type is not None and ns.bounds == CLOSED_BOUNDS:
        target = operator_vector(seed_type, ns.r, ns.m)
        report["closed_operator_in_span"] = in_span(result.candidates, target)
    return report, bool(result.candidates)


# every flag's argparse type, domain, dest and help, declared once
FLAGS = {
    **dict.fromkeys(("--j0", "--holdout"), {"type": int}),
    # caps bound the size of one run; each sits above the deep-index targets
    # (k ~ 2000, N ~ 80) and every value the tests and benchmark use
    **dict.fromkeys(("--r", "--m", "--n", "--n-positive", "--closed-form-n",
                     "--kmax", "--K", "--bound"), {"type": capped(INDEX_CAP)}),
    # streamed, so this bounds size and time at 600: 52 MB, ~2.5 s (m 3); 212 MB, 21 s (m 2500)
    "--nmax": {"type": capped(600)},
    "--N": {"type": capped(100)},
    "--members": {"type": capped(100)},
    "--type": {"type": int, "choices": (1, 2)},
    "--parity": {"choices": ("even", "odd", "both")},
    "--r-range": {"type": parse_span},
    "--m-range": {"type": parse_span},
    "--points": {"type": parse_points, "help": '"paper" (n = 5r..9r), "all", or "a..b"'},
    "--print": {"dest": "print_members", "action": "store_true",
                "help": "also pretty-print nonzero members to stderr"},
    "--corrected": {"action": "store_true",
                    "help": "apply the erratum terms to the type-1 reduction"},
    "--bounds": {"type": parse_bounds,
                 "help": "c-degree bound per derivative order, comma separated"},
    "--delta": {"type": capped(INDEX_CAP),
                "help": "index map n = k + delta (default: aligned, else 0)"},
}

REQUIRED = object()  # a COMMANDS flag default: the flag must be given

# (name, help, {flag: default or REQUIRED}, runner ns -> (report, ok))
COMMANDS = [
    ("gen", "generate a family and dump it as JSON",
     {"--r": REQUIRED, "--m": REQUIRED, "--j0": REQUIRED, "--kmax": None, "--print": False},
     _gen),
    *((name, "verify the fourth-order operator annihilates the family "
             f"(default points: {points})",
       {"--type": REQUIRED, "--r-range": "2..8", "--m-range": "2..10", "--points": points},
       lambda ns: (rep := residual_scan(ns.type, ns.r_range, ns.m_range, ns.points),
                   rep["summary"]["pass"]))
      for name, points in (("verify-ode", "paper"), ("scan", "all"))),
    ("indicial", "indicial roots, admissible degrees, resonance",
     {"--type": REQUIRED, "--r": REQUIRED, "--m": REQUIRED, "--n": REQUIRED},
     _indicial),
    ("kernel", "exact polynomial kernel of the operator",
     {"--type": REQUIRED, "--r": REQUIRED, "--m": REQUIRED, "--n": REQUIRED,
      "--bound": None, "--parity": "both"},
     _kernel),
    ("classify", "classify all 2r initial conditions",
     {"--r": REQUIRED, "--m": REQUIRED, "--members": 10},
     lambda ns: (rep := classification_report(ns.r, ns.m, members=ns.members),
                 not any(e.get("findings") for e in rep["entries"]))),
    ("superpose", "type-B superposition fit + certification",
     {"--r": REQUIRED, "--m": REQUIRED, "--j0": REQUIRED, "--members": 10},
     lambda ns: (rep := superposition_fit(ns.r, ns.m, ns.j0, members=ns.members),
                 not rep["findings"])),
    ("gegenbauer", "ultraspherical basis certified against its equation",
     {"--m": REQUIRED, "--nmax": 12},
     _gegenbauer),
    ("reduce", "Gegenbauer reduction of the j0=-1 / j0=-r-1 families",
     {"--r": REQUIRED, "--m": REQUIRED, "--j0": REQUIRED, "--kmax": None},
     lambda ns: _verdict(verify_gegenbauer_reduction(ns.r, ns.m, ns.j0, ns.kmax),
                         "all_two_term")),
    ("favard", "three-term coefficients, positivity, monic data",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--N": 12},
     lambda ns: ((fd := favard(_favard_family(ns), ns.N)).to_json(), not fd.findings)),
    ("gram", "exact Gram-matrix orthogonality check",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--N": 12},
     lambda ns: _verdict(gram_check(favard(_favard_family(ns), ns.N), ns.N),
                         "pass")),
    ("identify", "associated-ultraspherical identification",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED},
     # no match is a recorded result, not a failure
     lambda ns: (identify_ultraspherical(_family(ns)), True)),
    ("orth", "full orthogonality report for one family",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--N": 12, "--n-positive": 200,
      "--closed-form-n": 0},
     lambda ns: _verdict(orthogonality_report(_favard_family(ns), N=ns.N,
                                              n_positive=ns.n_positive,
                                              closed_form_n=ns.closed_form_n),
                         "a_positive", "gram_pass")),
    ("series", "first-order generating-function ODE residual",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--K": 40},
     _series),
    ("pde", "per-exponent fourth-order PDE residuals",
     {"--type": REQUIRED, "--r": REQUIRED, "--m": REQUIRED, "--K": 24, "--corrected": False},
     lambda ns: _verdict(pde_residual(ns.type, ns.r, ns.m, ns.K, corrected=ns.corrected),
                         "pass")),
    ("fit-ode", "blind exact fit of annihilating operators",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--kmax": None,
      "--bounds": "0,1,2,3,4", "--delta": None, "--holdout": 4},
     _fit_ode),
]


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The superpoly parser; with `only`, just that subcommand is added.

    A process parses one command, and adding the flags of all sixteen
    subcommands costs several milliseconds, so `run` adds only the one named
    first on its command line.  The usage line still lists
    every command, so each message matches the full parser's.
    """
    ap = argparse.ArgumentParser(
        prog="superpoly",
        description="exact verification of superelliptic orthogonal polynomial claims")
    ap.add_argument("--version", action="version", version=__version__)
    names = [row[0] for row in COMMANDS]
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=None if only is None else "{" + ",".join(names) + "}")
    for name, help_text, flags, runner in COMMANDS:
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=runner)
        p.add_argument("--out", metavar="FILE", help="write the JSON report to FILE")
        for flag, default in flags.items():
            required = default is REQUIRED
            p.add_argument(flag, required=required, default=None if required else default,
                           **FLAGS[flag])
    return ap


WRITE_SIZE = 1 << 16  # characters gathered per write; a report is ASCII, so bytes


def _json_pieces(value, indent: str = ""):
    """Yield json.dumps(value, indent=2, sort_keys=True) in pieces.

    Dicts need str keys; lists, tuples and LazyJSON are arrays; str, int,
    bool and None are scalars; anything else raises TypeError.  A
    RationalStrings list needs no escaping, so its entries are joined in one
    pass.
    """
    if value is None:
        yield "null"
    elif value is True or value is False:
        yield "true" if value else "false"
    elif isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            yield "{}" if isinstance(value, dict) else "[]"
            return
        inner = indent + "  "
        if isinstance(value, RationalStrings):  # the joined entries are not copied again
            yield "[\n" + inner + '"'
            yield ('",\n' + inner + '"').join(value)
            yield '"\n' + indent + "]"
            return
        if isinstance(value, dict):  # sorted or quoting a non-str key raises TypeError
            brackets = "{}"
            items = [(encode_basestring_ascii(key) + ": ", value[key]) for key in sorted(value)]
        else:
            brackets, items = "[]", (("", item) for item in value)
        sep = brackets[0] + "\n" + inner
        for prefix, item in items:
            yield sep + prefix
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + brackets[1]
    else:
        raise TypeError(f"{type(value).__name__} is not part of a JSON report")


def _write_report(envelope: dict, fh) -> None:
    """Stream the report into fh, so the whole text never exists at once.

    The writer's pieces, most a few characters long, are gathered into
    writes of at most WRITE_SIZE (a longer piece is written alone): under
    PYTHONUNBUFFERED, stdout makes one system call per write.  The flush
    makes a failed write raise here.
    """
    pending, size = [], 0
    for piece in _json_pieces(envelope):
        if size + len(piece) > WRITE_SIZE and pending:
            fh.write("".join(pending))
            pending, size = [], 0
        pending.append(piece)
        size += len(piece)
    fh.write("".join(pending))
    fh.write("\n")
    fh.flush()


def _discard_stdout() -> None:
    """Point stdout's file descriptor at os.devnull after a failed write.

    What stdout still buffers is flushed at exit; into a full device or a
    closed pipe that flush fails again and prints "Exception ignored".
    Captured output has no descriptor and no such flush.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def run(argv) -> int:
    ap = build_parser(argv[0] if argv and any(argv[0] == row[0] for row in COMMANDS)
                      else None)
    ns = ap.parse_args(argv)
    # argv is parsed under the interpreter's digit limit (Python >= 3.10.7);
    # a report may hold longer integers, and the caps already bound its size
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    started = time.monotonic()
    try:
        report, ok = ns.fn(ns)
        envelope = {
            "command": ns.command,
            "argv": list(argv),
            "report": report,
            "status": "pass" if ok else "fail",
        }
        if ns.out:
            with open(ns.out, "w") as fh:
                _write_report(envelope, fh)
        else:
            _write_report(envelope, sys.stdout)
    except SuperpolyError as exc:  # bad input, or a streamed report's worker that died
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if not ns.out:
            _discard_stdout()
        print(f"error: cannot write the report to {ns.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started  # a streamed report is built as it is written
    print(f"{ns.command}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
