"""Batch driver: every verification as a subcommand with JSON reports.

Reports are streamed to stdout (or --out FILE) as JSON with sorted keys; a
one-line human summary goes to stderr.  Exit codes: 0 all checks pass,
1 verification finding, 2 usage error or a report that could not be written
whole (a failed write, or a dead strings worker).  Identical
inputs produce byte-identical reports (wall time is kept outside the report
object).  The parser is built from two tables: FLAGS declares each flag
once, COMMANDS each subcommand.

The package registers its layers lazily (see its __init__).  This module
imports only `errors` by name and reaches every other layer as a module
(`families.generate(...)`), so a command executes just the layers it calls,
and `--version` only `errors`; only a report with a string that needs an
escape imports json.  A layer's public name read on this module
(`cli.generate`) is served from the layer's current binding: the first of
the package's LAYERS that binds it, which is the one that defines it.

A process enters through `entry`, which runs `main` and then freezes the
garbage collector's heap (gc.freeze).  On its way out the interpreter runs
full collections that would each walk every object the import left, about
10 ms of a 110 ms `--version` process on a 2-vCPU x86_64 host.  Atexit
handlers, the stdout flush and the strings worker's reap run as before.
`main` and `run` leave the collector alone, so an in-process caller keeps
its own.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from collections.abc import Iterator
from operator import itemgetter

from . import LAYERS, __version__, classify, families, fitting, ode, orth, poly, series
from .errors import ParameterError, SuperpolyError


def __getattr__(name):  # PEP 562: cli.generate is families.generate, wrapped or not
    if not name.startswith("_"):  # a layer comes before the layers that import from it
        for layer in LAYERS:
            module = sys.modules[f"{__package__}.{layer}"]
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    j0 = families.canonical_j0(ns.type, ns.r) if j0 is None else j0
    return families.generate(ns.r, ns.m, j0, kmax)


def _favard_family(ns):
    """The family favard, gram and orth read: k <= (N + 3) r, at least 12r."""
    return _family(ns, max(12, ns.N + 3) * ns.r)


def _members(ns) -> int:
    """--members, checked before classify or superpose generates any seed.

    Each seed is generated to classify.superposition_depth, and nothing else
    bounds it; above INDEX_CAP it is refused like any capped flag.  The
    classify layer refuses fewer than one member.
    """
    deepest = classify.superposition_depth(ns.r, ns.members)
    if deepest > INDEX_CAP:
        raise ParameterError(f"--members {ns.members} at --r {ns.r} generates each seed to "
                             f"k = (members + 6) r = {deepest}, above the cap {INDEX_CAP}")
    return ns.members


GRID_CAP = 2500  # most (r, m) cells a verify-ode or scan grid may hold
FIT_KMAX_PER_R = 300  # fit-ode's --kmax is at most this times --r


def _verdict(report: dict, *keys: str) -> tuple[dict, bool]:
    """The report, passing when all the named keys of it are true."""
    return report, all(report[key] for key in keys)


# ---------------------------------------------------------------------------
# runners that do more than call a library function: ns -> (report, ok)
# ---------------------------------------------------------------------------

def _gen(ns) -> tuple[dict, bool]:
    # stream checks the arguments; the members are generated as the report is written
    members = families.stream(ns.r, ns.m, ns.j0, ns.kmax)

    def member_json(pair) -> dict:  # --print shows P_k from the strings the report writes
        (k, _), strings = pair
        if ns.print_members and strings:
            print(f"P_{k} = {poly.shown(strings)}", file=sys.stderr)
        return {"k": k, "coeffs": strings}
    report = {"r": ns.r, "m": ns.m, "j0": ns.j0,
              "polys": map(member_json, poly.split_strings(members, itemgetter(1)))}
    return report, True


def _scan(ns) -> tuple[dict, bool]:
    # every cell's report is held until the grid's is written, so the grid
    # is refused before any cell is checked
    cells = len(ns.r_range) * len(ns.m_range)
    if cells > GRID_CAP:
        raise ParameterError(f"--r-range {len(ns.r_range)} x --m-range {len(ns.m_range)} "
                             f"is {cells} (r, m) cells, above the cap {GRID_CAP}")
    report = ode.residual_scan(ns.type, ns.r_range, ns.m_range, ns.points)
    return report, report["summary"]["pass"]


def _indicial(ns) -> tuple[dict, bool]:
    report = ode.indicial(ns.type, ns.r, ns.m, ns.n)
    report["findings"] = [] if report["matches_printed_factorization"] else [{
        "kind": "printed-factorization-mismatch",
        "detail": ("the printed type-2 factorization matches the operator only "
                   "for r = 2; roots shown come from the operator-certified factors"),
    }]
    return report, True  # the discrepancy is a documented finding, not a failure


def _kernel(ns) -> tuple[dict, bool]:
    op = ode.build_operator(ns.type, ns.r, ns.m, ns.n)
    bound = ns.bound if ns.bound is not None else max(
        ode.indicial(ns.type, ns.r, ns.m, ns.n)["admissible_degrees"], default=0) + 2
    basis = ode.polynomial_kernel(op, bound, ns.parity)
    report = {
        "family_type": ns.type, "r": ns.r, "m": ns.m, "n": ns.n,
        "degree_bound": bound, "parity": ns.parity,
        "dimension": len(basis),
        "basis": [p.to_strings() for p in basis],
    }
    return report, True


def _gegenbauer(ns) -> tuple[dict, bool]:
    qs = classify.gegenbauer(ns.m, ns.nmax)  # every Q_n certified before any output
    report = {
        "m": ns.m, "lambda": f"{ns.m + 1}/{ns.m}",  # 1 + 1/m in lowest terms
        "polys": map(itemgetter(1), poly.split_strings(qs)),
        "ode_certified": True,  # gegenbauer() raises if any member fails its equation
    }
    return report, True


def _series(ns) -> tuple[dict, bool]:
    window = ns.K - 2 * ns.r
    fam = _family(ns, 0)  # first_order_residual walks it on to k = window
    resid = series.first_order_residual(fam, ns.K)
    bad = [k for k in range(window + 1) if resid[k]]
    report = {
        "r": ns.r, "m": ns.m, "j0": fam.j0, "K": ns.K,
        "zero_through": window if not bad else min(bad) - 1,
        "pass": not bad,
        "findings": [{"kind": "series-residual", "exponent": k} for k in bad[:8]],
    }
    return report, not bad


def _fit_ode(ns) -> tuple[dict, bool]:
    # the fit holds every member's rows at once: at r = 2, --kmax 600 peaks
    # near 155 MB, and time and memory grow about as kmax^2
    if ns.kmax is not None and ns.kmax > FIT_KMAX_PER_R * ns.r:
        raise ParameterError(f"--kmax {ns.kmax} at --r {ns.r} is above the fit's cap "
                             f"{FIT_KMAX_PER_R} r = {FIT_KMAX_PER_R * ns.r}")
    bounds = fitting.CLOSED_BOUNDS if ns.bounds is None else ns.bounds
    fam = _family(ns, ns.kmax)
    seed_type = {families.canonical_j0(t, ns.r): t for t in (1, 2)}.get(fam.j0)
    delta = ns.delta
    if delta is None:  # a canonical seed aligns with its own type, any other with --type
        delta = ode.align_index(fam, seed_type or ns.type) or 0  # no shift aligns: delta 0
    result = fitting.fit_ode(fam, coeff_degree_bounds=bounds, delta=delta, holdout=ns.holdout)
    report = result.to_json()
    if seed_type is not None and bounds == fitting.CLOSED_BOUNDS:
        target = fitting.operator_vector(seed_type, ns.r, ns.m)
        report["closed_operator_in_span"] = fitting.in_span(result.candidates, target)
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
                 "help": "c-degree bound per derivative order, comma separated "
                         "(default: the closed operator's)"},
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
       _scan)
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
     lambda ns: (rep := classify.classification_report(ns.r, ns.m, members=_members(ns)),
                 not any(e.get("findings") for e in rep["entries"]))),
    ("superpose", "type-B superposition fit + certification",
     {"--r": REQUIRED, "--m": REQUIRED, "--j0": REQUIRED, "--members": 10},
     lambda ns: (rep := classify.superposition_fit(ns.r, ns.m, ns.j0, members=_members(ns)),
                 not rep["findings"])),
    ("gegenbauer", "ultraspherical basis certified against its equation",
     {"--m": REQUIRED, "--nmax": 12},
     _gegenbauer),
    ("reduce", "Gegenbauer reduction of the j0=-1 / j0=-r-1 families",
     {"--r": REQUIRED, "--m": REQUIRED, "--j0": REQUIRED, "--kmax": None},
     lambda ns: _verdict(classify.verify_gegenbauer_reduction(ns.r, ns.m, ns.j0, ns.kmax),
                         "all_two_term")),
    ("favard", "three-term coefficients, positivity, monic data",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--N": 12},
     lambda ns: ((fd := orth.favard(_favard_family(ns), ns.N)).to_json(), not fd.findings)),
    ("gram", "exact Gram-matrix orthogonality check",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--N": 12},
     lambda ns: _verdict(orth.gram_check(orth.favard(_favard_family(ns), ns.N), ns.N),
                         "pass")),
    ("identify", "associated-ultraspherical identification",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED},
     # no match is a recorded result, not a failure
     lambda ns: (orth.identify_ultraspherical(_family(ns)), True)),
    ("orth", "full orthogonality report for one family",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--N": 12, "--n-positive": 200,
      "--closed-form-n": 0},
     lambda ns: _verdict(orth.orthogonality_report(_favard_family(ns), N=ns.N,
                                                   n_positive=ns.n_positive,
                                                   closed_form_n=ns.closed_form_n),
                         "a_positive", "gram_pass")),
    ("series", "first-order generating-function ODE residual",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--K": 40},
     _series),
    ("pde", "per-exponent fourth-order PDE residuals",
     {"--type": REQUIRED, "--r": REQUIRED, "--m": REQUIRED, "--K": 24, "--corrected": False},
     lambda ns: _verdict(series.pde_residual(ns.type, ns.r, ns.m, ns.K, corrected=ns.corrected),
                         "pass")),
    ("fit-ode", "blind exact fit of annihilating operators",
     {"--type": 1, "--r": REQUIRED, "--m": REQUIRED, "--j0": None, "--kmax": None,
      "--bounds": None, "--delta": None, "--holdout": 4},
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


def _quoted(text: str) -> str:
    """json.dumps(text); a string that needs no escape is quoted here, so
    only a report with one that does (a non-ASCII argv) imports json.

    Like json's encoder, it raises TypeError on anything but a str (a dict key).
    """
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    import json
    return json.dumps(text)


def _json_pieces(value, indent: str = ""):
    """Yield json.dumps(value, indent=2, sort_keys=True) in pieces.

    Dicts need str keys; lists, tuples and iterators are arrays, an
    iterator's items read as it is written; str, int, bool and None are
    scalars; anything else raises TypeError.  A RationalStrings list needs
    no escaping, so its entries are joined in one pass.
    """
    if value is None:
        yield "null"
    elif value is True or value is False:
        yield "true" if value else "false"
    elif isinstance(value, str):
        yield _quoted(value)
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, poly.RationalStrings):
        if value:  # the joined entries are not copied again
            inner = indent + "  "
            yield "[\n" + inner + '"'
            yield ('",\n' + inner + '"').join(value)
            yield '"\n' + indent + "]"
        else:
            yield "[]"
    elif isinstance(value, (list, tuple, dict, Iterator)):
        inner = indent + "  "
        if isinstance(value, dict):  # sorted or quoting a non-str key raises TypeError
            brackets = "{}"
            items = [(_quoted(key) + ": ", value[key]) for key in sorted(value)]
        else:
            brackets, items = "[]", (("", item) for item in value)
        sep = brackets[0] + "\n" + inner
        for prefix, item in items:
            yield sep + prefix
            yield from _json_pieces(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + brackets[1] if sep[0] == "," else brackets  # [] or {} when empty
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
    # a report may hold longer integers, and the caps already bound its size;
    # the caller's limit is restored on every way out
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
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
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    elapsed = time.monotonic() - started  # a streamed report is built as it is written
    print(f"{ns.command}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def entry() -> None:
    """Run main on the command line and exit with its code, heap frozen.

    The freeze is in a finally, so argparse's --version, --help and usage
    exits, which raise SystemExit inside main, skip the exit collections too.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
