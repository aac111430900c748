"""Run one superpoly CLI command with a span recorded at every layer boundary.

    python3 perfbench/traced.py SPANS_FILE RUN_ID <superpoly arguments...>

The report goes to stdout byte for byte as `python -m superpoly.cli` writes
it.  The spans are kept in memory and written to SPANS_FILE as one JSON
object when the command ends:

    {"run": RUN_ID, "overhead_s": seconds,
     "spans": [[name, start, end, excluded, parent, size], ...]}

`parent` is the index of the enclosing span (-1 for the root), `excluded` is
the wrapper and sizing time that fell inside [start, end], and `size` holds
the counters taken from the call's arguments and return value.  Sizes are
computed outside every timed interval, so they never inflate a self time.
`overhead_s` is the tracer's own time: installing the wrappers, the wrapper
and sizing time of every span, and encoding the spans.

Each public function of a layer module is wrapped once, and the wrapper is
installed in every `superpoly` namespace that binds the original object, so a
call through a `from ... import` binding is recorded like a call through the
defining module.  `Family.extend`, `OdeOperator.apply` and the `to_json`
methods are patched on their classes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("families", "ode", "linalg", "fitting", "orth", "series", "classify")


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _matrix_size(rows, extra=()) -> dict | None:
    if not isinstance(rows, (list, tuple)):
        return None  # never consume an iterator the callee still needs
    entries = [x for row in rows for x in row]
    entries.extend(extra)
    return {"rows": len(rows), "cols": max((len(row) for row in rows), default=0),
            "entry_bits": max((_bits(x) for x in entries), default=0)}


def _size_nullspace(args, kwargs, result, state):
    size = _matrix_size(args[0] if args else kwargs.get("rows"))
    if size is not None:
        size["kernel_dim"] = len(result)
    return size


def _size_solve(args, kwargs, result, state):
    rhs = args[1] if len(args) > 1 else kwargs.get("rhs", ())
    return _matrix_size(args[0] if args else kwargs.get("rows"), list(rhs))


def _size_matrix(args, kwargs, result, state):
    return _matrix_size(args[0] if args else kwargs.get("rows"))


def _extend_before(fam, *args, **kwargs):
    return fam.kmax


def _size_extend(args, kwargs, result, old_kmax):
    fam = args[0]
    new = [fam.polys[k] for k in range(max(old_kmax + 1, 0), fam.kmax + 1)]
    coeffs = [x for p in new for x in p.coeffs]
    return {"members": sum(1 for p in new if p),
            "num_bits": max((x.numerator.bit_length() for x in coeffs), default=0),
            "den_bits": max((x.denominator.bit_length() for x in coeffs), default=0)}


def _size_fit(args, kwargs, result, state):
    return {"unknowns": result.unknowns}


def _size_favard(args, kwargs, result, state):
    return {"moment_bits": max((_bits(x) for x in result.moments), default=0)}


def _size_first_order(args, kwargs, result, state):
    K = args[1] if len(args) > 1 else kwargs["K"]
    return {"exponents": K + 1}


# span name -> (before hook or None, sizer)
SIZERS = {
    "linalg.nullspace": (None, _size_nullspace),
    "linalg.solve_exact": (None, _size_solve),
    "linalg.rank": (None, _size_matrix),
    "linalg.matvec": (None, _size_matrix),
    "families.extend": (_extend_before, _size_extend),
    "fitting.fit_ode": (None, _size_fit),
    "orth.favard": (None, _size_favard),
    "series.first_order_residual": (None, _size_first_order),
}


class Recorder:
    """In-memory span list; `excluded` accumulates wrapper and sizing time."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.excluded = 0.0

    def wrap(self, name, fn):
        before, sizer = SIZERS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            state = before(*args, **kwargs) if before else None
            start = clock()
            self.excluded += start - t0
            excluded_at_start = self.excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
                span[3] = self.excluded - excluded_at_start
            if sizer:
                span[5] = sizer(args, kwargs, result, state)
            self.excluded += clock() - end
            return result

        return traced


def install(rec: Recorder):
    """Wrap every layer's public functions in all namespaces that bind them."""
    import superpoly.cli as cli

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "superpoly" or name.startswith("superpoly.")]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"superpoly.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                wrapped[obj] = rec.wrap(f"{layer}.{attr}", obj)
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                    and "to_json" in vars(cls):
                cls.to_json = rec.wrap("cli.serialize", vars(cls)["to_json"])
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    family_cls = sys.modules["superpoly.families"].Family
    family_cls.extend = rec.wrap("families.extend", family_cls.extend)
    operator_cls = sys.modules["superpoly.ode"].OdeOperator
    operator_cls.apply = rec.wrap("ode.apply", operator_cls.apply)

    # cli calls json.dumps through its own module binding of json
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.dumps = rec.wrap("cli.serialize", json.dumps)
    cli.json = proxy
    cli.run = rec.wrap("cli.run", cli.run)
    return cli


def main(argv) -> int:
    path, run_id, cli_argv = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    rec = Recorder()
    cli = install(rec)
    rec.excluded += time.perf_counter() - start
    try:
        code = cli.main(cli_argv)
    finally:
        start = time.perf_counter()
        spans = json.dumps(rec.spans)
        overhead = rec.excluded + time.perf_counter() - start
        with open(path, "w") as out:
            out.write(f'{{"run": {json.dumps(run_id)}, "overhead_s": {overhead!r}, '
                      f'"spans": {spans}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
