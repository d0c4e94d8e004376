"""Run one ``skverify`` command with a span around every public function.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py verify s4 --samples 8 --seed 7 --format json

The package is imported, then every public function and public method of the
layer modules is replaced by a wrapper that records a span (name, start, end,
parent) in memory.  ``cli.main`` runs with its report captured; the process
then prints one JSON object holding the report text, the exit code and the
per-name aggregates computed from the spans.

The ``field`` module is not wrapped: its operators run millions of times per
batch, so a wrapper there would dominate the run.  Field time is counted in
the self time of whichever layer called it, and the benchmark measures field
arithmetic directly in a microbenchmark instead.  Dunder methods (operators,
constructors) are not wrapped for the same reason.

Bookkeeping time spent inside the wrappers is subtracted from the clock the
spans use, so span durations, and hence self times, do not include it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
from time import perf_counter

LAYERS = ("cli", "sampling", "families", "freealg", "linalg", "graded",
          "heisenberg", "pointscheme", "veronese")


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.lost = 0.0          # wrapper bookkeeping, removed from the clock
        self.rref: list[tuple[int, int, int, int, int]] = []  # span, rows, rank, cols, bits

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        rref_stats = self.rref if name == "linalg.rref" else None

        def traced(*args, **kwargs):
            t0 = perf_counter()
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            if rref_stats is not None:
                rows = list(args[0])
                args = (rows,) + args[1:]
                shape = _matrix_shape(rows)
            t1 = perf_counter()
            self.lost += t1 - t0
            rec[1] = t1 - self.lost
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                rec[2] = t2 - self.lost
                stack.pop()
            if rref_stats is not None:
                rref_stats.append((idx, len(rows), len(result[0])) + shape)
            self.lost += perf_counter() - t2
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every layer module and rebind them
        wherever the package imported them by name."""
        mods = {name: importlib.import_module(f"skverify.{name}") for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapper
                    setattr(mod, attr, wrapper)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("skverify"):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))


def _matrix_shape(rows) -> tuple[int, int]:
    """Distinct columns and largest numerator/denominator bit length."""
    cols: set[int] = set()
    bits = 0
    for row in rows:
        cols.update(row)
        for v in row.values():
            for f in v.coeffs:
                if f:
                    bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    return len(cols), bits


def summarize(spans, rref_stats) -> dict:
    """Per-name aggregates of a span list.

    ``total_s`` counts each name's outermost activations only, so recursion
    is not counted twice.  ``self_s`` is a span's duration minus the
    durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    names: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[i]
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer = False
                break
            p = spans[p][3]
        if outer:
            agg["total_s"] += end - start
    computed = set()
    for idx, *_ in rref_stats:
        p = spans[idx][3]
        while p >= 0 and spans[p][0] != "graded.ideal_slice":
            p = spans[p][3]
        if p >= 0:
            computed.add(p)
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    return {
        "names": names,
        "root_s": roots,
        "ideal_slice_computed": len(computed),
        "rref": {
            "calls": len(rref_stats),
            "rows_in": sum(s[1] for s in rref_stats),
            "rank_out": sum(s[2] for s in rref_stats),
            "max_cols": max((s[3] for s in rref_stats), default=0),
            "max_coeff_bits": max((s[4] for s in rref_stats), default=0),
        },
    }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("skverify.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    json.dump({"exit": code, "report": out.getvalue(),
               "trace": summarize(tracer.spans, tracer.rref)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
