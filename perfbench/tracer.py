"""Per-layer spans for one tailkit CLI invocation, recorded from outside.

Run as a script, this executes one CLI invocation in its own process with
the public functions of each layer wrapped, and writes the recorded spans
as JSON when the invocation ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- verify --out r.csv

Each span is ``[name, parent, start, end, attrs]``: ``parent`` is the index
of the enclosing span (-1 at the top), times come from ``perf_counter`` and
``attrs`` holds counts taken at the layer boundary.  Nothing inside
``src/`` changes: the wrappers replace module attributes (and every
``from ... import`` binding of them) before the CLI runs.

``aggregate`` turns spans into flat per-layer figures: ``<layer>.calls``,
``<layer>.total_s``, ``<layer>.self_s`` (duration minus the time child
spans cover) and one entry per count.  A count whose name ends in
``_max`` keeps its maximum; every other count is summed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# lru-cached snap functions whose cache_info() gives numerics.snap.{hits,misses}
SNAP_FUNCTIONS = ("ln_snap", "log2_snap", "exp2_snap", "root_snap")


def _bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _operand_bits(*polys) -> int:
    return max(_bits(v) for p in polys
               for v in p.breakpoints + tuple(c for seg in p.coeffs for c in seg))


def _integrand_pieces(p, q, x, y_lo, y_hi) -> int:
    """Polynomial pieces of y -> p(x-y) q(y) on the clipped window.

    These are the cells an exact point evaluation has to integrate,
    whatever the kernel's algorithm.
    """
    x = Fraction(x)
    lo = max(Fraction(y_lo), q.breakpoints[0], x - p.breakpoints[-1])
    hi = min(Fraction(y_hi), q.breakpoints[-1], x - p.breakpoints[0])
    if hi <= lo:
        return 0
    cuts = {b for b in q.breakpoints if lo < b < hi}
    cuts.update(x - b for b in p.breakpoints if lo < x - b < hi)
    return len(cuts) + 1


def _conv_linear_before(p, q):
    return {"operand_bits_max": _operand_bits(p, q)}


def _conv_linear_after(result):
    return {"cells": len(result.coeffs),
            "out_bits_max": max(_bits(c) for seg in result.coeffs for c in seg)}


def _conv_window_before(p, q, x, y_lo, y_hi):
    return {"operand_bits_max": _operand_bits(p, q),
            "segments": _integrand_pieces(p, q, x, y_lo, y_hi)}


def _load_before(text):
    return {"bytes": len(text.encode())}


def _dump_after(text):
    return {"bytes": len(text.encode())}


# (module, attribute, attrs before the call, attrs from the result); the
# hooks that keep state across calls are made in install()
LAYERS = (
    ("tailkit.convolution", "conv_linear_exact",
     _conv_linear_before, _conv_linear_after),
    ("tailkit.convolution", "conv_window_value", _conv_window_before, None),
    ("tailkit.piecewise", "load_text", _load_before, None),
    ("tailkit.piecewise", "dump_text", None, _dump_after),
    ("tailkit.piecewise", "PiecewisePoly.normalize", None, None),
    ("tailkit.piecewise", "PiecewisePoly.eval", None, None),
    ("tailkit.piecewise", "PiecewisePoly.interval_mass", None, None),
    ("tailkit.piecewise", "PiecewisePoly.total_mass", None, None),
    ("tailkit.logperiodic", "normalizers", None, None),
    ("tailkit.logperiodic", "middle_mass_ratio", None, None),
    ("tailkit.logperiodic", "karamata_ratio", None, None),
    ("tailkit.logperiodic", "density_log", None, None),
    ("tailkit.numerics", "log_nat", None, None),
    ("tailkit.notched", "build_density", None, None),
    ("tailkit.mixture", "build_schedule", None, None),
    ("tailkit.probes", "render_csv", None, None),
    ("tailkit.acceptance", "run_all", None, None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after:
                attrs.update(after(result))
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer in ``LAYERS``; tailkit.cli must be imported first."""
    modules = [m for n, m in sys.modules.items()
               if n == "tailkit" or n.startswith("tailkit.")]
    seen_params: set = set()

    def normalizers_cold(p):
        # cold: the first call with these params in the process, i.e. the
        # calls that a per-process normalizer cache cannot answer
        cold = p not in seen_params
        seen_params.add(p)
        return {"cold": int(cold)}

    def check_times(results):
        tracer.counters.update(
            {f"acceptance.check.{r.name}.s": r.elapsed for r in results})
        return {}

    stateful = {"logperiodic.normalizers": (normalizers_cold, None),
                "acceptance.run_all": (None, check_times)}
    for modname, attr, before, after in LAYERS:
        mod = sys.modules[modname]
        name = modname.removeprefix("tailkit.") + "." + attr
        before, after = stateful.get(name, (before, after))
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            setattr(owner, meth, tracer.wrap(name, owner.__dict__[meth],
                                             before, after))
            continue
        original = getattr(mod, attr)
        wrapper = tracer.wrap(name, original, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def snap_counters() -> dict:
    """Hits and misses of the lru caches behind the snap functions."""
    from tailkit import numerics
    infos = [getattr(numerics, f).cache_info() for f in SNAP_FUNCTIONS]
    return {"numerics.snap.hits": sum(i.hits for i in infos),
            "numerics.snap.misses": sum(i.misses for i in infos)}


def aggregate(spans: list) -> dict:
    """Flat per-layer figures from one invocation's spans."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    flat: dict = {}
    for i, (name, _, start, end, attrs) in enumerate(spans):
        merge(flat, {f"{name}.calls": 1, f"{name}.total_s": end - start,
                     f"{name}.self_s": end - start - child[i]})
        merge(flat, {f"{name}.{k}": v for k, v in attrs.items()})
    return flat


def merge(into: dict, figures: dict) -> None:
    """Add ``figures`` into ``into``: max for ``*_max`` keys, sum otherwise."""
    for key, value in figures.items():
        if key.endswith("_max"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <tailkit CLI arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import tailkit.cli
    tracer.spans.append(["import", -1, t0, time.perf_counter(), {}])
    install(tracer)
    code = 1
    try:
        code = tracer.wrap("cli.main", tailkit.cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"exit": code, "spans": tracer.spans,
                       "counters": {**tracer.counters, **snap_counters()}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
