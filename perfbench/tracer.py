"""Run one `hecke` command with the public functions of src/hecke traced.

Usage: python3 perfbench/tracer.py <hecke arguments...>

Every public function of the modules gf, shapes, hecke_index, rsk, decomp,
oracle, guards and cli is wrapped, and every module that imported one by
name (e.g. `rsk.factorize`, `decomp.enumerate_n`) is rebound to the wrapper.
So are the methods that carry a layer's work: `Field.__init__`
(gf.field_build), `AlgebraElement.__mul__` (oracle.algebra_mul) and
`Cyclotomic.__mul__` (oracle.cyclotomic_mul).  A wrapper opens a span
around the call; a span's self time is its duration minus that of its child
spans.  Each span is folded into per-function totals (calls, inclusive and
self seconds) as it closes; the totals and the counters stay in memory and
are written, as JSON, to the file named by PERFBENCH_TRACE_OUT when the
command ends.  PERFBENCH_SPAWN
holds the parent's time.monotonic() at spawn, which gives cli.startup.s.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

LAYERS = ("gf", "shapes", "hecke_index", "rsk", "decomp", "oracle", "guards", "cli")

# Leaf helpers called up to millions of times per command.  A span around each
# call would cost more than the call and shift time between layers, so they
# are only counted and their time stays in the caller's self time.
COUNT_ONLY = {
    "gf.poly_divrem",
    "gf.poly_trim",
    "gf.poly_deg",
    "gf.is_monic",
    "gf.poly_key",
    "shapes.cst_check",
    "shapes.conjugate",
    "shapes.boundary_set",
    "shapes.is_partition",
    "shapes.is_composition",
    "shapes.contains",
    "oracle.mat_mul",
    "oracle.cyclotomic_mul",
    "oracle.is_unipotent_upper",
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list = []  # open frames: [name, start, child seconds]
        self.active: dict = {}  # name -> open frames of that name (recursion)
        self.stats: dict = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counts: dict = {}  # name -> number
        self.keys: dict = {}  # name -> set of distinct argument keys

    def add(self, name: str, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, name: str) -> bool:
        return self.active.get(name, 0) > 0

    def enter(self, name: str) -> list:
        self.active[name] = self.active.get(name, 0) + 1
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list, call: bool = True):
        end = self.clock()
        name, start, child = frame
        self.stack.pop()
        self.active[name] -= 1
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += call
        if not self.active[name]:  # recursion: count the outermost span only
            stat[1] += duration
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def span(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if hook:
                hook(tracer, name, args, result)
            if isinstance(result, types.GeneratorType):
                return tracer.stream(name, result)
            return result

        return wrapper

    def stream(self, name: str, gen):
        """Time each resumption of a generator result as busy time of `name`."""
        count = 0
        try:
            while True:
                frame = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(frame, call=False)
                count += 1
                yield item
        finally:
            self.add(name + ".elements", count)

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name + ".calls", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


# -- counters recorded at span boundaries ------------------------------------------


def _elements(label="elements"):
    def hook(tracer, name, args, result):
        if isinstance(result, (list, tuple)):
            tracer.add(f"{name}.{label}", len(result))

    return hook


def _truthy(label):
    def hook(tracer, name, args, result):
        tracer.add(f"{name}.{label}", int(bool(result)))

    return hook


def _distinct_args(tracer, name, args, result):
    tracer.keys.setdefault(name, set()).add(args)


def _term_pairs(tracer, name, args, result):
    tracer.add(f"{name}.term_pairs", len(args[0]) * len(args[1]))


def _phi_shapes(tracer, name, args, result):
    if tracer.inside("decomp.h_hat"):
        tracer.add("decomp.h_hat.attempted", len(result))


def _group_products(tracer, name, args, result):
    a, b = args
    if hasattr(b, "terms"):
        tracer.add(f"{name}.group_products", len(a.terms) * len(b.terms))


def _table_entries(tracer, name, args, result):
    tracer.add(f"{name}.table_entries", args[0].q ** 2)


HOOKS = {
    "hecke_index.enumerate_m_mu": _elements(),
    "hecke_index.enumerate_n": _elements(),
    "hecke_index.enumerate_n_mu": _elements(),
    "hecke_index.is_in_n_mu_fast": _truthy("accepted"),
    "rsk.enumerate_pairs": _elements(),
    "rsk.enumerate_phi_shapes": _phi_shapes,
    "shapes.enumerate_cst": _elements("tableaux"),
    "decomp.schur_jacobi_trudi": _distinct_args,
    "decomp.mp_mul": _term_pairs,
    "decomp.h_hat": _elements("useful"),
    "oracle.t_v": _truthy("nonzero"),
    "oracle.enumerate_gl": _elements(),
    "oracle.algebra_mul": _group_products,
    "gf.field_build": _table_entries,
}


def install(tracer: Tracer) -> dict:
    """Wrap every public function and the layer methods; rebind every
    module-level name bound to an original.  Returns the hecke modules."""
    modules = {name: importlib.import_module(f"hecke.{name}") for name in LAYERS}
    package = importlib.import_module("hecke")
    wrappers = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                wrappers[id(obj)] = tracer.counter(name, obj)
            else:
                wrappers[id(obj)] = tracer.span(name, obj, HOOKS.get(name))
    for module in list(modules.values()) + [package]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and not isinstance(obj, type):
                setattr(module, attr, wrappers[id(obj)])

    gf, oracle = modules["gf"], modules["oracle"]
    gf.Field.__init__ = tracer.span("gf.field_build", gf.Field.__init__, HOOKS["gf.field_build"])
    oracle.AlgebraElement.__mul__ = tracer.span(
        "oracle.algebra_mul", oracle.AlgebraElement.__mul__, HOOKS["oracle.algebra_mul"]
    )
    cyc_mul = tracer.counter("oracle.cyclotomic_mul", oracle.Cyclotomic.__mul__)
    oracle.Cyclotomic.__mul__ = oracle.Cyclotomic.__rmul__ = cyc_mul
    return modules


def main(argv) -> int:
    tracer = Tracer()
    modules = install(tracer)
    startup = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    code = 1
    try:
        code = modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        data = tracer.dump()
        data["startup_s"] = startup
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as handle:
            json.dump(data, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
