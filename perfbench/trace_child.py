"""Run one kfractal CLI command with per-module spans and counters.

Usage: python3 -m perfbench.trace_child TRACE_JSON CLI_ARG...

The wrappers are installed from outside the package: every public function
of the traced modules is replaced, in every kfractal module that holds it,
by a wrapper that records a span named ``<module>.<function>``.  That covers
both the cross-module names callers use (``kfractal.cli.compute_attractor``,
``kfractal.duality.compose``) and calls inside the defining module.  Hot
helpers in ``COUNT_ONLY`` are counted but not timed, so their time stays in
the caller's self time; timing millions of tiny calls would inflate it.

The trace JSON holds, per span name, the calls, inclusive time (outermost
calls only) and self time (inclusive minus child spans), the counters, the
time spent in the counter hooks, and the wall-clock times at which
``cli.main`` was entered and at which the record was written.  The command's exit code is the process's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

MODULES = ("cli", "kgraph", "systems", "attractor", "_kernels", "coding",
           "diagonal", "duality", "io", "boxcount")

# Called up to millions of times per command (composition and factorization
# in the twisted-product checks, path counting in prefix sampling, ...).
COUNT_ONLY = frozenset({
    "kgraph.compose", "kgraph.degree_add", "kgraph.degree_sub",
    "kgraph.degree_leq", "kgraph.degree_total", "kgraph.count_paths",
    "kgraph.path_from_word", "kgraph.vertex_path",
    "kgraph.segment", "kgraph.word_to_path", "kgraph.path_to_word",
    "kgraph.diagonal_edge_id", "systems.extend_map", "systems.lipschitz_bound",
    "systems.exact_after", "systems.exact_path_map", "coding.code_point",
    "duality.map_along", "duality.matrix_along",
    "duality.degrees_upto", "duality.degrees_of_total",
})

# Class methods that other modules call; their work belongs to the class's module.
METHODS = (("attractor", "SetTuple", "from_points"), ("attractor", "SetTuple", "from_fibers"))


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.spans: dict[str, list] = {}    # name -> [calls, inclusive_s, self_s, depth]
        self.counts: Counter = Counter()
        self.hook_s = 0.0

    def _hook(self, hook, args, kwargs, out):
        t = time.perf_counter()
        hook(self, args, kwargs, out)
        dt = time.perf_counter() - t
        self.hook_s += dt
        if self.stack:
            self.stack[-1][0] += dt

    def span(self, name, fn, hook=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                rec[3] -= 1
                if stack:
                    stack[-1][0] += dur
                rec[0] += 1
                rec[2] += dur - frame[0]
                if rec[3] == 0:
                    rec[1] += dur
            if hook is not None:
                self._hook(hook, args, kwargs, out)
            return out

        return wrapper

    def counted(self, name, fn, hook=None):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            out = fn(*args, **kwargs)
            if hook is not None:
                self._hook(hook, args, kwargs, out)
            return out

        return wrapper

    def record(self) -> dict:
        return {
            "spans": {n: {"calls": r[0], "s": r[1], "self_s": r[2]}
                      for n, r in sorted(self.spans.items()) if r[0]},
            "counts": dict(sorted(self.counts.items())),
            "hook_s": self.hook_s,
        }


# ---------------------------------------------------------------------------
# counters computed from arguments and results (run outside the timed region)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _pairs(args):
    return len(args[0]) * len(args[1])


def _directed_distance(tr, args, kwargs, out):
    pairs = _pairs(args)
    tr.counts["attractor.directed_distance.pairs"] += pairs
    if not pairs:
        tr.counts["attractor.directed_distance.empty"] += 1


def _kernel(tr, args, kwargs, out):
    tr.counts["_kernels.directed_max_min.pairs"] += _pairs(args)


def _compute_attractor(tr, args, kwargs, out):
    tr.counts["attractor.iterations"] += out[1].iterations


def _hutchinson_step(tr, args, kwargs, out):
    sys_, n, sets = args[0], args[1], _arg(args, kwargs, 2, "C")
    if all(c == 0 for c in n):
        return
    maps = kwargs.get("_maps", args[3] if len(args) > 3 else None)
    if maps is None:
        maps = inspect.unwrap(sys.modules["kfractal.systems"].degree_maps)(sys_, n)
    tr.counts["attractor.hutchinson_step.points_in"] += sum(
        len(sets.clouds[src]) for rows in maps.values() for _, src in rows)
    tr.counts["attractor.hutchinson_step.points_out"] += sum(
        len(c) for c in out.clouds.values())


def _grid_points(tr, args, kwargs, out):
    tr.counts["systems.grid_points.points"] += len(out)


def _written(tr, args, kwargs, out):
    path = _arg(args, kwargs, len(args) - 1, "path")
    tr.counts["io.bytes_written"] += os.path.getsize(path)


def _sample_prefixes(tr, args, kwargs, out):
    tr.counts["coding.sample_prefixes.prefixes"] += len(out)


def _enumerate_paths(tr, args, kwargs, out):
    tr.counts["kgraph.enumerate_paths.paths"] += len(out)


def _transformation_graph(tr, args, kwargs, out):
    tr.counts["duality.morphisms"] += sum(len(v) for v in out.morphisms.values())


def _sweep(tr, args, kwargs, out):
    tr.counts["duality.sweep.assignments"] += out.instances
    tr.counts["duality.sweep.consistent"] += out.consistent


HOOKS = {
    "attractor.directed_distance": _directed_distance,
    "_kernels.directed_max_min": _kernel,
    "attractor.compute_attractor": _compute_attractor,
    "attractor.hutchinson_step": _hutchinson_step,
    "systems.grid_points": _grid_points,
    "io.write_clouds_csv": _written,
    "io.write_certificate": _written,
    "io.write_pgm": _written,
    "io.write_diff_pgm": _written,
    "coding.sample_prefixes": _sample_prefixes,
    "kgraph.enumerate_paths": _enumerate_paths,
    "duality.build_transformation_graph": _transformation_graph,
    "duality.density_fidelity_sweep": _sweep,
}


def install(tracer: Tracer):
    """Wrap the public functions of MODULES wherever kfractal refers to them."""
    import kfractal.cli  # noqa: F401  (imports every traced module)

    mods = {short: importlib.import_module(f"kfractal.{short}") for short in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            full = f"{short}.{name}"
            make = tracer.counted if full in COUNT_ONLY else tracer.span
            wrapped[id(fn)] = (fn, make(full, fn, HOOKS.get(full)))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "kfractal" or mod_name.startswith("kfractal.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[meth]
        setattr(cls, meth, classmethod(
            tracer.span(f"{short}.{cls_name}.{meth}", raw.__func__)))
    return mods


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    mods = install(tracer)
    entered = time.time()
    rc = 1
    try:
        rc = mods["cli"].main(cli_args)
    finally:
        record = tracer.record()
        record.update(entered=entered, finished=time.time(), exit_code=rc)
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
