"""Per-layer metrics from the traced pass of a workload.

Each operation's trace (see trace_child.py) holds span totals and counters;
this module sums them over the workload's operations and names the result
after the module that did the work.  Metric names may not start with an
underscore, so the ``_kernels`` module's metrics are named ``kernels.*``.
"""

from __future__ import annotations


def _sum_traces(spanned):
    spans, counts = {}, {}
    for rec in spanned:
        trace = rec.get("trace") or {"spans": {}, "counts": {}}
        for name, s in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return spans, counts


def _startup(rec) -> float:
    """Spawn to cli.main: interpreter start-up, imports, wrapper installation."""
    return rec["trace"]["entered"] - rec["spawned"]


def _teardown(rec) -> float:
    """Trace record written to process reaped: interpreter finalization and exit."""
    return rec["spawned"] + rec["wall_s"] - rec["trace"]["finished"]


def _residual(rec) -> float:
    """Share of an operation's wall time that start-up, teardown and the
    module self times leave unexplained (counter hooks, wrapper overhead)."""
    trace = rec["trace"]
    attributed = sum(s["self_s"] for s in trace["spans"].values())
    return (trace["finished"] - trace["entered"] - attributed) / rec["wall_s"]


def per_layer(plain, spanned) -> dict:
    spans, counts = _sum_traces(spanned)

    def span_s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return counts.get(f"{name}.calls", spans.get(name, {}).get("calls", 0))

    def self_s(module):
        return float(sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == module))

    def ratio(num, den):
        return num / den if den else 0.0

    traced_ok = [rec for rec in spanned if rec.get("trace")]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    distance_calls = calls("attractor.directed_distance")
    put("attractor.directed_distance.s", span_s("attractor.directed_distance"), "s")
    put("attractor.directed_distance.pairs", counts.get("attractor.directed_distance.pairs", 0), "count")
    put("attractor.directed_distance.indexed_calls",
        distance_calls - calls("_kernels.directed_max_min")
        - counts.get("attractor.directed_distance.empty", 0), "count")
    put("kernels.self_s", self_s("_kernels"), "s")
    put("kernels.directed_max_min.pairs", counts.get("_kernels.directed_max_min.pairs", 0), "count")

    put("attractor.self_s", self_s("attractor"), "s")
    put("attractor.iterations", counts.get("attractor.iterations", 0), "count")
    put("attractor.hutchinson_step.s", span_s("attractor.hutchinson_step"), "s")
    put("attractor.hutchinson_step.points_out",
        counts.get("attractor.hutchinson_step.points_out", 0), "count")
    put("attractor.snap_keep_ratio",
        ratio(counts.get("attractor.hutchinson_step.points_out", 0),
              counts.get("attractor.hutchinson_step.points_in", 0)), "ratio")

    put("io.self_s", self_s("io"), "s")
    put("io.bytes_written", counts.get("io.bytes_written", 0), "bytes")
    put("io.load_instance.s", span_s("io.load_instance"), "s")
    put("boxcount.self_s", self_s("boxcount"), "s")

    put("coding.self_s", self_s("coding"), "s")
    put("coding.sample_prefixes.s", span_s("coding.sample_prefixes"), "s")
    put("coding.sample_prefixes.prefixes", counts.get("coding.sample_prefixes.prefixes", 0), "count")
    put("coding.code_point.calls", calls("coding.code_point"), "count")
    put("kgraph.count_paths.calls", calls("kgraph.count_paths"), "count")
    put("systems.extend_map.calls", calls("systems.extend_map"), "count")

    put("duality.self_s", self_s("duality"), "s")
    put("duality.build_transformation_graph.s", span_s("duality.build_transformation_graph"), "s")
    put("duality.morphisms", counts.get("duality.morphisms", 0), "count")
    put("duality.sweep.assignments", counts.get("duality.sweep.assignments", 0), "count")
    put("duality.sweep.consistent_ratio",
        ratio(counts.get("duality.sweep.consistent", 0),
              counts.get("duality.sweep.assignments", 0)), "ratio")
    put("kgraph.compose.calls", calls("kgraph.compose"), "count")
    put("kgraph.factorize.calls", calls("kgraph.factorize"), "count")
    put("kgraph.enumerate_paths.paths", counts.get("kgraph.enumerate_paths.paths", 0), "count")

    put("kgraph.self_s", self_s("kgraph"), "s")
    put("systems.self_s", self_s("systems"), "s")
    put("systems.grid_points.points", counts.get("systems.grid_points.points", 0), "count")
    put("diagonal.self_s", self_s("diagonal"), "s")
    put("cli.self_s", self_s("cli"), "s")

    put("process.startup_s", sum(_startup(rec) for rec in traced_ok), "s")
    put("process.teardown_s", sum(_teardown(rec) for rec in traced_ok), "s")
    put("trace.overhead_ratio",
        ratio(sum(rec["wall_s"] for rec in spanned), sum(rec["wall_s"] for rec in plain)), "ratio")
    put("trace.residual_ratio", max((_residual(rec) for rec in traced_ok), default=0.0), "ratio")
    return out
