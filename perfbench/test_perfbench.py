"""Smoke tests of the benchmark: generators, checks, tracing and one short
run per workload, validated against BENCHMARK.json."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kfractal.duality import validate_discrete_system
from kfractal.io import load_instance
from kfractal.systems import validate_system
from perfbench import generate, workloads
from perfbench.trace_child import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(line, names):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))
    return result


@pytest.mark.parametrize("kind", sorted(generate.GENERATORS))
def test_generators_are_deterministic(kind):
    make = generate.GENERATORS[kind]
    assert generate.dumps(make(7)) == generate.dumps(make(7))
    assert len({generate.dumps(make(seed)) for seed in range(1, 9)}) > 1


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_instances_validate(seed):
    kind, sys_ = load_instance(generate.product_system(seed))
    assert kind == "mw" and validate_system(sys_).ok
    kind, dsys = load_instance(generate.discrete_system(seed))
    assert kind == "discrete" and validate_discrete_system(dsys).ok


@pytest.mark.parametrize("seed", range(1, 9))
def test_product_images_are_disjoint(seed):
    doc = generate.product_system(seed)
    counts = []
    for axis, prefix in enumerate("br"):
        spans = sorted(
            (Fraction(m["translation"][axis]), Fraction(m["matrix"][axis][axis]))
            for ident, m in doc["maps"].items() if ident.startswith(prefix))
        counts.append(len(spans))
        assert sum(r for _, r in spans) == Fraction(generate.COLOR_SUM, generate.UNIT)
        ends = [(at, at + r) for at, r in spans]
        assert ends[0][0] >= 0 and ends[-1][1] <= 1
        assert all(a[1] < b[0] for a, b in zip(ends, ends[1:]))
    assert sorted(counts) == [2, 3]


def test_consistent_quadruples():
    assert len(generate.consistent_quadruples(2)) == 58


def test_op_check_reports_failures(tmp_path):
    op = workloads.operations("sampled-coding", 1, None)[0]
    (tmp_path / "coded.csv").write_text("vertex,x0\n")
    (tmp_path / "coding.txt").write_text("")
    good = ("converged: iterations=3 displacement=0\n"
            "attractor-vs-coded (tol 0.01): pass\ninvariance of the coded cloud: pass\n")
    assert op.check(0, good, tmp_path) == []
    assert op.check(1, good, tmp_path)
    assert op.check(0, good.replace("coded cloud: pass", "coded cloud: FAIL"), tmp_path)
    assert op.check(0, good, tmp_path / "missing")


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.span("m.inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.02)
        inner()

    tracer.span("m.outer", body)()
    spans = tracer.record()["spans"]
    assert spans["m.outer"]["s"] >= 0.07
    assert spans["m.inner"]["self_s"] >= 0.05
    assert 0.02 <= spans["m.outer"]["self_s"] < spans["m.inner"]["self_s"]


def test_spec_is_well_formed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = check_result(proc.stdout.strip().splitlines()[-1], names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced():
    proc = run_bench("sampled-coding", trace=1)
    assert proc.returncode == 0, proc.stderr
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = check_result(proc.stdout.strip().splitlines()[-1], names)["metrics"]
    assert metrics["coding.sample_prefixes.prefixes"]["value"] >= 3 * workloads.CODING_COUNT
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["trace.residual_ratio"]["value"] <= 0.02


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("grid-attractor", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
