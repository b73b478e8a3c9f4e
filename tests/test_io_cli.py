"""Instance parsing, artifact writers, and the command-line driver."""

import argparse
import functools
import gc
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfractal.attractor import SetTuple, compute_attractor
from kfractal import cli, duality, exact
from kfractal.cli import MAX_FIBER_SIZE, NO_CONVERGENCE, PASS, build_parser, main
from kfractal.duality import SweepResult, validate_discrete_system
from kfractal.io import (
    InstanceFormatError,
    load_instance,
    packaged_instance,
    write_clouds_csv,
    write_pgm,
)
from kfractal.kgraph import enumerate_paths, validate_kgraph
from kfractal.report import ValidationReport
from kfractal.systems import extend_map, validate_system

from oracles import code_point
from shipped import LOPSIDED, shipped

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


# ---------------------------------------------------------------------------
# instance files


def test_truncated_file_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"k": 1, "vertices": ["v"], "edges": [[')
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "line" in str(err.value)


def test_missing_field_reported(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"k": 2, "vertices": ["v"]}))
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert "edges" in str(err.value)


def test_unknown_instance_name(tmp_path):
    assert main(["validate", "--instance", "nope", "--out", str(tmp_path)]) == 2


def test_shipped_instances_are_found_without_importlib_resources(monkeypatch, tmp_path,
                                                                 capsys):
    import importlib.resources

    expected = {name: Path(str(importlib.resources.files("kfractal") / "data" / f"{name}.json"))
                for name in SHIPPED}

    def refuse(*args):
        raise AssertionError("importlib.resources.files called")

    monkeypatch.setattr(importlib.resources, "files", refuse)
    for name in SHIPPED:
        path = packaged_instance(name)
        assert path.is_file() and path == expected[name], name
    assert main(["validate", "--instance", "nope", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: no such instance file or builtin: nope\n"


SHIPPED = ("s1", "p2", "p2c", "t0", "f3", "d1", "d2", "d3")
VALIDATORS = {"mw": validate_system, "discrete": validate_discrete_system}
DROP = object()
RETYPED = ("x", 1, [], {}, None)
NUMBERS = (math.nan, math.inf, -math.inf, 0)


def _parent(doc, path):
    """The container that holds the field at a key path."""
    return functools.reduce(operator.getitem, path[:-1], doc)


def _fields(node, path=()):
    """(key path, value) of every field and list entry below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _fields(child, path + (key,))


@st.composite
def mutated_instances(draw):
    """A shipped document with one to three fields dropped, retyped, or,
    where the field is a number, replaced by NaN, +-inf or 0."""
    doc = json.loads(packaged_instance(draw(st.sampled_from(SHIPPED))).read_text())
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(list(_fields(doc))))
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        new = draw(st.sampled_from((DROP,) + RETYPED + (NUMBERS if numeric else ())))
        if new is DROP:
            del _parent(doc, path)[path[-1]]
        else:
            _parent(doc, path)[path[-1]] = new
    return doc


@settings(derandomize=True, deadline=None, max_examples=500)
@given(mutated_instances())
def test_mutated_shipped_instances_end_in_findings(doc):
    try:
        kind, obj = load_instance(doc)
    except InstanceFormatError:
        return
    rep = validate_kgraph(obj if kind == "graph" else obj.graph)
    if rep.ok and kind in VALIDATORS:
        rep = VALIDATORS[kind](obj)
    assert isinstance(rep, ValidationReport)


@pytest.mark.parametrize(
    "name, path, value, finding",
    [
        ("s1", ("maps", "a0", "matrix", 0, 0), math.nan, "non-finite: a0"),
        ("p2", ("maps", "b0", "matrix", 0, 0), math.nan, "non-finite: b0"),
        ("s1", ("maps", "a1", "translation", 1), -math.inf, "non-finite: a1"),
        ("p2", ("fibers", "v", "region", "max", 0), math.inf, "non-finite: v"),
        ("s1", ("fibers", "v", "region", "corners", 2, 1), math.nan, "non-finite: v"),
        ("s1", ("fibers", "v", "metric"), "taxicab", "bad-metric: v"),
    ],
)
def test_cli_non_finite_and_unknown_metric_are_findings(tmp_path, capsys, name, path,
                                                        value, finding):
    doc = json.loads(packaged_instance(name).read_text())
    _parent(doc, path)[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 1
    assert f"[structural] {finding}" in capsys.readouterr().out


_UNIT_BOX = {"metric": "euclidean", "region": {"type": "box", "min": [0.0], "max": [1.0]}}
_NO_VERTEX = {"k": 1, "vertices": [], "edges": [[]], "fibers": {}, "maps": {}, "c": 0.5}


@pytest.mark.parametrize("command", ["validate", "attractor", "coding", "diagonal"])
@pytest.mark.parametrize(
    "doc, finding",
    [
        # no fiber at all: nothing may read the dimension or metric of one
        (_NO_VERTEX, "no-fiber: fibers: the system has no fiber"),
        # a fiber over a graph with no vertex, and one next to the graph's
        # only vertex
        (dict(_NO_VERTEX, fibers={"v": _UNIT_BOX}),
         "unknown-vertex: v: fiber of a vertex the graph lacks"),
        ({"k": 1, "vertices": ["u"], "edges": [[{"id": "a", "r": "u", "s": "u"}]],
          "fibers": {"u": _UNIT_BOX, "zz": _UNIT_BOX},
          "maps": {"a": {"matrix": [[0.5]], "translation": [0.0]}}, "c": 0.5},
         "unknown-vertex: zz: fiber of a vertex the graph lacks"),
    ],
    ids=["no-fiber", "no-vertex", "stray-fiber"],
)
def test_cli_fibers_off_the_graph_are_findings(tmp_path, capsys, command, doc, finding):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, "--instance", str(bad), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert f"  [structural] {finding}\n" in out
    assert err == ""


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_corner_loads_without_warnings(tmp_path, capsys, value):
    doc = json.loads(packaged_instance("s1").read_text())
    doc["fibers"]["v"]["region"]["corners"][1][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 1
    assert "[structural] non-finite: v" in capsys.readouterr().out


@pytest.mark.parametrize(
    "corners",
    [
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],              # collinear
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],  # repeated
    ],
    ids=["collinear", "repeated"],
)
def test_cli_degenerate_polygon_is_bad_region(tmp_path, capsys, corners):
    doc = json.loads(packaged_instance("s1").read_text())
    doc["fibers"]["v"]["region"]["corners"] = corners
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bad-region" in err


def test_cli_star_polygon_exits_2_in_one_line(tmp_path, capsys):
    # a pentagram turns left at every corner; its sides wind twice
    doc = json.loads(packaged_instance("s1").read_text())
    doc["fibers"]["v"]["region"]["corners"] = [
        [0.0, 1.0], [-0.588, -0.809], [0.951, 0.309], [-0.951, 0.309], [0.588, -0.809]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: malformed instance: polygon is not convex\n"


@pytest.mark.parametrize(
    "edits",
    [
        {"fibers": [1]},
        {"fibers": {"v": 1}},
        {"maps": None},
        {"k": math.inf},
        {"k": 0, "edges": []},
    ],
)
def test_cli_malformed_instance_exits_2_in_one_line(tmp_path, capsys, edits):
    doc = json.loads(packaged_instance("s1").read_text())
    doc.update(edits)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: malformed instance")


# ---------------------------------------------------------------------------
# writers


@pytest.mark.parametrize("command", ["attractor", "coding"])
@pytest.mark.parametrize("name", ["s1", "f3"])
def test_commands_run_without_lapack(monkeypatch, tmp_path, capsys, command, name):
    # c is certified in exact rationals: a float SVD, or a matrix 2-norm,
    # anywhere on the path fails the run
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    norm = np.linalg.norm

    def vector_norm(x, ord=None, axis=None, keepdims=False):
        if ord in (2, -2) and axis is None and np.ndim(x) == 2:
            raise AssertionError("a matrix 2-norm was taken")
        return norm(x, ord, axis, keepdims)

    exact.spectral_norm.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "norm", vector_norm)
    assert main([command, "--instance", name, "--out", str(tmp_path)]) == PASS
    assert "converged: iterations=" in capsys.readouterr().out


def test_csv_deterministic(tmp_path):
    s = SetTuple.from_points(0.5, {"v": np.array([[1.0, 0.5], [0.0, 0.0]])})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_clouds_csv(s, a)
    write_clouds_csv(s, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text().splitlines()
    assert text[0] == "vertex,x0,x1"
    assert len(text) == 3


def _reference_clouds_csv(sets, path):
    # the writer before the per-axis tables: one repr per float, row by row
    lines = ["vertex," + ",".join(f"x{i}" for i in range(sets.dim))]
    for v in sets.vertices():
        for row in sets.points(v):
            lines.append(f"{v}," + ",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _assert_csv_matches_reference(sets, tmp_path):
    write_clouds_csv(sets, tmp_path / "new.csv")
    _reference_clouds_csv(sets, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("name", ["p2", "p2c", "s1"])
def test_csv_of_shipped_attractor_matches_reference_writer(tmp_path, name):
    sys_ = shipped(name)
    h = max(f.diameter() for f in sys_.fibers.values()) / 512.0
    K, cert = compute_attractor(sys_, sys_.diagonal_degree, SetTuple.from_fibers(sys_, h))
    assert cert.converged
    _assert_csv_matches_reference(K, tmp_path)


_rng_csv = np.random.default_rng(11)


@pytest.mark.parametrize(
    "pitch, clouds",
    [
        (0.1, {"v": _rng_csv.integers(-40, 40, size=(600, 2))}),
        (2.0**-7, {"v": _rng_csv.integers(-300, 300, size=(400, 1))}),
        (0.05, {"v": _rng_csv.integers(-9, 9, size=(800, 3))}),
        # 300 rows in a box of 4 * 10**18 cells, just inside the 2**62 that
        # int64 numbers
        (1e-3, {"v": _rng_csv.integers(-10**9, 10**9, size=(300, 2))}),
        (0.25, {"a": _rng_csv.integers(0, 20, size=(50, 2)),
                "b": np.empty((0, 2), dtype=np.int64)}),
    ],
    ids=["non-dyadic", "1-d", "3-d", "sparse", "one-empty"],
)
def test_csv_matches_reference_writer(tmp_path, pitch, clouds):
    _assert_csv_matches_reference(SetTuple(pitch, clouds), tmp_path)


def test_csv_of_random_tuples_matches_reference_writer(tmp_path):
    # the writer joins each run of rows that share all coordinates but the
    # last under one prefix: 60 tuples of 1, 2 and 3 axes on three vertices,
    # a fifth of the clouds empty, against the per-row repr writer
    rng = np.random.default_rng(23)
    for i in range(60):
        dim = 1 + i % 3
        clouds = {v: rng.integers(-8, 8, size=(0 if rng.random() < 0.2 else
                                              int(rng.integers(1, 400)), dim))
                  for v in ("u", "v", "w")}
        pitch = float(rng.choice([0.1, 2.0**-5, 0.3]))
        _assert_csv_matches_reference(SetTuple(pitch, clouds), tmp_path)


def test_cloud_past_int64_cells_is_refused():
    # 300 rows spread over +-10**12 per axis span a box of 4 * 10**24
    # cells, which int64 cannot number: the tuple is refused before its
    # rows are sorted, and no writer sees it
    rows = np.random.default_rng(11).integers(-10**12, 10**12, size=(300, 2))
    assert math.prod(int(c.max()) - int(c.min()) + 1 for c in rows.T) > 2**62
    with pytest.raises(ValueError, match=r"2\*\*62"):
        SetTuple(1e-3, {"v": rows})


@pytest.mark.parametrize("writer", ["csv", "pgm"])
def test_writers_peak_memory_is_fixed(tmp_path, writer):
    # p2's start grid at its default pitch, 263,169 rows: whole-cloud inverse
    # indices and 65,536-row text blocks once peaked at 12.4 MiB for the CSV,
    # and the concatenated cells and shaded image at 8.5 MiB for the raster
    sys_ = shipped("p2")
    h = max(f.diameter() for f in sys_.fibers.values()) / 512.0
    start = SetTuple.from_fibers(sys_, h)
    assert sum(len(rows) for rows in start.clouds.values()) == 263169
    tracemalloc.start()
    try:
        if writer == "csv":
            write_clouds_csv(start, tmp_path / "points.csv")
        else:
            write_pgm(start, "v", tmp_path / "v.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_pgm_layout(tmp_path):
    s = SetTuple.from_points(1.0, {"v": np.array([[0.0, 0.0], [2.0, 1.0]])})
    path = tmp_path / "img.pgm"
    write_pgm(s, "v", path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    pixels = np.frombuffer(data[len(b"P5\n3 2\n255\n"):], dtype=np.uint8).reshape(2, 3)
    assert pixels[1, 0] == 0  # (0,0) bottom-left
    assert pixels[0, 2] == 0  # (2,1) top-right
    assert pixels[0, 0] == 255


def _reference_pgm(sets, vertex, path):
    # the writer before it painted with arrays: a Python set of cells, one
    # pixel per loop step
    cells = {tuple(r) for r in sets.clouds[vertex].tolist()}
    arr = np.array(sorted(cells), dtype=np.int64)
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    img = np.full((int(hi[1] - lo[1]) + 1, int(hi[0] - lo[0]) + 1), 255, dtype=np.uint8)
    for cell in cells:
        img[hi[1] - cell[1], cell[0] - lo[0]] = 0
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _lattice_tuple(rows):
    return SetTuple(0.5, {"v": np.array(rows, dtype=np.int64).reshape(-1, 2)})


_rng = np.random.default_rng(5)
_cloud_a = _rng.integers(-30, 30, size=(400, 2))


@pytest.mark.parametrize(
    "rows",
    [_cloud_a, _cloud_a[:40] * 3 + [100, 3], [[-7, 4]]],
    ids=["dense", "sparse", "single"],
)
def test_pgm_matches_reference_writer(tmp_path, rows):
    sets = _lattice_tuple(rows)
    write_pgm(sets, "v", tmp_path / "new.pgm")
    _reference_pgm(sets, "v", tmp_path / "old.pgm")
    assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "old.pgm").read_bytes()


def test_pgm_refuses_an_empty_cloud(tmp_path):
    with pytest.raises(ValueError, match="^empty cloud$"):
        write_pgm(_lattice_tuple([]), "v", tmp_path / "x.pgm")


# ---------------------------------------------------------------------------
# CLI behavior


def test_cli_validate_pass(tmp_path):
    assert main(["validate", "--instance", "s1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "validate.txt").read_text().count("valid") >= 2


def test_cli_validate_strict_override_fails(tmp_path, capsys):
    code = main(["validate", "--instance", "p2", "--mode", "strict",
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "lipschitz" in out.lower()
    assert "1" in out  # the offending bound


def write_wide_s1(path: Path) -> None:
    """s1 with every generator diag(0.5 + 2^-45): its certified bound,
    0.5000000000000284, is above c = 0.5 by less than 1e-12, and a1 and a2
    send the corners (1, 0) and the apex past the triangle by as little."""
    doc = json.loads(packaged_instance("s1").read_text())
    for m in doc["maps"].values():
        m["matrix"] = [[0.5 + 2.0**-45, 0.0], [0.0, 0.5 + 2.0**-45]]
    path.write_text(json.dumps(doc))


def test_cli_validate_holds_each_generator_to_the_ratio_exactly(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    write_wide_s1(wide)
    assert main(["validate", "--instance", str(wide), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("graph: valid\nsystem (strict mode, c=0.5): INVALID\n")
    assert out.count("[axiom] lipschitz") == 3, out
    assert out.count("[axiom] domain-containment") == 2, out
    # the two numbers differ in print, though they agree in six digits
    for line in out.splitlines():
        if "[axiom] lipschitz" in line:
            bound, ratio = line.split("generator Lipschitz ")[1].split(" > ")
            assert bound != ratio, line


def test_cli_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_attractor_t0_single_point(tmp_path):
    # the snapped iteration runs to its exact fixed set, a single pixel at
    # the common fixed point; its bound, (h/2)/(1 - 1/4), is within one pitch
    code = main(["attractor", "--instance", "t0", "--pitch", "0.00390625",
                 "--tol", "0.00390625", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "attractor.csv").read_text().splitlines()
    assert len(rows) == 2  # header + the origin
    assert rows[1].startswith("v,0.0")


def test_cli_attractor_non_convergence_exit3(tmp_path):
    code = main(["attractor", "--instance", "s1", "--pitch", "0.0078125",
                 "--max-iter", "2", "--out", str(tmp_path)])
    assert code == 3
    assert "NOT converged" in (tmp_path / "certificate.txt").read_text()


def test_cli_attractor_writes_raster_for_planar(tmp_path):
    code = main(["attractor", "--instance", "s1", "--pitch", "0.015625",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "attractor_v.pgm").read_bytes().startswith(b"P5\n")


def test_cli_coding_pass(tmp_path):
    code = main(["coding", "--instance", "s1", "--pitch", "0.0078125",
                 "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "coding.txt").read_text()
    assert "attractor-vs-coded" in report and "pass" in report


def test_cli_coding_relaxed_system(tmp_path):
    code = main(["coding", "--instance", "p2c", "--pitch", str(1 / 243),
                 "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "coding.txt").read_text()
    assert "pass" in report
    # relaxed systems skip the single-generator spot check (only diagonal
    # depths carry a contraction certificate)
    assert "prepend-vs-map" not in report


def test_cli_coding_corrupted_instance_names_offender(tmp_path, capsys):
    doc = json.loads(packaged_instance("s1").read_text())
    doc["maps"]["a1"]["translation"] = [0.9, 0.0]  # image escapes the fiber
    bad = tmp_path / "s1_bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["coding", "--instance", str(bad), "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "a1" in out
    assert "domain-containment" in out


def test_cli_diagonal_pass(tmp_path):
    code = main(["diagonal", "--instance", "p2c", "--pitch", str(1 / 243),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "diagonal.txt").read_text().count("ok") >= 1
    assert [p.name for p in tmp_path.iterdir()] == ["diagonal.txt"]


@pytest.mark.parametrize("command", ["attractor", "coding", "diagonal"])
def test_cli_tol_below_the_least_bound_exits_2_in_one_line(tmp_path, capsys, command):
    # s1 at pitch 1/512 claims at least (h*sqrt(2)/2)/(1 - 1/2), about 1.41h,
    # so --tol h is refused before iterating and before --out is created
    out = tmp_path / "out"
    argv = [command, "--instance", "s1", "--tol", "0.001953125", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --tol 0.001953125 is below 0.002762135864014981, the least error bound "
        "the degree (1,) operator (contraction 0.5) can claim at pitch 0.001953125\n")
    assert not out.exists()
    # at that bound the run is allowed, and claims it
    argv[4] = "0.002762135864014981"
    assert main(argv) == 0
    assert "error_bound=0.002762135864014981\n" in capsys.readouterr().out


def test_cli_duality_sweep_and_instance(tmp_path, capsys):
    code = main(["duality", "--max-fiber-size", "2", "--instance", "d3",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "100% agreement" in out
    assert "257 assignments" in out


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-fiber-size", "abc"],
        ["--max-fiber-size", "0"],
        ["--max-fiber-size", "-1"],
        ["--max-fiber-size", "1.5"],
        # above the cap: refused by the converter, before any map is built
        ["--max-fiber-size", str(MAX_FIBER_SIZE + 1)],
        ["--max-fiber-size", "100000000"],
        ["--seed", "x"],
        ["--seed", "-5"],
    ],
)
def test_cli_duality_bad_flag_exits_2_in_one_line(tmp_path, capsys, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["duality", *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("kfractal duality: error: argument --")
    assert not out.exists()


def test_cli_duality_flag_bounds_accepted():
    args = build_parser().parse_args(
        ["duality", "--max-fiber-size", str(MAX_FIBER_SIZE), "--seed", "0"]
    )
    assert (args.max_fiber_size, args.seed) == (MAX_FIBER_SIZE, 0)
    args = build_parser().parse_args(["duality", "--max-fiber-size", "1"])
    assert (args.max_fiber_size, args.seed) == (1, 0)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("attractor", ["--pitch", "abc"]),
        ("attractor", ["--pitch", "0"]),
        ("attractor", ["--pitch", "-0.5"]),
        ("attractor", ["--pitch", "nan"]),
        ("attractor", ["--pitch", "inf"]),
        ("attractor", ["--tol", "-1"]),
        ("attractor", ["--tol", "0"]),
        ("attractor", ["--max-iter", "x"]),
        ("attractor", ["--max-iter", "0"]),
        ("diagonal", ["--max-iter", "2.5"]),
        ("coding", ["--seed", "-1"]),
        ("coding", ["--count", "0"]),
        ("coding", ["--count", "ten"]),
        ("coding", ["--seed", "y"]),
    ],
)
def test_cli_bad_numeric_flag_exits_2_in_one_line(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", "s1", *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"kfractal {command}: error: argument {flags[0]}")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, degree",
    [
        ("attractor", "a"),
        ("attractor", "1,x"),
        ("attractor", "-1"),
        ("attractor", "0"),
        ("coding", "0,0"),
        ("coding", "1.5"),
    ],
)
def test_cli_bad_degree_exits_2_in_one_line(tmp_path, capsys, command, degree):
    code = main([command, "--instance", "t0", "--degree", degree, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: degree")


@pytest.mark.parametrize("elements, code", [([0, 1], 0), (["0", {}], 1)])
def test_cli_discrete_elements_are_read_as_strings(tmp_path, elements, code):
    doc = json.loads(packaged_instance("d2").read_text())
    doc["fibers"]["v"]["elements"] = elements
    path = tmp_path / "d2_edited.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(path), "--out", str(tmp_path)]) == code


def test_cli_discrete_table_for_unknown_edge_exits_2_in_one_line(tmp_path, capsys):
    doc = json.loads(packaged_instance("d1").read_text())
    doc["maps"]["zz"] = {"table": {"t": "t"}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: maps: unknown edge 'zz'\n"


@pytest.mark.parametrize(
    "fibers, error",
    [
        # a repeated element used to pass validate and make duality report
        # four twisted factorizations where there is one
        ({"v": {"elements": ["t", "t"]}}, "error: fiber v: element 't' listed twice\n"),
        ({"v": {"elements": [0, "0"]}}, "error: fiber v: element '0' listed twice\n"),
        ({"v": {"elements": ["t"]}, "w": {"elements": ["t"]}},
         "error: fibers: unknown vertex 'w'\n"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "duality"])
def test_cli_discrete_bad_fiber_exits_2_in_one_line(tmp_path, capsys, command, fibers, error):
    doc = json.loads(packaged_instance("d1").read_text())
    doc["fibers"] = fibers
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--instance", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", error)
    assert not out.exists()


def test_cli_duality_reports_an_invalid_graph(tmp_path, capsys):
    doc = json.loads(packaged_instance("d2").read_text())
    del doc["squares"]["1,2"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["duality", "--max-fiber-size", "1", "--instance", str(bad),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "[axiom]" in capsys.readouterr().out


def test_cli_bad_mode_exits_2_in_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--instance", "s1", "--mode", "bogus", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("kfractal validate: error: argument --mode")
    assert not out.exists()


def test_cli_coding_off_diagonal_relaxed_depth_exits_2_in_one_line(tmp_path, capsys):
    code = main(["coding", "--instance", "p2", "--degree", "1,2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: relaxed mode codes only diagonal depths")
    assert not (tmp_path / "coding.txt").exists()


def test_cli_coding_too_deep_to_sample_exits_2_in_one_line(tmp_path):
    # 3^45 paths: the refusal must come before any iteration, and the
    # radius must not list the paths, so the run ends well inside the timeout
    argv = ["coding", "--instance", "s1", "--degree", "45", "--count", "10",
            "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kfractal", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert "too many to sample" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_coding_too_many_paths_to_list_exits_2_before_iterating(tmp_path):
    # 3^13 paths and no --count: refused before the attractor iteration,
    # which at this depth would run to the end before failing
    argv = ["coding", "--instance", "s1", "--degree", "13", "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kfractal", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: 1594323 paths of degree (13,)")
    assert "--count" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_coding_count_above_the_budget_exits_2_before_allocating(tmp_path):
    # a vertex codes at most MAX_EXHAUSTIVE_PATHS points, listed or sampled
    out = tmp_path / "out"
    argv = ["coding", "--instance", "f3", "--count", "1000001", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kfractal", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: 1000001 samples per vertex are too many to code "
                           "(at most 1000000)\n")
    assert not out.exists()


def _artifacts(out: Path) -> dict:
    """The name and bytes of every file written under out."""
    if not out.exists():
        return {}
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "--instance", "s1"], 0),
        (["validate", "--instance", "wide.json"], 1),
        (["validate", "--instance", "s1", "--bogus"], 2),
        (["attractor", "--instance", "s1", "--max-iter", "3"], 3),
    ],
)
def test_process_exits_like_main_with_the_same_output(tmp_path, capsys, argv, code):
    # python -m kfractal goes through cli.run; main runs in this process
    if "wide.json" in argv:
        write_wide_s1(tmp_path / "wide.json")
        argv = [str(tmp_path / "wide.json") if arg == "wide.json" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kfractal", *argv, "--out",
                           str(tmp_path / "process")], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    try:
        returned = main([*argv, "--out", str(tmp_path / "main")])
    except SystemExit as exc:  # argparse's exit on a bad flag
        returned = exc.code
    captured = capsys.readouterr()
    assert returned == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert _artifacts(tmp_path / "process") == _artifacts(tmp_path / "main")
    assert (tmp_path / "main").exists() == (code != 2)


@pytest.mark.parametrize(
    "argv, returned",
    [
        (["validate", "--instance", "s1"], 0),
        (["attractor", "--instance", "s1", "--max-iter", "3"], 3),
        # argparse exits from inside main, before any command runs
        (["validate", "--instance", "s1", "--bogus"], None),
    ],
)
def test_run_freezes_once_after_main_returns(monkeypatch, tmp_path, argv, returned):
    out = tmp_path / "out"
    events = []
    real_main = cli.main

    def main_spy(argv=None):
        events.append(("main", real_main(argv)))
        return events[-1][1]

    # the spy stands in for gc.freeze, so this process is never frozen
    monkeypatch.setattr(gc, "freeze", lambda: events.append(("freeze", _artifacts(out))))
    monkeypatch.setattr(cli, "main", main_spy)
    monkeypatch.setattr(sys, "argv", ["kfractal", *argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    if returned is None:
        assert exc.value.code == 2
        assert events == []
    else:
        assert exc.value.code == returned
        assert events == [("main", returned), ("freeze", _artifacts(out))]
        assert events[1][1]


@pytest.mark.parametrize("command", ["attractor", "coding", "diagonal"])
@pytest.mark.parametrize("pitch", ["1e-9", "5e-324"])
def test_cli_pitch_too_fine_to_allocate_exits_2_in_one_line(tmp_path, capsys, command, pitch):
    # p2's unit square at 1e-9 holds 10^18 grid points; counted, never allocated
    count = ["--count", "5"] if command == "coding" else []
    code = main([command, "--instance", "p2", "--pitch", pitch, *count, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: fiber 'v': a grid of pitch")
    assert f"more than {2**24} points" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["attractor", "coding", "diagonal"])
def test_cli_fiber_without_grid_points_exits_2_in_one_line(tmp_path, capsys, command):
    # a ball of radius 0.01 at (0.3, 0.3), mapped into itself, holds no
    # point of the pitch-0.25 grid
    doc = json.loads(packaged_instance("s1").read_text())
    doc["edges"] = [[{"id": "a", "r": "v", "s": "v"}]]
    doc["fibers"]["v"]["region"] = {"type": "ball", "center": [0.3, 0.3], "radius": 0.01}
    doc["maps"] = {"a": {"matrix": [[0.5, 0.0], [0.0, 0.5]], "translation": [0.15, 0.15]}}
    dot = tmp_path / "dot.json"
    dot.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--instance", str(dot), "--pitch", "0.25", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fiber 'v': no grid point of pitch 0.25 lies in it\n"
    assert not out.exists()


@pytest.mark.parametrize("command, instance, pitch", [("attractor", "s1", "1.7e308"),
                                                      ("diagonal", "p2c", "1e308")])
def test_cli_pitch_whose_default_tol_overflows_exits_2_in_one_line(tmp_path, capsys, command,
                                                                   instance, pitch):
    out = tmp_path / "out"
    argv = [command, "--instance", instance, "--pitch", pitch, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the default --tol, 4·pitch, overflows at pitch "
                            f"{float(pitch)!r}: give --tol\n")
    assert not out.exists()
    if command == "attractor":
        # with a finite --tol, the least bound at this pitch is above the
        # float range, so it reads inf, not a traceback
        assert main([*argv, "--tol", "1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol 1e+308 is below inf, the least error bound")
        assert err.count("\n") == 1
        assert not out.exists()


def test_cli_coding_threshold_that_overflows_exits_2_in_one_line(tmp_path, capsys):
    # tol + 2·pitch is inf: the agreement check would pass without checking
    # anything, so it is refused before --out is created
    out = tmp_path / "out"
    argv = ["coding", "--instance", "s1", "--pitch", "1e308", "--tol", "1.7e308", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --tol 1.7e+308 plus 2·pitch overflows at pitch 1e+308: "
                            "give a smaller --tol or --pitch\n")
    assert not out.exists()


def test_cli_coding_coded_error_that_overflows_exits_2_in_one_line(tmp_path, capsys):
    # a box so wide that twice the coded error, 0.9 times its diameter, is inf
    doc = json.loads(packaged_instance("s1").read_text())
    doc["c"] = 0.9
    doc["edges"] = [[{"id": "a", "r": "v", "s": "v"}]]
    doc["fibers"]["v"]["region"] = {"type": "box", "min": [0.0, 0.0], "max": [1.2e308, 1.2e308]}
    doc["maps"] = {"a": {"matrix": [[0.9, 0.0], [0.0, 0.9]], "translation": [0.0, 0.0]}}
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["coding", "--instance", str(wide), "--degree", "1", "--pitch", "1e306",
            "--tol", "5e307", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the agreement threshold, --tol 5e+307 + 2·pitch + "
                            "2·coded error 1.5273506473629426e+308, overflows\n")
    # refused with the other refusals, before the refinement and --out
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "attractor", "coding"])
def test_cli_box_near_the_float_range_runs_without_warnings(tmp_path, capsys, command):
    # p2 on a box with corner (1.2e308, 1.2e308): its Euclidean diameter once
    # squared to inf, and validate sampled the box at pitch inf, NaN points
    doc = json.loads(packaged_instance("p2").read_text())
    doc["fibers"]["v"]["region"]["max"] = [1.2e308, 1.2e308]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--instance", str(huge), "--out", str(tmp_path / "out")])
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 2 and err.count("\n") == 1), (code, err)


@pytest.mark.parametrize("command", ["validate", "attractor", "coding", "diagonal"])
def test_cli_polygon_near_the_float_range_runs_without_warnings(tmp_path, capsys, command):
    # p2 on the square polygon with corner (1.2e308, 1.2e308): its
    # orientation and convexity products, edge normals and centroid once
    # overflowed, and the square was refused as collinear
    doc = json.loads(packaged_instance("p2").read_text())
    corners = [[0.0, 0.0], [1.2e308, 0.0], [1.2e308, 1.2e308], [0.0, 1.2e308]]
    doc["fibers"]["v"]["region"] = {"type": "polygon", "corners": corners}
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--instance", str(huge), "--out", str(tmp_path / "out")])
    assert not caught, [str(w.message) for w in caught]
    assert (code, capsys.readouterr().err) == (0, "")


def test_cli_numeric_flags_are_typed():
    args = build_parser().parse_args(
        ["coding", "--instance", "s1", "--pitch", "0.25", "--tol", "1e-3",
         "--max-iter", "1", "--seed", "0", "--count", "1"]
    )
    assert (args.pitch, args.tol, args.max_iter, args.seed, args.count) == (0.25, 1e-3, 1, 0, 1)
    args = build_parser().parse_args(["attractor", "--instance", "s1"])
    assert (args.pitch, args.tol, args.max_iter) == (None, None, 64)


def test_cli_duality_names_unchecked_fiber_sizes(tmp_path, capsys, monkeypatch):
    # a sampled size that drew no commuting assignment checked nothing
    res = SweepResult([(1, 0)], 300, 2, sampled=True, consistent_by_size={1: 1, 2: 1, 3: 0, 4: 0})
    monkeypatch.setattr(duality, "density_fidelity_sweep", lambda **kw: res)
    assert main(["duality", "--max-fiber-size", "4", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("100% agreement")
    assert lines[2] == (
        "unchecked fiber sizes (no consistent assignment drawn): 3, 4"
    )
    assert len(lines) == 3


def test_cli_duality_default_output_unchanged(tmp_path, capsys):
    assert main(["duality", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "sweep over the 2+2-loop template, fiber sizes <= 2: 257 assignments, "
        "59 consistent\n"
        "density == fidelity on [(1, 0), (0, 1), (1, 1)]: 100% agreement\n"
    )


def flip_document(name, k, loops, elements, power):
    """A one-vertex discrete instance with flip squares: ``loops`` loops per
    color, and the table of the i-th loop the (i + 1)-st power of
    ``power``, a table on ``elements``, so tables of any colors commute."""
    ids = {c: [f"e{c}{i}" for i in range(loops)] for c in range(1, k + 1)}
    tables = {}
    for c, row in ids.items():
        table = dict(power)
        for ident in row:
            tables[ident] = table
            table = {t: power[u] for t, u in table.items()}
    return {
        "kind": "discrete",
        "name": name,
        "k": k,
        "vertices": ["v"],
        "edges": [[{"id": e, "r": "v", "s": "v"} for e in ids[c]] for c in ids],
        "squares": {
            f"{i},{j}": [[[e, f], [f, e]] for e in ids[i] for f in ids[j]]
            for i, j in itertools.combinations(ids, 2)
        },
        "fibers": {"v": {"elements": list(elements)}},
        "maps": {e: {"table": tab} for e, tab in tables.items()},
    }


def test_cli_duality_rank_1_prints_each_degree_once(tmp_path, capsys):
    # at rank 1 the probe e_1 is the diagonal degree (1,)
    path = tmp_path / "r1.json"
    path.write_text(json.dumps(flip_document("r1", 1, 1, "ab", {"a": "b", "b": "a"})))
    assert main(["duality", "--max-fiber-size", "1", "--instance", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "instance r1 degree (1,): dense=True faithful=True agree=True",
        "twisted product up to (2,): all checks pass",
    ]


def test_cli_duality_3_graph_checks_the_skeleton(tmp_path, capsys, monkeypatch):
    # 3 loops per color over a 3-cycle: the degree-(2, 2, 2) morphisms alone
    # number 3 * 3^6; only the density probes enumerate paths, of degree at
    # most (1, 1, 1)
    path = tmp_path / "c3.json"
    cycle = {"0": "1", "1": "2", "2": "0"}
    path.write_text(json.dumps(flip_document("c3", 3, 3, "012", cycle)))
    degrees = []
    real = duality.enumerate_paths

    def recorded(g, v, n):
        degrees.append(n)
        return real(g, v, n)

    monkeypatch.setattr(duality, "enumerate_paths", recorded)
    assert main(["duality", "--max-fiber-size", "1", "--instance", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "twisted product up to (2, 2, 2): all checks pass"
    assert lines[-2] == "instance c3 degree (1, 1, 1): dense=True faithful=True agree=True"
    assert max(map(sum, degrees)) == 3


def test_cli_duality_reports_a_twisted_product_with_sources(tmp_path, capsys):
    # a constant table leaves elements no edge reaches: genuine sources of
    # the product, which the construction allows
    path = tmp_path / "const.json"
    path.write_text(json.dumps(flip_document("const", 2, 1, "ab", {"a": "a", "b": "a"})))
    assert main(["duality", "--max-fiber-size", "1", "--instance", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "twisted product up to (2, 2): all checks pass"
    )


def point_system(path):
    """p2 shrunk to the point (0, 0): every map keeps it, and the box
    fiber has min == max, which validate accepts."""
    doc = json.loads(packaged_instance("p2").read_text())
    doc["fibers"]["v"]["region"] = {"type": "box", "min": [0.0, 0.0], "max": [0.0, 0.0]}
    for m in doc["maps"].values():
        m["translation"] = [0.0, 0.0]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["attractor", "coding", "diagonal"])
def test_cli_zero_diameter_fibers_ask_for_a_pitch(tmp_path, capsys, command):
    path = point_system(tmp_path / "point.json")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--instance", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: every fiber has diameter 0, so there is no default pitch: give --pitch\n"
    )
    assert not out.exists()


def test_cli_zero_diameter_fibers_converge_at_a_given_pitch(tmp_path, capsys):
    path = point_system(tmp_path / "point.json")
    assert main(["attractor", "--instance", str(path), "--pitch", "0.1",
                 "--out", str(tmp_path / "out")]) == 0
    assert "vertex v: points=1 " in capsys.readouterr().out


def test_cli_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["attractor", "--instance", "p2c", "--pitch", str(1 / 81),
                     "--out", str(out)]) == 0
    for name in ("attractor.csv", "attractor_v.pgm", "certificate.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _one_map(tmp_path, c):
    """x -> c*x + (1 - c) on [0, 1]: for 1/2 <= c < 1 the translation is
    exact in floats (Sterbenz), so the attractor is exactly the point 1."""
    doc = {
        "kind": "mw", "name": f"one map {c}", "k": 1, "vertices": ["v"], "squares": {},
        "edges": [[{"id": "e", "r": "v", "s": "v"}]],
        "fibers": {"v": {"metric": "euclidean",
                         "region": {"type": "box", "min": [0.0], "max": [1.0]}}},
        "maps": {"e": {"matrix": [[c]], "translation": [1 - c]}},
        "c": c, "mode": "strict",
    }
    path = tmp_path / f"one-map-{c}.json"
    path.write_text(json.dumps(doc))
    return path


def _read_clouds(path):
    """attractor.csv as one float array of points per vertex."""
    clouds = {}
    for line in path.read_text().splitlines()[1:]:
        v, *coords = line.split(",")
        clouds.setdefault(v, []).append([float(x) for x in coords])
    return {v: np.array(pts) for v, pts in clouds.items()}


def _distinct_rows(rows):
    """The distinct rows of an integer array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


# the true error, in pitches h = 1/512: the lowest point of the cloud is
# 1 - 4h at c = 0.9 (where the Banach stop printed 2h) and 1 - 50h at 0.99
@pytest.mark.parametrize("c, tol, pitches", [(0.5, None, 0), (0.9, "0.01171875", 4),
                                             (0.99, "0.1", 50)])
def test_cli_one_map_bound_covers_the_true_error(tmp_path, capsys, c, tol, pitches):
    path = _one_map(tmp_path, c)
    out = tmp_path / "out"
    if tol is not None:
        # eps/(1-c) is 5h at c = 0.9 and 50h at c = 0.99, above the default 4h
        assert main(["attractor", "--instance", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: --tol 0.0078125 is below ")
        assert not out.exists()
    flags = ["--tol", tol] if tol is not None else []
    assert main(["attractor", "--instance", str(path), *flags, "--max-iter", "400",
                 "--out", str(out)]) == 0
    cert = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("converged:"))
    bound = float(cert.rsplit("error_bound=", 1)[1])
    assert bound <= float(tol or 4 / 512)
    points = _read_clouds(out / "attractor.csv")["v"][:, 0]
    true_error = max(abs(Fraction(x) - 1) for x in points.tolist())
    assert true_error == Fraction(pitches, 512)
    assert Fraction(bound) >= true_error


@pytest.mark.parametrize("name, pitch", [
    ("s1", None), ("p2", None), ("p2c", None), ("t0", None), ("f3", None),
    ("s1", "0.0078125"), ("p2c", "0.0078125"),
])
def test_cli_attractor_csv_is_a_fixed_point_of_snapped_images(tmp_path, capsys, name, pitch):
    # the written cloud A against snap(F(A)), F the degree-(1,..,1) operator:
    # each path map is applied to every point of A as read back from the
    # csv (no SetTuple, no per-axis tables), and the images are snapped to
    # the nearest point of the lattice h*Z^d
    flags = ["--pitch", pitch] if pitch else []
    assert main(["attractor", "--instance", name, *flags, "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "\nconverged: " in text
    h = float(text.split("\npitch: ", 1)[1].split("\n", 1)[0])
    sys_ = shipped(name)
    clouds = _read_clouds(tmp_path / "attractor.csv")
    assert sorted(clouds) == sorted(sys_.graph.vertices)
    for v, pts in clouds.items():
        images = []
        for lam in enumerate_paths(sys_.graph, v, sys_.diagonal_degree):
            m = extend_map(sys_, lam)
            images.append(clouds[lam.source_vertex] @ m.matrix.T + m.shift)
        snapped = _distinct_rows(np.rint(np.concatenate(images) / h).astype(np.int64))
        rows = np.rint(pts / h).astype(np.int64)
        assert np.array_equal(pts, h * rows.astype(float))  # A lies on the lattice
        assert np.array_equal(snapped, _distinct_rows(rows)), name


# sha256 of the artifacts of ``attractor --instance NAME --pitch 0.0078125``,
# re-recorded when the iteration began to stop at the lattice fixed point,
# after test_cli_attractor_csv_is_a_fixed_point_of_snapped_images agreed;
# any change to the step's arithmetic shows here first.  p2c's certificate
# re-recorded when the runs began to be refined from a coarse pitch: only
# its ``iterations=`` changed, 5 -> 4, the clouds kept their bytes
PINNED_ATTRACTOR_DIGESTS = {
    "p2c": {
        "attractor.csv": "daf9b1fdec64276d529929b4ee209f105ff9a7beef5bb11a1c92873f663e5675",
        "certificate.txt": "cf1af5b36d4373d9b444ddf4d7324d3942b5c7c5cc92d671964fe4a2f6839c9b",
        "attractor_v.pgm": "cfd80b052dd8bc9a151352d79dff092a673415383c102da64889b879d50e3e21",
    },
    "s1": {
        "attractor.csv": "92afa1d5aac6780a6b98a6e90773287fe12331fc87596a47198ad941e960441a",
        "certificate.txt": "936fa466238a4c8e9eb9e6b175b3ad893b6cd43080f168cffd06e66ac39d9ec8",
        "attractor_v.pgm": "a73b45238bc17e0682117a0447690802c245ff9a335d0b44e479db142b61b8ef",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_ATTRACTOR_DIGESTS))
def test_cli_attractor_artifacts_are_pinned(tmp_path, capsys, name):
    assert main(["attractor", "--instance", name, "--pitch", "0.0078125",
                 "--out", str(tmp_path)]) == 0
    for artifact, digest in PINNED_ATTRACTOR_DIGESTS[name].items():
        assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


# sha256 of stdout and of certificate.txt (the same bytes) of ``attractor``
# at the default pitch, where runs take more steps than at 0.0078125, at a
# step limit, and at a larger --tol, which leaves the run as it is;
# re-recorded with the pins above.  Re-recorded again for the refined runs:
# p2c's ``iterations=`` went 6 -> 4.  s1 at --max-iter 3 now stops three
# steps into its last level, which starts from the children of a coarser
# 3-step iterate, not from the whole triangle: its displacement fell from
# 0.0351562 to 0.00390625 and its error_bound from 0.0379 to 0.00667, with
# 29,997 points in place of 50,634
PINNED_DEFAULT_PITCH_DIGESTS = {
    "p2": (["--instance", "p2"], PASS,
           "388db64912fe73df0f09c53697213e1eaf29cc9b5619c5433d0f11e871b2432d"),
    "p2c": (["--instance", "p2c"], PASS,
            "a6ddf42237403ee2ba836f9e89df4878e496bd1b5b42350e3d84caebc09274cd"),
    "s1": (["--instance", "s1"], PASS,
           "7be1bf8e85eae04d5f51cf7ce5b9e2b2b74c4568062fad10a278e1438abdf3ea"),
    "s1 max-iter 3": (["--instance", "s1", "--max-iter", "3"], NO_CONVERGENCE,
                      "2380af33c2afbd1ea558986eaac96dde8fbf8eb477335d00cde3decba23ba2e0"),
    "p2c tol 0.1": (["--instance", "p2c", "--tol", "0.1"], PASS,
                    "a6ddf42237403ee2ba836f9e89df4878e496bd1b5b42350e3d84caebc09274cd"),
}


@pytest.mark.parametrize("label", sorted(PINNED_DEFAULT_PITCH_DIGESTS))
def test_cli_attractor_default_pitch_is_pinned(tmp_path, capsys, label):
    flags, code, digest = PINNED_DEFAULT_PITCH_DIGESTS[label]
    assert main(["attractor", *flags, "--out", str(tmp_path)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert hashlib.sha256((tmp_path / "certificate.txt").read_bytes()).hexdigest() == digest


# sha256 of stdout and of every artifact of runs at the default pitch,
# recorded before the lattice origin left the grid format: the first pins of
# the generated product system (perfbench.generate's product_system(1)), of
# attractor on t0 and f3, whose fixed points are one point, and of exhaustive
# coding, which codes every path by the leaf-to-root sweep
PINNED_RUN_DIGESTS = {
    "attractor product": (["attractor", "--instance", "{product}"], {
        "stdout": "e1f87d7d296bc3701eafcc76b597d206dd9edc04754a2183c3446463498a80c1",
        "attractor.csv": "8ca9e8dd33828cb0a94fb88588676459701d3857ecc868bf880d55fdabefaef4",
        "attractor_v.pgm": "edd12dfc446a5f44d3514d7d29c84fb893d56e672b66e9370a27bb0382e0a680",
        "certificate.txt": "e1f87d7d296bc3701eafcc76b597d206dd9edc04754a2183c3446463498a80c1",
    }),
    "diagonal product": (["diagonal", "--instance", "{product}"], {
        "stdout": "ff7249897dc0d7e2473a917dc0e4a8efe3f625fa0596943089b2354060d2a600",
        "diagonal.txt": "ff7249897dc0d7e2473a917dc0e4a8efe3f625fa0596943089b2354060d2a600",
    }),
    "attractor t0": (["attractor", "--instance", "t0"], {
        "stdout": "cbb372ba8a8c05954b16d0509950a22a667f334e75504c120952fc243bb15549",
        "attractor.csv": "d38dc76f474bd70d5e60490384550714a982c6f5059c4c248fef755afdb436f4",
        "certificate.txt": "cbb372ba8a8c05954b16d0509950a22a667f334e75504c120952fc243bb15549",
    }),
    "attractor f3": (["attractor", "--instance", "f3"], {
        "stdout": "ffdb9a86b99b9d58b6b41be87d15bbaaeb8b595acfe07c78a26fb633ebc6a4ce",
        "attractor.csv": "d38dc76f474bd70d5e60490384550714a982c6f5059c4c248fef755afdb436f4",
        "certificate.txt": "ffdb9a86b99b9d58b6b41be87d15bbaaeb8b595acfe07c78a26fb633ebc6a4ce",
    }),
    "coding p2c": (["coding", "--instance", "p2c"], {
        "stdout": "fd60d4a8e23d52d6e515b674a27765bdcb8f9f034e84413a740446083e873e75",
        "coded.csv": "411792cfc20769590e870838ba69fa69e7f4f4b40f4277f92cab95e76ec18bef",
        "coding.txt": "fd60d4a8e23d52d6e515b674a27765bdcb8f9f034e84413a740446083e873e75",
    }),
    "coding t0": (["coding", "--instance", "t0"], {
        "stdout": "ca37383e5f6a9b26ffe9d8beda5050bd7c26b813f93c7493a7ef3882153cfaad",
        "coded.csv": "065de3068fb06191178ca4ca3ae90f850a26130795712dbc371e272587327ee7",
        "coding.txt": "ca37383e5f6a9b26ffe9d8beda5050bd7c26b813f93c7493a7ef3882153cfaad",
    }),
}


@pytest.mark.parametrize("label", sorted(PINNED_RUN_DIGESTS))
def test_cli_runs_are_pinned(tmp_path, capsys, label):
    from perfbench.generate import dumps, product_system

    product = tmp_path / "product.json"
    product.write_text(dumps(product_system(1)))
    argv, digests = PINNED_RUN_DIGESTS[label]
    out = tmp_path / "out"
    assert main([*(arg.format(product=product) for arg in argv), "--out", str(out)]) == PASS
    files = {"stdout": capsys.readouterr().out.encode()}
    files.update((p.name, p.read_bytes()) for p in out.iterdir())
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == digests


# sha256 of stdout and of the text artifacts of commands that compare
# lattice clouds through distance windows, recorded before the windows moved
# from scipy's distance transforms to integer numpy passes (the sampled
# coding runs after the sampler began to draw one rank per prefix, once
# test_sampled_coded_csv_is_code_point_at_the_drawn_ranks agreed with them);
# the text re-recorded with the pins above, for its certificate lines, and
# diagonal p2c again for the refined runs (``iterations=`` 6 -> 4 in both);
# the coding runs again when the ranks came to be drawn from random.Random,
# coded.csv from that test's rebuild; their text again when the rank-1
# prepend-vs-map lines came to read a max distance of 0, both routes then
# applying the same generators in the same float operations
PINNED_OUTPUT_DIGESTS = {
    "diagonal p2c": (
        ["diagonal", "--instance", "p2c"],
        {
            "stdout": "cfbac495d0c9871154af8e29bb116becbeb415a94ba3e91d3e352e3a4f167582",
            "diagonal.txt": "cfbac495d0c9871154af8e29bb116becbeb415a94ba3e91d3e352e3a4f167582",
        },
    ),
    "coding s1": (
        ["coding", "--instance", "s1", "--count", "3000", "--seed", "4"],
        {
            "coding.txt": "9df539fa0a928a3f9c27a21d6aea6369549cc9ca527995c8665896efc362c277",
            # 3000 draws cover part of the 2187 paths, so this file pins the
            # seeded prefix stream
            "coded.csv": "4a38a9bacf1c7022a701d4b8c4311ccb138749f308cd2f940848189a141883e8",
        },
    ),
    # completion totals that differ between the vertices; 40 draws cover
    # part of the 21 and 13 paths at u and w
    "coding lopsided": (
        ["coding", "--instance", "{lopsided}", "--count", "40", "--seed", "3"],
        {
            "stdout": "7324bacdd216936d658eb2320da1856ac9d4703fd26fe39e59961486a39ccd76",
            "coding.txt": "7324bacdd216936d658eb2320da1856ac9d4703fd26fe39e59961486a39ccd76",
            "coded.csv": "e3830e934ab2be901ce481a9ffdd9aa76afc9a6bffa2b58e051996e7905331c9",
        },
    ),
}

# lines of those artifacts, as text: check_subsystem's bounds measure the
# snapped generator images on the lattice and add the largest snapping
# offset (with an earlier numpy stream, the KD-tree on the real images printed
# 0.0176052, 0.0148746 and 0.0145712, each below its lattice bound 0.0186629,
# 0.0158511 and 0.0146652)
PINNED_LINES = {
    "coding s1": (
        "coding.txt",
        [
            "  edge a0: one-sided distance 0.017778",
            "  edge a1: one-sided distance 0.0150607",
            "  edge a2: one-sided distance 0.0110989",
        ],
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_OUTPUT_DIGESTS))
def test_cli_window_outputs_are_pinned(tmp_path, capsys, label):
    lopsided = tmp_path / "lopsided.json"
    lopsided.write_text(json.dumps(LOPSIDED))
    argv, digests = PINNED_OUTPUT_DIGESTS[label]
    argv = [arg.format(lopsided=lopsided) for arg in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    if label in PINNED_LINES:
        name, lines = PINNED_LINES[label]
        text = (tmp_path / name).read_text().splitlines()
        assert [line for line in text if line.startswith("  edge ")] == lines
    for name, digest in digests.items():
        data = stdout if name == "stdout" else (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("label", ["coding s1", "coding lopsided"])
def test_sampled_coded_csv_is_code_point_at_the_drawn_ranks(tmp_path, capsys, label):
    # the pinned coded.csv rebuilt without the sampler: per vertex, the r-th
    # listed path for every rank r that _draw_ranks draws from
    # random.Random(seed), BLOCK_ROWS ranks at a time
    from kfractal.attractor import BLOCK_ROWS
    from kfractal.coding import _draw_ranks
    from kfractal.kgraph import enumerate_paths

    lopsided = tmp_path / "lopsided.json"
    lopsided.write_text(json.dumps(LOPSIDED))
    argv, _ = PINNED_OUTPUT_DIGESTS[label]
    argv = [arg.format(lopsided=lopsided) for arg in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    flags = dict(zip(argv[1::2], argv[2::2]))
    name = flags["--instance"]
    sys_ = load_instance(lopsided if name == str(lopsided) else packaged_instance(name))[1]
    h = max(f.diameter() for f in sys_.fibers.values()) / 512
    text = (tmp_path / "coding.txt").read_text()
    depth = tuple(int(c) for c in text.split("depth: (", 1)[1].split(")", 1)[0].split(",") if c)
    clouds = {}
    for v in sys_.graph.vertices:
        paths = enumerate_paths(sys_.graph, v, depth)
        rng, count = random.Random(int(flags["--seed"])), int(flags["--count"])
        ranks = [r for at in range(0, count, BLOCK_ROWS)
                 for r in _draw_ranks(rng, len(paths), min(BLOCK_ROWS, count - at)).tolist()]
        clouds[v] = np.array([code_point(sys_, paths[r]).point for r in ranks])
    write_clouds_csv(SetTuple.from_points(h, clouds), tmp_path / "want.csv")
    assert (tmp_path / "coded.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# sha256 of stdout and of duality.txt (the same bytes) for the duality runs,
# recorded before the twisted-product checks read one composition table and
# the sweep decided density and fidelity a block of assignments at a time;
# "generated" is perfbench.generate's discrete system at seed 3.  The
# sweeps' digests were re-pinned when sampling moved to random.Random: their
# consistent counts are those of test_duality's reference_sweep
PINNED_DUALITY_DIGESTS = {
    "d1": (["--instance", "d1"],
           "063fe18e4452a8b1353853856852a3824e22f882e336bd51b543c50eedc7aae9"),
    "d2": (["--instance", "d2"],
           "477e974de5b575beb0fd054f228009b8fea6e0c1b15bb37578766061ba57f1a2"),
    "d3": (["--instance", "d3"],
           "4ad96349b06ba71b45c5c51434ae05f683f9a088dc4a6ace4e8b4505f921305d"),
    "generated": (["--instance", "{generated}"],
                  "a7aa533b36b4cfefa6105cea97ee5e36d0e6ba9fdacb43dd446d190ca3a18d07"),
    "sweep 3": (["--max-fiber-size", "3", "--seed", "1"],
                "3d0c1fbd3c7adfa563ac99b1168b44534fba5f4b417072d535286acd99377b00"),
    "sweep 4": (["--max-fiber-size", "4", "--seed", "1"],
                "862a13062046d41bcd4c6a3e8f851484fd86cc012d39051e9a66afed3db5c8c5"),
}


@pytest.mark.parametrize("label", sorted(PINNED_DUALITY_DIGESTS))
def test_cli_duality_outputs_are_pinned(tmp_path, capsys, label):
    from perfbench.generate import discrete_system, dumps

    generated = tmp_path / "generated.json"
    generated.write_text(dumps(discrete_system(3)))
    flags, digest = PINNED_DUALITY_DIGESTS[label]
    flags = [flag.format(generated=generated) for flag in flags]
    out = tmp_path / "out"
    assert main(["duality", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert hashlib.sha256((out / "duality.txt").read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the flag surface: each command accepts exactly the flags it reads

FLAGS = {
    "validate": {"--instance", "--mode", "--out"},
    "attractor": {"--instance", "--mode", "--out", "--pitch", "--tol", "--max-iter",
                  "--degree"},
    "coding": {"--instance", "--mode", "--out", "--pitch", "--tol", "--max-iter",
               "--degree", "--seed", "--count"},
    "diagonal": {"--instance", "--mode", "--out", "--pitch", "--tol", "--max-iter"},
    "duality": {"--instance", "--max-fiber-size", "--seed", "--out"},
}


def _parser_flags():
    """Per subcommand, the option strings its parser accepts, without --help."""
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_cli_flag_sets_are_pinned():
    flags = _parser_flags()
    assert flags == FLAGS
    assert sum(len(f) for f in flags.values()) == 29


def _readme_flag_table():
    """Per subcommand, the flags README's CLI table marks for it."""
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if line.startswith("| flag |"))
    commands = [c.strip() for c in header.strip("|").split("|")[1:-1]]
    table = {c: set() for c in commands}
    for line in lines:
        if not line.startswith("| `--"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        for command, mark in zip(commands, cells[1:]):
            if mark:
                table[command].add(cells[0].strip("`"))
    return table


def test_readme_flag_table_matches_parser():
    assert _readme_flag_table() == _parser_flags()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("validate", ["--pitch", "0.1"]),
        ("attractor", ["--seed", "3"]),
        ("attractor", ["--render"]),
        ("coding", ["--render"]),
        ("diagonal", ["--degree", "2,2"]),
        ("diagonal", ["--seed", "1"]),
        ("diagonal", ["--render"]),
    ],
)
def test_cli_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", "p2c", *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"kfractal: error: unrecognized arguments: {' '.join(flags)}\n"
    assert not out.exists()


def test_cli_ignores_kfractal_environment(tmp_path, monkeypatch):
    argv = ["coding", "--instance", "t0", "--count", "50", "--seed", "2"]
    plain, tweaked = tmp_path / "plain", tmp_path / "tweaked"
    assert main([*argv, "--out", str(plain)]) == 0
    monkeypatch.setenv("KFRACTAL_PITCH", "0")
    monkeypatch.setenv("KFRACTAL_SEED", "-1")
    assert main([*argv, "--out", str(tweaked)]) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in tweaked.iterdir()) == ["coded.csv", "coding.txt"]
    for name in names:
        assert (plain / name).read_bytes() == (tweaked / name).read_bytes()


def test_cli_non_contracting_degree_exits_2_in_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["attractor", "--instance", "p2", "--degree", "1,0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree (1, 0) operator is not a contraction (factor 1)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["attractor", "--instance", "p2", "--pitch", "1e-9"],
        ["coding", "--instance", "p2", "--pitch", "1e-9", "--count", "5"],
        ["coding", "--instance", "s1", "--degree", "13"],
        ["coding", "--instance", "p2", "--degree", "1,2"],
        ["diagonal", "--instance", "p2", "--pitch", "1e-9"],
        ["duality", "--instance", "nosuch"],
        ["duality", "--instance", "s1"],
    ],
)
def test_cli_input_error_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "fresh"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_cli_duality_resolves_instance_before_the_sweep(tmp_path, monkeypatch):
    def sweep(**kw):
        raise AssertionError("the sweep ran for a bad --instance")

    monkeypatch.setattr(duality, "density_fidelity_sweep", sweep)
    argv = ["duality", "--instance", "nosuch", "--max-fiber-size", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
