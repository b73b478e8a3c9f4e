"""Instance parsing, artifact writers, and the command-line driver."""

import json

import numpy as np
import pytest

from kfractal import fixtures
from kfractal.attractor import SetTuple
from kfractal.cli import MAX_FIBER_SIZE, build_parser, main
from kfractal.io import (
    InstanceFormatError,
    discrete_to_dict,
    dump_instance,
    load_instance,
    packaged_instance,
    system_to_dict,
    write_clouds_csv,
    write_diff_pgm,
    write_pgm,
)


# ---------------------------------------------------------------------------
# instance files


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3"])
def test_shipped_metric_instances_match_builders(name):
    kind, loaded = load_instance(packaged_instance(name))
    assert kind == "mw"
    built = fixtures.SYSTEMS[name]()
    assert system_to_dict(loaded) == system_to_dict(built)


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_shipped_discrete_instances_match_builders(name):
    kind, loaded = load_instance(packaged_instance(name))
    assert kind == "discrete"
    built = fixtures.DISCRETE[name]()
    assert discrete_to_dict(loaded) == discrete_to_dict(built)


def test_dump_load_round_trip(tmp_path):
    sys_ = fixtures.cantor_product()
    path = tmp_path / "x.json"
    dump_instance(sys_, path)
    kind, again = load_instance(path)
    assert kind == "mw"
    assert system_to_dict(again) == system_to_dict(sys_)


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


# ---------------------------------------------------------------------------
# writers


def test_csv_deterministic(tmp_path):
    s = SetTuple.from_points(np.zeros(2), 0.5, {"v": np.array([[1.0, 0.5], [0.0, 0.0]])})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_clouds_csv(s, a)
    write_clouds_csv(s, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text().splitlines()
    assert text[0] == "vertex,x0,x1"
    assert len(text) == 3


def test_pgm_layout(tmp_path):
    s = SetTuple.from_points(np.zeros(2), 1.0, {"v": np.array([[0.0, 0.0], [2.0, 1.0]])})
    path = tmp_path / "img.pgm"
    write_pgm(s, "v", path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    pixels = np.frombuffer(data[len(b"P5\n3 2\n255\n"):], dtype=np.uint8).reshape(2, 3)
    assert pixels[1, 0] == 0  # (0,0) bottom-left
    assert pixels[0, 2] == 0  # (2,1) top-right
    assert pixels[0, 0] == 255


def test_diff_pgm_levels(tmp_path):
    a = SetTuple.from_points(np.zeros(2), 1.0, {"v": np.array([[0.0, 0.0], [1.0, 0.0]])})
    b = SetTuple.from_points(np.zeros(2), 1.0, {"v": np.array([[0.0, 0.0], [2.0, 0.0]])})
    path = tmp_path / "diff.pgm"
    write_diff_pgm(a, b, "v", path)
    data = path.read_bytes()
    pixels = np.frombuffer(data[len(b"P5\n3 1\n255\n"):], dtype=np.uint8)
    assert pixels.tolist() == [0, 90, 170]


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


def test_cli_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--instance", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_attractor_t0_single_point(tmp_path):
    # a tolerance below the pitch drives the snapped iteration all the way
    # to its exact fixed set, a single pixel at the common fixed point
    code = main(["attractor", "--instance", "t0", "--pitch", "0.00390625",
                 "--tol", "0.0009765625", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "attractor.csv").read_text().splitlines()
    assert len(rows) == 2  # header + the origin
    assert rows[1].startswith("v,0.0")


def test_cli_attractor_non_convergence_exit3(tmp_path):
    code = main(["attractor", "--instance", "s1", "--pitch", "0.0078125",
                 "--tol", "1e-12", "--max-iter", "2", "--out", str(tmp_path)])
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
    doc = system_to_dict(fixtures.sierpinski())
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
                 "--render", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "diagonal.txt").read_text().count("ok") >= 1
    assert (tmp_path / "diagonal_diff_v.pgm").exists()


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


def test_cli_duality_bad_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KFRACTAL_SEED", "-1")
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_cli_duality_flag_bounds_accepted():
    args = build_parser().parse_args(
        ["duality", "--max-fiber-size", str(MAX_FIBER_SIZE), "--seed", "0"]
    )
    assert (args.max_fiber_size, args.seed) == (MAX_FIBER_SIZE, 0)
    args = build_parser().parse_args(["duality", "--max-fiber-size", "1"])
    assert (args.max_fiber_size, args.seed) == (1, 0)


def test_cli_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["attractor", "--instance", "p2c", "--pitch", str(1 / 81),
                     "--seed", "7", "--out", str(out)]) == 0
    for name in ("attractor.csv", "attractor_v.pgm", "certificate.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
