"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its measured time.  Tolerances are fixed here, not tuned at
runtime; timings are informative.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kfractal.attractor import SetTuple, compute_attractor, tuple_distance
from kfractal.boxcount import occupied_cells
from kfractal.coding import coded_cloud, coded_error
from kfractal.duality import density_fidelity_sweep
from kfractal.diagonal import check_diagonal_agreement
from kfractal.kgraph import compose, diagonal_graph, enumerate_paths, factorize
from oracles import (
    check_commutation,
    coverage_distances,
    cylinder_partition_check,
    degrees_upto,
    skeleton_findings,
    twisted_findings,
    twisted_model,
    two_run_agreement,
    word_to_path,
)

REPO = Path(__file__).resolve().parent.parent

from shipped import shipped


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def report(num, label, t):
    print(f"\nACCEPTANCE {num}: PASS - {label} ({t:.2f}s)")


def test_criterion_1_fixed_point_uniqueness():
    """Two runs from a corner point and from the full fiber agree to 8h."""
    sys_ = shipped("s1")
    h = 1.0 / 512.0
    with Timer() as t:
        full = SetTuple.from_fibers(sys_, h)
        corner = SetTuple.from_points(h, {"v": np.array([0.0, 0.0])})
        K1, c1 = compute_attractor(sys_, (1,), full)
        K2, c2 = compute_attractor(sys_, (1,), corner)
        assert c1.converged and c2.converged
        gap = tuple_distance(K1, K2, sys_.metric)
    assert gap <= 8 * h, gap
    report(1, f"independent starts agree: d_H={gap:.6f} <= {8 * h:.6f}", t.seconds)


def test_criterion_2_commutation():
    """Order of degree application changes nothing beyond grid slack."""
    h = 1.0 / 128.0
    rng = np.random.default_rng(2024)
    degrees = [(1, 0), (0, 1), (1, 1)]
    with Timer() as t:
        for name in ("p2", "p2c"):
            sys_ = shipped(name)
            pts = rng.random((400, 2))
            C = SetTuple.from_points(h, {"v": pts})
            for n in degrees:
                for m in degrees:
                    assert check_commutation(sys_, n, m, C, tol=2 * h), (name, n, m)
    report(2, "all degree pairs commute within 2h on p2 and p2c", t.seconds)


def test_criterion_3_coding_agreement():
    """Exhaustive depth-9 coded cloud vs the iterated fixed point."""
    sys_ = shipped("s1")
    h = 1.0 / 512.0
    with Timer() as t:
        K, cert = compute_attractor(sys_, (1,), SetTuple.from_fibers(sys_, h))
        assert cert.converged
        T2 = coded_cloud(sys_, (9,), pitch=h)
        assert len(T2.clouds["v"]) > 0
        tol = 4 * h + 0.5 ** 9 * 1.0
        dist = K.vertex_distances(T2, sys_.metric)["v"]
    assert dist <= tol, (dist, tol)
    report(3, f"coded cloud matches attractor: d_H={dist:.6f} <= {tol:.6f}", t.seconds)


def test_criterion_4_coded_cloud_k_surjective():
    """The coded clouds cover themselves under every degree with |n| <= 2."""
    with Timer() as t:
        sys_ = shipped("s1")
        h = 1.0 / 512.0
        T2, err = coded_cloud(sys_, (9,), pitch=h), coded_error(sys_, (9,))
        tol = 2 * h + 2 * err
        for n in [(0,), (1,), (2,)]:
            dist = coverage_distances(sys_, n, T2)
            assert max(dist.values()) <= tol, (n, dist, tol)

        sys_ = shipped("p2c")
        h = 1.0 / 729.0
        T2, err = coded_cloud(sys_, (6, 6), pitch=h), coded_error(sys_, (6, 6))
        tol = 2 * h + 2 * err
        for n in degrees_upto((2, 2)):
            if sum(n) > 2:
                continue
            dist = coverage_distances(sys_, n, T2)
            assert max(dist.values()) <= tol, (n, dist, tol)
    report(4, "coded clouds are k-surjective at every |n| <= 2", t.seconds)


def _agreement(sys_, tol, pitch):
    """The two-run oracle's report, once ``check_diagonal_agreement``, which
    proves the two operators one and runs once, has printed its lines."""
    rep = check_diagonal_agreement(sys_, tol=tol, pitch=pitch)
    two = two_run_agreement(sys_, tol=tol, pitch=pitch)
    assert rep.summary() == two.summary()
    assert rep.sets_source == two.sets_source == two.sets_collapse
    return two


def test_criterion_5_diagonal_collapse_agreement():
    """Rank-k attractor vs rank-1 collapse attractor, per vertex."""
    with Timer() as t:
        for name, h in (("p2", 1.0 / 512.0), ("p2c", 1.0 / 729.0)):
            sys_ = shipped(name)
            rep = _agreement(sys_, tol=4 * h, pitch=h)
            assert rep.passed, rep.summary()
        s1 = shipped("s1")
        # the least tol a run at 1/512 accepts, its eps/(1-c)
        rep1 = _agreement(s1, tol=0.002762135864014981, pitch=1.0 / 512.0)
        assert max(rep1.distances.values()) == 0.0
        assert rep1.passed
    report(5, "collapse attractors agree (p2, p2c within 4h; s1 exactly)", t.seconds)


def test_criterion_6_density_fidelity_sweep():
    """Exact sweep over all consistent tables with fibers of size <= 2."""
    with Timer() as t:
        res = density_fidelity_sweep(max_fiber_size=2)
        assert not res.sampled
        assert res.all_agree, res.disagreements
    report(
        6,
        f"density == fidelity on {res.instances} assignments "
        f"({res.consistent} consistent), zero disagreements",
        t.seconds,
    )


def test_criterion_7_twisted_factorization():
    """The twisted products of three fixtures are 2-graphs: their skeletons
    and squares validate, and enumerated up to degree (2,2) their morphisms
    factor uniquely and compose associatively."""
    with Timer() as t:
        for name in ("d1", "d2", "d3"):
            dsys = shipped(name)
            assert not skeleton_findings(dsys), name
            rep = twisted_findings(twisted_model(dsys, (2, 2)))
            assert rep.ok, f"{name}: {rep}"
    report(7, "twisted products validate with zero violations (d1, d2, d3)", t.seconds)


def test_criterion_8_combinatorial_laws():
    """Factorization, degree additivity, word injectivity, partitions."""
    graphs = {
        "s1": shipped("s1").graph,
        "p2": shipped("p2").graph,
        "t0": shipped("t0").graph,
        "f3": shipped("f3").graph,
    }
    with Timer() as t:
        for name, g in graphs.items():
            degs = [n for n in degrees_upto((4,) * g.k) if sum(n) <= 4]
            for v in g.vertices:
                for n in degs:
                    paths = enumerate_paths(g, v, n)
                    for p in paths:
                        for m in degs:
                            if not all(a <= b for a, b in zip(m, n)):
                                continue
                            head, tail = factorize(p, m)
                            assert compose(head, tail) == p
                            assert head.degree == m
                            # brute-force: no other splitting recomposes to p
                            rest = tuple(b - a for a, b in zip(m, n))
                            hits = sum(
                                1
                                for mu in enumerate_paths(g, v, m)
                                for nu in enumerate_paths(g, mu.source_vertex, rest)
                                if compose(mu, nu) == p
                            )
                            assert hits == 1, (name, p, m)
                    for m in degs:
                        if sum(n) + sum(m) <= 4:
                            assert cylinder_partition_check(g, v, n, m), (name, v, n, m)
            # degree additivity across all composable pairs with |d| <= 2
            small = [
                p
                for v in g.vertices
                for n in degs
                if sum(n) <= 2
                for p in enumerate_paths(g, v, n)
            ]
            for p in small:
                for q in small:
                    if p.source_vertex == q.range_vertex:
                        got = compose(p, q).degree
                        want = tuple(a + b for a, b in zip(p.degree, q.degree))
                        assert got == want
            # injectivity of the diagonal-word expansion up to length 3
            dg = diagonal_graph(g)
            words = [()]
            seen = {}
            for _ in range(3):
                words = [
                    w + (e,)
                    for w in words
                    for e in sorted(dg.graph.edges)
                    if not w
                    or dg.graph.edge(w[-1]).source_vertex
                    == dg.graph.edge(e).range_vertex
                ]
                for w in words:
                    p = word_to_path(dg, w)
                    key = (p.range_vertex, p.edges)
                    assert seen.setdefault(key, w) == w
    report(8, "exhaustive laws hold to |d| <= 4 on s1, p2, t0, f3", t.seconds)


def test_criterion_9_box_dimension():
    """Grid-occupancy dimension of the resolved gasket at scales h and 2h."""
    sys_ = shipped("s1")
    h = 1.0 / 512.0
    target = math.log(3) / math.log(2)
    with Timer() as t:
        K, cert = compute_attractor(sys_, (1,), SetTuple.from_fibers(sys_, h))
        assert cert.converged
        lattice = K.clouds["v"]
        # independent oracle: brute-force occupied-cell sets at both scales
        cells_h = {tuple(r) for r in lattice.tolist()}
        cells_2h = {(r[0] // 2, r[1] // 2) for r in cells_h}
        cells_4h = {(r[0] // 2, r[1] // 2) for r in cells_2h}
        est_fine = math.log(len(cells_h) / len(cells_2h)) / math.log(2)
        est_coarse = math.log(len(cells_2h) / len(cells_4h)) / math.log(2)
        # the library's counter must agree with the oracle
        assert occupied_cells(lattice, 1) == len(cells_h)
        assert occupied_cells(lattice, 2) == len(cells_2h)
    assert abs(est_fine - target) <= 0.05, est_fine
    assert abs(est_coarse - target) <= 0.05, est_coarse
    report(
        9,
        f"box dimension {est_fine:.4f} / {est_coarse:.4f} within 0.05 of {target:.4f}",
        t.seconds,
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical CSV, raster, and report artifacts across reruns."""
    env_cmds = [
        ["attractor", "--instance", "p2c", "--pitch", str(1.0 / 243.0)],
        ["coding", "--instance", "s1", "--pitch", str(1.0 / 128.0), "--seed", "3"],
    ]
    # a bare environment, but one that writes no bytecode into the source
    # tree when the test run writes none
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "random"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    with Timer() as t:
        for base in env_cmds:
            outs = []
            for run in ("one", "two"):
                out = tmp_path / f"{base[0]}_{run}"
                cmd = (
                    [sys.executable, "-m", "kfractal"]
                    + base
                    + ["--out", str(out)]
                )
                proc = subprocess.run(
                    cmd,
                    cwd=REPO,
                    capture_output=True,
                    env=env,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outs.append(out)
            one, two = outs
            files = sorted(p.name for p in one.iterdir())
            assert files == sorted(p.name for p in two.iterdir())
            for name in files:
                assert (one / name).read_bytes() == (two / name).read_bytes(), name
    report(10, "repeated CLI runs are byte-identical", t.seconds)
