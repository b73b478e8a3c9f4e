"""Fibers, affine maps, extension to paths, and system validation."""

import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfractal import exact, systems
from kfractal.attractor import SetTuple
from kfractal.cli import main
from kfractal.io import packaged_instance, system_from_dict
from kfractal.kgraph import KGraph, Path, compose, enumerate_paths, factorize
from kfractal.systems import (
    exact_path_map,
    EUCLIDEAN,
    MAX,
    MAX_GRID_POINTS,
    AffineMap,
    Ball,
    Box,
    MetricFiber,
    MWSystem,
    PointSet,
    Polygon,
    exact_after,
    extend_map,
    grid_axes,
    grid_indices,
    lipschitz_bound,
    validate_system,
)

from oracles import coverage_distances
from shipped import shipped


# ---------------------------------------------------------------------------
# regions


def test_box_basics():
    b = Box((0.0, 0.0), (2.0, 1.0))
    assert b.diameter(EUCLIDEAN) == pytest.approx(math.sqrt(5))
    assert b.diameter(MAX) == 2.0
    assert np.allclose(b.centroid(), [1.0, 0.5])
    assert b.contains([[0.5, 0.5], [2.5, 0.5]], tol=0.0).tolist() == [True, False]
    assert b.encloses((1, Fraction(1, 2)), Fraction(1, 2))
    assert not b.encloses((1, Fraction(1, 2)), Fraction(3, 5))


def test_ball_basics():
    s = Ball((0.0, 0.0), 1.0)
    assert s.diameter() == 2.0
    assert s.contains([[0.0, 0.999], [0.0, 1.001]], tol=0.0).tolist() == [True, False]
    assert s.encloses((Fraction(1, 4), 0), Fraction(3, 4))
    assert not s.encloses((Fraction(1, 4), 0), Fraction(4, 5))


def test_polygon_orientation_and_containment():
    tri = Polygon(((0, 0), (1, 0), (0, 1)))
    rev = Polygon(((0, 1), (1, 0), (0, 0)))  # clockwise input, normalized
    pts = [[0.25, 0.25], [0.75, 0.75], [0.0, 0.0]]
    assert tri.contains(pts, tol=0.0).tolist() == [True, False, True]
    assert rev.contains(pts, tol=0.0).tolist() == [True, False, True]
    quarter = (Fraction(1, 4), Fraction(1, 4))
    for poly in (tri, rev):
        assert poly.encloses(quarter, Fraction(1, 5))
        assert not poly.encloses(quarter, Fraction(3, 10))


def test_polygon_rejects_nonconvex():
    with pytest.raises(ValueError):
        Polygon(((0, 0), (2, 0), (1, 0.2), (0, 2)))


def test_grid_indices_cover_box():
    pts = 0.25 * grid_indices(Box((0.0, 0.0), (1.0, 1.0)), 0.25)
    assert len(pts) == 25
    assert pts.min() == 0.0 and pts.max() == 1.0


def one_shot_grid_indices(region, pitch):
    """The whole bounding-box mesh built at once and tested at once: the
    reference for the slabs of ``grid_indices``."""
    d = region.dim
    axes = grid_axes(region, pitch)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[region.contains(pitch * mesh, tol=pitch * 1e-6)]


# (region, pitch) per kind and dimension; a Polygon is planar.  Each first
# axis has 13 to 17 rows, so no slab size below divides it and the last slab
# is short.
SLAB_REGIONS = {
    "box-1": (Box((-0.3,), (0.9,)), 0.1),
    "box-2": (Box((0.0, -0.2), (1.5, 0.7)), 0.1),
    "box-3": (Box((0.0, 0.0, 0.0), (1.3, 0.4, 0.3)), 0.1),
    "ball-1": (Ball((0.05,), 0.7), 0.1),
    "ball-2": (Ball((0.0, 0.1), 0.75), 0.1),
    "ball-3": (Ball((0.2, 0.0, -0.1), 0.7), 0.1),
    "polygon-2": (Polygon(((0.0, 0.0), (1.4, 0.1), (0.3, 1.0))), 0.1),
    "pointset-1": (PointSet([[0.0], [0.5], [1.25]]), 0.25),
    "pointset-2": (PointSet([[0.0, 0.0], [0.5, 3.0], [3.25, 1.0], [1.0, 1.1]]), 0.25),
    "pointset-3": (PointSet([[0.0, 0.0, 0.0], [3.5, 0.25, 0.5], [1.0, 0.5, 0.75]]), 0.25),
    # a ball between the grid points keeps none of them
    "empty-2": (Ball((0.31, 0.31), 0.01), 0.25),
}

# the slab size, from the first axis's length n and a row's width w
SLAB_SIZES = {
    "whole-grid-in-one-block": lambda n, w: n * w,
    "one-block-plus-one-row": lambda n, w: (n - 1) * w,
    "three-rows-and-a-bit": lambda n, w: 3 * w + 1,
    "row-wider-than-the-block": lambda n, w: w - 1,
    "default": lambda n, w: systems._GRID_SLAB_POINTS,
}


def _moved(region, offset):
    """``region`` moved by the first ``region.dim`` entries of ``offset``."""
    o = np.asarray(offset[:region.dim], dtype=float)
    if isinstance(region, Box):
        return Box(region.lo + o, region.hi + o)
    if isinstance(region, Ball):
        return Ball(region.center + o, region.radius)
    if isinstance(region, Polygon):
        return Polygon(region.corners + o)
    return PointSet(region.points + o)


@pytest.mark.parametrize("name", SLAB_REGIONS)
@pytest.mark.parametrize("slab", SLAB_SIZES)
@pytest.mark.parametrize("offset", [None, (-0.037, 0.011, -0.052)])
def test_grid_indices_slabs_equal_the_one_shot_mesh(monkeypatch, name, slab, offset):
    # a moved region lies off the lattice: its edges fall between grid points
    region, pitch = SLAB_REGIONS[name]
    region = region if offset is None else _moved(region, offset)
    first, *rest = grid_axes(region, pitch)
    n, w = len(first), math.prod(map(len, rest))
    monkeypatch.setattr(systems, "_GRID_SLAB_POINTS", SLAB_SIZES[slab](n, w))
    got = grid_indices(region, pitch)
    want = one_shot_grid_indices(region, pitch)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape == want.shape and np.array_equal(got, want)
    # the lattice misses every point of a moved point set
    empty = name.startswith("empty") or (name.startswith("pointset") and offset is not None)
    assert (len(got) == 0) == empty


def test_start_grid_peak_memory_is_about_twice_its_rows():
    # s1's triangle at its default pitch: the bounding-box mesh and its
    # containment temporaries once peaked at 23.5 MiB for 1.7 MiB of rows
    s1 = shipped("s1")
    h = max(f.diameter() for f in s1.fibers.values()) / 512.0
    tracemalloc.start()
    try:
        C0 = SetTuple.from_fibers(s1, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(rows.nbytes for rows in C0.clouds.values())
    assert kept > 1 << 20
    assert peak <= 2 * kept + (4 << 20), (peak, kept)


@pytest.mark.parametrize("pitch", [1 / 4096, 1e-9, 5e-324])
def test_grid_indices_refuse_more_than_max_grid_points(pitch):
    # 4097^2 is the first square grid of the unit box past 2**24 points; the
    # count is refused before anything is allocated
    assert 4097**2 > MAX_GRID_POINTS == 2**24
    with pytest.raises(ValueError, match="more than 16777216 points"):
        grid_indices(Box((0.0, 0.0), (1.0, 1.0)), pitch)


@pytest.mark.parametrize("pitch", [0.0, -0.25, math.nan])
def test_grid_indices_refuse_a_pitch_that_is_not_positive(pitch):
    # refused before the bounding box is divided by it, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid pitch must be positive"):
            grid_indices(Box((0.0, 0.0), (0.0, 0.0)), pitch)


def test_grid_indices_refuse_an_infinite_pitch():
    # inf * 0 would make NaN points out of the mesh
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid pitch must be positive and finite, got inf"):
            grid_indices(Box((0.0, 0.0), (1.0, 1.0)), math.inf)


@pytest.mark.parametrize("x, y", [(1.2e308, 1.2e308), (1e155, 1e150)])
def test_diameters_near_the_float_range_stay_finite(x, y):
    # the squares of these sides overflow; the lengths do not
    corners = [(0.0, 0.0), (x, 0.0), (x, y), (0.0, y)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for region in (Box(corners[0], corners[2]), PointSet(corners), Polygon(corners)):
            assert math.isclose(region.diameter(), math.hypot(x, y), rel_tol=1e-15)


def test_polygon_near_the_float_range_is_a_square():
    # its orientation and convexity products once overflowed, and the square
    # was refused as "repeated or collinear corners"
    corners = [(0.0, 0.0), (1.2e308, 0.0), (1.2e308, 1.2e308), (0.0, 1.2e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        square = Polygon(corners)
        clockwise = Polygon(corners[::-1])
        # counter-clockwise either way
        assert square.corners.tolist() == clockwise.corners.tolist() == [list(c) for c in corners]
        assert square.centroid().tolist() == [6e307, 6e307]
        inside = square.contains(np.array([[6e307, 6e307], [1.2e308, 0.0], [-1e300, 6e307]]),
                                 tol=0.0)
        assert inside.tolist() == [True, True, False]
    with pytest.raises(ValueError, match="repeated or collinear"):
        Polygon([(0.0, 0.0), (6e307, 6e307), (1.2e308, 1.2e308)])


def test_diameters_keep_their_floats():
    # scaling by a power of two is exact: the same float as the plain
    # formulas on ordinary coordinates, so default pitches do not move
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        for _ in range(200):
            pts = rng.random((5, d)) * 10.0 ** rng.uniform(-5, 5)
            side = pts.max(axis=0) - pts.min(axis=0)
            assert Box(pts.min(axis=0), pts.max(axis=0)).diameter() == float(np.linalg.norm(side))
            diff = pts[:, None, :] - pts[None, :, :]
            assert PointSet(pts).diameter() == float(np.sqrt((diff ** 2).sum(-1)).max())


def test_point_set_blocks_keep_rows_and_diameters():
    # pairs are measured 2^20 at a time; the verdicts and diameters are the
    # whole-array ones bit for bit, also where the squares overflow
    rng = np.random.default_rng(29)
    for d, scale in ((1, 1e-300), (2, 1.0), (3, 1e300)):
        pts = rng.random((1100, d)) * scale
        region = PointSet(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        assert len(pts) ** 2 > 1 << 20
        assert region.diameter() == float(systems._scaled(systems._pair_lengths, diff).max())
        assert region.diameter(MAX) == float(np.abs(diff).max())
        if scale > 1:
            continue  # test_point_set_contains_far_apart_points_without_overflow
        rows = np.concatenate([pts[:1000] + rng.normal(0, 1e-4 * scale, (1000, d)),
                               rng.random((1000, d)) * scale])
        dmin = np.sqrt(((rows[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).min(axis=1)
        tol = float(np.median(dmin))
        assert np.array_equal(region.contains(rows, tol), dmin <= tol)


def test_point_set_contains_far_apart_points_without_overflow():
    # differences of about 1e300 once squared to inf, so a row 9.1e287 from
    # a listed point was judged outside at tol 1e290, with a RuntimeWarning
    region = PointSet([[0, 0], [1e300, 1e300]])
    row = [[1e300 * (1 + 2**-40), 1e300]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert region.contains(row, tol=1e290).tolist() == [True]
        assert region.contains(row, tol=9e287).tolist() == [False]
        # in blocks of 2^20 pairs, the verdicts of the exactly scaled pairs
        rng = np.random.default_rng(29)
        pts = rng.random((1100, 2)) * 1e300
        rows = np.concatenate([pts[:1000] + rng.normal(0, 1e296, (1000, 2)),
                               rng.random((1000, 2)) * 1e300])
        diff = rows[:, None, :] - pts[None, :, :]
        dmin = systems._scaled(systems._pair_lengths, diff).min(axis=1)
        tol = float(np.median(dmin))
        assert np.array_equal(PointSet(pts).contains(rows, tol), dmin <= tol)


@pytest.mark.parametrize("points, rows", [(1000, 4096), (2000, 0)])
def test_point_set_pairs_peak_memory_is_a_few_blocks(points, rows):
    # containment of 4,096 rows in 1,000 points once held all 4M pairs
    # (a slab of grid_indices, 16,384 rows, peaked at 625 MiB), and the
    # diameter of 2,000 points all 4M pairs; a block is 2^20 pairs
    rng = np.random.default_rng(31)
    region = PointSet(rng.random((points, 2)))
    tracemalloc.start()
    try:
        region.contains(rng.random((rows, 2)), 1e-6) if rows else region.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << 20) * 2 * 8, peak


@pytest.mark.parametrize("shift, contained", [(0.25, True), (0.75, False)])
def test_validate_five_dimensional_box_past_the_grid_budget(shift, contained):
    # a grid sample at diameter / 64 would hold 30^5 points, past
    # MAX_GRID_POINTS; the 32 exact corner images decide it
    g = KGraph(1, ["w"], {1: [("e", "w", "w")]})
    fiber = MetricFiber(Box((0.0,) * 5, (1.0,) * 5), "euclidean")
    gen = AffineMap.of(np.eye(5) / 2, (shift,) * 5)
    rep = validate_system(MWSystem(g, {"w": fiber}, {"e": gen}, ratio=0.6))
    assert rep.ok == contained
    assert ("domain-containment" in rep.codes()) != contained


# ---------------------------------------------------------------------------
# lipschitz bounds


def test_lipschitz_scaled_identity():
    m = AffineMap.of(np.eye(2) / 2, (0, 0))
    assert lipschitz_bound(m, EUCLIDEAN) == pytest.approx(0.5)
    assert lipschitz_bound(m, MAX) == pytest.approx(0.5)


def test_lipschitz_unit_direction():
    m = AffineMap.of([[0.5, 0.0], [0.0, 1.0]], (0, 0))
    assert lipschitz_bound(m, EUCLIDEAN) == pytest.approx(1.0)
    assert lipschitz_bound(m, MAX) == pytest.approx(1.0)


def test_lipschitz_antidiagonal():
    m = AffineMap.of([[0.0, 0.5], [0.5, 0.0]], (0, 0))
    assert lipschitz_bound(m, EUCLIDEAN) == pytest.approx(0.5)
    assert lipschitz_bound(m, MAX) == pytest.approx(0.5)


def _half_rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return 0.5 * np.array([[c, -s], [s, c]])


def _covers(t, a):
    """Whether t^2 I - A^T A is positive semidefinite, exactly, for a 2 x 2
    float matrix A: both diagonal entries and the determinant are >= 0."""
    (p, q), (r, s) = [[Fraction(x) for x in row] for row in a.tolist()]
    t2 = Fraction(t) ** 2
    d0, d1, off = t2 - p * p - r * r, t2 - q * q - s * s, -(p * q + r * s)
    return d0 >= 0 and d1 >= 0 and d0 * d1 >= off * off


def test_certified_norm_of_half_rotations_is_the_least_covering_float():
    # A = 0.5 R(theta) built in floats: its norm is 0.5 give or take an ulp,
    # and the float SVD value lies below it at some angles
    above = svd_short = 0
    for theta in np.linspace(0.0, 2 * math.pi, 400):
        a = _half_rotation(theta)
        c = lipschitz_bound(AffineMap.of(a, (0, 0)), EUCLIDEAN)
        assert _covers(c, a)
        assert not _covers(math.nextafter(c, 0.0), a)
        svd = float(np.linalg.norm(a, 2))
        if not _covers(svd, a):
            svd_short += 1
            assert c > svd
        above += c > 0.5
    assert above > 0 and svd_short > 0, (above, svd_short)


def test_strict_validate_compares_the_ratio_with_the_certified_norm(monkeypatch):
    compared = []
    bound = systems.lipschitz_bound

    def spy(m, metric=EUCLIDEAN):
        compared.append(bound(m, metric))
        return compared[-1]

    monkeypatch.setattr(systems, "lipschitz_bound", spy)
    g = KGraph(1, ["v"], {1: [("e", "v", "v")]})
    above = 0
    for theta in np.linspace(0.0, 2 * math.pi, 40):
        gen = AffineMap.of(_half_rotation(theta), (0, 0))
        c = bound(gen, EUCLIDEAN)
        above += c > 0.5
        for ratio in (0.5, 0.25):
            compared.clear()
            sys_ = MWSystem(g, {"v": MetricFiber(Box((-1, -1), (1, 1)))}, {"e": gen},
                            ratio=ratio)
            found = [f.detail for f in validate_system(sys_).findings if f.code == "lipschitz"]
            assert compared == [c]
            # c is 0.5 within an ulp, and the ratio is compared exactly; a
            # bound one ulp above 0.5 is printed in full against it
            text = f"{c:.6g} > {ratio:g}"
            if c == math.nextafter(0.5, 1) and ratio == 0.5:
                text = f"{c!r} > {ratio!r}"
            assert found == ([] if c <= ratio else [f"generator Lipschitz {text}"])
    assert 0 < above < 40, above


def test_relaxed_validate_prints_a_composite_bound_apart_from_the_ratio():
    # p2 held to one ulp below its largest diagonal composite bound, 0.5:
    # both numbers read 0.5 in six digits, so they are printed in full
    sys_ = shipped("p2")
    g = sys_.graph
    c = max(lipschitz_bound(extend_map(sys_, lam), sys_.metric)
            for v in g.vertices for lam in enumerate_paths(g, v, sys_.diagonal_degree))
    sys_.ratio = math.nextafter(c, 0)
    found = [f.detail for f in validate_system(sys_).findings if f.code == "lipschitz"]
    assert found and set(found) == {f"diagonal composite Lipschitz {c!r} > {sys_.ratio!r}"}


def test_certified_norms_are_memoized_per_linear_part():
    # s1's spot checks bound 20 prefixes per generator twice: 120 prefix
    # errors over two linear parts, 2**-9 I and 2**-10 I, certified once each
    from kfractal.coding import check_intertwining, sample_prefixes

    sys_ = shipped("s1")
    ids = sorted(sys_.graph.edges)
    exact.spectral_norm.cache_clear()
    parts = set()
    for ident in sorted(sys_.generators):
        e = sys_.graph.edge(ident)
        lam = Path(sys_.graph, e.range_vertex, (ident,))
        rows = sample_prefixes(sys_.graph, e.source_vertex, (9,), count=20, seed=1)
        prefixes = [Path(sys_.graph, e.source_vertex, tuple(ids[i] for i in row))
                    for row in rows.tolist()]
        assert check_intertwining(sys_, lam, rows, tol=1e-2).samples == 20
        for p in prefixes:
            parts |= {extend_map(sys_, q).matrix.tobytes() for q in (p, compose(lam, p))}
    info = exact.spectral_norm.cache_info()
    assert info.misses == len(parts) + 1  # and the prepended generator's own
    assert info.hits + info.misses >= 120


def _principal_minors_nonnegative(m):
    n = len(m)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            sub = [[m[i][j] for j in idx] for i in idx]
            if _det(sub) < 0:
                return False
    return True


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_semidefinite_matches_the_principal_minors():
    # every symmetric matrix of size 1 to 3 with entries in -1..1, zero
    # pivots with nonzero rows included: PSD exactly when every principal
    # minor is >= 0
    seen = {True: 0, False: 0}
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product((-1, 0, 1), repeat=len(cells)):
            m = [[Fraction(0)] * n for _ in range(n)]
            for (i, j), v in zip(cells, values):
                m[i][j] = m[j][i] = Fraction(v)
            want = _principal_minors_nonnegative(m)
            assert exact.semidefinite([row[:] for row in m]) == want, m
            seen[want] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("metric", [EUCLIDEAN, MAX])
def test_diagonal_norms_are_the_largest_entry(metric):
    # including scales where a float SVD reads an ulp below max |a_jj|
    rng = np.random.default_rng(5)
    for _ in range(500):
        d = int(rng.integers(1, 4))
        a = np.diag(rng.uniform(-1, 1, d) * 10.0 ** rng.integers(-5, 5))
        m = AffineMap.of(a, np.zeros(d))
        assert lipschitz_bound(m, metric) == np.abs(np.diagonal(a)).max()
    assert lipschitz_bound(AffineMap.of([[0.5, 0.0], [0.0, np.inf]], (0, 0))) == math.inf


@st.composite
def _maps_and_points(draw):
    """n random maps of R^d, d from 1 to 3, and one point for each."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    real = st.floats(-4.0, 4.0)
    cube = draw(st.lists(real, min_size=n * d * (d + 2), max_size=n * d * (d + 2)))
    return (np.reshape(cube[:n * d * d], (n, d, d)),
            np.reshape(cube[n * d * d:n * d * (d + 1)], (n, d)),
            np.reshape(cube[n * d * (d + 1):], (n, d)))


@settings(max_examples=200, deadline=None)
@given(_maps_and_points())
def test_apply_sums_in_index_order_alone_in_a_cloud_and_in_a_stack(case):
    # one expression for a point, a cloud and a stack of maps: each
    # coordinate is Python's ((x_0 a_i0 + x_1 a_i1) + ...) + s_i, so no
    # fused multiply-add or blocked sum of a BLAS kernel rounds it
    mats, shifts, points = case
    stacked = AffineMap(mats, shifts).apply(points)
    for i, (a, s, x) in enumerate(zip(mats.tolist(), shifts.tolist(), points.tolist())):
        want = []
        for row, t in zip(a, s):
            acc = x[0] * row[0]
            for xj, aij in zip(x[1:], row[1:]):
                acc += xj * aij
            want.append(acc + t)
        want = np.array(want).tobytes()
        m = AffineMap.of(a, s)
        assert m.apply(points[i]).tobytes() == want
        assert m.apply(points)[i].tobytes() == want
        assert stacked[i].tobytes() == want


# ---------------------------------------------------------------------------
# extension to paths


def test_extend_vertex_is_identity():
    sys = shipped("s1")
    m = extend_map(sys, Path(sys.graph, "v"))
    pts = np.array([[0.3, 0.2]])
    assert np.array_equal(m.apply(pts), pts)


def test_extend_two_step_hand_composite():
    # a0 after a1 on the triangle: z -> z/4 + p1/4 + p0/2, computed by hand
    sys = shipped("s1")
    p = Path(sys.graph, "v", ("a0", "a1"))
    m = extend_map(sys, p)
    p0, p1 = sys.fibers["v"].region.corners[:2]
    z = np.array([0.2, 0.3])
    expected = z / 4 + p1 / 4 + p0 / 2
    assert np.allclose(m.apply(z), expected, atol=1e-15)


def test_extend_route_independent_exact_p2():
    # both orderings of a mixed word produce the same exact rational map
    sys = shipped("p2")
    p = Path(sys.graph, "v", ("b0", "r0"))
    direct = exact_path_map(sys, p)
    head, tail = factorize(p, (0, 1))  # r0 first route
    routed = exact_after(exact_path_map(sys, head), exact_path_map(sys, tail))
    assert direct == routed
    assert np.allclose(extend_map(sys, p).matrix, np.eye(2) / 2)


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3"])
def test_extend_all_decompositions_exact(name):
    """extend(p) equals extend(head) o extend(tail) exactly (in rationals)
    for every splitting of every path with |d| <= 3."""
    sys = shipped(name)
    g = sys.graph
    degs = [
        n
        for tot in range(4)
        for n in {
            tuple(v)
            for v in itertools.product(range(tot + 1), repeat=g.k)
            if sum(v) == tot
        }
    ]
    for v in g.vertices:
        for n in degs:
            for p in enumerate_paths(g, v, n):
                whole = exact_path_map(sys, p)
                for m in degs:
                    if not all(a <= b for a, b in zip(m, n)):
                        continue
                    head, tail = factorize(p, m)
                    split = exact_after(
                        exact_path_map(sys, head), exact_path_map(sys, tail)
                    )
                    assert split == whole
                # the float composite tracks the exact one to rounding
                fm = extend_map(sys, p)
                exact_mat = np.array(
                    [[float(x) for x in row] for row in whole[0]]
                )
                assert np.allclose(fm.matrix, exact_mat, atol=1e-12)


def test_extend_respects_composition_exact():
    sys = shipped("p2c")
    g = sys.graph
    pool = [p for n in [(1, 0), (0, 1), (1, 1)] for p in enumerate_paths(g, "v", n)]
    for p, q in itertools.product(pool, pool):
        lhs = exact_path_map(sys, compose(p, q))
        rhs = exact_after(exact_path_map(sys, p), exact_path_map(sys, q))
        assert lhs == rhs


def test_extend_lipschitz_bounded_by_product():
    sys = shipped("s1")
    for p in enumerate_paths(sys.graph, "v", (3,)):
        lip = lipschitz_bound(extend_map(sys, p), sys.metric)
        assert lip <= 0.5 ** 3 + 1e-12


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3"])
def test_fixture_systems_validate(name):
    sys = shipped(name)
    rep = validate_system(sys)
    assert rep.ok, str(rep)


def test_strict_mode_rejects_p2():
    sys = shipped("p2")
    sys.mode = "strict"
    rep = validate_system(sys)
    assert "lipschitz" in rep.codes()
    # the offending bound is the unit singular value of the generators
    assert any("1" in f.detail for f in rep.findings)


def test_square_consistency_violation_reported():
    sys = shipped("p2")
    bad = dict(sys.generators)
    bad["b0"] = AffineMap.of([[0.5, 0.0], [0.0, 1.0 / 3.0]], (0.0, 0.0))
    sys.generators = bad
    rep = validate_system(sys)
    assert "square-consistency" in rep.codes()


def test_containment_violation_reported():
    sys = shipped("s1")
    bad = dict(sys.generators)
    bad["a1"] = AffineMap.of([[0.5, 0.0], [0.0, 0.5]], (0.9, 0.0))
    sys.generators = bad
    rep = validate_system(sys)
    assert "domain-containment" in rep.codes()


# ---------------------------------------------------------------------------
# exact containment


def _s1_doc(scale, a1_x):
    """s1 with its corners and translations scaled in floats, and a1's
    translation moved to a1_x along the x axis."""
    doc = json.loads(packaged_instance("s1").read_text())
    region = doc["fibers"]["v"]["region"]
    region["corners"] = [[x * scale for x in c] for c in region["corners"]]
    for m in doc["maps"].values():
        m["translation"] = [x * scale for x in m["translation"]]
    doc["maps"]["a1"]["translation"][0] = a1_x
    return doc


# a1 sends the corner (scale, 0) to scale/2 + a1_x, past the corner
MOVED_S1 = {
    "scale-1e-9-moved-0.9e-9": (1e-9, 0.5e-9 + 0.9e-9),
    "scale-1e-8-moved-0.9e-9": (1e-8, 0.5e-8 + 0.9e-9),
    "one-ulp-past-0.5": (1.0, math.nextafter(0.5, 1.0)),
}


@pytest.mark.parametrize("name", MOVED_S1)
def test_s1_with_a1_moved_out_is_invalid(name):
    rep = validate_system(system_from_dict(_s1_doc(*MOVED_S1[name])))
    assert [(f.code, f.subject, f.detail) for f in rep.findings] == [
        ("domain-containment", "a1", "image of the source fiber is not proved inside the "
                                     "target fiber")]


@pytest.mark.parametrize("scale", [1e-9, 1e-8, 1.0])
def test_s1_scaled_without_the_move_is_valid(scale):
    # the scaled images touch the scaled corners exactly, which is legal
    assert validate_system(system_from_dict(_s1_doc(scale, 0.5 * scale))).ok


def test_coding_refuses_the_moved_s1_at_scale_1e9(tmp_path, capsys):
    # its attractor leaves the fiber, so the coded error Lip * diam X_s
    # would be 2.3 times below the true one
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(_s1_doc(*MOVED_S1["scale-1e-9-moved-0.9e-9"])))
    assert main(["coding", "--instance", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert "domain-containment" in out and "coded-error" not in out


def test_shipped_and_generated_systems_validate():
    from perfbench.generate import product_system

    for name in ("s1", "p2", "p2c", "t0", "f3"):
        assert validate_system(shipped(name)).ok, name
    for seed in range(300):
        assert validate_system(system_from_dict(product_system(seed))).ok, seed


def _one_map(src, dst, matrix, shift):
    """Whether validate proves that the map sends a fiber on src into a
    fiber on dst."""
    g = KGraph(1, ["u", "w"], {1: [("e", "u", "w")]})
    sys_ = MWSystem(g, {"w": MetricFiber(src), "u": MetricFiber(dst)},
                    {"e": AffineMap.of(matrix, shift)}, ratio=0.99)
    return "domain-containment" not in validate_system(sys_).codes()


@st.composite
def _boxes_and_diagonal_maps(draw):
    # dyadic entries, so many images touch the target's faces exactly
    d = draw(st.integers(1, 3))

    def ints(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=d, max_size=d))

    lo, size = ints(-32, 32), ints(0, 32)
    src = [x / 16 for x in lo], [(x + n) / 16 for x, n in zip(lo, size)]
    diag, shift = [a / 16 for a in ints(-15, 15)], [t / 32 for t in ints(-64, 64)]
    ends = [sorted((a * x + t, a * y + t)) for a, t, x, y in zip(diag, shift, *src)]
    if draw(st.booleans()):  # a target about the image, give or take 1/64
        dst = ([e[0] + n / 64 for e, n in zip(ends, ints(-2, 2))],
               [e[1] + n / 64 for e, n in zip(ends, ints(-2, 2))])
    else:
        lo = ints(-64, 64)
        dst = [x / 32 for x in lo], [(x + n) / 32 for x, n in zip(lo, ints(0, 64))]
    return src, dst, diag, shift


@settings(max_examples=300, deadline=None)
@given(_boxes_and_diagonal_maps())
def test_box_verdicts_equal_the_interval_endpoint_reference(case):
    (slo, shi), (tlo, thi), diag, shift = case
    if any(a > b for a, b in zip(tlo, thi)):
        return  # no box
    want = True
    for a, t, x, y, low, high in zip(diag, shift, slo, shi, tlo, thi):
        a, t = Fraction(a), Fraction(t)
        ends = a * Fraction(x) + t, a * Fraction(y) + t
        want &= Fraction(low) <= min(ends) and max(ends) <= Fraction(high)
    assert _one_map(Box(slo, shi), Box(tlo, thi), np.diag(diag), shift) == want


# a ball source whose image under x -> x/2 + shift touches the target's
# boundary: Lip = 1/2 halves its radius
TOUCHING = {
    # the image is B((1/2, 1/2), 1/2), which touches all four sides
    "box": (Ball((0.5, 0.5), 1.0), Box((0.0, 0.0), (1.0, 1.0)), (0.25, 0.25)),
    # B((1/2, 0), 1/2) touches the unit circle at (1, 0) from inside
    "ball": (Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0), 1.0), (0.5, 0.0)),
    # B((1/2, 1/2), 1/2) is the incircle of the 3-4-5 triangle halved
    "polygon": (Ball((1.0, 1.0), 1.0), Polygon(((0.0, 0.0), (2.0, 0.0), (0.0, 1.5))),
                (0.0, 0.0)),
}


@pytest.mark.parametrize("target", TOUCHING)
def test_a_ball_source_touching_the_boundary_is_inside(target):
    src, dst, shift = TOUCHING[target]
    half = np.eye(2) / 2
    assert _one_map(src, dst, half, shift)
    moved = {}
    for axis, way in itertools.product((0, 1), (-math.inf, math.inf)):
        nudged = list(shift)
        nudged[axis] = math.nextafter(nudged[axis], way)
        moved[axis, way > 0] = _one_map(src, dst, half, nudged)
    # one ulp in any direction leaves the box and the triangle; inside the
    # unit disc only a move towards its centre stays in
    assert moved == {key: target == "ball" and key == (0, False) for key in moved}


def test_a_point_set_target_holds_only_one_point_images():
    corners = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    square = Box((0.0, 0.0), (1.0, 1.0))
    assert _one_map(corners, corners, -np.eye(2), (1.0, 1.0))  # a permutation
    assert not _one_map(corners, corners, np.eye(2) / 2, (0.5, 0.5))
    # the square's corners land on listed points, but not the square
    assert not _one_map(square, corners, np.eye(2) / 2, (0.5, 0.5))
    assert _one_map(square, corners, np.zeros((2, 2)), (0.0, 1.0))
    assert not _one_map(Ball((0.5, 0.5), 0.5), corners, np.eye(2) / 2, (0.0, 0.0))
    assert _one_map(Ball((0.5, 0.5), 0.5), corners, np.zeros((2, 2)), (1.0, 1.0))


@pytest.mark.parametrize("y, order", [(math.nextafter(2.0, 3.0), [0, 1, 2]),
                                      (math.nextafter(2.0, 1.0), [2, 1, 0])])
def test_a_triangle_one_ulp_from_collinear_is_kept_in_ccw_order(y, order):
    corners = [(0.0, 0.0), (1.0, 1.0), (2.0, y)]
    assert Polygon(corners).corners.tolist() == [list(corners[i]) for i in order]
    with pytest.raises(ValueError, match="repeated or collinear"):
        Polygon([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


# a pentagram: the corners of a regular pentagon in the order 0, 2, 4, 1, 3
# turn left at every corner, but the sides wind twice
_PENTAGON = [(math.cos(math.pi / 2 + 2 * math.pi * i / 5),
              math.sin(math.pi / 2 + 2 * math.pi * i / 5)) for i in range(5)]
_STAR = [_PENTAGON[i] for i in (0, 2, 4, 1, 3)]


@pytest.mark.parametrize("corners", [_STAR, _STAR[::-1]], ids=["ccw", "cw"])
def test_a_star_polygon_is_not_convex(corners):
    with pytest.raises(ValueError, match="^polygon is not convex$"):
        Polygon(corners)
    for order in (_PENTAGON, _PENTAGON[::-1]):
        assert len(Polygon(order).corners) == 5


def test_a_turn_that_rounds_to_zero_in_floats_is_decided_exactly():
    # the turn at (1, 3) is 1 - 3 * fl(1/3) = 2^-54 > 0 exactly, while
    # 3 * fl(1/3) rounds to 1.0
    third = 1 / 3
    assert 3 * third == 1.0 and 1 - 3 * Fraction(third) == Fraction(1, 2**54)
    corners = [(0.0, 0.0), (1.0, 3.0), (third, 1.0)]
    assert Polygon(corners).corners.tolist() == [list(c) for c in corners]


def test_missing_generator_is_structural():
    sys = shipped("t0")
    gens = dict(sys.generators)
    del gens["r"]
    sys.generators = gens
    rep = validate_system(sys)
    assert [f for f in rep.findings if f.kind == "structural"]
    assert "missing-map" in rep.codes()


# ---------------------------------------------------------------------------
# coverage checks


def _fiber_tuple(sys, pitch):
    return SetTuple.from_fibers(sys, pitch)


def test_k_surjective_square_tiling():
    sys = shipped("p2")
    h = 1 / 64
    sets = _fiber_tuple(sys, h)
    dist = coverage_distances(sys, (1, 1), sets)
    assert max(dist.values()) <= 2 * h, dist


def test_k_surjective_gasket_attractor():
    from kfractal.attractor import compute_attractor

    sys = shipped("s1")
    h = 1 / 128
    start = _fiber_tuple(sys, h)
    gasket, cert = compute_attractor(sys, (1,), start)
    assert cert.converged
    dist = coverage_distances(sys, (1,), gasket)
    assert max(dist.values()) <= 2 * h, dist


def test_k_surjective_fails_on_full_triangle_depth5():
    sys = shipped("s1")
    h = 1 / 128
    sets = _fiber_tuple(sys, h)
    dist = coverage_distances(sys, (5,), sets)
    assert max(dist.values()) > 2 * h
    # the central hole of the gasket is macroscopic
    assert max(dist.values()) > 0.05


def test_k_dense_matches_surjective_and_onto_generator():
    sys = shipped("p2")
    h = 1 / 64
    sets = _fiber_tuple(sys, h)
    # at a fixed grid resolution image density and image equality cannot be
    # told apart, so k-density is checked by coverage_distances itself
    dens = coverage_distances(sys, (1, 0), sets)
    # the two half-width strips tile the square, so degree (1,0) passes
    assert max(dens.values()) <= 2 * h, dens


def test_k_surjective_flags_empty_cloud():
    sys = shipped("t0")
    sets = SetTuple.from_points(1 / 64, {"v": np.empty((0, 1))})
    dist = coverage_distances(sys, (1, 1), sets)
    assert dist == {"v": math.inf}
    assert max(dist.values()) > 1.0
