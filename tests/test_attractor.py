"""Grid clouds, set-valued iteration, certificates."""

import collections
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfractal import _kernels, attractor
from kfractal.attractor import (
    BLOCK_ROWS,
    Operator,
    SetTuple,
    _canonical,
    _children,
    _Rows,
    _union,
    collage_bound,
    compute_attractor,
    contraction_factor,
    grid_slack,
    hausdorff_distance,
    hutchinson_step,
    refine_attractor,
    snap_slack,
    start_grids,
    tuple_distance,
)
from kfractal.boxcount import dimension_estimate, occupied_cells
from kfractal.exact import round_up
from kfractal.io import system_from_dict
from kfractal.kgraph import KGraph, enumerate_paths
from kfractal.systems import (
    AffineMap,
    Box,
    MetricFiber,
    MWSystem,
    degree_maps,
    extend_map,
    float_bits,
    grid_indices,
    lipschitz_bound,
    validate_system,
)
from perfbench.generate import product_system

from oracles import check_commutation
from shipped import LOPSIDED, shipped


# ---------------------------------------------------------------------------
# SetTuple representation


def test_settuple_canonical_order_and_dedup():
    pts = {"v": np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])}
    s = SetTuple.from_points(0.25, pts)
    assert s.clouds["v"].tolist() == [[0, 0], [2, 2]]


@pytest.mark.parametrize("block", [7, BLOCK_ROWS])
def test_from_points_snaps_blocks_to_the_rows_of_the_whole_cloud(monkeypatch, block):
    # three blocks and a bit of real points, negative coordinates and
    # repeated cells included, snapped a block at a time
    rng = np.random.default_rng(block)
    pitch = 0.1
    pts = rng.normal(0, 2, size=(3 * BLOCK_ROWS + 5, 2))
    pts[::3] = pts[1::3]
    monkeypatch.setattr(attractor, "BLOCK_ROWS", block)
    got = SetTuple.from_points(pitch, {"v": pts, "w": pts[:1], "e": np.empty((0, 2))})
    whole = np.rint(pts / pitch).astype(np.int64)
    assert np.array_equal(got.clouds["v"], np.unique(whole, axis=0))
    assert np.array_equal(got.clouds["w"], whole[:1])
    assert got.clouds["e"].shape == (0, 2)
    _assert_stored_form(got)


def test_settuple_equality_ignores_input_order():
    a = SetTuple.from_points(0.5, {"v": np.array([[0.0], [1.0]])})
    b = SetTuple.from_points(0.5, {"v": np.array([[1.0], [0.0]])})
    assert a == b


def test_settuple_grid_mismatch_detected():
    # the grid is the pitch and the width of the rows
    a = SetTuple.from_points(0.5, {"v": np.array([[0.0]])})
    b = SetTuple.from_points(0.25, {"v": np.array([[0.0]])})
    c = SetTuple.from_points(0.5, {"v": np.array([[0.0, 0.0]])})
    assert a.dim == b.dim == 1 and c.dim == 2
    assert a.same_grid(SetTuple(0.5, {"w": np.empty((0, 1))}))
    for other in (b, c):
        assert not a.same_grid(other) and a != other
        with pytest.raises(ValueError, match="grid mismatch"):
            tuple_distance(a, other)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_canonical_and_occupied_cells_match_unique_rows(d):
    # seeded lattices with negative coordinates and many duplicates
    rng = np.random.default_rng(40 + d)
    lattice = rng.integers(-25, 20, size=(3000, d))
    assert np.array_equal(_canonical(lattice), np.unique(lattice, axis=0))
    for factor in (1, 2, 3, 8):
        coarse = np.floor_divide(lattice, factor)
        assert occupied_cells(lattice, factor) == len(np.unique(coarse, axis=0))


def test_canonical_wide_spans_match_unique_rows():
    def span_product(lattice):
        return float(np.prod(lattice.max(axis=0) - lattice.min(axis=0).astype(float) + 1.0))

    rng = np.random.default_rng(3)
    base = rng.integers(-3, 3, size=(500, 3))
    # a box far too large for an occupancy window, with a span just below
    # 2**62, is sorted by its flat cells; boxes past it, which int64 cannot
    # number, are refused; every row lies inside the int32 range
    near = base[:, :2] * np.array([2**29, 2**28])
    assert 2**61 < span_product(near) < 2**62
    assert np.array_equal(_canonical(near), np.unique(near, axis=0))
    assert occupied_cells(near, 4) == len(np.unique(near // 4, axis=0))
    past = base * np.array([2**29, 2**29, 2**4])
    wider = base * np.array([2**29, 2**29, 2**29])
    assert 2**62 < span_product(past) < span_product(wider)
    assert np.abs(wider).max() < 2**31
    for lattice in (past, wider):
        with pytest.raises(ValueError, match=r"2\*\*62"):
            _canonical(lattice)
        with pytest.raises(ValueError, match=r"2\*\*62"):
            SetTuple(1.0, {"v": lattice})
    assert occupied_cells(np.empty((0, 2), dtype=np.int64)) == 0


@st.composite
def _lattice_rows(draw):
    # per-axis spans of 1 to 13 cells over up to 40 rows: boxes from under
    # one cell per row (d = 1) to 2197 cells for a few rows (d = 3), so both
    # the occupancy window and the row sort run; offsets reach both ends of
    # the int32 range
    d = draw(st.integers(1, 3))
    spans = draw(st.lists(st.integers(0, 12), min_size=d, max_size=d))
    lo = draw(st.lists(st.integers(-(2**31), 2**31 - 13), min_size=d, max_size=d))
    axes = [st.integers(a, a + s) for a, s in zip(lo, spans)]
    rows = draw(st.lists(st.tuples(*axes), min_size=1, max_size=40))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_lattice_rows())
def test_canonical_equals_unique_rows(rows):
    out = _canonical(rows)
    assert out.dtype == np.int32
    assert out.flags.c_contiguous
    assert np.array_equal(out, np.unique(rows, axis=0))


@st.composite
def _rows_near_the_int32_ends(draw):
    # per axis, indices within 4 of -(2**31 - 1) or of 2**31 - 1, the int32
    # limits included; at most one axis takes both ends, so its box spans
    # the whole int32 range and is sorted, not windowed
    d = draw(st.integers(1, 3))
    both = draw(st.integers(0, d))  # d: no axis takes both ends
    top = 2**31 - 1
    low, high = st.integers(-top - 1, -top + 4), st.integers(top - 4, top)
    axes = [st.one_of(low, high) if j == both else draw(st.sampled_from([low, high]))
            for j in range(d)]
    rows = draw(st.lists(st.tuples(*axes), min_size=1, max_size=40))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_rows_near_the_int32_ends())
def test_canonical_near_the_int32_ends_equals_unique_rows(rows):
    out = _canonical(rows)
    assert out.dtype == np.int32 and out.flags.c_contiguous
    assert np.array_equal(out, np.unique(rows, axis=0))


def _spy_allocations(monkeypatch):
    # the shapes of the arrays np.empty and np.zeros allocate
    made = []
    for name in ("empty", "zeros"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda shape, *a, _real=real, **k:
                            made.append(shape) or _real(shape, *a, **k))
    return made


@pytest.mark.parametrize("rows", [
    [[2**31 - 2], [2**31]],
    [[-(2**31) - 1], [-(2**31) + 3]],
    [[5, 2**31 - 1], [6, 2**31]],
    [[-(2**31) - 1, 0, 0], [-(2**31), 0, 1]],
])
def test_union_refuses_a_box_outside_int32_before_allocating(monkeypatch, rows):
    # a few cells, one of them a step past an end of the int32 range that
    # the stored rows hold: refused before a key, a window or a row exists
    lattice = np.array(rows, dtype=np.int64)
    made = _spy_allocations(monkeypatch)
    with pytest.raises(ValueError, match="outside the int32 range"):
        _union([_Rows(lattice)])
    with pytest.raises(ValueError, match="outside the int32 range"):
        SetTuple(1.0, {"v": lattice})
    monkeypatch.undo()
    assert made == []
    # the 2**62 check comes first
    with pytest.raises(ValueError, match=r"2\*\*62"):
        _canonical(np.array([[-(2**40), 0], [2**40, 2**30]]))
    # the whole int32 range is held
    ends = np.array([[2**31 - 1, 0], [-(2**31), 7], [2**31 - 1, 0]])
    assert _canonical(ends).tolist() == [[-(2**31), 7], [2**31 - 1, 0]]


def _spy_windows(monkeypatch):
    # the sizes of the boolean arrays np.zeros allocates: the occupancy window
    # of _union is one, and its sort branch allocates none
    windows = []
    zeros = np.zeros

    def spy(shape, dtype=float, *args, **kwargs):
        if np.dtype(dtype) == bool:
            windows.append(shape)
        return zeros(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", spy)
    return windows


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("cells_per_row, sorts", [(16, False), (17, True)])
def test_canonical_scatters_up_to_sixteen_cells_per_row(monkeypatch, d, cells_per_row, sorts):
    # 8 rows, two of them the corners of a box of exactly cells_per_row * 8
    # cells, one duplicated, all coordinates negative
    shape = (2,) * (d - 1) + (cells_per_row * 8 // 2 ** (d - 1),)
    lo = np.full(d, -50)
    rng = np.random.default_rng(d)
    inside = lo + rng.integers(0, shape, size=(5, d))
    rows = np.vstack([lo + np.array(shape) - 1, inside, lo, inside[:1]])
    assert len(rows) == 8 and math.prod(shape) == cells_per_row * len(rows)
    windows = _spy_windows(monkeypatch)
    out = _canonical(rows)
    monkeypatch.undo()
    assert windows == ([] if sorts else [math.prod(shape)])
    assert out.flags.c_contiguous
    assert np.array_equal(out, np.unique(rows, axis=0))


def test_rows_and_points_are_c_contiguous():
    # the stored rows are C-contiguous; an np.argwhere read-back would be
    # F-ordered and still compare equal
    sys_ = shipped("p2")
    start = SetTuple.from_fibers(sys_, 1 / 64)
    step = hutchinson_step(sys_, sys_.diagonal_degree, start)
    for sets in (start, step):
        for v in sets.vertices():
            assert len(sets.clouds[v]) > 1000
            assert sets.clouds[v].flags.c_contiguous
            assert sets.points(v).flags.c_contiguous


def test_occupied_cells_and_dimension_estimate():
    rng = np.random.default_rng(8)
    lattice = rng.integers(-50, 50, size=(2000, 2))
    s = SetTuple(0.25, {"v": lattice, "w": lattice[:10]})
    assert occupied_cells(s.clouds["v"], 4) == len(np.unique(lattice // 4, axis=0))
    n_fine = len(np.unique(lattice, axis=0))
    n_coarse = len(np.unique(lattice // 2, axis=0))
    assert dimension_estimate(s, "v") == math.log(n_fine / n_coarse) / math.log(2)


def test_vertex_distances_match_per_vertex_hausdorff():
    sys = shipped("p2c")
    h = 1 / 81
    C0 = SetTuple.from_fibers(sys, h)
    K, _ = compute_attractor(sys, sys.diagonal_degree, C0)
    got = K.vertex_distances(C0, sys.metric)
    assert got == {v: hausdorff_distance(K.points(v), C0.points(v), sys.metric) for v in K.clouds}
    assert max(got.values()) > 0
    assert K.vertex_distances(K, sys.metric) == {v: 0.0 for v in K.clouds}
    with pytest.raises(ValueError, match="vertex sets differ"):
        K.vertex_distances(SetTuple(K.pitch, {"elsewhere": np.zeros((1, K.dim))}))


@pytest.mark.parametrize("build", ["rows", "points"])
def test_set_tuple_refuses_clouds_of_different_widths(build):
    # refused at construction: a distance over mismatched columns would be
    # measured wrong without an error
    make = SetTuple if build == "rows" else SetTuple.from_points
    with pytest.raises(ValueError, match="at 'v' and 'w' have rows of widths 2 and 3"):
        make(1.0, {"v": np.zeros((2, 2)), "e": np.zeros((0, 1)), "w": np.zeros((3, 3))})
    with pytest.raises(ValueError, match="the cloud at 'w' is not 2-d"):
        make(1.0, {"v": np.zeros((2, 2)), "w": np.zeros((1, 2, 2))})
    # an empty cloud takes the others' width, wherever it is listed
    for clouds in ({"e": np.zeros((0, 3)), "v": np.zeros((2, 2))},
                   {"v": np.zeros((2, 2)), "e": np.zeros((0, 3))}):
        sets = make(1.0, clouds)
        assert sets.dim == 2 and sets.clouds["e"].shape == (0, 2)
        assert sets.clouds["e"].dtype == np.int32
    # with no nonempty cloud, the width is the first cloud's
    assert make(1.0, {"e": np.zeros((0, 3)), "f": np.zeros((0, 1))}).dim == 3
    assert SetTuple(1.0, {}).dim == 0


def test_vertex_distances_name_an_empty_cloud():
    A = SetTuple(1.0, {"u": [[0, 0]], "w": np.zeros((0, 2))})
    B = SetTuple(1.0, {"u": [[0, 0]], "w": [[1, 1]]})
    for x, y in ((A, B), (B, A)):
        with pytest.raises(ValueError, match="empty cloud at vertex 'w'"):
            x.vertex_distances(y)
    assert A.vertex_distances(A) == {"u": 0.0, "w": 0.0}


@pytest.fixture
def transforms(monkeypatch):
    """The metric of each row walk run (one per block of source cells
    outside the other cloud, in each direction)."""
    calls = []
    farthest = attractor._farthest

    def spy(cells, index, shape, metric, floor):
        calls.append(metric)
        return farthest(cells, index, shape, metric, floor)

    monkeypatch.setattr(attractor, "_farthest", spy)
    return calls


def _lattice_pair(d, kind, seed):
    """Two seeded lattice clouds around the origin, negative coordinates
    included, dense in their joint box."""
    side = {1: 400, 2: 40, 3: 12}[d]
    rng = np.random.default_rng(seed)

    def cloud(n):
        return rng.integers(-side // 2, side // 2, size=(n, d))

    a = cloud(side**d // 4)
    if kind == "nested":
        b = a[: len(a) // 3]
    elif kind == "disjoint":
        b = cloud(side**d // 4)
        b[:, 0] += side
    elif kind == "point":
        b = cloud(1) + rng.integers(-2, 3, size=(1, d))
    elif kind == "points":
        a = cloud(1)
        b = a + rng.integers(-3, 4, size=(1, d))
    else:
        b = cloud(side**d // 4)
    return a, b


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("metric", ["euclidean", "max"])
@pytest.mark.parametrize("kind", ["overlapping", "nested", "disjoint", "point", "points"])
@pytest.mark.parametrize("dyadic", [True, False])
def test_lattice_distances_match_brute_force(transforms, d, metric, kind, dyadic):
    a, b = _lattice_pair(d, kind, seed=10 * d + len(kind))
    pitch = 2.0**-5 if dyadic else 0.3
    A = SetTuple(pitch, {"v": a})
    B = SetTuple(pitch, {"v": b})
    assert A != B
    got = A.vertex_distances(B, metric)["v"]
    # measured on the rows, not on points()
    assert transforms and set(transforms) == {metric}
    pa, pb = A.points("v"), B.points("v")
    want = max(
        _kernels.directed_max_min(pa, pb, metric), _kernels.directed_max_min(pb, pa, metric)
    )
    if dyadic:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_far_apart_points_are_measured_from_their_rows(d, metric):
    # one point each, 10**9 apart along up to two axes: their joint box holds
    # up to 10**18 cells, but only the two rows are read
    far = np.array([10**9, -(10**9), 0][:d])
    A = SetTuple(1.0, {"v": np.zeros((1, d), dtype=np.int64)})
    B = SetTuple(1.0, {"v": far[None]})
    tracemalloc.start()
    try:
        got = A.vertex_distances(B, metric)["v"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _kernels.directed_max_min(A.points("v"), B.points("v"), metric)
    assert got == math.sqrt(min(d, 2) * 10**18) if metric == "euclidean" else got == 10**9
    assert peak < 32 << 10, peak


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_squares_past_int64_are_exact(metric):
    # one cell 2**40 along the long axis and one across from the other: the
    # squared distance, 2**80 + 1, is past int64 and is summed in Python
    # integers
    a, b = np.array([[0, 0]]), np.array([[1, 2**40]])
    shape, ka, kb = attractor._joint_keys(a, b)
    assert shape == (2, 2**40 + 1)
    assert attractor._directed_cells(ka, kb, shape, metric) == (
        2**80 + 1 if metric == "euclidean" else 2**40)
    assert attractor._lattice_distance(a, b, metric) == _kernels.directed_max_min(a, b, metric)


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_a_box_past_int64_keys_is_refused(metric):
    # 10**9 apart along three axes: 10**27 cells, which int64 cannot number
    A = SetTuple(1.0, {"v": np.zeros((1, 3), dtype=np.int64)})
    B = SetTuple(1.0, {"v": np.full((1, 3), 10**9)})
    with pytest.raises(ValueError, match=r"joint box has more than 2\*\*62 cells"):
        A.vertex_distances(B, metric)


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_full_lattice_against_one_cell_walks_one_row(transforms, metric):
    # the full 513 x 513 lattice against one cell of it: each of the other
    # 263,168 cells has one occupied row to visit, so the walk ends after one
    # row per block of cells
    lattice = np.indices((513, 513)).reshape(2, -1).T
    one = np.array([[100, 400]])
    A = SetTuple(1.0, {"v": lattice})
    B = SetTuple(1.0, {"v": one})
    corner = np.array([512, 0]) - one[0]
    want = math.sqrt((corner**2).sum()) if metric == "euclidean" else float(abs(corner).max())
    assert A.vertex_distances(B, metric) == {"v": want}
    assert len(transforms) == -(-(513**2 - 1) // BLOCK_ROWS)


def test_vertex_distances_reject_unknown_metric(transforms):
    # equal clouds short-circuit and unequal ones take the window; neither
    # may read the name as a known metric
    a = np.array([[0, 0], [3, 4]])
    A = SetTuple(1.0, {"v": a})
    B = SetTuple(1.0, {"v": a[:1]})
    for other in (A, B):
        with pytest.raises(ValueError, match="unknown metric 'taxicab'"):
            A.vertex_distances(other, "taxicab")
    assert transforms == []
    assert A.vertex_distances(B, "max") == {"v": 4.0}
    # one direction: B's one cell lies inside A, so only A's cell (3, 4) is measured
    assert transforms == ["max"]


def _box_cells(rng, shape, n):
    """n distinct cells of a box at the origin, as sorted int64 rows."""
    flat = np.sort(rng.choice(math.prod(shape), size=n, replace=False))
    return np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)


def _dense_pair(draw, rng, d):
    """Two lattice clouds of a box of up to 500, 40 x 40 or 12 x 12 x 12
    cells at the origin, together holding at least one cell in 16."""
    shape = tuple(draw(st.lists(st.integers(1, {1: 500, 2: 40, 3: 12}[d]),
                                min_size=d, max_size=d)))
    cells = math.prod(shape)
    need = -(-cells // 16)
    kind = draw(st.sampled_from(["random", "nested", "single", "edges", "apart"]))
    if kind == "random":
        return (_box_cells(rng, shape, draw(st.integers(-(-need // 2), cells))),
                _box_cells(rng, shape, draw(st.integers(-(-need // 2), cells))))
    if kind == "nested":  # one direction has no cell outside the other cloud
        a = _box_cells(rng, shape, draw(st.integers(need, cells)))
        return a, a[np.sort(rng.choice(len(a), size=draw(st.integers(1, len(a))), replace=False))]
    if kind == "single":  # one cell against a cloud, or against one cell
        return (_box_cells(rng, shape, 1),
                _box_cells(rng, shape, draw(st.integers(max(1, need - 1), cells))))
    grid = np.stack(np.unravel_index(np.arange(cells), shape), axis=1).astype(np.int64)
    if kind == "edges":  # every cell on the box's faces, corners included
        a = grid[((grid == 0) | (grid == np.array(shape) - 1)).any(axis=1)]
        return a, _box_cells(rng, shape, draw(st.integers(max(1, need - len(a)), cells)))
    # full slabs at both ends of the first axis, up to n0 - 2 cells apart
    t = draw(st.integers(max(1, -(-shape[0] // 32)), max(1, shape[0] // 2)))
    return grid[grid[:, 0] < t], grid[grid[:, 0] >= shape[0] - t]


@st.composite
def _lattice_pairs(draw):
    # two lattice clouds in a box of up to 500, 40 x 40 and 12 x 12 x 12
    # cells holding at least one cell in 16 of it, each axis then stretched
    # by up to 2**16, or a few cells anywhere in a box of up to 2**60 cells;
    # so boxes reach past 2**24 cells, with squared distances that floats
    # still sum exactly.  The clouds are shifted to negative and positive
    # coordinates
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 5)) == 0:  # a few cells each, far apart
        side = 2 ** min(26, 60 // d)
        a = rng.integers(0, side, size=(draw(st.integers(1, 30)), d))
        b = rng.integers(0, side, size=(draw(st.integers(1, 30)), d))
    else:
        a, b = _dense_pair(draw, rng, d)
        stretch = np.array(draw(st.lists(st.sampled_from([1, 1, 3, 1 << 16]),
                                         min_size=d, max_size=d)))
        a, b = a * stretch, b * stretch
    if draw(st.booleans()):
        a, b = b, a
    shift = np.array(draw(st.lists(st.integers(-300, 300), min_size=d, max_size=d)))
    return a + shift, b + shift


# the cell (0, 0) meets (1, 4) in the nearest row, at 17, and (4, 0) only in
# the row 4 away, at 16: it is settled only once no row whose bound is below
# its 17 is left
_LATE_RING = np.array([[0, 0], [1, 4], [4, 0]]), np.array([[1, 4], [4, 0]])


@settings(max_examples=300, deadline=None)
@given(_lattice_pairs(), st.sampled_from(["euclidean", "max"]), st.integers(-8, 8))
@example(_LATE_RING, "euclidean", 0)
@example((np.array([[0, 0], [4097, 1]]), np.array([[4096, 4096], [1, 4097]])), "euclidean", 0)
def test_lattice_distance_equals_brute_force(pair, metric, k):
    a, b = pair
    pitch = 2.0**k
    got = attractor._lattice_distance(a, b, metric)
    assert got is not None
    pa, pb = pitch * a.astype(float), pitch * b.astype(float)
    want = max(
        _kernels.directed_max_min(pa, pb, metric), _kernels.directed_max_min(pb, pa, metric)
    )
    assert pitch * got == want
    assert attractor._lattice_distance(b, a, metric) == got


def _default_pitch(sys_):
    return max(f.diameter() for f in sys_.fibers.values()) / 512


def test_max_iter_run_measures_its_last_step_exactly(monkeypatch):
    sys_ = shipped("s1")
    C0 = SetTuple.from_fibers(sys_, _default_pitch(sys_))
    measured = []
    measure = attractor.tuple_distance
    monkeypatch.setattr(attractor, "tuple_distance",
                        lambda *args: measured.append(args) or measure(*args))
    K, cert = compute_attractor(sys_, (1,), C0, max_iter=3)
    monkeypatch.undo()
    assert not cert.converged
    assert len(measured) == 1  # the last step only
    prev = hutchinson_step(sys_, (1,), hutchinson_step(sys_, (1,), C0))
    exact = tuple_distance(prev, K, sys_.metric)
    assert exact > 0
    assert cert.displacement == exact
    assert cert.error_bound == collage_bound(cert.contraction, cert.eps, exact)
    assert f"displacement={exact:.6g} " in cert.summary()


def test_collage_bound_above_the_float_range_is_inf():
    top = sys.float_info.max
    assert round_up(Fraction(top)) == top
    assert round_up(Fraction(top) + 1) == math.inf
    assert round_up(Fraction(2) ** 1100) == math.inf
    # s1 at pitch 1.7e308 has eps about 1.2e308, and eps/(1 - 1/2) is above
    # the float range
    assert collage_bound(0.5, 1.2e308) == math.inf


def _fiber_systems():
    from perfbench.generate import product_system

    from kfractal.io import system_from_dict

    systems = {name: shipped(name) for name in ("s1", "p2", "p2c", "t0", "f3")}
    systems["generated"] = system_from_dict(product_system(5))
    return systems


@pytest.mark.parametrize("pitch", [1 / 512, 1 / 81])
def test_from_fibers_rows_equal_snapped_grid_points(pitch):
    # the integer mesh rows are kept; snapping the real grid points gives them back
    for name, sys_ in _fiber_systems().items():
        got = SetTuple.from_fibers(sys_, pitch)
        want = SetTuple.from_points(pitch, {
            v: pitch * grid_indices(f.region, pitch) for v, f in sys_.fibers.items()
        })
        assert got == want, name
        for v, rows in got.clouds.items():
            assert rows.dtype == np.int32 and rows.flags.c_contiguous and len(rows), name


def test_from_fibers_fills_regions():
    sys = shipped("p2")
    s = SetTuple.from_fibers(sys, 0.25)
    assert len(s.clouds["v"]) == 25


# ---------------------------------------------------------------------------
# one application of the operator


def test_step_t0_diagonal_quarters_interval():
    sys = shipped("t0")
    h = 1 / 256
    C = SetTuple.from_fibers(sys, h)
    out = hutchinson_step(sys, (1, 1), C)
    # z -> z/4 sends the unit grid onto the [0, 1/4] grid
    expected = np.rint(np.arange(257) / 4.0).astype(np.int64)
    assert out.clouds["v"].ravel().tolist() == sorted(set(expected.tolist()))


def test_step_s1_three_half_triangles():
    sys = shipped("s1")
    h = 1 / 64
    C = SetTuple.from_fibers(sys, h)
    out = hutchinson_step(sys, (1,), C)
    pts = out.points("v")
    corners = np.array(sys.fibers["v"].region.corners)
    # every output point sits in one of the three half-scale triangles
    slack = h
    inside_any = np.zeros(len(pts), dtype=bool)
    for c in corners:
        local = (pts - c / 2.0) * 2.0
        from kfractal.systems import Polygon

        inside_any |= Polygon(corners).contains(local, tol=4 * slack)
    assert inside_any.all()
    # and the image is strictly smaller than the full triangle
    assert len(pts) < len(C.points("v"))


def _reference_step(C, maps):
    # the step as it was: snap the union of every point's float image
    return SetTuple.from_points(C.pitch, {
        v: np.concatenate([m.apply(C.points(src)) for m, src in rows if len(C.clouds[src])])
        for v, rows in maps.items()
    })


def _assert_stored_form(sets):
    for rows in sets.clouds.values():
        assert rows.dtype == np.int32 and rows.ndim == 2
        assert rows.flags.c_contiguous
        pairs = zip(rows.tolist(), rows[1:].tolist())
        assert all(a < b for a, b in pairs)  # sorted and duplicate-free


def _bare_system(*vertices):
    # hutchinson_step reads only the graph's vertices once it is given maps
    loops = [(f"e{v}", v, v) for v in vertices]
    return MWSystem(KGraph(1, list(vertices), {1: loops}), {}, {}, ratio=0.5)


_RATIOS = (0.5, -0.5, 1 / 3, -1 / 3, 0.25, -2 / 3, 0.7, 0.0)


@st.composite
def _step_inputs(draw):
    # two vertices on a lattice of a dyadic or non-dyadic pitch; per
    # vertex, one to four maps from either vertex,
    # diagonal (reflections and ratios like 1/3 included) or not, shifted by
    # half cells, which put images on rounding ties, or by any amount; spans
    # of up to 60 cells over up to 40 rows make both dense and sparse unions
    d = draw(st.integers(1, 3))
    pitch = draw(st.sampled_from([1 / 64, 1 / 81, 0.1, 1 / 3]))
    clouds = {}
    for v in ("u", "w"):
        lo = draw(st.lists(st.integers(-100, 100), min_size=d, max_size=d))
        spans = draw(st.lists(st.integers(0, 60), min_size=d, max_size=d))
        axes = [st.integers(a, a + s) for a, s in zip(lo, spans)]
        clouds[v] = np.array(draw(st.lists(st.tuples(*axes), min_size=1, max_size=40)))
    entry = st.floats(-1, 1, allow_nan=False).map(lambda x: round(x, 3))
    maps = {}
    for v in ("u", "w"):
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                matrix = np.diag(draw(st.lists(st.sampled_from(_RATIOS), min_size=d, max_size=d)))
            else:
                matrix = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                                min_size=d, max_size=d)))
            half_cells = st.integers(-12, 12).map(lambda i: i * pitch / 2)
            shift = draw(st.lists(st.one_of(entry, half_cells), min_size=d, max_size=d))
            src = draw(st.sampled_from(("u", "w")))
            rows.append((AffineMap.of(matrix, shift), src))
        maps[v] = rows
    return SetTuple(pitch, clouds), maps


@settings(max_examples=300, deadline=None)
@given(_step_inputs())
def test_step_equals_snapped_union_of_affine_images(inputs):
    C, maps = inputs
    out = hutchinson_step(_bare_system("u", "w"), (1,), C, _maps=maps)
    assert out == _reference_step(C, maps)
    _assert_stored_form(out)


@pytest.mark.parametrize("d, diagonal", [(1, True), (2, True), (2, False), (3, True), (3, False)])
@pytest.mark.parametrize("spread, sorts", [(1, False), (1000, True)])
def test_step_sorts_sparse_unions(monkeypatch, d, diagonal, spread, sorts):
    # two reflected (and, off the diagonal, sheared) copies of a 3^d block,
    # overlapping or so far apart that their box has over 16 cells per row
    C = SetTuple(1 / 3, {"v": np.indices((3,) * d).reshape(d, -1).T})
    matrix = -np.eye(d)
    if not diagonal:
        matrix[0, -1] = 1 / 3
    maps = {"v": [(AffineMap.of(matrix, np.zeros(d)), "v"),
                  (AffineMap.of(matrix, np.full(d, spread / 3)), "v")]}
    windows = _spy_windows(monkeypatch)
    out = hutchinson_step(_bare_system("v"), (1,), C, _maps=maps)
    monkeypatch.undo()
    assert len(windows) == (0 if sorts else 1)
    assert out == _reference_step(C, maps)
    _assert_stored_form(out)


def test_step_peak_memory_is_its_rows():
    # one step of p2's start grid at its default pitch, 263,169 rows: whole
    # cloud key columns, gathers and read-backs once peaked at 14.1 MiB over
    # 4.0 MiB of int64 output; the blocked passes hold the output and a
    # window, and the rows are int32
    sys_ = shipped("p2")
    h = max(f.diameter() for f in sys_.fibers.values()) / 512.0
    start = SetTuple.from_fibers(sys_, h)
    tracemalloc.start()
    try:
        step = hutchinson_step(sys_, sys_.diagonal_degree, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_in = sum(rows.nbytes for rows in start.clouds.values())
    rows_out = sum(rows.nbytes for rows in step.clouds.values())
    assert rows_in == rows_out == 513**2 * 2 * 4
    assert peak <= rows_in + rows_out + (1 << 20), (peak, rows_in, rows_out)


def test_step_result_independent_of_evaluation_order():
    # the contract demands bit-identical output for any schedule of the
    # per-path image computations; reversing the map list must change nothing
    from kfractal.systems import degree_maps

    sys_ = shipped("p2c")
    C = SetTuple.from_fibers(sys_, 1 / 81)
    maps = degree_maps(sys_, (1, 1))
    reversed_maps = {v: list(reversed(rows)) for v, rows in maps.items()}
    a = hutchinson_step(sys_, (1, 1), C, _maps=maps)
    b = hutchinson_step(sys_, (1, 1), C, _maps=reversed_maps)
    assert a == b


def test_step_degree_zero_identity():
    sys = shipped("s1")
    C = SetTuple.from_fibers(sys, 1 / 32)
    assert hutchinson_step(sys, (0,), C) is C


def test_step_monotone_in_the_input():
    sys = shipped("s1")
    h = 1 / 64
    big = SetTuple.from_fibers(sys, h)
    small_pts = big.points("v")[::7]
    small = SetTuple.from_points(h, {"v": small_pts})
    out_small = hutchinson_step(sys, (1,), small)
    out_big = hutchinson_step(sys, (1,), big)
    big_rows = {tuple(r) for r in out_big.clouds["v"].tolist()}
    assert all(tuple(r) in big_rows for r in out_small.clouds["v"].tolist())


# ---------------------------------------------------------------------------
# convergence


def test_attractor_t0_collapses_to_origin():
    sys = shipped("t0")
    h = 1 / 256
    C0 = SetTuple.from_points(h, {"v": np.array([1.0])})
    K, cert = compute_attractor(sys, (1, 1), C0)
    assert cert.converged
    assert np.abs(K.points("v")).max() <= 4 * h + cert.error_bound


def test_attractor_unique_limit_from_far_apart_starts():
    sys = shipped("s1")
    h = 1 / 128
    tol = 2 * h
    full = SetTuple.from_fibers(sys, h)
    corner = SetTuple.from_points(h, {"v": np.array([0.0, 0.0])})
    K1, c1 = compute_attractor(sys, (1,), full)
    K2, c2 = compute_attractor(sys, (1,), corner)
    assert c1.converged and c2.converged
    gap = tuple_distance(K1, K2, sys.metric)
    assert gap <= 2 * (tol + 2 * h)


def test_attractor_fixed_point_residual():
    sys = shipped("s1")
    h = 1 / 128
    tol = 2 * h
    K, cert = compute_attractor(sys, (1,), SetTuple.from_fibers(sys, h))
    residual = tuple_distance(K, hutchinson_step(sys, (1,), K), sys.metric)
    assert residual <= tol + 2 * h


def test_attractor_cantor_product_projection_oracle():
    # x-projection of the planar ternary attractor must match a 1-d ternary
    # attractor computed by an independent rank-1 run
    sys = shipped("p2c")
    h = 1 / 243
    K, cert = compute_attractor(sys, (1, 1), SetTuple.from_fibers(sys, h))
    assert cert.converged

    g1 = KGraph(1, ["w"], {1: [("c0", "w", "w"), ("c1", "w", "w")]})
    line = MWSystem(
        g1,
        {"w": MetricFiber(Box((0.0,), (1.0,)), "euclidean")},
        {
            "c0": AffineMap.of([[1 / 3]], (0.0,)),
            "c1": AffineMap.of([[1 / 3]], (2 / 3,)),
        },
        ratio=1 / 3,
        mode="strict",
    )
    K1, cert1 = compute_attractor(line, (1,), SetTuple.from_fibers(line, h))
    assert cert1.converged
    proj = np.unique(K.clouds["v"][:, 0])
    oracle = np.unique(K1.clouds["w"][:, 0])
    dist = hausdorff_distance(
        proj[:, None] * h, oracle[:, None] * h, metric="euclidean"
    )
    assert dist <= 2 * h


def test_non_contraction_rejected():
    sys = shipped("p2")
    h = 1 / 64
    C0 = SetTuple.from_fibers(sys, h)
    # single colors do not contract in relaxed product systems; the text is
    # what `attractor --instance p2 --degree 1,0` prints
    message = r"^degree \(1, 0\) operator is not a contraction \(factor 1\)$"
    with pytest.raises(ValueError, match=message):
        Operator.of(sys, (1, 0))
    with pytest.raises(ValueError, match=message):
        compute_attractor(sys, (1, 0), C0)
    assert contraction_factor(sys, (1, 0)) == pytest.approx(1.0)


def _enumerated_contraction(sys, n):
    # every path of the degree listed, one Lipschitz bound per path map
    worst = 0.0
    for v in sys.graph.vertices:
        for lam in enumerate_paths(sys.graph, v, n):
            worst = max(worst, lipschitz_bound(extend_map(sys, lam), sys.metric))
    return worst


def _assert_operator_of(sys, n, c):
    # the record holds the listing and the factor bit for bit, and exists
    # only for a contraction
    if c >= 1.0:
        with pytest.raises(ValueError, match=r"operator is not a contraction"):
            Operator.of(sys, n)
        return
    op = Operator.of(sys, n)
    assert op.degree == n and op.contraction == c
    listed = degree_maps(sys, n)
    assert list(op.maps) == list(listed) == list(sys.graph.vertices)
    for v, rows in listed.items():
        # the walked prefix maps are extend_map of the listed paths, in order
        paths = [(extend_map(sys, lam), lam.source_vertex)
                 for lam in enumerate_paths(sys.graph, v, n)]
        for got in (op.maps[v], rows):
            assert [(float_bits(m.matrix, m.shift), src) for m, src in got] == \
                [(float_bits(m.matrix, m.shift), src) for m, src in paths]


@pytest.mark.parametrize(
    "name, degrees",
    [
        ("s1", [(0,), (1,), (3,), (7,)]),
        ("p2", [(0, 0), (1, 0), (1, 1), (2, 3), (4, 4)]),
        ("p2c", [(1, 1), (3, 2), (5, 5)]),
        ("t0", [(1, 1), (6, 6)]),
        ("f3", [(1, 1, 1), (3, 2, 1)]),
    ],
)
def test_contraction_factor_matches_enumeration(name, degrees):
    sys = shipped(name)
    for n in degrees:
        c = contraction_factor(sys, n)
        assert c == _enumerated_contraction(sys, n)
        _assert_operator_of(sys, n, c)


def _rotating_two_vertex_system(g, metric, seed):
    # a distinct scaled rotation on every edge, so few path products coincide
    rng = np.random.default_rng(seed)
    gens = {}
    for ident in g.edges:
        t, r = rng.uniform(0, 2 * np.pi), rng.uniform(0.3, 0.7)
        rot = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        gens[ident] = AffineMap.of(rot, rng.uniform(-1, 1, 2))
    fibers = {v: MetricFiber(Box((0.0, 0.0), (1.0, 1.0)), metric) for v in g.vertices}
    return MWSystem(g, fibers, gens, ratio=0.7)


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_contraction_factor_two_vertex_matches_enumeration(g_two_vertex, metric):
    sys = _rotating_two_vertex_system(g_two_vertex, metric, seed=3)
    for n in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 3)]:
        c = contraction_factor(sys, n)
        assert c == _enumerated_contraction(sys, n)
        _assert_operator_of(sys, n, c)


def test_contraction_factor_does_not_list_paths():
    # 3^45 paths; all share one linear part
    sys = shipped("s1")
    assert contraction_factor(sys, (45,)) == pytest.approx(0.5**45, rel=1e-12)


def test_max_iter_reported_not_raised():
    sys = shipped("s1")
    h = 1 / 128
    C0 = SetTuple.from_fibers(sys, h)
    K, cert = compute_attractor(sys, (1,), C0, max_iter=2)
    assert not cert.converged
    assert cert.iterations == 2
    assert cert.error_bound > 0


def test_empty_start_rejected():
    sys = shipped("s1")
    C0 = SetTuple.from_points(1 / 64, {"v": np.empty((0, 2))})
    with pytest.raises(ValueError):
        compute_attractor(sys, (1,), C0)


@st.composite
def _interval_maps(draw, least):
    """Maps x -> r*x + t with dyadic r >= least and t whose images cover
    [0, 1] without a gap, the first fixing 0 and the last fixing 1: their
    attractor is [0, 1]."""
    maps, end = [], Fraction(0)
    while True:
        r = Fraction(draw(st.integers(least, 58)), 64)
        if end + r >= 1:
            return [*maps, (r, 1 - r)]
        t = Fraction(draw(st.integers(int(128 * max(0, end - r / 2)), int(128 * end))), 128)
        maps.append((r, t))
        end = t + r


def _interval_distance(xs):
    """The directed distances from the points xs (Fractions) to [0, 1] and
    back: the farthest point outside, and the farthest point of [0, 1]
    from xs, which is 0, 1 or the middle of a gap."""
    xs = sorted(set(xs))
    out = max(max(-x, x - 1, Fraction(0)) for x in xs)
    back = [abs(y - min(xs, key=lambda x: abs(x - y))) for y in (Fraction(0), Fraction(1))]
    back += [(b - a) / 2 for a, b in zip(xs, xs[1:]) if 0 <= (a + b) / 2 <= 1]
    return out, max(back)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.sampled_from(["euclidean", "max"]), st.data())
def test_error_bound_covers_the_distance_to_an_interval_attractor(dim, metric, data):
    # products of interval systems: the attractor is [0, 1]^dim, and the
    # snapped iteration keeps a product of per-axis clouds, so the exact
    # Hausdorff distance comes from the axes' directed distances
    least, finest = (16, 8) if dim == 1 else (24, 5)
    axes = [data.draw(_interval_maps(least), label=f"axis {j}") for j in range(dim)]
    h = 2.0 ** -data.draw(st.integers(3, finest), label="pitch exponent")
    maps = list(itertools.product(*axes))
    g = KGraph(1, ["v"], {1: [(f"e{i}", "v", "v") for i in range(len(maps))]})
    gens = {f"e{i}": AffineMap.of(np.diag([float(r) for r, _ in m]), [float(t) for _, t in m])
            for i, m in enumerate(maps)}
    ratio = float(max(r for axis in axes for r, _ in axis))
    fiber = MetricFiber(Box((0.0,) * dim, (1.0,) * dim), metric)
    sys_ = MWSystem(g, {"v": fiber}, gens, ratio=ratio)
    K, cert = compute_attractor(sys_, (1,), SetTuple.from_fibers(sys_, h))
    pts = K.points("v")
    per_axis = [[Fraction(x) for x in np.unique(pts[:, j]).tolist()] for j in range(dim)]
    assert len(pts) == math.prod(len(xs) for xs in per_axis)  # a product of its axes
    out, back = zip(*(_interval_distance(xs) for xs in per_axis))
    bound = Fraction(cert.error_bound)
    if metric == "max":
        assert bound >= max(out + back)
    else:
        assert bound**2 >= max(sum(d * d for d in out), sum(d * d for d in back))


# ---------------------------------------------------------------------------
# commutation and the semigroup law


def test_commutation_degree_zero_exact():
    sys = shipped("p2")
    C = SetTuple.from_fibers(sys, 1 / 32)
    assert check_commutation(sys, (0, 0), (1, 1), C, tol=0.0)


def test_commutation_p2_unit_degrees():
    sys = shipped("p2")
    h = 1 / 128
    C = SetTuple.from_fibers(sys, h)
    assert check_commutation(sys, (1, 0), (0, 1), C, tol=2 * h)


def test_commutation_s1_powers():
    sys = shipped("s1")
    h = 1 / 128
    C = SetTuple.from_fibers(sys, h)
    assert check_commutation(sys, (1,), (2,), C, tol=2 * h)


@pytest.mark.parametrize("name,n,m", [
    ("s1", (1,), (2,)),
    ("p2", (1, 0), (1, 1)),
    ("p2c", (0, 1), (1, 1)),
    ("t0", (1, 0), (1, 1)),
])
def test_semigroup_law_within_grid_slack(name, n, m):
    sys = shipped(name)
    h = 1 / 128
    C = SetTuple.from_fibers(sys, h)
    two_steps = hutchinson_step(sys, m, hutchinson_step(sys, n, C))
    one_step = hutchinson_step(
        sys, tuple(a + b for a, b in zip(n, m)), C
    )
    assert tuple_distance(two_steps, one_step, sys.metric) <= 2 * h


def test_multi_vertex_system_end_to_end():
    # classic two-vertex interval system: each fiber is rebuilt from scaled
    # copies of both, so the fixed point genuinely couples the vertices
    g = KGraph(
        1,
        ["u", "w"],
        {1: [("uu", "u", "u"), ("uw", "u", "w"), ("wu", "w", "u")]},
    )
    sys_ = MWSystem(
        g,
        {v: MetricFiber(Box((0.0,), (1.0,)), "euclidean") for v in ("u", "w")},
        {
            "uu": AffineMap.of([[0.5]], (0.0,)),
            "uw": AffineMap.of([[0.5]], (0.5,)),
            "wu": AffineMap.of([[0.5]], (0.25,)),
        },
        ratio=0.5,
        mode="strict",
    )
    from kfractal.systems import validate_system
    assert validate_system(sys_).ok
    h = 1 / 512
    K, cert = compute_attractor(sys_, (1,), SetTuple.from_fibers(sys_, h))
    assert cert.converged
    # per-vertex fixed point equations hold on the lattice
    assert hutchinson_step(sys_, (1,), K) == K
    # the coded cloud reproduces the same pair of sets
    from kfractal.coding import coded_cloud, coded_error, compare_attractor_coding

    T2, err = coded_cloud(sys_, (10,), pitch=h), coded_error(sys_, (10,))
    assert compare_attractor_coding(sys_, K, T2, tol=4 * h + err)
    # vertex w's fiber piece is the quarter-shifted copy of u's
    shifted = (K.points("u") * 0.5 + 0.25)
    dist = hausdorff_distance(shifted, K.points("w"), "euclidean")
    assert dist <= 2 * h


def test_measured_contraction_bound():
    sys = shipped("s1")
    h = 1 / 128
    rng = np.random.default_rng(5)
    tri = SetTuple.from_fibers(sys, h)
    pool = tri.points("v")
    c = contraction_factor(sys, (1,))
    for seed in range(5):
        idx = rng.choice(len(pool), size=40, replace=False)
        jdx = rng.choice(len(pool), size=25, replace=False)
        A = SetTuple.from_points(h, {"v": pool[idx]})
        B = SetTuple.from_points(h, {"v": pool[jdx]})
        lhs = tuple_distance(
            hutchinson_step(sys, (1,), A), hutchinson_step(sys, (1,), B), sys.metric
        )
        rhs = c * tuple_distance(A, B, sys.metric) + 2 * h
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# the fixed point at a pitch, reached coarse to fine


def _instance(name):
    if name == "lopsided":
        return system_from_dict(LOPSIDED)
    if name.startswith("product"):
        return system_from_dict(product_system(int(name.removeprefix("product"))))
    return shipped(name)


def _refined(sys_, h, max_iter=64):
    return refine_attractor(sys_, sys_.diagonal_degree, h, math.inf, max_iter=max_iter)


# every shipped metric instance and the lopsided one at diameter / 128 and
# / 512, s1 at / 1024 and ten generated product systems at / 512; the 1-d
# fibers fit in one block at these pitches, so they are not refined
REFINED_CASES = [
    *((name, div) for name in ("s1", "p2", "p2c", "t0", "f3", "lopsided") for div in (128, 512)),
    ("s1", 1024),
    *((f"product{seed}", 512) for seed in range(1, 11)),
]


@pytest.mark.parametrize("name, div", REFINED_CASES)
def test_refined_fixed_point_equals_the_full_grid_one(name, div):
    # the reference iterates from the whole fiber grids at the pitch
    sys_ = _instance(name)
    h = max(f.diameter() for f in sys_.fibers.values()) / div
    K, cert = _refined(sys_, h)
    ref, ref_cert = compute_attractor(sys_, sys_.diagonal_degree, SetTuple.from_fibers(sys_, h))
    assert cert.converged and ref_cert.converged
    assert K == ref
    assert K.pitch == h and cert.pitch == h
    gate = grid_slack(sys_, h, degree_maps(sys_, sys_.diagonal_degree))
    assert cert.eps >= gate >= snap_slack(SetTuple.from_fibers(sys_, h),
                                          degree_maps(sys_, sys_.diagonal_degree), sys_.metric)
    assert cert.error_bound == ref_cert.error_bound


def test_start_grids_fit_one_block():
    # p2c's unit square at its default pitch 1/512: 129^2 = 16,641 points at
    # 4h are more than BLOCK_ROWS, 65^2 = 4225 at 8h are not
    p2c = shipped("p2c")
    h = _default_pitch(p2c)
    start = start_grids(p2c, h)
    assert h == 1 / 512 and start.pitch == 8 * h and 129**2 > BLOCK_ROWS >= 65**2
    assert start == SetTuple.from_fibers(p2c, 8 * h)
    # t0's 513 points fit at the pitch itself: the run is the unrefined one
    t0 = shipped("t0")
    assert start_grids(t0, _default_pitch(t0)) == SetTuple.from_fibers(t0, _default_pitch(t0))


def _thin_strip_system():
    """A unit square u and a strip w of height 0.0025 at y = 0.26, which
    holds lattice points of pitch 1/256 (y = 67/256) but none of 1/128."""
    g = KGraph(1, ["u", "w"], {1: [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u")]})
    return MWSystem(
        g,
        {"u": MetricFiber(Box((0.0, 0.0), (1.0, 1.0))),
         "w": MetricFiber(Box((0.0, 0.26), (1.0, 0.2625)))},
        {"a": AffineMap.of(np.eye(2) / 2, (0.0, 0.0)),
         "b": AffineMap.of(np.eye(2) / 2, (0.5, 0.5)),
         "c": AffineMap.of([[0.5, 0.0], [0.0, 0.0025]], (0.25, 0.26))},
        ratio=0.5,
    )


def test_thin_fiber_starts_where_it_holds_points():
    sys_ = _thin_strip_system()
    assert validate_system(sys_).ok
    h = 1 / 512
    # the boxes fit one block at 8h, but the strip is empty at 8h and 4h
    start = start_grids(sys_, h)
    assert start.pitch == 2 * h
    assert start == SetTuple.from_fibers(sys_, 2 * h)
    K, cert = _refined(sys_, h)
    ref, ref_cert = compute_attractor(sys_, (1,), SetTuple.from_fibers(sys_, h))
    assert cert.converged and K == ref


def test_start_grids_name_a_fiber_without_grid_points():
    sys_ = _thin_strip_system()
    with pytest.raises(ValueError, match=r"^fiber 'w': no grid point of pitch 0.125 lies in it$"):
        start_grids(sys_, 0.125)


# each refusal, with every later one also due: a fiber without grid points
# comes before a degree that does not contract, which comes before the tol
REFUSALS = [
    ("strip", (0,), 0.125, 1e-300, r"^fiber 'w': no grid point of pitch 0\.125 lies in it$"),
    ("p2", (1, 0), 2.0**-9, 1e-300,
     r"^degree \(1, 0\) operator is not a contraction \(factor 1\)$"),
    ("s1", (1,), 2.0**-9, 2.0**-9,
     r"^--tol 0\.001953125 is below 0\.002762135864014981, the least error bound the degree "
     r"\(1,\) operator \(contraction 0\.5\) can claim at pitch 0\.001953125$"),
]


@pytest.mark.parametrize("name, n, pitch, tol, message", REFUSALS)
def test_refine_attractor_refuses_before_any_step(monkeypatch, name, n, pitch, tol, message):
    def step(*args, **kw):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(attractor, "hutchinson_step", step)
    sys_ = _thin_strip_system() if name == "strip" else shipped(name)
    with pytest.raises(ValueError, match=message):
        refine_attractor(sys_, n, pitch, tol)
    # at the least bound the run is allowed, and steps
    with pytest.raises(AssertionError, match="a step was taken"):
        refine_attractor(shipped("s1"), (1,), 2.0**-9, 0.002762135864014981)


# per command: its flags, the contraction factors and degree listings it
# derives, its refined runs and the diagonal graphs it builds; coding also
# certifies its coding depth, an operator whose paths it does not list, and
# diagonal reads the collapse's pairs edge by edge from its generators, not
# from a listing, and builds the collapse and its table from one graph
DERIVATIONS = [
    ("attractor", [], 1, 1, 1, 0),
    ("coding", ["--count", "20000", "--seed", "1"], 2, 1, 1, 0),
    ("diagonal", [], 1, 1, 1, 1),
]


@pytest.mark.parametrize("name", ["s1", "p2c"])
@pytest.mark.parametrize("command, flags, contractions, listings, runs, collapses", DERIVATIONS)
def test_each_run_derives_its_operator_once(monkeypatch, tmp_path, name, command, flags,
                                            contractions, listings, runs, collapses):
    from kfractal import coding, diagonal
    from kfractal.cli import PARSE_ERROR, main

    calls = collections.Counter()

    def spy(module, fn_name, key):
        fn = getattr(module, fn_name)

        def counted(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(module, fn_name, counted)

    spy(attractor, "contraction_factor", "contraction_factor")
    spy(coding, "contraction_factor", "contraction_factor")
    spy(attractor, "degree_maps", "degree_maps")
    for fn_name in ("start_grids", "grid_slack", "compute_attractor"):
        spy(attractor, fn_name, fn_name)
    spy(diagonal, "diagonal_graph", "diagonal_graph")
    assert main([command, "--instance", name, *flags, "--out", str(tmp_path)]) != PARSE_ERROR
    assert calls == collections.Counter(
        contraction_factor=contractions, degree_maps=listings, start_grids=runs,
        grid_slack=runs, compute_attractor=runs, diagonal_graph=collapses)


def test_traced_diagonal_counts_the_printed_iterations(tmp_path):
    # perfbench/trace_child.py counts iterations at attractor.compute_attractor
    # and step inputs from the maps hutchinson_step is passed; diagonal's one
    # run must reach them, and prints its certificate as the source's and the
    # collapse's
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (root / "src", root))))
    record_path = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.trace_child", str(record_path),
         "diagonal", "--instance", "p2c", "--out", str(tmp_path / "out")],
        env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = [int(x) for x in re.findall(r"iterations=(\d+)", proc.stdout)]
    assert printed == [4, 4]
    counts = json.loads(record_path.read_text())["counts"]
    assert counts["attractor.iterations"] == printed[0]
    assert counts["attractor.hutchinson_step.points_in"] > 0


def test_children_are_clipped_to_the_fiber_or_fall_back_to_its_grid():
    p2 = shipped("p2")
    # the 3 x 3 block around an inner row, the 2 x 2 one at a corner
    inner = _children(p2, SetTuple._of_rows(1 / 64, {"v": np.array([[10, 20]])}))
    assert inner.pitch == 1 / 128
    assert inner.clouds["v"].tolist() == [[x, y] for x in (19, 20, 21) for y in (39, 40, 41)]
    corner = _children(p2, SetTuple._of_rows(1 / 64, {"v": np.array([[0, 0]])}))
    assert corner.clouds["v"].tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # a row whose children all lie outside: the whole fiber grid
    outside = _children(p2, SetTuple._of_rows(1 / 64, {"v": np.array([[1000, 1000]])}))
    assert outside == SetTuple.from_fibers(p2, 1 / 128)


def test_max_iter_bounds_each_level_and_only_the_last_sets_the_verdict(monkeypatch, tmp_path,
                                                                       capsys):
    # t0 at 2^-13 starts one level up, whose fixed point takes 8 steps; cut
    # at 4, its children still reach the last level's fixed point in 4
    from kfractal.cli import PASS, main

    t0 = shipped("t0")
    h = 2.0**-13
    runs = []
    iterate = attractor._iterate

    def spy(*args, **kw):
        prev, current, steps, converged = iterate(*args, **kw)
        runs.append((current.pitch, steps, converged))
        return prev, current, steps, converged

    monkeypatch.setattr(attractor, "_iterate", spy)
    K, cert = _refined(t0, h, max_iter=4)
    monkeypatch.undo()
    assert runs == [(2 * h, 4, False), (h, 4, True)]
    assert cert.converged and cert.iterations == 4
    argv = ["attractor", "--instance", "t0", "--pitch", repr(h), "--max-iter", "4"]
    assert main([*argv, "--out", str(tmp_path)]) == PASS
    assert "\nconverged: iterations=4 " in capsys.readouterr().out
    # s1 at its default pitch stops 3 steps into each of its 4 levels
    s1 = shipped("s1")
    K, cert = _refined(s1, _default_pitch(s1), max_iter=3)
    assert not cert.converged and cert.iterations == 3


S1_MAX_ITER_3 = """\
instance: s1
degree: (1,)
pitch: 0.001953125
NOT converged: iterations=3 displacement=0.00390625 contraction=0.5 pitch=0.00195312 \
eps=0.00138107 error_bound=0.006668385864014981
vertex v: points=29997 boxdim~1.6107
"""


def test_only_the_last_level_measures_its_displacement(monkeypatch, tmp_path, capsys):
    # s1 stops 3 steps into each of its 4 levels; the coarse levels' results
    # only seed their children, so the last level's step alone is measured
    from kfractal.cli import NO_CONVERGENCE, main

    measured = []
    measure = attractor.tuple_distance
    monkeypatch.setattr(attractor, "tuple_distance",
                        lambda *args: measured.append(args[0].pitch) or measure(*args))
    argv = ["attractor", "--instance", "s1", "--max-iter", "3", "--out", str(tmp_path)]
    assert main(argv) == NO_CONVERGENCE
    assert measured == [_default_pitch(shipped("s1"))]
    assert capsys.readouterr().out == S1_MAX_ITER_3
    assert (tmp_path / "certificate.txt").read_text() == S1_MAX_ITER_3


def test_refined_p2c_peaks_below_its_fiber_grid():
    # the fiber grid at the default pitch is 513^2 rows of two int32, 2 MiB;
    # the refined run starts from 65^2 and holds the carpet's cells
    p2c = shipped("p2c")
    h = _default_pitch(p2c)
    tracemalloc.start()
    try:
        K, cert = _refined(p2c, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.converged and len(K.clouds["v"]) == 9604
    assert peak < 513**2 * 2 * 4, peak


def test_refined_p2_peaks_below_3_5_mib():
    # p2's attractor is its whole square: 513^2 rows of two int32, 2 MiB, as
    # the result, with the step's window and blocks on top; int64 rows
    # peaked at 5.5 MiB
    p2 = shipped("p2")
    h = _default_pitch(p2)
    tracemalloc.start()
    try:
        K, cert = _refined(p2, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.converged and K.clouds["v"].nbytes == 513**2 * 2 * 4
    assert peak < 7 << 19, peak


def test_proving_step_returns_its_input():
    # p2's whole fiber grid is its fixed point; the step that shows it
    # decodes its window against the input and allocates no second cloud
    p2 = shipped("p2")
    K = SetTuple.from_fibers(p2, _default_pitch(p2))
    maps = degree_maps(p2, p2.diagonal_degree)
    tracemalloc.start()
    try:
        step = hutchinson_step(p2, p2.diagonal_degree, K, _maps=maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step.clouds["v"] is K.clouds["v"]
    assert K.clouds["v"].nbytes == 513**2 * 2 * 4 and peak < 3 << 18, peak


@pytest.mark.parametrize("spread", [300, 10**6])  # a window, a sort
@pytest.mark.parametrize("where", [None, 0, BLOCK_ROWS + 5, -1, "count"])
def test_union_returns_like_exactly_when_equal(spread, where):
    rng = np.random.default_rng(23)
    like = _canonical(rng.integers(0, spread, size=(3 * BLOCK_ROWS, 2)))
    rows = like.copy()
    if where == "count":
        rows = rows[1:]
    elif where is not None:
        rows[where, 1] = spread + 7  # a cell that like lacks
    got = _union([_Rows(rows)], like=like)
    assert (got is like) == (where is None)
    assert np.array_equal(got, np.unique(rows, axis=0))
    assert got.flags.c_contiguous and got.dtype == np.int32
