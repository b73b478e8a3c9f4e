"""Set-valued iteration: per-vertex unions of affine images, to a fixed point.

Compact sets are represented by finite point clouds snapped to a regular
grid.  Snapping keeps unions idempotent and memory bounded; storing lattice
coordinates as integers makes equality and canonical ordering exact.
Clouds and unions are canonicalised by numbering their cells in the
bounding box: dense ones by a scatter into an occupancy window, sparse ones
by a sort of the flat cell numbers.  Every pass over a cloud runs
``BLOCK_ROWS`` rows at a time, so a step holds its input and output rows
and a window, and no temporary that grows with the cloud; the step that
returns its input returns the same arrays, so it holds no output rows.
The operator maps lattice rows to lattice rows: a path map with a diagonal
linear part sends each axis through a small table of snapped image indices,
equal bit for bit to snapping its float image, and other maps are applied to
the real points, summed in index order by ``AffineMap.apply``, so no image
depends on its block or on the host's BLAS.  The iteration stops at a lattice
fixed point, a tuple A that the snapped step returns unchanged.  Every point of
F(A) then lies within eps of A and every point of A within eps of F(A), where
eps is the largest snapping offset, float slack included (``snap_slack``), so
the collage theorem puts the true attractor within eps/(1-c) of A.  A run that
reaches its step limit without stopping measures its last step's displacement
delta once and is certified by (c*delta + eps)/(1-c).  Both bounds are rounded
upward.

Since the bound holds for any lattice fixed point, the commands need not
start from the whole fiber grids at the pitch h.  ``refine_attractor``
starts from the fiber grids at a pitch 2^L*h coarse enough to fit one block
(``start_grids``), iterates each level to its fixed point and starts the
next, at half the pitch, from the fine cells around it that lie in the
fibers: the subdivision scheme of Dellnitz & Hohmann (Numer. Math. 75,
1997), which refines the cells the dynamics keeps.

Two tuples on the same lattice are compared from their integer rows, each
direction only at the source cells outside the target.  Each cloud's cells
are numbered in the joint bounding box and sorted once (``_joint_keys``);
the outside cells are those ``searchsorted`` does not find, and each one
walks the target's occupied rows outward from its own, taking its gap to
a row along the box's last axis from the sorted numbers, until no further
row can come nearer (``_farthest``).  Both metrics are measured so, in
integers, hence exactly, and nothing is allocated over the box: memory is
O(|A| + |B|), and only a box of more than 2^62 cells, which int64 cannot
number, is refused.  An iterate need not lie in its fiber's grid: snapping
can move an image row out of the fiber, and s1's fixed point at its
default pitch has 752 of its 28,648 rows outside the triangle, though
inside its bounding box.  ``_directed_bound`` measures one direction so:
the coding invariance check measures snapped images with it, and adds the
largest snapping offset (``_snap_offset``), rounding the sum upward.
``directed_distance`` and ``hausdorff_distance`` measure real point clouds
pair by pair, by brute force; they are the off-lattice reference.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .exact import round_up, sqrt_up
from .kgraph import normal_steps
from .systems import (
    EUCLIDEAN,
    MAX,
    AffineMap,
    MWSystem,
    degree_maps,
    grid_bounds,
    grid_indices,
    in_region,
    lipschitz_bound,
)


# ---------------------------------------------------------------------------
# distances


def _check_metric(metric) -> None:
    if metric not in (EUCLIDEAN, MAX):
        raise ValueError(f"unknown metric {metric!r}")


def directed_distance(a, b, metric=EUCLIDEAN):
    """One-sided (sup-min) distance from cloud a to cloud b, every pair
    measured by the brute-force kernel.  The lattice distances are checked
    against it.  A metric other than ``"euclidean"`` or ``"max"`` raises
    ValueError.
    """
    _check_metric(metric)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(a) == 0:
        return 0.0
    if len(b) == 0:
        raise ValueError("empty target cloud")
    return _kernels.directed_max_min(a, b, metric)


def hausdorff_distance(a, b, metric=EUCLIDEAN):
    """Symmetric Hausdorff distance between two nonempty point clouds."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty cloud")
    return max(directed_distance(a, b, metric), directed_distance(b, a, metric))


def _joint_keys(a: np.ndarray, b: np.ndarray):
    """Two nonempty lattice clouds numbered in their joint bounding box.

    The box's axes are ordered shortest first, so that its rows, the lines
    along the last and longest axis, are fewest.  Returns the box's shape
    in that order and each cloud's C-order flat cells in it, sorted: the
    ``_sorted_keys`` of its ``_Rows``, with one stride per axis of the
    clouds.  A box of more than 2^62 cells, which int64 cannot number,
    counted in Python integers, raises ValueError before anything is
    allocated.
    """
    ra, rb = _Rows(a), _Rows(b)
    lo = [min(x[0], y[0]) for x, y in zip(ra.ends, rb.ends)]
    span = [max(x[1], y[1]) - low + 1 for x, y, low in zip(ra.ends, rb.ends, lo)]
    if math.prod(span) > _MAX_KEYED_CELLS:
        raise ValueError("the lattice clouds' joint box has more than 2**62 cells")
    axes = sorted(range(len(span)), key=span.__getitem__)
    shape = tuple(span[k] for k in axes)
    strides = [0] * len(span)
    for j, k in enumerate(axes):
        strides[k] = math.prod(shape[j + 1:])
    return shape, _sorted_keys([ra], lo, strides), _sorted_keys([rb], lo, strides)


def _lead(rows: np.ndarray, lead) -> np.ndarray:
    """The coordinates along leading axes of the given lengths, one column
    per axis, of row numbers (C-order flat indices over those axes)."""
    out = np.empty((len(rows), len(lead)), dtype=np.int64)
    for j in range(len(lead) - 1, -1, -1):
        rows, out[:, j] = np.divmod(rows, lead[j])
    return out


class _RowIndex:
    """The occupied rows of a box's sorted flat cells ``keys``, a row being
    a line along the box's last axis: their row numbers, ascending, where
    each one's cells start and end in ``keys``, their coordinates along the
    leading axes (``lead``) and the first of those (``first``, zeros when
    the box has one axis)."""

    def __init__(self, keys: np.ndarray, shape):
        self.keys, self.length = keys, shape[-1]
        row = keys // self.length
        self.starts = np.flatnonzero(np.diff(row, prepend=-1))
        self.rows = row[self.starts]
        self.ends = np.append(self.starts[1:], len(keys))
        self.lead = _lead(self.rows, shape[:-1])
        self.first = self.lead[:, 0] if len(shape) > 1 else np.zeros(len(self.rows), np.int64)


def _directed_cells(src: np.ndarray, dst: np.ndarray, shape, metric, floor: int = 0) -> int:
    """The one-sided distance from the sorted flat cells src to the sorted
    flat cells dst of a box of the given shape, squared for the Euclidean
    metric and chessboard for the max metric, or floor if that is larger.

    The src cells missing from dst are found by ``searchsorted``,
    ``BLOCK_ROWS`` of them at a time, and each block is measured by
    ``_farthest`` against dst's occupied rows, indexed at the first such
    block; when there are none the distance is 0, as when one iterate lies
    inside the other.
    """
    index, last = None, len(dst) - 1
    for s in _blocks(len(src)):
        cells = src[s]
        outside = cells[dst[np.minimum(np.searchsorted(dst, cells), last)] != cells]
        if len(outside):
            index = index or _RowIndex(dst, shape)
            floor = _farthest(outside, index, shape, metric, floor)
    return floor


def _farthest(cells: np.ndarray, index: _RowIndex, shape, metric, floor: int) -> int:
    """The largest distance from the given flat cells (at least one, none
    of them occupied) to the occupied cells of ``index``, squared for the
    Euclidean metric and chessboard for the max metric, or floor if that is
    larger.

    Everything is integer, so the result is exact, and nothing is allocated
    over the box.  Each cell walks the occupied rows outward from its own,
    two pointers into the ascending row numbers, taking the nearer along
    the first leading axis first.  For a planar box that is nearest first
    by squared row distance for the Euclidean metric and by row distance
    for the max metric; with more leading axes it is nearest first by a
    lower bound of both.  A row's distance to a cell combines the distance
    between their rows with the cell's gap to the row's nearest cell along
    the last axis, read from the sorted cells by ``searchsorted``.  A cell
    stops when the next row's bound is no less than its distance so far
    (no later row can shorten it), or when that distance cannot exceed
    floor, raised to every distance settled (the early break of Taha &
    Hanbury, IEEE TPAMI 37(11), 2015).  Only occupied rows are visited, so
    far-apart clouds cost their rows, not their box.
    """
    euclid = metric == EUCLIDEAN
    keys, rows, first, length = index.keys, index.rows, index.first, index.length
    # above every distance in the box; squares past int64 stay Python integers
    far = sum(n * n for n in shape) if euclid else max(shape)
    dtype = np.int64 if far < 2**62 else object
    end = len(rows) - 1

    own, col = np.divmod(cells, length)
    p = _lead(own, shape[:-1])
    p0 = p[:, 0] if len(shape) > 1 else np.zeros(len(cells), np.int64)
    right = np.searchsorted(rows, own)
    left = right - 1
    best = np.full(len(cells), far, dtype=dtype)

    def bounds():
        # the next row's first-axis distance on either side, far past the ends
        out = []
        for at, valid in ((left, left >= 0), (right, right <= end)):
            gap = np.abs(first[np.clip(at, 0, end)] - p0).astype(dtype, copy=False)
            out.append(np.where(valid, gap * gap if euclid else gap, far))
        return out

    below, above = bounds()
    while len(best):
        step = below > above
        t = np.where(step, right, left)
        right += step
        left -= ~step
        # the row's distance: the rows' offset and the gap along the last axis
        off = np.abs(p - index.lead[t]).astype(dtype, copy=False)
        near = (off * off).sum(axis=1) if euclid else off.max(axis=1, initial=0)
        key = rows[t] * length + col
        at = np.searchsorted(keys, key)
        gap = np.minimum(
            np.where(at > index.starts[t], key - keys[np.maximum(at - 1, 0)], length),
            np.where(at < index.ends[t], keys[np.minimum(at, len(keys) - 1)] - key, length),
        ).astype(dtype, copy=False)
        np.minimum(best, near + gap * gap if euclid else np.maximum(near, gap), out=best)
        below, above = bounds()
        settled = best <= np.minimum(below, above)
        if settled.any():
            floor = max(floor, int(best[settled].max()))
        keep = ~settled & (best > floor)
        if not keep.all():
            best, p, p0, col, left, right, below, above = (
                x[keep] for x in (best, p, p0, col, left, right, below, above))
    return floor


def _cells_to_length(cells: int, metric) -> float:
    return math.sqrt(cells) if metric == EUCLIDEAN else float(cells)


def _lattice_distance(a: np.ndarray, b: np.ndarray, metric) -> float:
    """Hausdorff distance, in lattice units, between two nonempty lattice
    clouds: one ``_directed_cells`` each way over their ``_joint_keys``,
    the second starting from the first's distance."""
    shape, fa, fb = _joint_keys(a, b)
    worst = _directed_cells(fb, fa, shape, metric, _directed_cells(fa, fb, shape, metric))
    return _cells_to_length(worst, metric)


def _directed_bound(a: np.ndarray, b: np.ndarray, pitch: float, eps: float, metric) -> float:
    """pitch times the one-sided (sup-min) lattice distance from lattice
    cloud a to lattice cloud b, both nonempty, plus eps, rounded upward.
    The distance is measured exactly in integers from their sorted flat
    cells (``_joint_keys``, ``_directed_cells``)."""
    _check_metric(metric)
    shape, fa, fb = _joint_keys(a, b)
    cells = _directed_cells(fa, fb, shape, metric)
    length = sqrt_up(cells) if metric == EUCLIDEAN else Fraction(cells)
    return round_up(Fraction(pitch) * length + Fraction(eps))


# ---------------------------------------------------------------------------
# grid-snapped set tuples


# ``_union`` scatters into an occupancy window only when its box holds at
# most this many cells per row, checked before the window is allocated;
# sparser unions are sorted.
WINDOW_CELLS_PER_POINT = 16

# rows read, keyed and decoded at a time by every pass over a lattice cloud
# (the images and read-back of ``_union``, and the rasters), so that no
# temporary grows with the cloud: a block's int64 column is 64 KiB, under
# glibc's initial 128 KiB mmap threshold
BLOCK_ROWS = 1 << 13

# a box of at most this many cells numbers its cells in int64
_MAX_KEYED_CELLS = 1 << 62


def _blocks(n: int):
    """Slices of at most ``BLOCK_ROWS`` consecutive indices covering n."""
    return (slice(s, s + BLOCK_ROWS) for s in range(0, n, BLOCK_ROWS))


class _Image:
    """The image rows of a nonempty lattice cloud, ``len(cloud)`` of them,
    made a block of the cloud's rows at a time by ``block``.  ``ends``
    holds per axis the least and greatest image coordinate, as Python
    integers."""

    cloud: np.ndarray
    ends: list

    @property
    def size(self) -> int:
        return len(self.cloud)

    def keys(self, lo, strides):
        """Per block, the C-order flat cells sum_j (x_j - lo_j)*stride_j of
        the image rows in a box at lo that numbers its cells in int64."""
        for s in _blocks(len(self.cloud)):
            rows = self.block(s)
            flat = (rows[:, 0] - lo[0]) * strides[0]
            for j in range(1, len(lo)):
                flat += (rows[:, j] - lo[j]) * strides[j]
            yield flat


class _Rows(_Image):
    """A cloud's rows floor-divided by a positive integer factor (1 keeps
    them): the image of canonicalisation and of the box counts' larger
    cells (``boxcount.occupied_cells``)."""

    def __init__(self, cloud: np.ndarray, factor: int = 1):
        self.cloud, self.factor = cloud, factor
        self.ends = [(int(col.min()) // factor, int(col.max()) // factor) for col in cloud.T]

    def block(self, s):
        rows = self.cloud[s]
        return rows if self.factor == 1 else rows // self.factor


class _Children(_Image):
    """The points of the lattice of half a coarse cloud's pitch within one
    fine cell of its rows: 2r + o for each row r and each of the 3^d
    offsets o in {-1, 0, 1}^d, so ``size`` is 3^d times the cloud's rows."""

    def __init__(self, cloud: np.ndarray):
        self.cloud = cloud
        self.offsets = np.array(list(itertools.product((-1, 0, 1), repeat=cloud.shape[1])),
                                dtype=np.int64)
        self.ends = [(2 * int(col.min()) - 1, 2 * int(col.max()) + 1) for col in cloud.T]

    @property
    def size(self) -> int:
        return len(self.offsets) * len(self.cloud)

    def keys(self, lo, strides):
        # a row's children differ from its doubled row's flat cell by one
        # constant per offset
        shifts = (self.offsets * np.array(strides, dtype=np.int64)).sum(axis=1).tolist()
        for s in _blocks(len(self.cloud)):
            rows = self.cloud[s]
            flat = (2 * rows[:, 0] - lo[0]) * strides[0]
            for j in range(1, len(lo)):
                flat += (2 * rows[:, j] - lo[j]) * strides[j]
            for shift in shifts:
                yield flat + shift


class _Tabled(_Image):
    """A cloud sent through one table per axis: column j of the image is
    ``tables[j][cloud[:, j] - lows[j]]``."""

    def __init__(self, cloud: np.ndarray, tables, lows):
        self.cloud, self.tables, self.lows = cloud, tables, lows
        self.ends = [(int(t.min()), int(t.max())) for t in tables]

    def keys(self, lo, strides):
        # the tables are shifted and scaled once, so a block's flat cell is
        # one gather and add per axis
        scaled = [(t - low) * stride for t, low, stride in zip(self.tables, lo, strides)]
        for s in _blocks(len(self.cloud)):
            cols = self.cloud[s].T
            flat = scaled[0][cols[0] - self.lows[0]]
            for table, col, low in zip(scaled[1:], cols[1:], self.lows[1:]):
                flat += table[col - low]
            yield flat


class _Snapped(_Image):
    """Real points snapped onto a lattice, a block at a time: a cloud of
    real points, or with an affine map m, m's images of a lattice cloud's
    points.  The extremes take one pass over the blocks."""

    def __init__(self, cloud: np.ndarray, pitch: float, m: AffineMap | None = None):
        self.cloud, self.pitch, self.m = cloud, pitch, m
        lows, highs = zip(*((b.min(axis=0), b.max(axis=0))
                            for b in map(self.block, _blocks(len(cloud)))))
        self.ends = list(zip(np.min(lows, axis=0).tolist(), np.max(highs, axis=0).tolist()))

    def block(self, s):
        points = self.cloud[s]
        if self.m is not None:
            points = self.m.apply(self.pitch * points.astype(float))
        return _snap(points, self.pitch)


def _decode(cells: np.ndarray, lo, strides, out: np.ndarray) -> None:
    """Write into out the rows of the C-order flat cells of a box at lo;
    cells is consumed."""
    for j, stride in enumerate(strides[:-1]):
        q = cells // stride
        np.add(q, lo[j], out=out[:, j])
        q *= stride
        cells -= q
    np.add(cells, lo[-1], out=out[:, -1])


def _sorted_keys(images, lo, strides) -> np.ndarray:
    """The C-order flat cells of the images' rows in a box at lo that
    numbers its cells in int64, written a block at a time into one int64
    array, sorted."""
    keys = np.empty(sum(img.size for img in images), dtype=np.int64)
    at = 0
    for img in images:
        for flat in img.keys(lo, strides):
            keys[at:at + len(flat)] = flat
            at += len(flat)
    keys.sort()
    return keys


def _union(images, like: np.ndarray | None = None) -> np.ndarray:
    """np.unique of the rows of one or more images, as C-contiguous int64
    rows; ``like`` itself when the rows equal it.

    Every pass runs ``BLOCK_ROWS`` source rows, or window cells, at a time.
    The images' ends span a box, sized in Python integers.  Each block of
    image rows becomes its C-order flat cells in that box: for a tabled
    image one gather per axis from its tables, pre-shifted and scaled by the
    box's strides.  When the box holds at most ``WINDOW_CELLS_PER_POINT``
    cells per row, the cells are scattered into a 1-d occupancy window over
    it; otherwise they are written into one int64 array, sorted, and kept
    where they differ from their predecessor.  Either way the distinct
    cells come out ascending, which is lexicographic row order, and are
    decoded one block at a time by floor division per stride.  A box of
    more than 2^62 cells, which int64 cannot number, counted in Python
    integers, raises ValueError before anything is allocated, as in
    ``_joint_keys``; no command reaches one, since ``grid_bounds`` bounds
    every fiber grid first.

    ``like``, a cloud in the stored form (a step's input), is compared block
    by block with the decoded rows; the result is allocated only at the
    first block that differs, so a step that returns its input holds no
    second copy of it.
    """
    rows = sum(img.size for img in images)
    lo = [min(img.ends[j][0] for img in images) for j in range(len(images[0].ends))]
    shape = [max(img.ends[j][1] for img in images) - low + 1 for j, low in enumerate(lo)]
    cells = math.prod(shape)
    if cells > _MAX_KEYED_CELLS:
        raise ValueError("the images' box has more than 2**62 cells")
    strides = [math.prod(shape[j + 1:]) for j in range(len(shape))]
    if cells > WINDOW_CELLS_PER_POINT * rows:
        keys = _sorted_keys(images, lo, strides)
        new = np.empty(rows, dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        count = int(np.count_nonzero(new))
        found = (keys[s][new[s]] for s in _blocks(rows))
    else:
        window = np.zeros(cells, dtype=bool)
        for img in images:
            for flat in img.keys(lo, strides):
                window[flat] = True
        count = int(np.count_nonzero(window))
        found = (np.flatnonzero(window[s]) + s.start for s in _blocks(cells))
    if like is None or len(like) != count:
        out = np.empty((count, len(lo)), dtype=np.int64)
    else:
        out, buf = like, np.empty((min(count, BLOCK_ROWS), len(lo)), dtype=np.int64)
    at = 0
    for block in found:
        n = len(block)
        if out is not like:
            _decode(block, lo, strides, out[at:at + n])
        else:
            _decode(block, lo, strides, buf[:n])
            if not np.array_equal(buf[:n], like[at:at + n]):
                out = np.empty((count, len(lo)), dtype=np.int64)
                out[:at] = like[:at]
                out[at:at + n] = buf[:n]
        at += n
    return out


def _canonical(idx: np.ndarray, factor: int = 1) -> np.ndarray:
    """np.unique(idx // factor, axis=0) of a nonempty int64 array, for a
    positive integer factor, C-contiguous."""
    return _union([_Rows(idx, factor)])


def _snap(pts: np.ndarray, pitch: float) -> np.ndarray:
    """Lattice indices of the grid points nearest to real points."""
    return np.rint(pts / pitch).astype(np.int64)


def _snap_offset(pts: np.ndarray, pitch: float, metric):
    """The lattice rows nearest to some real points, at least one, and eps,
    the largest offset |p - snap(p)| in the metric: at most h*sqrt(d)/2 for
    the Euclidean metric and h/2 for the max metric, and 0 when every point
    is a lattice point.

    A one-sided distance measured on the rows is off from the real points'
    one by at most eps, either way, by the triangle inequality; adding eps
    gives an upper bound (``_directed_bound``)."""
    rows = _snap(pts, pitch)
    offset = pts - pitch * rows.astype(float)
    norm = 2 if metric == EUCLIDEAN else np.inf
    return rows, float(np.linalg.norm(offset, norm, axis=1).max())


def _positive_pitch(pitch) -> float:
    pitch = float(pitch)
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    return pitch


def _one_width(clouds: dict[str, np.ndarray]) -> int:
    """The width of the clouds' rows: that of the nonempty ones, which must
    agree, or else of the first cloud (0 for none).  A cloud that is not
    2-d, or nonempty clouds of different widths, raise ValueError."""
    widths = {}
    for v, rows in clouds.items():
        if rows.ndim != 2:
            raise ValueError(f"the cloud at {v!r} is not 2-d")
        if rows.size:
            widths.setdefault(rows.shape[1], v)
    if len(widths) > 1:
        (a, u), (b, w) = list(widths.items())[:2]
        raise ValueError(f"the clouds at {u!r} and {w!r} have rows of widths {a} and {b}")
    return next(iter(widths), next((rows.shape[1] for rows in clouds.values()), 0))


class SetTuple:
    """One finite grid cloud per vertex, on the lattice of a pitch.

    Clouds are stored as lexicographically sorted, duplicate-free,
    C-contiguous int64 lattice rows, all of one width (``dim``), empty
    clouds included; real coordinates are pitch * index.  Construction
    canonicalizes (``_canonical``), so equal sets have equal rows regardless
    of input order; the rows are the one stored form.  ``hutchinson_step``
    builds its rows in that form and hands them over through ``_of_rows``.
    A cloud whose bounding box has more than 2^62 cells raises ValueError.
    """

    def __init__(self, pitch: float, clouds: dict[str, np.ndarray]):
        self.pitch = _positive_pitch(pitch)
        rows = {v: np.asarray(idx, dtype=np.int64) for v, idx in clouds.items()}
        dim = _one_width(rows)
        self.clouds = {v: _canonical(r) if r.size else r.reshape(0, dim)
                       for v, r in rows.items()}

    @classmethod
    def from_points(cls, pitch, point_clouds):
        """The lattice cells of real point clouds.  Each cloud is snapped
        and canonicalised ``BLOCK_ROWS`` points at a time, by one ``_union``
        of its ``_Snapped`` image, so the rows equal those of snapping it
        whole and no temporary grows with the cloud."""
        pitch = _positive_pitch(pitch)
        pts = {v: np.atleast_2d(np.asarray(p, dtype=float)) for v, p in point_clouds.items()}
        dim = _one_width(pts)
        return cls._of_rows(pitch, {
            v: _union([_Snapped(p, pitch)]) if p.size else np.empty((0, dim), dtype=np.int64)
            for v, p in pts.items()})

    @classmethod
    def _of_rows(cls, pitch: float, clouds: dict[str, np.ndarray]):
        """A tuple over a float pitch whose clouds are already in the stored
        form; they are kept as they are."""
        self = cls.__new__(cls)
        self.pitch, self.clouds = pitch, clouds
        return self

    @classmethod
    def from_fibers(cls, sys: MWSystem, pitch: float):
        """Full fiber regions sampled on the grid (one cloud per vertex).

        The rows are the lattice indices ``grid_indices`` keeps, already in
        the stored form, so they never pass through real points."""
        pitch = _positive_pitch(pitch)
        return cls._of_rows(pitch, {v: grid_indices(f.region, pitch)
                                    for v, f in sys.fibers.items()})

    @property
    def dim(self) -> int:
        """The width of the rows (0 for a tuple of no clouds)."""
        return next((rows.shape[1] for rows in self.clouds.values()), 0)

    def points(self, v: str) -> np.ndarray:
        return self.pitch * self.clouds[v].astype(float)

    def vertices(self):
        return sorted(self.clouds)

    def same_grid(self, other: "SetTuple") -> bool:
        return self.pitch == other.pitch and self.dim == other.dim

    def vertex_distances(self, other: "SetTuple", metric=EUCLIDEAN) -> dict[str, float]:
        """Per-vertex Hausdorff distance to another tuple on the same grid.

        Equal lattice clouds short-circuit to 0 (canonical form makes the
        array comparison conclusive).  Unequal clouds are measured from their
        integer rows, exactly, by their sorted flat cells in the joint
        bounding box and a walk over each target's occupied rows
        (``_lattice_distance``), and scaled by the pitch; memory follows the
        rows, not the box.  A box of more than 2^62 cells, an empty cloud
        against a nonempty one, or a metric other than ``"euclidean"`` or
        ``"max"`` raises ValueError."""
        _check_metric(metric)
        if not self.same_grid(other):
            raise ValueError("grid mismatch")
        if set(self.clouds) != set(other.clouds):
            raise ValueError("vertex sets differ")
        out = {}
        for v, c in self.clouds.items():
            o = other.clouds[v]
            if np.array_equal(c, o):
                out[v] = 0.0
            elif not len(c) or not len(o):
                raise ValueError(f"empty cloud at vertex {v!r} against a nonempty one")
            else:
                out[v] = self.pitch * _lattice_distance(c, o, metric)
        return out

    def __eq__(self, other):
        if not isinstance(other, SetTuple) or not self.same_grid(other):
            return False
        if set(self.clouds) != set(other.clouds):
            return False
        return all(self.clouds[v] is other.clouds[v]
                   or np.array_equal(self.clouds[v], other.clouds[v]) for v in self.clouds)

    def __repr__(self):
        sizes = {v: len(c) for v, c in sorted(self.clouds.items())}
        return f"SetTuple(pitch={self.pitch:g}, sizes={sizes})"


def tuple_distance(a: SetTuple, b: SetTuple, metric=EUCLIDEAN) -> float:
    """sup over vertices of the per-vertex Hausdorff distance; equal clouds
    cost nothing."""
    return max(a.vertex_distances(b, metric).values(), default=0.0)


# ---------------------------------------------------------------------------
# the set-valued operator


def _image(m: AffineMap, C: SetTuple, src: str, span) -> _Image:
    """The snapped image under m of C's nonempty cloud at src.

    ``span`` holds, per axis, the cloud's least and greatest index.  A
    diagonal linear part maps each axis on its own: every index of the
    cloud's span goes through the float expression of ``m.apply`` on
    ``C.points``, x_j a_jj + s_j, whose off-diagonal products would only
    add exact zeros to the index-order sum, and then ``_snap``, into a small
    table that the cloud's column reads (``_Tabled``).  Other maps are applied to the points, then snapped,
    block by block (``_Snapped``).
    """
    a, pitch = m.matrix, C.pitch
    if not np.array_equal(a, np.diag(np.diagonal(a))):
        return _Snapped(C.clouds[src], pitch, m)
    tables = []
    for j, (low, high) in enumerate(span):
        x = pitch * np.arange(low, high + 1).astype(float)
        tables.append(np.rint((x * a[j, j] + m.shift[j]) / pitch).astype(np.int64))
    return _Tabled(C.clouds[src], tables, [low for low, _ in span])


def hutchinson_step(sys: MWSystem, n, C: SetTuple, _maps=None) -> SetTuple:
    """One application of the degree-n operator: per vertex, the snapped
    union of the path images of the current clouds.

    Each path map's image of a lattice cloud is snapped on its own, through
    per-axis index tables when its linear part is diagonal and from the
    real points otherwise; either way it lands on the rows that snapping
    ``m.apply`` of every point gives.  The images of a vertex are united by
    one ``_union``, a scatter into an occupancy window or one sort of flat
    cells, so the result does not depend on evaluation order (degree 0
    returns C unchanged).  Every pass runs a block of ``BLOCK_ROWS`` rows at
    a time, so the step holds little beyond its input and output rows, the
    window and, for a sparse union, one int64 key per image row.  Each union
    is decoded against the vertex's input cloud, so a vertex whose cloud the
    step returns unchanged keeps its input array and allocates no output.
    """
    if all(c == 0 for c in n):
        return C
    maps = _maps if _maps is not None else degree_maps(sys, n)
    spans = {}
    out = {}
    for v in sys.graph.vertices:
        images = []
        for m, src in maps[v]:
            cloud = C.clouds[src]
            if not len(cloud):
                continue
            if src not in spans:
                spans[src] = [(int(col.min()), int(col.max())) for col in cloud.T]
            images.append(_image(m, C, src, spans[src]))
        if not images:
            raise ValueError(f"no images at vertex {v!r} (empty input clouds)")
        out[v] = _union(images, like=C.clouds[v])
    return SetTuple._of_rows(C.pitch, out)


# float roundings from a lattice point to the lattice point its image snaps
# to, past the d - 1 additions of a matrix row, which ``AffineMap.apply``
# sums in index order: the row's products, + shift, / pitch, and back to a
# point, pitch * index.  That is 4: the count of 6
# over-counts by two, which is still sound and keeps the last digits of
# every printed error_bound.  Measuring the snap offsets exactly would
# replace it
_ROUNDINGS = 6


def snap_slack(C: SetTuple, maps, metric) -> float:
    """eps, how far a snapped image point of C under the path maps of
    ``degree_maps`` can lie from the exact image, rounded upward
    (``_span_slack`` of the clouds' least and greatest rows)."""
    spans = {v: [(int(col.min()), int(col.max())) for col in rows.T]
             for v, rows in C.clouds.items() if len(rows)}
    return _span_slack(C.dim, C.pitch, spans, maps, metric)


def grid_slack(sys: MWSystem, pitch: float, maps) -> float:
    """``_span_slack`` of the fiber grids of the pitch, from the ends of
    their bounding boxes (``grid_bounds``): at least ``snap_slack`` of any
    tuple of rows in those boxes, and computed without listing a grid."""
    spans = {v: grid_bounds(f.region, pitch) for v, f in sys.fibers.items()}
    return _span_slack(sys.dim, float(pitch), spans, maps, sys.metric)


def _span_slack(dim: int, pitch: float, spans, maps, metric) -> float:
    """eps, how far a snapped image point can lie from the exact image under
    the path maps of ``degree_maps``, for source clouds whose rows lie, per
    vertex of ``spans`` and axis, between the least and greatest index
    given; rounded upward.

    Snapping alone moves each coordinate by at most h/2.  Float arithmetic
    can move it by eta = gamma*(2M + h) more, where M bounds |a_i|.|x| + |s_i|
    over the maps' rows i and the source clouds' points x, and
    gamma = (d + 6)u, u = 2^-53, covers the d + 3 roundings of
    ((x_0 a_i0 + x_1 a_i1) + ...) + s_i, summed in index order by
    ``AffineMap.apply`` and the diagonal tables, with two to spare
    (``_ROUNDINGS``; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 3.1).
    eps is (h/2 + eta)*sqrt(d) for the Euclidean metric and h/2 + eta for
    the max metric.
    """
    reach = {}  # per source vertex and axis, the largest |x_j| of its cloud
    for v, span in spans.items():
        ends = [pitch * np.array(e, dtype=float) for e in zip(*span)]
        reach[v] = np.maximum(*np.abs(ends))
    worst = max((float((np.abs(m.matrix) @ reach[src] + np.abs(m.shift)).max())
                 for rows in maps.values() for m, src in rows if src in reach), default=0.0)
    eta = Fraction(dim + _ROUNDINGS, 2**53) * (2 * Fraction(worst) + Fraction(pitch))
    coordinate = Fraction(pitch) / 2 + eta
    return round_up(coordinate * sqrt_up(dim) if metric == EUCLIDEAN else coordinate)


def contraction_factor(sys: MWSystem, n) -> float:
    """Largest Lipschitz bound among the degree-n path maps.

    The paths are not listed.  The ``normal_steps`` are walked forward
    keeping, per source vertex reached, only the distinct linear parts of
    the prefix maps, composed in ``extend_map``'s order.  Every path's
    linear part is then one of the survivors bit for bit, so the maximum is
    the same as over all paths, at the cost of the distinct parts only.
    """
    g = sys.graph
    layer = [[AffineMap.identity(sys.dim)] for _ in g.vertices]
    for j, row in enumerate(normal_steps(g, tuple(n))):
        nxt: list[dict[bytes, AffineMap]] = [{} for _ in g.vertices]
        for maps, (ids, sources) in zip(layer, row):
            for ident, s in zip(ids, sources):
                gen = sys.generators[ident]
                for m in maps:
                    f = gen if j == 0 else m.after(gen)
                    nxt[s].setdefault(f.matrix.tobytes(), f)
        layer = [list(seen.values()) for seen in nxt]
    return max((lipschitz_bound(m, sys.metric) for maps in layer for m in maps), default=0.0)


class Operator(NamedTuple):
    """The degree-n Hutchinson operator F_n of a system, derived once per
    run: its degree, per vertex the (map, source) pairs of ``degree_maps``,
    and its certified ``contraction_factor``, which is below 1.  Its fixed
    point is the attractor (Hutchinson, Indiana Univ. Math. J. 30, 1981),
    and its maps and contraction give every certificate of a run.  Build
    one with ``Operator.of``."""

    degree: tuple
    maps: dict
    contraction: float

    @classmethod
    def of(cls, sys: MWSystem, n) -> "Operator":
        """The degree-n operator of sys; ValueError unless it contracts."""
        n = tuple(n)
        c_n = contraction_factor(sys, n)
        if c_n >= 1.0:
            raise ValueError(f"degree {n} operator is not a contraction (factor {c_n:.6g})")
        return cls(n, degree_maps(sys, n), c_n)


def collage_bound(c: float, eps: float, displacement: float = 0.0) -> float:
    """(c*displacement + eps)/(1-c), evaluated exactly and rounded upward.

    An iterate A = snap(F(B)) of an operator F contracting by c < 1, with
    d_H(B, A) = displacement and every snap within eps, lies within
    c*displacement + eps of F(A); by the collage theorem (Barnsley, Ervin,
    Hardin & Lancaster, PNAS 83, 1986) it then lies within this bound of the
    fixed point.  At a lattice fixed point B = A and the displacement is 0."""
    c = Fraction(c)
    return round_up((c * Fraction(displacement) + Fraction(eps)) / (1 - c))


class ConvergenceCertificate(NamedTuple):
    iterations: int
    displacement: float        # Hausdorff gap between the last two iterates
    contraction: float         # Lipschitz bound of the iterated operator
    pitch: float
    eps: float                 # the largest snapping offset, snap_slack
    converged: bool

    @property
    def error_bound(self) -> float:
        """A-posteriori distance from the returned iterate to the true
        fixed point (``collage_bound``)."""
        return collage_bound(self.contraction, self.eps, self.displacement)

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{status}: iterations={self.iterations} displacement={self.displacement:.6g} "
            f"contraction={self.contraction:.6g} pitch={self.pitch:.6g} "
            f"eps={self.eps:.6g} error_bound={self.error_bound!r}"
        )


def compute_attractor(
    sys: MWSystem,
    n,
    C0: SetTuple,
    max_iter: int = 64,
) -> tuple[SetTuple, ConvergenceCertificate]:
    """Iterate the degree-n operator from C0 to a lattice fixed point.

    n is a degree, whose ``Operator.of`` is derived here, or an ``Operator``
    of sys, whose maps and contraction are used as they are
    (``refine_attractor`` passes the one it built).  A degree whose
    operator does not contract is rejected (in relaxed mode only diagonal
    degrees contract, so pass a multiple of (1,..,1) there).  Returns the
    final tuple and its certificate; non-convergence within max_iter is
    reported on the certificate, not raised.

    The run stops when a step returns its input (tuple equality, which
    measures no distance and finds the input's own arrays): that tuple is a
    fixed point of the snapped operator, and its certificate is eps/(1-c)
    with a displacement of 0.  A run that reaches max_iter measures its last
    step's displacement once, exactly on the lattice, and is certified by
    (c*displacement + eps)/(1-c).
    eps is the larger ``snap_slack`` of C0 and of the last step's input, so
    no run from C0 claims less than ``collage_bound(c, snap_slack(C0))``.
    """
    for v in sys.graph.vertices:
        if len(C0.clouds.get(v, ())) == 0:
            raise ValueError(f"empty initial cloud at vertex {v!r}")
    op = n if isinstance(n, Operator) else Operator.of(sys, n)
    prev, current, it, converged = _iterate(sys, op, C0, max_iter)
    delta = 0.0 if converged else tuple_distance(prev, current, sys.metric)
    eps = max(snap_slack(C, op.maps, sys.metric) for C in (C0, prev))
    return current, ConvergenceCertificate(it, delta, op.contraction, C0.pitch, eps, converged)


def _iterate(sys: MWSystem, op: Operator, C0: SetTuple, max_iter: int):
    """The steps of ``compute_attractor`` without its certificate: the
    last step's input and result, the steps taken, and whether the last
    step returned its input, which ends the run before max_iter."""
    current = C0
    for it in range(1, max_iter + 1):
        prev, current = current, hutchinson_step(sys, op.degree, current, _maps=op.maps)
        if current == prev:
            return prev, current, it, True
    return prev, current, max_iter, False


# ---------------------------------------------------------------------------
# the fixed point at a fine pitch, reached coarse to fine


def _box_points(sys: MWSystem, pitch: float) -> int:
    """The points of the fiber grids' bounding boxes at the pitch, in all,
    counted in Python integers (``grid_bounds``)."""
    return sum(math.prod(high - low + 1 for low, high in grid_bounds(f.region, pitch))
               for f in sys.fibers.values())


def start_grids(sys: MWSystem, pitch: float) -> SetTuple:
    """The fiber grids a run at the pitch starts from (``refine_attractor``):
    those of the pitch 2^L * pitch for the least L >= 0 at which the grids'
    bounding boxes hold at most ``BLOCK_ROWS`` points in all, or at which
    doubling the pitch would not shrink them; and then for the next finer
    pitch, down to the pitch itself, while some fiber holds no grid point.

    The lattice of a doubled pitch is part of the finer one, so a fiber with
    no grid point at the pitch has none at any level: that raises
    ValueError naming the first such fiber.  So does a grid of the pitch
    too large for ``grid_bounds``.
    """
    pitch = float(pitch)
    level, points = 0, _box_points(sys, pitch)
    while points > BLOCK_ROWS and math.isfinite(pitch * 2.0 ** (level + 1)):
        coarser = _box_points(sys, pitch * 2.0 ** (level + 1))
        if coarser >= points:
            break
        level, points = level + 1, coarser
    while True:
        level_pitch = pitch * 2.0 ** level
        grids = {v: grid_indices(f.region, level_pitch) for v, f in sys.fibers.items()}
        empty = [v for v, rows in grids.items() if not len(rows)]
        if not empty:
            return SetTuple._of_rows(level_pitch, grids)
        if not level:
            raise ValueError(f"fiber {empty[0]!r}: no grid point of pitch {pitch!r} lies in it")
        level -= 1


def _children(sys: MWSystem, K: SetTuple) -> SetTuple:
    """The start of the next finer level after the lattice tuple K: per
    vertex, the points of the lattice of half K's pitch within one fine cell
    of twice K's rows (``_Children``, united by one ``_union``) that lie
    in the vertex's fiber (``in_region``), kept a block of rows at a time
    in place.  A vertex that keeps none starts from its whole fiber grid."""
    pitch = K.pitch / 2
    clouds = {}
    for v, f in sys.fibers.items():
        kids = _union([_Children(K.clouds[v])])
        kept = 0
        for s in _blocks(len(kids)):
            block = kids[s]
            inside = block[in_region(f.region, block, pitch)]
            kids[kept:kept + len(inside)] = inside
            kept += len(inside)
        clouds[v] = kids[:kept] if kept else grid_indices(f.region, pitch)
    return SetTuple._of_rows(pitch, clouds)


def refine_attractor(
    sys: MWSystem,
    n,
    pitch: float,
    tol: float,
    max_iter: int = 64,
) -> tuple[SetTuple, ConvergenceCertificate]:
    """The degree-n lattice fixed point at the pitch, reached level by level
    from the fiber grids of ``start_grids`` at a pitch 2^L * pitch.

    Every refusal of a run is raised here, as ValueError, before the first
    step: a fiber that holds no grid point of the pitch, an operator that is
    not a contraction, and a tol below ``collage_bound(c, grid_slack)``, the
    least error bound any run at the pitch claims, in that order.

    Each level iterates to its lattice fixed point, or for max_iter steps,
    and the next level, at half the pitch, starts from the ``_children`` of
    its result; so time and memory follow the attractor's cells more than
    the fibers'.  The start set does not enter the certificate: eps/(1-c)
    holds for any lattice fixed point.

    n is a degree, whose ``Operator`` the run builds once, after the start
    grids, or an ``Operator`` of sys; the tol gate and every level read it.
    Only the last level runs ``compute_attractor``; the coarser ones
    ``_iterate`` and measure nothing.  The certificate is the last level's
    (its iterations count the steps at the pitch, and only it can be NOT
    converged), with eps raised to the ``grid_slack`` tol was checked
    against.
    """
    C = start_grids(sys, pitch)
    op = n if isinstance(n, Operator) else Operator.of(sys, n)
    gate = grid_slack(sys, pitch, op.maps)
    bound = collage_bound(op.contraction, gate)
    if bound > tol:
        raise ValueError(
            f"--tol {tol!r} is below {bound!r}, the least error bound the degree "
            f"{op.degree} operator (contraction {op.contraction:.6g}) can claim at pitch "
            f"{pitch!r}")
    for _ in range(round(math.log2(C.pitch / pitch))):
        C = _children(sys, _iterate(sys, op, C, max_iter)[1])
    K, cert = compute_attractor(sys, op, C, max_iter=max_iter)
    return K, cert._replace(eps=max(cert.eps, gate))
