"""Set-valued iteration: per-vertex unions of affine images, to a fixed point.

Compact sets are represented by finite point clouds snapped to a regular
grid.  Snapping keeps unions idempotent and memory bounded; storing lattice
coordinates as integers makes equality and canonical ordering exact; dense
clouds and unions are canonicalised by a scatter into an occupancy window.
The operator maps lattice rows to lattice rows: a path map with a diagonal
linear part sends each axis through a small table of snapped image indices,
equal bit for bit to snapping its float image, and other maps are applied
to the real points.  The iteration stops on a Banach a-posteriori
estimate: once consecutive tuples are within delta, the limit is within
delta*c/(1-c), plus grid slack.  A step that is not the last allowed one
is only decided against that stop threshold: its displacement is measured
exactly up to the largest lattice distance that stops, and past it only as
far as needed to show that it does not stop.  The displacement printed is
therefore always the exact lattice distance.

Two tuples on the same lattice are compared from their integer rows, in
numpy over an occupancy window of their joint bounding box, each direction
only at the source cells outside the target.  The window is bounded by the
largest fiber grid, ``MAX_GRID_POINTS`` cells, before it is allocated;
every iterate lies in its fiber's grid, so no comparison the commands make
is refused.  The max metric takes the two raster passes of the unit
chamfer (Rosenfeld & Pfaltz 1966), the Euclidean metric a gap along one
axis and then rings of offsets along the others; both are integer, hence
exact.  A measure capped at the stop threshold takes the gap and the
rings, within the cap, for both metrics.  ``_directed_window_distance``
runs one direction of the same window: the coding invariance check and
the k-surjectivity check measure snapped images so, and add the largest
snapping offset (``_snap_offset``).
``directed_distance`` and ``hausdorff_distance`` measure real point clouds
pair by pair, by brute force; they are the off-lattice reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .kgraph import KGraphError
from .systems import (
    EUCLIDEAN,
    MAX,
    MAX_GRID_POINTS,
    AffineMap,
    MWSystem,
    degree_maps,
    grid_indices,
    lipschitz_bound,
)


# ---------------------------------------------------------------------------
# distances


def _check_metric(metric) -> None:
    if metric not in (EUCLIDEAN, MAX):
        raise ValueError(f"unknown metric {metric!r}")


def directed_distance(a, b, metric=EUCLIDEAN):
    """One-sided (sup-min) distance from cloud a to cloud b, every pair
    measured by the brute-force kernel.  The lattice windows are checked
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


def _window(a: np.ndarray, b: np.ndarray):
    """The occupancy window over the joint bounding box of two nonempty
    lattice clouds.  A box of more than ``MAX_GRID_POINTS`` cells, the
    largest fiber grid, counted in Python integers, raises ValueError
    before anything is allocated.

    Returns the window's shape, its axes ordered shortest first so that
    ``_farthest`` loops over the short ones and vectorises along the
    longest, and each cloud's C-order flat cells in it.
    """
    lo = [min(int(x.min()), int(y.min())) for x, y in zip(a.T, b.T)]
    span = [max(int(x.max()), int(y.max())) - low + 1 for x, y, low in zip(a.T, b.T, lo)]
    if math.prod(span) > MAX_GRID_POINTS:
        raise ValueError(f"the lattice clouds' joint box has more than "
                         f"{MAX_GRID_POINTS} cells")
    axes = sorted(range(len(span)), key=span.__getitem__)
    shape = tuple(span[k] for k in axes)

    def flat(rows):
        out = np.zeros(len(rows), dtype=np.int64)
        for k, n in zip(axes, shape):
            out *= n
            out += rows[:, k] - lo[k]
        return out

    return shape, flat(a), flat(b)


def _directed_cells(src: np.ndarray, dst: np.ndarray, shape, metric, cap=None) -> int:
    """The one-sided distance from the flat cells src to the flat cells dst
    of a window, as ``_farthest`` gives it (squared for the Euclidean
    metric, and exact only up to a ``cap``).  dst is marked in an occupancy
    window and only the src cells outside it are measured; when there are
    none the distance is 0, as when one iterate lies inside the other."""
    occ = np.zeros(math.prod(shape), dtype=bool)
    occ[dst] = True
    outside = src[~occ[src]]
    return _farthest(occ.reshape(shape), outside, metric, cap) if len(outside) else 0


def _cells_to_length(cells: int, metric) -> float:
    return math.sqrt(cells) if metric == EUCLIDEAN else float(cells)


def _window_distance(a: np.ndarray, b: np.ndarray, metric, cap=None) -> float:
    """Hausdorff distance, in lattice units, between two nonempty lattice
    clouds; each direction is one ``_directed_cells`` over the same
    ``_window``.

    With a ``cap`` in cells (squared for the Euclidean metric) the distance
    is exact when it is within the cap, and otherwise some length past the
    cap and at most the exact one; a first direction past the cap ends the
    measure."""
    shape, fa, fb = _window(a, b)
    worst = _directed_cells(fa, fb, shape, metric, cap)
    if cap is None or worst <= cap:
        worst = max(worst, _directed_cells(fb, fa, shape, metric, cap))
    return _cells_to_length(worst, metric)


def _directed_window_distance(a: np.ndarray, b: np.ndarray, metric) -> float:
    """One-sided (sup-min) distance, in lattice units, from lattice cloud a
    to lattice cloud b, both nonempty, measured exactly in integers over
    their ``_window``."""
    _check_metric(metric)
    shape, fa, fb = _window(a, b)
    return _cells_to_length(_directed_cells(fa, fb, shape, metric), metric)


# a capped ``_farthest`` settles this many cells first, those of largest gap
# along the last axis: one of them past the cap ends the measure, and their
# largest distance lets the ring loop drop most other cells at once
PROBE_CELLS = 16


def _farthest(occ: np.ndarray, cells: np.ndarray, metric, cap: int | None = None) -> int:
    """The largest distance from the given unoccupied cells (C-order flat
    indices, at least one) to the occupied cells of a window that has some:
    squared for the Euclidean metric, chessboard for the max metric.

    Everything is integer, so the result is exact.  Uncapped chessboard
    distances come from the two raster passes of ``_chamfer``.  Otherwise
    each cell starts from its gap to the nearest occupied cell along the
    last axis, the longest; offsets along the other axes are then tried in
    rings of growing cost, squared length combined by + for the Euclidean
    metric and chessboard length combined by max for the max metric.

    With a ``cap`` (at least 0) the result is exact when it is at most the
    cap, and otherwise some value above the cap and at most the exact one.
    Both metrics then take only the rings within the cap, after the
    ``PROBE_CELLS`` cells of largest gap have been settled: one of them past
    the cap ends the measure, and their largest distance lets the others
    stop early.  A cap at or above every distance the window can hold is
    dropped.
    """
    shape = occ.shape
    far = sum(shape)  # above every distance inside the window
    dtype = np.int32 if 5 * far * far < 2**31 else np.int64
    euclidean = metric == EUCLIDEAN
    if cap is not None and cap >= (sum((n - 1) ** 2 for n in shape) if euclidean
                                   else max(shape) - 1):
        cap = None
    if cap is None and not euclidean:
        dist = np.where(occ, dtype(0), dtype(far))
        _chamfer(dist)
        _chamfer(dist[(slice(None, None, -1),) * dist.ndim])
        return int(dist.reshape(-1)[cells].max())
    last = shape[-1]
    x = np.arange(last, dtype=dtype)
    before = np.where(occ, x, dtype(-far))
    np.maximum.accumulate(before, axis=-1, out=before)
    np.subtract(x, before, out=before)
    after = np.where(occ, x, dtype(last - 1 + far))
    np.minimum.accumulate(after[..., ::-1], axis=-1, out=after[..., ::-1])
    np.subtract(after, x, out=after)
    gap = np.minimum(before, after, out=before).reshape(-1)
    del after
    if euclidean:
        np.multiply(gap, gap, out=gap)
    best = gap[cells]
    if len(shape) == 1:
        return int(best.max())
    # offsets along the leading axes, within the cap, grouped by cost
    lead = np.array(shape[:-1])
    reach = lead - 1
    if cap is not None:
        reach = np.minimum(reach, math.isqrt(cap) if euclidean else cap)
    grids = np.meshgrid(*[np.arange(-r, r + 1) for r in reach], indexing="ij")
    offsets = np.stack([g.reshape(-1) for g in grids], axis=1)
    cost = (offsets * offsets).sum(axis=1) if euclidean else np.abs(offsets).max(axis=1)
    if cap is not None:
        offsets, cost = offsets[cost <= cap], cost[cost <= cap]
    order = np.argsort(cost, kind="stable")
    offsets, cost = offsets[order], cost[order]
    rings = np.flatnonzero(np.diff(cost)) + 1
    strides = np.array([math.prod(shape[k + 1 :]) for k in range(len(lead))])

    def settle(best, pos, base, worst):
        # the largest distance of the cells whose gaps, leading positions and
        # flat bases are given, with worst settled already: each cell is tried
        # ring by ring until no ring can shorten its distance or the distance
        # cannot exceed the largest one settled so far (the early break of
        # Taha & Hanbury, IEEE TPAMI 37(11), 2015)
        for start, stop in zip(rings, [*rings[1:], len(cost)]):
            c = int(cost[start])
            # a cell within c of its target is settled; one within the largest
            # settled distance cannot raise the maximum
            settled = best <= c
            if settled.any():
                worst = max(worst, int(best[settled].max()))
                if cap is not None and worst > cap:
                    return worst
            keep = best > max(c, worst)
            if not keep.all():
                best, pos, base = best[keep], pos[keep], base[keep]
                if not len(best):
                    return worst
            # offsets past the window's edge are clipped onto it: the clipped
            # cell is no farther than the ring, so no distance comes out short
            near = np.clip(pos[:, None, :] + offsets[None, start:stop], 0, lead - 1)
            ring = gap[base[:, None] + near @ strides].min(axis=1)
            if euclidean:
                ring += c
            else:
                np.maximum(ring, c, out=ring)
            np.minimum(best, ring, out=best)
        rest = int(best.max())
        # past the last ring within the cap, a cell above it stays above it
        return cap + 1 if cap is not None and rest > cap else max(worst, rest)

    pos = np.stack(np.unravel_index(cells, shape)[:-1], axis=1)
    base = cells - pos @ strides
    worst = 0
    if cap is not None and len(best) > PROBE_CELLS:
        probe = np.argpartition(best, -PROBE_CELLS)[-PROBE_CELLS:]
        worst = settle(best[probe], pos[probe], base[probe], 0)
        if worst > cap:
            return worst
    return settle(best, pos, base, worst)


def _chamfer(dist: np.ndarray) -> None:
    """One raster pass of the unit chamfer, every axis ascending, in place:
    each cell becomes the least of itself and one more than each neighbour
    visited before it (Rosenfeld & Pfaltz, JACM 13(4), 1966).  A forward
    pass and a pass over the reversed array give the exact chessboard
    distance to the zero cells.

    Along the last axis the left neighbour's term is closed-form:
    j + minimum.accumulate(r - j).  Along a leading axis each slice first
    takes one more than the least of the previous slice's neighbourhood.
    """
    if dist.ndim == 1:
        j = np.arange(len(dist), dtype=dist.dtype)
        dist -= j
        np.minimum.accumulate(dist, out=dist)
        dist += j
        return
    for i in range(len(dist)):
        if i:
            near = dist[i - 1].copy()
            for axis in range(near.ndim):
                side = near.copy()
                lo = (slice(None),) * axis + (slice(1, None),)
                hi = (slice(None),) * axis + (slice(None, -1),)
                np.minimum(side[lo], near[hi], out=side[lo])
                np.minimum(side[hi], near[lo], out=side[hi])
                near = side
            near += 1
            np.minimum(dist[i], near, out=dist[i])
        _chamfer(dist[i])


# ---------------------------------------------------------------------------
# grid-snapped set tuples


# ``_union`` scatters into an occupancy window only when its box holds at
# most this many cells per row, checked before the window is allocated;
# sparser unions are sorted.
WINDOW_CELLS_PER_POINT = 16


def _union(images, rows: int) -> np.ndarray:
    """np.unique of the rows of some images, ``rows`` rows in all (at least
    one), as C-contiguous int64 rows.

    An image is a list of per-axis (table, key) pairs: its column j is
    ``table[key]``, and the tables' extremes bound the columns.  When the
    box they span (sized in Python integers) holds at most
    ``WINDOW_CELLS_PER_POINT`` cells per row, every image is scattered into
    one occupancy window over it, read back in C order, which is
    lexicographic; sparser unions are sorted row-wise.
    """
    axes = list(zip(*images))
    lo = [min(int(t.min()) for t, _ in col) for col in axes]
    shape = tuple(max(int(t.max()) for t, _ in col) - low + 1 for col, low in zip(axes, lo))
    if math.prod(shape) > WINDOW_CELLS_PER_POINT * rows:
        return np.unique(
            np.concatenate([np.stack([t[k] for t, k in img], axis=1) for img in images]),
            axis=0,
        )
    window = np.zeros(shape, dtype=bool)
    for img in images:
        window[tuple((t - low)[k] for (t, k), low in zip(img, lo))] = True
    cells = np.flatnonzero(window)
    del window
    out = np.stack(np.unravel_index(cells, shape), axis=1)
    out += lo
    return out


def _canonical(idx: np.ndarray) -> np.ndarray:
    """np.unique(idx, axis=0) of a nonempty int64 array, C-contiguous."""
    return _union([[(col, slice(None)) for col in idx.T]], len(idx))


def _snap(pts: np.ndarray, origin: np.ndarray, pitch: float) -> np.ndarray:
    """Lattice indices of the grid points nearest to real points."""
    return np.rint((pts - origin) / pitch).astype(np.int64)


def _snap_offset(pts: np.ndarray, origin: np.ndarray, pitch: float, metric):
    """The lattice rows nearest to some real points, at least one, and eps,
    the largest offset |p - snap(p)| in the metric: at most h*sqrt(d)/2 for
    the Euclidean metric and h/2 for the max metric, and 0 when every point
    is a lattice point.

    A one-sided distance measured on the rows is off from the real points'
    one by at most eps, either way, by the triangle inequality; adding eps
    gives an upper bound."""
    rows = _snap(pts, origin, pitch)
    offset = pts - (origin + pitch * rows.astype(float))
    norm = 2 if metric == EUCLIDEAN else np.inf
    return rows, float(np.linalg.norm(offset, norm, axis=1).max())


class SetTuple:
    """One finite grid cloud per vertex.

    Clouds are stored as lexicographically sorted, duplicate-free,
    C-contiguous int64 lattice coordinates relative to (origin, pitch); real
    coordinates are origin + pitch * index.  Construction canonicalizes
    (``_canonical``), so equal sets have equal rows regardless of input
    order; the rows are the one stored form.  ``hutchinson_step`` builds
    its rows in that form and hands them over through ``_of_rows``.
    """

    def __init__(self, origin, pitch: float, clouds: dict[str, np.ndarray]):
        self.origin = np.asarray(origin, dtype=float)
        self.pitch = float(pitch)
        if self.pitch <= 0:
            raise ValueError("pitch must be positive")
        canon = {}
        for v, idx in clouds.items():
            idx = np.asarray(idx, dtype=np.int64)
            if idx.ndim != 2:
                raise ValueError("lattice cloud must be 2-d")
            if len(idx) and idx.shape[1] != self.origin.size:
                raise ValueError(f"lattice cloud at {v!r} has rows of width {idx.shape[1]}, "
                                 f"but the origin has dimension {self.origin.size}")
            canon[v] = _canonical(idx) if len(idx) else idx.reshape(0, self.origin.size)
        self.clouds = canon

    @classmethod
    def from_points(cls, origin, pitch, point_clouds):
        origin = np.asarray(origin, dtype=float)
        snapped = {}
        for v, pts in point_clouds.items():
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            if pts.size == 0:
                snapped[v] = np.empty((0, origin.size), dtype=np.int64)
                continue
            snapped[v] = _snap(pts, origin, pitch)
        return cls(origin, pitch, snapped)

    @classmethod
    def _of_rows(cls, origin: np.ndarray, pitch: float, clouds: dict[str, np.ndarray]):
        """A tuple over float origin and pitch whose clouds are already in
        the stored form; they are kept as they are."""
        self = cls.__new__(cls)
        self.origin, self.pitch, self.clouds = origin, pitch, clouds
        return self

    @classmethod
    def from_fibers(cls, sys: MWSystem, pitch: float, origin=None):
        """Full fiber regions sampled on the grid (one cloud per vertex).

        The rows are the lattice indices ``grid_indices`` keeps, already in
        the stored form, so they never pass through real points."""
        origin = np.zeros(sys.dim) if origin is None else np.asarray(origin, dtype=float)
        pitch = float(pitch)
        if pitch <= 0:
            raise ValueError("pitch must be positive")
        return cls._of_rows(
            origin,
            pitch,
            {v: grid_indices(f.region, pitch, origin) for v, f in sys.fibers.items()},
        )

    def points(self, v: str) -> np.ndarray:
        return self.origin + self.pitch * self.clouds[v].astype(float)

    def vertices(self):
        return sorted(self.clouds)

    def same_grid(self, other: "SetTuple") -> bool:
        return (
            self.pitch == other.pitch
            and self.origin.shape == other.origin.shape
            and bool(np.all(self.origin == other.origin))
        )

    def coarsen(self, factor: int) -> "SetTuple":
        """The occupied cells of the grid with pitch * factor (same origin)."""
        return SetTuple(
            self.origin, self.pitch * factor, {v: c // factor for v, c in self.clouds.items()}
        )

    def vertex_distances(self, other: "SetTuple", metric=EUCLIDEAN, *,
                         cap: int | None = None) -> dict[str, float]:
        """Per-vertex Hausdorff distance to another tuple on the same grid.

        Equal lattice clouds short-circuit to 0 (canonical form makes the
        array comparison conclusive).  Unequal clouds are measured from their
        integer rows, exactly, over an occupancy window on their joint
        bounding box (``_window_distance``), and scaled by the pitch.  A box
        of more than ``MAX_GRID_POINTS`` cells, an empty cloud against a
        nonempty one, or a metric other than ``"euclidean"`` or ``"max"``
        raises ValueError.

        A ``cap``, in cells and squared for the Euclidean metric, goes to
        the windows: a distance is exact when it is within the cap, and
        otherwise some value past pitch times the cap's length and at most
        the exact one."""
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
                out[v] = self.pitch * _window_distance(c, o, metric, cap)
        return out

    def __eq__(self, other):
        if not isinstance(other, SetTuple) or not self.same_grid(other):
            return False
        if set(self.clouds) != set(other.clouds):
            return False
        return all(np.array_equal(self.clouds[v], other.clouds[v]) for v in self.clouds)

    def __repr__(self):
        sizes = {v: len(c) for v, c in sorted(self.clouds.items())}
        return f"SetTuple(pitch={self.pitch:g}, sizes={sizes})"


def tuple_distance(a: SetTuple, b: SetTuple, metric=EUCLIDEAN, *, cap: int | None = None) -> float:
    """sup over vertices of the per-vertex Hausdorff distance; equal clouds
    cost nothing, which keeps fixed-point detection cheap.  A ``cap`` makes
    the window measurements exact only within it (``vertex_distances``)."""
    return max(a.vertex_distances(b, metric, cap=cap).values(), default=0.0)


# ---------------------------------------------------------------------------
# the set-valued operator


def _image(m: AffineMap, C: SetTuple, src: str, spans):
    """The snapped image under m of C's nonempty cloud at src, as the
    per-axis (table, key) pairs of ``_union``.

    ``spans`` holds, per axis, the cloud's least and greatest index and its
    column less the least index.  A diagonal linear part maps each axis on
    its own: every index of the cloud's span goes through the float
    expression of ``m.apply`` on ``C.points`` and then ``_snap``, whose
    off-diagonal terms would only add exact zeros, into a small table that
    the column keys.  Other maps are applied to the points, then snapped.
    """
    a, origin, pitch = m.matrix, C.origin, C.pitch
    if not np.array_equal(a, np.diag(np.diagonal(a))):
        return [(col, slice(None)) for col in _snap(m.apply(C.points(src)), origin, pitch).T]
    image = []
    for j, (low, high, key) in enumerate(spans):
        x = origin[j] + pitch * np.arange(low, high + 1).astype(float)
        table = np.rint((x * a[j, j] + m.shift[j] - origin[j]) / pitch).astype(np.int64)
        image.append((table, key))
    return image


def hutchinson_step(sys: MWSystem, n, C: SetTuple, _maps=None) -> SetTuple:
    """One application of the degree-n operator: per vertex, the snapped
    union of the path images of the current clouds.

    Each path map's image of a lattice cloud is snapped on its own, through
    per-axis index tables when its linear part is diagonal and from the
    real points otherwise; either way it lands on the rows that snapping
    ``m.apply`` of every point gives.  The images of a vertex are united by
    one scatter into an occupancy window, or one sort, so the result does
    not depend on evaluation order (degree 0 returns C unchanged).
    """
    if all(c == 0 for c in n):
        return C
    maps = _maps if _maps is not None else degree_maps(sys, n)
    spans = {}
    out = {}
    for v in sys.graph.vertices:
        images, rows = [], 0
        for m, src in maps[v]:
            cloud = C.clouds[src]
            if not len(cloud):
                continue
            if src not in spans:
                spans[src] = [(col.min(), col.max(), col - col.min()) for col in cloud.T]
            images.append(_image(m, C, src, spans[src]))
            rows += len(cloud)
        if not images:
            raise ValueError(f"no images at vertex {v!r} (empty input clouds)")
        out[v] = _union(images, rows)
    return SetTuple._of_rows(C.origin, C.pitch, out)


def contraction_factor(sys: MWSystem, n) -> float:
    """Largest Lipschitz bound among the degree-n path maps.

    The paths are not listed.  The normal-form steps are walked keeping, per
    source vertex reached so far, only the distinct linear parts of the
    prefix maps, composed in ``extend_map``'s order.  Every path's linear
    part is then one of the survivors bit for bit, so the maximum is the
    same as over all paths, at the cost of the distinct parts only.
    """
    g = sys.graph
    n = tuple(n)
    if len(n) != g.k or any(c < 0 for c in n):
        raise KGraphError(f"bad degree vector {n!r}")
    layer = {v: [AffineMap.identity(v, sys.dim)] for v in g.vertices}
    first = True
    for color in range(1, g.k + 1):
        for _ in range(n[color - 1]):
            nxt: dict[str, dict[bytes, AffineMap]] = {}
            for u, maps in layer.items():
                for ident in g.edges_with_range(color, u):
                    gen = sys.generators[ident]
                    seen = nxt.setdefault(g.edge(ident).source_vertex, {})
                    for m in maps:
                        f = gen if first else m.after(gen)
                        seen.setdefault(f.matrix.tobytes(), f)
            layer = {u: list(seen.values()) for u, seen in nxt.items()}
            first = False
    worst = 0.0
    for maps in layer.values():
        for m in maps:
            worst = max(worst, lipschitz_bound(m, sys.metric))
    return worst


def _require_contraction(sys: MWSystem, n) -> float:
    """The degree-n operator's contraction factor; ValueError unless below 1."""
    c_n = contraction_factor(sys, n)
    if c_n >= 1.0:
        raise ValueError(f"degree {tuple(n)} operator is not a contraction (factor {c_n:.6g})")
    return c_n


@dataclass(frozen=True)
class ConvergenceCertificate:
    iterations: int
    displacement: float        # Hausdorff gap between the last two iterates
    contraction: float         # Lipschitz bound of the iterated operator
    pitch: float
    tol: float
    converged: bool

    @property
    def error_bound(self) -> float:
        """A-posteriori distance to the true fixed point: the Banach
        estimate for the returned iterate plus grid slack."""
        return self.displacement * self.contraction / (1.0 - self.contraction) + 2.0 * self.pitch

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{status}: iterations={self.iterations} displacement={self.displacement:.6g} "
            f"contraction={self.contraction:.6g} pitch={self.pitch:.6g} "
            f"tol={self.tol:.6g} error_bound={self.error_bound:.6g}"
        )


def _stops(delta: float, c: float, tol: float) -> bool:
    """The Banach stop test: an iterate that moved delta under an operator
    contracting by c lies within delta*c/(1-c) of the fixed point."""
    return delta * c / (1.0 - c) <= tol


# above every lattice distance a window can hold, squared ones included
_CAP_TOP = 2**64


def _stop_cap(pitch: float, c: float, tol: float, metric) -> int:
    """The largest lattice distance (squared for the Euclidean metric) whose
    displacement, pitch times its length as ``vertex_distances`` forms it,
    passes ``_stops``: ``_CAP_TOP`` when that one passes, 0 when none does.

    Every step of that expression is monotone in the distance, so the
    distances that pass are those up to one bound, found by bisection on
    the expression itself; the decisions it makes are the loop's own.
    """
    def passes(cells):
        return _stops(pitch * _cells_to_length(cells, metric), c, tol)

    if passes(_CAP_TOP):
        return _CAP_TOP
    lo, hi = 0, _CAP_TOP  # no distance from hi on passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


def compute_attractor(
    sys: MWSystem,
    n,
    C0: SetTuple,
    tol: float | None = None,
    max_iter: int = 64,
) -> tuple[SetTuple, ConvergenceCertificate]:
    """Iterate the degree-n operator from C0 until certified within tol.

    The contraction factor of the operator is measured from the composite
    maps; a factor >= 1 is rejected (in relaxed mode only diagonal degrees
    contract, so pass a multiple of (1,..,1) there).  Returns the final
    tuple and its certificate; non-convergence within max_iter is reported
    on the certificate, not raised.

    Each step but the last allowed one only has to be decided against the
    stop test, so its displacement is measured with a cap: the largest
    lattice distance that passes the test (``_stop_cap``).  Within the cap
    the measure is exact, past it the step cannot stop; the step that stops
    was therefore measured exactly.  The last allowed step is measured
    without a cap, so the certificate's displacement is always the exact
    lattice distance.
    """
    if tol is None:
        tol = 4.0 * C0.pitch
    for v in sys.graph.vertices:
        if len(C0.clouds.get(v, ())) == 0:
            raise ValueError(f"empty initial cloud at vertex {v!r}")
    c_n = _require_contraction(sys, n)
    maps = degree_maps(sys, n)
    cap = _stop_cap(C0.pitch, c_n, tol, sys.metric)
    current = C0
    delta = float("inf")
    for it in range(1, max_iter + 1):
        nxt = hutchinson_step(sys, n, current, _maps=maps)
        delta = tuple_distance(current, nxt, sys.metric, cap=cap if it < max_iter else None)
        current = nxt
        if _stops(delta, c_n, tol):
            return current, ConvergenceCertificate(it, delta, c_n, C0.pitch, tol, True)
    return current, ConvergenceCertificate(max_iter, delta, c_n, C0.pitch, tol, False)


def check_commutation(sys: MWSystem, n, m, C: SetTuple, tol: float) -> bool:
    """Whether applying degrees n and m in either order lands within tol.

    The underlying composite maps commute exactly; only the intermediate
    snapping differs, which stays within grid slack.
    """
    maps_n, maps_m = degree_maps(sys, n), degree_maps(sys, m)
    nm = hutchinson_step(sys, m, hutchinson_step(sys, n, C, _maps=maps_n), _maps=maps_m)
    mn = hutchinson_step(sys, n, hutchinson_step(sys, m, C, _maps=maps_m), _maps=maps_n)
    return tuple_distance(nm, mn, sys.metric) <= tol
