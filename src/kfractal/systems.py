"""Vertex fibers, affine edge contractions, and system validation.

A system attaches a compact region in R^d to every vertex and an affine map
to every edge of the underlying graph; maps extend to all paths by
composition.  Because the maps are affine, the consistency demanded by the
factorization squares is a matrix identity, checked here in exact rational
arithmetic over the stored float entries (every float is a rational, so the
check has no tolerance); so is each map's containment of its source fiber's
image in its target fiber, through the regions' ``encloses``.

A fiber and a map are named tuples; a system is a plain class, since its
mode can be overridden after loading.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import row_sum_norm, spectral_norm
from .kgraph import KGraph, Path, enumerate_paths, normal_steps
from .report import AXIOM, RELAXED, STRICT, STRUCTURAL, ValidationReport

EUCLIDEAN = "euclidean"
MAX = "max"


# ---------------------------------------------------------------------------
# regions


def _exponent(v: np.ndarray) -> int:
    """The binary exponent e with v's largest entry in [2^(e-1), 2^e), or 0
    when v is zero or not finite: scaling v by 2^-e is exact and brings its
    entries into (-1, 1)."""
    top = float(np.abs(v).max(initial=0.0))
    return math.frexp(top)[1] if 0.0 < top < math.inf else 0


def _scaled(length, v: np.ndarray):
    """length(v), for a function of degree one in v such as a Euclidean
    length of v's last axis or a mean, taken of v scaled by a power of two
    near its largest entry and scaled back.  The scaling is exact, so where
    v's squares are finite normal floats the value is length(v) bit for
    bit; where they would overflow it stays finite up to the float range."""
    e = _exponent(v)
    return np.ldexp(length(np.ldexp(v, -e)), e)


def _pair_lengths(diff: np.ndarray) -> np.ndarray:
    return np.sqrt((diff ** 2).sum(-1))


def _rational(rows) -> list[tuple[Fraction, ...]]:
    """Float rows as exact rationals (every float is one)."""
    return [tuple(map(Fraction, row)) for row in np.atleast_2d(rows).tolist()]


class Box:
    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.hi < self.lo):
            raise ValueError("degenerate box")

    @property
    def dim(self):
        return self.lo.size

    def diameter(self, metric=EUCLIDEAN):
        side = self.hi - self.lo
        return float(_scaled(np.linalg.norm, side)) if metric == EUCLIDEAN else float(side.max())

    def centroid(self):
        return (self.lo + self.hi) / 2.0

    def contains(self, pts, tol):
        pts = np.atleast_2d(pts)
        # column by column: numpy reduces a narrow (N, d) array along its
        # rows several times slower
        inside = np.ones(len(pts), dtype=bool)
        for col, low, high in zip(pts.T, self.lo - tol, self.hi + tol):
            inside &= col >= low
            inside &= col <= high
        return inside

    def encloses(self, point, radius) -> bool:
        """Whether the closed ball of the rational radius about the rational
        point lies in the box: lo + r <= x <= hi - r, exactly."""
        lo, hi = _rational([self.lo, self.hi])
        return all(a + radius <= x <= b - radius for x, a, b in zip(point, lo, hi))

    def exact_corners(self):
        return list(itertools.product(*zip(*_rational([self.lo, self.hi]))))

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()


class Ball:
    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.size

    def diameter(self, metric=EUCLIDEAN):
        return 2.0 * self.radius

    def centroid(self):
        return self.center.copy()

    def contains(self, pts, tol):
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol

    def encloses(self, point, radius) -> bool:
        """Whether the closed ball of the rational radius about the rational
        point lies in this one: r <= R and |x - c|^2 <= (R - r)^2, exactly."""
        (center,), big = _rational(self.center), Fraction(self.radius)
        return radius <= big and sum(
            (x - c) ** 2 for x, c in zip(point, center)) <= (big - radius) ** 2

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class Polygon:
    """Convex polygon in the plane; corners are normalized to CCW order.

    Non-finite corners are kept as given, for ``validate_system`` to report
    as ``non-finite``; repeated or collinear corners are refused, and so is
    a star, whose sides wind more than once.  The orientation, every turn
    and the winding are signs of exact rationals."""

    def __init__(self, corners):
        pts = np.asarray(corners, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise ValueError("polygon needs >= 3 planar corners")
        if not np.isfinite(pts).all():
            self.corners = pts
            return
        xy = _rational(pts)
        if sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1])) < 0:
            pts, xy = pts[::-1].copy(), xy[::-1]
        self.corners = pts
        sides = [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1])]
        pairs = list(zip(sides, sides[1:] + sides[:1]))
        turns = [dx * ey - dy * ex for (dx, dy), (ex, ey) in pairs]
        if min(turns) < 0:
            raise ValueError("polygon is not convex")
        if min(turns) == 0:
            raise ValueError("bad-region: polygon has repeated or collinear corners")
        # the sides turn upward once per winding, and a star winds twice
        if sum(dy < 0 <= ey for (_, dy), (_, ey) in pairs) != 1:
            raise ValueError("polygon is not convex")

    @property
    def dim(self):
        return 2

    def diameter(self, metric=EUCLIDEAN):
        diff = self.corners[:, None, :] - self.corners[None, :, :]
        if metric == EUCLIDEAN:
            return float(_scaled(_pair_lengths, diff).max())
        return float(np.abs(diff).max())

    def centroid(self):
        return _scaled(lambda v: v.mean(axis=0), self.corners)

    def _edge_normals(self):
        edges = np.roll(self.corners, -1, axis=0) - self.corners
        # inward normals for CCW orientation
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        lengths = _scaled(lambda n: np.linalg.norm(n, axis=1), normals)
        return normals / lengths[:, None]

    def contains(self, pts, tol):
        pts = np.atleast_2d(pts)
        normals = self._edge_normals()
        diff = pts[:, None, :] - self.corners[None, :, :]
        signed = np.einsum("ijd,jd->ij", diff, normals)
        return np.all(signed >= -tol, axis=1)

    def encloses(self, point, radius) -> bool:
        """Whether the closed disc of the rational radius about the rational
        point lies in the polygon: on every CCW edge a -> b the cross product
        (b - a) x (x - a) is >= 0 and its square >= r^2 |b - a|^2, exactly."""
        (x, y), xy = point, self.exact_corners()
        for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1]):
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            if cross < 0 or cross ** 2 < radius ** 2 * ((bx - ax) ** 2 + (by - ay) ** 2):
                return False
        return True

    def exact_corners(self):
        return _rational(self.corners)

    def bounding_box(self):
        return self.corners.min(axis=0), self.corners.max(axis=0)


class PointSet:
    """Explicit finite region; ``encloses`` is exact membership."""

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))

    @property
    def dim(self):
        return self.points.shape[1]

    def diameter(self, metric=EUCLIDEAN):
        pts = self.points
        lo, hi = self.bounding_box()
        if len(pts) > 4096:  # upper bound via the bounding box
            return Box(lo, hi).diameter(metric)
        # each block scaled as _scaled scales all P^2 pairs: by the largest side
        e = _exponent(hi - lo)
        worst = []
        for rows in self._blocks(len(pts)):
            diff = pts[rows, None, :] - pts[None, :, :]
            worst.append(np.ldexp(_pair_lengths(np.ldexp(diff, -e, out=diff)), e).max()
                         if metric == EUCLIDEAN else np.abs(diff).max())
        return float(np.max(worst))

    def _blocks(self, n: int) -> list[slice]:
        """Slices of n rows that pair with the listed points in at most 2^20
        pairs each (one row when a row makes more)."""
        step = max(1, 2**20 // len(self.points))
        return [slice(start, start + step) for start in range(0, n, step)]

    def centroid(self):
        return self.points.mean(axis=0)

    def contains(self, pts, tol):
        pts = np.atleast_2d(pts)
        inside = np.empty(len(pts), dtype=bool)
        for rows in self._blocks(len(pts)):
            diff = pts[rows, None, :] - self.points[None, :, :]
            # both sides scaled by 2^-e, exactly: e = 0 changes no bit, and
            # past 2^500 e keeps the squares and their sums finite
            e = max(0, _exponent(diff) - 500)
            lengths = _pair_lengths(np.ldexp(diff, -e, out=diff))
            inside[rows] = lengths.min(axis=1) <= np.ldexp(tol, -e)
        return inside

    def encloses(self, point, radius) -> bool:
        """Whether the closed ball of the rational radius about the rational
        point lies in the set: r = 0 and the point is listed."""
        return radius == 0 and tuple(point) in self._members

    @functools.cached_property
    def _members(self) -> set:
        # floats equal and hash as the rationals they are
        return set(map(tuple, self.points.tolist()))

    def exact_corners(self):
        return _rational(self.points)

    def bounding_box(self):
        return self.points.min(axis=0), self.points.max(axis=0)


# largest grid a region's bounding box may hold (16.8M points: every shipped
# fiber down to a quarter of its default pitch)
MAX_GRID_POINTS = 2**24


def grid_bounds(region, pitch) -> list[tuple[int, int]]:
    """Per axis, the least and greatest lattice index spanning the region's
    bounding box, as Python integers.  A pitch that is not positive and
    finite, or more than ``MAX_GRID_POINTS`` points, counted in Python
    integers, raise ValueError."""
    if not 0 < pitch < math.inf:
        raise ValueError(f"grid pitch must be positive and finite, got {pitch!r}")
    lo, hi = region.bounding_box()
    with np.errstate(over="ignore"):
        start, stop = np.floor(lo / pitch), np.ceil(hi / pitch)
    if not np.isfinite(stop - start).all() or math.prod(
            int(n) + 1 for n in stop - start) > MAX_GRID_POINTS:
        raise ValueError(f"a grid of pitch {pitch!r} over the region has more than "
                         f"{MAX_GRID_POINTS} points")
    return [(int(a), int(b)) for a, b in zip(start, stop)]


def grid_axes(region, pitch) -> list[np.ndarray]:
    """Per axis, the lattice indices spanning the region's bounding box;
    ``grid_bounds`` refuses too large a grid before anything is allocated."""
    return [np.arange(a, b + 1) for a, b in grid_bounds(region, pitch)]


# grid points built and tested at a time by ``grid_indices``, so that the
# bounding-box mesh of a large fiber is never held whole
_GRID_SLAB_POINTS = 1 << 14


def grid_indices(region, pitch):
    """Lattice indices of the grid points of the given pitch inside a
    region (with boundary slack): sorted, duplicate-free,
    C-contiguous int64 rows, because the mesh is built in ``ij`` order.  Too
    large a grid raises ValueError, counted by ``grid_axes`` first.

    The mesh is built in slabs of whole rows of the first axis, at most
    ``_GRID_SLAB_POINTS`` points each (one row when a row holds more), and
    the rows each slab keeps are concatenated: the transient memory is about
    twice the kept rows, not the bounding box."""
    d = region.dim
    first, *rest = grid_axes(region, pitch)
    step = max(1, _GRID_SLAB_POINTS // math.prod(map(len, rest)))
    kept = []
    for start in range(0, len(first), step):
        axes = np.meshgrid(first[start:start + step], *rest, indexing="ij")
        mesh = np.stack(axes, axis=-1).reshape(-1, d)
        kept.append(mesh[in_region(region, mesh, pitch)])
    return np.concatenate(kept)


def in_region(region, rows, pitch) -> np.ndarray:
    """Which lattice rows of the given pitch lie in a region, with the
    boundary slack ``grid_indices`` keeps them by."""
    return region.contains(pitch * rows, tol=pitch * 1e-6)


class MetricFiber(NamedTuple):
    region: object
    metric: str = EUCLIDEAN

    @property
    def dim(self):
        return self.region.dim

    def diameter(self):
        return self.region.diameter(self.metric)

    def basepoint(self):
        return self.region.centroid()


# ---------------------------------------------------------------------------
# affine maps


class AffineMap(NamedTuple):
    """x -> matrix @ x + shift; the graph's edge gives its endpoints."""

    matrix: np.ndarray
    shift: np.ndarray

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def of(cls, matrix, shift):
        return cls(np.asarray(matrix, dtype=float), np.asarray(shift, dtype=float))

    def apply(self, pts):
        """The image of a point (d,), of each row of a cloud (n, d), or, when
        the map is a stack (matrix (n, d, d), shift (n, d)), of each row
        under its own map.  Coordinate i is ((x_0 a_i0 + x_1 a_i1) + ...) +
        s_i in elementwise float64 operations, column by column: no BLAS and
        no fused multiply-add, so a point's image is the same bits alone, in
        any cloud and on any host."""
        # cols[j] is x_j and rows[i][j] is a_ij: scalars, or one per row
        cols, rows = np.asarray(pts, dtype=float).T, self.matrix.T.swapaxes(0, 1)
        out = []
        for row, s in zip(rows, self.shift.T):
            acc = cols[0] * row[0]
            for x, a in zip(cols[1:], row[1:]):
                acc += x * a
            acc += s
            out.append(acc)
        return np.stack(out, axis=-1)

    def after(self, other: "AffineMap") -> "AffineMap":
        """self o other (apply other first)."""
        return AffineMap(self.matrix @ other.matrix, self.matrix @ other.shift + self.shift)

    def exact(self):
        """Entries lifted to exact rationals (floats are rationals)."""
        mat = tuple(tuple(Fraction(x) for x in row) for row in self.matrix.tolist())
        sh = tuple(Fraction(x) for x in self.shift.tolist())
        return mat, sh


def exact_after(a, b):
    """Exact-rational composite a o b of two ``AffineMap.exact()`` values."""
    (ma, ta), (mb, tb) = a, b
    n = len(ma)
    mat = tuple(
        tuple(sum(ma[i][k] * mb[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    sh = tuple(sum(ma[i][k] * tb[k] for k in range(n)) + ta[i] for i in range(n))
    return mat, sh


def lipschitz_bound(m: AffineMap, metric: str = EUCLIDEAN) -> float:
    """A certified Lipschitz bound of the linear part A, without LAPACK: the
    least float at or above its operator norm, the spectral norm for the
    Euclidean metric (``exact.spectral_norm``) and the maximum absolute row
    sum for the max metric (``exact.row_sum_norm``), each memoized per
    linear part.  A matrix with an entry that is not finite has bound inf."""
    if metric not in (EUCLIDEAN, MAX):
        raise ValueError(f"unknown metric {metric!r}")
    if not np.isfinite(m.matrix).all():
        return math.inf
    rows = tuple(map(tuple, np.asarray(m.matrix, dtype=float).tolist()))
    return spectral_norm(rows) if metric == EUCLIDEAN else row_sum_norm(rows)


# ---------------------------------------------------------------------------
# systems


class MWSystem:
    """Graph + fibers + one affine contraction per edge.

    ``mode`` declares where the contraction ratio is enforced: ``strict``
    means every generator has Lipschitz bound <= ratio; ``relaxed`` only
    requires it of every degree-(1,..,1) composite, which is what genuinely
    two-dimensional product systems can offer.
    """

    graph: KGraph
    fibers: dict[str, MetricFiber]
    generators: dict[str, AffineMap]
    ratio: float
    mode: str
    name: str

    def __init__(self, graph: KGraph, fibers: dict[str, MetricFiber],
                 generators: dict[str, AffineMap], ratio: float, mode: str = STRICT,
                 name: str = ""):
        self.graph, self.fibers, self.generators = graph, fibers, generators
        self.ratio, self.mode, self.name = ratio, mode, name

    @property
    def dim(self):
        return next(iter(self.fibers.values())).dim

    @property
    def metric(self):
        return next(iter(self.fibers.values())).metric

    @property
    def diagonal_degree(self):
        return (1,) * self.graph.k


def extend_map(sys: MWSystem, p: Path) -> AffineMap:
    """The affine map of a path: composite of the generators along its
    normal form (identity for a vertex).  Any other decomposition gives the
    same map when the system validates; the normal form fixes the float
    evaluation order so equal paths always produce bitwise equal maps."""
    if p.is_vertex:
        return AffineMap.identity(sys.dim)
    out = sys.generators[p.edges[0]]
    for ident in p.edges[1:]:
        out = out.after(sys.generators[ident])
    return out


def exact_path_map(sys: MWSystem, p: Path):
    """The path's affine map composed entirely in rational arithmetic.

    Unlike ``extend_map`` (float, canonical order), this is exactly
    associative, so it is the right object for decomposition-independence
    identities."""
    if p.is_vertex:
        one, zero = Fraction(1), Fraction(0)
        mat = tuple(
            tuple(one if i == j else zero for j in range(sys.dim))
            for i in range(sys.dim)
        )
        return mat, (zero,) * sys.dim
    out = sys.generators[p.edges[0]].exact()
    for ident in p.edges[1:]:
        out = exact_after(out, sys.generators[ident].exact())
    return out


def degree_maps(sys: MWSystem, n) -> dict[str, list[tuple[AffineMap, str]]]:
    """Per vertex, the composite map and source vertex of every path of
    degree n with that range, in ``enumerate_paths`` order.  The
    ``normal_steps`` are walked forward, composing each prefix map once in
    ``extend_map``'s order, so every map is ``extend_map`` of its path bit
    for bit; no ``Path`` is built."""
    g = sys.graph
    steps = normal_steps(g, n)
    out = {}
    for i, v in enumerate(g.vertices):
        layer = [(AffineMap.identity(sys.dim), i)]
        for j, row in enumerate(steps):
            layer = [(m.after(sys.generators[e]) if j else sys.generators[e], s)
                     for m, u in layer for e, s in zip(*row[u])]
        out[v] = [(m, g.vertices[s]) for m, s in layer]
    return out


def _image_inside(m: AffineMap, src: MetricFiber, dst: MetricFiber) -> bool:
    """Whether m provably maps src's region into dst's region, decided in
    exact rationals by the target's ``encloses``.

    A box, polygon or point-set source is decided by its corners' exact
    images at radius 0: a box, ball or polygon target is convex, and a
    point-set target holds a box or polygon image only when it is one
    point.  A ball source is proved through its centre's image at its radius
    times the certified ``lipschitz_bound``, which suffices but is not
    necessary; a point-set target then needs that radius 0.
    """
    mat, shift = m.exact()

    def image(p):
        return tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(mat, shift))

    region = src.region
    if isinstance(region, Ball):
        images = [image(*_rational(region.center))]
        radius = Fraction(region.radius) * Fraction(lipschitz_bound(m, EUCLIDEAN))
    else:
        images, radius = [image(p) for p in region.exact_corners()], 0
        if isinstance(dst.region, PointSet) and not isinstance(region, PointSet) \
                and len(set(images)) > 1:
            return False
    return all(dst.region.encloses(x, radius) for x in images)


def _exceeds(lip: float, ratio: float) -> str:
    """``lip > ratio`` in six significant digits, or in full where those
    read the same."""
    short = f"{lip:.6g}", f"{ratio:.6g}"
    return " > ".join(short) if short[0] != short[1] else f"{lip!r} > {ratio!r}"


def validate_system(sys: MWSystem) -> ValidationReport:
    """Check fiber/generator tables, exact square consistency, domain
    containment, and the mode's Lipschitz requirement."""
    rep = ValidationReport()
    g = sys.graph

    for v in g.vertices:
        if v not in sys.fibers:
            rep.add(STRUCTURAL, "missing-fiber", v, "vertex has no fiber")
    for v in sys.fibers:
        if v not in g.vertex_set:
            rep.add(STRUCTURAL, "unknown-vertex", v, "fiber of a vertex the graph lacks")
    if not sys.fibers:
        rep.add(STRUCTURAL, "no-fiber", "fibers", "the system has no fiber")
    for ident in g.edges:
        if ident not in sys.generators:
            rep.add(STRUCTURAL, "missing-map", ident, "edge has no generator map")
    for ident in sys.generators:
        if ident not in g.edges:
            rep.add(STRUCTURAL, "unknown-edge", ident, "generator for unknown edge")
    dims = {f.dim for f in sys.fibers.values()}
    if len(dims) > 1:
        rep.add(STRUCTURAL, "mixed-dimension", "fibers",
                f"fibers have ambient dimensions {sorted(dims)}")
    metrics = {f.metric for f in sys.fibers.values()}
    if len(metrics) > 1:
        rep.add(STRUCTURAL, "mixed-metric", "fibers",
                f"fibers declare metrics {sorted(metrics)}")
    if not (0 < sys.ratio < 1):
        rep.add(STRUCTURAL, "bad-ratio", str(sys.ratio),
                "contraction ratio must lie in (0, 1)")
    if sys.mode not in (STRICT, RELAXED):
        rep.add(STRUCTURAL, "bad-mode", sys.mode, "mode must be strict or relaxed")
    for v, f in sys.fibers.items():
        if f.metric not in (EUCLIDEAN, MAX):
            rep.add(STRUCTURAL, "bad-metric", v, f"metric {f.metric!r} must be euclidean or max")
        if not all(np.isfinite(b).all() for b in f.region.bounding_box()):
            rep.add(STRUCTURAL, "non-finite", v, "region bounding box is not finite")
    for ident, m in sys.generators.items():
        if not (np.isfinite(m.matrix).all() and np.isfinite(m.shift).all()):
            rep.add(STRUCTURAL, "non-finite", ident, "matrix or translation entry is not finite")
    if rep.findings:
        return rep

    for ident, m in sys.generators.items():
        if m.matrix.shape != (sys.dim, sys.dim) or m.shift.shape != (sys.dim,):
            rep.add(STRUCTURAL, "bad-shape", ident, "matrix/translation shape")
    if rep.findings:
        return rep

    # exact square consistency: the two factorizations of a mixed-color word
    # must yield the same affine map
    for pair, table in g.squares.items():
        for (e, f), (f2, e2) in table.items():
            left = exact_after(sys.generators[e].exact(), sys.generators[f].exact())
            right = exact_after(sys.generators[f2].exact(), sys.generators[e2].exact())
            if left != right:
                lm = sys.generators[e].after(sys.generators[f])
                rm = sys.generators[f2].after(sys.generators[e2])
                res = float(
                    np.linalg.norm(lm.matrix - rm.matrix)
                    + np.linalg.norm(lm.shift - rm.shift)
                )
                rep.add(AXIOM, "square-consistency", f"({e},{f})=({f2},{e2})",
                        f"composite maps differ, residual {res:.3e}")

    for ident, m in sys.generators.items():
        e = g.edge(ident)
        if not _image_inside(m, sys.fibers[e.source_vertex], sys.fibers[e.range_vertex]):
            rep.add(AXIOM, "domain-containment", ident,
                    "image of the source fiber is not proved inside the target fiber")

    metric = sys.metric
    if sys.mode == STRICT:
        for ident, m in sys.generators.items():
            lip = lipschitz_bound(m, metric)
            if lip > sys.ratio:
                rep.add(AXIOM, "lipschitz", ident,
                        f"generator Lipschitz {_exceeds(lip, sys.ratio)}")
    else:
        for v in g.vertices:
            for lam in enumerate_paths(g, v, sys.diagonal_degree):
                lip = lipschitz_bound(extend_map(sys, lam), metric)
                if lip > sys.ratio:
                    rep.add(AXIOM, "lipschitz", ".".join(lam.edges),
                            f"diagonal composite Lipschitz {_exceeds(lip, sys.ratio)}")
    return rep

