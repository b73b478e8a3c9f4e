"""Evaluating the path-space coding on finite prefixes, with error bars.

A long enough prefix pins an attractor point down to the image of the whole
source fiber under the prefix map, whose diameter the Lipschitz data bounds.
Everything here works with that certified radius; no infinite object is ever
materialized.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from .attractor import (
    SetTuple,
    _blocks,
    _directed_bound,
    _snap_offset,
    contraction_factor,
)
from .kgraph import KGraph, Path, compose, count_paths, normal_steps
from .systems import EUCLIDEAN, RELAXED, AffineMap, MWSystem, extend_map, lipschitz_bound


def _metric_dist(a, b, metric):
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(diff))
    return float(np.abs(diff).max())


def require_codable(sys: MWSystem, depth) -> None:
    """ValueError unless the system certifies a contraction at the coding
    depth: a relaxed system codes only diagonal depths."""
    if sys.mode == RELAXED and any(c != depth[0] for c in depth):
        raise ValueError(
            f"relaxed mode codes only diagonal depths, got {tuple(depth)} "
            "(no contraction certificate off the diagonal)"
        )


def coded_error(sys: MWSystem, depth) -> float:
    """The coded error at the depth, one radius for every point of
    ``coded_cloud``: the largest Lipschitz bound among the path maps of the
    depth (``contraction_factor``, which lists no path) times the largest
    fiber diameter.  A prefix map sends its whole source fiber within it of
    the coded point, so no per-point bound is computed."""
    return contraction_factor(sys, tuple(depth)) * max(f.diameter() for f in sys.fibers.values())


# ---------------------------------------------------------------------------
# prefix sampling


# ranks are unranked in int64, so larger path spaces cannot be sampled
_MAX_PATHS = int(np.iinfo(np.int64).max)
# coded_cloud codes at most this many points per vertex: every path without a
# sample count, or this many samples
MAX_EXHAUSTIVE_PATHS = 1_000_000


def _check_drawable(v: str, depth, size: int) -> None:
    if size > _MAX_PATHS:
        raise ValueError(
            f"{size} paths of degree {tuple(depth)} at vertex {v!r} are too many "
            f"to sample (at most {_MAX_PATHS}, the int64 range)"
        )


def path_budget(g: KGraph, depth, count: int | None) -> dict[str, int]:
    """Per vertex, the number of paths of degree ``depth``, after checking
    that coding can afford them.  A vertex codes at most
    ``MAX_EXHAUSTIVE_PATHS`` points: with no sample ``count`` all its paths
    are listed, so there may be at most that many; with a count, the count
    may be at most that many, and the paths are unranked in int64 integers,
    so there may be at most the int64 range of them.  Raises ValueError
    otherwise, before anything is allocated."""
    depth = tuple(depth)
    if count is not None and count > MAX_EXHAUSTIVE_PATHS:
        raise ValueError(f"{count} samples per vertex are too many to code "
                         f"(at most {MAX_EXHAUSTIVE_PATHS})")
    sizes = {v: count_paths(g, v, depth) for v in g.vertices}
    if count is None:
        most = max(sizes.values())
        if most > MAX_EXHAUSTIVE_PATHS:
            raise ValueError(f"{most} paths of degree {depth} at a vertex are too many "
                             f"to list (at most {MAX_EXHAUSTIVE_PATHS}); pass --count")
    else:
        for v, size in sizes.items():
            _check_drawable(v, depth, size)
    return sizes


def _completion_table(g: KGraph, depth):
    """Per step of ``normal_steps(g, depth)``, per vertex index u: the edge
    numbers (positions in ``sorted(g.edges)``) of the candidates with range
    u, their cumulative completion counts from 0 to u's total, so that
    candidate i's block of completions is [starts[i], starts[i + 1]), and
    the indices of their sources; plus the path count of the whole depth at
    every vertex index.  One dynamic program over the reversed steps: each
    state is the completion count of a suffix, in Python ints, since a
    vertex no sample reaches may have more completions than int64 holds."""
    number = {e: i for i, e in enumerate(sorted(g.edges))}
    counts = [1] * len(g.vertices)
    steps = []
    for row in reversed(normal_steps(g, depth)):
        row = [([number[e] for e in ids],
                list(itertools.accumulate((counts[s] for s in sources), initial=0)), sources)
               for ids, sources in row]
        counts = [starts[-1] for _, starts, _ in row]
        steps.append(row)
    steps.reverse()
    return steps, counts


def _draw_ranks(rng: random.Random, size: int, n: int) -> np.ndarray:
    """``n`` ranks drawn uniformly from [0, size), as int64.

    Each rank is the top k = (size - 1).bit_length() bits of a little-endian
    uint64 from ``rng.randbytes``, which is uniform on [0, 2^k); a slot
    whose bits are size or more is redrawn until it is not, so every rank
    is exactly uniform.  Since 2^(k-1) < size, fewer than half the slots are
    redrawn in a round.  A single path needs no bits, so size 1 gives zeros
    and draws nothing."""
    if size == 1:
        return np.zeros(n, dtype=np.int64)
    shift = 64 - (size - 1).bit_length()
    ranks = np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> shift
    bad = np.flatnonzero(ranks >= size)
    while len(bad):
        ranks[bad] = np.frombuffer(rng.randbytes(8 * len(bad)), dtype="<u8") >> shift
        bad = bad[ranks[bad] >= size]
    # below size <= the int64 limit, so the bits read the same as int64
    return ranks.view(np.int64)


def _unrank(steps, start: int, ranks) -> np.ndarray:
    """The rows of edge numbers of the paths of the given ranks from vertex
    index ``start``, unranked through the completion table ``steps``.

    At every step, the ranks standing at a vertex u pick the candidate edge
    whose block of completions holds them, keep the offset inside that block
    as their rank, and move to the edge's source."""
    ranks = np.array(ranks, dtype=np.int64)
    at = np.full(len(ranks), start)
    rows = np.empty((len(ranks), len(steps)), dtype=np.intp)
    for j, row in enumerate(steps):
        nxt = np.empty_like(at)
        for u, (numbers, starts, sources) in enumerate(row):
            here = np.flatnonzero(at == u)
            if len(here) == 0:
                continue
            # a reached vertex has at most size completions, so int64 holds them
            lower = np.array(starts[:-1], dtype=np.int64)
            i = np.searchsorted(lower, ranks[here], side="right") - 1
            rows[here, j] = np.array(numbers)[i]
            ranks[here] -= lower[i]
            nxt[here] = np.array(sources)[i]
        at = nxt
    return rows


def sample_prefixes(g: KGraph, v: str, depth, count: int, seed: int = 0,
                    code=None) -> np.ndarray:
    """``count`` prefixes with range v and the given depth, drawn uniformly
    and with replacement from vΛ^depth, as a ``(count, steps)`` intp array:
    row i is the i-th prefix's edges in normal form, each as its edge number,
    its position in ``sorted(g.edges)``.

    The completion table is built once; then the samples are drawn, unranked
    and handed on one block of ``BLOCK_ROWS`` at a time, so no temporary
    grows with ``count``.  Each block's ranks, one per sample, are drawn
    from one ``random.Random(seed)`` by ``_draw_ranks`` and unranked through
    the table by ``_unrank``.  The table and ``enumerate_paths`` read the
    same ``normal_steps`` rows, so rank r unranks to the r-th path of
    ``enumerate_paths(g, v, depth)``, in lexicographic order.  That is a
    bijection from [0, size) onto vΛ^depth, where size = |vΛ^depth|, so a
    uniform rank gives a uniform prefix.

    With ``code``, each block's rows are passed to it instead of being kept,
    and its outputs, one row per sample, are returned stacked in their place.

    A vertex with no path of the depth, or a path count that does not fit
    in int64, raises ValueError.
    """
    depth = tuple(depth)
    steps, sizes = _completion_table(g, depth)
    start = g.vertices.index(v)
    size = sizes[start]
    _check_drawable(v, depth, size)
    if size == 0:
        raise ValueError(f"vertex {v!r} has no path of degree {depth} to sample")
    rng = random.Random(seed)
    out = None
    # one block even without samples, so that the output has its width
    for block in _blocks(max(count, 1)):
        n = min(block.stop, count) - block.start
        rows = _unrank(steps, start, _draw_ranks(rng, size, n))
        got = rows if code is None else code(rows)
        if out is None:
            out = np.empty((count, *got.shape[1:]), dtype=got.dtype)
        out[block] = got
    return out


# ---------------------------------------------------------------------------
# intertwining


class IntertwiningReport:
    tol: float
    samples: int
    failures: list
    max_distance: float
    insufficient_depth: bool
    required_total_depth: int | None

    def __init__(self, tol: float, samples: int = 0, failures: list | None = None,
                 max_distance: float = 0.0, insufficient_depth: bool = False,
                 required_total_depth: int | None = None):
        self.tol, self.samples = tol, samples
        self.failures = [] if failures is None else failures
        self.max_distance, self.insufficient_depth = max_distance, insufficient_depth
        self.required_total_depth = required_total_depth

    @property
    def passed(self) -> bool:
        return self.samples > 0 and not self.insufficient_depth and not self.failures


def required_depth(sys: MWSystem, target_error: float) -> int:
    """Smallest total degree whose coded error certifiably undershoots the
    target (via ratio^total * max fiber diameter)."""
    diam = max(f.diameter() for f in sys.fibers.values())
    if target_error >= diam:
        return 0
    return max(0, math.ceil(math.log(target_error / diam) / math.log(sys.ratio)))


def _prefix_error(sys: MWSystem, path: Path) -> float:
    """The coded error of one prefix: its map's Lipschitz bound times its
    source fiber's diameter."""
    require_codable(sys, path.degree)
    lip = lipschitz_bound(extend_map(sys, path), sys.metric)
    return lip * sys.fibers[path.source_vertex].diameter()


def check_intertwining(sys: MWSystem, lam: Path, rows, tol: float) -> IntertwiningReport:
    """Compare coding-then-mapping against prepend-then-coding.

    ``rows`` are prefixes x rooted at s(lam), rows of edge numbers as
    ``sample_prefixes`` returns them; a row not rooted there raises
    KGraphError.  The points coded for the normal forms of lam x and
    sigma_lam of the points coded for x, each batch through
    ``_coded_points``, must land within tol plus the per-prefix coded
    errors.  Insufficient prefix depth (coded error > tol/4) is reported
    together with the depth that would suffice.  A failure names its prefix
    as a ``Path``.
    """
    g = sys.graph
    ids = sorted(g.edges)
    number = {e: i for i, e in enumerate(ids)}
    prefixes = [Path(g, lam.source_vertex, tuple(ids[i] for i in row)) for row in rows.tolist()]
    joined = [compose(lam, x) for x in prefixes]
    joined_rows = np.array([[number[e] for e in p.edges] for p in joined], dtype=np.intp)
    sig = extend_map(sys, lam)
    sig_lip = lipschitz_bound(sig, sys.metric)
    lhs = _coded_points(sys, lam.range_vertex,
                        joined_rows.reshape(len(joined), len(lam.edges) + rows.shape[1]))
    rhs = sig.apply(_coded_points(sys, lam.source_vertex, rows))
    rep = IntertwiningReport(tol)
    for prefix, path, a, b in zip(prefixes, joined, lhs, rhs):
        base_error = _prefix_error(sys, prefix)
        if base_error > tol / 4.0:
            rep.insufficient_depth = True
            rep.required_total_depth = required_depth(sys, tol / 4.0)
            return rep
        dist = _metric_dist(a, b, sys.metric)
        allowed = tol + _prefix_error(sys, path) + sig_lip * base_error
        rep.samples += 1
        rep.max_distance = max(rep.max_distance, dist)
        if dist > allowed:
            rep.failures.append((prefix, dist, allowed))
    return rep


# ---------------------------------------------------------------------------
# the coded cloud


def coded_cloud(
    sys: MWSystem,
    depth,
    pitch: float,
    count: int | None = None,
    seed: int = 0,
) -> SetTuple:
    """Per vertex, the snapped cloud of coded points over vΛ^depth; each
    prefix map sends its whole source fiber within ``coded_error`` of them.

    With no ``count`` every path is coded, within the limits of
    ``path_budget``; the paths are evaluated as a leaf-to-root sweep
    applying the generators over the reversed ``normal_steps``, which
    touches each composite exactly once.  With a ``count`` the ``count``
    prefixes per vertex are drawn seeded, uniformly and with replacement by
    ``sample_prefixes``, one block
    of ``BLOCK_ROWS`` rows of edge numbers at a time, and ``_coded_points``
    evaluates each block, last edge first, as the sweep does, building no
    ``Path``: either way a point is its basepoint under one
    ``AffineMap.apply`` per edge.  A sampled vertex holds its ``(count,
    dim)`` points and one block's temporaries.
    """
    depth = tuple(depth)
    require_codable(sys, depth)
    g = sys.graph
    path_budget(g, depth, count)
    if count is None:
        clouds = [np.atleast_2d(sys.fibers[v].basepoint()) for v in g.vertices]
        for row in reversed(normal_steps(g, depth)):
            clouds = [np.concatenate([sys.generators[e].apply(clouds[s]) for e, s in zip(*step)])
                      for step in row]
        return SetTuple.from_points(pitch, dict(zip(g.vertices, clouds)))

    clouds = {
        v: sample_prefixes(g, v, depth, count, seed=seed,
                           code=functools.partial(_coded_points, sys, v))
        for v in g.vertices
    }
    return SetTuple.from_points(pitch, clouds)


def _coded_points(sys: MWSystem, v: str, rows: np.ndarray) -> np.ndarray:
    """The coded point of the path with range v of every row of edge
    numbers (positions in ``sorted(sys.graph.edges)``), as rows: its source
    fiber's basepoint with the row's generators applied, last edge first,
    one stacked ``AffineMap.apply`` per step.  No map is composed.

    The generator tables are stacked in edge-number order, so an edge that
    ``sys.generators`` lacks raises KeyError."""
    g = sys.graph
    ids = sorted(g.edges)
    mats = np.stack([sys.generators[e].matrix for e in ids])
    shifts = np.stack([sys.generators[e].shift for e in ids])
    if rows.shape[1]:
        edge_source = np.array([g.vertices.index(g.edge(e).source_vertex) for e in ids])
        sources = edge_source[rows[:, -1]]
    else:
        sources = np.full(len(rows), g.vertices.index(v))
    points = np.stack([sys.fibers[u].basepoint() for u in g.vertices])[sources]
    for col in rows.T[::-1]:
        points = AffineMap(mats[col], shifts[col]).apply(points)
    return points


def compare_attractor_coding(
    sys: MWSystem, attractor_sets: SetTuple, coded_sets: SetTuple, tol: float
) -> bool:
    """Whether the two constructions agree within tol at every vertex."""
    distances = attractor_sets.vertex_distances(coded_sets, sys.metric)
    return all(d <= tol for d in distances.values())


class SubsystemReport(NamedTuple):
    tol: float
    edge_distances: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(d <= self.tol for d in self.edge_distances.values())


def check_subsystem(sys: MWSystem, sets: SetTuple, tol: float) -> SubsystemReport:
    """One-sided containment of every generator image in the range cloud.

    Each generator's real image of the source cloud is snapped to the
    lattice of ``sets`` and measured against the range cloud exactly, in
    integers, from their sorted flat cells in the joint box, walking the
    range cloud's occupied rows (``attractor._directed_bound``); memory
    follows the rows, not the box, and only a box of more than 2^62 cells
    raises ValueError.  The reported distance is pitch * cells + eps,
    rounded upward, where eps is the largest offset |p - snap(p)| of an
    image point in the metric: at most h*sqrt(d)/2 for the Euclidean metric
    and h/2 for the max metric, and 0 when the images land on lattice
    points.  Since d(p, T) <= |p - q| + d(q, T) for the snapped point q, it
    is an upper bound on the real image's one-sided distance.
    """
    pitch = sets.pitch
    dists = {}
    for ident in sorted(sys.generators):
        e = sys.graph.edge(ident)
        for v in (e.source_vertex, e.range_vertex):
            if len(sets.clouds[v]) == 0:
                raise ValueError(f"empty cloud at {v!r}")
        image = sys.generators[ident].apply(sets.points(e.source_vertex))
        rows, eps = _snap_offset(image, pitch, sys.metric)
        dists[ident] = _directed_bound(rows, sets.clouds[e.range_vertex], pitch, eps,
                                       sys.metric)
    return SubsystemReport(tol, dists)
