"""Instance readers and artifact writers.

One JSON document describes a graph, a metric system (graph + fibers +
affine maps), or a discrete system (graph + element lists + tables); the
`kind` field disambiguates, the schema is documented in
docs/instance_format.md.  Artifact writers are deterministic byte for byte:
repr floats, fixed row order.  numpy and the metric modules are imported
only by the metric readers and the grid writers, so reading a graph or a
discrete system imports neither; ``duality`` only by the discrete reader.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import TYPE_CHECKING

from .kgraph import KGraph, KGraphError

if TYPE_CHECKING:
    from .attractor import SetTuple
    from .duality import DiscreteSystem
    from .systems import MWSystem


class InstanceFormatError(Exception):
    """Unparseable or structurally impossible instance document."""


def _need(doc: dict, key: str, context: str):
    if key not in doc:
        raise InstanceFormatError(f"{context}: missing field {key!r}")
    return doc[key]


# ---------------------------------------------------------------------------
# graphs


def kgraph_from_dict(doc: dict) -> KGraph:
    k = int(_need(doc, "k", "graph"))
    vertices = _need(doc, "vertices", "graph")
    raw_edges = _need(doc, "edges", "graph")
    if not isinstance(raw_edges, list) or len(raw_edges) != k:
        raise InstanceFormatError(f"graph: 'edges' must list {k} per-color groups")
    edges = {}
    for color, group in enumerate(raw_edges, start=1):
        rows = []
        for item in group:
            rows.append(
                (
                    _need(item, "id", f"edges[{color}]"),
                    _need(item, "r", f"edges[{color}]"),
                    _need(item, "s", f"edges[{color}]"),
                )
            )
        edges[color] = rows
    squares = {}
    for key, pairs in (doc.get("squares") or {}).items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise InstanceFormatError(f"squares: bad color pair key {key!r}") from exc
        table = {}
        for entry in pairs:
            (e, f), (f2, e2) = entry
            table[(e, f)] = (f2, e2)
        squares[(i, j)] = table
    return KGraph(k, vertices, edges, squares)


# ---------------------------------------------------------------------------
# regions and fibers


def region_from_dict(doc: dict):
    from .systems import Ball, Box, PointSet, Polygon

    rtype = _need(doc, "type", "region")
    if rtype == "box":
        return Box(_need(doc, "min", "box"), _need(doc, "max", "box"))
    if rtype == "ball":
        return Ball(_need(doc, "center", "ball"), _need(doc, "radius", "ball"))
    if rtype == "polygon":
        return Polygon(_need(doc, "corners", "polygon"))
    if rtype == "points":
        return PointSet(_need(doc, "points", "points"))
    raise InstanceFormatError(f"region: unknown type {rtype!r}")


# ---------------------------------------------------------------------------
# systems


def system_from_dict(doc: dict) -> MWSystem:
    from .systems import AffineMap, MetricFiber, MWSystem

    g = kgraph_from_dict(doc)
    fibers = {}
    for v, spec in _need(doc, "fibers", "system").items():
        fibers[v] = MetricFiber(
            region_from_dict(_need(spec, "region", f"fiber {v}")),
            str(spec.get("metric", "euclidean")),
        )
    gens = {}
    for ident, spec in _need(doc, "maps", "system").items():
        if ident not in g.edges:
            raise InstanceFormatError(f"maps: unknown edge {ident!r}")
        gens[ident] = AffineMap.of(
            _need(spec, "matrix", f"map {ident}"),
            _need(spec, "translation", f"map {ident}"),
        )
    return MWSystem(
        g,
        fibers,
        gens,
        ratio=float(_need(doc, "c", "system")),
        mode=doc.get("mode", "strict"),
        name=doc.get("name", ""),
    )


def discrete_from_dict(doc: dict) -> DiscreteSystem:
    from .duality import DiscreteSystem

    g = kgraph_from_dict(doc)
    fibers = {}
    for v, spec in _need(doc, "fibers", "discrete system").items():
        if v not in g.vertex_set:
            raise InstanceFormatError(f"fibers: unknown vertex {v!r}")
        fibers[v] = tuple(str(t) for t in _need(spec, "elements", f"fiber {v}"))
        if len(set(fibers[v])) != len(fibers[v]):
            twice = next(t for t in fibers[v] if fibers[v].count(t) > 1)
            raise InstanceFormatError(f"fiber {v}: element {twice!r} listed twice")
    tables = {}
    for ident, spec in _need(doc, "maps", "discrete system").items():
        if ident not in g.edges:
            raise InstanceFormatError(f"maps: unknown edge {ident!r}")
        table = _need(spec, "table", f"map {ident}")
        tables[ident] = {str(t): str(u) for t, u in table.items()}
    return DiscreteSystem(g, fibers, tables, name=doc.get("name", ""))


def load_instance(source) -> tuple[str, object]:
    """Parse a JSON document (path or dict) into (kind, object).

    kind is "graph", "mw", or "discrete"; raises InstanceFormatError with
    the failing location for anything unusable.
    """
    if isinstance(source, (str, FsPath)):
        path = FsPath(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InstanceFormatError(f"{path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind is None:
            if "maps" in doc and "fibers" in doc:
                sample = next(iter(doc["fibers"].values()), {})
                kind = "discrete" if "elements" in sample else "mw"
            else:
                kind = "graph"
        if kind == "graph":
            return "graph", kgraph_from_dict(doc)
        if kind == "mw":
            return "mw", system_from_dict(doc)
        if kind == "discrete":
            return "discrete", discrete_from_dict(doc)
    except (AttributeError, KeyError, KGraphError, OverflowError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed instance: {exc}") from exc
    raise InstanceFormatError(f"unknown instance kind {kind!r}")


def packaged_instance(name: str) -> FsPath:
    """Path of a shipped instance by name (s1, p2, p2c, t0, f3, d1, d2, d3)."""
    return FsPath(__file__).with_name("data") / f"{name}.json"


# ---------------------------------------------------------------------------
# artifact writers (all byte-deterministic)


# rows formatted and written at a time by ``write_clouds_csv``, so that the
# text of a large cloud is never held whole; half of ``attractor.BLOCK_ROWS``,
# because a block of formatted text outweighs a block of int64 rows (blocks
# of 2^13 raise the peak RSS of ``attractor --instance p2`` by about 0.35 MB)
CSV_BLOCK_ROWS = 1 << 12


def write_clouds_csv(sets: SetTuple, path) -> None:
    """Rows of ``SetTuple.points`` in stored order, as repr floats.  Each
    distinct lattice coordinate of an axis, pitch * float(i), is formatted
    once, by ``_canonical`` of the axis's column, and read from that table
    by np.searchsorted, ``CSV_BLOCK_ROWS`` rows at a time.  Rows are sorted,
    so each run of a block's rows that agree but in the last coordinate is
    one join of its last coordinates under one "vertex,x0,...," prefix."""
    import numpy as np

    from .attractor import _canonical

    with FsPath(path).open("w") as fh:
        fh.write("vertex," + ",".join(f"x{i}" for i in range(sets.dim)) + "\n")
        for v in sets.vertices():
            rows = sets.clouds[v]
            if not len(rows):
                continue
            tables = []
            for t in range(sets.dim):
                values = _canonical(rows[:, t:t + 1])[:, 0]
                coords = sets.pitch * values.astype(float)
                text = np.array([repr(x) for x in coords.tolist()], dtype=object)
                tables.append((values, text))
            *lead, (values, text) = tables
            for start in range(0, len(rows), CSV_BLOCK_ROWS):
                block = rows[start:start + CSV_BLOCK_ROWS]
                runs = np.flatnonzero(np.r_[True, (block[1:, :-1] != block[:-1, :-1]).any(axis=1)])
                heads = [[v] * len(runs)] + [
                    head_text[np.searchsorted(head_values, block[runs, j])].tolist()
                    for j, (head_values, head_text) in enumerate(lead)]
                prefixes = [",".join(head) + "," for head in zip(*heads)]
                last = text[np.searchsorted(values, block[:, -1])].tolist()
                ends = [*runs[1:].tolist(), len(block)]
                fh.write("".join(p + ("\n" + p).join(last[a:b]) + "\n"
                                 for p, a, b in zip(prefixes, runs.tolist(), ends)))


def write_certificate(text: str, path) -> None:
    FsPath(path).write_text(text if text.endswith("\n") else text + "\n")


def write_pgm(sets: SetTuple, vertex: str, path) -> None:
    """Binary 8-bit raster of a planar cloud over its bounding box at grid
    resolution (0 = point, 255 = none).  The cloud is painted into a zeroed
    raster ``BLOCK_ROWS`` rows at a time, so the pages that no point reaches
    stay untouched, and shaded as many pixels at a time: the only full-size
    array is the painted raster."""
    import numpy as np

    from .attractor import _blocks

    lattice = sets.clouds[vertex]
    if lattice.shape[1] != 2:
        raise ValueError("rasters are only defined for planar clouds")
    if not len(lattice):
        raise ValueError("empty cloud")
    # per column: numpy reduces an (N, 2) array along axis 0 far more slowly
    (x_lo, x_hi), (y_lo, y_hi) = [(int(col.min()), int(col.max())) for col in lattice.T]
    width, height = x_hi - x_lo + 1, y_hi - y_lo + 1
    painted = np.zeros((height, width), dtype=np.uint8)
    for s in _blocks(len(lattice)):
        x, y = lattice[s].T
        # y axis points up in the plane, down in the file
        painted[y_hi - y, x - x_lo] = 1
    shades = np.array([255, 0], dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        pixels = painted.reshape(-1)
        for s in _blocks(len(pixels)):
            fh.write(shades[pixels[s]].tobytes())
