"""Exact checks on systems with finite discrete fibers.

Function tables replace continuous maps, 0/1 integer matrices (tuples of
rows of Python ints) replace pullback operators on function spaces, and
every statement becomes decidable by enumeration or by a finite
presentation: density of images against triviality of common kernels, and
the twisted product graph, presented by its 1-skeleton of (edge, fiber
element) pairs and its lifted squares.  Nothing here imports numpy.

The records are named tuples, except the two that code or tests assign to,
``DiscreteSystem`` and ``SweepResult``, which are plain classes.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import NamedTuple

from .kgraph import KGraph, Path, enumerate_paths
from .report import AXIOM, STRUCTURAL, ValidationReport


# ---------------------------------------------------------------------------
# discrete systems


class DiscreteSystem:
    graph: KGraph
    fibers: dict[str, tuple[str, ...]]
    tables: dict[str, dict[str, str]]  # edge -> (source element -> range element)
    name: str

    def __init__(self, graph: KGraph, fibers: dict[str, tuple[str, ...]],
                 tables: dict[str, dict[str, str]], name: str = ""):
        self.graph, self.fibers, self.tables, self.name = graph, fibers, tables, name


def map_along(dsys: DiscreteSystem, p: Path) -> dict[str, str]:
    """Function table of a path: composite of the edge tables along its
    normal form (identity for a vertex), read from the current tables."""
    if p.is_vertex:
        return {t: t for t in dsys.fibers[p.range_vertex]}
    out = dict(dsys.tables[p.edges[-1]])
    for ident in reversed(p.edges[:-1]):
        tab = dsys.tables[ident]
        out = {t: tab[u] for t, u in out.items()}
    return out


def validate_discrete_system(dsys: DiscreteSystem) -> ValidationReport:
    """Fibers that list each element once, one per vertex of the graph,
    one total table per edge of the graph, and exact square consistency.

    Square consistency implies the composition law ``map_along(p·q) ==
    map_along(p) ∘ map_along(q)`` for every composable pair: normalisation
    swaps only through square entries, whose two table composites are
    checked equal here.  The tests check the law by enumeration."""
    rep = ValidationReport()
    g = dsys.graph
    for v in g.vertices:
        if v not in dsys.fibers or len(dsys.fibers[v]) == 0:
            rep.add(STRUCTURAL, "missing-fiber", v, "vertex has no (nonempty) fiber")
    for v, fiber in dsys.fibers.items():
        if v not in g.vertex_set:
            rep.add(STRUCTURAL, "unknown-vertex", v, "fiber of a vertex the graph lacks")
        elif len(set(fiber)) != len(fiber):
            twice = next(t for t in fiber if fiber.count(t) > 1)
            rep.add(STRUCTURAL, "repeated-element", v, f"element {twice!r} listed twice")
    for ident in g.edges:
        if ident not in dsys.tables:
            rep.add(STRUCTURAL, "missing-table", ident, "edge has no function table")
    for ident in dsys.tables:
        if ident not in g.edges:
            rep.add(STRUCTURAL, "unknown-edge", ident, "table for an edge the graph lacks")
    if rep.findings:
        return rep
    for ident, tab in dsys.tables.items():
        e = g.edge(ident)
        src = set(dsys.fibers[e.source_vertex])
        dst = set(dsys.fibers[e.range_vertex])
        if set(tab) != src:
            rep.add(STRUCTURAL, "partial-table", ident,
                    f"table domain {sorted(tab)} != fiber {sorted(src)}")
        elif not set(tab.values()) <= dst:
            rep.add(STRUCTURAL, "escaping-table", ident,
                    "table values leave the range fiber")
    if rep.findings:
        return rep

    for pair, table in g.squares.items():
        for (e, f), (f2, e2) in table.items():
            left = {t: dsys.tables[e][u] for t, u in dsys.tables[f].items()}
            right = {t: dsys.tables[f2][u] for t, u in dsys.tables[e2].items()}
            if left != right:
                rep.add(AXIOM, "square-consistency", f"({e},{f})=({f2},{e2})",
                        f"table composites differ: {left} vs {right}")
    return rep


# ---------------------------------------------------------------------------
# pullback systems (function spaces as coordinates, one 0/1 matrix per edge)


Matrix = tuple[tuple[int, ...], ...]


class PullbackSystem(NamedTuple):
    graph: KGraph
    fibers: dict[str, tuple[str, ...]]
    matrices: dict[str, Matrix]  # edge -> |T_r| rows of |T_s| ints, one 1 per column
    name: str = ""


def _selector(images, rows: int) -> Matrix:
    """The 0/1 matrix with ``rows`` rows whose column j has its 1 in row
    images[j]."""
    return tuple(tuple(int(i == r) for i in images) for r in range(rows))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact integer product of two matrices given as tuples of rows."""
    columns = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in columns) for row in a)


def pullback_system(dsys: DiscreteSystem) -> PullbackSystem:
    """Linearize each table: column t carries a single 1 in the row of its
    image.  The matrix of a path is then the product of its edge matrices
    (contravariance), because the matrix of a composite table is the
    product of the matrices; the tests check this by enumeration."""
    matrices = {}
    for ident, tab in dsys.tables.items():
        e = dsys.graph.edge(ident)
        dst_index = {t: i for i, t in enumerate(dsys.fibers[e.range_vertex])}
        images = [dst_index[tab[t]] for t in dsys.fibers[e.source_vertex]]
        matrices[ident] = _selector(images, len(dst_index))
    return PullbackSystem(dsys.graph, dict(dsys.fibers), matrices, dsys.name)


def matrix_along(psys: PullbackSystem, p: Path) -> Matrix:
    """0/1 matrix of a path (exact integer product along the normal form)."""
    if p.is_vertex:
        size = len(psys.fibers[p.range_vertex])
        return _selector(range(size), size)
    out = psys.matrices[p.edges[0]]
    for ident in p.edges[1:]:
        out = _matmul(out, psys.matrices[ident])
    return out


# ---------------------------------------------------------------------------
# density vs fidelity


class DensityFidelity(NamedTuple):
    k_dense: bool
    k_faithful: bool

    @property
    def agree(self) -> bool:
        return self.k_dense == self.k_faithful


def check_density_fidelity(dsys: DiscreteSystem, n) -> DensityFidelity:
    """Two independent routes to one property.

    Density: set-theoretic — the union of the degree-n table images fills
    every fiber.  Fidelity: linear-algebraic — for every vertex, no
    coordinate is annihilated by all degree-n pullback matrices (their row
    supports cover).  The equivalence of the two answers is the statement
    under test, so nothing here shares intermediate results.
    """
    g = dsys.graph
    dense = True
    for v in g.vertices:
        covered: set[str] = set()
        for lam in enumerate_paths(g, v, n):
            covered.update(map_along(dsys, lam).values())
        if covered != set(dsys.fibers[v]):
            dense = False
            break

    psys = pullback_system(dsys)
    faithful = True
    for v in g.vertices:
        hit = [0] * len(dsys.fibers[v])
        for lam in enumerate_paths(g, v, n):
            for i, row in enumerate(matrix_along(psys, lam)):
                hit[i] += sum(row)
        if not all(hit):
            faithful = False
            break
    return DensityFidelity(dense, faithful)


class SweepResult:
    degrees: list
    instances: int
    consistent: int
    disagreements: list
    sampled: bool
    consistent_by_size: dict[int, int]

    def __init__(self, degrees: list, instances: int, consistent: int,
                 disagreements: list | None = None, sampled: bool = False,
                 consistent_by_size: dict[int, int] | None = None):
        self.degrees, self.instances, self.consistent = degrees, instances, consistent
        self.disagreements = [] if disagreements is None else disagreements
        self.sampled = sampled
        self.consistent_by_size = {} if consistent_by_size is None else consistent_by_size

    @property
    def all_agree(self) -> bool:
        return not self.disagreements


def _template_2graph() -> KGraph:
    return KGraph(
        2,
        ["v"],
        {
            1: [("b0", "v", "v"), ("b1", "v", "v")],
            2: [("r0", "v", "v"), ("r1", "v", "v")],
        },
        {(1, 2): {(b, r): (r, b) for b in ("b0", "b1") for r in ("r0", "r1")}},
    )


def density_fidelity_sweep(
    max_fiber_size: int = 2,
    degrees=((1, 0), (0, 1), (1, 1)),
    limit: int = 100_000,
    seed: int = 0,
) -> SweepResult:
    """Check density == fidelity over discrete systems on the one-vertex
    2+2-loop flip-square template.

    All four tables range over Maps(T, T); an assignment is consistent when
    every mixed pair commutes (that is what the flip squares demand).  The
    full assignment space is enumerated when it has at most ``limit``
    elements, otherwise ``limit`` seeded uniform draws are taken from one
    ``random.Random(seed)`` (``_sampled_assignments``).  Either way each
    pair of maps is tested for commutation at most once.  Each consistent
    assignment gets its density and fidelity verdicts along the paths of
    each degree (``_row_verdicts``), memoized per path within a fiber
    size.
    """
    g = _template_2graph()
    rng = random.Random(seed)
    degrees = [tuple(n) for n in degrees]
    paths = [_template_paths(g, n) for n in degrees]
    result = SweepResult(degrees, 0, 0)
    for size in range(1, max_fiber_size + 1):
        # the i-th map of itertools.product order: j -> maps[i][j]
        maps = list(itertools.product(range(size), repeat=size))
        total = len(maps) ** 4
        if total > limit:
            result.sampled = True
            result.instances += limit
            rows = _sampled_assignments(maps, limit, rng)
        else:
            result.instances += total
            rows = _consistent_assignments(maps)
        result.consistent_by_size[size] = 0
        memo = ({}, {})
        for row in rows:
            result.consistent_by_size[size] += 1
            verdicts = _row_verdicts([maps[i] for i in row], paths, memo)
            for n, verdict in zip(degrees, verdicts):
                if not verdict.agree:
                    result.disagreements.append((size, row, n, verdict))
        result.consistent += result.consistent_by_size[size]
    return result


def _commute(f, h) -> bool:
    """Whether the maps f and h, tuples of images, commute; most pairs that
    do not are rejected at the first element."""
    return f[h[0]] == h[f[0]] and [f[t] for t in h] == [h[t] for t in f]


def _consistent_assignments(maps):
    """All assignments (b0, b1, r0, r1) of indices into ``maps`` whose blue
    and red maps commute pairwise, in lexicographic order."""
    n = len(maps)
    commute = [[_commute(f, h) for h in maps] for f in maps]
    for b0, b1 in itertools.product(range(n), repeat=2):
        reds = [r for r in range(n) if commute[b0][r] and commute[b1][r]]
        for r0, r1 in itertools.product(reds, repeat=2):
            yield b0, b1, r0, r1


def _sampled_assignments(maps, limit: int, rng):
    """The consistent rows, in draw order, of ``limit`` uniform draws of
    (b0, b1, r0, r1) indices into ``maps``.  A draw takes the pair index
    x = b0 * m + r0 as rng.randrange(m * m), spelled out as the rejection
    loop that ``randrange`` runs, and is rejected at once unless b0 and r0
    commute; only then is b1 * m + r1 drawn the same way.  The consistent
    rows are distributed as those of ``limit`` draws of all four indices.
    Each pair index read is tested for commutation once, on its first read
    (``known``)."""
    m, pairs = len(maps), len(maps) ** 2
    bits, draw = pairs.bit_length(), rng.getrandbits
    known: dict[int, bool] = {}

    def commute(x: int) -> bool:
        c = known.get(x)
        if c is None:
            b, r = divmod(x, m)
            c = known[x] = _commute(maps[b], maps[r])
        return c

    for _ in range(limit):
        x = draw(bits)
        while x >= pairs:
            x = draw(bits)
        if not commute(x):
            continue
        y = draw(bits)
        while y >= pairs:
            y = draw(bits)
        (b0, r0), (b1, r1) = divmod(x, m), divmod(y, m)
        if commute(y) and commute(b0 * m + r1) and commute(b1 * m + r0):
            yield b0, b1, r0, r1


# the template's edges, in the order of a row of table indices
_TEMPLATE_EDGES = ("b0", "b1", "r0", "r1")


def _template_paths(g: KGraph, n) -> list[tuple[int, ...]]:
    """The degree-n paths of the template, as tuples of indices into
    ``_TEMPLATE_EDGES`` (empty for the vertex)."""
    return [tuple(map(_TEMPLATE_EDGES.index, p.edges)) for p in enumerate_paths(g, "v", n)]


def _row_verdicts(tables, degree_paths, memo) -> list[DensityFidelity]:
    """Density and fidelity of one template system at each degree.

    ``tables[e]`` is the integer table of edge e (an index into
    ``_TEMPLATE_EDGES``), and ``degree_paths`` lists, per degree, its paths
    as edge-index tuples.  The two routes of ``check_density_fidelity``
    share only these inputs: density composes the tables along each path
    and tests that the images cover the fiber; fidelity multiplies the 0/1
    pullback matrices along each path and tests that no row of their sum is
    zero.  ``memo`` holds a dict per route, keyed by the tables along a path
    (the identity's for the vertex): its image set, its matrix's row sums.
    """
    images, sums = memo
    size = len(tables[0])
    identity = (tuple(range(size)),)
    verdicts = []
    for paths in degree_paths:
        keys = [tuple(tables[e] for e in path) or identity for path in paths]
        covered = set()
        for key in keys:
            if key not in images:
                image = range(size)
                for tab in reversed(key):
                    image = [tab[t] for t in image]
                images[key] = frozenset(image)
            covered |= images[key]

        hit = [0] * size
        for key in keys:
            if key not in sums:
                mat = _selector(key[0], size)
                for tab in key[1:]:
                    mat = _matmul(mat, _selector(tab, size))
                sums[key] = tuple(map(sum, mat))
            hit = list(map(operator.add, hit, sums[key]))
        verdicts.append(DensityFidelity(len(covered) == size, all(hit)))
    return verdicts


# ---------------------------------------------------------------------------
# the twisted product graph


def twisted_product(dsys: DiscreteSystem) -> KGraph:
    """The skeleton and squares of the twisted product of a discrete system.

    Vertices are (vertex, element) pairs ``"v|t"``, edges are (edge,
    element) pairs ``"e|t"`` with source ``s(e)|t`` and range twisted
    through the table, ``r(e)|e(t)``, and each square (e, f) = (f2, e2) of
    the graph lifts to (e|f(t), f|t) = (f2|e2(t), e2|t) for every element t
    over the source of f.  ``validate_kgraph`` of the result decides whether
    it presents a k-graph, at every degree (the skeleton theorem: Kumjian &
    Pask, NYJM 6 (2000) §6 for k = 2; Hazlewood, Raeburn, Sims & Webster,
    Proc. Edinburgh Math. Soc. 56 (2013) for every k).  An element that no
    table of some color reaches is a genuine source of the product, which
    the construction allows.
    """
    g = dsys.graph
    vertices = [f"{v}|{t}" for v in g.vertices for t in dsys.fibers[v]]
    edge_rows: dict[int, list] = {color: [] for color in range(1, g.k + 1)}
    for ident, e in sorted(g.edges.items()):
        for t in dsys.fibers[e.source_vertex]:
            edge_rows[e.color].append(
                (f"{ident}|{t}", f"{e.range_vertex}|{dsys.tables[ident][t]}",
                 f"{e.source_vertex}|{t}")
            )
    squares = {}
    for pair, table in g.squares.items():
        squares[pair] = {
            (f"{e}|{dsys.tables[f][t]}", f"{f}|{t}"):
                (f"{f2}|{dsys.tables[e2][t]}", f"{e2}|{t}")
            for (e, f), (f2, e2) in table.items()
            for t in dsys.fibers[g.edge(f).source_vertex]
        }
    return KGraph(g.k, vertices, edge_rows, squares)
