"""Exact checks on systems with finite discrete fibers.

Function tables replace continuous maps, 0/1 integer matrices (tuples of
rows of Python ints) replace pullback operators on function spaces, and
every statement becomes decidable by enumeration: density of images against
triviality of common kernels, the contravariance of the pullback matrices,
and the twisted product graph whose morphisms are (path, fiber element)
pairs.  Only the sampled fiber sizes of the density/fidelity sweep import
numpy.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .kgraph import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degree_add,
    enumerate_paths,
    factorize,
    validate_kgraph,
)
from .report import AXIOM, STRUCTURAL, ValidationReport


def degrees_upto(k: int, bound) -> list[Degree]:
    """All degree vectors n with n <= bound componentwise."""
    axes = [range(b + 1) for b in bound]
    return [tuple(v) for v in itertools.product(*axes)]


def degrees_of_total(k: int, total: int) -> list[Degree]:
    out = set()
    for combo in itertools.combinations_with_replacement(range(k), total):
        vec = [0] * k
        for c in combo:
            vec[c] += 1
        out.add(tuple(vec))
    return sorted(out)


# ---------------------------------------------------------------------------
# discrete systems


@dataclass
class DiscreteSystem:
    graph: KGraph
    fibers: dict[str, tuple[str, ...]]
    tables: dict[str, dict[str, str]]  # edge -> (source element -> range element)
    name: str = ""
    _memo: dict = field(default_factory=dict, repr=False, compare=False)


def map_along(dsys: DiscreteSystem, p: Path) -> dict[str, str]:
    """Function table of a path: composite of the edge tables along its
    normal form (identity for a vertex).  Memoized on the system."""
    hit = dsys._memo.get(p)
    if hit is not None:
        return hit
    if p.is_vertex:
        out = {t: t for t in dsys.fibers[p.range_vertex]}
    else:
        out = dict(dsys.tables[p.edges[-1]])
        for ident in reversed(p.edges[:-1]):
            tab = dsys.tables[ident]
            out = {t: tab[u] for t, u in out.items()}
    dsys._memo[p] = out
    return out


def validate_discrete_system(dsys: DiscreteSystem) -> ValidationReport:
    """Fibers that list each element once, one per vertex of the graph,
    table totality, exact square consistency, and the composition law on
    all path pairs up to total degree 3."""
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
    if rep.findings:
        return rep

    for p, q in _composable_pairs(g, 3):
        composed = map_along(dsys, compose(p, q))
        chained = {t: map_along(dsys, p)[u] for t, u in map_along(dsys, q).items()}
        if composed != chained:
            rep.add(AXIOM, "composition-law", f"{p!r}*{q!r}",
                    "path table differs from the chained tables")
    return rep


def _composable_pairs(g: KGraph, bound: int):
    """Pairs (p, q) of paths with s(p) == r(q) and total degree at most
    bound, p outer and q inner over one pool of all paths up to bound."""
    pool = [
        p
        for v in g.vertices
        for tot in range(bound + 1)
        for n in degrees_of_total(g.k, tot)
        for p in enumerate_paths(g, v, n)
    ]
    for p, q in itertools.product(pool, pool):
        if p.source_vertex == q.range_vertex and sum(p.degree) + sum(q.degree) <= bound:
            yield p, q


# ---------------------------------------------------------------------------
# pullback systems (function spaces as coordinates, one 0/1 matrix per edge)


Matrix = tuple[tuple[int, ...], ...]


@dataclass
class PullbackSystem:
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


def pullback_system(dsys: DiscreteSystem, verify_bound: int = 3) -> tuple[PullbackSystem, ValidationReport]:
    """Linearize each table: column t carries a single 1 in the row of its
    image.  The returned report certifies the contravariant composition law
    (as the matrix product identity) on all composable pairs up to the
    given total degree."""
    matrices = {}
    for ident, tab in dsys.tables.items():
        e = dsys.graph.edge(ident)
        dst_index = {t: i for i, t in enumerate(dsys.fibers[e.range_vertex])}
        images = [dst_index[tab[t]] for t in dsys.fibers[e.source_vertex]]
        matrices[ident] = _selector(images, len(dst_index))
    psys = PullbackSystem(dsys.graph, dict(dsys.fibers), matrices, dsys.name)

    rep = ValidationReport()
    for p, q in _composable_pairs(dsys.graph, verify_bound):
        lhs = matrix_along(psys, compose(p, q))
        rhs = _matmul(matrix_along(psys, p), matrix_along(psys, q))
        if lhs != rhs:
            rep.add(AXIOM, "contravariance", f"{p!r}*{q!r}",
                    "matrix of the composite differs from the matrix product")
    return psys, rep


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


@dataclass(frozen=True)
class DensityFidelity:
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

    psys, _ = pullback_system(dsys, verify_bound=0)
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


@dataclass
class SweepResult:
    degrees: list
    instances: int
    consistent: int
    disagreements: list = field(default_factory=list)
    sampled: bool = False
    consistent_by_size: dict[int, int] = field(default_factory=dict)

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
    elements, otherwise a seeded uniform sample of that size is drawn.  An
    enumerated size lists its consistent assignments in pure Python; numpy
    is imported, and the generator made, at the first sampled size.  Each
    consistent assignment gets its density and fidelity verdicts along the
    paths of each degree (``_row_verdicts``).
    """
    g = _template_2graph()
    rng = None
    degrees = [tuple(n) for n in degrees]
    paths = [_template_paths(g, n) for n in degrees]
    result = SweepResult(degrees, 0, 0)
    for size in range(1, max_fiber_size + 1):
        # the i-th map of itertools.product order: j -> maps[i][j]
        maps = list(itertools.product(range(size), repeat=size))
        total = len(maps) ** 4
        if total > limit:
            if rng is None:
                import numpy as np

                rng = np.random.default_rng(seed)
            result.sampled = True
            result.instances += limit
            rows = _sampled_assignments(maps, limit, rng)
        else:
            result.instances += total
            rows = _consistent_assignments(maps)
        result.consistent_by_size[size] = 0
        for row in rows:
            result.consistent_by_size[size] += 1
            verdicts = _row_verdicts([maps[i] for i in row], paths)
            for n, verdict in zip(degrees, verdicts):
                if not verdict.agree:
                    result.disagreements.append((size, row, n, verdict))
        result.consistent += result.consistent_by_size[size]
    return result


def _consistent_assignments(maps):
    """All assignments (b0, b1, r0, r1) of indices into ``maps`` whose blue
    and red maps commute pairwise, in lexicographic order."""
    n = len(maps)
    commute = [[all(f[h[t]] == h[f[t]] for t in range(len(f))) for h in maps] for f in maps]
    for b0, b1 in itertools.product(range(n), repeat=2):
        reds = [r for r in range(n) if commute[b0][r] and commute[b1][r]]
        for r0, r1 in itertools.product(reds, repeat=2):
            yield b0, b1, r0, r1


# assignments drawn at a time by the sweep: larger blocks are no faster, and
# one block of 100,000 raises the peak RSS of a size-3 sweep from 36 to 54 MB
_SWEEP_BLOCK = 2048


def _sampled_assignments(maps, limit: int, rng):
    """The consistent rows, in draw order, of ``limit`` seeded uniform draws
    of four indices into ``maps`` (the same stream as one draw of shape
    (limit, 4), or as ``limit`` draws of 4), drawn and tested for
    commutation ``_SWEEP_BLOCK`` rows at a time."""
    import numpy as np

    table = np.array(maps, dtype=np.intp)
    for start in range(0, limit, _SWEEP_BLOCK):
        rows = rng.integers(0, len(maps), (min(_SWEEP_BLOCK, limit - start), 4))
        yield from map(tuple, rows[_commuting(table[rows])].tolist())


def _commuting(tabs):
    """Rows of a block of (b0, b1, r0, r1) integer tables whose blue and red
    tables commute pairwise."""
    import numpy as np

    consistent = np.ones(len(tabs), dtype=bool)
    for b in (0, 1):
        for r in (2, 3):
            blue, red = tabs[:, b], tabs[:, r]
            consistent &= (
                np.take_along_axis(blue, red, axis=1)
                == np.take_along_axis(red, blue, axis=1)
            ).all(axis=1)
    return consistent


# the template's edges, in the order of a row of table indices
_TEMPLATE_EDGES = ("b0", "b1", "r0", "r1")


def _template_paths(g: KGraph, n) -> list[tuple[int, ...]]:
    """The degree-n paths of the template, as tuples of indices into
    ``_TEMPLATE_EDGES`` (empty for the vertex)."""
    return [tuple(map(_TEMPLATE_EDGES.index, p.edges)) for p in enumerate_paths(g, "v", n)]


def _row_verdicts(tables, degree_paths) -> list[DensityFidelity]:
    """Density and fidelity of one template system at each degree.

    ``tables[e]`` is the integer table of edge e (an index into
    ``_TEMPLATE_EDGES``), and ``degree_paths`` lists, per degree, its paths
    as edge-index tuples.  The two routes of ``check_density_fidelity``
    share only these inputs: density composes the tables along each path
    and tests that the images cover the fiber; fidelity multiplies the 0/1
    pullback matrices along each path and tests that no row of their sum is
    zero.
    """
    size = len(tables[0])
    matrices = [_selector(tab, size) for tab in tables]
    verdicts = []
    for paths in degree_paths:
        covered = set()
        for path in paths:
            image = range(size)
            for e in reversed(path):
                image = [tables[e][t] for t in image]
            covered.update(image)

        hit = [0] * size
        for path in paths:
            mat = matrices[path[0]] if path else _selector(range(size), size)
            for e in path[1:]:
                mat = _matmul(mat, matrices[e])
            for i, row in enumerate(mat):
                hit[i] += sum(row)
        verdicts.append(DensityFidelity(len(covered) == size, all(hit)))
    return verdicts


# ---------------------------------------------------------------------------
# the twisted product graph


@dataclass
class TransformationKGraph:
    kgraph: KGraph
    source: DiscreteSystem
    degree_bound: Degree
    vertex_ids: dict[tuple[str, str], str]
    edge_ids: dict[tuple[str, str], str]
    morphisms: dict[Degree, list[tuple[Path, str]]]
    report: ValidationReport = field(default_factory=ValidationReport)

    def star_source(self, lam: Path, t: str) -> tuple[str, str]:
        return (lam.source_vertex, t)

    def star_range(self, lam: Path, t: str) -> tuple[str, str]:
        return (lam.range_vertex, map_along(self.source, lam)[t])

    def star_compose(self, a: tuple[Path, str], b: tuple[Path, str]) -> tuple[Path, str]:
        lam, t = a
        mu, s = b
        if self.star_source(lam, t) != self.star_range(mu, s):
            raise KGraphError("twisted pairs not composable")
        return (compose(lam, mu), s)

    def product_path(self, lam: Path, t: str) -> Path:
        """The skeleton path spelled by a twisted morphism: edge i carries
        the fiber element seen after applying the later edges to t."""
        dsys = self.source
        word = []
        state = t
        for ident in reversed(lam.edges):
            word.append(self.edge_ids[(ident, state)])
            state = dsys.tables[ident][state]
        return Path(self.kgraph, self.vertex_ids[(lam.range_vertex, state)], tuple(reversed(word)))


def build_transformation_graph(dsys: DiscreteSystem, degree_bound) -> TransformationKGraph:
    """Materialize the twisted product of a discrete system, up to a degree.

    Vertices are (vertex, element) pairs, edges are (edge, element) pairs
    with range twisted through the table, and squares are inherited.  The
    returned report certifies the product axioms and the unique twisted
    factorization; for valid input every check passes, so findings indicate
    an internal inconsistency rather than a property of the instance.
    """
    g = dsys.graph
    degree_bound = tuple(degree_bound)
    vertex_ids = {
        (v, t): f"{v}|{t}" for v in g.vertices for t in dsys.fibers[v]
    }
    edge_rows: dict[int, list] = {color: [] for color in range(1, g.k + 1)}
    edge_ids = {}
    for ident, e in sorted(dsys.graph.edges.items()):
        for t in dsys.fibers[e.source_vertex]:
            pid = f"{ident}|{t}"
            edge_ids[(ident, t)] = pid
            edge_rows[e.color].append(
                (pid, vertex_ids[(e.range_vertex, dsys.tables[ident][t])],
                 vertex_ids[(e.source_vertex, t)])
            )
    squares = {}
    for pair, table in g.squares.items():
        lifted = {}
        for (e, f), (f2, e2) in table.items():
            for t in dsys.fibers[g.edge(f).source_vertex]:
                s_mid = dsys.tables[f][t]
                lifted[(edge_ids[(e, s_mid)], edge_ids[(f, t)])] = (
                    edge_ids[(f2, dsys.tables[e2][t])],
                    edge_ids[(e2, t)],
                )
        squares[pair] = lifted
    kg = KGraph(g.k, list(vertex_ids.values()), edge_rows, squares)

    morphisms = {
        n: [
            (lam, t)
            for v in g.vertices
            for lam in enumerate_paths(g, v, n)
            for t in dsys.fibers[lam.source_vertex]
        ]
        for n in degrees_upto(g.k, degree_bound)
    }
    tkg = TransformationKGraph(kg, dsys, degree_bound, vertex_ids, edge_ids, morphisms)
    tkg.report = _transformation_checks(tkg)
    return tkg


def _transformation_checks(tkg: TransformationKGraph) -> ValidationReport:
    """Findings on a materialized twisted product, all tagged "internal".

    The factorization and associativity checks read one composition table.
    The morphisms are numbered in flat order, and each composable pair (a, b)
    whose degrees sum to at most the bound is composed once, through
    ``star_compose``.  Each product is filed under (a·b, d(a), d(b)), where
    uniqueness looks up the factorizations of every morphism; associativity
    compares (a·b)·c with a·(b·c) from the same table.  The findings are
    those of trying every head/tail pair and every triple, in that order.
    """
    rep = ValidationReport()
    g = tkg.source.graph

    # skeleton axioms; genuine sources can appear when tables miss elements,
    # which the construction allows, so those findings are not errors
    for f in validate_kgraph(tkg.kgraph).findings:
        if f.code != "source-vertex":
            rep.add("internal", f.code, f.subject, f.detail)

    # the materialized morphisms must biject with the skeleton paths
    for n, pairs in tkg.morphisms.items():
        spelled = {tkg.product_path(lam, t) for lam, t in pairs}
        if len(spelled) != len(pairs):
            rep.add("internal", "morphism-collision", str(n),
                    "distinct twisted morphisms spell the same path")
        enumerated = {
            p
            for pv in tkg.kgraph.vertices
            for p in enumerate_paths(tkg.kgraph, pv, n)
        }
        if spelled != enumerated:
            rep.add("internal", "morphism-mismatch", str(n),
                    f"{len(spelled)} spelled vs {len(enumerated)} enumerated")

    # degrees within the bound by number; plus[i][j] numbers the sum of
    # degrees i and j, or is None when the sum exceeds the bound
    levels = degrees_upto(g.k, tkg.degree_bound)
    level = {n: i for i, n in enumerate(levels)}
    plus = [[level.get(degree_add(n, m)) for m in levels] for n in levels]

    # the composition table: products[ia][ib] is flat[ia]·flat[ib], for b
    # ranging into the star source of a, in flat order
    flat = [pt for pairs in tkg.morphisms.values() for pt in pairs]
    degree = [level[lam.degree] for lam, _ in flat]
    index: dict[tuple[Path, str], int] = {}
    into: dict[tuple[str, str], list[int]] = {}
    for i, (lam, t) in enumerate(flat):
        index.setdefault((lam, t), i)
        into.setdefault(tkg.star_range(lam, t), []).append(i)
    products: list[dict[int, tuple[Path, str]]] = []
    splits: dict[tuple, list[tuple[int, int]]] = {}
    for ia, (lam, t) in enumerate(flat):
        row = {}
        sums = plus[degree[ia]]
        for ib in into.get(tkg.star_source(lam, t), ()):
            if sums[degree[ib]] is not None:
                row[ib] = ab = tkg.star_compose(flat[ia], flat[ib])
                splits.setdefault((ab, degree[ia], degree[ib]), []).append((ia, ib))
        products.append(row)

    def star(x, y):
        """x·y from the table, or composed afresh for a pair the table lacks
        (a corrupted list without x or y); KGraphError when x, y do not
        compose."""
        row = products[index[x]] if x in index else {}
        iy = index.get(y)
        return row[iy] if iy in row else tkg.star_compose(x, y)

    # twisted unique factorization: (lam, t) splits as
    # (head, table(tail)(t)) * (tail, t), and as nothing else
    for n, pairs in tkg.morphisms.items():
        for m in degrees_upto(g.k, n):
            rest = tuple(b - a for a, b in zip(m, n))
            for lam, t in pairs:
                head, tail = factorize(lam, m)
                first = (head, map_along(tkg.source, tail)[t])
                second = (tail, t)
                if tkg.star_compose(first, second) != (lam, t):
                    rep.add("internal", "twisted-factorization",
                            f"({lam!r},{t})", "formula does not recompose")
                found = splits.get(((lam, t), level[m], level[rest]), ())
                for ia, ib in found:
                    if (flat[ia], flat[ib]) != (first, second):
                        rep.add("internal", "twisted-uniqueness",
                                f"({lam!r},{t})",
                                "a second factorization exists")
                if len(found) != 1:
                    rep.add("internal", "twisted-uniqueness",
                            f"({lam!r},{t})", f"{len(found)} factorizations found")

    # associativity within the bound, over the composable triples only: b
    # ranges into the star source of a, c into that of b; a triple whose
    # products do not compose is skipped
    for ia, row in enumerate(products):
        a = flat[ia]
        for ib, ab in row.items():
            b = flat[ib]
            sums = plus[plus[degree[ia]][degree[ib]]]
            for ic, bc in products[ib].items():
                if sums[degree[ic]] is None:
                    continue
                c = flat[ic]
                try:
                    left = star(ab, c)
                    right = star(a, bc)
                except KGraphError:
                    continue
                if left != right:
                    rep.add("internal", "twisted-associativity",
                            f"{a}/{b}/{c}", "composition orders disagree")
    return rep
