"""Exact checks on systems with finite discrete fibers.

Function tables replace continuous maps, 0/1 integer matrices replace
pullback operators on function spaces, and every statement becomes decidable
by enumeration: density of images against triviality of common kernels, the
reconstruction of a table system from its pullback matrices, and the twisted
product graph whose morphisms are (path, fiber element) pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .kgraph import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degree_add,
    degree_leq,
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

    def fiber(self, v: str) -> tuple[str, ...]:
        return self.fibers[v]


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


def validate_discrete_system(dsys: DiscreteSystem, composition_bound: int = 3) -> ValidationReport:
    """Table totality, exact square consistency, and the composition law on
    all path pairs up to the given total degree."""
    rep = ValidationReport()
    g = dsys.graph
    for v in g.vertices:
        if v not in dsys.fibers or len(dsys.fibers[v]) == 0:
            rep.add(STRUCTURAL, "missing-fiber", v, "vertex has no (nonempty) fiber")
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

    pool = [
        p
        for v in g.vertices
        for tot in range(composition_bound + 1)
        for n in degrees_of_total(g.k, tot)
        for p in enumerate_paths(g, v, n)
    ]
    for p, q in itertools.product(pool, pool):
        if p.source_vertex != q.range_vertex:
            continue
        if sum(p.degree) + sum(q.degree) > composition_bound:
            continue
        composed = map_along(dsys, compose(p, q))
        chained = {t: map_along(dsys, p)[u] for t, u in map_along(dsys, q).items()}
        if composed != chained:
            rep.add(AXIOM, "composition-law", f"{p!r}*{q!r}",
                    "path table differs from the chained tables")
    return rep


# ---------------------------------------------------------------------------
# pullback systems (function spaces as coordinates, one 0/1 matrix per edge)


@dataclass
class PullbackSystem:
    graph: KGraph
    fibers: dict[str, tuple[str, ...]]
    matrices: dict[str, np.ndarray]  # edge -> int64 (|T_r|, |T_s|), one 1 per column
    name: str = ""


def pullback_system(dsys: DiscreteSystem, verify_bound: int = 3) -> tuple[PullbackSystem, ValidationReport]:
    """Linearize each table: column t carries a single 1 in the row of its
    image.  The returned report certifies the contravariant composition law
    (as the matrix product identity) on all composable pairs up to the
    given total degree."""
    matrices = {}
    for ident, tab in dsys.tables.items():
        e = dsys.graph.edge(ident)
        src = dsys.fibers[e.source_vertex]
        dst = dsys.fibers[e.range_vertex]
        dst_index = {t: i for i, t in enumerate(dst)}
        mat = np.zeros((len(dst), len(src)), dtype=np.int64)
        for j, t in enumerate(src):
            mat[dst_index[tab[t]], j] = 1
        matrices[ident] = mat
    psys = PullbackSystem(dsys.graph, dict(dsys.fibers), matrices, dsys.name)

    rep = ValidationReport()
    g = dsys.graph
    pool = [
        p
        for v in g.vertices
        for tot in range(verify_bound + 1)
        for n in degrees_of_total(g.k, tot)
        for p in enumerate_paths(g, v, n)
    ]
    for p, q in itertools.product(pool, pool):
        if p.source_vertex != q.range_vertex:
            continue
        if sum(p.degree) + sum(q.degree) > verify_bound:
            continue
        lhs = matrix_along(psys, compose(p, q))
        rhs = matrix_along(psys, p) @ matrix_along(psys, q)
        if not np.array_equal(lhs, rhs):
            rep.add(AXIOM, "contravariance", f"{p!r}*{q!r}",
                    "matrix of the composite differs from the matrix product")
    return psys, rep


def matrix_along(psys: PullbackSystem, p: Path) -> np.ndarray:
    """0/1 matrix of a path (exact integer product along the normal form)."""
    if p.is_vertex:
        return np.eye(len(psys.fibers[p.range_vertex]), dtype=np.int64)
    out = psys.matrices[p.edges[0]]
    for ident in p.edges[1:]:
        out = out @ psys.matrices[ident]
    return out


def discrete_from_pullback(psys: PullbackSystem) -> DiscreteSystem:
    """Reconstruct the unique table system with these pullback matrices.

    Requires every matrix to carry exactly one 1 per column (that is what
    makes it the linearization of a function)."""
    tables = {}
    for ident, mat in psys.matrices.items():
        e = psys.graph.edge(ident)
        src = psys.fibers[e.source_vertex]
        dst = psys.fibers[e.range_vertex]
        if mat.shape != (len(dst), len(src)) or not np.all(mat.sum(axis=0) == 1):
            raise ValueError(f"matrix for {ident!r} is not a per-column selector")
        if not np.isin(mat, (0, 1)).all():
            raise ValueError(f"matrix for {ident!r} has entries outside 0/1")
        rows = mat.argmax(axis=0)
        tables[ident] = {t: dst[rows[j]] for j, t in enumerate(src)}
    return DiscreteSystem(psys.graph, dict(psys.fibers), tables, psys.name)


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
        hit = np.zeros(len(dsys.fibers[v]), dtype=np.int64)
        for lam in enumerate_paths(g, v, n):
            hit += matrix_along(psys, lam).sum(axis=1)
        if not np.all(hit > 0):
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
    elements, otherwise a seeded uniform sample of that size is drawn.
    Commutation is tested on integer map tables, a block of assignments at
    a time; only the consistent ones are checked for density and fidelity.
    """
    g = _template_2graph()
    rng = np.random.default_rng(seed)
    degrees = [tuple(n) for n in degrees]
    result = SweepResult(degrees, 0, 0)
    for size in range(1, max_fiber_size + 1):
        elems = tuple(str(i) for i in range(size))
        # row i is the i-th map of itertools.product order: j -> maps[i, j]
        maps = np.array(list(itertools.product(range(size), repeat=size)), dtype=np.intp)
        result.sampled |= len(maps) ** 4 > limit
        for rows in _assignment_blocks(len(maps), limit, rng):
            result.instances += len(rows)
            tabs = maps[rows]
            consistent = np.ones(len(rows), dtype=bool)
            for b in (0, 1):
                for r in (2, 3):
                    blue, red = tabs[:, b], tabs[:, r]
                    consistent &= (
                        np.take_along_axis(blue, red, axis=1)
                        == np.take_along_axis(red, blue, axis=1)
                    ).all(axis=1)
            for idx in rows[consistent].tolist():
                result.consistent += 1
                tables = [dict(zip(elems, (elems[j] for j in maps[i]))) for i in idx]
                dsys = DiscreteSystem(g, {"v": elems}, dict(zip(("b0", "b1", "r0", "r1"), tables)))
                for n in degrees:
                    verdict = check_density_fidelity(dsys, n)
                    if not verdict.agree:
                        result.disagreements.append((size, tuple(idx), n, verdict))
    return result


# assignments per block of the sweep: larger blocks are no faster, and one
# block of 100,000 raises the peak RSS of a size-3 sweep from 36 to 54 MB
_SWEEP_BLOCK = 2048


def _assignment_blocks(n_maps: int, limit: int, rng):
    """Rows of four map indices (b0, b1, r0, r1), in blocks of at most
    ``_SWEEP_BLOCK`` rows: all n_maps**4 assignments in lexicographic order
    when there are at most ``limit``, otherwise ``limit`` seeded uniform
    draws (the same stream as one draw of shape (limit, 4), or as ``limit``
    draws of 4)."""
    total = n_maps ** 4
    count = min(total, limit)
    for start in range(0, count, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, count)
        if total <= limit:
            yield np.stack(np.unravel_index(np.arange(start, stop), (n_maps,) * 4), axis=1)
        else:
            yield rng.integers(0, n_maps, (stop - start, 4))


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

    # twisted unique factorization: (lam, t) splits as
    # (head, table(tail)(t)) * (tail, t), and as nothing else
    for n, pairs in tkg.morphisms.items():
        for m in degrees_upto(g.k, n):
            rest = tuple(b - a for a, b in zip(m, n))
            splits = _factorizations(tkg, tkg.morphisms[m], tkg.morphisms[rest])
            for lam, t in pairs:
                head, tail = factorize(lam, m)
                first = (head, map_along(tkg.source, tail)[t])
                second = (tail, t)
                if tkg.star_compose(first, second) != (lam, t):
                    rep.add("internal", "twisted-factorization",
                            f"({lam!r},{t})", "formula does not recompose")
                found = splits.get((lam, t), ())
                for split in found:
                    if split != (first, second):
                        rep.add("internal", "twisted-uniqueness",
                                f"({lam!r},{t})",
                                "a second factorization exists")
                if len(found) != 1:
                    rep.add("internal", "twisted-uniqueness",
                            f"({lam!r},{t})", f"{len(found)} factorizations found")

    # associativity of the twisted composition within the bound, over the
    # composable triples only: b ranges into the star source of a, c into
    # that of b, both in flat order
    flat = [pt for pairs in tkg.morphisms.values() for pt in pairs]
    degree = [lam.degree for lam, _ in flat]
    source = [tkg.star_source(lam, t) for lam, t in flat]
    into: dict[tuple[str, str], list[int]] = {}
    for ic, (lam, t) in enumerate(flat):
        into.setdefault(tkg.star_range(lam, t), []).append(ic)
    bound = tkg.degree_bound
    for ia, a in enumerate(flat):
        for ib in into.get(source[ia], ()):
            ab = degree_add(degree[ia], degree[ib])
            if not degree_leq(ab, bound):
                continue
            b = flat[ib]
            for ic in into.get(source[ib], ()):
                if not degree_leq(degree_add(ab, degree[ic]), bound):
                    continue
                c = flat[ic]
                try:
                    left = tkg.star_compose(tkg.star_compose(a, b), c)
                    right = tkg.star_compose(a, tkg.star_compose(b, c))
                except KGraphError:
                    continue
                if left != right:
                    rep.add("internal", "twisted-associativity",
                            f"{a}/{b}/{c}", "composition orders disagree")
    return rep


def _factorizations(tkg: TransformationKGraph, heads, tails) -> dict:
    """Every composite (mu, s)*(nu, u) of a head and a tail, keyed by the
    morphism it composes to, with its factorizations in scan order (heads
    outer, tails inner)."""
    into: dict[tuple[str, str], list[tuple[Path, str]]] = {}
    for nu, u in tails:
        into.setdefault(tkg.star_range(nu, u), []).append((nu, u))
    out: dict[tuple[Path, str], list] = {}
    for mu, s in heads:
        for nu, u in into.get(tkg.star_source(mu, s), ()):
            out.setdefault((compose(mu, nu), u), []).append(((mu, s), (nu, u)))
    return out


# ---------------------------------------------------------------------------
# properness (a tautology on finite fibers, recorded as such)


@dataclass(frozen=True)
class PropernessReport:
    proper_maps: bool
    proper_pullbacks: bool
    tautological: bool
    note: str


def check_properness(dsys: DiscreteSystem) -> PropernessReport:
    """On finite discrete fibers every map is proper and every pullback
    lands inside the codomain function space; the check verifies the matrix
    shapes and says so."""
    psys, _ = pullback_system(dsys, verify_bound=0)
    shapes_ok = True
    for ident, mat in psys.matrices.items():
        e = dsys.graph.edge(ident)
        expected = (len(dsys.fibers[e.range_vertex]), len(dsys.fibers[e.source_vertex]))
        if mat.shape != expected or not np.all(mat.sum(axis=0) == 1):
            shapes_ok = False
    return PropernessReport(
        proper_maps=True,
        proper_pullbacks=shapes_ok,
        tautological=True,
        note="finite fibers: preimages of (finite) compact sets are compact; "
             "pullbacks of finitely supported functions stay finitely supported",
    )
