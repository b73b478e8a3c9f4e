"""Checks of the paper's statements that no command runs, as test oracles.

``kfractal.duality`` decides its claims from finite presentations: square
consistency of the tables, and the skeleton and squares of the twisted
product.  The statements those presentations imply are checked here by
enumeration up to a degree bound: the composition law of path tables, the
contravariance of pullback matrices, and the twisted product as a category
of (path, fiber element) pairs.  The sweep's sampler is checked against one
that tests every pair of maps it reads, as the sampler did before its
commutation memo.

A coded point is computed one path at a time by ``code_point``, the
reference for the batched evaluators of ``kfractal.coding``.

The k-graph statements are checked on enumerated paths: truncation to a
degree partitions the longer paths into cylinders, and words of diagonal
edges translate to and from paths of the source graph.  The metric ones
are checked on lattice clouds: degrees applied in either order agree
within grid slack, coded clouds are k-surjective, and coding commutes with
the diagonal collapse.  The collapse's attractor is also computed by a run
of its own and compared with the source's, as ``diagonal`` did before it
checked that the two operators are one.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from kfractal import kgraph
from kfractal.attractor import (
    ConvergenceCertificate,
    SetTuple,
    _directed_bound,
    _snap_offset,
    hutchinson_step,
    refine_attractor,
    tuple_distance,
)
from kfractal.coding import _metric_dist, _prefix_error
from kfractal.diagonal import diagonal_system
from kfractal.duality import (
    DiscreteSystem,
    _matmul,
    map_along,
    matrix_along,
    pullback_system,
    twisted_product,
)
from kfractal.kgraph import (
    Degree,
    DiagonalGraph,
    KGraph,
    KGraphError,
    Path,
    degree_leq,
    diagonal_graph,
    enumerate_paths,
    factorize,
    path_from_word,
    validate_kgraph,
)
from kfractal.report import AXIOM, ValidationReport
from kfractal.systems import MWSystem, degree_maps, lipschitz_bound

# the composition of the twisted model; a test may replace it with a faulty one
compose = kgraph.compose


def degree_add(n: Degree, m: Degree) -> Degree:
    return tuple(a + b for a, b in zip(n, m))


def degree_sub(n: Degree, m: Degree) -> Degree:
    return tuple(a - b for a, b in zip(n, m))


def degrees_upto(bound) -> list[Degree]:
    """All degree vectors n with n <= bound componentwise."""
    return list(itertools.product(*(range(b + 1) for b in bound)))


def composable_pairs(g: KGraph, bound: int):
    """Pairs (p, q) of paths with s(p) == r(q) and total degree at most
    bound, p outer and q inner over one pool of all paths up to bound."""
    pool = [
        p
        for v in g.vertices
        for n in degrees_upto((bound,) * g.k)
        if sum(n) <= bound
        for p in enumerate_paths(g, v, n)
    ]
    for p, q in itertools.product(pool, pool):
        if p.source_vertex == q.range_vertex and sum(p.degree) + sum(q.degree) <= bound:
            yield p, q


def composition_law_findings(dsys: DiscreteSystem, bound: int = 3) -> ValidationReport:
    """The table of each composite p·q against the chained tables of p and
    q, on all composable pairs up to total degree ``bound``."""
    rep = ValidationReport()
    for p, q in composable_pairs(dsys.graph, bound):
        composed = map_along(dsys, kgraph.compose(p, q))
        chained = {t: map_along(dsys, p)[u] for t, u in map_along(dsys, q).items()}
        if composed != chained:
            rep.add(AXIOM, "composition-law", f"{p!r}*{q!r}",
                    "path table differs from the chained tables")
    return rep


def contravariance_findings(dsys: DiscreteSystem, bound: int = 3) -> ValidationReport:
    """The matrix of each composite p·q against the product of the matrices
    of p and q, on all composable pairs up to total degree ``bound``."""
    psys = pullback_system(dsys)
    rep = ValidationReport()
    for p, q in composable_pairs(dsys.graph, bound):
        lhs = matrix_along(psys, kgraph.compose(p, q))
        rhs = _matmul(matrix_along(psys, p), matrix_along(psys, q))
        if lhs != rhs:
            rep.add(AXIOM, "contravariance", f"{p!r}*{q!r}",
                    "matrix of the composite differs from the matrix product")
    return rep


# ---------------------------------------------------------------------------
# the twisted product as (path, fiber element) pairs


def skeleton_findings(dsys: DiscreteSystem) -> list:
    """The findings the duality command prints for the twisted product:
    those of its skeleton and squares, genuine sources excused."""
    rep = validate_kgraph(twisted_product(dsys))
    return [f for f in rep.findings if f.code != "source-vertex"]


@dataclass
class TwistedModel:
    """The twisted product of a discrete system up to a degree bound: the
    morphism (λ, t) is the path λ read from the element t over its source,
    and ``kgraph`` is the skeleton ``duality.twisted_product`` builds."""

    source: DiscreteSystem
    kgraph: KGraph
    bound: Degree
    morphisms: dict[Degree, list[tuple[Path, str]]]

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
        word = []
        state = t
        for ident in reversed(lam.edges):
            word.append(f"{ident}|{state}")
            state = self.source.tables[ident][state]
        return Path(self.kgraph, f"{lam.range_vertex}|{state}", tuple(reversed(word)))


def twisted_model(dsys: DiscreteSystem, bound) -> TwistedModel:
    """Every twisted morphism of each degree up to ``bound``."""
    g = dsys.graph
    bound = tuple(bound)
    morphisms = {
        n: [
            (lam, t)
            for v in g.vertices
            for lam in enumerate_paths(g, v, n)
            for t in dsys.fibers[lam.source_vertex]
        ]
        for n in degrees_upto(bound)
    }
    return TwistedModel(dsys, twisted_product(dsys), bound, morphisms)


def twisted_findings(tm: TwistedModel) -> ValidationReport:
    """Findings on a twisted model, all tagged "internal", in this order:

    * per degree, the morphisms must biject with the skeleton paths they
      spell;
    * per degree n, split m and morphism (λ, t): the factorization formula
      (head, tail(t)) · (tail, t) must recompose to (λ, t); the spelled
      path must split in the skeleton into the spelled head and tail (this
      fails where the tables break a square); and no other pair of
      morphisms of degrees m and n - m may compose to (λ, t);
    * (a·b)·c must equal a·(b·c) for every composable triple within the
      bound.

    Every pair of degrees m and n - m is composed for uniqueness, and every
    composable triple for associativity.
    """
    rep = ValidationReport()
    for n, pairs in tm.morphisms.items():
        spelled = {tm.product_path(lam, t) for lam, t in pairs}
        if len(spelled) != len(pairs):
            rep.add("internal", "morphism-collision", str(n),
                    "distinct twisted morphisms spell the same path")
        enumerated = {
            p
            for pv in tm.kgraph.vertices
            for p in enumerate_paths(tm.kgraph, pv, n)
        }
        if spelled != enumerated:
            rep.add("internal", "morphism-mismatch", str(n),
                    f"{len(spelled)} spelled vs {len(enumerated)} enumerated")

    for n, pairs in tm.morphisms.items():
        for m in degrees_upto(n):
            splits: dict[tuple[Path, str], list] = {}
            for x in tm.morphisms[m]:
                for y in tm.morphisms[degree_sub(n, m)]:
                    try:
                        product = tm.star_compose(x, y)
                    except KGraphError:
                        continue
                    splits.setdefault(product, []).append((x, y))
            for lam, t in pairs:
                head, tail = factorize(lam, m)
                first = (head, map_along(tm.source, tail)[t])
                second = (tail, t)
                if tm.star_compose(first, second) != (lam, t):
                    rep.add("internal", "twisted-factorization",
                            f"({lam!r},{t})", "formula does not recompose")
                try:
                    split = factorize(tm.product_path(lam, t), m)
                except KGraphError:
                    split = None
                if split != (tm.product_path(*first), tm.product_path(*second)):
                    rep.add("internal", "product-factorization", f"({lam!r},{t})",
                            "the spelled path does not split into the spelled factors")
                found = splits.get((lam, t), [])
                for pair in found:
                    if pair != (first, second):
                        rep.add("internal", "twisted-uniqueness", f"({lam!r},{t})",
                                "a second factorization exists")
                if len(found) != 1:
                    rep.add("internal", "twisted-uniqueness",
                            f"({lam!r},{t})", f"{len(found)} factorizations found")

    # the composable triples, in the order of trying every triple of the
    # morphisms listed degree by degree
    into: dict[tuple[tuple[str, str], Degree], list] = {}
    for n, pairs in tm.morphisms.items():
        for x in pairs:
            into.setdefault((tm.star_range(*x), n), []).append(x)
    for a in (x for pairs in tm.morphisms.values() for x in pairs):
        for nb in tm.morphisms:
            ab_degree = degree_add(a[0].degree, nb)
            if not degree_leq(ab_degree, tm.bound):
                continue
            for b in into.get((tm.star_source(*a), nb), ()):
                for nc in tm.morphisms:
                    if not degree_leq(degree_add(ab_degree, nc), tm.bound):
                        continue
                    for c in into.get((tm.star_source(*b), nc), ()):
                        try:
                            left = tm.star_compose(tm.star_compose(a, b), c)
                            right = tm.star_compose(a, tm.star_compose(b, c))
                        except KGraphError:
                            continue
                        if left != right:
                            rep.add("internal", "twisted-associativity",
                                    f"{a}/{b}/{c}", "composition orders disagree")
    return rep


# ---------------------------------------------------------------------------
# the density/fidelity sweep's sampler, testing every pair it reads


def commute_at_first_element(f, h) -> bool:
    """Whether the maps f and h, tuples of images, commute; most pairs that
    do not are rejected at the first element."""
    return f[h[0]] == h[f[0]] and [f[t] for t in h] == [h[t] for t in f]


def sampled_assignments(maps, limit: int, rng):
    """``duality._sampled_assignments`` without a commutation memo: the
    consistent rows, in draw order, of ``limit`` draws of b0, r0 =
    divmod(rng.randrange(m * m), m), spelled out as the rejection loop that
    ``randrange`` runs, each followed by b1, r1 drawn the same way only
    when b0 and r0 commute, which is tested at the first element inline."""
    m, pairs = len(maps), len(maps) ** 2
    bits, draw = pairs.bit_length(), rng.getrandbits
    for _ in range(limit):
        x = draw(bits)
        while x >= pairs:
            x = draw(bits)
        b0, r0 = divmod(x, m)
        f, h = maps[b0], maps[r0]
        if f[h[0]] != h[f[0]] or not commute_at_first_element(f, h):
            continue
        x = draw(bits)
        while x >= pairs:
            x = draw(bits)
        b1, r1 = divmod(x, m)
        if (commute_at_first_element(maps[b1], maps[r1])
                and commute_at_first_element(maps[b0], maps[r1])
                and commute_at_first_element(maps[b1], maps[r0])):
            yield b0, b1, r0, r1


# ---------------------------------------------------------------------------
# cylinders and diagonal words


def segment(p: Path, m: Degree, n: Degree) -> Path:
    """The sub-path between degrees m and n, i.e. the middle of the unique
    splitting p = a b c with d(a) = m, d(ab) = n."""
    if not degree_leq(m, n):
        raise KGraphError(f"segment bounds out of order: {m} > {n}")
    _, tail = factorize(p, m)
    mid, _ = factorize(tail, degree_sub(n, m))
    return mid


def cylinder_partition_check(g: KGraph, u: str, n: Degree, m: Degree) -> bool:
    """True iff truncation to degree n partitions the degree-(n+m) paths at u.

    Every path must have exactly one degree-n head, the head must lie in
    uΛ^n, and every element of uΛ^n must occur as a head (so the fibers are
    nonempty and cover).
    """
    total = enumerate_paths(g, u, degree_add(n, m))
    fibers: dict[Path, int] = {p: 0 for p in enumerate_paths(g, u, n)}
    for a in total:
        head, tail = factorize(a, n)
        if kgraph.compose(head, tail) != a:
            return False
        if head not in fibers:
            return False
        fibers[head] += 1
    if sum(fibers.values()) != len(total):
        return False
    return all(c >= 1 for c in fibers.values())


def _source_graph(dg: DiagonalGraph) -> KGraph:
    """The graph whose degree-(1,..,1) paths the diagonal edges stand for."""
    return next(iter(dg.edge_to_path.values())).graph


def word_to_path(dg: DiagonalGraph, word, range_vertex: str | None = None) -> Path:
    """Expand a composable word of diagonal edges to the source-graph path it
    spells (the empty word needs an explicit vertex)."""
    if not word:
        if range_vertex is None:
            raise KGraphError("empty word needs a range vertex")
        return Path(_source_graph(dg), range_vertex)
    out = dg.edge_to_path[word[0]]
    if range_vertex is not None and out.range_vertex != range_vertex:
        raise KGraphError("word does not start at the stated vertex")
    for ident in word[1:]:
        out = kgraph.compose(out, dg.edge_to_path[ident])
    return out


def path_to_word(dg: DiagonalGraph, p: Path) -> list[str]:
    """Split a path of degree n·(1,..,1) into its unique chain of diagonal
    edges, read back through the inverse of ``dg.edge_to_path``.  Inverse
    of ``word_to_path``."""
    if p.graph is not _source_graph(dg):
        raise KGraphError("path does not live in the source graph")
    d = p.degree
    if any(c != d[0] for c in d):
        raise KGraphError(f"degree {d} is not a multiple of the diagonal degree")
    edge_of = {lam: ident for ident, lam in dg.edge_to_path.items()}
    word: list[str] = []
    rest = p
    for _ in range(d[0]):
        head, rest = factorize(rest, (1,) * len(d))
        word.append(edge_of[head])
    return word


# ---------------------------------------------------------------------------
# metric checks on lattice clouds


def check_commutation(sys: MWSystem, n, m, C: SetTuple, tol: float) -> bool:
    """Whether applying degrees n and m in either order lands within tol.

    The underlying composite maps commute exactly; only the intermediate
    snapping differs, which stays within grid slack.
    """
    maps_n, maps_m = degree_maps(sys, n), degree_maps(sys, m)
    nm = hutchinson_step(sys, m, hutchinson_step(sys, n, C, _maps=maps_n), _maps=maps_m)
    mn = hutchinson_step(sys, n, hutchinson_step(sys, m, C, _maps=maps_m), _maps=maps_n)
    return tuple_distance(nm, mn, sys.metric) <= tol


def coverage_distances(sys: MWSystem, n, sets: SetTuple) -> dict[str, float]:
    """Per vertex, an upper bound on the one-sided distance from its cloud
    in ``sets`` to the union of the cloud's degree-n images; the tuple is
    k-surjective at degree n within tol when every distance is <= tol.  A
    vertex whose cloud or images are empty reads inf, so it fails every tol.

    As in ``coding.check_subsystem``, the real images are snapped to the
    lattice of ``sets``, and the cloud is measured against them exactly, in
    integers, by ``attractor._directed_bound``.  The distance is pitch *
    cells + eps, rounded upward, where eps is the largest offset
    |q - snap(q)| of an image point.  Since d(p, T) <= d(p, snap T) + eps,
    it is an upper bound on the distance to the real images.
    """
    maps = degree_maps(sys, n)
    distances = {}
    for v in sys.graph.vertices:
        target = sets.clouds[v]
        pieces = [m.apply(sets.points(src)) for m, src in maps[v] if len(sets.clouds[src])]
        if not (len(target) and pieces):
            distances[v] = math.inf
            continue
        rows, eps = _snap_offset(np.concatenate(pieces), sets.pitch, sys.metric)
        distances[v] = _directed_bound(target, rows, sets.pitch, eps, sys.metric)
    return distances


class CodedPoint(NamedTuple):
    point: np.ndarray
    error_radius: float


def code_point(sys: MWSystem, path: Path) -> CodedPoint:
    """The point a finite prefix codes, one path at a time: its source
    fiber's basepoint (the centroid) with the generators along the path
    applied, last edge first, one ``AffineMap.apply`` each.  It is the
    reference for the coded clouds.  The error radius, the path map's
    Lipschitz bound times the source fiber's diameter, covers the image of
    the whole source fiber, so the image of any other point of that fiber
    lies within twice the radius of the coded point."""
    point = sys.fibers[path.source_vertex].basepoint()
    for ident in reversed(path.edges):
        point = sys.generators[ident].apply(point)
    return CodedPoint(point, _prefix_error(sys, path))


def transfer_failures(src: MWSystem, collapse: MWSystem, dg: DiagonalGraph, words,
                      tol: float) -> tuple[int, list]:
    """Check that coding commutes with the rank-1 collapse of src, whose
    edges ``dg.edge_to_path`` expands, three ways per sample, and return
    the number of samples and the failing ones.

    For each diagonal word w and composable diagonal edge e: the point coded
    over the collapse for e·w, the collapsed generator applied to the coded
    point of w, and the source-system coding of the expanded path of e·w
    must all agree within the certified radii plus tol.  A failure is
    (e·w, d1, d2), its two distances.
    """
    g = collapse.graph
    metric = collapse.metric
    samples, failures = 0, []
    for word in words:
        head_vertex = g.edge(word[0]).range_vertex if word else None
        for ident in sorted(g.edges):
            e = g.edge(ident)
            if head_vertex is not None and e.source_vertex != head_vertex:
                continue
            ew = (ident,) + tuple(word)
            collapse_path = path_from_word(g, e.range_vertex, ew)
            lhs = code_point(collapse, collapse_path)

            base_path = path_from_word(g, e.source_vertex, tuple(word))
            base = code_point(collapse, base_path)
            gen = collapse.generators[ident]
            mid = gen.apply(base.point)

            expanded = word_to_path(dg, ew, e.range_vertex)
            via_source = code_point(src, expanded)

            allowed = tol + lhs.error_radius + lipschitz_bound(gen, metric) * base.error_radius
            d1 = _metric_dist(lhs.point, mid, metric)
            d2 = _metric_dist(lhs.point, via_source.point, metric)
            allowed2 = tol + lhs.error_radius + via_source.error_radius
            samples += 1
            if d1 > allowed or d2 > allowed2:
                failures.append((ew, d1, d2))
    return samples, failures


class TwoRunAgreement(NamedTuple):
    """The source's and the collapse's attractors, each from a run of its
    own, and their distance per vertex."""

    tol: float
    distances: dict[str, float]
    source_certificate: ConvergenceCertificate
    collapse_certificate: ConvergenceCertificate
    sets_source: SetTuple
    sets_collapse: SetTuple

    @property
    def passed(self) -> bool:
        return (
            self.source_certificate.converged
            and self.collapse_certificate.converged
            and all(d <= self.tol for d in self.distances.values())
        )

    def summary(self) -> str:
        lines = [
            f"source:   {self.source_certificate.summary()}",
            f"collapse: {self.collapse_certificate.summary()}",
        ]
        for v, d in sorted(self.distances.items()):
            verdict = "ok" if d <= self.tol else "FAIL"
            lines.append(f"vertex {v}: distance {d:.6g} (tol {self.tol:.6g}) {verdict}")
        return "\n".join(lines)


def two_run_agreement(sys: MWSystem, tol: float, pitch: float,
                      max_iter: int = 64) -> TwoRunAgreement:
    """Refine the source attractor at the diagonal degree and the collapse's
    at degree 1, both from the same ``start_grids`` through the same levels
    to their lattice fixed points at the pitch, and measure them per vertex:
    ``check_diagonal_agreement``'s two runs before it proved the two
    operators one and kept one run."""
    K_src, cert_src = refine_attractor(sys, sys.diagonal_degree, pitch, tol, max_iter=max_iter)
    collapse = diagonal_system(sys, diagonal_graph(sys.graph))
    K_col, cert_col = refine_attractor(collapse, (1,), pitch, tol, max_iter=max_iter)
    distances = K_src.vertex_distances(K_col, sys.metric)
    return TwoRunAgreement(tol, distances, cert_src, cert_col, K_src, K_col)
