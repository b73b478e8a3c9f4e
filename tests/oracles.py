"""Bounded enumerations of the exact module's theorems, as test oracles.

``kfractal.duality`` decides its claims from finite presentations: square
consistency of the tables, and the skeleton and squares of the twisted
product.  The statements those presentations imply are checked here by
enumeration up to a degree bound: the composition law of path tables, the
contravariance of pullback matrices, and the twisted product as a category
of (path, fiber element) pairs.
"""

import itertools
from dataclasses import dataclass

from kfractal import kgraph
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
    KGraph,
    KGraphError,
    Path,
    degree_add,
    degree_leq,
    degree_sub,
    enumerate_paths,
    factorize,
    validate_kgraph,
)
from kfractal.report import AXIOM, ValidationReport

# the composition of the twisted model; a test may replace it with a faulty one
compose = kgraph.compose


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
