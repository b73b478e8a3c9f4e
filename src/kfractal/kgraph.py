"""Finite k-colored graphs with factorization squares, and their paths.

A rank-k graph is presented by its skeleton (one finite edge set per color,
each edge with a range and a source vertex) together with, for every pair of
colors i < j, a bijection between the two-edge words of colors (i, j) and
those of colors (j, i) that start and end at the same vertices.  Paths of
arbitrary multidegree are generated from this presentation; each morphism is
stored in color-sorted normal form, so path equality is plain tuple equality.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .report import AXIOM, STRUCTURAL, ValidationReport


class KGraphError(Exception):
    """Malformed input or an operation applied to non-composable data."""


Degree = tuple[int, ...]


def degree_leq(n: Degree, m: Degree) -> bool:
    return all(a <= b for a, b in zip(n, m))


class Edge(NamedTuple):
    ident: str
    color: int  # 1-based color index
    range_vertex: str
    source_vertex: str


class KGraph:
    """Skeleton-plus-squares presentation of a finite rank-k graph.

    Parameters
    ----------
    k:
        Number of colors (the rank).
    vertices:
        Vertex identifiers.
    edges:
        Mapping color -> iterable of (ident, range_vertex, source_vertex).
    squares:
        Mapping (i, j) with i < j -> mapping (e, f) -> (f2, e2), meaning the
        word e f (colors i then j) and the word f2 e2 (colors j then i) are
        the two factorizations of the same two-edge morphism.

    Construction is tolerant of malformed tables: problems are reported by
    ``validate_kgraph`` rather than raised here, so broken instances can be
    loaded and diagnosed.
    """

    def __init__(self, k, vertices, edges, squares=None):
        if k < 1:
            raise KGraphError(f"rank must be >= 1, got {k}")
        self.k = int(k)
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        self.vertex_set = frozenset(self.vertices)

        self.edges: dict[str, Edge] = {}
        self.duplicate_edge_ids: list[str] = []
        for color in range(1, self.k + 1):
            for ident, r, s in (edges.get(color) or []):
                ident = str(ident)
                if ident in self.edges:
                    self.duplicate_edge_ids.append(ident)
                    continue
                self.edges[ident] = Edge(ident, color, str(r), str(s))

        self._by_range: dict[tuple[int, str], tuple[str, ...]] = {}
        for color in range(1, self.k + 1):
            for v in self.vertices:
                ids = sorted(
                    e.ident
                    for e in self.edges.values()
                    if e.color == color and e.range_vertex == v
                )
                self._by_range[(color, v)] = tuple(ids)

        # squares[(i, j)][(e, f)] = (f2, e2): the ascending word e f equals
        # the descending word f2 e2.  The inverse table may lose entries when
        # the forward table is not injective; validation reports that.
        self.squares: dict[tuple[int, int], dict[tuple[str, str], tuple[str, str]]] = {}
        self.squares_inv: dict[tuple[int, int], dict[tuple[str, str], tuple[str, str]]] = {}
        for pair, table in (squares or {}).items():
            i, j = int(pair[0]), int(pair[1])
            fwd = {
                (str(e), str(f)): (str(f2), str(e2))
                for (e, f), (f2, e2) in table.items()
            }
            self.squares[(i, j)] = fwd
            self.squares_inv[(i, j)] = {v: k_ for k_, v in fwd.items()}

    def edges_of_color(self, color: int) -> list[Edge]:
        return sorted(
            (e for e in self.edges.values() if e.color == color),
            key=lambda e: e.ident,
        )

    def edges_with_range(self, color: int, vertex: str) -> tuple[str, ...]:
        return self._by_range.get((color, vertex), ())

    def edge(self, ident: str) -> Edge:
        try:
            return self.edges[ident]
        except KeyError:
            raise KGraphError(f"unknown edge id {ident!r}") from None

    def __repr__(self) -> str:
        return (
            f"KGraph(k={self.k}, |V|={len(self.vertices)}, "
            f"|E|={len(self.edges)})"
        )


class Path:
    """A morphism in color-sorted normal form.

    ``edges`` lists edge ids with colors non-decreasing left to right; the
    leftmost edge starts at ``range_vertex``.  Two Path values represent the
    same morphism exactly when they are equal.  ``degree`` counts the edges
    of each color, as the validating walk over them reads the colors.
    """

    __slots__ = ("graph", "range_vertex", "edges", "degree")

    def __init__(self, graph: KGraph, range_vertex: str, edges: tuple[str, ...] = ()):
        if range_vertex not in graph.vertex_set:
            raise KGraphError(f"unknown vertex {range_vertex!r}")
        at = range_vertex
        last_color = 0
        counts = [0] * graph.k
        for ident in edges:
            e = graph.edge(ident)
            if e.color < last_color:
                raise KGraphError(f"edge list not color-sorted at {ident!r}")
            if e.range_vertex != at:
                raise KGraphError(f"edges not composable at {ident!r}")
            last_color = e.color
            at = e.source_vertex
            counts[e.color - 1] += 1
        self.graph = graph
        self.range_vertex = range_vertex
        self.edges = tuple(edges)
        self.degree: Degree = tuple(counts)

    @property
    def source_vertex(self) -> str:
        if not self.edges:
            return self.range_vertex
        return self.graph.edge(self.edges[-1]).source_vertex

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.graph is other.graph
            and self.range_vertex == other.range_vertex
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((id(self.graph), self.range_vertex, self.edges))

    def __repr__(self) -> str:
        if not self.edges:
            return f"Path({self.range_vertex!r})"
        return f"Path({'.'.join(self.edges)})"


def _check_raw_word(g: KGraph, range_vertex: str, word) -> None:
    at = range_vertex
    for ident in word:
        e = g.edge(ident)
        if e.range_vertex != at:
            raise KGraphError(f"word not composable at {ident!r}")
        at = e.source_vertex


def _swap(g: KGraph, w: list[str], t: int) -> None:
    """Rewrite w[t] w[t + 1], two edges of different colors, in place as the
    other factorization of their morphism: an ascending pair through the
    squares, a descending one through their inverses.  Every word rewrite is
    a run of these, and unique factorization makes their order immaterial."""
    a, b = w[t], w[t + 1]
    ca, cb = g.edge(a).color, g.edge(b).color
    if ca < cb:
        order, table = "ascending", g.squares.get((ca, cb), {})
    else:
        order, table = "descending", g.squares_inv.get((cb, ca), {})
    try:
        w[t], w[t + 1] = table[(a, b)]
    except KeyError:
        raise KGraphError(f"no square entry for {order} pair ({a}, {b})") from None


def _rearrange(g: KGraph, word: list[str], keys: list) -> None:
    """Insertion-sort ``word`` in place by ``keys``, one per position and
    moved along with its edge, so the sort ends after at most len(word)**2/2
    exchanges whatever the square tables hold; every exchange is a ``_swap``."""
    for j in range(1, len(word)):
        t = j - 1
        while t >= 0 and keys[t] > keys[t + 1]:
            _swap(g, word, t)
            keys[t], keys[t + 1] = keys[t + 1], keys[t]
            t -= 1


def _normalize(g: KGraph, word) -> tuple[str, ...]:
    """Sort a composable word by color with ``_rearrange``.  Uniqueness of
    the result is the normal-form property certified by ``validate_kgraph``."""
    w = list(word)
    _rearrange(g, w, [g.edge(e).color for e in w])
    return tuple(w)


def path_from_word(g: KGraph, range_vertex: str, word) -> Path:
    """Build the normal-form path represented by an arbitrary composable word."""
    _check_raw_word(g, range_vertex, word)
    return Path(g, range_vertex, _normalize(g, word))


def compose(p: Path, q: Path) -> Path:
    """The product path p·q, renormalized to color-sorted form.

    Requires s(p) = r(q); the degree of the result is d(p) + d(q).
    """
    if p.graph is not q.graph:
        raise KGraphError("paths live in different graphs")
    if p.source_vertex != q.range_vertex:
        raise KGraphError(
            f"not composable: source {p.source_vertex!r} != range {q.range_vertex!r}"
        )
    return Path(p.graph, p.range_vertex, _normalize(p.graph, p.edges + q.edges))


def _check_degree(g: KGraph, n) -> None:
    """KGraphError unless n is a degree vector of g: k non-negative entries."""
    if len(n) != g.k or any(c < 0 for c in n):
        raise KGraphError(f"bad degree vector {n!r}")


def factorize(p: Path, m: Degree) -> tuple[Path, Path]:
    """Split p as (head, tail) with d(head) = m.

    One ``_rearrange`` by the key (edge is past the first m_c edges of its
    color c, c) moves each head edge left across the tail edges before it,
    nearest first; the word is then split after |m| edges.  The splitting is
    the unique one of the factorization property; uniqueness is exercised
    exhaustively by the test suite rather than assumed here.
    """
    d = p.degree
    _check_degree(p.graph, m)
    if not degree_leq(m, d):
        raise KGraphError(f"degree {m} not dominated by d(p)={d}")
    g = p.graph
    w, keys, seen = list(p.edges), [], [0] * g.k
    for e in w:
        c = g.edge(e).color
        keys.append((seen[c - 1] >= m[c - 1], c))
        seen[c - 1] += 1
    _rearrange(g, w, keys)
    mu = Path(g, p.range_vertex, tuple(w[:sum(m)]))
    nu = Path(g, mu.source_vertex, tuple(w[sum(m):]))
    return mu, nu


def normal_steps(g: KGraph, n: Degree) -> list[tuple]:
    """The steps of a degree-n path in normal form, first to last: n_1 of
    color 1, then n_2 of color 2, and so on.  A step holds, per vertex u in
    ``g.vertices`` order, the sorted ids of the edges of its color with
    range u and the ``g.vertices`` indices of their sources; a color's row
    is built once and repeated.  Every walk over the paths of a degree reads
    these rows: forward they list paths in lexicographic order of their
    edge ids, and in reverse they count the completions of a prefix."""
    _check_degree(g, n)
    index = {u: i for i, u in enumerate(g.vertices)}
    steps = []
    for color in range(1, g.k + 1):
        row = tuple((ids, tuple(index[g.edge(e).source_vertex] for e in ids))
                    for ids in (g.edges_with_range(color, u) for u in g.vertices))
        steps += [row] * n[color - 1]
    return steps


def _vertex_index(g: KGraph, v: str) -> int:
    if v not in g.vertex_set:
        raise KGraphError(f"unknown vertex {v!r}")
    return g.vertices.index(v)


def enumerate_paths(g: KGraph, v: str, n: Degree) -> list[Path]:
    """All normal-form paths with range v and degree n, in lexicographic
    order of their edge-id tuples: the words are extended step by step
    through the sorted candidates of ``normal_steps``."""
    steps = normal_steps(g, n)
    frontier = [(_vertex_index(g, v), ())]
    for row in steps:
        frontier = [(s, word + (e,)) for u, word in frontier for e, s in zip(*row[u])]
    return [Path(g, v, word) for _, word in frontier]


def count_paths(g: KGraph, v: str, n: Degree) -> int:
    """|vΛ^n| without materializing the paths: a sum over the reversed
    ``normal_steps``, each state the completion count of a suffix."""
    counts = [1] * len(g.vertices)
    for row in reversed(normal_steps(g, n)):
        counts = [sum(counts[s] for s in sources) for _, sources in row]
    return counts[_vertex_index(g, v)]


# ---------------------------------------------------------------------------
# validation


def validate_kgraph(g: KGraph) -> ValidationReport:
    """Check the presentation axioms; an empty report means valid.

    Structural findings (dangling ids, duplicate ids, badly-typed square
    entries) are distinguished from axiom violations (squares not bijective,
    range/source not preserved, sources present, failed associativity).
    """
    rep = ValidationReport()

    for ident in g.duplicate_edge_ids:
        rep.add(STRUCTURAL, "duplicate-edge-id", ident, "edge id defined twice")
    for e in g.edges.values():
        if e.range_vertex not in g.vertex_set:
            rep.add(STRUCTURAL, "dangling-vertex", e.ident,
                    f"range vertex {e.range_vertex!r} not declared")
        if e.source_vertex not in g.vertex_set:
            rep.add(STRUCTURAL, "dangling-vertex", e.ident,
                    f"source vertex {e.source_vertex!r} not declared")

    for pair in g.squares:
        i, j = pair
        if not (1 <= i < j <= g.k):
            rep.add(STRUCTURAL, "bad-color-pair", str(pair),
                    "square table color pair out of range or unordered")

    squares_usable = True
    for pair, table in g.squares.items():
        i, j = pair
        for (e, f), (f2, e2) in table.items():
            for ident, color in ((e, i), (f, j), (f2, j), (e2, i)):
                if ident not in g.edges:
                    rep.add(STRUCTURAL, "dangling-edge", ident,
                            f"square {pair} references unknown edge")
                    squares_usable = False
                elif g.edges[ident].color != color:
                    rep.add(STRUCTURAL, "wrong-color", ident,
                            f"square {pair} entry has color "
                            f"{g.edges[ident].color}, expected {color}")
                    squares_usable = False

    if not squares_usable:
        return rep

    # no sources: every vertex receives an edge of every color
    for v in g.vertices:
        for color in range(1, g.k + 1):
            if not g.edges_with_range(color, v):
                rep.add(AXIOM, "source-vertex", v,
                        f"no color-{color} edge with range {v!r}")

    # square tables: defined exactly on the composable ascending pairs,
    # injective, surjective onto the composable descending pairs, and
    # range/source preserving
    for i, j in itertools.combinations(range(1, g.k + 1), 2):
        table = g.squares.get((i, j), {})
        asc = {
            (e.ident, f.ident)
            for e in g.edges_of_color(i)
            for f in g.edges_of_color(j)
            if e.source_vertex == f.range_vertex
        }
        desc = {
            (f.ident, e.ident)
            for f in g.edges_of_color(j)
            for e in g.edges_of_color(i)
            if f.source_vertex == e.range_vertex
        }
        missing = asc - set(table)
        for key in sorted(missing):
            rep.add(AXIOM, "square-incomplete", str(key),
                    f"no square for composable pair of colors ({i},{j})")
        extra = set(table) - asc
        for key in sorted(extra):
            rep.add(AXIOM, "square-domain", str(key),
                    "square key is not a composable ascending pair")

        seen: dict[tuple[str, str], tuple[str, str]] = {}
        for key, val in table.items():
            if val in seen:
                rep.add(AXIOM, "square-not-injective", str(val),
                        f"pairs {seen[val]} and {key} map to the same word")
            seen[val] = key
        if set(seen) != desc:
            for val in sorted(desc - set(seen)):
                rep.add(AXIOM, "square-not-surjective", str(val),
                        "descending composable pair not reached")
            for val in sorted(set(seen) - desc):
                rep.add(AXIOM, "square-range", str(val),
                        "square value is not a composable descending pair")

        for (e, f), (f2, e2) in table.items():
            if {e, f, f2, e2} - set(g.edges):
                continue
            if g.edges[f2].range_vertex != g.edges[e].range_vertex:
                rep.add(AXIOM, "square-endpoint", f"({e},{f})",
                        "rewritten word changes the range vertex")
            if g.edges[e2].source_vertex != g.edges[f].source_vertex:
                rep.add(AXIOM, "square-endpoint", f"({e},{f})",
                        "rewritten word changes the source vertex")

    # associativity for triples of distinct colors: sorting a descending
    # 3-color word by the two possible swap schedules must agree; needs the
    # square tables to be intact, but tolerates unrelated findings
    squares_ok = not any(f.code.startswith("square") for f in rep.findings)
    if g.k >= 3 and squares_ok:
        for i, j, l in itertools.combinations(range(1, g.k + 1), 3):
            for a in g.edges_of_color(l):
                for b in g.edges_of_color(j):
                    if a.source_vertex != b.range_vertex:
                        continue
                    for c in g.edges_of_color(i):
                        if b.source_vertex != c.range_vertex:
                            continue
                        word = (a.ident, b.ident, c.ident)
                        one = _swap_schedule(g, word, (0, 1, 0))
                        two = _swap_schedule(g, word, (1, 0, 1))
                        if one != two:
                            rep.add(AXIOM, "associativity", str(word),
                                    f"schedules disagree: {one} vs {two}")
    return rep


def _swap_schedule(g: KGraph, word: tuple[str, ...], junctions) -> tuple[str, ...]:
    w = list(word)
    for t in junctions:
        _swap(g, w, t)
    return tuple(w)


# ---------------------------------------------------------------------------
# the rank-1 graph of diagonal-degree paths


class DiagonalGraph(NamedTuple):
    """Rank-1 graph with one edge per degree-(1,..,1) path of a source graph."""

    graph: KGraph
    edge_to_path: dict[str, Path]


def diagonal_edge_id(p: Path) -> str:
    return "e[" + ".".join(p.edges) + "]"


def diagonal_graph(g: KGraph) -> DiagonalGraph:
    """Collapse each degree-(1,..,1) path to a single edge of a rank-1 graph."""
    p_vec = (1,) * g.k
    edge_rows = []
    edge_to_path: dict[str, Path] = {}
    for v in g.vertices:
        for lam in enumerate_paths(g, v, p_vec):
            ident = diagonal_edge_id(lam)
            edge_rows.append((ident, lam.range_vertex, lam.source_vertex))
            edge_to_path[ident] = lam
    dg = KGraph(1, g.vertices, {1: edge_rows})
    return DiagonalGraph(dg, edge_to_path)
