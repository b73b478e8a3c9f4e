"""Combinatorial core: normal forms, factorization, squares, diagonal graph.

Expected values for the non-trivial cases are computed by independent brute
force (itertools enumeration of raw words, explicit table chasing) rather
than by the code under test.
"""

import itertools
import random
import re

import pytest

from kfractal.attractor import contraction_factor
from kfractal.coding import _completion_table
from kfractal.kgraph import (
    KGraph,
    KGraphError,
    Path,
    compose,
    count_paths,
    diagonal_graph,
    enumerate_paths,
    factorize,
    normal_steps,
    path_from_word,
    validate_kgraph,
)
from kfractal.systems import degree_maps
from oracles import cylinder_partition_check, degree_add, path_to_word, segment, word_to_path
from shipped import shipped

ALL_GRAPHS = ["g_s1", "g_p2", "g_t0", "g_f3", "g_two_vertex"]


# every reader of a degree vector, called on p2 (rank 2)
DEGREE_READERS = {
    "enumerate_paths": lambda sys_, n: enumerate_paths(sys_.graph, "v", n),
    "factorize": lambda sys_, n: factorize(enumerate_paths(sys_.graph, "v", (2, 2))[0], n),
    "contraction_factor": contraction_factor,
    "count_paths": lambda sys_, n: count_paths(sys_.graph, "v", n),
    "_completion_table": lambda sys_, n: _completion_table(sys_.graph, n),
    "normal_steps": lambda sys_, n: normal_steps(sys_.graph, n),
    "degree_maps": degree_maps,
}


@pytest.mark.parametrize("reader", sorted(DEGREE_READERS))
@pytest.mark.parametrize("n", [(1, 1, 1), (1, -1), (2,)], ids=["long", "negative", "short"])
def test_bad_degree_vectors_are_refused_by_every_reader(reader, n):
    with pytest.raises(KGraphError, match=re.escape(f"bad degree vector {n!r}")):
        DEGREE_READERS[reader](shipped("p2"), n)


def all_degrees(k, total):
    """Every degree vector of rank k with |n| <= total."""
    out = []
    for tot in range(total + 1):
        for cuts in itertools.combinations(range(tot + k - 1), k - 1):
            prev, vec = -1, []
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(tot + k - 2 - prev)
            out.append(tuple(vec))
    return sorted(set(out))


def test_degree_helper_enumerates_simplex():
    assert all_degrees(2, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# validation


def test_smallest_2graph_valid(g_t0):
    assert validate_kgraph(g_t0).ok


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_fixture_graphs_valid(name, request):
    g = request.getfixturevalue(name)
    assert validate_kgraph(g).ok


def test_non_injective_square_reported():
    g = KGraph(
        2,
        ["v"],
        {1: [("b0", "v", "v"), ("b1", "v", "v")], 2: [("r0", "v", "v"), ("r1", "v", "v")]},
        {(1, 2): {
            ("b0", "r0"): ("r0", "b0"),
            ("b0", "r1"): ("r0", "b0"),  # collides
            ("b1", "r0"): ("r1", "b0"),
            ("b1", "r1"): ("r1", "b1"),
        }},
    )
    rep = validate_kgraph(g)
    assert not rep.ok
    assert "square-not-injective" in rep.codes()


def test_missing_square_reported():
    g = KGraph(
        2, ["v"],
        {1: [("b", "v", "v")], 2: [("r", "v", "v")]},
        {(1, 2): {}},
    )
    assert "square-incomplete" in validate_kgraph(g).codes()


def _one_square_2graph():
    """Loops b0, b1 (color 1) and r0, r1 (color 2) with the one square
    b1 r1 = r0 b0, so most two-edge words have no other factorization."""
    return KGraph(
        2, ["v"],
        {1: [("b0", "v", "v"), ("b1", "v", "v")], 2: [("r0", "v", "v"), ("r1", "v", "v")]},
        {(1, 2): {("b1", "r1"): ("r0", "b0")}},
    )


def test_normal_form_names_the_descending_pair_without_a_square():
    # r0 b0 becomes b1 r1 by the inverse square, then r1 b1 has none
    g = _one_square_2graph()
    msg = re.escape("no square entry for descending pair (r1, b1)")
    with pytest.raises(KGraphError, match=msg):
        path_from_word(g, "v", ("r0", "b0", "b1"))
    with pytest.raises(KGraphError, match=msg):
        compose(Path(g, "v", ("r0",)), Path(g, "v", ("b0", "b1")))


def test_factorize_names_the_ascending_pair_without_a_square():
    # r1 crosses b1 first (b1 r1 = r0 b0), then b0 r0 has no square
    g = _one_square_2graph()
    with pytest.raises(KGraphError, match=r"no square entry for ascending pair \(b0, r0\)"):
        factorize(Path(g, "v", ("b0", "b1", "r1")), (0, 1))


def test_normal_form_ends_on_a_wrong_colored_square():
    # the entry's key and value both read r b, so sorting by rereading the
    # colors would swap r b for itself forever; the sort makes one swap
    g = KGraph(2, ["v"], {1: [("b", "v", "v")], 2: [("r", "v", "v")]},
               {(1, 2): {("r", "b"): ("r", "b")}})
    assert "wrong-color" in validate_kgraph(g).codes()
    with pytest.raises(KGraphError, match="edge list not color-sorted at 'b'"):
        path_from_word(g, "v", ("r", "b"))


def test_dangling_ids_are_structural():
    g = KGraph(1, ["v"], {1: [("a", "v", "nowhere")]})
    rep = validate_kgraph(g)
    assert [f for f in rep.findings if f.kind == "structural"]
    assert "dangling-vertex" in rep.codes()


def test_source_vertex_reported():
    g = KGraph(1, ["v", "w"], {1: [("a", "v", "w")]})  # nothing ranges at w
    rep = validate_kgraph(g)
    assert "source-vertex" in rep.codes()


def test_f3_hexagon_passes(g_f3):
    # with one loop per color every swap is forced, and chasing the two
    # schedules by hand gives (x1, x2, x3) both ways
    rep = validate_kgraph(g_f3)
    assert rep.ok


def _permutation_3graph(pi, tau):
    """3 loops of color 1; colors 2, 3 single loops; squares act on the
    color-1 index by pi (via color 2) and tau (via color 3)."""
    return KGraph(
        3,
        ["v"],
        {
            1: [("a0", "v", "v"), ("a1", "v", "v"), ("a2", "v", "v")],
            2: [("b", "v", "v")],
            3: [("c", "v", "v")],
        },
        {
            (1, 2): {(f"a{i}", "b"): ("b", f"a{pi[i]}") for i in range(3)},
            (1, 3): {(f"a{i}", "c"): ("c", f"a{tau[i]}") for i in range(3)},
            (2, 3): {("b", "c"): ("c", "b")},
        },
    )


def test_hexagon_detects_non_commuting_squares():
    # swapping through color 2 then color 3 composes the permutations in the
    # opposite order from color 3 then color 2, so non-commuting choices
    # cannot present a 3-graph
    ok = _permutation_3graph([1, 0, 2], [1, 0, 2])
    assert validate_kgraph(ok).ok
    bad = _permutation_3graph([1, 0, 2], [1, 2, 0])
    rep = validate_kgraph(bad)
    assert "associativity" in rep.codes()


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_s1_depth2(g_s1):
    # oracle: all 3^2 loop words are distinct normal forms
    expected = sorted(itertools.product(["a0", "a1", "a2"], repeat=2))
    got = enumerate_paths(g_s1, "v", (2,))
    assert [p.edges for p in got] == [tuple(w) for w in expected]


def test_enumerate_degree_zero(g_p2):
    assert enumerate_paths(g_p2, "v", (0, 0)) == [Path(g_p2, "v")]


def test_enumerate_p2_diagonal(g_p2):
    # oracle: normalize every raw word of colors (1,2) and (2,1) by hand via
    # the flip square; the distinct normal forms are the four b_i r_j
    raw = [("b%d" % i, "r%d" % j) for i in range(2) for j in range(2)]
    raw += [(r, b) for (b, r) in raw]
    normals = set()
    for w in raw:
        if w[0].startswith("r"):  # flip square: r b -> b r with same indices
            w = (w[1], w[0])
        normals.add(w)
    got = enumerate_paths(g_p2, "v", (1, 1))
    assert {p.edges for p in got} == normals
    assert len(got) == 4


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_count_matches_enumeration(name, request):
    g = request.getfixturevalue(name)
    for v in g.vertices:
        for n in all_degrees(g.k, 3):
            assert count_paths(g, v, n) == len(enumerate_paths(g, v, n))


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_enumeration_is_lexicographic(name, request):
    # nothing sorts the paths: the walk over the sorted candidates lists
    # them in order
    g = request.getfixturevalue(name)
    for v in g.vertices:
        for n in all_degrees(g.k, 3):
            paths = enumerate_paths(g, v, n)
            assert [p.edges for p in paths] == sorted(p.edges for p in paths)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_normal_steps_are_the_color_sorted_candidates(name, request):
    g = request.getfixturevalue(name)
    for n in all_degrees(g.k, 3):
        steps = normal_steps(g, n)
        colors = [c for c in range(1, g.k + 1) for _ in range(n[c - 1])]
        assert len(steps) == len(colors)
        for row, color in zip(steps, colors):
            assert [ids for ids, _ in row] == [
                tuple(sorted(e.ident for e in g.edges_of_color(color) if e.range_vertex == u))
                for u in g.vertices]
            assert [sources for _, sources in row] == [
                tuple(g.vertices.index(g.edge(e).source_vertex) for e in ids) for ids, _ in row]
        # a color's row is built once
        for j in range(1, len(steps)):
            assert (steps[j] is steps[j - 1]) == (colors[j] == colors[j - 1])


@pytest.mark.parametrize("reader", [enumerate_paths, count_paths])
def test_an_unknown_vertex_is_refused(g_two_vertex, reader):
    with pytest.raises(KGraphError, match="unknown vertex 'x'"):
        reader(g_two_vertex, "x", (1, 1))


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_laws(g_p2):
    q = enumerate_paths(g_p2, "v", (1, 1))[0]
    v = Path(g_p2, "v")
    assert compose(v, q) == q
    assert compose(q, v) == q


def test_compose_flip(g_p2):
    r0 = Path(g_p2, "v", ("r0",))
    b1 = Path(g_p2, "v", ("b1",))
    out = compose(r0, b1)
    assert out.edges == ("b1", "r0")


def test_compose_non_composable_raises(g_two_vertex):
    p = Path(g_two_vertex, "u", ("p_uw",))  # ends at w
    q = Path(g_two_vertex, "u", ("p_uu",))  # starts at u
    with pytest.raises(KGraphError):
        compose(p, q)


@pytest.mark.parametrize("name", ["g_s1", "g_two_vertex"])
def test_degree_additivity_random(name, request):
    g = request.getfixturevalue(name)
    rng = random.Random(20240817)
    pool = []
    for v in g.vertices:
        for n in all_degrees(g.k, 2):
            pool.extend(enumerate_paths(g, v, n))
    pairs = 0
    while pairs < 100:
        p, q = rng.choice(pool), rng.choice(pool)
        if p.source_vertex != q.range_vertex:
            continue
        pairs += 1
        assert compose(p, q).degree == degree_add(p.degree, q.degree)


def test_compose_associative(g_two_vertex):
    g = g_two_vertex
    pool = [p for v in g.vertices for p in enumerate_paths(g, v, (1, 1))]
    for p, q, r in itertools.product(pool, repeat=3):
        if p.source_vertex != q.range_vertex or q.source_vertex != r.range_vertex:
            continue
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_path_from_word_normalizes(g_p2):
    p = path_from_word(g_p2, "v", ("r1", "b0", "r0"))
    assert p.degree == (1, 2)
    assert p.edges[0].startswith("b")


# ---------------------------------------------------------------------------
# factorization


def test_factorize_trivial_ends(g_p2):
    p = enumerate_paths(g_p2, "v", (1, 1))[2]
    head, tail = factorize(p, (0, 0))
    assert head == Path(g_p2, "v") and tail == p
    head, tail = factorize(p, p.degree)
    assert head == p and tail.is_vertex


def test_factorize_reads_inverse_square(g_p2):
    p = Path(g_p2, "v", ("b0", "r1"))
    head, tail = factorize(p, (0, 1))
    assert head.edges == ("r1",)
    assert tail.edges == ("b0",)


def test_factorize_rejects_undominated(g_s1):
    p = Path(g_s1, "v", ("a0",))
    with pytest.raises(KGraphError):
        factorize(p, (2,))


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_factorization_unique_exhaustive(name, request):
    """For every path with |d| <= 4 and every split m, the computed
    factorization recomposes to the path and is the only one that does."""
    g = request.getfixturevalue(name)
    for v in g.vertices:
        for n in all_degrees(g.k, 4):
            for p in enumerate_paths(g, v, n):
                for m in all_degrees(g.k, sum(n)):
                    if not all(a <= b for a, b in zip(m, n)):
                        continue
                    head, tail = factorize(p, m)
                    assert head.degree == m
                    assert compose(head, tail) == p
                    # brute-force uniqueness
                    rest = tuple(b - a for a, b in zip(m, n))
                    count = 0
                    for mu in enumerate_paths(g, v, m):
                        for nu in enumerate_paths(g, mu.source_vertex, rest):
                            if compose(mu, nu) == p:
                                count += 1
                                assert (mu, nu) == (head, tail)
                    assert count == 1


# ---------------------------------------------------------------------------
# cylinder partitions


def test_cylinder_s1_fiber_sizes(g_s1):
    assert cylinder_partition_check(g_s1, "v", (1,), (1,))
    # oracle: each of the 3 heads extends to exactly 3 of the 9 words
    total = enumerate_paths(g_s1, "v", (2,))
    by_head = {}
    for p in total:
        by_head.setdefault(p.edges[0], []).append(p)
    assert sorted(len(v) for v in by_head.values()) == [3, 3, 3]


def test_cylinder_degree_zero(g_p2):
    assert cylinder_partition_check(g_p2, "v", (0, 0), (1, 1))


def test_cylinder_p2_mixed(g_p2):
    # 4 paths of degree (1,1); 2 heads of degree (1,0); fibers of size 2
    assert cylinder_partition_check(g_p2, "v", (1, 0), (0, 1))
    heads = {factorize(p, (1, 0))[0] for p in enumerate_paths(g_p2, "v", (1, 1))}
    assert len(heads) == 2


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_cylinder_partition_exhaustive(name, request):
    g = request.getfixturevalue(name)
    for v in g.vertices:
        for n in all_degrees(g.k, 4):
            for m in all_degrees(g.k, 4 - sum(n)):
                assert cylinder_partition_check(g, v, n, m)


# ---------------------------------------------------------------------------
# diagonal graph and word translation


def test_diagonal_of_rank1_matches_graph(g_s1):
    dg = diagonal_graph(g_s1)
    assert validate_kgraph(dg.graph).ok
    assert set(dg.graph.vertices) == set(g_s1.vertices)
    assert len(dg.graph.edges) == 3
    assert {p.edges[0] for p in dg.edge_to_path.values()} == {"a0", "a1", "a2"}


def test_diagonal_p2_has_four_loops(g_p2):
    dg = diagonal_graph(g_p2)
    assert validate_kgraph(dg.graph).ok
    assert len(dg.graph.edges) == 4


def test_diagonal_f3_single_loop(g_f3):
    dg = diagonal_graph(g_f3)
    assert len(dg.graph.edges) == 1
    assert validate_kgraph(dg.graph).ok


def test_diagonal_two_vertex_valid(g_two_vertex):
    dg = diagonal_graph(g_two_vertex)
    assert validate_kgraph(dg.graph).ok
    for ident, lam in dg.edge_to_path.items():
        e = dg.graph.edge(ident)
        assert e.range_vertex == lam.range_vertex
        assert e.source_vertex == lam.source_vertex


def test_word_roundtrip_empty(g_p2):
    dg = diagonal_graph(g_p2)
    v = Path(g_p2, "v")
    assert word_to_path(dg, [], "v") == v
    assert path_to_word(dg, v) == []


def test_word_roundtrip_p2_exhaustive(g_p2):
    dg = diagonal_graph(g_p2)
    for p in enumerate_paths(g_p2, "v", (2, 2)):
        word = path_to_word(dg, p)
        assert len(word) == 2
        assert word_to_path(dg, word) == p
    assert len(enumerate_paths(g_p2, "v", (2, 2))) == 16


def test_word_splits_s1_depth5(g_s1):
    dg = diagonal_graph(g_s1)
    for p in enumerate_paths(g_s1, "v", (5,))[::17]:
        word = path_to_word(dg, p)
        assert len(word) == 5
        assert word_to_path(dg, word) == p


def test_word_rejects_off_diagonal(g_p2):
    dg = diagonal_graph(g_p2)
    p = enumerate_paths(g_p2, "v", (2, 1))[0]
    with pytest.raises(KGraphError):
        path_to_word(dg, p)


def test_word_segment_property(g_p2):
    # entries j..l of the word spell exactly the (jp, lp) segment of the path
    dg = diagonal_graph(g_p2)
    for p in enumerate_paths(g_p2, "v", (2, 2)):
        word = path_to_word(dg, p)
        for j, l in [(0, 1), (1, 2), (0, 2)]:
            mid = segment(p, (j, j), (l, l))
            if j == l:
                continue
            assert word_to_path(dg, word[j:l]) == mid


@pytest.mark.parametrize("name", ["g_s1", "g_p2", "g_f3", "g_two_vertex"])
def test_word_to_path_injective_up_to_len3(name, request):
    g = request.getfixturevalue(name)
    dg = diagonal_graph(g)
    seen = {}
    words = [[]]
    for _ in range(3):
        nxt = []
        for w in words:
            at = None if not w else dg.graph.edge(w[-1]).source_vertex
            for ident in sorted(dg.graph.edges):
                e = dg.graph.edge(ident)
                if at is not None and e.range_vertex != at:
                    continue
                nxt.append(w + [ident])
        words = nxt
        for w in words:
            p = word_to_path(dg, w)
            key = (p.range_vertex, p.edges)
            assert key not in seen or seen[key] == tuple(w)
            seen[key] = tuple(w)
