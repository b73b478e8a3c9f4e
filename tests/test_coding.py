"""Prefix coding: certified points, sampling, intertwining, coded clouds."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kfractal import _kernels, attractor, coding
from kfractal.attractor import SetTuple, compute_attractor, hausdorff_distance
from kfractal.coding import (
    MAX_EXHAUSTIVE_PATHS,
    _completion_table,
    _draw_ranks,
    check_intertwining,
    check_subsystem,
    coded_cloud,
    coded_error,
    compare_attractor_coding,
    path_budget,
    required_depth,
    sample_prefixes,
)
from kfractal.kgraph import (
    KGraph,
    KGraphError,
    Path,
    count_paths,
    enumerate_paths,
    factorize,
    path_from_word,
)
from kfractal.systems import (
    AffineMap,
    Ball,
    Box,
    MetricFiber,
    MWSystem,
    extend_map,
)

from oracles import code_point, coverage_distances
from shipped import shipped


def word_path(g, ids):
    return path_from_word(g, "v", tuple(ids))


def words(g, rows):
    """Rows of edge numbers as edge-id words."""
    ids = sorted(g.edges)
    return [tuple(ids[i] for i in row) for row in rows.tolist()]


def sampled_paths(g, depth, count, seed, v="v"):
    return [Path(g, v, w) for w in words(g, sample_prefixes(g, v, depth, count, seed=seed))]


# ---------------------------------------------------------------------------
# code_point


def test_prefix_truncation_consistency():
    sys = shipped("s1")
    p = word_path(sys.graph, ["a0", "a2", "a1", "a0"])
    head, _ = factorize(p, (2,))
    assert head.edges == ("a0", "a2")


def test_code_point_t0_nested_contraction():
    sys = shipped("t0")
    for n in (1, 2, 4):
        p = path_from_word(sys.graph, "v", ("b",) * n + ("r",) * n)
        coded = code_point(sys, p)
        assert abs(float(coded.point[0])) <= 2.0 ** (-2 * n)
        assert coded.error_radius <= 2.0 ** (-2 * n) + 1e-15


def test_code_point_s1_constant_word_hits_fixed_corner():
    sys = shipped("s1")
    p = word_path(sys.graph, ["a0"] * 10)
    coded = code_point(sys, p)
    assert np.linalg.norm(coded.point - np.array([0.0, 0.0])) <= 2.0 ** -10
    assert coded.error_radius == pytest.approx(2.0 ** -10, rel=1e-12)


def test_code_point_alternating_word_linear_solve_oracle():
    # the limit of the alternating word is the fixed point of the two-step
    # composite; solve (I - M) z = t independently
    sys = shipped("s1")
    p = word_path(sys.graph, ["a0", "a1"] * 5)
    coded = code_point(sys, p)
    two = extend_map(sys, word_path(sys.graph, ["a0", "a1"]))
    z = np.linalg.solve(np.eye(2) - two.matrix, two.shift)
    assert np.linalg.norm(coded.point - z) <= 2.0 ** -10 + 1e-12


def test_code_point_error_bound_strict_mode():
    sys = shipped("s1")
    for p in [word_path(sys.graph, ["a1"] * 4), word_path(sys.graph, ["a2", "a0"])]:
        coded = code_point(sys, p)
        n = sum(p.degree)
        assert coded.error_radius <= sys.ratio ** n * 1.0 + 1e-12


def test_code_point_relaxed_requires_diagonal():
    sys = shipped("p2")
    off = path_from_word(sys.graph, "v", ("b0",))
    with pytest.raises(ValueError):
        code_point(sys, off)
    ok = path_from_word(sys.graph, "v", ("b0", "r0"))
    coded = code_point(sys, ok)
    assert coded.error_radius <= 0.5 + 1e-12


def test_basepoint_rules_stay_within_twice_error():
    # the coded point is the centroid's image; the image of another point of
    # the source fiber, here its corner 0, lies within twice the radius
    sys = shipped("s1")
    p = word_path(sys.graph, ["a1", "a2", "a0", "a1"])
    a = code_point(sys, p)
    b = extend_map(sys, p).apply(np.array([0.0, 0.0]))
    assert np.linalg.norm(a.point - b) <= 2 * a.error_radius


# ---------------------------------------------------------------------------
# sampling


def test_sample_depth_zero_is_vertex():
    g = shipped("s1").graph
    rows = sample_prefixes(g, "v", (0,), count=1, seed=1)
    assert rows.shape == (1, 0)
    assert words(g, rows) == [()]


def test_sample_deterministic_under_seed():
    g = shipped("p2").graph
    a = sample_prefixes(g, "v", (2, 2), count=12, seed=42)
    b = sample_prefixes(g, "v", (2, 2), count=12, seed=42)
    assert a.dtype == np.intp and a.shape == (12, 4)
    assert np.array_equal(a, b)
    c = sample_prefixes(g, "v", (2, 2), count=12, seed=43)
    assert not np.array_equal(a, c)


def test_sample_uniform_weighting_two_vertex(g_two_vertex):
    # weighted edge choice must produce only genuine paths, and in the long
    # run every path of the small space
    space = set(enumerate_paths(g_two_vertex, "u", (1, 1)))
    seen = set(sampled_paths(g_two_vertex, (1, 1), 400, 7, v="u"))
    assert seen <= space
    assert seen == space  # 4 paths, 400 draws


def _unrank_reference(g, v, depth, rank):
    # the rank-th path of vΛ^depth in lexicographic order, in Python ints:
    # count_paths gives the completions of every candidate edge, and a
    # linear scan finds the block holding the rank
    word, at, rest = [], v, list(depth)
    for color in range(1, g.k + 1):
        for _ in range(depth[color - 1]):
            rest[color - 1] -= 1
            for e in g.edges_with_range(color, at):
                block = count_paths(g, g.edge(e).source_vertex, tuple(rest))
                if rank < block:
                    break
                rank -= block
            word.append(e)
            at = g.edge(e).source_vertex
    return tuple(word)


def _lopsided_system():
    """A strict 1-graph on u and w whose completion counts differ (u receives
    two edges, w one), with non-dyadic maps on [0, 1]."""
    g = KGraph(1, ["u", "w"], {1: [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u")]})
    return MWSystem(
        g,
        {v: MetricFiber(Box((0.0,), (1.0,)), "euclidean") for v in ("u", "w")},
        {
            "a": AffineMap.of([[0.3]], (0.1,)),
            "b": AffineMap.of([[0.35]], (0.55,)),
            "c": AffineMap.of([[0.4]], (0.2,)),
        },
        ratio=0.4,
    )


def _product_system(seed):
    """A relaxed rank-2 product system with seeded, non-dyadic ratios and
    shifts: blue maps scale x and red maps scale y, so every flip square
    commutes."""
    rng = np.random.default_rng(seed)
    blue, red = ["b0", "b1"], ["r0", "r1", "r2"]
    g = KGraph(
        2,
        ["v"],
        {1: [(e, "v", "v") for e in blue], 2: [(e, "v", "v") for e in red]},
        {(1, 2): {(b, r): (r, b) for b in blue for r in red}},
    )
    gens = {}
    for axis, ids in enumerate((blue, red)):
        for e in ids:
            scale, shift = np.ones(2), np.zeros(2)
            scale[axis] = rng.uniform(0.2, 0.45)
            shift[axis] = rng.uniform(0.0, 1.0 - scale[axis])
            gens[e] = AffineMap.of(np.diag(scale), shift)
    fiber = MetricFiber(Box((0.0, 0.0), (1.0, 1.0)), "max")
    return MWSystem(g, {"v": fiber}, gens, ratio=0.45, mode="relaxed")


def _graph(name, request):
    if name == "two_vertex":
        return request.getfixturevalue("g_two_vertex")
    if name == "lopsided":
        return _lopsided_system().graph
    return shipped(name).graph


SAMPLED_CASES = [
    ("s1", (7,), 60),
    ("p2", (3, 3), 60),
    ("p2c", (4, 4), 60),
    ("f3", (2, 1, 3), 5),
    ("two_vertex", (3, 3), 60),
    ("lopsided", (10,), 60),
    ("s1", (0,), 3),
    ("s1", (1,), 10),
    # ranks above 2**32, then near the int64 limit: too many paths to list
    ("s1", (25,), 60),
    ("s1", (39,), 3),
    # one path each, so every rank is 0
    ("f3", (3, 3, 3), 60),
    ("t0", (4, 4), 60),
    # no sample, but still one draw
    ("p2", (2, 2), 0),
    ("lopsided", (10,), 0),
]

LISTED = 10**4


def _unrank(g, v, depth, ranks):
    """The rows that the sampler's unranking seam gives for ``ranks``."""
    steps, _ = _completion_table(g, tuple(depth))
    return coding._unrank(steps, g.vertices.index(v), ranks)


def _seeded_ranks(size, count, seed):
    """The ranks ``sample_prefixes`` draws for ``count`` samples from a
    space of ``size`` paths: one generator, one draw per block."""
    rng = random.Random(seed)
    return [r for block in range(0, count, attractor.BLOCK_ROWS)
            for r in _draw_ranks(rng, size, min(attractor.BLOCK_ROWS, count - block)).tolist()]


@pytest.fixture(params=[None, 7], ids=["one-block", "blocks-of-7"])
def block_rows(request, monkeypatch):
    """``BLOCK_ROWS`` as shipped, or 7 so that small counts span blocks."""
    if request.param is not None:
        monkeypatch.setattr(attractor, "BLOCK_ROWS", request.param)
    return attractor.BLOCK_ROWS


@pytest.mark.parametrize("name, depth, count", SAMPLED_CASES)
def test_ranks_unrank_to_the_listed_paths(request, name, depth, count):
    g = _graph(name, request)
    rng = random.Random(0)
    for v in g.vertices:
        size = count_paths(g, v, depth)
        if size <= LISTED:
            rows = _unrank(g, v, depth, range(size))
            assert words(g, rows) == [p.edges for p in enumerate_paths(g, v, depth)]
        ranks = [0, size - 1, *(rng.randrange(size) for _ in range(count))]
        rows = _unrank(g, v, depth, ranks)
        assert words(g, rows) == [_unrank_reference(g, v, depth, r) for r in ranks]
        # every row is a path of the depth, which the sampler does not check
        assert all(Path(g, v, w).degree == depth for w in words(g, rows))


@pytest.mark.parametrize("seed", [0, 5, 91])
@pytest.mark.parametrize("name, depth, count", SAMPLED_CASES)
def test_sampler_unranks_its_seeded_ranks(request, name, depth, count, seed):
    _check_seeded_ranks(_graph(name, request), depth, count, seed)


@pytest.mark.parametrize("name, depth, count", SAMPLED_CASES)
def test_sampler_unranks_its_seeded_ranks_in_blocks_of_7(monkeypatch, request, name, depth,
                                                         count):
    monkeypatch.setattr(attractor, "BLOCK_ROWS", 7)
    _check_seeded_ranks(_graph(name, request), depth, count, 5)


def _check_seeded_ranks(g, depth, count, seed):
    for v in g.vertices:
        size = count_paths(g, v, depth)
        ranks = _seeded_ranks(size, count, seed)
        if size <= LISTED:
            paths = enumerate_paths(g, v, depth)
            want = [paths[r].edges for r in ranks]
        else:
            want = [_unrank_reference(g, v, depth, r) for r in ranks]
        got = sample_prefixes(g, v, depth, count, seed=seed)
        assert got.shape == (count, sum(depth))
        assert words(g, got) == want


@pytest.mark.parametrize("name, depth, count", SAMPLED_CASES)
def test_sampler_unranks_the_drawn_ranks_block_by_block(monkeypatch, request, block_rows,
                                                        name, depth, count):
    # one generator per call, whose draws, one per block, are the ranks
    # that are unranked, in order
    g = _graph(name, request)
    draw, unrank, seeded = coding._draw_ranks, coding._unrank, random.Random
    events = []

    def seeding(seed):
        events.append(("seed", seed))
        return seeded(seed)

    def drawing(rng, size, n):
        ranks = draw(rng, size, n)
        events.append(("draw", size, ranks.tolist()))
        return ranks

    def unranking(steps, start, ranks):
        events.append(("unrank", start, np.asarray(ranks).tolist()))
        return unrank(steps, start, ranks)

    monkeypatch.setattr(coding.random, "Random", seeding)
    monkeypatch.setattr(coding, "_draw_ranks", drawing)
    monkeypatch.setattr(coding, "_unrank", unranking)
    for v in g.vertices:
        events.clear()
        size, start = count_paths(g, v, depth), g.vertices.index(v)
        assert len(sample_prefixes(g, v, depth, count, seed=3)) == count
        blocks = [min(block_rows, count - b) for b in range(0, count, block_rows)] or [0]
        assert events[0] == ("seed", 3)
        assert [e[:2] for e in events[1::2]] == [("draw", size)] * len(blocks)
        assert [len(e[2]) for e in events[1::2]] == blocks
        assert [e[:2] for e in events[2::2]] == [("unrank", start)] * len(blocks)
        assert [e[2] for e in events[2::2]] == [e[2] for e in events[1::2]]
        assert len(events) == 1 + 2 * len(blocks)


DRAW_SIZES = [1, 2, 3, 2**20, 2**20 + 1, 3**39, 2**63 - 1]


@pytest.mark.parametrize("size", DRAW_SIZES)
def test_drawn_ranks_lie_below_the_size_and_repeat_under_a_seed(size):
    ranks = _draw_ranks(random.Random(11), size, 5000)
    assert ranks.dtype == np.int64 and ranks.shape == (5000,)
    assert ranks.min() >= 0 and int(ranks.max()) < size
    assert np.array_equal(ranks, _draw_ranks(random.Random(11), size, 5000))
    if size == 1:
        # one path: the generator is left as it was
        rng = random.Random(11)
        state = rng.getstate()
        _draw_ranks(rng, size, 5000)
        assert rng.getstate() == state
    else:
        assert not np.array_equal(ranks, _draw_ranks(random.Random(12), size, 5000))
        # more than one rank, and ranks above the lower half where there is one
        assert len(set(ranks.tolist())) > 1 and int(ranks.max()) >= size // 2


# the 0.999 quantiles of chi-square with 2, 4 and 2186 degrees of freedom
CHI2_999 = {3: 13.815510557964274, 5: 18.46682695290317, 2187: 2396.0417718074214}


@pytest.mark.parametrize("size", sorted(CHI2_999))
def test_drawn_ranks_are_uniform(size):
    n = 60_000
    counts = np.bincount(_draw_ranks(random.Random(2024), size, n), minlength=size)
    expected = n / size
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < CHI2_999[size], stat


@pytest.mark.parametrize("one_step", [False, True])
def test_sampler_names_a_vertex_without_paths(one_step):
    # w has no path of degree (2,): it receives no edge, or with one_step a
    # single edge from x, which receives none, so its paths stop after one step
    edges = [("a", "u", "u"), ("b", "u", "w")] + [("c", "w", "x")] * one_step
    g = KGraph(1, ["u", "w", "x"], {1: edges})
    assert count_paths(g, "w", (1,)) == int(one_step)
    assert count_paths(g, "w", (2,)) == 0
    with pytest.raises(ValueError, match=r"^vertex 'w' has no path of degree \(2,\) to sample$"):
        sample_prefixes(g, "w", (2,), 5, seed=1)


def test_sampler_ignores_unreached_vertices_beyond_int64():
    # w's 3**40 paths do not fit in int64, but no path from v reaches w
    g = KGraph(1, ["v", "w"], {1: [("a", "v", "v"), ("b0", "w", "w"), ("b1", "w", "w"),
                                   ("b2", "w", "w")]})
    assert count_paths(g, "w", (40,)) == 3**40 > 2**63 - 1
    assert words(g, sample_prefixes(g, "v", (40,), 5, seed=2)) == [("a",) * 40] * 5
    with pytest.raises(ValueError, match="too many to sample"):
        sample_prefixes(g, "w", (40,), 5, seed=2)


def test_sampler_refuses_counts_beyond_int64():
    g = shipped("s1").graph
    assert 3**39 < 2**63 - 1 < 3**40
    assert len(sample_prefixes(g, "v", (39,), count=2, seed=1)) == 2
    with pytest.raises(ValueError, match="too many to sample"):
        sample_prefixes(g, "v", (40,), count=2, seed=1)


def test_path_budget_lists_up_to_the_limit_and_samples_up_to_int64():
    sys_ = shipped("s1")
    g = sys_.graph
    assert 3**12 <= MAX_EXHAUSTIVE_PATHS < 3**13
    assert path_budget(g, (12,), None) == {"v": 3**12}
    with pytest.raises(ValueError, match=r"^1594323 paths of degree \(13,\) .* too many to list"):
        path_budget(g, (13,), None)
    # coded_cloud applies the same budget before it codes anything
    with pytest.raises(ValueError, match="too many to list"):
        coded_cloud(sys_, (13,), pitch=1 / 64)
    assert path_budget(g, (39,), 5) == {"v": 3**39}
    with pytest.raises(ValueError, match="too many to sample"):
        path_budget(g, (40,), 5)
    # a sample count has the same budget as the listed paths
    assert path_budget(g, (7,), MAX_EXHAUSTIVE_PATHS) == {"v": 3**7}
    with pytest.raises(ValueError, match=r"^1000001 samples per vertex are too many to code"):
        path_budget(g, (7,), MAX_EXHAUSTIVE_PATHS + 1)


# ---------------------------------------------------------------------------
# intertwining


def test_intertwining_vertex_is_exact():
    sys = shipped("s1")
    v = Path(sys.graph, "v")
    rows = sample_prefixes(sys.graph, "v", (12,), 5, seed=3)
    rep = check_intertwining(sys, v, rows, tol=0.01)
    assert rep.passed
    assert rep.max_distance == 0.0


def test_intertwining_s1_generator():
    sys = shipped("s1")
    lam = Path(sys.graph, "v", ("a2",))
    rows = sample_prefixes(sys.graph, "v", (12,), 50, seed=11)
    rep = check_intertwining(sys, lam, rows, tol=1e-3)
    assert rep.passed
    assert rep.samples == 50


def test_intertwining_insufficient_depth_reported():
    sys = shipped("s1")
    lam = Path(sys.graph, "v", ("a0",))
    shallow = sample_prefixes(sys.graph, "v", (2,), 4, seed=2)
    rep = check_intertwining(sys, lam, shallow, tol=1e-6)
    assert not rep.passed
    assert rep.insufficient_depth
    assert rep.required_total_depth == required_depth(sys, 1e-6 / 4)
    assert rep.required_total_depth > 2


@pytest.mark.parametrize("name", ["s1", "lopsided", "disc"])
def test_intertwining_is_exact_in_rank_1(name):
    # the normal form of e x is e followed by x, so both routes apply the
    # same generators to the same basepoint in the same float operations
    sys = _system(name)
    g = sys.graph
    for ident in sorted(g.edges):
        e = g.edge(ident)
        lam = Path(g, e.range_vertex, (ident,))
        rows = sample_prefixes(g, e.source_vertex, (9,), 50, seed=1)
        rep = check_intertwining(sys, lam, rows, tol=0.1)
        assert rep.passed and rep.samples == 50
        assert rep.max_distance == 0.0


def test_intertwining_detects_square_corruption():
    # breaking the commutation between the colors splits the two evaluation
    # routes apart; a rank-2 control is needed because in rank 1 both routes
    # apply the same composite
    sys = shipped("p2c")
    bad = dict(sys.generators)
    bad["r0"] = AffineMap.of(bad["r0"].matrix, (0.05, 0.0))
    sys.generators = bad
    lam = path_from_word(sys.graph, "v", ("b0", "r0"))
    rows = sample_prefixes(sys.graph, "v", (8, 8), 20, seed=5)
    rep = check_intertwining(sys, lam, rows, tol=1e-3)
    assert not rep.passed
    assert rep.failures


def test_intertwining_rejects_misrooted_prefixes():
    from kfractal.kgraph import KGraph
    from kfractal.systems import Box, MetricFiber, MWSystem

    g = KGraph(1, ["u", "w"], {1: [("a", "u", "w"), ("b", "w", "u")]})
    sys = MWSystem(
        g,
        {v: MetricFiber(Box((0.0,), (1.0,)), "euclidean") for v in ("u", "w")},
        {
            "a": AffineMap.of([[0.5]], (0.0,)),
            "b": AffineMap.of([[0.5]], (0.0,)),
        },
        ratio=0.5,
        mode="strict",
    )
    lam = Path(g, "u", ("a",))  # source is w
    rooted_at_u = np.array([[0, 1]])  # the path a.b from u
    with pytest.raises(KGraphError):
        check_intertwining(sys, lam, rooted_at_u, tol=1.0)


# ---------------------------------------------------------------------------
# coded clouds


def test_coded_cloud_t0_single_point():
    sys = shipped("t0")
    sets, err = coded_cloud(sys, (6, 6), pitch=1 / 256), coded_error(sys, (6, 6))
    pts = sets.points("v")
    assert len(pts) == 1
    assert abs(float(pts[0, 0])) <= err + 1 / 256


def test_coded_cloud_matches_attractor_s1():
    sys = shipped("s1")
    h = 1 / 128
    depth = 7
    K, cert = compute_attractor(sys, (1,), SetTuple.from_fibers(sys, h))
    T2, err = coded_cloud(sys, (depth,), pitch=h), coded_error(sys, (depth,))
    assert cert.converged
    assert err == pytest.approx(0.5 ** depth, rel=1e-12)
    tol = 4 * h + err
    assert compare_attractor_coding(sys, K, T2, tol)


def test_sampled_coded_cloud_builds_no_paths(monkeypatch):
    # the sampled rows of edge numbers are evaluated as they are
    built = []
    init = Path.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Path, "__init__", counting)
    coded_cloud(shipped("s1"), (7,), pitch=1 / 64, count=20000, seed=1)
    assert built == []


def test_sampled_coded_cloud_holds_one_block_of_temporaries():
    # 200,000 coded points of s1 are 3.2 MB, and their snapped rows as
    # much; all the samples' rows and stacked maps at once took 33.8 MiB
    sys_ = shipped("s1")
    tracemalloc.start()
    try:
        T = coded_cloud(sys_, (7,), pitch=1 / 64, count=200_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(T.clouds["v"]) <= 3**7
    assert peak < 12 << 20, peak


def test_sampled_coded_cloud_snaps_a_block_at_a_time():
    # 500,000 coded points of s1 fall in at most 3**7 cells; snapping the
    # whole cloud at once added its float quotients and int64 rows, three
    # times the points, on top of them
    sys_ = shipped("s1")
    tracemalloc.start()
    try:
        T = coded_cloud(sys_, (7,), pitch=1 / 512, count=500_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = 500_000 * 2 * 8
    assert 0 < len(T.clouds["v"]) <= 3**7
    assert peak < points + (2 << 20), (peak, points)


def test_coded_cloud_sampled_subset_of_exhaustive():
    sys = shipped("p2c")
    h = 1 / 243
    full = coded_cloud(sys, (5, 5), pitch=h)
    sampled = coded_cloud(sys, (5, 5), pitch=h, count=500, seed=9)
    full_rows = {tuple(r) for r in full.clouds["v"].tolist()}
    assert all(tuple(r) in full_rows for r in sampled.clouds["v"].tolist())


def test_coded_cloud_p2c_product_oracle():
    # coded cloud against the attractor computed by iteration
    sys = shipped("p2c")
    h = 1 / 243
    K, cert = compute_attractor(sys, (1, 1), SetTuple.from_fibers(sys, h))
    T2, err = coded_cloud(sys, (5, 5), pitch=h), coded_error(sys, (5, 5))
    assert cert.converged
    assert compare_attractor_coding(sys, K, T2, tol=4 * h + err)


def test_coded_cloud_sampled_20k_covers_product():
    # heavy sampling misses a handful of the 4096 depth-(6,6) cells; the
    # missed cells sit within a parent cell of a covered sibling, so the
    # gap stays inside the certified band
    sys_ = shipped("p2c")
    h = 1 / 729
    K, cert = compute_attractor(sys_, (1, 1), SetTuple.from_fibers(sys_, h))
    assert cert.converged
    T2 = coded_cloud(sys_, (6, 6), pitch=h, count=20000, seed=17)
    err = coded_error(sys_, (6, 6))
    assert compare_attractor_coding(sys_, K, T2, tol=4 * h + 2 * err)


def _disc_system():
    """Three maps x -> 0.5 R45 x + 0.45 (cos t, sin t), t = 0, 2pi/3, 4pi/3,
    on the unit disc: linear parts that are not diagonal."""
    g = KGraph(1, ["v"], {1: [(e, "v", "v") for e in ("g0", "g1", "g2")]})
    c, s = 0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4)
    gens = {f"g{i}": AffineMap.of([[c, -s], [s, c]], (0.45 * math.cos(2 * math.pi * i / 3),
                                                      0.45 * math.sin(2 * math.pi * i / 3)))
            for i in range(3)}
    return MWSystem(g, {"v": MetricFiber(Ball((0.0, 0.0), 1.0), "euclidean")}, gens, ratio=0.51)


def _system(name):
    if name == "product":
        return _product_system(seed=2)
    if name == "lopsided":
        return _lopsided_system()
    if name == "disc":
        return _disc_system()
    return shipped(name)


@pytest.fixture
def raw_clouds(monkeypatch):
    """The point clouds coded_cloud hands to SetTuple.from_points, before
    they are snapped."""
    seen = {}
    snap = SetTuple.from_points.__func__

    def spy(cls, pitch, clouds):
        seen.update(clouds)
        return snap(cls, pitch, clouds)

    monkeypatch.setattr(SetTuple, "from_points", classmethod(spy))
    return seen


_SAMPLED_CASES = [
    ("s1", (7,), 2000),
    ("s1", (12,), 500),
    ("s1", (0,), 4),
    ("p2c", (6, 6), 800),
    ("product", (5, 5), 800),
    ("lopsided", (9,), 300),
    ("disc", (7,), 500),
]


# every coded point is the image of its source fiber's centroid, as the ids say
@pytest.mark.parametrize(
    "name, depth, count", _SAMPLED_CASES,
    ids=[f"{name}-depth{i}-{count}-centroid" for i, (name, _, count) in enumerate(_SAMPLED_CASES)],
)
def test_sampled_coded_cloud_equals_code_point(raw_clouds, name, depth, count):
    _check_coded_points(raw_clouds, name, depth, count)


@pytest.mark.parametrize("name, depth, count", [("s1", (7,), 2000), ("lopsided", (9,), 300)])
def test_sampled_coded_cloud_equals_code_point_in_blocks_of_7(monkeypatch, raw_clouds, name,
                                                              depth, count):
    monkeypatch.setattr(attractor, "BLOCK_ROWS", 7)
    _check_coded_points(raw_clouds, name, depth, count)


def _check_coded_points(raw_clouds, name, depth, count):
    sys = _system(name)
    g = sys.graph
    coded_cloud(sys, depth, pitch=1 / 64, count=count, seed=8)
    assert set(raw_clouds) == set(g.vertices)
    for v in g.vertices:
        paths = (enumerate_paths(g, v, depth) if count is None
                 else sampled_paths(g, depth, count, 8, v=v))
        want = np.array([code_point(sys, p).point for p in paths])
        got = raw_clouds[v]
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# the listed sweep applies each generator to a whole cloud, the oracle to one
# point at a time: the same float operations
@pytest.mark.parametrize("name, depth", [("p2c", (6, 6)), ("product", (5, 5)),
                                         ("lopsided", (9,)), ("disc", (6,))])
def test_listed_coded_cloud_equals_code_point(raw_clouds, name, depth):
    _check_coded_points(raw_clouds, name, depth, None)


def _reference_gaps(sys, attractor_sets, coded_sets):
    """Per vertex, the Hausdorff distance by brute force.  With a
    power-of-two pitch it is measured on the real points, and equals the
    lattice distance bit for bit; with any other pitch it is the pitch times
    the brute force on the integer rows, whose squared distances are exact
    in floats."""
    if not attractor_sets.same_grid(coded_sets):
        raise ValueError("grid mismatch between the two clouds")
    h = attractor_sets.pitch
    if math.frexp(h)[0] == 0.5:
        return {v: hausdorff_distance(attractor_sets.points(v), coded_sets.points(v), sys.metric)
                for v in sys.graph.vertices}
    return {v: h * hausdorff_distance(attractor_sets.clouds[v].astype(float),
                                      coded_sets.clouds[v].astype(float), sys.metric)
            for v in sys.graph.vertices}


def _reference_compare(sys, attractor_sets, coded_sets, tol):
    # compare_attractor_coding before it went through SetTuple.vertex_distances
    return all(d <= tol for d in _reference_gaps(sys, attractor_sets, coded_sets).values())


@pytest.mark.parametrize("name, h, depth", [("s1", 1 / 64, (6,)), ("p2c", 1 / 81, (4, 4))])
def test_compare_attractor_coding_matches_reference(name, h, depth):
    sys_ = shipped(name)
    K, _ = compute_attractor(sys_, sys_.diagonal_degree, SetTuple.from_fibers(sys_, h))
    T2, err = coded_cloud(sys_, depth, pitch=h), coded_error(sys_, depth)
    gaps = _reference_gaps(sys_, K, T2)
    assert K.vertex_distances(T2, sys_.metric) == gaps
    worst = max(gaps.values())
    assert worst > 0
    for tol in (4 * h + 2 * err, worst, worst * (1 - 1e-9), 0.0):
        verdict = compare_attractor_coding(sys_, K, T2, tol)
        assert verdict == _reference_compare(sys_, K, T2, tol)
    # equal clouds agree at any tolerance, without measuring a distance
    assert compare_attractor_coding(sys_, K, K, 0.0)
    assert _reference_compare(sys_, K, K, 0.0)


def test_compare_requires_same_grid():
    sys = shipped("s1")
    a = SetTuple.from_points(1 / 64, {"v": np.zeros((1, 2))})
    b = SetTuple.from_points(1 / 128, {"v": np.zeros((1, 2))})
    with pytest.raises(ValueError):
        compare_attractor_coding(sys, a, b, tol=1.0)


def test_compare_negative_control_different_fractals():
    s1 = shipped("s1")
    p2c = shipped("p2c")
    h = 1 / 128
    K, _ = compute_attractor(s1, (1,), SetTuple.from_fibers(s1, h))
    T2, err = coded_cloud(p2c, (4, 4), pitch=h), coded_error(p2c, (4, 4))
    assert not compare_attractor_coding(s1, K, T2, tol=4 * h + err)


def test_check_subsystem_gasket_invariant():
    sys = shipped("s1")
    h = 1 / 128
    K, cert = compute_attractor(sys, (1,), SetTuple.from_fibers(sys, h))
    rep = check_subsystem(sys, K, tol=cert.error_bound + 2 * h)
    assert rep.passed, rep.edge_distances


def test_check_subsystem_corner_singleton_fails():
    sys = shipped("s1")
    single = SetTuple.from_points(1 / 128, {"v": np.array([0.0, 0.0])})
    rep = check_subsystem(sys, single, tol=0.01)
    assert not rep.passed
    assert rep.edge_distances["a1"] > 0.2


def _images_into(metric, dim, maps, pitch, source, target):
    """A system whose generators g0, g1, ... map fiber w into fiber u, and
    lattice clouds at u (the target) and w (the source)."""
    g = KGraph(1, ["u", "w"], {1: [(f"g{i}", "u", "w") for i in range(len(maps))]})
    box = Box((-4.0,) * dim, (4.0,) * dim)
    sys = MWSystem(
        g,
        {v: MetricFiber(box, metric) for v in ("u", "w")},
        {f"g{i}": AffineMap.of(a, b) for i, (a, b) in enumerate(maps)},
        ratio=0.5,
    )
    return sys, SetTuple(pitch, {"u": target, "w": source})


_coords = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@st.composite
def _affine_maps(draw, dim):
    shift = draw(st.lists(_coords, min_size=dim, max_size=dim))
    if dim == 1:
        return [[draw(_coords)]], shift
    kind = draw(st.sampled_from(["rotation", "shear", "general"]))
    if kind == "rotation":
        t, r = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.1, 1.0))
        a = [[r * math.cos(t), -r * math.sin(t)], [r * math.sin(t), r * math.cos(t)]]
    elif kind == "shear":
        a = [[1.0, draw(_coords)], [0.0, 1.0]]
    else:
        a = [draw(st.lists(_coords, min_size=2, max_size=2)) for _ in range(2)]
    return a, shift


@st.composite
def _subsystem_cases(draw):
    # dyadic pitch, so every lattice point is exact in floats
    dim = draw(st.integers(1, 2))
    k = draw(st.integers(1, 5))
    pitch, side = 2.0**-k, 2 ** (k + 1)  # clouds within 2 of 0

    def cloud():
        rows = draw(st.lists(st.lists(st.integers(-side, side), min_size=dim, max_size=dim),
                             min_size=1, max_size=40))
        return np.array(rows, dtype=np.int64)

    maps = draw(st.lists(_affine_maps(dim), min_size=1, max_size=3))
    return dim, maps, pitch, cloud(), cloud()


@settings(max_examples=300, deadline=None)
@given(_subsystem_cases(), st.sampled_from(["euclidean", "max"]))
@example(
    (2, [([[0.1, 0.0], [0.0, 0.1]], [0.0, 0.0])], 0.25, np.array([[7, 7]]),
     np.array([[7, 7]])),
    "euclidean",
)
def test_subsystem_bound_is_sound_and_within_a_cell(case, metric):
    # the bound is the snapped images' lattice distance plus the largest
    # snapping offset eps: at least the real images' distance, and more by
    # at most 2 * eps <= h * sqrt(d) (Euclidean) or h (max).  Both sides are
    # float evaluations: where the triangle inequality is an equality (a
    # snapped point between its image and its nearest target, as for
    # x -> x / 10 on the diagonal) they round the same real number apart by
    # an ulp, so each comparison allows a few ulps.  check_subsystem
    # measures each image against the target cloud, coverage_distances the
    # target cloud against the union of the images.
    dim, maps, pitch, source, target = case
    sys, sets = _images_into(metric, dim, maps, pitch, source, target)
    slack = pitch * (math.sqrt(dim) if metric == "euclidean" else 1.0)

    def within_a_cell(bound, real):
        rounding = 8 * math.ulp(real + slack)
        assert real - rounding <= bound <= real + slack + rounding

    rep = check_subsystem(sys, sets, tol=0.0)
    images = {ident: m.apply(sets.points("w")) for ident, m in sys.generators.items()}
    for ident, image in images.items():
        within_a_cell(rep.edge_distances[ident],
                      _kernels.directed_max_min(image, sets.points("u"), metric))
    cover = coverage_distances(sys, (1,), sets)
    within_a_cell(cover["u"], _kernels.directed_max_min(
        sets.points("u"), np.concatenate(list(images.values())), metric))


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_subsystem_bound_is_zero_for_images_on_the_lattice(metric):
    # a quarter turn, a flip and a shear with integer entries, shifted by
    # whole cells: on a dyadic lattice every image is exactly a point of
    # the target cloud, so no offset and no lattice distance is added
    pitch = 0.125
    source = np.array([[0, 0], [1, 0], [2, 3], [-1, 4]])
    linear = [[[0, -1], [1, 0]], [[-1, 0], [0, 1]], [[1, 1], [0, 1]]]
    cells = [(0, 0), (2, -1), (-3, 5)]
    maps = [(a, pitch * np.array(c)) for a, c in zip(linear, cells)]
    target = np.concatenate([source @ np.array(a).T + c for a, c in zip(linear, cells)])
    sys, sets = _images_into(metric, 2, maps, pitch, source, target)
    rep = check_subsystem(sys, sets, tol=0.0)
    assert rep.edge_distances == {"g0": 0.0, "g1": 0.0, "g2": 0.0}
    assert rep.passed
    # without the image (0, 1) of (1, 0) in the target, g0's bound is the
    # exact lattice distance from it to (0, 0), one cell, and nothing more
    sets = SetTuple(pitch, {"u": np.delete(target, 1, axis=0), "w": source})
    rep = check_subsystem(sys, sets, tol=0.0)
    assert rep.edge_distances == {"g0": pitch, "g1": 0.0, "g2": 0.0}


@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_subsystem_bound_is_not_below_the_float_distance(metric):
    # x -> x/10 on the diagonal at pitch 0.25, from the row (7, 7) into
    # itself: the image (0.175, 0.175) snaps to the row (1, 1), between the
    # image and its target (1.75, 1.75), so the triangle inequality is an
    # equality; summed in round-to-nearest, the Euclidean bound reads
    # 2.2273863607376243, an ulp below the real image's float distance
    # 2.2273863607376247
    sys, sets = _images_into(metric, 2, [([[0.1, 0.0], [0.0, 0.1]], [0.0, 0.0])],
                             0.25, np.array([[7, 7]]), np.array([[7, 7]]))
    image, target = sys.generators["g0"].apply(sets.points("w")), sets.points("u")
    sub = check_subsystem(sys, sets, tol=0.0).edge_distances["g0"]
    cover = coverage_distances(sys, (1,), sets)["u"]
    assert sub >= _kernels.directed_max_min(image, target, metric)
    assert cover >= _kernels.directed_max_min(target, image, metric)
    if metric == "euclidean":
        assert sub == cover == 2.227386360737625


def test_subsystem_measures_far_images_and_refuses_a_box_past_int64_keys():
    # images 2 * 10**4 cells away along each axis, a box of 4 * 10**8 cells,
    # are measured from their rows; images 3 * 10**9 away, a box of about
    # 9 * 10**18 cells, which int64 cannot number, are refused before
    # anything is allocated
    for shift, want in ((2e4, 2e4), (3e9, None)):
        sys, sets = _images_into("max", 2, [([[1.0, 0.0], [0.0, 1.0]], (shift, shift))],
                                 1.0, np.zeros((1, 2), dtype=np.int64),
                                 np.zeros((1, 2), dtype=np.int64))
        if want is None:
            with pytest.raises(ValueError, match=r"joint box has more than 2\*\*62 cells"):
                check_subsystem(sys, sets, tol=0.0)
        else:
            assert check_subsystem(sys, sets, tol=0.0).edge_distances == {"g0": want}


def test_prefix_consistency_across_depths():
    sys = shipped("s1")
    deep = word_path(sys.graph, ["a0", "a1", "a2", "a0", "a1", "a2", "a0", "a1", "a2", "a0"])
    shallow, _ = factorize(deep, (6,))
    c_deep = code_point(sys, deep)
    c_shallow = code_point(sys, shallow)
    assert np.linalg.norm(c_deep.point - c_shallow.point) <= c_shallow.error_radius
