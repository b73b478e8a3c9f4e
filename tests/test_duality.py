"""Exact discrete checks: pullbacks, density vs fidelity, twisted products."""

import itertools

import numpy as np
import pytest

from kfractal import duality, fixtures
from kfractal.duality import (
    DiscreteSystem,
    _transformation_checks,
    build_transformation_graph,
    check_density_fidelity,
    check_properness,
    degrees_upto,
    density_fidelity_sweep,
    discrete_from_pullback,
    map_along,
    matrix_along,
    pullback_system,
    validate_discrete_system,
)
from kfractal.kgraph import (
    KGraph,
    KGraphError,
    Path,
    count_paths,
    degree_add,
    enumerate_paths,
    factorize,
    validate_kgraph,
)
from kfractal.report import ValidationReport


def single_loop_graph():
    return KGraph(1, ["v"], {1: [("e", "v", "v")]})


# ---------------------------------------------------------------------------
# discrete systems and pullback matrices


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_discrete_fixtures_validate(name):
    dsys = fixtures.DISCRETE[name]()
    assert validate_kgraph(dsys.graph).ok
    rep = validate_discrete_system(dsys)
    assert rep.ok, str(rep)


def test_square_inconsistent_tables_detected():
    g = fixtures.p2_graph()
    swap = {"0": "1", "1": "0"}
    const = {"0": "0", "1": "0"}
    ident = {"0": "0", "1": "1"}
    # const and swap do not commute: const(swap(x)) = 0, swap(const(x)) = 1
    dsys = DiscreteSystem(
        g, {"v": ("0", "1")},
        {"b0": dict(const), "b1": dict(ident), "r0": dict(swap), "r1": dict(ident)},
    )
    rep = validate_discrete_system(dsys)
    assert "square-consistency" in rep.codes()


def test_partial_table_structural():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("a", "b")}, {"e": {"a": "a"}})
    rep = validate_discrete_system(dsys)
    assert "partial-table" in rep.codes()


def test_pullback_identity_matrix():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("a", "b")}, {"e": {"a": "a", "b": "b"}})
    psys, rep = pullback_system(dsys)
    assert rep.ok
    assert np.array_equal(psys.matrices["e"], np.eye(2, dtype=np.int64))


def test_pullback_constant_map_row_of_ones():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("x", "y")}, {"e": {"x": "x", "y": "x"}})
    psys, rep = pullback_system(dsys)
    assert rep.ok
    assert psys.matrices["e"].tolist() == [[1, 1], [0, 0]]


def test_pullback_three_cycle_permutation():
    g = single_loop_graph()
    dsys = DiscreteSystem(
        g, {"v": ("0", "1", "2")}, {"e": {"0": "1", "1": "2", "2": "0"}}
    )
    psys, rep = pullback_system(dsys)
    assert rep.ok
    expected = np.zeros((3, 3), dtype=np.int64)
    for j, image in enumerate([1, 2, 0]):
        expected[image, j] = 1
    assert np.array_equal(psys.matrices["e"], expected)
    # composing the cycle three times gives the identity, exactly
    p3 = Path(g, "v", ("e", "e", "e"))
    assert np.array_equal(matrix_along(psys, p3), np.eye(3, dtype=np.int64))


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_contravariance_verified_up_to_3(name):
    dsys = fixtures.DISCRETE[name]()
    psys, rep = pullback_system(dsys, verify_bound=3)
    assert rep.ok, str(rep)


def test_pullback_round_trip():
    for name in ("d1", "d2", "d3"):
        dsys = fixtures.DISCRETE[name]()
        psys, _ = pullback_system(dsys)
        back = discrete_from_pullback(psys)
        assert back.tables == dsys.tables
        psys2, _ = pullback_system(back)
        assert all(
            np.array_equal(psys.matrices[e], psys2.matrices[e])
            for e in psys.matrices
        )


def test_pullback_rejects_non_selector():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("a", "b")}, {"e": {"a": "a", "b": "b"}})
    psys, _ = pullback_system(dsys)
    psys.matrices["e"] = np.array([[1, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        discrete_from_pullback(psys)


# ---------------------------------------------------------------------------
# density vs fidelity


def test_surjective_generator_dense_and_faithful():
    dsys = fixtures.discrete_covering()
    for n in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        verdict = check_density_fidelity(dsys, n)
        assert verdict.k_dense and verdict.k_faithful and verdict.agree


def test_disjoint_images_cover():
    # two constant maps onto different points cover a 2-point fiber; the
    # other color uses identities, which commute with anything
    g = fixtures.p2_graph()
    c0 = {"0": "0", "1": "0"}
    c1 = {"0": "1", "1": "1"}
    ident = {"0": "0", "1": "1"}
    dsys = DiscreteSystem(
        g, {"v": ("0", "1")},
        {"b0": dict(c0), "b1": dict(c1), "r0": dict(ident), "r1": dict(ident)},
    )
    assert validate_discrete_system(dsys).ok
    verdict = check_density_fidelity(dsys, (1, 0))
    assert verdict.k_dense and verdict.k_faithful


def test_common_missed_point_breaks_both():
    # every table lands in {0}: the indicator of "1" kills every pullback
    g = fixtures.p2_graph()
    const = {"0": "0", "1": "0"}
    dsys = DiscreteSystem(
        g, {"v": ("0", "1")}, {e: dict(const) for e in g.edges}
    )
    assert validate_discrete_system(dsys).ok
    verdict = check_density_fidelity(dsys, (1, 1))
    assert not verdict.k_dense and not verdict.k_faithful and verdict.agree
    # exhibit the kernel element explicitly: the indicator column vanishes
    psys, _ = pullback_system(dsys)
    for lam in enumerate_paths(g, "v", (1, 1)):
        mat = matrix_along(psys, lam)
        assert mat[:, 1].tolist() == [0, 0] or mat.sum(axis=1)[1] == 0


def test_sweep_size2_exhaustive_agrees():
    res = density_fidelity_sweep(max_fiber_size=2)
    assert res.all_agree
    assert not res.sampled
    assert res.instances == 1 + 256
    assert res.consistent >= 1


def test_sweep_size3_sampled_agrees():
    res = density_fidelity_sweep(max_fiber_size=3, limit=4000, seed=12)
    assert res.all_agree
    assert res.sampled


def test_sweep_matches_assignment_at_a_time_reference():
    # the reference draws one assignment per rng call and tests commutation
    # on dict tables
    limit, seed = 4000, 12
    rng = np.random.default_rng(seed)
    consistent = 0
    for size in (1, 2, 3):
        elems = tuple(str(i) for i in range(size))
        maps = [dict(zip(elems, img)) for img in itertools.product(elems, repeat=size)]
        if len(maps) ** 4 <= limit:
            assignments = itertools.product(range(len(maps)), repeat=4)
        else:
            assignments = (tuple(rng.integers(0, len(maps), 4)) for _ in range(limit))
        for idx in assignments:
            b0, b1, r0, r1 = (maps[i] for i in idx)
            consistent += all(
                {t: b[r[t]] for t in elems} == {t: r[b[t]] for t in elems}
                for b in (b0, b1)
                for r in (r0, r1)
            )
    res = density_fidelity_sweep(max_fiber_size=3, limit=limit, seed=seed)
    assert res.consistent == consistent


@pytest.mark.parametrize(
    "limit, seed, sampled, instances, consistent",
    [
        (4000, 12, True, 4257, 91),
        (100_000, 1, True, 100_257, 892),
        (600_000, 0, False, 531_698, 4460),
    ],
)
def test_sweep_size3_counts(limit, seed, sampled, instances, consistent):
    # counts of the assignment-at-a-time sweep: the same seeded sample (one
    # rng.integers(0, 27, 4) call per assignment) and the same exhaustive
    # enumeration, now tested block-wise on integer map tables
    res = density_fidelity_sweep(max_fiber_size=3, limit=limit, seed=seed)
    assert (res.sampled, res.instances, res.consistent) == (sampled, instances, consistent)
    assert res.all_agree


# ---------------------------------------------------------------------------
# the twisted product


def test_transformation_singleton_mirrors_source():
    dsys = fixtures.discrete_singleton()
    tkg = build_transformation_graph(dsys, (2, 2))
    assert tkg.report.ok, str(tkg.report)
    g = dsys.graph
    for n in degrees_upto(2, (2, 2)):
        assert len(tkg.morphisms[n]) == sum(
            count_paths(g, v, n) for v in g.vertices
        )


def test_transformation_covering_doubles_morphisms():
    dsys = fixtures.discrete_covering()
    tkg = build_transformation_graph(dsys, (2, 2))
    assert tkg.report.ok, str(tkg.report)
    g = dsys.graph
    for n in degrees_upto(2, (2, 2)):
        expected = 2 * sum(count_paths(g, v, n) for v in g.vertices)
        assert len(tkg.morphisms[n]) == expected
    # bijective tables keep the product free of sources: a genuine 2-graph
    assert validate_kgraph(tkg.kgraph).ok


def test_transformation_constant_map_loop():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("0", "1")}, {"e": {"0": "0", "1": "0"}})
    tkg = build_transformation_graph(dsys, (3,))
    assert tkg.report.ok, str(tkg.report)
    # twisted sources stay injective per fiber element
    for lam, t in tkg.morphisms[(1,)]:
        assert tkg.star_source(lam, t) == (lam.source_vertex, t)
    sources = {tkg.star_source(lam, t) for lam, t in tkg.morphisms[(1,)]}
    assert len(sources) == 2


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_transformation_factorization_formula(name):
    # the twisted splitting must read (head, tail-image) * (tail, element)
    dsys = fixtures.DISCRETE[name]()
    tkg = build_transformation_graph(dsys, (2, 2))
    assert tkg.report.ok
    from kfractal.kgraph import factorize

    for lam, t in tkg.morphisms[(2, 2)]:
        head, tail = factorize(lam, (1, 1))
        first = (head, map_along(dsys, tail)[t])
        second = (tail, t)
        assert tkg.star_compose(first, second) == (lam, t)


def test_transformation_d2_validates_at_degree_3_3():
    # 450 twisted morphisms: about 91M raw triples, of which only the
    # composable ones within the bound are composed
    dsys = fixtures.discrete_covering()
    tkg = build_transformation_graph(dsys, (3, 3))
    assert tkg.report.ok, str(tkg.report)
    assert sum(len(pairs) for pairs in tkg.morphisms.values()) == 450


# Findings on corrupted products, in order, as the exhaustive checks (every
# triple, every head/tail pair) reported them.

D1_DUPLICATE_FINDINGS = """\
[internal] morphism-collision: (1, 0): distinct twisted morphisms spell the same path
[internal] twisted-uniqueness: (Path(b0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r1),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r0),t): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r1),t): 2 factorizations found"""

D2_DUPLICATE_FINDINGS = """\
[internal] morphism-collision: (0, 1): distinct twisted morphisms spell the same path
[internal] twisted-uniqueness: (Path(r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.r0),1): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.b0.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.b1.r0),1): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.b0.r0),1): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.b1.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.b0.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.b1.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.b0.r0),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b1.b1.r0),0): 2 factorizations found"""

D1_SKEWED_FINDINGS = """\
[internal] twisted-factorization: (Path(b0.r0),t): formula does not recompose
[internal] twisted-uniqueness: (Path(b0.r0),t): 0 factorizations found
[internal] twisted-uniqueness: (Path(b0.r1),t): a second factorization exists
[internal] twisted-uniqueness: (Path(b0.r1),t): 2 factorizations found
[internal] twisted-associativity: (Path(b0), 't')/(Path(r0), 't')/(Path(b0), 't'): composition orders disagree
[internal] twisted-associativity: (Path(b0), 't')/(Path(r0), 't')/(Path(b1), 't'): composition orders disagree
[internal] twisted-associativity: (Path(b0), 't')/(Path(b0), 't')/(Path(r0), 't'): composition orders disagree
[internal] twisted-associativity: (Path(b1), 't')/(Path(b0), 't')/(Path(r0), 't'): composition orders disagree"""

D2_SKEWED_FINDINGS = """\
[internal] twisted-factorization: (Path(b0.r0),0): formula does not recompose
[internal] twisted-uniqueness: (Path(b0.r0),0): 0 factorizations found
[internal] twisted-factorization: (Path(b0.r0),1): formula does not recompose
[internal] twisted-uniqueness: (Path(b0.r0),1): 0 factorizations found
[internal] twisted-uniqueness: (Path(b0.r1),0): a second factorization exists
[internal] twisted-uniqueness: (Path(b0.r1),0): 2 factorizations found
[internal] twisted-uniqueness: (Path(b0.r1),1): a second factorization exists
[internal] twisted-uniqueness: (Path(b0.r1),1): 2 factorizations found
[internal] twisted-associativity: (Path(b0), '0')/(Path(r0), '0')/(Path(b0), '0'): composition orders disagree
[internal] twisted-associativity: (Path(b0), '0')/(Path(r0), '0')/(Path(b1), '1'): composition orders disagree
[internal] twisted-associativity: (Path(b0), '1')/(Path(r0), '1')/(Path(b0), '1'): composition orders disagree
[internal] twisted-associativity: (Path(b0), '1')/(Path(r0), '1')/(Path(b1), '0'): composition orders disagree"""


@pytest.mark.parametrize(
    "name, bound, degree, expected",
    [
        ("d1", (1, 1), (1, 0), D1_DUPLICATE_FINDINGS),
        ("d2", (2, 1), (0, 1), D2_DUPLICATE_FINDINGS),
    ],
)
def test_duplicated_morphism_findings(name, bound, degree, expected):
    tkg = build_transformation_graph(fixtures.DISCRETE[name](), bound)
    assert tkg.report.ok
    tkg.morphisms[degree].append(tkg.morphisms[degree][0])
    assert str(_transformation_checks(tkg)) == expected


@pytest.mark.parametrize(
    "name, expected", [("d1", D1_SKEWED_FINDINGS), ("d2", D2_SKEWED_FINDINGS)]
)
def test_skewed_composition_findings(monkeypatch, name, expected):
    # a composition that sends b0*r0 to b0.r1 breaks the factorization
    # formula, uniqueness and associativity at once
    real = duality.compose

    def skewed(p, q):
        if p.edges == ("b0",) and q.edges == ("r0",):
            return Path(p.graph, p.range_vertex, ("b0", "r1"))
        return real(p, q)

    monkeypatch.setattr(duality, "compose", skewed)
    tkg = build_transformation_graph(fixtures.DISCRETE[name](), (2, 1))
    assert str(tkg.report) == expected


def _exhaustive_twisted_findings(tkg):
    """Factorization, uniqueness and associativity findings from trying
    every head/tail pair and every triple: the reference for the checks
    that visit composable pairs and triples only."""
    rep = ValidationReport()
    for n, pairs in tkg.morphisms.items():
        for m in degrees_upto(tkg.source.graph.k, n):
            rest = tuple(b - a for a, b in zip(m, n))
            for lam, t in pairs:
                head, tail = factorize(lam, m)
                first = (head, map_along(tkg.source, tail)[t])
                second = (tail, t)
                if tkg.star_compose(first, second) != (lam, t):
                    rep.add("internal", "twisted-factorization",
                            f"({lam!r},{t})", "formula does not recompose")
                hits = 0
                for mu, s in tkg.morphisms[m]:
                    for nu, u in tkg.morphisms[rest]:
                        if mu.source_vertex != nu.range_vertex:
                            continue
                        if s != map_along(tkg.source, nu)[u]:
                            continue
                        if (duality.compose(mu, nu), u) == (lam, t):
                            hits += 1
                            if (mu, s) != first or (nu, u) != second:
                                rep.add("internal", "twisted-uniqueness",
                                        f"({lam!r},{t})",
                                        "a second factorization exists")
                if hits != 1:
                    rep.add("internal", "twisted-uniqueness",
                            f"({lam!r},{t})", f"{hits} factorizations found")
    flat = [pt for pairs in tkg.morphisms.values() for pt in pairs]
    for a, b, c in itertools.product(flat, repeat=3):
        total = degree_add(degree_add(a[0].degree, b[0].degree), c[0].degree)
        if not all(x <= y for x, y in zip(total, tkg.degree_bound)):
            continue
        try:
            left = tkg.star_compose(tkg.star_compose(a, b), c)
            right = tkg.star_compose(a, tkg.star_compose(b, c))
        except KGraphError:
            continue
        if left != right:
            rep.add("internal", "twisted-associativity",
                    f"{a}/{b}/{c}", "composition orders disagree")
    return rep


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
@pytest.mark.parametrize("fault", ["none", "duplicate", "drop", "skew"])
def test_twisted_checks_match_exhaustive_reference(monkeypatch, name, fault):
    if fault == "skew":
        real = duality.compose

        def skewed(p, q):
            if p.edges == ("b0",) and q.edges == ("r1",):
                return Path(p.graph, p.range_vertex, ("b1", "r1"))
            return real(p, q)

        monkeypatch.setattr(duality, "compose", skewed)
    tkg = build_transformation_graph(fixtures.DISCRETE[name](), (2, 1))
    if fault == "duplicate":
        tkg.morphisms[(1, 1)].append(tkg.morphisms[(1, 1)][-1])
    elif fault == "drop":
        del tkg.morphisms[(1, 0)][1]
    found = [f for f in _transformation_checks(tkg).findings if f.code.startswith("twisted")]
    expected = _exhaustive_twisted_findings(tkg).findings
    assert found == expected
    assert (fault == "none") == (not expected)


def test_transformation_product_paths_consistent():
    dsys = fixtures.discrete_covering()
    tkg = build_transformation_graph(dsys, (1, 1))
    for lam, t in tkg.morphisms[(1, 1)]:
        p = tkg.product_path(lam, t)
        assert p.degree == (1, 1)
        assert p.range_vertex == tkg.vertex_ids[tkg.star_range(lam, t)]
        assert p.source_vertex == tkg.vertex_ids[tkg.star_source(lam, t)]


# ---------------------------------------------------------------------------
# properness


def test_properness_tautology():
    rep = check_properness(fixtures.discrete_constant())
    assert rep.proper_maps and rep.proper_pullbacks and rep.tautological


def test_properness_random_systems():
    rng = np.random.default_rng(31)
    g = fixtures.p2_graph()
    elems = ("0", "1")
    checked = 0
    for _ in range(100):
        tabs = {}
        for e in g.edges:
            tabs[e] = {t: elems[int(rng.integers(0, 2))] for t in elems}
        dsys = DiscreteSystem(g, {"v": elems}, tabs)
        rep = check_properness(dsys)
        assert rep.proper_maps and rep.proper_pullbacks
        checked += 1
    assert checked == 100
