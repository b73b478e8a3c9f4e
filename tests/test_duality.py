"""Exact discrete checks: pullbacks, density vs fidelity, twisted products."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kfractal import duality
from kfractal.duality import (
    DiscreteSystem,
    check_density_fidelity,
    density_fidelity_sweep,
    map_along,
    matrix_along,
    pullback_system,
    twisted_product,
    validate_discrete_system,
)
from kfractal.kgraph import (
    KGraph,
    Path,
    count_paths,
    enumerate_paths,
    factorize,
    validate_kgraph,
)
from oracles import (
    composition_law_findings,
    contravariance_findings,
    degrees_upto,
    skeleton_findings,
    twisted_findings,
    twisted_model,
)

from shipped import shipped


def single_loop_graph():
    return KGraph(1, ["v"], {1: [("e", "v", "v")]})


def discrete_from_pullback(psys):
    """Reconstruct the unique table system with these pullback matrices.

    Requires every matrix to carry exactly one 1 per column (that is what
    makes it the linearization of a function)."""
    tables = {}
    for ident, matrix in psys.matrices.items():
        mat = np.asarray(matrix)
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
# discrete systems and pullback matrices


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_discrete_fixtures_validate(name):
    dsys = shipped(name)
    assert validate_kgraph(dsys.graph).ok
    rep = validate_discrete_system(dsys)
    assert rep.ok, str(rep)


def test_square_inconsistent_tables_detected():
    g = shipped("p2").graph
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


def test_repeated_fiber_element_structural():
    # before this finding the system validated, and its twisted product
    # reported internal twisted-uniqueness findings
    dsys = shipped("d1")
    dsys.fibers = {"v": ("t", "t")}
    rep = validate_discrete_system(dsys)
    assert [(f.kind, f.code, f.subject) for f in rep.findings] == [
        ("structural", "repeated-element", "v")
    ]


def test_fiber_of_unknown_vertex_structural():
    dsys = shipped("d1")
    dsys.fibers["w"] = ("t",)
    rep = validate_discrete_system(dsys)
    assert [(f.kind, f.code, f.subject) for f in rep.findings] == [
        ("structural", "unknown-vertex", "w")
    ]


def test_table_of_unknown_edge_structural():
    # a system built in Python reaches the validator without the loader's
    # refusal of a table for an edge the graph lacks
    dsys = shipped("d1")
    dsys.tables["zz"] = {t: t for t in dsys.fibers["v"]}
    rep = validate_discrete_system(dsys)
    assert [(f.kind, f.code, f.subject) for f in rep.findings] == [
        ("structural", "unknown-edge", "zz")
    ]


def test_pullback_identity_matrix():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("a", "b")}, {"e": {"a": "a", "b": "b"}})
    psys = pullback_system(dsys)
    assert np.array_equal(np.asarray(psys.matrices["e"]), np.eye(2, dtype=np.int64))


def test_pullback_constant_map_row_of_ones():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("x", "y")}, {"e": {"x": "x", "y": "x"}})
    psys = pullback_system(dsys)
    assert np.asarray(psys.matrices["e"]).tolist() == [[1, 1], [0, 0]]


def test_pullback_three_cycle_permutation():
    g = single_loop_graph()
    dsys = DiscreteSystem(
        g, {"v": ("0", "1", "2")}, {"e": {"0": "1", "1": "2", "2": "0"}}
    )
    psys = pullback_system(dsys)
    expected = np.zeros((3, 3), dtype=np.int64)
    for j, image in enumerate([1, 2, 0]):
        expected[image, j] = 1
    assert np.array_equal(np.asarray(psys.matrices["e"]), expected)
    # composing the cycle three times gives the identity, exactly
    p3 = Path(g, "v", ("e", "e", "e"))
    assert np.array_equal(np.asarray(matrix_along(psys, p3)), np.eye(3, dtype=np.int64))


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_contravariance_verified_up_to_3(name):
    rep = contravariance_findings(shipped(name), 3)
    assert rep.ok, str(rep)


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_composition_law_verified_up_to_3(name):
    rep = composition_law_findings(shipped(name), 3)
    assert rep.ok, str(rep)


def test_inconsistent_tables_break_both_laws():
    # the oracles see what square consistency rules out: const and swap do
    # not commute, so some path table is not the chained tables
    dsys = shipped("d2")
    dsys.tables["b1"] = {"0": "0", "1": "0"}
    assert "square-consistency" in validate_discrete_system(dsys).codes()
    assert composition_law_findings(dsys, 2).codes() == {"composition-law"}
    assert contravariance_findings(dsys, 2).codes() == {"contravariance"}


def test_path_tables_follow_edited_edge_tables():
    # nothing is cached per path: a table edited after a call is read anew
    dsys = shipped("d2")
    lam = Path(dsys.graph, "v", ("b1",))
    assert map_along(dsys, lam) == dsys.tables["b1"]
    dsys.tables["b1"] = {"0": "0", "1": "0"}
    assert map_along(dsys, lam) == {"0": "0", "1": "0"}


def test_pullback_round_trip():
    for name in ("d1", "d2", "d3"):
        dsys = shipped(name)
        psys = pullback_system(dsys)
        back = discrete_from_pullback(psys)
        assert back.tables == dsys.tables
        psys2 = pullback_system(back)
        assert all(
            np.array_equal(np.asarray(psys.matrices[e]), np.asarray(psys2.matrices[e]))
            for e in psys.matrices
        )


def test_pullback_rejects_non_selector():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("a", "b")}, {"e": {"a": "a", "b": "b"}})
    psys = pullback_system(dsys)
    psys.matrices["e"] = ((1, 1), (1, 0))
    with pytest.raises(ValueError):
        discrete_from_pullback(psys)


# ---------------------------------------------------------------------------
# density vs fidelity


def test_surjective_generator_dense_and_faithful():
    dsys = shipped("d2")
    for n in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        verdict = check_density_fidelity(dsys, n)
        assert verdict.k_dense and verdict.k_faithful and verdict.agree


def test_disjoint_images_cover():
    # two constant maps onto different points cover a 2-point fiber; the
    # other color uses identities, which commute with anything
    g = shipped("p2").graph
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
    g = shipped("p2").graph
    const = {"0": "0", "1": "0"}
    dsys = DiscreteSystem(
        g, {"v": ("0", "1")}, {e: dict(const) for e in g.edges}
    )
    assert validate_discrete_system(dsys).ok
    verdict = check_density_fidelity(dsys, (1, 1))
    assert not verdict.k_dense and not verdict.k_faithful and verdict.agree
    # exhibit the kernel element explicitly: the indicator column vanishes
    psys = pullback_system(dsys)
    for lam in enumerate_paths(g, "v", (1, 1)):
        mat = np.asarray(matrix_along(psys, lam))
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


def reference_sweep(max_fiber_size, limit, seed):
    """Per fiber size, the consistent assignments of the sweep's rule, drawn
    one assignment at a time and tested for commutation on dict tables: an
    enumerated size tries every assignment, a sampled one takes ``limit``
    draws of (b0, r0) = divmod(randrange(m * m), m) from one
    ``random.Random(seed)``, and draws (b1, r1) the same way only when b0
    and r0 commute."""
    rng = random.Random(seed)
    counts = {}
    for size in range(1, max_fiber_size + 1):
        elems = tuple(str(i) for i in range(size))
        maps = [dict(zip(elems, img)) for img in itertools.product(elems, repeat=size)]
        m = len(maps)

        def commute(b, r):
            return {t: b[r[t]] for t in elems} == {t: r[b[t]] for t in elems}

        def consistent(b0, b1, r0, r1):
            return all(commute(maps[b], maps[r]) for b in (b0, b1) for r in (r0, r1))

        if m**4 <= limit:
            counts[size] = sum(consistent(*idx) for idx in itertools.product(range(m), repeat=4))
            continue
        counts[size] = 0
        for _ in range(limit):
            b0, r0 = divmod(rng.randrange(m * m), m)
            if commute(maps[b0], maps[r0]):
                b1, r1 = divmod(rng.randrange(m * m), m)
                counts[size] += consistent(b0, b1, r0, r1)
    return counts


def test_sweep_matches_assignment_at_a_time_reference():
    for limit, seed in ((4000, 12), (100_000, 1)):
        res = density_fidelity_sweep(max_fiber_size=4, limit=limit, seed=seed)
        assert res.consistent_by_size == reference_sweep(4, limit, seed)
        assert res.instances == 1 + 256 + 2 * limit


@pytest.mark.parametrize(
    "limit, seed, sampled, instances, consistent",
    [
        (4000, 12, True, 4257, 90),
        (100_000, 1, True, 100_257, 880),
        (600_000, 0, False, 531_698, 4460),
    ],
)
def test_sweep_size3_counts(limit, seed, sampled, instances, consistent):
    # the sampled counts are those of reference_sweep, the exhaustive one
    # the count of every commuting assignment
    res = density_fidelity_sweep(max_fiber_size=3, limit=limit, seed=seed)
    assert (res.sampled, res.instances, res.consistent) == (sampled, instances, consistent)
    assert res.all_agree


def test_sweep_counts_consistent_assignments_per_fiber_size():
    # 4,000 draws at size 4 hold no commuting assignment: that size checks nothing
    res = density_fidelity_sweep(max_fiber_size=4, limit=4000, seed=12)
    assert res.consistent_by_size == {1: 1, 2: 58, 3: 31, 4: 0}
    assert res.consistent == 90
    res = density_fidelity_sweep(max_fiber_size=4, limit=100_000, seed=1)
    assert res.consistent_by_size == {1: 1, 2: 58, 3: 821, 4: 11}
    assert res.consistent == sum(res.consistent_by_size.values())


@pytest.mark.parametrize("size", [3, 4])
def test_sampled_rows_match_the_sampler_without_a_memo(size):
    # the memo changes which pairs are tested, not the draws: seeds 0-9 give
    # the rows of the sampler that tests each pair it reads, in the same
    # order, and leave the random stream where it leaves it
    maps = list(itertools.product(range(size), repeat=size))
    found = 0
    for seed in range(10):
        ours, ref = random.Random(seed), random.Random(seed)
        rows = list(duality._sampled_assignments(maps, 20_000, ours))
        assert rows == list(oracles.sampled_assignments(maps, 20_000, ref)), seed
        assert ours.getstate() == ref.getstate(), seed
        found += len(rows)
    assert found > 0


def test_each_pair_of_maps_is_tested_for_commutation_once(monkeypatch):
    # 1 + 16 + 729 pairs of maps at fiber sizes 1 to 3; without the memo
    # this sweep made 65,704 commutation tests
    calls = []
    commute = duality._commute

    def spy(f, h):
        calls.append((f, h))
        return commute(f, h)

    monkeypatch.setattr(duality, "_commute", spy)
    res = density_fidelity_sweep(max_fiber_size=3, seed=1)
    assert res.consistent == 880
    assert len(calls) == len(set(calls)) == 746


def test_block_verdicts_match_reference_on_every_consistent_assignment():
    # every consistent assignment of fiber sizes 1 to 3, enumerated whole,
    # through the row verdicts the sweep gives each consistent assignment;
    # one memo serves all 4,460 rows, so an entry keyed on less than the
    # tables along its path is read back for a row it does not fit
    g = duality._template_2graph()
    degrees = [(1, 0), (0, 1), (1, 1), (0, 0), (2, 1)]
    paths = [duality._template_paths(g, n) for n in degrees]
    memo = ({}, {})
    checked = 0
    outcomes = set()
    for size in (1, 2, 3):
        elems = tuple(str(i) for i in range(size))
        maps = list(itertools.product(range(size), repeat=size))
        for row in duality._consistent_assignments(maps):
            quad = [maps[i] for i in row]
            verdicts = duality._row_verdicts(quad, paths, memo)
            tables = {
                e: {elems[j]: elems[x] for j, x in enumerate(tab)}
                for e, tab in zip(duality._TEMPLATE_EDGES, quad)
            }
            dsys = DiscreteSystem(g, {"v": elems}, tables)
            for n, verdict in zip(degrees, verdicts):
                ref = check_density_fidelity(dsys, n)
                assert (verdict.k_dense, verdict.k_faithful) == (ref.k_dense, ref.k_faithful), (quad, n)
                outcomes.add(ref.k_dense)
            checked += 1
    assert checked == 4460
    assert outcomes == {True, False}


def test_sweep_records_disagreements_per_assignment_then_degree(monkeypatch):
    # a stand-in for the row verdicts: dense only at degree (1, 0), whose
    # two paths it sees, and faithful only on the even consistent rows of
    # each fiber size
    degrees = ((1, 0), (1, 1))
    expected = []
    position = {}
    for size in (1, 2):
        maps = list(itertools.product(range(size), repeat=size))
        consistent = [
            idx
            for idx in itertools.product(range(len(maps)), repeat=4)
            if all(
                [maps[b][maps[r][t]] for t in range(size)]
                == [maps[r][maps[b][t]] for t in range(size)]
                for b in idx[:2]
                for r in idx[2:]
            )
        ]
        for i, idx in enumerate(consistent):
            position[tuple(maps[j] for j in idx)] = i
            for n in degrees:
                dense, faithful = n == (1, 0), i % 2 == 0
                if dense != faithful:
                    expected.append((size, idx, n, duality.DensityFidelity(dense, faithful)))

    def verdicts(tables, degree_paths, memo):
        faithful = position[tuple(tables)] % 2 == 0
        return [duality.DensityFidelity(len(paths) == 2, faithful) for paths in degree_paths]

    monkeypatch.setattr(duality, "_row_verdicts", verdicts)
    res = density_fidelity_sweep(max_fiber_size=2, degrees=degrees)
    assert res.disagreements == expected


# ---------------------------------------------------------------------------
# the twisted product: its skeleton, and the (path, element) model as oracle


def test_transformation_singleton_mirrors_source():
    dsys = shipped("d1")
    tm = twisted_model(dsys, (2, 2))
    assert not skeleton_findings(dsys)
    assert twisted_findings(tm).ok, str(twisted_findings(tm))
    g = dsys.graph
    for n in degrees_upto((2, 2)):
        assert len(tm.morphisms[n]) == sum(
            count_paths(g, v, n) for v in g.vertices
        )


def test_transformation_covering_doubles_morphisms():
    dsys = shipped("d2")
    tm = twisted_model(dsys, (2, 2))
    assert twisted_findings(tm).ok
    g = dsys.graph
    for n in degrees_upto((2, 2)):
        expected = 2 * sum(count_paths(g, v, n) for v in g.vertices)
        assert len(tm.morphisms[n]) == expected
    # bijective tables keep the product free of sources: a genuine 2-graph
    assert validate_kgraph(tm.kgraph).ok


def test_transformation_constant_map_loop():
    g = single_loop_graph()
    dsys = DiscreteSystem(g, {"v": ("0", "1")}, {"e": {"0": "0", "1": "0"}})
    tm = twisted_model(dsys, (3,))
    assert twisted_findings(tm).ok
    # "1" is no table's image: a genuine source, the only skeleton finding
    assert [(f.code, f.subject) for f in validate_kgraph(tm.kgraph).findings] == [
        ("source-vertex", "v|1")
    ]
    # twisted sources stay injective per fiber element
    for lam, t in tm.morphisms[(1,)]:
        assert tm.star_source(lam, t) == (lam.source_vertex, t)
    sources = {tm.star_source(lam, t) for lam, t in tm.morphisms[(1,)]}
    assert len(sources) == 2


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_transformation_factorization_formula(name):
    # the twisted splitting must read (head, tail-image) * (tail, element)
    dsys = shipped(name)
    tm = twisted_model(dsys, (2, 2))
    for lam, t in tm.morphisms[(2, 2)]:
        head, tail = factorize(lam, (1, 1))
        first = (head, map_along(dsys, tail)[t])
        second = (tail, t)
        assert tm.star_compose(first, second) == (lam, t)


def test_transformation_d2_validates_at_degree_3_3():
    tm = twisted_model(shipped("d2"), (3, 3))
    assert twisted_findings(tm).ok
    assert sum(len(pairs) for pairs in tm.morphisms.values()) == 450


def test_transformation_product_paths_consistent():
    dsys = shipped("d2")
    tm = twisted_model(dsys, (1, 1))
    for lam, t in tm.morphisms[(1, 1)]:
        p = tm.product_path(lam, t)
        assert p.degree == (1, 1)
        assert p.range_vertex == "|".join(tm.star_range(lam, t))
        assert p.source_vertex == "|".join(tm.star_source(lam, t))


def test_twisted_product_skeleton_ids():
    dsys = shipped("d2")
    kg = twisted_product(dsys)
    assert kg.vertices == ("v|0", "v|1")
    # b1 swaps the elements: its lift from 0 ranges over 1
    e = kg.edge("b1|0")
    assert (e.color, e.range_vertex, e.source_vertex) == (1, "v|1", "v|0")
    assert kg.squares[(1, 2)][("b1|1", "r1|0")] == ("r1|1", "b1|0")


# Findings of the oracle on corrupted models, in order: every head/tail
# pair and every composable triple is tried.

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
    tm = twisted_model(shipped(name), bound)
    assert twisted_findings(tm).ok
    tm.morphisms[degree].append(tm.morphisms[degree][0])
    assert str(twisted_findings(tm)) == expected


def skew(monkeypatch, outer, inner, result):
    """Make the model's composition send outer·inner to the path ``result``."""
    real = oracles.compose

    def skewed(p, q):
        if p.edges == outer and q.edges == inner:
            return Path(p.graph, p.range_vertex, result)
        return real(p, q)

    monkeypatch.setattr(oracles, "compose", skewed)


@pytest.mark.parametrize(
    "name, expected", [("d1", D1_SKEWED_FINDINGS), ("d2", D2_SKEWED_FINDINGS)]
)
def test_skewed_composition_findings(monkeypatch, name, expected):
    # a composition that sends b0*r0 to b0.r1 breaks the factorization
    # formula, uniqueness and associativity at once
    skew(monkeypatch, ("b0",), ("r0",), ("b0", "r1"))
    tm = twisted_model(shipped(name), (2, 1))
    assert str(twisted_findings(tm)) == expected


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
@pytest.mark.parametrize("fault", ["none", "duplicate", "drop", "skew"])
def test_twisted_checks_match_exhaustive_reference(monkeypatch, name, fault):
    # the skeleton check and the exhaustive reference agree that the shipped
    # products are k-graphs, and the reference reports every fault of the
    # model: a repeated morphism, a missing one, a wrong composite
    dsys = shipped(name)
    assert not skeleton_findings(dsys)
    if fault == "skew":
        skew(monkeypatch, ("b0",), ("r1",), ("b1", "r1"))
    tm = twisted_model(dsys, (2, 1))
    if fault == "duplicate":
        tm.morphisms[(1, 1)].append(tm.morphisms[(1, 1)][-1])
    elif fault == "drop":
        del tm.morphisms[(1, 0)][1]
    assert (fault == "none") == twisted_findings(tm).ok


def test_mutated_table_is_reported_by_every_check():
    # const and swap do not commute: the lifted square of (b1, r1) at 1
    # changes its range, and the spelled path b1.r1 from 1 splits otherwise
    dsys = shipped("d2")
    dsys.tables["b1"] = {"0": "0", "1": "0"}
    assert "square-consistency" in validate_discrete_system(dsys).codes()
    assert {f.code for f in skeleton_findings(dsys)} >= {"square-endpoint"}
    assert "product-factorization" in twisted_findings(twisted_model(dsys, (1, 1))).codes()


@st.composite
def flip_systems(draw, k):
    """A valid one-vertex discrete system of rank k with flip squares: one
    or two loops per color, and every table a power of one self-map of a
    fiber of one to three elements, so tables of different colors
    commute."""
    size = draw(st.sampled_from((3, 2, 1)))
    elems = tuple(str(i) for i in range(size))
    base = draw(st.lists(st.sampled_from(elems), min_size=size, max_size=size))
    edges = {
        c: [(f"e{c}{i}", "v", "v") for i in range(draw(st.integers(1, 2)))]
        for c in range(1, k + 1)
    }
    squares = {
        (i, j): {(e, f): (f, e) for e, _, _ in edges[i] for f, _, _ in edges[j]}
        for i, j in itertools.combinations(range(1, k + 1), 2)
    }
    tables = {}
    for rows in edges.values():
        for ident, _, _ in rows:
            table = {t: t for t in elems}
            for _ in range(draw(st.integers(0, 3))):
                table = {t: base[int(u)] for t, u in table.items()}
            tables[ident] = table
    return DiscreteSystem(KGraph(k, ["v"], edges, squares), {"v": elems}, tables)


def commute_across_colors(dsys):
    g = dsys.graph
    return all(
        all(dsys.tables[e][dsys.tables[f][t]] == dsys.tables[f][dsys.tables[e][t]]
            for t in dsys.fibers["v"])
        for e, f in itertools.combinations(g.edges, 2)
        if g.edge(e).color != g.edge(f).color
    )


@pytest.mark.parametrize("k, bound", [(2, (2, 2)), (3, (1, 1, 1))])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_skeleton_and_oracle_agree_on_random_systems(k, bound, data):
    dsys = data.draw(flip_systems(k))
    assert validate_discrete_system(dsys).ok
    assert not skeleton_findings(dsys)
    assert twisted_findings(twisted_model(dsys, bound)).ok
    # one table entry changed so that two colors stop commuting, built in
    # code past the reader
    elems = dsys.fibers["v"]
    breaking = []
    for ident, table in dsys.tables.items():
        for t, w in itertools.product(elems, elems):
            if w != table[t]:
                mutated = DiscreteSystem(dsys.graph, dsys.fibers,
                                         {**dsys.tables, ident: {**table, t: w}})
                if not commute_across_colors(mutated):
                    breaking.append(mutated)
    if breaking:
        mutated = data.draw(st.sampled_from(breaking))
        assert "square-consistency" in validate_discrete_system(mutated).codes()
        assert skeleton_findings(mutated)
        assert not twisted_findings(twisted_model(mutated, bound)).ok
