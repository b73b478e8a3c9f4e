"""Rank-1 collapse: generators, intertwining transfer, the one operator it
iterates, attractor agreement."""

import json
import math

import numpy as np
import pytest

from kfractal import attractor, diagonal
from kfractal.attractor import (
    Operator,
    SetTuple,
    collage_bound,
    compute_attractor,
    contraction_factor,
    grid_slack,
    hausdorff_distance,
    hutchinson_step,
    tuple_distance,
)
from kfractal.cli import main
from kfractal.coding import sample_prefixes
from kfractal.diagonal import check_diagonal_agreement, diagonal_system, operator_mismatches
from kfractal.io import load_instance, packaged_instance
from kfractal.kgraph import KGraph, diagonal_graph
from kfractal.systems import (
    AffineMap,
    Box,
    MetricFiber,
    MWSystem,
    degree_maps,
    extend_map,
    float_bits,
    lipschitz_bound,
    validate_system,
)

from oracles import transfer_failures, two_run_agreement, word_to_path
from shipped import shipped


def _collapse(sys):
    return diagonal_system(sys, diagonal_graph(sys.graph))


def diagonal_words(collapse, length, count, seed):
    """Seeded composable words over the collapse's edge ids: ``count``
    uniform prefixes of degree (length,) at each vertex."""
    g = collapse.graph
    ids = sorted(g.edges)
    return [
        tuple(ids[i] for i in row)
        for v in g.vertices
        for row in sample_prefixes(g, v, (length,), count, seed=seed).tolist()
    ]


def test_rank1_collapse_keeps_generators():
    sys = shipped("s1")
    collapse = _collapse(sys)
    assert len(collapse.generators) == 3
    for ident, lam in diagonal_graph(sys.graph).edge_to_path.items():
        src_map = sys.generators[lam.edges[0]]
        col_map = collapse.generators[ident]
        assert np.array_equal(src_map.matrix, col_map.matrix)
        assert np.array_equal(src_map.shift, col_map.shift)


def test_p2_collapse_four_quarter_maps():
    sys = shipped("p2")
    gens = _collapse(sys).generators
    assert len(gens) == 4
    shifts = sorted(m.shift for m in gens.values())
    assert shifts == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    for m in gens.values():
        assert np.array_equal(m.matrix, np.eye(2) / 2)
        assert lipschitz_bound(m, "max") == pytest.approx(0.5)


def test_f3_collapse_single_generator():
    sys = shipped("f3")
    gens = list(_collapse(sys).generators.values())
    assert len(gens) == 1
    assert gens[0].matrix[0][0] == pytest.approx(0.125)


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3"])
def test_collapse_validates_strict(name):
    collapse = _collapse(shipped(name))
    rep = validate_system(collapse)
    assert rep.ok, str(rep)
    assert collapse.mode == "strict"


def test_collapse_generator_data_equals_source_composites():
    sys = shipped("p2c")
    collapse = _collapse(sys)
    for ident, lam in diagonal_graph(sys.graph).edge_to_path.items():
        composite = extend_map(sys, lam)
        gen = collapse.generators[ident]
        assert np.array_equal(composite.matrix, gen.matrix)
        assert np.array_equal(composite.shift, gen.shift)


def test_step_equivalence_bitwise():
    # one diagonal step of the source and one step of the collapse must
    # produce identical snapped clouds from identical inputs
    for name in ("p2", "p2c", "t0"):
        sys = shipped(name)
        h = 1 / 64
        C = SetTuple.from_fibers(sys, h)
        a = hutchinson_step(sys, sys.diagonal_degree, C)
        b = hutchinson_step(_collapse(sys), (1,), C)
        assert a == b


def test_transfer_rank1_reduces_to_intertwining():
    sys = shipped("s1")
    collapse = _collapse(sys)
    words = diagonal_words(collapse, length=10, count=6, seed=3)
    samples, failures = transfer_failures(sys, collapse, diagonal_graph(sys.graph), words,
                                          tol=1e-3)
    assert samples and not failures, failures


def test_transfer_p2_depth8():
    sys = shipped("p2")
    collapse = _collapse(sys)
    words = diagonal_words(collapse, length=8, count=10, seed=4)
    samples, failures = transfer_failures(sys, collapse, diagonal_graph(sys.graph), words,
                                          tol=1e-3)
    assert samples and not failures, failures
    assert samples == 40  # 4 edges x 10 words


def test_transfer_detects_corrupted_back_reference():
    sys = shipped("p2c")
    collapse = _collapse(sys)
    dg = diagonal_graph(sys.graph)
    # swap two entries of the edge -> path table
    (i1, p1), (i2, p2) = list(dg.edge_to_path.items())[:2]
    dg.edge_to_path[i1] = p2
    dg.edge_to_path[i2] = p1
    words = diagonal_words(collapse, length=6, count=8, seed=5)
    samples, failures = transfer_failures(sys, collapse, dg, words, tol=1e-4)
    assert samples and failures


def test_word_translation_composes_with_coding_exactly():
    # expanding a diagonal word and mapping it in one go must equal folding
    # the per-edge composites, exactly in the rational lift
    from kfractal.systems import exact_after, exact_path_map

    sys_ = shipped("p2c")
    dg = diagonal_graph(sys_.graph)
    for word in diagonal_words(diagonal_system(sys_, dg), length=2, count=6, seed=8):
        expanded = word_to_path(dg, list(word))
        whole = exact_path_map(sys_, expanded)
        folded = exact_path_map(sys_, dg.edge_to_path[word[0]])
        for ident in word[1:]:
            folded = exact_after(folded, exact_path_map(sys_, dg.edge_to_path[ident]))
        assert folded == whole


def _agreement(sys, tol, pitch):
    """The two-run oracle's report, once the one run of
    ``check_diagonal_agreement`` has printed its lines and found its sets."""
    rep = check_diagonal_agreement(sys, tol=tol, pitch=pitch)
    two = two_run_agreement(sys, tol=tol, pitch=pitch)
    assert rep.summary() == two.summary()
    assert rep.passed == two.passed
    assert rep.sets_source == two.sets_source == two.sets_collapse
    return two


def test_agreement_s1_exact_zero():
    sys = shipped("s1")
    h = 1 / 128
    rep = _agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    assert max(rep.distances.values()) == 0.0


def test_agreement_p2_full_square():
    sys = shipped("p2")
    h = 1 / 128
    rep = _agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    # the quarter maps tile the square, so the attractor is the whole fiber
    full = SetTuple.from_fibers(sys, h)
    assert tuple_distance(rep.sets_source, full, sys.metric) <= 2 * h


def test_agreement_p2c_cantor_square():
    sys = shipped("p2c")
    h = 1 / 243
    rep = _agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    assert "distance" in rep.summary()


def _reference_agreement(sys, tol, pitch):
    # check_diagonal_agreement's per-vertex loop before it went through
    # SetTuple.vertex_distances, on fixed points iterated from the whole
    # fiber grids at the pitch
    C0 = SetTuple.from_fibers(sys, pitch)
    K_src, cert_src = compute_attractor(sys, sys.diagonal_degree, C0)
    K_col, cert_col = compute_attractor(_collapse(sys), (1,), C0)
    distances = {}
    for v in sys.graph.vertices:
        if np.array_equal(K_src.clouds[v], K_col.clouds[v]):
            distances[v] = 0.0
        else:
            distances[v] = hausdorff_distance(K_src.points(v), K_col.points(v), sys.metric)
    passed = (
        cert_src.converged and cert_col.converged and all(d <= tol for d in distances.values())
    )
    return distances, passed, K_src, K_col


def _least_tol(sys, h):
    """The least error bound a run at the pitch claims, eps/(1-c), and so
    the least tol either run accepts."""
    n = sys.diagonal_degree
    return collage_bound(contraction_factor(sys, n), grid_slack(sys, h, degree_maps(sys, n)))


# at 1/64 and 1/81 the fiber grids fit in one block, so no run is refined;
# at 1/256 and 1/729 both runs start two and four levels coarser
@pytest.mark.parametrize("name, h", [("s1", 1 / 64), ("p2c", 1 / 81), ("s1", 1 / 256),
                                     ("p2c", 1 / 729)])
@pytest.mark.parametrize("tol_of", ["4h", "least"])
def test_agreement_matches_reference(name, h, tol_of):
    sys = shipped(name)
    tol = 4 * h if tol_of == "4h" else _least_tol(sys, h)
    rep = check_diagonal_agreement(sys, tol=tol, pitch=h)
    two = two_run_agreement(sys, tol=tol, pitch=h)
    distances, passed, K_src, K_col = _reference_agreement(sys, tol, h)
    assert two.distances == distances
    assert rep.passed == two.passed == passed
    # the oracle's two runs are refined through the same levels to the same
    # fixed points, and the one run finds both
    assert two.sets_source == K_src and two.sets_collapse == K_col
    assert rep.sets_source == K_src and rep.sets_source == K_col


@pytest.mark.parametrize("name, h", [("s1", 1 / 64), ("p2c", 1 / 81)])
def test_agreement_below_the_least_tol_is_refused(name, h):
    # the run is held to tol, so below eps/(1-c) it does not start
    sys = shipped(name)
    for tol in (0.0, math.nextafter(_least_tol(sys, h), 0.0)):
        with pytest.raises(ValueError, match=r"^--tol .* is below .*, the least error bound"):
            check_diagonal_agreement(sys, tol=tol, pitch=h)


# ---------------------------------------------------------------------------
# the collapse iterates the source's diagonal-degree operator


def _two_vertex_system(graph):
    """Halving maps between two unit intervals on the two-vertex 2-graph,
    each edge with its own shift, so that no two diagonal composites agree."""
    shifts = {ident: (i + 1) / 17 for i, ident in enumerate(sorted(graph.edges))}
    fiber = MetricFiber(Box([0.0], [1.0]))
    gens = {ident: AffineMap.of([[0.5]], [shift]) for ident, shift in shifts.items()}
    return MWSystem(graph, {"u": fiber, "w": fiber}, gens, ratio=0.5, name="two-vertex")


def _mismatches(sys, table=None):
    op = Operator.of(sys, sys.diagonal_degree)
    if table is None:
        table = diagonal_graph(sys.graph).edge_to_path
    return operator_mismatches(op, _collapse(sys), table)


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3", "two-vertex",
                                  *(f"product-{seed}" for seed in range(1, 11))])
def test_the_collapse_iterates_the_source_operator(g_two_vertex, name):
    if name == "two-vertex":
        sys = _two_vertex_system(g_two_vertex)
    elif name.startswith("product-"):
        from perfbench.generate import product_system

        sys = load_instance(product_system(int(name.split("-")[1])))[1]
    else:
        sys = shipped(name)
    assert _mismatches(sys) == {}
    # the identity's content: per vertex, the same pairs bit for bit
    op = Operator.of(sys, sys.diagonal_degree)
    pairs = degree_maps(_collapse(sys), (1,))
    for v in sys.graph.vertices:
        bits = sorted((float_bits(m.matrix, m.shift), src) for m, src in op.maps[v])
        assert bits == sorted((float_bits(m.matrix, m.shift), src) for m, src in pairs[v])


def _swapped(dg, first=0, second=1):
    """dg with two edge -> path entries swapped, by default the first two,
    as test_transfer_detects_corrupted_back_reference builds it."""
    items = list(dg.edge_to_path.items())
    (i1, p1), (i2, p2) = items[first], items[second]
    dg.edge_to_path[i1] = p2
    dg.edge_to_path[i2] = p1
    return dg


def test_a_mismatch_names_the_first_edge_that_differs(g_two_vertex):
    sys = shipped("p2c")
    table = diagonal_graph(sys.graph).edge_to_path
    first = next(iter(table))
    # a table swapped against the collapse's edges
    found = _mismatches(sys, _swapped(diagonal_graph(sys.graph)).edge_to_path)
    second = list(table.values())[1]
    assert found == {"v": f"edge {first} from v is tabled as {second!r}"}
    # a table that lacks an edge
    assert _mismatches(sys, {e: p for e, p in table.items() if e != first}) == {
        "v": f"edge {first} from v is tabled as None"}
    # across vertices: the first edge into u and the last one into w swap
    # paths, so each is tabled as a path with another range
    two = _two_vertex_system(g_two_vertex)
    table = diagonal_graph(two.graph).edge_to_path
    (e_u, p_u), (e_w, p_w) = list(table.items())[0], list(table.items())[-1]
    assert (p_u.range_vertex, p_w.range_vertex) == ("u", "w")
    found = _mismatches(two, _swapped(diagonal_graph(two.graph), 0, -1).edge_to_path)
    assert found == {"u": f"edge {e_u} from {p_u.source_vertex} is tabled as {p_w!r}",
                     "w": f"edge {e_w} from {p_w.source_vertex} is tabled as {p_u!r}"}


def test_a_map_one_ulp_off_is_a_mismatch():
    sys = shipped("p2c")
    collapse = _collapse(sys)
    first = next(iter(collapse.generators))
    m = collapse.generators[first]
    collapse.generators[first] = AffineMap.of(m.matrix, np.nextafter(m.shift, 2.0))
    op = Operator.of(sys, sys.diagonal_degree)
    found = operator_mismatches(op, collapse, diagonal_graph(sys.graph).edge_to_path)
    assert found == {"v": f"edge {first}'s map from v is no degree (1, 1) path map left"}


def test_a_signed_zero_off_the_composite_fails_the_cli(tmp_path, capsys, monkeypatch):
    # the collapse's first generator with its off-diagonal 0.0 made -0.0:
    # equal as numbers, and still another map bit for bit
    sys = shipped("p2c")
    first = next(iter(diagonal_graph(sys.graph).edge_to_path))
    zero = _collapse(sys).generators[first].matrix[0][1]
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    def flipped(sys_, dg):
        collapse = diagonal_system(sys_, dg)
        m = collapse.generators[first]
        collapse.generators[first] = AffineMap.of(
            [[m.matrix[0][0], -0.0], list(m.matrix[1])], m.shift)
        return collapse

    monkeypatch.setattr(diagonal, "diagonal_system", flipped)
    assert main(["diagonal", "--instance", "p2c", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        f"vertex v: edge {first}'s map from v is no degree (1, 1) path map left FAIL\n")


def test_a_loaded_nan_matches_its_own_bits():
    # NaN != NaN, but a composite with a NaN shift is the same map bit for
    # bit in the operator and in the collapse
    doc = json.loads(packaged_instance("p2c").read_text())
    doc["maps"]["b1"]["translation"][0] = math.nan
    sys = load_instance(doc)[1]
    op = Operator.of(sys, sys.diagonal_degree)
    assert any(math.isnan(x) for rows in op.maps.values() for m, _ in rows for x in m.shift)
    assert operator_mismatches(op, _collapse(sys), diagonal_graph(sys.graph).edge_to_path) == {}


def test_a_collapse_without_an_edge_is_a_mismatch():
    sys = shipped("p2c")
    collapse = _collapse(sys)
    dg = diagonal_graph(sys.graph)
    last = list(dg.edge_to_path)[-1]
    rows = [(e, "v", "v") for e in dg.edge_to_path if e != last]
    short = MWSystem(KGraph(1, ["v"], {1: rows}), collapse.fibers,
                     {e: collapse.generators[e] for e, _, _ in rows}, ratio=collapse.ratio)
    op = Operator.of(sys, sys.diagonal_degree)
    assert operator_mismatches(op, short, dg.edge_to_path) == {"v": "3 edges for 4 paths"}


def test_cli_diagonal_with_a_swapped_table_exits_1_before_any_step(monkeypatch, tmp_path,
                                                                   capsys):
    from kfractal.cli import FAIL, main

    real = diagonal.diagonal_graph
    monkeypatch.setattr(diagonal, "diagonal_graph", lambda g: _swapped(real(g)))
    runs = []
    compute = attractor.compute_attractor
    monkeypatch.setattr(attractor, "compute_attractor",
                        lambda *args, **kw: runs.append(args) or compute(*args, **kw))
    assert main(["diagonal", "--instance", "p2c", "--out", str(tmp_path)]) == FAIL
    out = capsys.readouterr().out
    (first, _), (_, second) = list(real(shipped("p2c").graph).edge_to_path.items())[:2]
    assert out == f"vertex v: edge {first} from v is tabled as {second!r} FAIL\n"
    assert (tmp_path / "diagonal.txt").read_text() == out
    assert runs == []
