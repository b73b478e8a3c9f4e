"""Rank-1 collapse: generators, intertwining transfer, attractor agreement."""

import math

import numpy as np
import pytest

from kfractal.attractor import (
    SetTuple,
    collage_bound,
    compute_attractor,
    contraction_factor,
    grid_slack,
    hausdorff_distance,
    hutchinson_step,
    tuple_distance,
)
from kfractal.coding import sample_prefixes
from kfractal.diagonal import check_diagonal_agreement, diagonal_system
from kfractal.kgraph import diagonal_graph
from kfractal.systems import degree_maps, extend_map, lipschitz_bound, validate_system

from oracles import transfer_failures, word_to_path
from shipped import shipped


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
    collapse = diagonal_system(sys)
    assert len(collapse.generators) == 3
    for ident, lam in diagonal_graph(sys.graph).edge_to_path.items():
        src_map = sys.generators[lam.edges[0]]
        col_map = collapse.generators[ident]
        assert np.array_equal(src_map.matrix, col_map.matrix)
        assert np.array_equal(src_map.shift, col_map.shift)


def test_p2_collapse_four_quarter_maps():
    sys = shipped("p2")
    gens = diagonal_system(sys).generators
    assert len(gens) == 4
    shifts = sorted(tuple(m.shift.tolist()) for m in gens.values())
    assert shifts == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    for m in gens.values():
        assert np.array_equal(m.matrix, np.eye(2) / 2)
        assert lipschitz_bound(m, "max") == pytest.approx(0.5)


def test_f3_collapse_single_generator():
    sys = shipped("f3")
    gens = list(diagonal_system(sys).generators.values())
    assert len(gens) == 1
    assert gens[0].matrix[0, 0] == pytest.approx(0.125)


@pytest.mark.parametrize("name", ["s1", "p2", "p2c", "t0", "f3"])
def test_collapse_validates_strict(name):
    collapse = diagonal_system(shipped(name))
    rep = validate_system(collapse)
    assert rep.ok, str(rep)
    assert collapse.mode == "strict"


def test_collapse_generator_data_equals_source_composites():
    sys = shipped("p2c")
    collapse = diagonal_system(sys)
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
        b = hutchinson_step(diagonal_system(sys), (1,), C)
        assert a == b


def test_transfer_rank1_reduces_to_intertwining():
    sys = shipped("s1")
    collapse = diagonal_system(sys)
    words = diagonal_words(collapse, length=10, count=6, seed=3)
    samples, failures = transfer_failures(sys, collapse, diagonal_graph(sys.graph), words,
                                          tol=1e-3)
    assert samples and not failures, failures


def test_transfer_p2_depth8():
    sys = shipped("p2")
    collapse = diagonal_system(sys)
    words = diagonal_words(collapse, length=8, count=10, seed=4)
    samples, failures = transfer_failures(sys, collapse, diagonal_graph(sys.graph), words,
                                          tol=1e-3)
    assert samples and not failures, failures
    assert samples == 40  # 4 edges x 10 words


def test_transfer_detects_corrupted_back_reference():
    sys = shipped("p2c")
    collapse = diagonal_system(sys)
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
    for word in diagonal_words(diagonal_system(sys_), length=2, count=6, seed=8):
        expanded = word_to_path(dg, list(word))
        whole = exact_path_map(sys_, expanded)
        folded = exact_path_map(sys_, dg.edge_to_path[word[0]])
        for ident in word[1:]:
            folded = exact_after(folded, exact_path_map(sys_, dg.edge_to_path[ident]))
        assert folded == whole


def test_agreement_s1_exact_zero():
    sys = shipped("s1")
    h = 1 / 128
    rep = check_diagonal_agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    assert max(rep.distances.values()) == 0.0


def test_agreement_p2_full_square():
    sys = shipped("p2")
    h = 1 / 128
    rep = check_diagonal_agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    # the quarter maps tile the square, so the attractor is the whole fiber
    full = SetTuple.from_fibers(sys, h)
    assert tuple_distance(rep.sets_source, full, sys.metric) <= 2 * h


def test_agreement_p2c_cantor_square():
    sys = shipped("p2c")
    h = 1 / 243
    rep = check_diagonal_agreement(sys, tol=4 * h, pitch=h)
    assert rep.passed
    assert "distance" in rep.summary()


def _reference_agreement(sys, tol, pitch):
    # check_diagonal_agreement's per-vertex loop before it went through
    # SetTuple.vertex_distances, on fixed points iterated from the whole
    # fiber grids at the pitch
    C0 = SetTuple.from_fibers(sys, pitch)
    K_src, cert_src = compute_attractor(sys, sys.diagonal_degree, C0)
    K_col, cert_col = compute_attractor(diagonal_system(sys), (1,), C0)
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
    distances, passed, K_src, K_col = _reference_agreement(sys, tol, h)
    assert rep.distances == distances
    assert rep.passed == passed
    # both runs are refined through the same levels to the same fixed points
    assert rep.sets_source == K_src and rep.sets_collapse == K_col


@pytest.mark.parametrize("name, h", [("s1", 1 / 64), ("p2c", 1 / 81)])
def test_agreement_below_the_least_tol_is_refused(name, h):
    # both runs are held to tol, so below eps/(1-c) neither one starts
    sys = shipped(name)
    for tol in (0.0, math.nextafter(_least_tol(sys, h), 0.0)):
        with pytest.raises(ValueError, match=r"^--tol .* is below .*, the least error bound"):
            check_diagonal_agreement(sys, tol=tol, pitch=h)
