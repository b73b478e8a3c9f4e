"""Set distances: the KD-tree path against the brute-force kernel.  scipy
serves only the KD-tree that library callers of ``directed_distance`` and
``hausdorff_distance`` reach with large clouds; lattice windows are measured
in numpy (tests/test_attractor.py), and ``coding`` snaps its generator
images onto the lattice before measuring them, so no CLI command imports
scipy at all (tests/test_imports.py)."""

import numpy as np
import pytest

from kfractal import _kernels, attractor
from kfractal.attractor import INDEX_MIN_PAIRS, directed_distance, hausdorff_distance


def clouds(seed, na=800, nb=900, d=2):
    rng = np.random.default_rng(seed)
    return rng.random((na, d)), rng.random((nb, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("metric", ["euclidean", "max"])
def test_indexed_matches_brute_force(metric, d):
    a, b = clouds(7, 1500, 1500, d)
    assert len(a) * len(b) > INDEX_MIN_PAIRS  # directed_distance uses the KD-tree
    reference = _kernels.directed_max_min(a, b, metric)
    assert directed_distance(a, b, metric) == pytest.approx(reference, abs=1e-12)


def test_hausdorff_identical_clouds_zero():
    a, _ = clouds(4)
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_singletons():
    assert hausdorff_distance([[0.0]], [[1.0]]) == 1.0


def test_directed_asymmetry():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0]])
    assert directed_distance(a, b) == 1.0
    assert directed_distance(b, a) == 0.0


def test_empty_target_rejected():
    with pytest.raises(ValueError):
        directed_distance(np.zeros((1, 2)), np.zeros((0, 2)))


@pytest.mark.parametrize("size_rule", ["brute-force", "kd-tree"])
def test_directed_distance_rejects_unknown_metric(monkeypatch, size_rule):
    # both size paths used to read an unknown name as some metric: 5.0 by
    # brute force, 4.0 through the KD-tree
    if size_rule == "kd-tree":
        monkeypatch.setattr(attractor, "INDEX_MIN_PAIRS", 0)
    a, b = [[0.0, 0.0]], [[3.0, 4.0]]
    for fn in (directed_distance, hausdorff_distance):
        with pytest.raises(ValueError, match="unknown metric 'taxicab'"):
            fn(a, b, "taxicab")
    assert directed_distance(a, b, "max") == 4.0
    assert directed_distance(a, b, "euclidean") == 5.0


def test_kernel_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'taxicab'"):
        _kernels.directed_max_min([[0.0, 0.0]], [[3.0, 4.0]], "taxicab")
