"""Set distances on real points: ``directed_distance`` and
``hausdorff_distance`` measure every pair with the brute-force kernel.  They
are the off-lattice reference that the lattice windows are checked against
(tests/test_attractor.py); every comparison the commands make is measured on
the lattice, and nothing imports scipy (tests/test_imports.py)."""

import numpy as np
import pytest

from kfractal import _kernels
from kfractal.attractor import directed_distance, hausdorff_distance


def clouds(seed, na=800, nb=900, d=2):
    rng = np.random.default_rng(seed)
    return rng.random((na, d)), rng.random((nb, d))


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


def test_directed_distance_rejects_unknown_metric():
    a, b = [[0.0, 0.0]], [[3.0, 4.0]]
    for fn in (directed_distance, hausdorff_distance):
        with pytest.raises(ValueError, match="unknown metric 'taxicab'"):
            fn(a, b, "taxicab")
    assert directed_distance(a, b, "max") == 4.0
    assert directed_distance(a, b, "euclidean") == 5.0


def test_kernel_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'taxicab'"):
        _kernels.directed_max_min([[0.0, 0.0]], [[3.0, 4.0]], "taxicab")
