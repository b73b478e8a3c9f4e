"""Brute-force directed max-min distance between point clouds.

Every pair is measured, a block of ``a`` rows at a time.  Euclidean
distances are summed squared coordinate by coordinate, reduced with
min/max, and square-rooted once at the end.  ``attractor.directed_distance``
and ``hausdorff_distance`` run it on real point clouds; tests use it as the
off-lattice reference for the lattice distances.
"""

import math

import numpy as np

# Recorded by the benchmark as a machine fact.
BACKEND = "numpy"

# rows of `a` per block, sized so a block against `b` stays ~tens of MB
_BLOCK_CELLS = 4_000_000


def _prepare(arr):
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("point cloud must be a 2-d array")
    return out


def directed_max_min(a, b, metric="euclidean"):
    """sup over a of inf over b of dist(a_i, b_j).

    Raises ValueError on an empty target cloud or a metric other than
    ``"euclidean"`` or ``"max"``; an empty ``a`` gives 0.
    """
    if metric not in ("euclidean", "max"):
        raise ValueError(f"unknown metric {metric!r}")
    a = _prepare(a)
    b = _prepare(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    if len(b) == 0:
        raise ValueError("empty target cloud")
    chebyshev = metric == "max"
    best = 0.0
    rows = max(1, _BLOCK_CELLS // len(b))
    for i in range(0, len(a), rows):
        diff = a[i : i + rows, None, :] - b[None, :, :]
        if chebyshev:
            dist = np.abs(diff).max(axis=-1)
        else:
            dist = (diff * diff).sum(axis=-1)
        m = dist.min(axis=1).max()
        if m > best:
            best = float(m)
    return best if chebyshev else math.sqrt(best)
