"""Grid-occupancy dimension estimate (diagnostic utility).

Counts occupied cells of a snapped cloud at the native pitch and at twice
it; the log ratio of the two counts estimates the box-counting dimension.
This is a sanity gauge for rendered attractors, nothing more.
"""

from __future__ import annotations

import math

import numpy as np

from .attractor import SetTuple, _canonical


def occupied_cells(lattice: np.ndarray, factor: int = 1) -> int:
    """Occupied cell count of integer lattice coords floor-divided by a
    positive integer factor; the division runs inside ``_canonical``, a
    block of rows at a time."""
    if len(lattice) == 0:
        return 0
    return len(_canonical(np.asarray(lattice, dtype=np.int64), factor))


def dimension_estimate(sets: SetTuple, vertex: str) -> float:
    """log2(N_fine / N_coarse) between the native grid and the one of twice
    its pitch."""
    n_fine = len(sets.clouds[vertex])
    n_coarse = occupied_cells(sets.clouds[vertex], 2)
    if n_fine == 0 or n_coarse == 0:
        return 0.0
    return math.log(n_fine / n_coarse) / math.log(2)
