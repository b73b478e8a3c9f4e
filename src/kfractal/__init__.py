"""Rank-k graph combinatorics, contraction systems, and certified attractors."""

from .kgraph import (
    KGraph,
    KGraphError,
    Path,
    compose,
    cylinder_partition_check,
    diagonal_graph,
    enumerate_paths,
    factorize,
    path_to_word,
    validate_kgraph,
    word_to_path,
)
from .systems import (
    AffineMap,
    MetricFiber,
    MWSystem,
    check_k_surjective,
    extend_map,
    lipschitz_bound,
    validate_system,
)
from .attractor import (
    ConvergenceCertificate,
    SetTuple,
    check_commutation,
    compute_attractor,
    hausdorff_distance,
    hutchinson_step,
)

__version__ = "0.1.0"
