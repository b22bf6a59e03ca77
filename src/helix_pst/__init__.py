"""Excitation transfer on a three-channel helical spin network.

Library layers, bottom up: core (types and index conventions),
hamiltonian (matrix construction, for inspection), spectral (grouped
decomposition from the site and channel factors), transfer
(probabilities, bounds, dark states), attainability (phase
congruences), scan (peak searches and sweeps), cli (command line).
"""

from .attainability import (
    AttainabilityReport,
    Constraints,
    check_attainability,
    independent_constraints,
)
from .core import (
    CHANNELS,
    BoundaryCondition,
    BoundaryConditions,
    CouplingParams,
    NetworkSpec,
    Node,
    flat_index,
    node_from_index,
)
from .hamiltonian import CouplingKind, build_hamiltonian, dump_matrix, neighbors
from .scan import ScanConfig, SweepRow, find_pst_times, gamma_sweep, tau_min
from .spectral import Factor, SpectralDecomposition, decompose
from .transfer import (
    TransferReport,
    grid_count,
    probability_chunks,
    transfer_report,
    transition_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AttainabilityReport",
    "BoundaryCondition",
    "BoundaryConditions",
    "CHANNELS",
    "Constraints",
    "CouplingKind",
    "CouplingParams",
    "Factor",
    "NetworkSpec",
    "Node",
    "ScanConfig",
    "SpectralDecomposition",
    "SweepRow",
    "TransferReport",
    "build_hamiltonian",
    "check_attainability",
    "decompose",
    "dump_matrix",
    "find_pst_times",
    "flat_index",
    "gamma_sweep",
    "grid_count",
    "independent_constraints",
    "neighbors",
    "node_from_index",
    "probability_chunks",
    "tau_min",
    "transfer_report",
    "transition_probability",
]
