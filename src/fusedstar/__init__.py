"""Fastest consensus averaging on two-fused-star networks.

Give the network by its ``TfsParams``, pick or solve for edge weights,
inspect the spectrum through its stratified blocks, certify optimality
analytically, and run the consensus iteration.  These names are the
product, what the command-line entry point ``fusedstar.cli`` runs.  The
independent routes that the tests check the product against live in
``fusedstar.reference``, which is not imported here.
"""
from .certificate import (
    CertificateResiduals,
    DualCertificate,
    build_dual_certificate,
    verify_certificate,
)
from .optimizer import (
    BatchSolution,
    OptimalSolution,
    SelfCheckError,
    optimal_weights,
    optimal_weights_batch,
    solve_symmetric_star,
)
from .simulation import (
    InsufficientSignalError,
    Trajectory,
    TrajectoryMemoryError,
    convergence_factor_estimate,
    random_initial_state,
    stratified_iterate,
    write_trajectory_csv,
)
from .spectral import (
    SkeletonBlocks,
    SpectralReport,
    SpectrumSizeError,
    StratifiedBlocks,
    Tridiagonal,
    build_blocks,
    central_tridiagonal,
    count_central_below,
    count_eigenvalues_below,
    full_spectrum,
    perron_vector,
    skeleton_rows,
)
from .topology import (
    InvalidParameterError,
    TfsParams,
    check_array_size,
    edge_table,
)
from .weighting import (
    MissingOrbitWeightError,
    OrbitWeights,
    assemble_weight_matrix,
    best_constant_orbit_weights,
    best_constant_skeleton,
    constant_weight_slems,
    max_degree_orbit_weights,
    max_degree_skeleton,
    metropolis_orbit_weights,
    metropolis_skeleton,
    skeleton_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BatchSolution",
    "CertificateResiduals",
    "DualCertificate",
    "InsufficientSignalError",
    "InvalidParameterError",
    "MissingOrbitWeightError",
    "OptimalSolution",
    "OrbitWeights",
    "SelfCheckError",
    "SkeletonBlocks",
    "SpectralReport",
    "SpectrumSizeError",
    "StratifiedBlocks",
    "TfsParams",
    "Trajectory",
    "TrajectoryMemoryError",
    "Tridiagonal",
    "assemble_weight_matrix",
    "best_constant_orbit_weights",
    "best_constant_skeleton",
    "build_blocks",
    "build_dual_certificate",
    "central_tridiagonal",
    "check_array_size",
    "constant_weight_slems",
    "convergence_factor_estimate",
    "count_central_below",
    "count_eigenvalues_below",
    "edge_table",
    "full_spectrum",
    "max_degree_orbit_weights",
    "max_degree_skeleton",
    "metropolis_orbit_weights",
    "metropolis_skeleton",
    "optimal_weights",
    "optimal_weights_batch",
    "perron_vector",
    "random_initial_state",
    "skeleton_rows",
    "skeleton_weights",
    "solve_symmetric_star",
    "stratified_iterate",
    "verify_certificate",
    "write_trajectory_csv",
]
