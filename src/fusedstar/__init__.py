"""Fastest consensus averaging on two-fused-star networks.

Give the network by its ``TfsParams``, pick a scheme's skeleton or solve
for the optimum, read the spectrum from the skeleton of its stratified
blocks, certify optimality analytically, and run the consensus iteration.
These names are the product, what the command-line entry point
``fusedstar.cli`` runs, besides the dense oracles and counts that tests
and the benchmark still import from it.  The independent routes that the
tests check the product against, the blocks written out and weights keyed
by orbit label among them, live in ``fusedstar.reference``, which is not
imported here.
The names load lazily (PEP 562): each is imported from its module on first
use, so a request loads only the modules that it runs, and ``solve`` and
``verify`` load no numpy.
"""
import importlib

# the public names of each module, each imported on first use
_MODULES = {
    "certificate": [
        "CertificateResiduals", "DualCertificate", "build_dual_certificate",
        "verify_certificate",
    ],
    "optimizer": [
        "BatchSolution", "OptimalSolution", "SelfCheckError", "optimal_weights",
        "optimal_weights_batch", "solve_symmetric_star",
    ],
    "simulation": [
        "InsufficientSignalError", "Trajectory", "TrajectoryMemoryError",
        "convergence_factor_estimate", "random_initial_state",
        "stratified_iterate", "write_trajectory_csv",
    ],
    "spectral": [
        "BlockError", "SkeletonBlocks", "SpectralReport", "SpectrumSizeError",
        "Tridiagonal", "central_tridiagonal", "count_central_below",
        "count_eigenvalues_below", "full_spectrum", "perron_vector",
        "skeleton_rows",
    ],
    "topology": [
        "InvalidParameterError", "TfsParams", "check_array_size", "edge_table",
    ],
    "weighting": [
        "MissingOrbitWeightError", "OrbitWeights", "assemble_weight_matrix",
        "best_constant_skeleton", "constant_weight_slems", "max_degree_skeleton",
        "metropolis_skeleton", "skeleton_weights",
    ],
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BatchSolution",
    "BlockError",
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
    "TfsParams",
    "Trajectory",
    "TrajectoryMemoryError",
    "Tridiagonal",
    "assemble_weight_matrix",
    "best_constant_skeleton",
    "build_dual_certificate",
    "central_tridiagonal",
    "check_array_size",
    "constant_weight_slems",
    "convergence_factor_estimate",
    "count_central_below",
    "count_eigenvalues_below",
    "edge_table",
    "full_spectrum",
    "max_degree_skeleton",
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


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
