"""Weight-matrix assembly from edge-orbit weights, plus standard schemes.

Every symmetric averaging matrix that respects the branch-permuting symmetry
of a TFS network is determined by one weight per edge orbit.  The assembled
matrix is symmetric and row-stochastic by construction: off-diagonal entries
carry the orbit weight of their edge, diagonals absorb the complement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .topology import (
    TfsGraph,
    TfsParams,
    build_topology,
    degrees,
    edge_orbit,
    node_index,
)


class MissingOrbitWeightError(ValueError):
    """Orbit weight set does not match the network's edge orbits."""


class OrbitWeights:
    """One weight per edge orbit, keyed by orbit label.

    Labels follow the orbit convention: negative for the first star,
    positive for the second; 0 is never a valid label.
    """

    def __init__(self, weights: Mapping[int, float]):
        items: dict[int, float] = {}
        for label, value in dict(weights).items():
            if int(label) != label or label == 0:
                raise ValueError(f"invalid orbit label {label!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"weight for orbit {label} is not finite")
            items[int(label)] = value
        self._w = MappingProxyType(items)

    @classmethod
    def constant(cls, params: TfsParams, value: float) -> "OrbitWeights":
        return cls({label: value for label in params.orbit_labels})

    @property
    def w(self) -> Mapping[int, float]:
        return self._w

    def __getitem__(self, label: int) -> float:
        return self._w[label]

    def __contains__(self, label: int) -> bool:
        return label in self._w

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitWeights):
            return NotImplemented
        return dict(self._w) == dict(other._w)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._w.items()))
        return f"OrbitWeights({{{inner}}})"


def check_orbit_weights(params: TfsParams, ow: OrbitWeights) -> None:
    """Require exactly one weight per edge orbit of ``params``."""
    expected = set(params.orbit_labels)
    got = set(ow.w)
    missing = sorted(expected - got)
    if missing:
        raise MissingOrbitWeightError(f"missing weights for orbits {missing}")
    extra = sorted(got - expected)
    if extra:
        raise MissingOrbitWeightError(f"unexpected orbit labels {extra}")


@dataclass(frozen=True)
class WeightMatrix:
    """Dense symmetric averaging matrix in canonical node order."""

    entries: np.ndarray
    params: TfsParams

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        n = self.params.n_nodes
        if entries.shape != (n, n):
            raise ValueError(
                f"expected a {n} x {n} matrix, got shape {entries.shape}"
            )
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def assemble_weight_matrix(params: TfsParams, ow: OrbitWeights) -> WeightMatrix:
    """Assemble the symmetric row-stochastic matrix for the given orbit weights.

    Off-diagonals carry the orbit weight of their edge; diagonals are
    1 - (incident weight sum): ``1 - w_{-m1}`` at first-star leaves,
    ``1 - w_{i-1} - w_i`` at interior strata, ``1 - n1*w_{-1} - n2*w_1``
    at the center, and mirrored on the second star.
    """
    check_orbit_weights(params, ow)
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    n = params.n_nodes
    mat = np.zeros((n, n))
    graph = build_topology(params)
    for u, v in graph.edges:
        weight = ow[edge_orbit(params, (u, v))]
        a, b = node_index(params, u), node_index(params, v)
        mat[a, b] = weight
        mat[b, a] = weight
    for node in graph.nodes:
        idx = node_index(params, node)
        i = node.i
        if i == -m1:
            diag = 1.0 - ow[-m1]
        elif i < 0:
            diag = 1.0 - ow[i - 1] - ow[i]
        elif i == 0:
            diag = 1.0 - n1 * ow[-1] - n2 * ow[1]
        elif i < m2:
            diag = 1.0 - ow[i] - ow[i + 1]
        else:
            diag = 1.0 - ow[m2]
        mat[idx, idx] = diag
    return WeightMatrix(entries=mat, params=params)


@dataclass(frozen=True)
class StochasticityReport:
    """Deviation measures of a candidate averaging matrix."""

    max_row_sum_deviation: float
    max_asymmetry: float
    sparsity_violations: tuple[tuple[int, int], ...]


def validate_stochastic(matrix: WeightMatrix) -> StochasticityReport:
    """Measure row-sum deviation, asymmetry and sparsity-pattern violations.

    Sparsity violations are index pairs (a < b) with a nonzero entry where
    the network has no edge.
    """
    entries = matrix.entries
    params = matrix.params
    row_dev = float(np.max(np.abs(entries.sum(axis=1) - 1.0)))
    asym = float(np.max(np.abs(entries - entries.T)))
    allowed = np.zeros(entries.shape, dtype=bool)
    graph = build_topology(params)
    for u, v in graph.edges:
        a, b = node_index(params, u), node_index(params, v)
        allowed[a, b] = allowed[b, a] = True
    np.fill_diagonal(allowed, True)
    bad = np.argwhere((entries != 0.0) & ~allowed)
    violations = tuple((int(a), int(b)) for a, b in bad if a < b)
    return StochasticityReport(
        max_row_sum_deviation=row_dev,
        max_asymmetry=asym,
        sparsity_violations=violations,
    )


def max_degree_orbit_weights(
    graph: TfsGraph, convention: str = "inv_dmax"
) -> OrbitWeights:
    """Constant edge weight from the maximum degree.

    ``inv_dmax`` uses 1/d_max, ``inv_dmax_plus_1`` uses 1/(d_max + 1).
    """
    dmax = max(degrees(graph).values())
    if convention == "inv_dmax":
        alpha = 1.0 / dmax
    elif convention == "inv_dmax_plus_1":
        alpha = 1.0 / (dmax + 1)
    else:
        raise ValueError(
            "convention must be 'inv_dmax' or 'inv_dmax_plus_1', "
            f"got {convention!r}"
        )
    return OrbitWeights.constant(graph.params, alpha)


def max_degree_weights(
    graph: TfsGraph, convention: str = "inv_dmax"
) -> WeightMatrix:
    return assemble_weight_matrix(
        graph.params, max_degree_orbit_weights(graph, convention)
    )


def metropolis_orbit_weights(
    graph: TfsGraph, convention: str = "inv_max"
) -> OrbitWeights:
    """Metropolis weights per edge orbit.

    ``inv_max`` uses 1/max(deg_a, deg_b), ``inv_max_plus_1`` uses
    1/(1 + max(deg_a, deg_b)).  Endpoint degrees are constant within an
    orbit, so the rule is orbit-wise well defined.
    """
    if convention == "inv_max":
        shift = 0.0
    elif convention == "inv_max_plus_1":
        shift = 1.0
    else:
        raise ValueError(
            "convention must be 'inv_max' or 'inv_max_plus_1', "
            f"got {convention!r}"
        )
    degs = degrees(graph)
    w: dict[int, float] = {}
    for u, v in graph.edges:
        label = edge_orbit(graph.params, (u, v))
        w.setdefault(label, 1.0 / (shift + max(degs[u], degs[v])))
    return OrbitWeights(w)


def metropolis_weights(
    graph: TfsGraph, convention: str = "inv_max"
) -> WeightMatrix:
    return assemble_weight_matrix(
        graph.params, metropolis_orbit_weights(graph, convention)
    )


def best_constant_orbit_weights(graph: TfsGraph) -> OrbitWeights:
    """Best constant edge weight, 2 / (lambda_max(L) + lambda_second_min(L)).

    L is the graph Laplacian; the second smallest eigenvalue is the
    algebraic connectivity.  The unit-weight averaging matrix is ``I - L``,
    so both come from its block spectrum: the weight is
    ``2 / (2 - lambda_min - lambda2)`` of that matrix.
    """
    # deferred: spectral imports this module
    from .spectral import block_spectrum, build_blocks

    params = graph.params
    unit = OrbitWeights.constant(params, 1.0)
    report = block_spectrum(build_blocks(params, unit))
    alpha = 2.0 / (2.0 - report.lambda_min - report.lambda2)
    return OrbitWeights.constant(params, alpha)


def best_constant_weights(graph: TfsGraph) -> WeightMatrix:
    return assemble_weight_matrix(graph.params, best_constant_orbit_weights(graph))
