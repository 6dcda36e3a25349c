"""Weight-matrix assembly from edge-orbit weights, plus standard schemes.

Every symmetric averaging matrix that respects the branch-permuting symmetry
of a TFS network is determined by one weight per edge orbit, which
``OrbitWeights`` stores as one read-only vector.  The assembled matrix is
symmetric and row-stochastic by construction: off-diagonal entries carry
the orbit weight of their edge, diagonals absorb the complement.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .topology import TfsParams, edge_table

if TYPE_CHECKING:
    from .spectral import StratifiedBlocks


class MissingOrbitWeightError(ValueError):
    """Orbit weight set does not match the network's edge orbits."""


@dataclass(frozen=True, eq=False)
class OrbitWeights:
    """One weight per edge orbit of one network, as a read-only vector.

    ``values[k]`` is the weight of orbit ``params.orbit_labels[k]``:
    ``-m1..-1`` on the first star, then ``1..m2`` on the second.
    """

    params: TfsParams
    values: np.ndarray
    # the stratified blocks of these weights: ``spectral.build_blocks``
    # builds them on first use and keeps them here, which is safe because
    # ``values`` is read-only and ``params`` frozen
    _blocks: StratifiedBlocks | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (self.params.m1 + self.params.m2,):
            raise MissingOrbitWeightError(
                f"orbit weights of shape {values.shape} do not fit {self.params}"
            )
        if not np.isfinite(values).all():
            label = self.params.orbit_labels[int(np.argmin(np.isfinite(values)))]
            raise ValueError(f"weight for orbit {label} is not finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_labels(cls, params: TfsParams, weights: dict[int, float]) -> "OrbitWeights":
        """Weights keyed by orbit label, exactly one per orbit of ``params``;
        any other key, 0 included, is an unexpected label."""
        missing = sorted(set(params.orbit_labels) - set(weights))
        if missing:
            raise MissingOrbitWeightError(f"missing weights for orbits {missing}")
        extra = sorted(set(weights) - set(params.orbit_labels))
        if extra:
            raise MissingOrbitWeightError(f"unexpected orbit labels {extra}")
        return cls(params, [weights[label] for label in params.orbit_labels])

    @classmethod
    def constant(cls, params: TfsParams, value: float) -> "OrbitWeights":
        return cls(params, np.full(params.m1 + params.m2, float(value)))

    def values_for(self, params: TfsParams) -> np.ndarray:
        """The stored vector, after checking that it belongs to ``params``."""
        if params != self.params:
            raise MissingOrbitWeightError(f"weights for {self.params} do not fit {params}")
        return self.values

    def __getitem__(self, label: int) -> float:
        if label == 0 or not -self.params.m1 <= label <= self.params.m2:
            raise KeyError(label)
        return float(self.values[self.params.m1 + label - (label > 0)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitWeights):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.values, other.values)


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

    Off-diagonals carry the orbit weight of their edge; each diagonal entry
    is 1 minus the rest of its row.  This dense matrix is the oracle the
    block route is checked against, so it is built from the edge table
    alone.
    """
    w = ow.values_for(params)
    a, b, k = edge_table(params)
    n = params.n_nodes
    mat = np.zeros((n, n))
    mat[a, b] = mat[b, a] = w[k]
    np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
    return WeightMatrix(entries=mat, params=params)


def max_degree_orbit_weights(
    params: TfsParams, convention: str = "inv_dmax"
) -> OrbitWeights:
    """Constant edge weight from the maximum degree, the center's n1 + n2.

    ``inv_dmax`` uses 1/d_max, ``inv_dmax_plus_1`` uses 1/(d_max + 1).
    """
    dmax = params.n1 + params.n2
    if convention == "inv_dmax":
        alpha = 1.0 / dmax
    elif convention == "inv_dmax_plus_1":
        alpha = 1.0 / (dmax + 1)
    else:
        raise ValueError(
            "convention must be 'inv_dmax' or 'inv_dmax_plus_1', "
            f"got {convention!r}"
        )
    return OrbitWeights.constant(params, alpha)


def metropolis_orbit_weights(
    params: TfsParams, convention: str = "inv_max"
) -> OrbitWeights:
    """Metropolis weights per edge orbit.

    ``inv_max`` uses 1/max(deg_a, deg_b), ``inv_max_plus_1`` uses
    1/(1 + max(deg_a, deg_b)).  The larger endpoint degree is the center's
    n1 + n2 on the two center-adjacent orbits and 2 on every other orbit,
    whose edges all touch a branch interior.
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
    w = np.full(params.m1 + params.m2, 1.0 / (shift + 2))
    w[params.m1 - 1] = w[params.m1] = 1.0 / (shift + params.n1 + params.n2)
    return OrbitWeights(params, w)


def best_constant_orbit_weights(params: TfsParams) -> OrbitWeights:
    """Best constant edge weight, 2 / (lambda_max(L) + lambda_second_min(L)).

    L is the graph Laplacian; the second smallest eigenvalue is the
    algebraic connectivity.  The unit-weight averaging matrix is ``I - L``,
    so both come from the extreme eigenvalues of its blocks: the weight is
    ``2 / (2 - lambda_min - lambda2)`` of that matrix.
    """
    # deferred: spectral imports this module
    from .spectral import block_extremes, build_blocks

    unit = OrbitWeights.constant(params, 1.0)
    report = block_extremes(build_blocks(params, unit))
    alpha = 2.0 / (2.0 - report.lambda_min - report.lambda2)
    return OrbitWeights.constant(params, alpha)
