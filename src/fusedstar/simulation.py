"""Synchronous consensus iteration, two ways.

``iterate`` runs the plain matrix recurrence x(t+1) = W x(t).
``distributed_iterate`` runs the same rounds as per-node neighbor
gathers with no global matrix, which is how the protocol executes on an
actual network.  Both produce a Trajectory; they must agree to
reassociation-level tolerance, and the entry sum is conserved because
the weight matrix is symmetric stochastic.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np

from .topology import TfsGraph, edge_table
from .weighting import OrbitWeights, WeightMatrix


class InsufficientSignalError(RuntimeError):
    """Error norms fell to rounding level before the estimation window."""


@dataclass(frozen=True)
class Trajectory:
    """States x(0..T), per-step distances to consensus, and the target.

    ``x_bar`` is the exact average vector of the initial state; the
    error norm at step t is the euclidean distance of x(t) from it.
    ``seed`` records how a random initial state was drawn, if it was.
    """

    states: np.ndarray
    error_norms: np.ndarray
    x_bar: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("states", "error_norms", "x_bar"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _adopt(cls, states: np.ndarray, seed: int | None) -> "Trajectory":
        """A trajectory that keeps ``states``, a fresh float array no
        caller holds, read-only instead of copying it."""
        x_bar = np.full(states.shape[1], states[0].mean())
        errors = np.linalg.norm(states - x_bar, axis=1)
        self = object.__new__(cls)
        for name, arr in (
            ("states", states), ("error_norms", errors), ("x_bar", x_bar)
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", seed)
        return self

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def average(self) -> float:
        return float(self.x_bar[0])

    def sum_deviations(self) -> np.ndarray:
        """|1'x(t) - 1'x(0)| per step."""
        sums = self.states.sum(axis=1)
        return np.abs(sums - sums[0])


def iterate(
    matrix: WeightMatrix | np.ndarray,
    x0: np.ndarray,
    steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run the matrix recurrence for ``steps`` rounds."""
    entries = matrix.entries if isinstance(matrix, WeightMatrix) else np.asarray(matrix)
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or entries.shape != (x.size, x.size):
        raise ValueError(
            f"state of length {x.size} does not match matrix shape {entries.shape}"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = np.empty((steps + 1, x.size))
    states[0] = x
    for t in range(steps):
        states[t + 1] = entries @ states[t]
    return Trajectory._adopt(states, seed)


def distributed_iterate(
    graph: TfsGraph,
    weights: OrbitWeights,
    x0: np.ndarray,
    steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run the same rounds as local updates: each node combines its own
    value with its neighbors' values, weighted per edge orbit.

    No weight matrix is formed; the update is accumulated edge by edge.
    """
    params = graph.params
    w = weights.as_array(params)
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != params.n_nodes:
        raise ValueError(
            f"state of length {x.size} does not match {params.n_nodes} nodes"
        )
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    ends_a, ends_b, orbit = edge_table(params)
    edge_w = w[orbit]
    incident = np.zeros(params.n_nodes)
    np.add.at(incident, ends_a, edge_w)
    np.add.at(incident, ends_b, edge_w)

    keep = 1.0 - incident
    states = np.empty((steps + 1, x.size))
    states[0] = x
    for t in range(steps):
        x, nxt = states[t], states[t + 1]
        np.multiply(keep, x, out=nxt)
        np.add.at(nxt, ends_a, edge_w * x[ends_b])
        np.add.at(nxt, ends_b, edge_w * x[ends_a])
    return Trajectory._adopt(states, seed)


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded uniform node readings on [0, 100)."""
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=n)


def convergence_factor_estimate(trajectory: Trajectory, tail: int = 50) -> float:
    """Geometric-mean per-step contraction over the last ``tail`` steps.

    A window average suppresses transients from non-dominant modes; for
    a generic initial state the estimate converges to the SLEM.
    """
    if tail < 2:
        raise ValueError(f"tail must be >= 2, got {tail}")
    errors = trajectory.error_norms
    if errors.size < tail + 1:
        raise ValueError(
            f"trajectory has {errors.size - 1} steps, need at least {tail}"
        )
    window = errors[-(tail + 1):]
    if window.min() <= 1e-13:
        raise InsufficientSignalError(
            "error norms at rounding level inside the estimation window"
        )
    return float((window[-1] / window[0]) ** (1.0 / tail))


def write_trajectory_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    """Columns t, error_norm, sum_deviation; 10 significant digits."""
    writer = csv.writer(stream)
    writer.writerow(["t", "error_norm", "sum_deviation"])
    deviations = trajectory.sum_deviations()
    for t in range(trajectory.states.shape[0]):
        writer.writerow(
            [t, f"{trajectory.error_norms[t]:.10g}", f"{deviations[t]:.10g}"]
        )
