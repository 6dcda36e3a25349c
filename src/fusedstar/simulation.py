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
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable

import numpy as np

from .topology import TfsGraph
from .weighting import OrbitWeights, WeightMatrix


class InsufficientSignalError(RuntimeError):
    """Error norms fell to rounding level before the estimation window."""


class TrajectoryMemoryError(MemoryError):
    """The states of a run do not fit in the memory the process may use."""


def _no_room(shape: tuple[int, ...]) -> TrajectoryMemoryError:
    gib = 8 * math.prod(shape) / 2**30
    return TrajectoryMemoryError(
        f"cannot allocate the float64 states of shape {shape} ({gib:.3g} GiB)"
    )


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
    def _adopt(
        cls,
        states: np.ndarray,
        error_norms: np.ndarray,
        x_bar: np.ndarray,
        row_sums: np.ndarray,
        seed: int | None,
    ) -> "Trajectory":
        """A trajectory that keeps ``states`` and its per-row statistics,
        fresh float arrays no caller holds, read-only instead of copying
        them."""
        self = object.__new__(cls)
        for name, arr in (
            ("states", states),
            ("error_norms", error_norms),
            ("x_bar", x_bar),
            ("_row_sums", row_sums),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", seed)
        return self

    @cached_property
    def _row_sums(self) -> np.ndarray:
        """1'x(t) per step; ``_adopt`` receives it from the iteration."""
        return self.states.sum(axis=1)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def average(self) -> float:
        return float(self.x_bar[0])

    def sum_deviations(self) -> np.ndarray:
        """|1'x(t) - 1'x(0)| per step."""
        sums = self._row_sums
        return np.abs(sums - sums[0])


def _run(
    x0: np.ndarray,
    steps: int,
    seed: int | None,
    advance: Callable[[np.ndarray, np.ndarray], None],
) -> Trajectory:
    """States x(0..steps), with ``advance(x(t), x(t+1))`` writing each
    round into the preallocated array.

    Each state's error norm and sum are taken right after it is written,
    while it is in cache, with the reductions that
    ``np.linalg.norm(..., axis=1)`` and ``sum(axis=1)`` apply per row, so
    they equal those bitwise.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    shape = (steps + 1, x0.size)
    try:
        states = np.empty(shape)
    except MemoryError:
        raise _no_room(shape) from None
    states[0] = x0
    x_bar = np.full(x0.size, states[0].mean())
    error_norms = np.empty(steps + 1)
    row_sums = np.empty(steps + 1)
    deviation = np.empty(x0.size)
    for t, row in enumerate(states):
        if t:
            advance(states[t - 1], row)
        np.subtract(row, x_bar, out=deviation)
        np.multiply(deviation, deviation, out=deviation)
        error_norms[t] = np.sqrt(np.add.reduce(deviation))
        row_sums[t] = np.add.reduce(row)
    return Trajectory._adopt(states, error_norms, x_bar, row_sums, seed)


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

    def advance(now: np.ndarray, out: np.ndarray) -> None:
        out[...] = entries @ now

    return _run(x, steps, seed, advance)


def distributed_iterate(
    graph: TfsGraph,
    weights: OrbitWeights,
    x0: np.ndarray,
    steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run the same rounds as local updates: each node combines its own
    value with its neighbors' values, weighted per edge orbit.

    No weight matrix and no edge list is formed.  In canonical order
    every stratum is a contiguous run of nodes: arm 1 is ``x[:c]``, ``n1``
    nodes per stratum, arm 2 is ``x[c+1:]``, ``n2`` per stratum, and the
    center ``c = m1 * n1`` sits between them.  A node's neighbors in the
    adjacent strata are then ``n1`` or ``n2`` places away, and a round is
    a few shifted-slice products per arm.

    Each node adds its terms in the order of the per-edge gather (two
    ``np.add.at`` passes over ``edge_table``): its own share, then the
    neighbor in the stratum above (label ``i + 1``), then the one below.
    The center adds its ``n2 + n1`` terms one after another, arm 2
    first, as the gather does, so the states equal the gather's bitwise.
    """
    params = graph.params
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != params.n_nodes:
        raise ValueError(
            f"state of length {x.size} does not match {params.n_nodes} nodes"
        )
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    c = m1 * n1
    w = weights.as_array(params)
    # each node's weight to its neighbor one stratum nearer the center
    near1 = np.repeat(w[:m1], n1)
    near2 = np.repeat(w[m1:], n2)
    w_in1, w_in2 = w[m1 - 1], w[m1]  # the center's two orbits
    incident = np.empty(x.size)
    incident[:c] = near1
    incident[n1:c] += near1[:-n1]
    incident[c + 1 :] = near2
    incident[c + 1 : -n2] += near2[n2:]
    # the center's terms, summed in gather order: its own share, arm 2, arm 1
    hub = np.empty(1 + n2 + n1)
    hub[0] = 0.0
    hub[1 : 1 + n2] = w_in2
    hub[1 + n2 :] = w_in1
    incident[c] = np.add.accumulate(hub)[-1]
    keep = 1.0 - incident

    def advance(now: np.ndarray, out: np.ndarray) -> None:
        x1, y1 = now[:c], out[:c]
        x2, y2 = now[c + 1 :], out[c + 1 :]
        xc = now[c]
        np.multiply(keep, now, out=out)
        y1[:-n1] += near1[:-n1] * x1[n1:]
        y1[-n1:] += w_in1 * xc
        y1[n1:] += near1[:-n1] * x1[:-n1]
        y2[:-n2] += near2[n2:] * x2[n2:]
        y2[:n2] += w_in2 * xc
        y2[n2:] += near2[n2:] * x2[:-n2]
        hub[0] = out[c]
        np.multiply(w_in2, x2[:n2], out=hub[1 : 1 + n2])
        np.multiply(w_in1, x1[-n1:], out=hub[1 + n2 :])
        out[c] = np.add.accumulate(hub, out=hub)[-1]

    return _run(x, steps, seed, advance)


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded uniform node readings on [0, 100)."""
    try:
        return np.random.default_rng(seed).uniform(0.0, 100.0, size=n)
    except MemoryError:
        raise _no_room((n,)) from None


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
