"""Synchronous consensus iteration, two ways, as streams of rounds.

``matrix_rounds`` yields the states x(1), x(2), ... of the plain matrix
recurrence x(t+1) = W x(t).  ``distributed_rounds`` yields the same
rounds as per-node neighbor gathers with no global matrix, which is how
the protocol executes on an actual network.  The two must agree to
reassociation-level tolerance.

A run is judged by its distance to consensus ||x(t) - x_bar|| per step,
so ``iterate`` and ``distributed_iterate`` keep only that and the entry
sum 1'x(t), which is conserved because the weight matrix is symmetric
stochastic.  A Trajectory is this summary; no run stores its states, and
one holds a few state vectors however many steps it takes.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import IO, Callable, Iterator

import numpy as np

from .topology import TfsGraph
from .weighting import OrbitWeights, WeightMatrix


class InsufficientSignalError(RuntimeError):
    """Error norms fell to rounding level before the estimation window."""


class TrajectoryMemoryError(MemoryError):
    """An array that setting up or advancing a run needs (a state
    vector, a per-node weight vector, the per-step records) does not fit
    in the memory the process may use."""


def _no_room(exc: MemoryError) -> TrajectoryMemoryError:
    # a stream's error passes through the summary that pulls from it
    if isinstance(exc, TrajectoryMemoryError):
        return exc
    reason = str(exc) or "out of memory"
    return TrajectoryMemoryError(f"cannot allocate the run: {reason}")


@dataclass(frozen=True)
class Trajectory:
    """Per-step distances to consensus and entry sums of a run x(0..T).

    ``error_norms[t]`` is the euclidean distance of x(t) from the
    consensus vector, whose entries all equal ``average``, the mean of
    x(0); ``sums[t]`` is 1'x(t).
    """

    error_norms: np.ndarray
    sums: np.ndarray
    average: float

    def __post_init__(self) -> None:
        for name in ("error_norms", "sums"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.sums.ndim != 1 or self.sums.shape != self.error_norms.shape:
            raise ValueError(
                f"error norms of shape {self.error_norms.shape} and sums of "
                f"shape {self.sums.shape} are not one record per step"
            )
        object.__setattr__(self, "average", float(self.average))

    @property
    def n_steps(self) -> int:
        return self.error_norms.size - 1

    def sum_deviations(self) -> np.ndarray:
        """|1'x(t) - 1'x(0)| per step."""
        return np.abs(self.sums - self.sums[0])


def _rounds(
    x: np.ndarray, advance: Callable[[np.ndarray], np.ndarray]
) -> Iterator[np.ndarray]:
    """x(1), x(2), ... with x(t+1) = advance(x(t)), each a fresh
    read-only array."""
    while True:
        try:
            x = advance(x)
        except MemoryError as exc:
            raise _no_room(exc) from None
        x.flags.writeable = False
        yield x


def _summarise(
    x0: np.ndarray, rounds: Iterator[np.ndarray], steps: int
) -> Trajectory:
    """The error norm and sum of x(0) and the first ``steps`` states of
    ``rounds``, each taken as the state arrives.

    The reductions are those that ``np.linalg.norm(..., axis=1)`` and
    ``sum(axis=1)`` apply per row of a state array, so they equal those
    bitwise.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    try:
        error_norms = np.empty(steps + 1)
        sums = np.empty(steps + 1)
        deviation = np.empty(x0.size)
        average = x0.mean()
        states = itertools.chain([x0], itertools.islice(rounds, steps))
        for t, state in enumerate(states):
            np.subtract(state, average, out=deviation)
            np.multiply(deviation, deviation, out=deviation)
            error_norms[t] = np.sqrt(np.add.reduce(deviation))
            sums[t] = np.add.reduce(state)
        return Trajectory(error_norms, sums, average)
    except MemoryError as exc:
        raise _no_room(exc) from None


def matrix_rounds(matrix: WeightMatrix, x0: np.ndarray) -> Iterator[np.ndarray]:
    """The states x(1), x(2), ... of the matrix recurrence, without end."""
    entries = matrix.entries
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or entries.shape != (x.size, x.size):
        raise ValueError(
            f"state of length {x.size} does not match matrix shape {entries.shape}"
        )
    return _rounds(x, lambda now: entries @ now)


def iterate(matrix: WeightMatrix, x0: np.ndarray, steps: int) -> Trajectory:
    """Run the matrix recurrence for ``steps`` rounds."""
    x = np.asarray(x0, dtype=float)
    return _summarise(x, matrix_rounds(matrix, x), steps)


def distributed_rounds(
    graph: TfsGraph, weights: OrbitWeights, x0: np.ndarray
) -> Iterator[np.ndarray]:
    """The same rounds as local updates, without end: each node combines
    its own value with its neighbors' values, weighted per edge orbit.

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
    w = weights.values_for(params)
    w_in1, w_in2 = w[m1 - 1], w[m1]  # the center's two orbits
    try:
        # each node's weight to its neighbor one stratum nearer the center
        near1 = np.repeat(w[:m1], n1)
        near2 = np.repeat(w[m1:], n2)
        keep = np.empty(x.size)  # the incident weights, then 1 minus them
        keep[:c] = near1
        keep[n1:c] += near1[:-n1]
        keep[c + 1 :] = near2
        keep[c + 1 : -n2] += near2[n2:]
        # the center's terms, summed in gather order: its own share, arm 2, arm 1
        hub = np.empty(1 + n2 + n1)
        hub[0] = 0.0
        hub[1 : 1 + n2] = w_in2
        hub[1 + n2 :] = w_in1
        keep[c] = np.add.accumulate(hub)[-1]
    except MemoryError as exc:
        raise _no_room(exc) from None
    np.subtract(1.0, keep, out=keep)

    def advance(now: np.ndarray) -> np.ndarray:
        out = np.multiply(keep, now)
        x1, y1 = now[:c], out[:c]
        x2, y2 = now[c + 1 :], out[c + 1 :]
        xc = now[c]
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
        return out

    return _rounds(x, advance)


def distributed_iterate(
    graph: TfsGraph, weights: OrbitWeights, x0: np.ndarray, steps: int
) -> Trajectory:
    """Run ``steps`` rounds of ``distributed_rounds``."""
    x = np.asarray(x0, dtype=float)
    return _summarise(x, distributed_rounds(graph, weights, x), steps)


def random_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded uniform node readings on [0, 100)."""
    try:
        return np.random.default_rng(seed).uniform(0.0, 100.0, size=n)
    except MemoryError as exc:
        raise _no_room(exc) from None


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
    for t, (norm, deviation) in enumerate(
        zip(trajectory.error_norms, trajectory.sum_deviations())
    ):
        writer.writerow([t, f"{norm:.10g}", f"{deviation:.10g}"])
