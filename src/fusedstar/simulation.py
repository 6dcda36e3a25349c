"""Synchronous consensus iteration x(t+1) = W x(t), run on the strata.

A run is judged by its distance to consensus ||x(t) - x_bar|| per step,
so a Trajectory keeps only that and the entry sum 1'x(t), which is
conserved because the weight matrix is symmetric stochastic; no run
stores its states.  ``stratified_iterate`` computes both records without
advancing the nodes: the stratification that block-diagonalizes W
splits x(0) - x_bar into the stratum profile, which the central block
advances, and each arm's within-stratum deviations, which that arm's
block advances branch by branch.  After an O(n m) set-up a run costs
nothing in ``n1`` and ``n2``.  A
central block of at most ``spectral._DENSE_ROWS`` rows takes the run in
closed form, x(t) - x_bar being a sum of eigenmodes (Xiao and Boyd,
"Fast linear iterations for distributed averaging", 2004): one
``np.linalg.eigh`` per block gives every mode's amplitude, an arm mode's
from the projections of that arm's branches, and every step's records
follow from the amplitudes' powers, a chunk of steps at a time.  A
longer block, whose dense eigendecomposition would take O(rows^2)
memory, replaces each arm's ``n_i`` branches by ``min(m_i, n_i)`` lanes
with the same Gram matrix and advances the lanes round by round: three
products and two sums on the lanes, written into a bounded history that
is reduced to the per-step records each time it fills.

The per-node stencil ``fusedstar.reference.distributed_rounds``, which
is how the protocol executes on an actual network, and the matrix
recurrence ``fusedstar.reference.matrix_rounds`` are the routes it is
checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import (
    _DENSE_ROWS,
    BlockError,
    Tridiagonal,
    _frozen_floats,
    central_tridiagonal,
    perron_vector,
)
from .topology import TfsParams
from .weighting import OrbitWeights


# floats of lanes (or of mode powers) a run keeps before it reduces them to
# per-step records; einsum reduces a round of at most 8192 floats the same
# way however many rounds a fill holds, so the history's size changes no
# bit of a record
_HISTORY_FLOATS = 8192


class InsufficientSignalError(RuntimeError):
    """Error norms fell to rounding level before the estimation window."""


class TrajectoryMemoryError(MemoryError):
    """An array that setting up or advancing a run needs (a state
    vector, a state-length vector of the set-up, the per-step records)
    does not fit in the memory the process may use."""


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
    x(0); ``sums[t]`` is 1'x(t).  A read-only float64 record is kept as
    it is; any other is copied, and the copy made read-only.
    """

    error_norms: np.ndarray
    sums: np.ndarray
    average: float

    def __post_init__(self) -> None:
        for name in ("error_norms", "sums"):
            object.__setattr__(self, name, _frozen_floats(getattr(self, name)))
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


def stratified_iterate(
    params: TfsParams, weights: OrbitWeights, x0: np.ndarray, steps: int
) -> Trajectory:
    """The trajectory of ``steps`` rounds of x(t+1) = W x(t) from ``x0``,
    computed on the strata.

    ``x0`` is in canonical node order: the first arm ``x0[:c]`` with
    ``n1`` nodes per stratum, the center ``c = m1 * n1``, then the second
    arm with ``n2``.  ``x0 - x_bar`` splits into orthogonal parts that
    never mix.  The scaled stratum profile ``y_s = sqrt(n_s) (mu_s -
    x_bar)`` (the center's entry is ``x_c - x_bar``) advances by the
    central block, one ``Tridiagonal`` of ``central_tridiagonal``'s rows.
    Each arm's within-stratum deviations ``D_i`` (``m_i x n_i``) advance
    branch by branch by that arm's block, the central block's leading
    ``m1`` or trailing ``m2`` rows.

    ``error_norms[t]`` is the norm of the profile and the deviations
    after ``t`` rounds, and ``sums[t]`` is ``1'x0 + sum_s sqrt(n_s)
    y_s(t)``, so ``sum_deviations`` is the rounding drift of the
    profile's consensus component.  Set-up takes O(n) time and one
    state-length vector, the deviations written over the centred state,
    which is released before the run's buffers are allocated.  The
    records come by one of two routes, chosen by the central block's row
    count:

    - at most ``spectral._DENSE_ROWS`` rows: in closed form, from one
      ``np.linalg.eigh`` per block of the central block written out once
      (``_closed_form``), an arm mode's amplitude being the norm of the
      projections of ``D_i``'s branches on it, in O(n max m_i) time for
      the projections, O(rows^2) memory and O(rows) per step, besides the
      two records;
    - more: round by round (``_stepped``).  The norm of ``T^t D_i``
      depends only on ``D_i D_i'``, so the transposed R factor of
      ``D_i'`` (``np.linalg.qr``, in O(n min(m, n)) time) replaces the
      ``n_i`` branches by ``r_i = min(m_i, n_i)`` lanes with the same
      Gram matrix.  The arm blocks are the central block's leading ``m1``
      and trailing ``m2`` rows, so one ``(m1 + m2 + 1) x (1 + max r_i)``
      array of lanes, the profile and then the factors' columns, with the
      two center couplings zeroed on the factor lanes, advances everything
      with one tridiagonal product per round, at O((m1 + m2 + 1)(1 + max
      r_i)), nothing in ``n_i`` once ``n_i >= m_i``.

    The two routes agree to rounding; each route's records have the same
    bits whatever ``_HISTORY_FLOATS`` is, for rounds of at most that
    many floats.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != params.n_nodes:
        raise ValueError(
            f"state of length {x.size} does not match {params.n_nodes} nodes"
        )
    diagonal, off = central_tridiagonal(params, weights.values_for(params))
    # read-only, so the block keeps these two arrays uncopied
    diagonal.flags.writeable = off.flags.writeable = False
    center = Tridiagonal(diagonal, off)
    try:
        total = np.add.reduce(x)
        average = total / x.size
        # on a shared 2-vCPU host with one BLAS thread, each route with its
        # set-up, at two branches per star (the narrowest lanes, where
        # stepping is cheapest; medians of five interleaved batches): 65
        # rows took 0.90-1.49 ms in closed form and 0.92-1.76 ms stepped at
        # 200 steps, 1.25-1.59 and 2.02-2.51 ms at 500; 81 rows 1.43-1.45
        # and 0.99-1.03 ms at 200 steps.  With as many branches as strata
        # the closed form won at every size up to 161 rows, the largest
        # measured (5.2-6.2 against 12.2-13.9 ms there)
        run = _closed_form if center.size <= _DENSE_ROWS else _stepped
        error_norms, sums = run(params, center, x, average, steps)
    except MemoryError as exc:
        raise _no_room(exc) from None
    np.add(total, sums, out=sums)
    for record in (error_norms, sums):
        record.flags.writeable = False
    return Trajectory(error_norms, sums, average)


def _split(
    params: TfsParams, x: np.ndarray, average: float
) -> tuple[np.ndarray, np.ndarray, list[tuple[slice, np.ndarray]]]:
    """A run's set-up from the state ``x`` of mean ``average``: ``sqrt(n_s)``
    per stratum, the scaled stratum profile and, per arm, its strata in
    the central block with its ``m_i x n_i`` within-stratum deviations.

    The deviations are views of one state-length vector, the set-up's
    only one, and the stratum means are gone when it returns, so the
    route that calls it holds the only references to what it returns and
    frees that vector by dropping the deviations.
    """
    m1, n1 = params.m1, params.n1
    c = m1 * n1
    # each arm's nodes, its strata in the central block, its branch count
    arms = (
        (slice(0, c), slice(0, m1), n1),
        (slice(c + 1, None), slice(m1 + 1, None), params.n2),
    )
    # one flat state-length vector: each stratum's mean is read from
    # ``centered`` before its deviations overwrite it
    centered = np.subtract(x, average)
    means = np.empty(m1 + params.m2 + 1)  # mu_s - x_bar
    means[m1] = centered[c]
    deviations = []
    for nodes, strata, n in arms:
        rows = centered[nodes].reshape(-1, n)
        means[strata] = rows.mean(axis=1)
        np.subtract(rows, means[strata, None], out=rows)
        deviations.append((strata, rows))
    del centered, rows
    scale = perron_vector(params) * math.sqrt(params.n_nodes)
    return scale, scale * means, deviations


def _closed_form(
    params: TfsParams,
    center: Tridiagonal,
    x: np.ndarray,
    average: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The records of a run, after ``_split``, from one eigendecomposition
    per block.

    The central block is written out once, and each arm block is its
    corner on that arm's strata, the slice ``_split`` returns.  With ``T =
    Q diag(lambda) Q'`` from ``np.linalg.eigh`` on a block's dense form, a
    lane ``y`` is ``Q a`` with amplitudes ``a = Q'y``, and
    ``T^t y = Q (lambda^t a)``.  So ``error_norms[t]^2`` is the sum over
    every mode of every block of ``(a_j lambda_j^t)^2``, where an arm
    mode's amplitude is the norm of its row of ``Q' D_i`` (the projections
    of its branches, ``_arm_amplitudes``), and ``sums[t] - 1'x0`` is the
    sum over the central modes of ``a_j lambda_j^t (scale' q_j)``.  The
    amplitudes ``a_j lambda_j^t`` are built by ``np.multiply.accumulate``
    over t, in chunks of about ``_HISTORY_FLOATS`` floats, each chunk
    starting from the last row of the one before; a mode of amplitude 0
    stays exactly 0 whatever ``lambda_j^t`` would be.  One ``einsum`` per
    record reduces a chunk, row by row, so the chunk length changes no
    bit.
    """
    scale, profile, deviations = _split(params, x, average)
    dense = center.dense()
    spectrum, q = _eigh(dense)
    spectra, amplitudes = [spectrum], [q.T @ profile]
    gains = scale @ q
    for strata, spread in deviations:
        spectrum, q = _eigh(dense[strata, strata])
        spectra.append(spectrum)
        amplitudes.append(_arm_amplitudes(q, spread))
    del deviations, spread
    error_norms, sums = np.empty(steps + 1), np.empty(steps + 1)
    values = np.concatenate(spectra)
    rows = max(1, min(error_norms.size, _HISTORY_FLOATS // values.size))
    powers = np.empty((rows, values.size))
    powers[0] = np.concatenate(amplitudes)
    for done in range(0, error_norms.size, rows):
        chunk = powers[: min(rows, error_norms.size - done)]
        chunk[1:] = values
        np.multiply.accumulate(chunk, axis=0, out=chunk)
        records = slice(done, done + len(chunk))
        np.sqrt(np.einsum("tj,tj->t", chunk, chunk), out=error_norms[records])
        np.einsum("tj,j->t", chunk[:, : gains.size], gains, out=sums[records])
        np.multiply(chunk[-1], values, out=powers[0])
    return error_norms, sums


# floats of an arm's projected branches that _arm_amplitudes squares and
# sums at a time; a budget of its own, so that no other buffer's size
# regroups the sums
_PROJECTION_FLOATS = 8192


def _eigh(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # numpy's refusal of a block is the product's, with numpy's message
    try:
        return np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise BlockError(*exc.args) from None


def _arm_amplitudes(q: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """The norm of each row of ``q' spread``, the projections of an arm's
    ``m_i x n_i`` deviations onto its block's eigenvectors, summed over a
    fixed chunk of branches at a time.

    Each projection is rounded on its own, so a mode that holds nothing
    gets an amplitude at rounding level of ``||spread||``, never the
    cancellation of a Gram form ``q_j' (spread spread') q_j``.
    """
    size, n = spread.shape
    width = max(1, _PROJECTION_FLOATS // size)
    projected = np.empty((size, min(width, n)))
    squares = np.zeros(size)
    for start in range(0, n, width):
        part = projected[:, : min(width, n - start)]
        np.matmul(q.T, spread[:, start : start + width], out=part)
        squares += np.einsum("jk,jk->j", part, part)
    return np.sqrt(squares)


def _stepped(
    params: TfsParams,
    center: Tridiagonal,
    x: np.ndarray,
    average: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The records of a run, after ``_split``, by advancing each arm's
    factor lanes and the profile round by round.

    Every lane takes ``center``'s rows; a factor lane has the center's
    row ``params.m1`` and its two couplings zeroed, so it runs on its
    arm's block.  A round multiplies the lower coupling, the diagonal and
    the upper coupling of every lane by read-only views of the previous
    round's rows ``s - 1``, ``s`` and ``s + 1``, and adds the three terms
    as ``(lower + diagonal) + upper``, the order of ``np.add.reduce``
    over them.  The rounds fill a history of about ``_HISTORY_FLOATS`` floats,
    at least one round and at most ``steps + 1``; each time it fills, one
    ``einsum`` per record reduces it and the next round starts over at its
    first slot.  Besides the history, a run holds the diagonal, the
    couplings and two term buffers, one lane array each.
    """
    scale, profile, deviations = _split(params, x, average)
    # the transposed R factor of D_i' has the Gram matrix of the n_i
    # branches in min(m_i, n_i) lanes; the deviations go once it is formed
    factors = [
        (strata, np.linalg.qr(spread.T, mode="r").T) for strata, spread in deviations
    ]
    del deviations
    error_norms, sums = np.empty(steps + 1), np.empty(steps + 1)
    size, m1 = center.size, params.m1
    # one row per stratum, one column per lane; a history slot holds a
    # round's lanes between a zero row above and one below
    width = 1 + max(factor.shape[1] for _, factor in factors)
    rounds = max(1, min(error_norms.size, _HISTORY_FLOATS // ((size + 2) * width)))
    history = np.zeros((rounds, size + 2, width))
    states = history[:, 1:-1]
    lanes = states[0]
    lanes[:, 0] = profile
    for strata, factor in factors:
        lanes[strata, 1 : 1 + factor.shape[1]] = factor
    # the lanes hold the set-up's profile and factors from here on
    del profile, factors, factor
    # each slot's rows s - 1, s and s + 1 for every stratum s, as one
    # read-only (3, size, width) view with contiguous planes
    taps = np.moveaxis(sliding_window_view(history, 3, axis=1), 3, 1)
    # the lower coupling, the diagonal and the upper coupling per lane:
    # row s's couplings are rows s and s + 1 of one array, and the factor
    # lanes, zeroed there on rows m1 and m1 + 1, never touch the center.
    # These are full lane arrays, though all factor lanes share one
    # column, for speed: one (size, 1) column broadcast over the lanes,
    # with the factor lanes' center cleared after each round, kept every
    # record's bits and cut the peak at (2e5, 2, 2e5, 3) from 9.2 to 6.4
    # state vectors, but numpy does not fuse a broadcast inner axis as
    # narrow as the lanes: on a shared 2-vCPU host with one BLAS thread
    # (medians of 15) it took 15.5-16.1 ms against 10.6-11.3 at
    # (40, 3, 30, 50) for 500 steps, and 39.7-40.0 ms against 17.9-19.0
    # at (2000, 3, 1500, 4) for 200
    couplings = np.zeros((size + 1, width))
    couplings[1:-1] = center.off_diagonal[:, None]
    couplings[m1 : m1 + 2, 1:] = 0.0
    lower, upper = couplings[:-1], couplings[1:]
    diagonal = np.empty((size, width))
    diagonal[:] = center.diagonal[:, None]
    diagonal[m1, 1:] = 0.0
    # the sum goes to its slot only once every term is formed, since a
    # one-slot history reads the slot it writes
    partial, term = np.empty((2, size, width))
    # fill the history slot by slot (slot 0 follows the last slot of the
    # previous fill, taps[-1]), then record the filled slots in two calls
    first = 1
    for done in range(0, error_norms.size, rounds):
        filled = states[: min(rounds, error_norms.size - done)]
        for k in range(first, len(filled)):
            rows = taps[k - 1]
            np.multiply(lower, rows[0], out=partial)
            np.multiply(diagonal, rows[1], out=term)
            np.add(partial, term, out=partial)
            np.multiply(upper, rows[2], out=term)
            np.add(partial, term, out=states[k])
        first = 0
        records = slice(done, done + len(filled))
        np.sqrt(np.einsum("tij,tij->t", filled, filled), out=error_norms[records])
        np.einsum("ti,i->t", filled[:, :, 0], scale, out=sums[records])
    return error_norms, sums


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


# rows that one ``%`` pass of _format_rows formats
_ROWS_PER_PASS = 4096


def _format_rows(row_format: str, columns: list) -> str:
    """``row_format % row`` for each row, cell ``i`` from ``columns[i]``,
    all columns of one length.

    One ``%`` pass formats ``_ROWS_PER_PASS`` rows from one repeated
    template, so no template or tuple grows with the row count.
    """
    width, size = len(columns), len(columns[0])
    template = row_format * min(size, _ROWS_PER_PASS)
    parts = []
    for start in range(0, size, _ROWS_PER_PASS):
        stop = min(start + _ROWS_PER_PASS, size)
        cells = [None] * (width * (stop - start))
        for index, column in enumerate(columns):
            cells[index::width] = column[start:stop]
        parts.append(template[: len(row_format) * (stop - start)] % tuple(cells))
    return "".join(parts)


def write_trajectory_csv(trajectory: Trajectory, stream: IO[str]) -> None:
    """Columns t, error_norm, sum_deviation; 10 significant digits.

    No cell (digits, .10g floats) needs quoting, so these are
    ``csv.writer``'s excel bytes, written in one call.
    """
    norms = trajectory.error_norms.tolist()
    stream.write("t,error_norm,sum_deviation\r\n" + _format_rows(
        "%d,%.10g,%.10g\r\n",
        [range(len(norms)), norms, trajectory.sum_deviations().tolist()],
    ))
