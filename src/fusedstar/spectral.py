"""Stratified block decomposition of TFS weight matrices and spectral reports.

The branch-permuting symmetry lets a per-stratum discrete Fourier transform
block-diagonalize any orbit-weight matrix into three small blocks: an
``m1 x m1`` tridiagonal block repeated ``n1 - 1`` times, one central block of
size ``m1 + m2 + 1`` and an ``m2 x m2`` tridiagonal block repeated ``n2 - 1``
times.  All three blocks are tridiagonal in stratum order (they are
weighted paths) and are stored as their two diagonals, so every spectral
quantity of the full matrix follows from small tridiagonal eigensolves, even
for very large networks.  ``central_tridiagonal`` is the one formula for
the entries: it writes the central block from orbit weights, for one shape
or a padded stack of shapes, and the arm blocks are its leading ``m1`` and
trailing ``m2`` rows.  Where only ``lambda2``, ``lambda_min`` and the SLEM
are needed, ``block_extremes`` finds just the extreme eigenvalues by
Sturm-sequence bisection; ``count_eigenvalues_below`` counts eigenvalues
below shifts by LDL^T inertia over a stack of tridiagonals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .topology import InvalidParameterError, TfsParams
from .weighting import OrbitWeights, WeightMatrix

# LAPACK's setting for the most accurate eigenvalues from dstebz
_ABSTOL = 2.0 * np.finfo(float).tiny
_BY_INDEX = 2  # dstebz RANGE 'I'


class SpectrumSizeError(ValueError):
    """Dense eigendecomposition refused: matrix exceeds the size guard."""


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: its diagonal and first off-diagonal."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "off_diagonal"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.diagonal.ndim != 1 or self.off_diagonal.shape != (
            self.diagonal.size - 1,
        ):
            raise ValueError(
                f"a diagonal of shape {self.diagonal.shape} needs an "
                f"off-diagonal one shorter, got {self.off_diagonal.shape}"
            )

    @property
    def size(self) -> int:
        return self.diagonal.size

    def dense(self) -> np.ndarray:
        """The matrix as a dense array (oracle route, O(size^2) memory)."""
        mat = np.diag(self.diagonal)
        if self.size > 1:
            off = self.off_diagonal
            mat += np.diag(off, 1) + np.diag(off, -1)
        return mat

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(size)."""
        y = self.diagonal * x
        y[:-1] += self.off_diagonal * x[1:]
        y[1:] += self.off_diagonal * x[:-1]
        return y

    def spectrum(self) -> np.ndarray:
        """All eigenvalues, ascending (the full-spectrum reference route)."""
        if self.size == 1:
            return self.diagonal.copy()
        return eigh_tridiagonal(
            self.diagonal, self.off_diagonal, eigvals_only=True
        )

    def eigenvalues(self, first: int, last: int) -> np.ndarray:
        """Ascending eigenvalues ``first..last`` (0-based, inclusive), by
        Sturm-sequence bisection (LAPACK ``dstebz``), O(size) per step."""
        # the wrapper rejects an empty off-diagonal; LAPACK reads none at
        # size 1
        off = self.off_diagonal if self.size > 1 else np.zeros(1)
        m, w, _, _, info = lapack.dstebz(
            self.diagonal, off, _BY_INDEX, 0.0, 0.0, first + 1, last + 1,
            _ABSTOL, "E",
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz returned info = {info}")
        return w[:m]

    def extremes(self) -> np.ndarray:
        """The lowest and the top two eigenvalues, ascending (all of them
        when there are at most three)."""
        n = self.size
        if n <= 3:
            return self.eigenvalues(0, n - 1)
        return np.concatenate(
            [self.eigenvalues(0, 0), self.eigenvalues(n - 2, n - 1)]
        )

    def count_below(self, x: float) -> int:
        """Number of eigenvalues below ``x``: ``count_eigenvalues_below`` on
        a stack of one, with its tie rule (an eigenvalue that meets ``x``
        exactly, as a zero pivot, counts as below)."""
        counts = count_eigenvalues_below(
            self.diagonal[:, None],
            self.off_diagonal[:, None] ** 2,
            np.asarray(x, dtype=float),
        )
        return int(counts[0])


@dataclass(frozen=True)
class StratifiedBlocks:
    """The three invariant blocks of an orbit-weight matrix, as tridiagonals.

    ``minus`` acts on each nonzero branch frequency of the first star
    (multiplicity ``n1 - 1``), ``plus`` mirrors it on the second star
    (multiplicity ``n2 - 1``) and ``center`` couples the two frequency-0
    arm profiles through the central node (multiplicity 1), in stratum
    order ``-m1..0..m2``.  ``minus`` and ``plus`` are the leading ``m1``
    and trailing ``m2`` rows of ``center``.
    """

    params: TfsParams
    minus: Tridiagonal
    center: Tridiagonal
    plus: Tridiagonal

    @property
    def multiplicities(self) -> tuple[int, int, int]:
        return (self.params.n1 - 1, 1, self.params.n2 - 1)


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues with multiplicities (descending) and derived quantities."""

    eigenvalues: tuple[tuple[float, int], ...]
    lambda2: float
    lambda_min: float
    slem: float
    theta2: float

    @classmethod
    def from_pairs(
        cls, pairs: list[tuple[float, int]]
    ) -> "SpectralReport":
        pairs = sorted(
            ((float(v), int(m)) for v, m in pairs if m > 0), reverse=True
        )
        if not pairs:
            raise ValueError("no eigenvalues")
        top_value, top_mult = pairs[0]
        if top_mult > 1 or len(pairs) == 1:
            lambda2 = top_value
        else:
            lambda2 = pairs[1][0]
        lambda_min = pairs[-1][0]
        slem = max(lambda2, -lambda_min)
        theta2 = math.acos(min(1.0, max(-1.0, lambda2)))
        return cls(
            eigenvalues=tuple(pairs),
            lambda2=lambda2,
            lambda_min=lambda_min,
            slem=slem,
            theta2=theta2,
        )


def perron_vector(params: TfsParams) -> np.ndarray:
    """Unit eigenvector of the central block at eigenvalue 1.

    Entries are sqrt(n1) on the first-star arm, 1 at the center and
    sqrt(n2) on the second-star arm, normalized by sqrt(n_nodes).
    """
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    v = np.concatenate(
        [
            np.full(m1, math.sqrt(n1)),
            [1.0],
            np.full(m2, math.sqrt(n2)),
        ]
    )
    return v / math.sqrt(params.n_nodes)


def block_structure(params: TfsParams) -> tuple[int, ...]:
    """Block sizes along the diagonal of the transported matrix."""
    return (
        (params.m1,) * (params.n1 - 1)
        + (params.m1 + params.m2 + 1,)
        + (params.m2,) * (params.n2 - 1)
    )


def stratification_basis(params: TfsParams) -> np.ndarray:
    """Unitary change of basis that block-diagonalizes orbit-weight matrices.

    Columns are per-stratum DFT vectors, ordered to make the transported
    matrix block diagonal with ``block_structure(params)`` sizes: first the
    ``n1 - 1`` copies of the first-star block, then the central block, then
    the ``n2 - 1`` copies of the second-star block.  For n1 = n2 = 1 this is
    the identity.
    """
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    n = params.n_nodes
    center = m1 * n1
    phi = np.zeros((n, n), dtype=complex)

    def star1_rows(i: int) -> slice:
        base = (i + m1) * n1
        return slice(base, base + n1)

    def star2_rows(i: int) -> slice:
        base = center + 1 + (i - 1) * n2
        return slice(base, base + n2)

    omega1 = np.exp(2j * math.pi * np.arange(1, n1 + 1) / n1)
    omega2 = np.exp(2j * math.pi * np.arange(1, n2 + 1) / n2)
    col = 0
    for mu in range(1, n1):
        dft = omega1**mu / math.sqrt(n1)
        for i in range(-m1, 0):
            phi[star1_rows(i), col] = dft
            col += 1
    for i in range(-m1, 0):
        phi[star1_rows(i), col] = 1.0 / math.sqrt(n1)
        col += 1
    phi[center, col] = 1.0
    col += 1
    for i in range(1, m2 + 1):
        phi[star2_rows(i), col] = 1.0 / math.sqrt(n2)
        col += 1
    for mu in range(1, n2):
        dft = omega2**mu / math.sqrt(n2)
        for i in range(1, m2 + 1):
            phi[star2_rows(i), col] = dft
            col += 1
    return phi


def central_tridiagonal(
    params: TfsParams, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the central block from orbit weights.

    ``w`` holds the orbit weights in ``params.orbit_labels`` order along
    its first axis: weight ``k`` joins rows (strata) ``k`` and ``k + 1``,
    and the center is row ``m1``.  Each diagonal entry is 1 minus the
    weights of its stratum's two orbits (one at a leaf); the center's is
    ``1 - n1 w_{-1} - n2 w_1``.  The two couplings at the center are
    ``sqrt(n1) w_{-1}`` and ``sqrt(n2) w_1``, and every other off-diagonal
    entry is its orbit's weight.  The arm blocks are the leading ``m1``
    and trailing ``m2`` rows.

    For a stack of shapes, ``w`` has one column per shape and the fields
    of ``params`` are arrays over the columns (``m1`` integral); zero
    weights past a shape's last orbit make decoupled padding rows with
    diagonal 1.  Time and memory are O(rows) per shape.
    """
    w = np.asarray(w, dtype=float)
    lanes = w.reshape(w.shape[0], -1)
    ends = np.zeros((1, lanes.shape[1]))
    sides = np.concatenate([ends, lanes, ends])
    diagonal = 1.0 - sides[:-1] - sides[1:]
    off = lanes.copy()
    lane = np.arange(lanes.shape[1])
    m1 = np.asarray(params.m1).astype(np.int64)
    n1, n2 = (np.asarray(n, dtype=float) for n in (params.n1, params.n2))
    w_minus, w_plus = lanes[m1 - 1, lane], lanes[m1, lane]
    diagonal[m1, lane] = 1.0 - n1 * w_minus - n2 * w_plus
    off[m1 - 1, lane] = np.sqrt(n1) * w_minus
    off[m1, lane] = np.sqrt(n2) * w_plus
    return diagonal.reshape((-1,) + w.shape[1:]), off.reshape(w.shape)


def build_blocks(params: TfsParams, ow: OrbitWeights) -> StratifiedBlocks:
    """Construct the three stratified blocks directly from orbit weights.

    The central block comes from ``central_tridiagonal``; the arm blocks
    are its leading ``m1`` and trailing ``m2`` rows, the tridiagonal
    restrictions of the weight matrix to one branch.  Time and memory are
    O(m1 + m2).
    """
    diagonal, off = central_tridiagonal(params, ow.as_array(params))
    m1 = params.m1
    return StratifiedBlocks(
        params=params,
        minus=Tridiagonal(diagonal[:m1], off[: m1 - 1]),
        center=Tridiagonal(diagonal, off),
        plus=Tridiagonal(diagonal[m1 + 1 :], off[m1 + 1 :]),
    )


def count_eigenvalues_below(
    diagonals: np.ndarray, couplings: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """Eigenvalues below each shift of each tridiagonal in a stack.

    ``diagonals`` has one row per matrix row; ``couplings`` (one row
    fewer) holds the squared off-diagonals and ``shifts`` broadcasts
    against a row.  By Sylvester's law of inertia the count is the number
    of negative pivots of ``T - xI = LDL^T``, which Kahan's recurrence
    ``d_j = (a_j - x) - b_{j-1}^2 / d_{j-1}`` gives in one pass.

    Tie rule, LAPACK's (``dstebz``): a pivot smaller in magnitude than
    ``pivmin = tiny * max(1, max b^2)``, an exact zero included, is
    replaced by ``-pivmin``.  It counts as negative and never divides.
    Each pivot falls as the shift rises, so this is the count just above
    the shift: an eigenvalue that meets a shift exactly, as a zero pivot,
    counts as below it.
    """
    floor = max(1.0, float(np.max(couplings, initial=0.0)))
    pivmin = np.finfo(float).tiny * floor
    shape = np.broadcast_shapes(diagonals.shape[1:], shifts.shape)
    below = np.zeros(shape, dtype=np.int64)
    # the loop writes into these buffers and allocates nothing
    pivot, previous, scratch = (np.empty(shape) for _ in range(3))
    negative = np.empty(shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j, diagonal in enumerate(diagonals):
            np.subtract(diagonal, shifts, out=pivot)
            if j:
                pivot -= np.divide(couplings[j - 1], previous, out=scratch)
            np.less(np.abs(pivot, out=scratch), pivmin, out=negative)
            np.copyto(pivot, -pivmin, where=negative)
            below += np.less(pivot, 0.0, out=negative)
            pivot, previous = previous, pivot
    return below


def _report(
    blocks: StratifiedBlocks, eigenvalues: Callable[[Tridiagonal], np.ndarray]
) -> SpectralReport:
    pairs: list[tuple[float, int]] = []
    for block, mult in zip(
        (blocks.minus, blocks.center, blocks.plus), blocks.multiplicities
    ):
        if mult > 0:
            pairs += [(float(v), mult) for v in eigenvalues(block)]
    return SpectralReport.from_pairs(pairs)


def block_spectrum(blocks: StratifiedBlocks) -> SpectralReport:
    """Spectrum of the full matrix from the blocks, multiplicities symbolic.

    Every block goes through the symmetric-tridiagonal eigensolver.
    Eigenvalues are never replicated in memory.  This is the full-spectrum
    reference route; ``block_extremes`` gives the same ``lambda2``,
    ``lambda_min`` and ``slem`` from a few eigenvalues.
    """
    return _report(blocks, Tridiagonal.spectrum)


def block_extremes(blocks: StratifiedBlocks) -> SpectralReport:
    """``lambda2``, ``lambda_min`` and ``slem`` of the full matrix from the
    extreme eigenvalues of its blocks.

    The two largest and the smallest eigenvalue of the full matrix are
    among the lowest and the top two eigenvalues of the blocks, so only
    those are computed, by bisection; the report's ``eigenvalues`` lists
    just them.
    """
    return _report(blocks, Tridiagonal.extremes)


def full_spectrum(matrix: WeightMatrix, max_size: int = 5000) -> SpectralReport:
    """Dense eigendecomposition of an assembled matrix (oracle route).

    Guarded by ``max_size``; prefer the block route for large networks.
    """
    entries = matrix.entries
    n = entries.shape[0]
    if n > max_size:
        raise SpectrumSizeError(
            f"matrix of size {n} exceeds the dense-eigensolve guard {max_size}"
        )
    eigs = np.linalg.eigvalsh(entries)
    return SpectralReport.from_pairs([(float(v), 1) for v in eigs])


def interlacing_check(blocks: StratifiedBlocks) -> float:
    """Largest violation of the arm/center eigenvalue interlacing (0 if none).

    With ascending eigenvalues b_1..b_M of the two arm blocks together and
    c_1..c_{M+1} of the central block, c_j <= b_j <= c_{j+1} must hold.
    Requires n1, n2 >= 2 so that both arm blocks actually occur.
    """
    params = blocks.params
    if params.n1 < 2 or params.n2 < 2:
        raise InvalidParameterError(
            "interlacing is only defined for n1, n2 >= 2"
        )
    arm = np.sort(
        np.concatenate([blocks.minus.spectrum(), blocks.plus.spectrum()])
    )
    cen = blocks.center.spectrum()
    lower = float(np.max(cen[:-1] - arm))
    upper = float(np.max(arm - cen[1:]))
    return max(0.0, lower, upper)
