"""Stratified block decomposition of TFS weight matrices and spectral reports.

The branch-permuting symmetry lets a per-stratum discrete Fourier transform
block-diagonalize any orbit-weight matrix into three small blocks: an
``m1 x m1`` tridiagonal block repeated ``n1 - 1`` times, one central block of
size ``m1 + m2 + 1`` and an ``m2 x m2`` tridiagonal block repeated ``n2 - 1``
times.  All three blocks are tridiagonal in stratum order (they are
weighted paths), so every spectral quantity of the full matrix follows from
small tridiagonal eigensolves, even for very large networks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .topology import InvalidParameterError, TfsParams
from .weighting import OrbitWeights, WeightMatrix


class SpectrumSizeError(ValueError):
    """Dense eigendecomposition refused: matrix exceeds the size guard."""


@dataclass(frozen=True)
class StratifiedBlocks:
    """The three invariant blocks of an orbit-weight matrix.

    ``block_minus`` acts on each nonzero branch frequency of the first star
    (multiplicity ``n1 - 1``), ``block_plus`` mirrors it on the second star
    (multiplicity ``n2 - 1``) and ``block_center`` couples the two
    frequency-0 arm profiles through the central node (multiplicity 1).
    """

    params: TfsParams
    block_minus: np.ndarray
    block_center: np.ndarray
    block_plus: np.ndarray

    def __post_init__(self) -> None:
        for name in ("block_minus", "block_center", "block_plus"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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


def _arm_tridiagonals(
    params: TfsParams, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals and off-diagonals of the two arm blocks.

    ``w`` holds the orbit weights in ``params.orbit_labels`` order.
    """
    w1, w2 = w[: params.m1], w[params.m1 :]
    d1 = np.concatenate([[1.0 - w1[0]], 1.0 - w1[:-1] - w1[1:]])
    d2 = np.concatenate([1.0 - w2[:-1] - w2[1:], [1.0 - w2[-1]]])
    return d1, w1[:-1], d2, w2[1:]


def build_blocks(params: TfsParams, ow: OrbitWeights) -> StratifiedBlocks:
    """Construct the three stratified blocks directly from orbit weights.

    The arm blocks are the tridiagonal restrictions of the weight matrix to
    one branch; the central block contains both arm blocks coupled to the
    center through ``sqrt(n1) * w_{-1}`` and ``sqrt(n2) * w_1``.
    """
    w = ow.as_array(params)
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    d1, e1, d2, e2 = _arm_tridiagonals(params, w)
    minus = np.diag(d1)
    if m1 > 1:
        minus += np.diag(e1, 1) + np.diag(e1, -1)
    plus = np.diag(d2)
    if m2 > 1:
        plus += np.diag(e2, 1) + np.diag(e2, -1)
    size = m1 + m2 + 1
    cen = np.zeros((size, size))
    cen[:m1, :m1] = minus
    cen[m1 + 1 :, m1 + 1 :] = plus
    w_minus, w_plus = w[m1 - 1], w[m1]
    cen[m1, m1] = 1.0 - n1 * w_minus - n2 * w_plus
    cen[m1 - 1, m1] = cen[m1, m1 - 1] = math.sqrt(n1) * w_minus
    cen[m1 + 1, m1] = cen[m1, m1 + 1] = math.sqrt(n2) * w_plus
    return StratifiedBlocks(
        params=params, block_minus=minus, block_center=cen, block_plus=plus
    )


def _tridiagonal_eigenvalues(block: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric tridiagonal block."""
    if block.shape[0] == 1:
        return np.array([block[0, 0]])
    return eigh_tridiagonal(
        np.diag(block).copy(), np.diag(block, 1).copy(), eigvals_only=True
    )


def block_spectrum(blocks: StratifiedBlocks) -> SpectralReport:
    """Spectrum of the full matrix from the blocks, multiplicities symbolic.

    Every block goes through the symmetric-tridiagonal eigensolver.
    Eigenvalues are never replicated in memory.
    """
    mult_minus, _, mult_plus = blocks.multiplicities
    pairs: list[tuple[float, int]] = []
    if mult_minus > 0:
        pairs += [
            (float(v), mult_minus)
            for v in _tridiagonal_eigenvalues(blocks.block_minus)
        ]
    pairs += [
        (float(v), 1) for v in _tridiagonal_eigenvalues(blocks.block_center)
    ]
    if mult_plus > 0:
        pairs += [
            (float(v), mult_plus)
            for v in _tridiagonal_eigenvalues(blocks.block_plus)
        ]
    return SpectralReport.from_pairs(pairs)


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
        np.concatenate(
            [
                _tridiagonal_eigenvalues(blocks.block_minus),
                _tridiagonal_eigenvalues(blocks.block_plus),
            ]
        )
    )
    cen = _tridiagonal_eigenvalues(blocks.block_center)
    lower = float(np.max(cen[:-1] - arm))
    upper = float(np.max(arm - cen[1:]))
    return max(0.0, lower, upper)
