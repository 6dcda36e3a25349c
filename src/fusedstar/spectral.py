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
or a stack of shapes of one length, and the arm blocks are its leading
``m1`` and trailing ``m2`` rows.  Where only ``lambda2``, ``lambda_min``
and the SLEM are needed, ``block_extremes`` finds just the extreme
eigenvalues: a block of at most ``_DENSE_ROWS`` rows by
``np.linalg.eigvalsh`` on its dense form (checked by counts where that is
not accurate enough), a larger one by bisection on a run-compressed Sturm
count.  ``build_blocks`` builds the blocks of one ``OrbitWeights`` once
and each block keeps the eigenvalues it has found, so one solve does this
work once.  Every block has equal rows except at its leaves, the center
and the center's neighbours, and along a run of equal rows the pivots of
``T - xI = LDL^T`` are the continuants ``beta^k sin(k phi + psi)`` (the
characteristic polynomials the optimum is derived from), so the count
costs O(1) in the branch length.  ``count_runs_below`` is the same count
over a stack of run-length-encoded tridiagonals, vectorised over the
lanes, and ``count_central_below`` builds a central block's count from
its two arms'; the optimizer proves every optimum with them.
``count_eigenvalues_below`` counts row by row by LDL^T inertia over a
stack of tridiagonals; it is the reference for both run counts.  This
module does not need scipy: the full-spectrum reference that does,
``fusedstar.reference.tridiagonal_spectrum``, loads it on first use.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .topology import TfsParams
from .weighting import OrbitWeights, WeightMatrix

# A block of at most this many rows takes its eigenvalues from a dense
# ``np.linalg.eigvalsh``; a larger one bisects on run-compressed counts.
# The two routes cost the same near here: on a shared 2-vCPU Xeon
# (2.1 GHz, 1 BLAS thread), the lowest and top two eigenvalues of an arm
# block under optimal or Metropolis weights took 0.17 ms dense and 0.20 ms
# by bisection at 64 rows, and 0.23-0.24 ms dense and 0.18 ms by bisection
# at 72 rows.
_DENSE_ROWS = 64

# runs of at least this many equal rows take the closed form; shorter
# ones are stepped row by row like the rest
_MIN_RUN = 8

_NON_FINITE = "a block with non-finite entries has no eigenvalues"
_TINY = float(np.finfo(float).tiny)
# dstebz's convergence test: an interval is done once it is narrower than
# two ulps of its larger end (or than pivmin)
_EPS = float(np.finfo(float).eps)
_RELATIVE_WIDTH = 2.0 * _EPS
# pivots are clamped below this magnitude, so that regula falsi can
# interpolate between two of them
_HUGE_PIVOT = 2.0**1000


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
        """The matrix as a dense array (O(size^2) memory)."""
        n = self.size
        mat = np.zeros((n, n))
        mat.flat[:: n + 1] = self.diagonal
        mat.flat[1 :: n + 1] = self.off_diagonal
        mat.flat[n :: n + 1] = self.off_diagonal
        return mat

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product in O(size)."""
        y = self.diagonal * x
        y[:-1] += self.off_diagonal * x[1:]
        y[1:] += self.off_diagonal * x[:-1]
        return y

    def eigenvalues(self, first: int, last: int) -> np.ndarray:
        """Ascending eigenvalues ``first..last`` (0-based, inclusive), as a
        new array."""
        return self._eigenvalues(range(first, last + 1))

    def extremes(self) -> np.ndarray:
        """The lowest and the top two eigenvalues, ascending (all of them
        when there are at most three), as a new array.

        Each eigenvalue is found once per block: this and ``eigenvalues``
        keep what they find by index and read it back on the next call.
        """
        n = self.size
        return self._eigenvalues(range(n) if n <= 3 else (0, n - 2, n - 1))

    def _eigenvalues(self, indices: Iterable[int]) -> np.ndarray:
        indices = list(indices)
        found = self._found
        missing = [index for index in indices if index not in found]
        if missing:
            found.update(zip(missing, self._solve(missing)))
        return np.array([found[index] for index in indices], dtype=float)

    @functools.cached_property
    def _found(self) -> dict[int, float]:
        return {}

    def _solve(self, indices: list[int]) -> list[float]:
        if self.size > _DENSE_ROWS:
            return self._runs.eigenvalues(indices)
        dense = self.dense()
        if not np.isfinite(dense).all():
            raise np.linalg.LinAlgError(_NON_FINITE)
        values = np.linalg.eigvalsh(dense)
        guesses = values[indices].tolist()
        # LAPACK's dense solver is accurate to a few eps ||T||: to a few
        # ulps near ||T||, but not far below it, where the counts bisect
        # to their relative accuracy (as for lambda_min at (1, 10^12, 1, 2)
        # under Metropolis weights)
        floor = 0.125 * max(-values[0], values[-1])
        if min(map(abs, guesses)) >= floor:
            return guesses
        return self._runs.eigenvalues(indices, guesses)

    def count_below(self, shifts: float | np.ndarray) -> int | np.ndarray:
        """Number of eigenvalues below each shift, from the run-compressed
        Sturm count: an int for one shift, an array for an array.

        Away from rounding level at an eigenvalue it equals
        ``count_eigenvalues_below`` on a stack of one, whose tie rule it
        keeps on stepped rows and decoupled runs (an eigenvalue that meets
        the shift exactly, as a zero pivot, counts as below).
        """
        x = np.asarray(shifts, dtype=float)
        runs = self._runs
        counts = np.array(
            [runs.count(v / runs.scale)[0] for v in x.ravel().tolist()],
            dtype=np.int64,
        ).reshape(x.shape)
        return int(counts) if counts.ndim == 0 else counts

    @functools.cached_property
    def _runs(self) -> "_RunCount":
        return _RunCount(self.diagonal, self.off_diagonal)


class _RunCount:
    """Sturm count and bisection for one tridiagonal, with its runs of
    equal rows in closed form.

    The matrix is scaled by the power of two at or above its largest
    entry, exactly, so that no squared coupling overflows.  Row ``j >= 1``
    is the pair ``(a_j, b_{j-1}^2)``; a run is ``_MIN_RUN`` or more equal
    consecutive rows, and every other row, row 0 included, is one step of
    Kahan's recurrence ``d_j = (a_j - x) - b_{j-1}^2 / d_{j-1}`` with
    LAPACK's floor (a pivot below ``pivmin`` in magnitude becomes
    ``-pivmin``).  Along a run with ``|b| = beta > 0`` the pivots are
    ``d_j = beta u_j`` with ``u_j = tau - 1 / u_{j-1}`` and
    ``tau = (a - x) / beta``, a Moebius map:

    - inside the band, ``tau = 2 cos(phi)``, ``u_j = sin(theta_{j+1}) /
      sin(theta_j)`` with ``theta_j = j phi + psi`` and ``psi`` in
      ``(0, pi)`` set by the entering pivot; the negative pivots of
      ``L`` rows are the multiples of pi in ``(theta_1, theta_{L+1}]``;
    - outside it, ``|tau| = 2 cosh(eta)``; after the sign flip that makes
      ``tau`` positive, ``u_j = sinh(theta_{j+1}) / sinh(theta_j)`` or the
      same with ``cosh``, so a run holds at most one sign change, at the
      ``j`` with ``j < z <= j + 1`` for ``z = -psi / eta``.

    The last pivot's sign is taken from the count, so the pivot handed to
    the next row always agrees with it.  The cost of a count is O(number
    of runs and stepped rows), whatever the run lengths.
    """

    def __init__(self, diagonal: np.ndarray, off_diagonal: np.ndarray):
        self.size = n = diagonal.size
        b = np.abs(off_diagonal)
        top = max(float(np.abs(diagonal).max()), float(b.max(initial=0.0)))
        if not math.isfinite(top):
            raise np.linalg.LinAlgError(_NON_FINITE)
        self.scale = 2.0 ** math.frexp(top)[1] if top > 0.0 else 1.0
        if self.scale != 1.0:
            diagonal, b = diagonal / self.scale, b / self.scale
        # every entry is at most 1 in magnitude now, so ||T|| <= 3 and
        # LAPACK's pivmin, tiny * max(1, max b^2), is tiny
        self.diagonal, self.couplings = diagonal, b
        if n <= _DENSE_ROWS:
            # a block this short only confirms the dense route's values,
            # row by row
            c = [0.0, *(b * b).tolist()]
            self.steps = list(zip(diagonal.tolist(), c, [0.0] * n, [1] * n))
            return
        # rows 1.. start a new key where a_j or b_{j-1}^2 changes; only
        # the entries that start a run or make a step are read
        changes = (diagonal[2:] != diagonal[1:-1]) | (b[1:] != b[:-1])
        bounds = [1, *(np.flatnonzero(changes) + 2).tolist(), n]
        a, b = diagonal.item, b.item
        steps = [(a(0), 0.0, 0.0, 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo >= _MIN_RUN:
                beta = b(lo - 1)
                steps.append((a(lo), beta * beta, beta, hi - lo))
            else:
                steps += [(a(j), b(j - 1) * b(j - 1), 0.0, 1) for j in range(lo, hi)]
        self.steps = steps

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float]:
        """Bounds on the scaled spectrum, widened as in dstebz."""
        sides = np.zeros(self.size + 1)
        sides[1:-1] = self.couplings
        radius = sides[:-1] + sides[1:]
        low = float((self.diagonal - radius).min())
        high = float((self.diagonal + radius).max())
        fudge = 2.0 * (_EPS * max(-low, high) * self.size + 2.0 * _TINY)
        return low - fudge, high + fudge

    def count(self, x: float) -> tuple[int, float]:
        """Eigenvalues of the scaled matrix below the scaled shift ``x``,
        and the last pivot."""
        pivmin = _TINY
        below = 0
        d = math.inf  # no row above row 0
        for a, c, beta, length in self.steps:
            t = a - x
            if length == 1:
                d = t - c / d
                if abs(d) < pivmin:
                    d = -pivmin
                below += d < 0.0
                continue
            if c == 0.0:
                # decoupled rows: every pivot is a - x
                d = t if abs(t) >= pivmin else -pivmin
                below += length * (d < 0.0)
                continue
            negatives, u, last_negative = _run(t / (2.0 * beta), d / beta, length)
            below += negatives
            d = min(max(beta * u, pivmin), _HUGE_PIVOT)
            if last_negative:
                d = -d
        return below, d

    def eigenvalues(
        self, indices: list[int], guesses: list[float] = ()
    ) -> list[float]:
        """Ascending eigenvalues at ``indices``, unscaled.

        ``guesses``, if given, are the same eigenvalues from a solver
        accurate to about ``eps ||T||``.  A guess stands if the counts eight
        ulps either side of it hold its index between them: near ``||T||``
        the counts resolve no finer.  Otherwise, as for an eigenvalue far
        below ``||T||``, counts ``8 n eps ||T||`` either side of it start
        the search.  A wrong guess costs counts, not accuracy.

        The search holds each eigenvalue in an interval ``(low, high]``
        that shrinks until it is two ulps wide, as in dstebz; every count
        is kept, and the counts made for one index narrow the start of the
        next.  Bisection runs until the interval holds no eigenvalue of
        the matrix without its last row.  The last pivot then falls
        continuously through zero across the interval, and regula falsi on
        it (the Illinois variant) ends the search in a few steps; while an
        end's pivot is floored to pivmin, the search bisects instead.
        """
        count = self.count
        counted: list[tuple[float, int, float]] = []
        found = {}
        reach = 24 * self.size * _EPS  # 8 n eps ||T||
        for index, guess in zip(indices, guesses):
            x = guess / self.scale
            ulps = 8.0 * math.ulp(x)
            counted += [(y, *count(y)) for y in (x - ulps, x + ulps)]
            if counted[-2][1] <= index < counted[-1][1]:
                found[index] = guess
            else:
                counted += [(y, *count(y)) for y in (x - reach, x + reach)]
        for index in indices:
            if index not in found:
                found[index] = self._search(index, counted) * self.scale
        return [found[index] for index in indices]

    def _search(
        self, index: int, counted: list[tuple[float, int, float]]
    ) -> float:
        # an end of the interval: shift, count and last pivot there (the
        # Gershgorin ends are not counted)
        (low, high), below_low, below_high = self.gershgorin, -1, -1
        f_low = f_high = 0.0
        for x, below, d in counted:
            if below > index:
                if x < high:
                    high, below_high, f_high = x, below, d
            elif x > low:
                low, below_low, f_low = x, below, d
        moved = -1  # the end that the last secant step replaced
        while True:
            width = _RELATIVE_WIDTH * (high if high > -low else -low)
            width = width if width > _TINY else _TINY
            if high - low <= width:
                break
            # a pivot floored to pivmin says nothing of the distance to
            # the eigenvalue: at an exact eigenvalue the floored end would
            # draw every secant point, half a width from it each time
            secant = (
                below_low == index and below_high == index + 1
                and f_low > _TINY and -f_high > _TINY
            )
            if secant:
                # at least half the final width inside either end, so that
                # a secant point on the eigenvalue closes the interval on
                # the next count
                x = low + (high - low) * (f_low / (f_low - f_high))
                x = min(max(x, low + 0.5 * width), high - 0.5 * width)
            else:
                x = 0.5 * (low + high)
                if not low < x < high:
                    break
            below, d = self.count(x)
            counted.append((x, below, d))
            side = below > index
            if side:
                high, below_high, f_high = x, below, d
                if secant and moved == side:
                    f_low *= 0.5  # one end kept twice (Illinois)
            else:
                low, below_low, f_low = x, below, d
                if secant and moved == side:
                    f_high *= 0.5
            moved = side if secant else -1
        return 0.5 * (low + high)


def _run(g: float, u0: float, length: int) -> tuple[int, float, bool]:
    """One run of ``length`` equal rows in closed form.

    ``g = (a - x) / (2 beta)`` and ``u0`` is the entering pivot over
    ``beta``.  Returns the number of negative pivots, the magnitude of the
    last pivot over ``beta`` and whether that pivot is negative.
    """
    e = u0 - g
    if abs(g) < 1.0:
        s = math.sqrt((1.0 - g) * (1.0 + g))
        phi = math.atan2(s, g)
        theta = length * phi + math.atan2(s, e)  # theta_L
        k_last = math.floor(theta / math.pi)
        k_end = math.floor((theta + phi) / math.pi)
        tangent = math.tan(theta)
        u = abs(g + s / tangent) if tangent else math.inf
        # theta_1 lies in (0, 2 pi), past pi exactly when u0 < 0
        return k_end - (u0 < 0.0), u, k_end > k_last
    # mirror u -> -u so that the run's tau is 2 cosh(eta) >= 2
    sign = 1.0 if g > 0.0 else -1.0
    g, e, entering_positive = abs(g), sign * e, sign * u0 > 0.0
    sh = math.sqrt(g - 1.0) * math.sqrt(g + 1.0)  # sinh(eta)
    if sh > 0.0:
        eta = math.asinh(sh)
        ratio = math.tanh(eta * length) / sh
        z = -math.atanh(sh / e) / eta if abs(e) > sh else -math.inf
    else:  # tau = 2: u_j = 1 + 1 / (j + 1 / e)
        ratio = float(length)
        z = -1.0 / e if e else -math.inf
    # u_L = g + sh coth(theta_L), or with tanh, in one form
    if abs(e) <= 1.0:
        numerator, denominator = e + sh * (sh * ratio), 1.0 + e * ratio
    else:
        numerator, denominator = 1.0 + sh * (sh * ratio) / e, 1.0 / e + ratio
    u = abs(g + numerator / denominator) if denominator else math.inf
    # a crossing before row 1 can only be rounding when u0 > 0: row 1 has it
    crossing = entering_positive and 0.0 < z <= length + 1
    last = crossing and z > length
    if sign > 0.0:
        return int(crossing), u, last
    return length - crossing, u, not last


def _runs(g, u0, length):
    """``_run`` over arrays of runs, each on its side of the band."""
    inside = np.abs(g) < 1.0
    if inside.all():
        return _band_runs(g, u0, length)
    sides = _band_runs(g, u0, length), _off_band_runs(g, u0, length)
    return tuple(np.where(inside, band, off) for band, off in zip(*sides))


def _band_runs(g, u0, length):
    # _run inside the band, |g| < 1
    s = np.sqrt((1.0 - g) * (1.0 + g))
    phi = np.arctan2(s, g)
    theta = np.arctan2(s, u0 - g)
    theta += length * phi
    k_end = np.floor((theta + phi) / np.pi)
    last_negative = k_end > np.floor(theta / np.pi)
    u = np.abs(g + s / np.tan(theta))
    return k_end - (u0 < 0.0), u, last_negative


def _off_band_runs(g, u0, length):
    # _run outside the band, |g| >= 1, mirrored where g < 0
    mirrored = g < 0.0
    sign = np.where(mirrored, -1.0, 1.0)
    g, e = np.abs(g), sign * (u0 - g)
    sh = np.sqrt(g - 1.0) * np.sqrt(g + 1.0)
    eta = np.arcsinh(sh)
    edge = sh == 0.0  # tau = 2: u_j = 1 + 1 / (j + 1 / e)
    ratio = np.where(edge, length, np.tanh(eta * length) / sh)
    far = np.abs(e) > sh  # the pivots cross zero somewhere: at row z
    # at the edge, 1 / e = 0 puts the crossing at infinity
    z = np.where(edge, -1.0 / e, np.where(far, -np.arctanh(sh / e) / eta, -np.inf))
    near = np.abs(e) <= 1.0
    stretch = sh * (sh * ratio)
    numerator = np.where(near, e + stretch, 1.0 + stretch / e)
    denominator = np.where(near, 1.0 + e * ratio, 1.0 / e + ratio)
    u = np.where(denominator != 0.0, np.abs(g + numerator / denominator), np.inf)
    crossing = (sign * u0 > 0.0) & (0.0 < z) & (z <= length + 1.0)
    last = crossing & (z > length)
    return np.where(mirrored, length - crossing, crossing), u, last != mirrored


def count_runs_below(
    diagonals: Iterable, couplings: Iterable, lengths: Iterable, shifts
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues below each shift of each run-length-encoded tridiagonal
    in a stack, and the last pivot of each.

    Each argument holds one entry per encoded row, an array over the lanes
    or a number.  Row ``j`` stands for ``lengths[j]`` equal rows of
    diagonal ``diagonals[j]``, each coupled to the row before it by the
    square root of ``couplings[j]``: 0 skips it, 1 is a step of Kahan's
    recurrence and more a run in ``_run``'s closed form (a decoupled run
    repeats its one pivot), so a count costs O(encoded rows).  The tie
    rule is ``count_eigenvalues_below``'s, with ``pivmin`` over the stack,
    and away from rounding level at an eigenvalue so are the counts.
    """
    pivmin = _pivmin(couplings)
    below, pivot = 0, np.inf  # no row before the first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, c, length in zip(diagonals, couplings, lengths):
            below, pivot = _count_row(a - shifts, c, length, below, pivot, pivmin)
    return np.asarray(below).astype(np.int64), np.asarray(pivot, dtype=float)


def count_central_below(center, to_arms, arms, shifts) -> np.ndarray:
    """Eigenvalues below ``shifts`` of each central block in a stack and of
    its two arm blocks together, stacked on the second-last axis.

    A central block is its center row, of diagonal ``center`` and squared
    couplings ``to_arms`` to its arms, between two arms given from their
    leaves for ``count_runs_below``, stacked on the first axis of each
    row.  The arm blocks' counts add.  Eliminating both arms towards the
    center (a twisted factorization) leaves the center one more pivot,
    ``a - x - b_-^2 / d_- - b_+^2 / d_+``, which completes the central
    block's count with the same tie rule, ``pivmin`` over the block.
    """
    below, pivots = count_runs_below(*arms, shifts[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        twisted = center - shifts - (to_arms / pivots).sum(axis=-2)
    pivmin = _pivmin((to_arms, *arms[1]))
    below = below.sum(axis=-2)
    return np.stack([below + (twisted < pivmin), below], axis=-2)


def _pivmin(couplings) -> float:
    # LAPACK's pivmin for a stack of squared couplings
    largest = np.asarray(functools.reduce(np.maximum, couplings, 1.0))
    return _TINY * largest.max(initial=1.0)


def _count_row(t, c, length, below, pivot, pivmin):
    # counts and pivot after one encoded row, at t = a - x
    run = np.logical_and(length > 1, c > 0.0)
    ran = _count_run(t, c, length, run, below, pivot, pivmin) if run.any() else None
    step = t - c / pivot
    step = np.where(np.abs(step) < pivmin, -pivmin, step)
    # a skipped row keeps its pivot
    repeats = length if ran is None else np.where(run, 0, length)
    below = below + repeats * (step < 0.0)
    pivot = np.where(repeats > 0, step, pivot)
    if ran is None:
        return below, pivot
    return np.where(run, ran[0], below), np.where(run, ran[1], pivot)


def _count_run(t, c, length, run, below, pivot, pivmin):
    # counts and pivot after the row's runs; lanes without a run take the
    # band's side, and are dropped.  Its temporaries go before the row's
    # step, which keeps a large stack's peak memory down.
    beta = np.sqrt(c)
    g = np.where(run, t / (2.0 * beta), 0.0)
    negatives, u, last_negative = _runs(g, pivot / beta, length)
    u = np.minimum(np.maximum(beta * u, pivmin), _HUGE_PIVOT)
    return below + negatives, np.where(last_negative, -u, u)


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

    For a stack of shapes with the same number of orbits, ``w`` has one
    column per shape and the fields of ``params`` are numbers or arrays
    over the columns (``m1`` integral).  Time and memory are O(rows) per
    shape.
    """
    w = np.asarray(w, dtype=float)
    lanes = w.reshape(w.shape[0], -1)
    ends = np.zeros((1, lanes.shape[1]))
    sides = np.concatenate([ends, lanes, ends])
    off = lanes.copy()
    lane = np.arange(lanes.shape[1])
    m1 = np.asarray(params.m1).astype(np.int64)
    n1, n2 = (np.asarray(n, dtype=float) for n in (params.n1, params.n2))
    w_minus, w_plus = lanes[m1 - 1, lane], lanes[m1, lane]
    # weights near the float range make entries infinite or nan quietly:
    # every eigenvalue route refuses such a block with a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = 1.0 - sides[:-1] - sides[1:]
        diagonal[m1, lane] = 1.0 - n1 * w_minus - n2 * w_plus
        off[m1 - 1, lane] = np.sqrt(n1) * w_minus
        off[m1, lane] = np.sqrt(n2) * w_plus
    return diagonal.reshape(diagonal.shape[:1] + w.shape[1:]), off.reshape(w.shape)


def build_blocks(params: TfsParams, ow: OrbitWeights) -> StratifiedBlocks:
    """The three stratified blocks of the orbit weights ``ow``.

    The central block comes from ``central_tridiagonal``; the arm blocks
    are its leading ``m1`` and trailing ``m2`` rows, the tridiagonal
    restrictions of the weight matrix to one branch.  Time and memory are
    O(m1 + m2) on the first call for ``ow``.  The blocks are kept on
    ``ow`` (its vector is read-only), so every later call, after checking
    that ``ow`` belongs to ``params``, returns the same blocks, with the
    counts and eigenvalues they have already found.
    """
    w = ow.values_for(params)
    if ow._blocks is None:
        diagonal, off = central_tridiagonal(params, w)
        m1 = ow.params.m1
        blocks = StratifiedBlocks(
            params=ow.params,
            minus=Tridiagonal(diagonal[:m1], off[: m1 - 1]),
            center=Tridiagonal(diagonal, off),
            plus=Tridiagonal(diagonal[m1 + 1 :], off[m1 + 1 :]),
        )
        object.__setattr__(ow, "_blocks", blocks)
    return ow._blocks


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
