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
``m1`` and trailing ``m2`` rows.  ``block_extremes`` finds ``lambda2``
and ``lambda_min`` from six eigenvalues: the lowest and second-highest of
the central block, whose top is the consensus eigenvalue 1, and the lowest
and highest of each arm block; at an optimum ``+-s`` seed them.  A
``SpectralReport`` holds those two numbers, and its SLEM is derived from
them.  ``Tridiagonal.eigenvalues`` finds eigenvalues by index, and one
rule decides every guessed one, a seed or a dense solver's value: it
stands when two run-compressed Sturm counts 8 ulps either side of it hold
its index.  A missing eigenvalue comes, in a block of at most
``_DENSE_ROWS`` rows, from ``np.linalg.eigvalsh`` on its dense form
(through that rule where it is not accurate enough), and in a larger one
from bisection on the count.  ``Tridiagonal.count_below`` is that count
in pure Python; a single solve's self-check is twelve of them.
``build_blocks`` builds the blocks of one ``OrbitWeights`` once and each
block keeps the eigenvalues it has found, so one solve does this work
once.  Every block has equal
rows except at its leaves, the center and the center's neighbours, and
along a run of equal rows the pivots of ``T - xI = LDL^T`` are the
continuants ``beta^k sin(k phi + psi)`` (the characteristic polynomials
the optimum is derived from), so the count costs O(1) in the branch
length.  ``count_central_below`` is the same count for a stack of
optimal central blocks, vectorised over the lanes: it reads each block's
five weight-dependent rows from ``central_tridiagonal`` on four orbits
and takes each arm's interior as the optimum's constant run, so the
optimizer proves every optimum of a batch with one straight-line count.
``count_eigenvalues_below`` counts row by row by LDL^T inertia over a
stack of tridiagonals; it is the reference for both run counts.  At run
time this module imports ``topology`` alone (``OrbitWeights`` is named
only in an annotation), so ``weighting`` builds on it.  It does not
need scipy: the full-spectrum reference that does,
``fusedstar.reference.tridiagonal_spectrum``, loads it on first use.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .topology import TfsParams

if TYPE_CHECKING:
    from .weighting import OrbitWeights

# A block of at most this many rows takes its eigenvalues from a dense
# ``np.linalg.eigvalsh``; a larger one bisects on run-compressed counts.
# The two routes cost the same near here: on a shared 2-vCPU Xeon
# (2.1 GHz, 1 BLAS thread), the lowest and top two eigenvalues of an arm
# block under optimal or Metropolis weights took 0.17 ms dense and 0.20 ms
# by bisection at 64 rows, and 0.23-0.24 ms dense and 0.18 ms by bisection
# at 72 rows.  ``simulation.stratified_iterate`` runs a central block of at
# most this many rows in closed form, from its dense ``np.linalg.eigh``.
_DENSE_ROWS = 64

_FULL_SPECTRUM_ROWS = 5000  # the most rows ``full_spectrum`` decomposes

# runs of at least this many equal rows take the closed form; shorter
# ones are stepped row by row like the rest
_MIN_RUN = 8

_NON_FINITE = "a block with non-finite entries has no eigenvalues"
_PAST_RANGE = (
    "a block with an entry of 2^1023 or more in magnitude may have "
    "eigenvalues past the float range"
)
_TINY = float(np.finfo(float).tiny)
# dstebz's convergence test: an interval is done once it is narrower than
# two ulps of its larger end (or than pivmin)
_EPS = float(np.finfo(float).eps)
_RELATIVE_WIDTH = 2.0 * _EPS


def _frozen_floats(value) -> np.ndarray:
    """``value`` as a read-only float64 array: a read-only float64 array
    is kept as it is, anything else (a writeable array a caller may still
    change, a list) is copied and the copy made read-only."""
    if (
        isinstance(value, np.ndarray)
        and value.dtype == np.float64
        and not value.flags.writeable
    ):
        return value
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return arr


class SpectrumSizeError(ValueError):
    """Dense eigendecomposition refused: matrix exceeds the size guard."""


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: its diagonal and first off-diagonal."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        for name in ("diagonal", "off_diagonal"):
            object.__setattr__(self, name, _frozen_floats(getattr(self, name)))
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

    def eigenvalues(
        self, indices: Iterable[int], guesses: Iterable[float] | None = None
    ) -> np.ndarray:
        """Ascending eigenvalues at ``indices`` (0-based), as a new array.

        Each eigenvalue is found once per block: what a read finds is kept
        by index and read back on the next one, and the indices not yet
        found are found together, by one dense solve or one bisection;
        found together or one at a time, they are bitwise equal.

        One rule decides a guessed eigenvalue: it stands, as it is, if the
        counts eight ulps either side of it hold its index.  Those counts
        narrow no search, so a wrong guess costs at most two counts and
        leaves the value found as it is unguessed; one that stands may
        differ from the searched value by a few ulps.  ``guesses``, one per
        index, pass it first.  A block of at most ``_DENSE_ROWS`` rows then
        takes ``np.linalg.eigvalsh``'s values, accurate to a few ``eps
        ||T||``: as they are if none is below ``||T|| / 8``, else through
        the rule, a value that fails it bracketing its search at ``8 n eps
        ||T||``.  A larger block bisects.
        """
        indices = list(indices)
        found = self._found
        if guesses is not None:
            self._confirm(indices, guesses)
        missing = [index for index in dict.fromkeys(indices) if index not in found]
        near: list[float] = []
        if missing and self.size <= _DENSE_ROWS:
            dense = self.dense()
            if not np.isfinite(dense).all():
                raise np.linalg.LinAlgError(_NON_FINITE)
            values = np.linalg.eigvalsh(dense)
            wanted = values[missing].tolist()
            # a few ulps near ||T||, but not far below it, where the counts
            # bisect to their relative accuracy (as for lambda_min at
            # (1, 10^12, 1, 2) under Metropolis weights)
            floor = 0.125 * max(-values[0], values[-1])
            if min(map(abs, wanted)) >= floor:
                found.update(zip(missing, wanted))
            else:
                self._confirm(missing, wanted)
                near = [v for i, v in zip(missing, wanted) if i not in found]
            missing = [index for index in missing if index not in found]
        if missing:
            found.update(zip(missing, self._runs.eigenvalues(missing, near)))
        return np.array([found[index] for index in indices], dtype=float)

    @functools.cached_property
    def _found(self) -> dict[int, float]:
        return {}

    def _confirm(self, indices: list[int], guesses: Iterable[float]) -> None:
        # keep each guess whose counts 8 ulps either side hold its index
        found, runs = self._found, self._runs
        for index, guess in zip(indices, guesses):
            if index not in found:
                x = guess / runs.scale
                ulps = 8.0 * math.ulp(x)
                if runs.count(x - ulps) <= index < runs.count(x + ulps):
                    found[index] = guess

    def count_below(self, shifts: float | np.ndarray) -> int | np.ndarray:
        """Number of eigenvalues below each shift, from the run-compressed
        Sturm count: an int for one shift, an array for an array.

        Each shift is one pure-Python count, O(runs and stepped rows) of
        the block: a single solve's self-check takes its four shifts on
        each block from it, and ``block_extremes`` its one count on an arm
        at an optimum; a guessed eigenvalue's two counts are the same.
        Away from rounding level at an eigenvalue it equals
        ``count_eigenvalues_below`` on a stack of one, whose tie rule it
        keeps on stepped rows and decoupled runs (an eigenvalue that meets
        the shift exactly, as a zero pivot, counts as below).
        """
        x = np.asarray(shifts, dtype=float)
        runs = self._runs
        counts = np.array(
            [runs.count(v / runs.scale) for v in x.ravel().tolist()],
            dtype=np.int64,
        ).reshape(x.shape)
        return int(counts) if counts.ndim == 0 else counts

    @functools.cached_property
    def _runs(self) -> "_RunCount":
        return _RunCount(self.diagonal, self.off_diagonal)


class _RunCount:
    """Sturm count and plain bisection on it, as in LAPACK's dstebz, for
    one tridiagonal, with its runs of equal rows in closed form, at any
    size; the bisection serves blocks of more than ``_DENSE_ROWS`` rows and
    dense values that fail the counts.

    The matrix is scaled by the power of two at or above its largest
    entry, exactly, so that no squared coupling overflows; a largest entry
    of 2^1023 or more has no such power, and the block is refused.  Row
    ``j >= 1`` is the pair ``(a_j, b_{j-1}^2)``; a run is ``_MIN_RUN`` or
    more equal consecutive rows, and every other row, row 0 included, is
    one step of Kahan's recurrence ``d_j = (a_j - x) - b_{j-1}^2 /
    d_{j-1}`` with LAPACK's floor (a pivot below ``pivmin`` in magnitude
    becomes ``-pivmin``).  Along a run with ``|b| = beta > 0`` the pivots are
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
    the next row always agrees with it; at a pole of ``u`` it is infinite,
    and the next row's step divides it to nothing.  The cost of a count is
    O(number of runs and stepped rows), whatever the run lengths.
    """

    def __init__(self, diagonal: np.ndarray, off_diagonal: np.ndarray):
        self.size = n = diagonal.size
        # one magnitude array at a time, and none kept: the off-diagonal is
        # kept with its signs and taken in magnitude where it is read
        top = max(
            float(np.abs(diagonal).max()),
            float(np.abs(off_diagonal).max(initial=0.0)),
        )
        if not math.isfinite(top):
            raise np.linalg.LinAlgError(_NON_FINITE)
        if top >= 2.0**1023:
            raise np.linalg.LinAlgError(_PAST_RANGE)
        self.scale = 2.0 ** math.frexp(top)[1]
        if self.scale != 1.0:
            diagonal = diagonal / self.scale
            off_diagonal = off_diagonal / self.scale
        # every entry is at most 1 in magnitude now, so ||T|| <= 3 and
        # LAPACK's pivmin, tiny * max(1, max b^2), is tiny
        self.diagonal, self.off_diagonal = diagonal, off_diagonal
        # rows 1.. start a new key where a_j or b_{j-1}^2 changes; only
        # the entries that start a run or make a step are read
        b = np.abs(off_diagonal)
        changes = (diagonal[2:] != diagonal[1:-1]) | (b[1:] != b[:-1])
        bounds = [1, *(np.flatnonzero(changes) + 2).tolist(), n]
        a, b = diagonal.item, off_diagonal.item
        steps = [(a(0), 0.0, 0.0, 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo >= _MIN_RUN:
                beta = abs(b(lo - 1))
                steps.append((a(lo), beta * beta, beta, hi - lo))
            else:
                steps += [(a(j), b(j - 1) * b(j - 1), 0.0, 1) for j in range(lo, hi)]
        self.steps = steps

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float]:
        """Bounds on the scaled spectrum, widened as in dstebz."""
        sides = np.zeros(self.size + 1)
        np.abs(self.off_diagonal, out=sides[1:-1])
        radius = sides[:-1] + sides[1:]
        low = float((self.diagonal - radius).min())
        high = float((self.diagonal + radius).max())
        fudge = 2.0 * (_EPS * max(-low, high) * self.size + 2.0 * _TINY)
        return low - fudge, high + fudge

    def count(self, x: float) -> int:
        """Eigenvalues of the scaled matrix below the scaled shift ``x``."""
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
            d = max(beta * u, pivmin)
            if last_negative:
                d = -d
        return below

    def eigenvalues(self, indices: list[int], near: list[float] = ()) -> list[float]:
        """Ascending eigenvalues at ``indices``, unscaled, by bisection.

        ``near``, if given, holds one value per index within ``8 n eps
        ||T||`` of its eigenvalue, as from LAPACK's dense solver: counts
        that far either side of each start the search.

        The search is dstebz's plain bisection.  It holds each eigenvalue
        in an interval ``(low, high]``, from the Gershgorin bounds narrowed
        by every count made so far, counts at its midpoint and keeps the
        half whose counts still hold the index, until the interval is two
        ulps wide.  Every count is kept, and the counts made for one index
        narrow the start of the next.  Without ``near``, every count point
        is then a midpoint of one dyadic subdivision of the Gershgorin
        interval, so an eigenvalue found together with others or alone is
        bitwise the same.
        """
        reach = 24 * self.size * _EPS  # 8 n eps ||T||
        counted = [
            (y, self.count(y))
            for value in near
            for y in (value / self.scale - reach, value / self.scale + reach)
        ]
        return [self._search(index, counted) * self.scale for index in indices]

    def _search(self, index: int, counted: list[tuple[float, int]]) -> float:
        # the narrowest interval (low, high] that the counts so far give
        # (the Gershgorin ends are not counted)
        low, high = self.gershgorin
        for x, below in counted:
            if below > index:
                high = min(high, x)
            else:
                low = max(low, x)
        while high - low > max(_RELATIVE_WIDTH * max(high, -low), _TINY):
            x = 0.5 * (low + high)
            if not low < x < high:
                break
            below = self.count(x)
            counted.append((x, below))
            if below > index:
                high = x
            else:
                low = x
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


def count_central_below(diagonal, off, m, shifts) -> np.ndarray:
    """Eigenvalues below ``shifts`` of each central block in a stack and of
    its two arm blocks together, stacked on the second-last axis, from a
    skeleton of the block in O(1) per shape.

    ``diagonal`` and ``off`` are ``central_tridiagonal``'s rows on the
    four orbits ``[w_int1, w_-1, w_1, w_int2]``, one column per shape:
    each arm's leaf, its row next to the center, and the center between
    them.  ``m`` holds the arm lengths on its first axis.  Between its
    leaf and its row next to the center, an arm of ``m`` rows holds
    ``m - 2`` interior rows as they are at the optimum, where every
    interior weight is 1/2: diagonal ``(1 - 1/2) - 1/2 = 0``, each
    coupled to the row before it by 1/2.  The row next to the center is
    coupled to the row before it by ``w_int``, and an arm of one row is
    that row alone.  Each arm is counted from its leaf by Kahan's
    recurrence, its interior run in ``_run``'s closed form (one step at
    ``m = 3``).  The arm blocks' counts add; eliminating both arms towards
    the center (a twisted factorization) leaves the center one more
    pivot, ``a - x - b_-^2 / d_- - b_+^2 / d_+``, which completes the
    central block's count.  The tie rule is ``count_eigenvalues_below``'s,
    with ``pivmin`` over the stack's arms and over its central blocks, and
    away from rounding level at an eigenvalue so are the counts.
    """
    x = shifts[..., None, :]
    squares = off * off
    pivmin = _TINY * squares[::3].max(initial=1.0)
    interior = m - 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the leaves; a pivot of inf enters an arm without one
        pivot = _floor_pivots(diagonal[::4] - x, pivmin)
        leaf = m > 1.0
        below = leaf & (pivot < 0.0)
        pivot = np.where(leaf, pivot, np.inf)
        # the interior run: a - x = -x, and beta = 1/2 makes g = a - x
        t = 0.0 - x
        step = _floor_pivots(t - 0.25 / pivot, pivmin)
        negatives, u, last_negative = _runs(t, pivot / 0.5, interior)
        u = np.maximum(0.5 * u, pivmin)
        run, stepped = interior > 1.0, interior == 1.0
        below = below + np.where(run, negatives, stepped & (step < 0.0))
        pivot = np.where(
            run, np.where(last_negative, -u, u), np.where(stepped, step, pivot)
        )
        # the rows next to the center, then the center's twisted pivot
        pivot = (diagonal[1:4:2] - x) - squares[::3] / pivot
        pivot = _floor_pivots(pivot, pivmin)
        below = below + (pivot < 0.0)
        ratios = squares[1:3] / pivot
        twisted = (diagonal[2] - shifts) - (ratios[..., 0, :] + ratios[..., 1, :])
    arms = (below[..., 0, :] + below[..., 1, :]).astype(np.int64)
    central = arms + (twisted < _TINY * squares.max(initial=1.0))
    return np.stack([central, arms], axis=-2)


def _floor_pivots(pivot: np.ndarray, pivmin: float) -> np.ndarray:
    # LAPACK's floor: a pivot below pivmin in magnitude becomes -pivmin
    return np.where(np.abs(pivot) < pivmin, -pivmin, pivot)


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
    """``lambda2``, the second-highest eigenvalue of a weight matrix, and
    ``lambda_min``, its lowest; the SLEM follows from them."""

    lambda2: float
    lambda_min: float

    @property
    def slem(self) -> float:
        """The second-largest eigenvalue modulus, ``max(lambda2, -lambda_min)``."""
        return max(self.lambda2, -self.lambda_min)


def perron_vector(params: TfsParams) -> np.ndarray:
    """Unit eigenvector of the central block at eigenvalue 1.

    Entries are sqrt(n1) on the first-star arm, 1 at the center and
    sqrt(n2) on the second-star arm, normalized by sqrt(n_nodes).
    """
    m1 = params.m1
    norm = math.sqrt(params.n_nodes)
    v = np.empty(m1 + params.m2 + 1)
    v[:m1] = math.sqrt(params.n1) / norm
    v[m1] = 1.0 / norm
    v[m1 + 1 :] = math.sqrt(params.n2) / norm
    return v


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
    # (1 - w_{k-1}) - w_k, with no orbit beyond either end
    diagonal = np.empty((lanes.shape[0] + 1, lanes.shape[1]))
    diagonal[0] = 1.0
    np.subtract(1.0, lanes, out=diagonal[1:])
    diagonal[:-1] -= lanes
    off = lanes.copy()
    m1 = np.asarray(params.m1)
    if m1.ndim:  # a center row per lane
        lane = np.arange(lanes.shape[1])
        m1 = m1.astype(np.int64)
        before, at = (m1 - 1, lane), (m1, lane)
    else:
        before, at = int(m1) - 1, int(m1)
    n1, n2 = (np.asarray(n, dtype=float) for n in (params.n1, params.n2))
    w_minus, w_plus = lanes[before], lanes[at]
    # weights near the float range make entries infinite or nan quietly:
    # every eigenvalue route refuses such a block with a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal[at] = 1.0 - n1 * w_minus - n2 * w_plus
        off[before] = np.sqrt(n1) * w_minus
        off[at] = np.sqrt(n2) * w_plus
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
        # read-only, so the three blocks share these two arrays uncopied
        diagonal.flags.writeable = off.flags.writeable = False
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


def block_extremes(
    blocks: StratifiedBlocks, s: float | None = None
) -> SpectralReport:
    """``lambda2``, ``lambda_min`` and ``slem`` of the full matrix from the
    extreme eigenvalues of its blocks.

    The central block's top is the consensus eigenvalue 1 (``C v = v`` for
    the Perron vector), and with nonnegative weights, as every scheme, the
    optimum and best-constant's unit weights have, nothing exceeds it: the
    matrix is ``I - L`` for a positive semidefinite Laplacian ``L``.  So
    ``lambda2`` is the largest of the center's second-highest eigenvalue
    and each arm block's highest, and ``lambda_min`` the smallest lowest
    one; an arm block counts only when its star has two branches or more.

    Unseeded, that is six eigenvalues.  With the ``s`` of an optimum, its
    slackness conditions seed them: the center's lowest at ``-s`` (``z1``
    of the certificate), the center's second-highest and each arm's top
    at ``+s`` (``z2``).  An arm is a principal submatrix of the center,
    so by interlacing its lowest eigenvalue is at or above the center's;
    it is read only if one count eight ulps above the center's lowest
    finds it there or below, near enough that its search might return
    the smaller value.  A wrong seed costs counts, and the report is
    bitwise the unseeded one.
    """
    center = blocks.center
    arms = [
        arm
        for arm, mult in zip((blocks.minus, blocks.plus), blocks.multiplicities[::2])
        if mult > 0
    ]
    if s is None:
        reads = [center.eigenvalues([0, center.size - 2])] + [
            arm.eigenvalues([0, arm.size - 1]) for arm in arms
        ]
        lows, highs = np.array(reads).T.tolist()
    else:
        low, second = center.eigenvalues([0, center.size - 2], [-s, s]).tolist()
        near = low + 8.0 * math.ulp(low)
        lows = [low] + [
            float(arm.eigenvalues([0])[0]) for arm in arms if arm.count_below(near)
        ]
        highs = [second] + [
            float(arm.eigenvalues([arm.size - 1], [s])[0]) for arm in arms
        ]
    return SpectralReport(lambda2=max(highs), lambda_min=min(lows))


def full_spectrum(entries: np.ndarray) -> SpectralReport:
    """``lambda2`` and ``lambda_min`` of an assembled matrix from its dense
    eigendecomposition (oracle route): the second-highest and the lowest of
    its ascending eigenvalues, the highest for a single row.

    Guarded by ``_FULL_SPECTRUM_ROWS``; prefer the block route for large networks.
    """
    n, limit = len(entries), _FULL_SPECTRUM_ROWS
    if n > limit:
        raise SpectrumSizeError(
            f"matrix of size {n} exceeds the dense-eigensolve guard {limit}"
        )
    eigs = np.linalg.eigvalsh(entries)
    return SpectralReport(
        lambda2=float(eigs[-2 if n > 1 else -1]), lambda_min=float(eigs[0])
    )
