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
``m1`` and trailing ``m2`` rows.  ``build_blocks`` writes the three out,
for the iteration (``simulation``).
Every weighting the product reports, the optimum and every scheme, weighs
all interior orbits of its arms alike, so its blocks are a skeleton:
``central_tridiagonal`` on four orbits (``skeleton_rows``) and, in each
arm, a run of equal interior rows.  ``SkeletonBlocks`` counts and reads
its blocks from the skeleton, in O(1) time and memory in the branch
lengths.  Its ``report`` finds ``lambda2`` and ``lambda_min`` by
interlacing: the center's lowest eigenvalue and the arm blocks' top, with
the center's second-highest beside a star of one branch.  A
``SpectralReport`` holds those two numbers, and its SLEM is derived from
them.  ``_RunCount.read`` reads every eigenvalue by index: a guess stands
when two run-compressed Sturm counts either side of it hold its index, and
otherwise bisection on the count finds it.
Every block has equal rows except at its leaves, the center and
the center's neighbours, and along a run of equal rows the pivots of
``T - xI = LDL^T`` are the continuants ``beta^k sin(k phi + psi)`` (the
characteristic polynomials the optimum is derived from), so the count,
``_RunCount``, costs O(1) in the branch length; it is built from the
block's runs, and so needs no array of its rows.  A single solve's
self-check is twelve of its counts, and its report reads ``-s`` and ``s``
on two counts each, where the optimum's slackness conditions put
``lambda_min`` and ``lambda2``.
``count_central_below`` is the same count for a stack of optimal central
blocks, vectorised over the lanes: it reads each block's skeleton rows,
so the optimizer proves every optimum of a batch with one straight-line
count.
``count_eigenvalues_below`` counts row by row by LDL^T inertia over a
stack of tridiagonals; it is the reference for both run counts.  The
blocks written out, read by the same rule, are the skeleton's oracle
(``fusedstar.reference.block_extremes``).  At run time this module
imports ``topology`` alone (``OrbitWeights`` is named only in an
annotation), so ``weighting`` builds on it.  It does not need scipy: the
full-spectrum reference that does,
``fusedstar.reference.tridiagonal_spectrum``, loads it on first use.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .topology import TfsParams

if TYPE_CHECKING:
    from .weighting import OrbitWeights

# A block of at most this many rows, read without claims, takes its
# guesses from a dense ``np.linalg.eigvalsh`` of its rows; a larger one
# bisects on run-compressed counts.
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


class _RunCount:
    """Sturm count and plain bisection on it, as in LAPACK's dstebz, for
    one tridiagonal, with its runs of equal rows in closed form, at any
    size; the bisection serves blocks of more than ``_DENSE_ROWS`` rows
    and guesses that fail the counts (``SkeletonBlocks.report``).

    It is built from the block's rows as runs of equal rows, ``(a, |b|,
    length)`` in row order with ``b`` each row's coupling to the row
    before, as ``SkeletonBlocks`` writes them from a skeleton.  The matrix
    is scaled by the power of two at or above its largest entry, exactly,
    so that no squared coupling overflows; a largest entry of 2^1023 or
    more has no such power, and the block is refused.  Row ``j >= 1`` is the pair ``(a_j,
    b_{j-1}^2)``; a run is ``_MIN_RUN`` or more equal consecutive rows,
    and every other row, row 0 included, is one step of Kahan's
    recurrence ``d_j = (a_j - x) - b_{j-1}^2 / d_{j-1}`` with LAPACK's
    floor (a pivot below ``pivmin`` in magnitude becomes ``-pivmin``).
    Along a run with ``|b| = beta > 0`` the pivots are ``d_j = beta u_j``
    with ``u_j = tau - 1 / u_{j-1}`` and ``tau = (a - x) / beta``, a
    Moebius map:

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

    def __init__(self, runs: list[tuple[float, float, int]]):
        """``runs`` starts with row 0 alone; its coupling is not read.
        Equal runs after it that follow each other are joined, so the rows
        and steps are those of the block's maximal runs."""
        entries = [abs(a) for a, _, _ in runs] + [b for _, b, _ in runs[1:]]
        if not all(map(math.isfinite, entries)):
            raise np.linalg.LinAlgError(_NON_FINITE)
        top = max(entries)
        if top >= 2.0**1023:
            raise np.linalg.LinAlgError(_PAST_RANGE)
        self.scale = scale = 2.0 ** math.frexp(top)[1]
        # every entry is at most 1 in magnitude now, so ||T|| <= 3 and
        # LAPACK's pivmin, tiny * max(1, max b^2), is tiny
        a, _, _ = runs[0]
        rows = [(a / scale, 0.0, 1)]
        steps = [(a / scale, 0.0, 0.0, 1)]
        self.size = 1
        for a, b, length in runs[1:]:
            a, b = a / scale, b / scale
            self.size += length
            if len(rows) > 1 and rows[-1][0] == a and rows[-1][1] == b:
                # the run before is this one's start: its steps go
                before = rows.pop()[2]
                del steps[-(1 if before >= _MIN_RUN else before):]
                length += before
            rows.append((a, b, length))
            if length >= _MIN_RUN:
                steps.append((a, b * b, b, length))
            else:
                steps += [(a, b * b, 0.0, 1)] * length
        self.rows, self.steps = rows, steps
        # every count made through ``below`` or a search, scaled, which
        # narrows a later search
        self.counted: list[tuple[float, int]] = []

    @functools.cached_property
    def gershgorin(self) -> tuple[float, float]:
        """Bounds on the scaled spectrum, widened as in dstebz: each row's
        radius is its two couplings, the last row of a run taking the next
        run's."""
        rows = self.rows
        low, high = math.inf, -math.inf
        for (a, b, length), (_, b_next, _) in zip(rows, [*rows[1:], (0.0, 0.0, 0)]):
            for radius in [b + b_next] + ([b + b] if length > 1 else []):
                low, high = min(low, a - radius), max(high, a + radius)
        fudge = 2.0 * (_EPS * max(-low, high) * self.size + 2.0 * _TINY)
        return low - fudge, high + fudge

    def below(self, value: float) -> int:
        """Eigenvalues below the unscaled ``value``; the count is kept."""
        x = value / self.scale
        below = self.count(x)
        self.counted.append((x, below))
        return below

    def holds(self, index: int, value: float) -> bool:
        """Whether the counts either side of the unscaled ``value`` hold
        ``index``: the rule by which a guessed eigenvalue stands.  They are
        eight ulps away, or four ``pivmin`` where that is farther: within
        about ``2^51 tiny`` of 0, where the counts resolve no finer than
        ``pivmin``.  A wrong guess costs two counts, which start its
        search."""
        width = max(8.0 * math.ulp(value), 4.0 * _TINY * self.scale)
        return self.below(value - width) <= index < self.below(value + width)

    def read(self, index: int, guess: float | None = None) -> float:
        """The eigenvalue at ``index``, unscaled: ``guess`` where it
        ``holds``, else by dstebz's plain bisection, which holds it in
        ``(low, high]``, the Gershgorin bounds narrowed by every count kept
        so far, and halves that until it is two ulps wide.  While every
        count kept is a search's, each is at a midpoint of one dyadic
        subdivision of the Gershgorin interval, so a value read after
        others or alone has the same bits."""
        if guess is not None and self.holds(index, guess):
            return guess
        return self._search(index) * self.scale

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

    def _search(self, index: int) -> float:
        # the narrowest interval (low, high] that the counts so far give
        # (the Gershgorin ends are not counted)
        low, high = self.gershgorin
        for x, below in self.counted:
            if below > index:
                high = min(high, x)
            else:
                low = max(low, x)
        while high - low > max(_RELATIVE_WIDTH * max(high, -low), _TINY):
            x = 0.5 * (low + high)
            if not low < x < high:
                break
            below = self.count(x)
            self.counted.append((x, below))
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
    magnitude = np.abs(g)
    if magnitude.max(initial=0.0) < 1.0:
        return _band_runs(g, u0, length)
    inside = magnitude < 1.0
    sides = _band_runs(g, u0, length), _off_band_runs(g, u0, length)
    return tuple(np.where(inside, band, off) for band, off in zip(*sides))


def _band_runs(g, u0, length):
    # _run inside the band, |g| < 1, in place on each new array
    s = np.sqrt((1.0 - g) * (1.0 + g))
    phi = np.arctan2(s, g)
    theta = np.arctan2(s, u0 - g)
    theta += length * phi
    k_end = theta + phi
    k_end /= np.pi
    np.floor(k_end, out=k_end)
    k_last = theta / np.pi
    last_negative = k_end > np.floor(k_last, out=k_last)
    u = np.tan(theta, out=theta)
    np.divide(s, u, out=u)
    u += g
    k_end -= u0 < 0.0
    return k_end, np.abs(u, out=u), last_negative


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
        pivot = diagonal[::4] - x
        np.copyto(pivot, np.inf, where=m <= 1.0)
        below = _floor_pivots(pivot, pivmin)
        # the interior run: a - x = -x, and beta = 1/2 makes g = a - x
        t = 0.0 - x
        negatives, u, last_negative = _runs(t, pivot / 0.5, interior)
        step = t - 0.25 / pivot
        step_negative = _floor_pivots(step, pivmin)
        run, stepped = interior > 1.0, interior == 1.0
        below = below + np.where(run, negatives, stepped & step_negative)
        u *= 0.5
        np.maximum(u, pivmin, out=u)
        np.negative(u, out=u, where=last_negative)
        np.copyto(pivot, step, where=stepped)
        np.copyto(pivot, u, where=run)
        # the rows next to the center, then the center's twisted pivot
        pivot = (diagonal[1:4:2] - x) - squares[::3] / pivot
        below += _floor_pivots(pivot, pivmin)
        ratios = np.divide(squares[1:3], pivot, out=pivot)
        twisted = (diagonal[2] - shifts) - (ratios[..., 0, :] + ratios[..., 1, :])
    # the arms' counts add, and the center's pivot completes the central
    # block's count
    counts = np.empty(below.shape, dtype=np.int64)
    arms = np.add(below[..., 0, :], below[..., 1, :], out=counts[..., 1, :], casting="unsafe")
    np.add(arms, twisted < _TINY * squares.max(initial=1.0), out=counts[..., 0, :])
    return counts


def _floor_pivots(pivot: np.ndarray, pivmin: float) -> np.ndarray:
    # LAPACK's floor, in place: a pivot below pivmin in magnitude becomes
    # -pivmin.  The floored pivots that are negative are then exactly the
    # pivots below pivmin, which are returned
    negative = pivot < pivmin
    np.fmin(pivot, -pivmin, out=pivot, where=negative)
    return negative


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
    O(m1 + m2), after checking that ``ow`` belongs to ``params``.
    """
    diagonal, off = central_tridiagonal(params, ow.values_for(params))
    # read-only, so the three blocks share these two arrays uncopied
    diagonal.flags.writeable = off.flags.writeable = False
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


class _Shapes(NamedTuple):
    """Branch lengths and counts, one entry per lane of a batch (float
    arrays) or of one shape (numbers); ``central_tridiagonal`` reads them as
    it reads a ``TfsParams``."""

    m1: np.ndarray
    n1: np.ndarray
    m2: np.ndarray
    n2: np.ndarray


def skeleton_rows(
    shapes, w_minus, w_plus, interior: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """The weight-dependent rows of central blocks whose interior orbits
    all weigh ``interior``, 1/2 as at an optimum: ``central_tridiagonal`` on
    the four orbits ``[w_int, w_-1, w_1, w_int]``, with ``w_int`` the arm's
    interior weight (``interior``, and 0 for an arm of one row, which has
    no interior orbit).

    The five diagonal entries are the first arm's leaf, its row next to
    the center, the center, the second arm's row next to the center and
    its leaf; the four couplings join them in that order.  Each entry has
    the bits of the same entry of the block written out, and the rows
    between an arm's leaf and its row next to the center are a run of
    diagonal ``(1 - interior) - interior`` coupled by ``interior``.
    ``w_minus`` and ``w_plus`` are numbers for one shape or arrays over the
    lanes of ``shapes``.
    """
    w = np.empty((4, *np.shape(w_minus)))
    w[1], w[2] = w_minus, w_plus
    # a bool, or an array of them, times the interior weight
    w[0], w[3] = interior * (shapes.m1 > 1), interior * (shapes.m2 > 1)
    return central_tridiagonal(_Shapes(2, shapes.n1, shapes.m2, shapes.n2), w)


class SkeletonBlocks:
    """The three stratified blocks of the orbit weights of one shape whose
    interior orbits all weigh ``interior`` and whose boundary orbits weigh
    ``w_minus_1`` and ``w_plus_1``, counted and read in O(1) of the branch
    lengths.  An optimum and Metropolis's weights have ``interior = 1/2``,
    max-degree's and best-constant's their one weight, the unit weights 1.

    Each block is a ``_RunCount`` built from ``skeleton_rows``: the arms'
    interiors are runs, so a count costs a few steps whatever ``m1`` and
    ``m2``, and no array of their length is made.  The counts are those of
    the blocks written out (``build_blocks``), bit for bit: the rows and
    runs are the same.  ``count_below`` serves the optimum's self-check,
    ``report`` every spectral report and the certificate's feasibility.
    """

    def __init__(
        self, params: TfsParams, w_minus_1: float, w_plus_1: float,
        interior: float = 0.5,
    ):
        self.params, self.w_minus_1, self.w_plus_1 = params, w_minus_1, w_plus_1
        self.interior = interior
        self._reports: dict[float | None, SpectralReport] = {}

    # Nothing is computed before a count, a read or the certificate needs
    # it, so a skeleton that stands only for its weights costs nothing.
    # The blocks' counts are built together on first use, as a block
    # written out builds its own: a report that takes every dense guess as
    # it is builds none.  A block with an entry that is not finite, or of
    # 2^1023 or more in magnitude, is refused there.
    @functools.cached_property
    def rows(self) -> tuple[list[float], list[float]]:
        """``skeleton_rows``: the five diagonal entries and the four
        couplings, as lists."""
        diagonal, off = skeleton_rows(
            self.params, self.w_minus_1, self.w_plus_1, self.interior
        )
        return diagonal.tolist(), off.tolist()

    def _runs(self) -> dict[str, list[tuple[float, float, int]]]:
        # each block as runs (a, b, length) from its row 0, with b the
        # signed coupling to the row before: the first arm block from its
        # leaf, the second from its row next to the center
        (d, b), m1, m2 = self.rows, self.params.m1, self.params.m2
        interior = self.interior
        a = (1.0 - interior) - interior
        interior1 = [(a, interior, m1 - 2)] if m1 > 2 else []
        interior2 = [(a, interior, m2 - 2)] if m2 > 2 else []
        minus = [(d[0], 0.0, 1), *interior1, (d[1], b[0], 1)] if m1 > 1 else [
            (d[1], 0.0, 1)
        ]
        plus = [(d[3], 0.0, 1), *interior2, (d[4], b[3], 1)] if m2 > 1 else [
            (d[3], 0.0, 1)
        ]
        center = minus + [(d[2], b[1], 1), (d[3], b[2], 1)] + plus[1:]
        return {"center": center, "minus": minus, "plus": plus}

    @functools.cached_property
    def _counts(self) -> dict[str, _RunCount]:
        # the center first: its rows hold every entry, and so its refusal
        # of a non-finite one comes before an arm's refusal of a large one
        return {
            block: _RunCount([(a, abs(b), length) for a, b, length in runs])
            for block, runs in self._runs().items()
        }

    center = property(lambda self: self._counts["center"])
    minus = property(lambda self: self._counts["minus"])
    plus = property(lambda self: self._counts["plus"])

    def count_below(self, shifts: Iterable[float]) -> np.ndarray:
        """Eigenvalues below each shift of the central block and of both
        arm blocks together, one row ``[center, arms]`` per shift."""
        center, minus, plus = self._counts.values()
        return np.array(
            [[center.below(x), minus.below(x) + plus.below(x)] for x in shifts]
        )

    def report(self, s: float | None = None) -> SpectralReport:
        """``lambda2`` and ``lambda_min`` by Cauchy's interlacing.

        The central block's top is the consensus eigenvalue 1, and with
        nonnegative weights, as every scheme and the optimum have, nothing
        exceeds it: the matrix is ``I - L`` for a positive semidefinite
        Laplacian ``L``.  The arm blocks together are the central block
        without its center row, so ``lambda_min`` is the center's lowest
        eigenvalue and ``lambda2`` the arm blocks' top, which is at least
        the center's second-highest.  An arm block counts only when its
        star has two branches or more; beside one that does not, the
        center's second-highest is read too.

        With ``s``, an optimum's claims are the guesses that
        ``_RunCount.read`` checks: ``-s`` for the center's lowest (``z1``
        of the certificate) and ``s`` for a top (``z2``).  Without it, a
        block of at most ``_DENSE_ROWS`` rows takes its guesses from
        ``np.linalg.eigvalsh`` of its rows written out: a guess of at least
        ``||T|| / 8`` in magnitude stands as it is, and ``read`` checks any
        other; a larger block is read without guesses.  Kept by ``s``, so
        the certificate's feasibility reads the same two.
        """
        if s not in self._reports:
            p = self.params
            arms = [
                (block, m)
                for block, m, n in (("minus", p.m1, p.n1), ("plus", p.m2, p.n2))
                if n > 1
            ]
            wanted = [0] if len(arms) == 2 else [0, p.m1 + p.m2 - 1]
            if s is None:
                lowest, *tops = self._read("center", wanted)
                tops += [self._read(block, [m - 1])[0] for block, m in arms]
            else:
                counts = self._counts
                lowest, *tops = map(counts["center"].read, wanted, (-s, s))
                tops += [counts[block].read(m - 1, s) for block, m in arms]
            self._reports[s] = SpectralReport(lambda2=max(tops), lambda_min=lowest)
        return self._reports[s]

    def _read(self, block: str, wanted: list[int]) -> list[float]:
        # the eigenvalues of a block at the indices wanted, in that order,
        # read without claims
        m1, m2 = self.params.m1, self.params.m2
        if {"center": m1 + m2 + 1, "minus": m1, "plus": m2}[block] > _DENSE_ROWS:
            count = self._counts[block]
            return [count.read(i) for i in wanted]
        values = np.linalg.eigvalsh(self._dense[block])
        # a few ulps near ||T||, but not far below it, where the counts
        # read to their relative accuracy (as lambda_min at
        # (1, 10^12, 1, 2) under Metropolis weights)
        floor = 0.125 * max(-values[0], values[-1])
        return [
            guess if abs(guess) >= floor else self._counts[block].read(i, guess)
            for i, guess in zip(wanted, values[wanted].tolist())
        ]

    @functools.cached_property
    def _dense(self) -> dict[str, np.ndarray]:
        # each block of at most _DENSE_ROWS rows written out, its rows the
        # bits of build_blocks' rows; an arm block is a corner of the
        # central block where that is written out too
        m1, m2 = self.params.m1, self.params.m2
        if m1 + m2 + 1 <= _DENSE_ROWS:
            center = self._write("center")
            return {
                "center": center,
                "minus": center[:m1, :m1],
                "plus": center[m1 + 1 :, m1 + 1 :],
            }
        return {
            block: self._write(block)
            for block, m in (("minus", m1), ("plus", m2))
            if m <= _DENSE_ROWS
        }

    def _write(self, block: str) -> np.ndarray:
        diagonal, off = [], []
        for a, b, length in self._runs()[block]:
            diagonal += [a] * length
            off += [b] * length
        dense = Tridiagonal(diagonal, off[1:]).dense()
        if not np.isfinite(dense).all():
            raise np.linalg.LinAlgError(_NON_FINITE)
        return dense


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
