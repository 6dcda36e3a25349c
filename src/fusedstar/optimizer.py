"""Analytic optimizer for the fastest-consensus weights of a TFS network.

The optimum is characterized by a scalar transcendental relation: writing
``s = cos(theta)`` for the target spectral radius, the two star arms each
contribute a response factor ``(2/n) * cot(m*theta) * cot(theta/2) - 1`` and
optimality requires their product to equal one.  All interior orbit weights
are 1/2 at the optimum and the two center-adjacent weights follow in closed
form from the smallest root theta*, and ``cos(theta*)`` is the optimal
spectral radius.  On ``(0, pi / (2 max(m1, m2))]`` both response factors are
at least -1 and strictly decreasing, so the relation is positive exactly
below theta* there and bisection on that bracket finds it.  Both routes
find it faster with bisection's bits.  The search starts from a
closed-form root of the relation with ``cot x = 1/x - 4x/pi^2``
(``_closed_form_root``), within 3 % of theta*.  Below theta* the
relation is convex, so Newton's point from the positive end of the
bracket stays below theta*; with a second point just past its predicted
error, guarded by the midpoint, it reaches the adjacent floats where
bisection stops, and returns its bits, in a number of steps that does
not grow with ``n1`` and ``n2``.  ``optimal_weights`` takes six to
thirteen evaluations of ``_char_values`` (``_theta_star``) where
bisection takes 52 to 55.  ``optimal_weights_batch`` solves a grid of
shapes in slices of ``_ONE_CALL_LANES``, in six or seven steps
(``_first_sign_changes``), each one call of the stateless ``_relation``
at two angles a lane on a stacked ``(3, 2, lanes)`` array, with
``_char_values``'s float operations in its order.  Every optimum, on
either route, is self-checked by eigenvalue counts at four shifts
(``_counts_prove_slem``), never by computed eigenvalues, and the counts
cost O(1) in the branch lengths.  A single solve counts the blocks that
``build_blocks`` keeps on its weights, twelve pure-Python counts of
``Tridiagonal.count_below`` whose blocks its report and certificate
reuse.  A batch counts each optimum's blocks from five rows of
``central_tridiagonal`` on four orbits (``_skeleton_rows``), each arm's
interior taken as the optimum's constant run, in one
``count_central_below`` call vectorised over a slice.
The all-roots scan that cross-checks these searches,
``solve_theta_roots``, lives in ``fusedstar.reference``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spectral import (
    _frozen_floats, build_blocks, central_tridiagonal, count_central_below
)
from .topology import InvalidParameterError, TfsParams
from .weighting import OrbitWeights


class SelfCheckError(RuntimeError):
    """Eigenvalue counts do not prove the analytic optimum's SLEM."""


class DegenerateSineError(ArithmeticError):
    """A sine-quotient formula hit a vanishing denominator."""


_SELF_CHECK = 1e-9  # largest |slem - s| the self-checks accept
# a boundary weight is degenerate when its denominator is below this times
# max(1, |numerator|)
_DEGENERATE = 1e-13
# shapes that optimal_weights_batch solves end to end in one slice
_ONE_CALL_LANES = 8192
# the root searches (_first_sign_changes, _theta_star): the slope of the
# start's cotangent, its first two points as multiples of the start (the
# batch's as one stacked column), how far past Newton's point the second
# point lies, in Newton's predicted errors, and the largest predicted
# error, as a share of Newton's step
_COT_SLOPE = 4.0 / math.pi**2
_START_BELOW, _START_ABOVE = 1.0 - 1e-6, 1.03
_START = np.array([[_START_BELOW], [_START_ABOVE]])
_PAST = 2.0
_FIRST_ERROR = 0.05
# the least valid m1, n1, m2, n2, as a column
_LEAST = np.array([[1.0], [2.0], [1.0], [2.0]])


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal orbit weights, the smallest root and ``s = cos(theta_star)``,
    the SLEM that eigenvalue counts proved within ``_SELF_CHECK``."""

    params: TfsParams
    theta_star: float
    s: float
    weights: OrbitWeights


def _char_values(params: TfsParams, theta: np.ndarray | float) -> np.ndarray:
    # a float stays a numpy scalar throughout, which the scalar searches
    # need fast; _relation repeats these operations for a batch
    half = 0.5 * theta
    cot_half = np.cos(half) / np.sin(half)
    angle1, angle2 = params.m1 * theta, params.m2 * theta
    arm1 = 2.0 / params.n1 * (np.cos(angle1) / np.sin(angle1)) * cot_half - 1.0
    arm2 = 2.0 / params.n2 * (np.cos(angle2) / np.sin(angle2)) * cot_half - 1.0
    return arm1 * arm2 - 1.0


def _boundary_weights(
    m: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Center-adjacent orbit weights of arms of lengths ``m`` at roots
    ``theta``, and where their denominator vanished."""
    # (1 - cos theta) sin(m theta) / (sin(m theta) - sin((m - 1) theta)),
    # as a product free of cancellation at small theta
    num = np.sin(0.5 * theta) * np.sin(m * theta)
    den = np.cos((m - 0.5) * theta)
    degenerate = np.abs(den) < _DEGENERATE * np.maximum(1.0, np.abs(num))
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, degenerate


def _require_two_branches(params: TfsParams) -> None:
    # with a single branch a star has no repeated arm block and the
    # analytic construction does not apply
    if params.n1 < 2 or params.n2 < 2:
        raise InvalidParameterError(
            "the analytic optimum requires n1 >= 2 and n2 >= 2, got "
            f"n1={params.n1}, n2={params.n2}"
        )


def _weights_at(params: TfsParams, theta: float) -> OrbitWeights:
    """Optimal orbit weights as a function of the characteristic root."""
    w = np.full(params.m1 + params.m2, 0.5)
    boundary, degenerate = _boundary_weights(
        np.array([params.m1, params.m2], dtype=float), np.float64(theta)
    )
    if degenerate.any():
        raise DegenerateSineError(
            f"boundary-weight denominator vanished at theta = {theta}"
        )
    w[params.m1 - 1 : params.m1 + 1] = boundary
    return OrbitWeights(params, w)


def _first_sign_change(f: Callable[[float], float], hi: float) -> float:
    """Where ``f`` stops being positive on ``(0, hi]``, to adjacent floats.

    ``f`` must be positive exactly on an initial segment of the interval;
    bisection on the predicate ``f(mid) > 0`` then never loses the point.
    It is the oracle whose bits both searches, ``_theta_star`` and
    ``_first_sign_changes``, must return.
    """
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _self_check_shifts(s):
    d = _SELF_CHECK
    return np.array([-s - d, -s + d, s - d, s + d])


def _counts_prove_slem(below: np.ndarray, top) -> np.ndarray:
    """Where eigenvalue counts prove ``|slem - s| <= d = _SELF_CHECK``.

    ``below`` counts the eigenvalues below the ``_self_check_shifts``
    ``-s - d``, ``-s + d``, ``s - d``, ``s + d`` (first axis) of the
    central block and of both arm blocks together (second axis).  Each
    has ``top = m1 + m2`` eigenvalues besides the Perron eigenvalue 1, and
    none may lie below ``-s - d`` or at or above ``s + d``, while one lies
    below ``-s + d`` or at or above ``s - d``: then ``slem``, the largest
    modulus after the Perron eigenvalue, is within ``d`` of ``s``.
    """
    bounded = (below[0] == 0).all(axis=0) & (below[3] >= top).all(axis=0)
    attained = (below[1] > 0).any(axis=0) | (below[2] < top).any(axis=0)
    return bounded & attained


def _self_check_error(params: TfsParams, s: float) -> SelfCheckError:
    claim = f"|slem - s| <= {_SELF_CHECK} for s = {s!r}"
    return SelfCheckError(f"eigenvalue counts at {params} do not prove {claim}")


def _self_checked(
    params: TfsParams, theta_star: float, ow: OrbitWeights
) -> OptimalSolution:
    s = float(np.cos(theta_star))
    blocks = build_blocks(params, ow)
    shifts = _self_check_shifts(s)
    below = np.array([
        blocks.center.count_below(shifts),
        blocks.minus.count_below(shifts) + blocks.plus.count_below(shifts),
    ]).T
    if not _counts_prove_slem(below, params.m1 + params.m2):
        raise _self_check_error(params, s)
    return OptimalSolution(params=params, theta_star=theta_star, s=s, weights=ow)


def optimal_weights(params: TfsParams) -> OptimalSolution:
    """Provably optimal orbit weights for fastest consensus averaging.

    Interior orbits get weight 1/2; the two center-adjacent orbits follow
    from the smallest characteristic root theta*, the bits that bisection
    on ``(0, pi / (2 max(m1, m2))]`` gives, found by ``_theta_star`` in
    at most fourteen evaluations.  The result is self-checked: eigenvalue
    counts of its blocks (``Tridiagonal.count_below``) must prove
    ``s = cos(theta*)`` the spectral radius below 1 within 1e-9.
    Requires n1, n2 >= 2.
    """
    _require_two_branches(params)
    theta_star = _theta_star(params)
    return _self_checked(params, theta_star, _weights_at(params, theta_star))


@dataclass(frozen=True)
class BatchSolution:
    """Smallest roots theta*, ``s = cos(theta*)`` and the two boundary
    weights ``w_{-1}``, ``w_1`` of a batch of shapes, as read-only arrays
    in the shape of the broadcast inputs.  A read-only float64 array is
    kept as it is; any other is copied, and the copy made read-only."""

    theta_star: np.ndarray
    s: np.ndarray
    w_minus_1: np.ndarray
    w_plus_1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta_star", "s", "w_minus_1", "w_plus_1"):
            object.__setattr__(self, name, _frozen_floats(getattr(self, name)))


class _Shapes(NamedTuple):
    """Branch lengths and counts of a batch as float arrays, one entry per
    lane; ``central_tridiagonal`` reads them as it reads a ``TfsParams``."""

    m1: np.ndarray
    n1: np.ndarray
    m2: np.ndarray
    n2: np.ndarray


def _cell(cells: list[np.ndarray], index: int) -> tuple:
    return tuple(cell[index : index + 1].tolist()[0] for cell in cells)


def _cells(arrays: list[np.ndarray]) -> list[np.ndarray]:
    # the arrays broadcast together and flattened; reshape leaves a
    # one-dimensional broadcast a view, where ravel copies it
    return [cell.reshape(-1) for cell in np.broadcast_arrays(*arrays)]


def _batch_shapes(arrays: list[np.ndarray]) -> _Shapes:
    """The arrays' cells as floats, once every cell is a valid two-branch
    shape.  Each array is converted once, at its own shape, so a constant
    branch count stays one float under its lanes' views.

    Otherwise the first invalid cell, in input order, raises the error
    that ``TfsParams`` or ``optimal_weights`` raise for it.
    """
    try:
        shapes = _Shapes(*_cells([np.asarray(v, dtype=float) for v in arrays]))
    except (OverflowError, TypeError, ValueError):
        suspects = None
    else:
        fields = np.stack(shapes)
        valid = np.isfinite(fields) & (fields == np.floor(fields)) & (fields >= _LEAST)
        valid = valid.all(axis=0)
        if valid.all():
            return shapes
        suspects = np.flatnonzero(~valid).tolist()
    # only an error message reads the cells as they were given
    cells = _cells(arrays)
    for index in range(cells[0].size) if suspects is None else suspects:
        _require_two_branches(TfsParams(*_cell(cells, index)))
    raise InvalidParameterError("branch lengths and counts must be integers")


def _relation_rows(shapes: _Shapes) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's angle coefficients ``0.5, m1, m2`` and arm factors
    ``2/n1, 2/n2`` as rows of shape ``(1, lanes)``, which broadcast over
    the two trial angles of a lane: ``_relation``'s ``coef`` and
    ``two_n``."""
    coef = np.stack([np.full(shapes.m1.size, 0.5), shapes.m1, shapes.m2])
    two_n = 2.0 / np.stack([shapes.n1, shapes.n2])
    return coef[:, None], two_n[:, None]


def _relation(coef, two_n, theta, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``_char_values + 1`` of every lane at ``theta``, and Newton's step
    ``-f / f'`` there for ``f = a1 a2 - 1``, from ``_relation_rows``.

    Each float operation of the product is ``_char_values``'s, in the
    same order, so the bits are its own; ``product > 1.0`` is then
    exactly its ``> 0.0``, since ``x - 1.0 > 0.0`` holds exactly when
    ``x > 1.0``.  An arm factor is ``a = g - 1`` with ``g = (2/n) cot(m t)
    cot(t/2)``, so ``-a' = e g`` with ``e = m / (sin cos)(m t) + 1 / sin
    t``, the rows of ``coef / (sin cos)`` summed.  Then ``-f' = a1 a2 ((1
    + 1/a1) e1 + (1 + 1/a2) e2)``, and the step ``(1 - 1/a1 a2)`` over
    that sum overflows nowhere that ``a1 a2`` does not.  Nothing persists
    between calls; the step reuses the evaluation's arrays in place, and
    is written to ``out`` if given.
    """
    angles = coef * theta
    cot = np.cos(angles)
    sin = np.sin(angles, out=angles)
    cot /= sin
    arm = two_n * cot[1:]
    arm *= cot[0]
    arm -= 1.0
    product = arm[0] * arm[1]
    rate = np.multiply(sin, sin, out=sin)
    rate *= cot
    np.divide(coef, rate, out=rate)
    rate[1:] += rate[0]
    ratio = np.reciprocal(arm, out=arm)
    ratio += 1.0
    rate[1:] *= ratio
    slope = np.add(rate[1], rate[2], out=rate[0])
    step = np.reciprocal(product, out=out)
    np.subtract(1.0, step, out=step)
    step /= slope
    return product, step


def _closed_form_root(m1, two_n1, m2, two_n2, xp):
    """theta* from the relation with ``cot x = 1/x - 4x/pi^2``, from the
    lengths ``m`` and arm factors ``2/n``: floats with ``xp = math``, or
    arrays that broadcast with ``xp = np``.

    That cotangent is exact as ``x -> 0`` and at ``pi/2``, and
    ``cot(t/2) = 2/t - t/6``; dropping the ``t^2`` term then makes
    ``(g1 - 1)(g2 - 1) = 1`` the quadratic
    ``(u - c1)(u - c2) = n1 m1 n2 m2 / 16`` in ``u = 1/t^2``, with
    ``c = n m/4 + 4 m^2/pi^2 + 1/12``.  Its larger root, the smaller
    angle, is ``(c1 + c2 + hypot(c1 - c2, d)) / 2`` with
    ``d = sqrt(n1 m1 n2 m2) / 2``.  Where the result is not a positive
    float, or lies above the bracket, each search starts from ``hi / 2``
    or ``hi``.
    """
    quarter1, quarter2 = m1 / two_n1 * 0.5, m2 / two_n2 * 0.5
    # the split square root keeps n1 n2 ~ 1e600 finite, and so does hypot
    d = xp.sqrt(quarter1) * xp.sqrt(quarter2)
    d = d + d
    c1 = m1 * m1 * _COT_SLOPE + quarter1 + 1.0 / 12.0
    c2 = m2 * m2 * _COT_SLOPE + quarter2 + 1.0 / 12.0
    return xp.sqrt(2.0 / (xp.hypot(c1 - c2, d) + c1 + c2))


def _first_sign_changes(shapes: _Shapes) -> np.ndarray:
    """``_first_sign_change`` of the relation on every lane at once, bit for
    bit, by a hedged Newton search from a closed-form start.

    Each lane keeps bisection's bracket ``(lo, hi]``, from ``lo = 0`` and
    ``hi = pi / (2 max(m1, m2))``, and each evaluation judges two trial
    points strictly inside it, in one call of ``_relation``, by the
    scalar predicate ``product > 1.0``: ``lo`` moves to the higher point
    that holds, taking its Newton step, and ``hi`` to the lower one that
    fails, as bisection moves them.  Since the predicate changes sign
    once on the bracket, as ``_first_sign_change`` requires, each lane
    ends at the adjacent floats where bisection ends and returns
    bisection's last midpoint ``0.5 * (lo + hi)``.  Like bisection it
    never evaluates the first ``hi``, where with ``m1 = m2`` both arm
    factors are -1 and rounding may make the predicate hold.

    The first points are a millionth below ``_closed_form_root`` and 3 %
    above it (at most halfway to ``hi``).  Below theta* both arm factors
    are positive, decreasing and convex, so ``f = a1 a2 - 1`` is convex on
    ``[lo, theta*]`` and Newton's point ``N = lo + step`` stays below
    theta*.  Its error is near ``C step^2``, with ``C = step / last^2``
    read from ``lo``'s last two steps, and the other point lies ``_PAST``
    such errors above ``N``; a predicted error is at most
    ``_FIRST_ERROR`` of the step, which is all a lane whose ``lo`` has
    one step yet predicts.  Then ``N`` holds and the other point fails,
    and the bracket shrinks to a few of Newton's errors.  The lower point
    stays below the float under ``hi`` and the upper one at least one
    float above it, so a bracket of three ulps closes in one evaluation.
    Where the bracket has not shrunk to a quarter over the last two
    evaluations, the upper point is the midpoint instead (the two
    sorted), so the width falls at least as ``2**(-k/2)`` over ``k``
    evaluations: a lane takes at most about twice the evaluations of
    bisection from the same bracket, whatever ``f`` does above theta*.  A
    point outside the bracket becomes the float inside it nearest to it,
    and a nan point (where ``lo`` has no step yet) a float next to one of
    its ends.

    The batch takes as many evaluations as its slowest lane: six or seven
    on the benchmark's ``sweep`` grids, on ``sweep fig2``, on a
    log-uniform sample up to ``m = 1e6`` and ``n = 1e15`` and on the
    slices of a 300 x 300 grid, where bisection takes 52 to 55; the count
    does not grow with ``n1`` and ``n2``.  Its memory is a few stacks of
    two points on the lanes it is given.
    """
    coef, two_n = _relation_rows(shapes)
    hi = np.pi / (2.0 * np.maximum(shapes.m1, shapes.m2))
    # angle and Newton step of the two trial points of each lane, in
    # order, and of lo
    trial = np.empty((2, 2, hi.size))
    x, steps = trial
    lo_end = np.zeros((2, hi.size))
    lo, step = lo_end
    step[...] = np.nan
    last, error = np.empty_like(lo_end)
    start = _closed_form_root(shapes.m1, two_n[0], shapes.m2, two_n[1], np)
    start = np.where(start > 0.0, np.minimum(start, hi), 0.5 * hi)
    np.multiply(start, _START, out=x)
    # bisection never evaluates hi, where with m1 = m2 both arm factors
    # are -1 and rounding may make the predicate hold
    np.minimum(x[1], 0.5 * (x[0] + hi), out=x[1])
    # non-negative floats order as their bit patterns, and adjacent ones
    # differ by one there
    x_bits, lo_bits, hi_bits = (v.view(np.int64) for v in (x, lo, hi))
    lower_bits, upper_bits = x_bits
    quarter_before = quarter_last = 0.25 * hi
    # far from theta* a step may divide by zero or overflow, and a nan
    # point is clipped into the bracket
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            holds = _relation(coef, two_n, x, out=steps)[0] > 1.0
            fails = ~holds
            np.copyto(last, step)
            # x[0] <= x[1], and the predicate holds on an initial segment
            np.copyto(lo_end, trial[:, 0], where=holds[0])
            np.copyto(lo_end, trial[:, 1], where=holds[1])
            np.copyto(hi, x[1], where=fails[1])
            np.copyto(hi, x[0], where=fails[0])
            if not (hi_bits - lo_bits > 1).any():
                return 0.5 * (lo + hi)
            np.divide(step, last, out=error)
            error *= error
            error *= step
            np.fmin(error, _FIRST_ERROR * step, out=error)
            np.add(lo, step, out=x[0])
            np.multiply(error, _PAST, out=x[1])
            x[1] += x[0]
            # the midpoint and the lower point, in order, where stalled
            width = hi - lo
            stalled = width > quarter_before
            quarter_before, quarter_last = quarter_last, 0.25 * width
            mid = np.multiply(width, 0.5, out=width)
            mid += lo
            np.fmax(x[0], mid, out=x[1], where=stalled)
            np.fmin(x[0], mid, out=x[0], where=stalled)
            # lo < x[0] < x[1] < hi, x[0] below the float under hi
            np.minimum(lower_bits, hi_bits - 2, out=lower_bits)
            np.maximum(x_bits, lo_bits + 1, out=x_bits)
            np.maximum(upper_bits, lower_bits + 1, out=upper_bits)
            np.minimum(upper_bits, hi_bits - 1, out=upper_bits)


def _newton_step(
    m1: int, two_n1: float, m2: int, two_n2: float, theta: float
) -> float:
    """``_relation``'s Newton step at one angle, on Python floats.

    It is called only where the predicate holds, below the top of the
    bracket, where each arm factor is at least -1: a product above 1 then
    makes both positive, and no divisor is 0.
    """
    half = 0.5 * theta
    sin_half, cos_half = math.sin(half), math.cos(half)
    cot_half = cos_half / sin_half
    rate_half = 0.5 / (sin_half * cos_half)
    slope, product = 0.0, 1.0
    for m, two_n in ((m1, two_n1), (m2, two_n2)):
        angle = m * theta
        sin, cos = math.sin(angle), math.cos(angle)
        arm = two_n * (cos / sin) * cot_half - 1.0
        slope += (m / (sin * cos) + rate_half) * (1.0 + 1.0 / arm)
        product *= arm
    return (1.0 - 1.0 / product) / slope


def _theta_star(params: TfsParams) -> float:
    """``_first_sign_change`` of ``_char_values(params, .)`` on
    ``(0, pi / (2 max(m1, m2))]``, bit for bit: ``_first_sign_changes``'s
    search on one shape.

    It starts from ``_closed_form_root`` and moves ``lo`` and ``hi`` by
    the predicate ``_char_values(params, x) > 0.0`` alone, at the trial
    points a lane of the batch takes, clipped into the bracket with
    ``math.nextafter``.  The lower point is judged first; where it fails
    so does the upper one, which is then not evaluated.  Only ``lo``'s
    Newton step is read, so it is computed, in ``math``, once per move of
    ``lo``.  It takes 6 to 13 evaluations of the relation where bisection
    takes 52 to 55, whatever ``n1`` and ``n2``.
    """
    m1, m2 = params.m1, params.m2
    two_n1, two_n2 = 2.0 / params.n1, 2.0 / params.n2
    lo, hi = 0.0, math.pi / (2 * max(m1, m2))
    start = _closed_form_root(m1, two_n1, m2, two_n2, math)
    start = min(start, hi) if start > 0.0 else 0.5 * hi
    lower = start * _START_BELOW
    upper = min(start * _START_ABOVE, 0.5 * (lower + hi))
    step = math.nan
    quarter_before = quarter_last = 0.25 * hi
    while True:
        last = step
        # the predicate holds on an initial segment of the bracket
        if _char_values(params, lower) > 0.0:
            if lower < upper:
                if _char_values(params, upper) > 0.0:
                    lower = upper
                else:
                    hi = upper
            lo, step = lower, _newton_step(m1, two_n1, m2, two_n2, lower)
        else:
            hi = lower
        if math.nextafter(lo, hi) == hi:
            return 0.5 * (lo + hi)
        # min and max keep their first argument against nan, as fmin and
        # fmax drop a nan: a nan step (lo has none yet) is clipped below
        error = _FIRST_ERROR * step
        if last != 0.0:
            ratio = step / last
            error = min(error, ratio * ratio * step)
        lower = lo + step
        upper = lower + _PAST * error
        width = hi - lo
        if width > quarter_before:
            mid = 0.5 * width + lo
            lower, upper = min(mid, lower), max(mid, lower)
        quarter_before, quarter_last = quarter_last, 0.25 * width
        # lo < lower <= upper < hi: lower below the float under hi and
        # upper a float above lower where the bracket has room; a point
        # past the top, or nan, goes to its end
        below_hi = math.nextafter(hi, 0.0)
        if not lower < below_hi:
            lower = math.nextafter(below_hi, 0.0)
        lower = max(lower, math.nextafter(lo, hi))
        if not upper < below_hi:
            upper = below_hi
        upper = min(max(upper, math.nextafter(lower, hi)), below_hi)


def _skeleton_rows(shapes: _Shapes, w_minus, w_plus) -> tuple:
    """Each optimum's weight-dependent rows for ``count_central_below``:
    ``central_tridiagonal`` on the four orbits ``[w_int, w_-1, w_1,
    w_int]``, with ``w_int`` the arm's interior weight (1/2, and 0 for an
    arm of one row, which has no interior orbit)."""
    w = np.empty((4, w_minus.size))
    w[1], w[2] = w_minus, w_plus
    w[0] = np.where(shapes.m1 > 1.0, 0.5, 0.0)
    w[3] = np.where(shapes.m2 > 1.0, 0.5, 0.0)
    return central_tridiagonal(shapes._replace(m1=2), w)


def _skeleton_proves_slem(
    shapes: _Shapes, s: np.ndarray, w_minus, w_plus
) -> np.ndarray:
    """``_counts_prove_slem`` on the counts of each optimum's central block
    at all four shifts, in one ``count_central_below`` call on its
    ``_skeleton_rows``."""
    below = count_central_below(
        *_skeleton_rows(shapes, w_minus, w_plus),
        np.stack([shapes.m1, shapes.m2]),
        _self_check_shifts(s),
    )
    return _counts_prove_slem(below, shapes.m1 + shapes.m2)


def optimal_weights_batch(m1, n1, m2, n2) -> BatchSolution:
    """``optimal_weights`` for many shapes at once, as arrays.

    ``m1, n1, m2, n2`` are integer arrays (or integers) that broadcast
    together.  Once every shape is valid, each slice of
    ``_ONE_CALL_LANES`` shapes is solved end to end, root search to
    self-check, into one result buffer, whose rows the result views
    read-only: memory is one slice's besides the buffer.  A slice's
    search keeps bisection's predicate, bracket and stop rule, so theta*,
    ``s`` and both boundary weights equal the scalar route's bit for
    bit.  The self-check (``_skeleton_proves_slem``) makes the scalar
    route's decision, ``_counts_prove_slem`` at the same shifts, on a
    skeleton of each optimum's central block, in O(1) time and memory
    per instance whatever its branch lengths.  An invalid shape, or one
    that the scalar route would not return, raises that route's error
    for the first such instance in input order: ``InvalidParameterError``
    before any solving, then ``DegenerateSineError`` or
    ``SelfCheckError``.
    """
    arrays = [np.asarray(v) for v in (m1, n1, m2, n2)]
    shapes = _batch_shapes(arrays)
    results = np.empty((4, shapes.m1.size))
    for start in range(0, shapes.m1.size, _ONE_CALL_LANES):
        lanes = slice(start, start + _ONE_CALL_LANES)
        chunk = _Shapes(*(field[lanes] for field in shapes))
        theta, s, w_minus, w_plus = results[:, lanes]
        theta[:] = _first_sign_changes(chunk)
        np.cos(theta, out=s)
        m = np.stack([chunk.m1, chunk.m2])
        results[2:, lanes], degenerate = _boundary_weights(m, theta)
        failed = degenerate.any(axis=0)
        failed |= ~_skeleton_proves_slem(chunk, s, w_minus, w_plus)
        if failed.any():
            # the scalar route raises its own error for this instance
            params = TfsParams(*_cell(_cells(arrays), start + int(np.argmax(failed))))
            raise _self_check_error(params, optimal_weights(params).s)
    results.flags.writeable = False
    shape = np.broadcast_shapes(*(v.shape for v in arrays))
    return BatchSolution(*(result.reshape(shape) for result in results))


def solve_symmetric_star(m: int, n: int) -> OptimalSolution:
    """Optimal weights for a single symmetric star: n branches of length m.

    The characteristic relation collapses to
    ``g(theta) = (n + 2) cos((m + 1/2) theta) - (n - 2) cos((m - 1/2) theta)
    = 0``; ``g`` falls strictly from 4 at 0 to at most 0 at
    ``pi / (2m + 1)``, so bisection there finds the smallest root.  The
    returned solution carries an equivalent TFS parameterization with the n
    branches split into two stars of equal branch length (any split yields
    the same network).
    """
    if int(m) != m or m < 1:
        raise InvalidParameterError(f"m must be an integer >= 1, got {m!r}")
    if int(n) != n or n < 2:
        raise InvalidParameterError(f"n must be an integer >= 2, got {n!r}")
    m, n = int(m), int(n)
    theta_star = _first_sign_change(
        lambda theta: (n + 2.0) * math.cos((m + 0.5) * theta)
        - (n - 2.0) * math.cos((m - 0.5) * theta),
        math.pi / (2 * m + 1),
    )
    params = TfsParams(m, n // 2, m, n - n // 2)
    return _self_checked(params, theta_star, _weights_at(params, theta_star))
