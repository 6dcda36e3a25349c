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
find it faster with bisection's bits, from a closed-form root of the
relation with ``cot x = 1/x - 4x/pi^2`` (``_closed_form_root``), within
3 % of theta*, in a number of steps that does not grow with ``n1`` and
``n2``.  Below theta* the relation is convex, so Newton's points from
below stay below theta*.  Both routes climb with them to the first
point past theta*, walk down a few floats and bisect the bracket left,
in four to twelve evaluations where bisection takes 52 to 55:
``optimal_weights`` on one shape (``_theta_star``, evaluating
``_char_values``), and ``optimal_weights_batch`` on every lane of a
slice of ``_ONE_CALL_LANES`` shapes at once (``_first_sign_changes``),
each step one call of the stateless ``_relation`` at one angle a lane,
with ``_char_values``'s float operations in its order.  The batch takes
exactly the shapes that ``TfsParams`` takes, so both routes search the
same domain, and on its bracket the boundary weights' denominator is at
least ``sin(pi / (4m))`` (``_boundary_weights``).  A single solve's
climb stops at the float under the bracket's top, as the batch's does.

An optimum is four numbers, theta*, ``s``, the gap ``1 - s`` (taken as
``2 sin^2(theta*/2)``, free of cancellation) and the two boundary
weights, and both routes return them without an array of the branch
lengths.  Every optimum, on either route, is self-checked by eigenvalue
counts at four shifts (``_counts_prove_slem``), never by computed
eigenvalues, on the skeleton of its blocks: ``central_tridiagonal`` on
four orbits (``spectral.skeleton_rows``), each arm's interior taken as
the optimum's constant run, so the counts cost O(1) in the branch
lengths.  A single solve makes twelve pure-Python run counts
(``spectral.SkeletonBlocks``), which its report and certificate reuse;
a batch makes one ``count_central_below`` call vectorised over a slice.
A batch converts and validates its shapes once, into one float array
whose rows are ``m1, n1, m2, n2`` (``_batch_shapes``), and solves each
slice, search to self-check, on row views of it, into one result buffer
whose rows the ``BatchSolution`` views.
``OptimalSolution.weights`` writes the ``m1 + m2`` orbit weights out
only for a consumer that needs them.  The oracle that the tests hold
theta* to, a bisection of the same relation in mpmath
(``mp_theta_star``), lives in ``fusedstar.reference``.
A single solve runs on Python floats and ``math``, whose sines and
cosines have numpy's bits, and loads no numpy; the batch, whose every
step is an array, imports it on first use.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .spectral import (
    SkeletonBlocks, _frozen_floats, _Shapes, count_central_below, skeleton_rows
)
from .topology import MAX_ARRAY_ENTRIES, InvalidParameterError, TfsParams
from .weighting import OrbitWeights, skeleton_weights


class SelfCheckError(RuntimeError):
    """Eigenvalue counts do not prove the analytic optimum's SLEM."""


_SELF_CHECK = 1e-9  # largest |slem - s| the self-checks accept
# shapes that optimal_weights_batch solves end to end in one slice
_ONE_CALL_LANES = 8192
# the slope of _closed_form_root's cotangent, and the first point of both
# root searches as a multiple of that start
_COT_SLOPE = 4.0 / math.pi**2
_START_BELOW = 1.0 - 1e-6


@dataclass(frozen=True)
class OptimalSolution:
    """The optimum of one shape as four numbers: the smallest root
    ``theta_star``, ``s = cos(theta_star)``, the SLEM that eigenvalue counts
    proved within ``_SELF_CHECK``, the spectral gap ``1 - s``, taken as
    ``_gap(theta_star)``, and the two boundary weights; every interior
    orbit weighs 1/2.  ``skeleton`` counts its blocks in O(1) of the branch
    lengths, and ``weights`` writes its ``m1 + m2`` orbit weights out, in
    O(m) memory, only when a consumer asks for them."""

    params: TfsParams
    theta_star: float
    s: float
    gap: float
    w_minus_1: float
    w_plus_1: float

    @functools.cached_property
    def skeleton(self) -> SkeletonBlocks:
        return SkeletonBlocks(self.params, self.w_minus_1, self.w_plus_1)

    @functools.cached_property
    def weights(self) -> OrbitWeights:
        return skeleton_weights(self.skeleton)


def _cot(angle: float) -> float:
    """``cos / sin`` of ``angle`` with IEEE division's quiet result where
    the sine is 0, which for a float it is only at an angle of +-0: the
    infinity of that zero's sign."""
    sin = math.sin(angle)
    return math.cos(angle) / sin if sin else math.copysign(math.inf, sin)


def _char_values(params: TfsParams, theta: float) -> float:
    # on Python floats; _relation repeats these operations for a batch.  A
    # product of an infinite arm factor and a zero one is nan, quietly,
    # where a branch count near the float range puts theta* near 1e-154
    cot_half = _cot(0.5 * theta)
    arm1 = 2.0 / params.n1 * _cot(params.m1 * theta) * cot_half - 1.0
    arm2 = 2.0 / params.n2 * _cot(params.m2 * theta) * cot_half - 1.0
    return arm1 * arm2 - 1.0


def _boundary_weights(m: np.ndarray, theta: np.ndarray, out=None) -> np.ndarray:
    """Center-adjacent orbit weights of arms of lengths ``m`` at roots
    ``theta``, written to ``out`` if given.

    ``(1 - cos t) sin(m t) / (sin(m t) - sin((m - 1) t))`` is read as the
    product ``sin(t/2) sin(m t) / cos((m - 1/2) t)``, free of cancellation
    at small ``t``.  On theta*'s bracket ``(0, pi / (2 max(m1, m2))]``,
    ``(m - 1/2) t <= pi/2 - pi/(4m)``, so the denominator is at least
    ``sin(pi / (4m)) > 0`` and needs no guard.
    """
    import numpy as np

    weights = np.multiply(np.sin(0.5 * theta), np.sin(m * theta), out=out)
    weights /= np.cos((m - 0.5) * theta)
    return weights


def _gap(theta, xp):
    """``1 - cos(theta)`` as ``2 sin(theta/2)^2``, free of the cancellation
    of ``1 - s`` at small angles, for a float with ``xp = math`` or an
    array of angles with ``xp = np``, with the same float operations in
    the same order on either."""
    half = xp.sin(0.5 * theta)
    return 2.0 * (half * half)


def _require_two_branches(params: TfsParams) -> None:
    # with a single branch a star has no repeated arm block and the
    # analytic construction does not apply
    if params.n1 < 2 or params.n2 < 2:
        raise InvalidParameterError(
            "the analytic optimum requires n1 >= 2 and n2 >= 2, got "
            f"n1={params.n1}, n2={params.n2}"
        )


def _boundary_pair(params: TfsParams, theta: float) -> tuple[float, float]:
    """``w_{-1}`` and ``w_1`` at the characteristic root ``theta``:
    ``_boundary_weights``'s float operations, in its order, on Python
    floats."""
    sin_half = math.sin(0.5 * theta)
    return tuple(
        sin_half * math.sin(m * theta) / math.cos((m - 0.5) * theta)
        for m in (params.m1, params.m2)
    )


def _first_sign_change(
    f: Callable[[float], float], hi: float, lo: float = 0.0
) -> float:
    """Where ``f`` stops being positive on ``(lo, hi]``, to adjacent floats.

    ``f`` must be positive exactly on an initial segment of an interval
    ``(0, top]`` that holds ``(lo, hi]``; bisection on the predicate
    ``f(mid) > 0`` then never loses the point.  Any ``lo`` where ``f`` is
    positive (or 0) and ``hi`` where it is not (or ``top``) end on the
    same two adjacent floats around the point, and so return the bits of
    the full bracket ``(0, top]``.  ``_theta_star`` ends in this
    bisection, and ``_first_sign_changes`` in the same one on every lane.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _self_check_shifts(s):
    """``-s - d``, ``-s + d``, ``s - d``, ``s + d`` for ``d = _SELF_CHECK``:
    a list for a float ``s``, and for an array of ``s`` an array with the
    four on a new first axis, its last two rows in one call.  The first
    two are the negations of the last two, which round as ``-s - d`` and
    ``-s + d`` do."""
    if isinstance(s, float):
        low, high = s - _SELF_CHECK, s + _SELF_CHECK
        return [-high, -low, low, high]
    import numpy as np

    shifts = np.empty((4, *np.shape(s)))
    np.add.outer(np.array([-_SELF_CHECK, _SELF_CHECK]), s, out=shifts[2:])
    np.negative(shifts[:1:-1], out=shifts[:2])
    return shifts


def _counts_prove_slem(below, top):
    """Where eigenvalue counts prove ``|slem - s| <= d = _SELF_CHECK``.

    ``below`` counts the eigenvalues below the ``_self_check_shifts``
    ``-s - d``, ``-s + d``, ``s - d``, ``s + d`` (first axis) of the
    central block and of both arm blocks together (second axis).  Each
    has ``top = m1 + m2`` eigenvalues besides the Perron eigenvalue 1, and
    none may lie below ``-s - d`` or at or above ``s + d``, while one lies
    below ``-s + d`` and one at or above ``s - d``: then ``slem``, the
    largest modulus after the Perron eigenvalue, is within ``d`` of ``s``,
    and both ends of the spectrum are where the optimum's slackness
    conditions put them, ``lambda_min`` within ``d`` of ``-s`` and
    ``lambda2`` of ``s``.  Each condition reads the larger count of the
    two at a shift below 0 and the smaller at one above, written entry by
    entry, so that ``below`` may be nested lists (a single solve's, and the
    verdict a bool) or an array over lanes (a batch's, and the verdict an
    array).
    """
    (c0, a0), (c1, a1), (c2, a2), (c3, a3) = below
    return (
        (c0 == 0) & (a0 == 0) & ((c1 > 0) | (a1 > 0))
        & ((c2 < top) | (a2 < top)) & (c3 >= top) & (a3 >= top)
    )


def _self_check_error(params: TfsParams, s: float) -> SelfCheckError:
    claim = f"|slem - s| <= {_SELF_CHECK} for s = {s!r}"
    return SelfCheckError(f"eigenvalue counts at {params} do not prove {claim}")


def _self_checked(
    params: TfsParams, theta_star: float, w_minus: float, w_plus: float
) -> OptimalSolution:
    s = math.cos(theta_star)
    solution = OptimalSolution(
        params, theta_star, s, _gap(theta_star, math), w_minus, w_plus
    )
    below = solution.skeleton.count_below(_self_check_shifts(s))
    if not _counts_prove_slem(below, params.m1 + params.m2):
        raise _self_check_error(params, s)
    return solution


def optimal_weights(params: TfsParams) -> OptimalSolution:
    """Provably optimal orbit weights for fastest consensus averaging.

    Interior orbits get weight 1/2; the two center-adjacent orbits follow
    from the smallest characteristic root theta*, the bits that bisection
    on ``(0, pi / (2 max(m1, m2))]`` gives, found by ``_theta_star`` in
    at most nine evaluations (twelve at long unequal arms, and up to 35
    where arms of more than 10^9 rows nearly match).  The result
    is self-checked: eigenvalue counts of its blocks, twelve counts of
    their skeleton (``SkeletonBlocks``), must prove ``s = cos(theta*)`` the
    spectral radius below 1 within 1e-9.  Time and memory are O(1) in the
    branch lengths and counts.  Requires n1, n2 >= 2.
    """
    _require_two_branches(params)
    theta_star = _theta_star(params)
    return _self_checked(params, theta_star, *_boundary_pair(params, theta_star))


@dataclass(frozen=True)
class BatchSolution:
    """Smallest roots theta*, ``s = cos(theta*)``, the two boundary weights
    ``w_{-1}``, ``w_1`` and the gaps ``1 - s`` of a batch of shapes, as
    read-only arrays in the shape of the broadcast inputs.  A read-only
    float64 array is kept as it is; any other is copied, and the copy made
    read-only."""

    theta_star: np.ndarray
    s: np.ndarray
    w_minus_1: np.ndarray
    w_plus_1: np.ndarray
    gap: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta_star", "s", "w_minus_1", "w_plus_1", "gap"):
            object.__setattr__(self, name, _frozen_floats(getattr(self, name)))


def _cell(cells: list[np.ndarray], index: int) -> tuple:
    return tuple(cell[index : index + 1].tolist()[0] for cell in cells)


def _cells(arrays: list[np.ndarray]) -> list[np.ndarray]:
    # the arrays broadcast together and flattened; reshape leaves a
    # one-dimensional broadcast a view, where ravel copies it
    import numpy as np

    return [cell.reshape(-1) for cell in np.broadcast_arrays(*arrays)]


def _batch_shapes(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays broadcast together and converted to floats in one plain
    array of shape ``(4, *broadcast shape)`` whose rows are ``m1, n1, m2,
    n2``, once every cell is a valid two-branch shape: the batch's shapes,
    which its slices view and read by row index.

    Otherwise the first invalid cell, in input order, raises the error
    that ``TfsParams`` or ``optimal_weights`` raise for it.  A float sum
    of lengths may round across the limit ``m1 + m2 + 1 <=
    MAX_ARRAY_ENTRIES``, so ``TfsParams`` judges the cells as given
    wherever that sum reaches half the limit.
    """
    import numpy as np

    try:
        fields = np.empty((4, *np.broadcast(*arrays).shape))
        for row, cells in enumerate(arrays):
            fields[row] = cells
    except (OverflowError, TypeError, ValueError):
        suspects = valid = None
    else:
        lanes = fields.reshape(4, -1)
        # the least valid m1, n1, m2, n2, as a column
        least = np.array([[1.0], [2.0], [1.0], [2.0]])
        valid = np.isfinite(lanes) & (lanes == np.floor(lanes)) & (lanes >= least)
        long = lanes[0] + lanes[2] >= 0.5 * MAX_ARRAY_ENTRIES
        if valid.all() and not long.any():
            return fields
        valid = valid.all(axis=0)
        suspects = np.flatnonzero(~valid | long).tolist()
    cells = _cells(arrays)
    for index in range(cells[0].size) if suspects is None else suspects:
        _require_two_branches(TfsParams(*_cell(cells, index)))
    if valid is None or not valid.all():
        raise InvalidParameterError("branch lengths and counts must be integers")
    return fields


def _relation_rows(shapes) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's angle coefficients ``0.5, m1, m2`` and arm factors
    ``2/n1, 2/n2`` as rows of shape ``(1, lanes)``, which broadcast over
    the angles of a lane (``theta``'s first axis): ``_relation``'s
    ``coef`` and ``two_n``, from the rows of a slice's shapes."""
    import numpy as np

    coef = np.empty((3, 1, shapes.shape[1]))
    coef[0] = 0.5
    coef[1:, 0] = shapes[::2]
    return coef, 2.0 / shapes[1::2, None]


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
    that sum overflows nowhere that ``a1 a2`` does not.  ``sin cos`` is
    read as ``(cot sin) sin``, which stays normal at angles below 1e-154,
    where ``sin**2`` underflows.  Nothing persists
    between calls; the step reuses the evaluation's arrays in place, and
    is written to ``out`` if given.
    """
    import numpy as np

    angles = coef * theta
    cot = np.cos(angles)
    sin = np.sin(angles, out=angles)
    cot /= sin
    arm = two_n * cot[1:]
    arm *= cot[0]
    arm -= 1.0
    product = arm[0] * arm[1]
    rate = np.multiply(cot, sin, out=cot)
    rate *= sin
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
    ``d = sqrt(n1 m1 n2 m2) / 2``.  Its terms are scaled by ``2**-64`` and
    the angle by ``2**-32``, exact powers of four, so ``n m / 4`` near the
    float range leaves the sum finite and other shapes keep their bits.
    Where the result lies above the bracket, each search starts from
    ``hi``.
    """
    unit = 2.0**-64
    quarter1, quarter2 = m1 * unit / two_n1 * 0.5, m2 * unit / two_n2 * 0.5
    # the split square root keeps n1 n2 ~ 1e600 finite, and so does hypot
    d = xp.sqrt(quarter1) * xp.sqrt(quarter2)
    d = d + d
    c1 = m1 * m1 * unit * _COT_SLOPE + quarter1 + unit / 12.0
    c2 = m2 * m2 * unit * _COT_SLOPE + quarter2 + unit / 12.0
    return xp.sqrt(2.0 / (xp.hypot(c1 - c2, d) + c1 + c2)) * 2.0**-32


def _first_sign_changes(shapes) -> np.ndarray:
    """``_theta_star`` on every lane at once: ``_first_sign_change`` of the
    relation on ``(0, pi / (2 max(m1, m2))]``, bit for bit.

    Each call of ``_relation`` judges one angle ``x`` a lane by the scalar
    predicate ``product > 1.0``, and moves the lane's ``lo`` to ``x`` where
    it holds and its ``hi`` to ``x`` where it fails.  A lane climbs as the
    single solve does: from a millionth below ``_closed_form_root``, a
    start that fails halved, then Newton's points from ``lo``, each at
    least two floats above it.  From its first failing point after one
    held a lane walks down from ``hi`` by 1, 2, 4, ... floats, and
    bisects once the walk passes the midpoint.  Every point lies below
    ``hi``, so the first ``hi``, where with ``m1 = m2`` both arm factors
    are -1 and rounding may make the predicate hold, is never judged.  Since the predicate holds on an
    initial segment of the bracket, each lane ends on the adjacent floats
    where bisection ends, and the search returns bisection's last
    midpoint ``0.5 * (lo + hi)`` once every lane has.

    The batch takes as many evaluations as its slowest lane: 8 or 9 on
    the benchmark's ``sweep`` grids, on ``sweep fig2``, on a log-uniform
    sample up to ``m = 1e6`` and ``n = 1e15`` and on the slices of a 300
    x 300 grid, and 10 to 12 at the longest unequal arms of that sample,
    where bisection takes 52 to 55; the count does not grow with ``n1``
    and ``n2``.  Its memory is a few rows of one angle a lane.
    """
    import numpy as np

    coef, two_n = _relation_rows(shapes)
    m1, m2 = coef[1:, 0]
    hi = np.pi / (2.0 * np.maximum(m1, m2))
    # each lane's lo and Newton's step there, and the angle x it judges
    # next and the step there, so that a judgement that holds moves both
    # in one call
    held, judged = np.zeros((2, 2, hi.size))
    (lo, step), (x, x_step) = held, judged
    # the floats by which a walking lane walks down from hi (0 while it
    # climbs)
    walk = np.zeros(hi.size, dtype=np.int64)
    start = _closed_form_root(m1, two_n[0, 0], m2, two_n[1, 0], np)
    np.multiply(np.minimum(start, hi), _START_BELOW, out=x)
    # far from theta* a step may come of a division by zero or an overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # non-negative floats order as their bit patterns, and adjacent
        # ones differ by one there
        x_bits, lo_bits, hi_bits = (v.view(np.int64) for v in (x, lo, hi))
        angle, angle_step = x[None], x_step[None]
        while True:
            holds = _relation(coef, two_n, angle, out=angle_step)[0][0] > 1.0
            fails = ~holds
            np.copyto(held, judged, where=holds)
            np.copyto(hi, x, where=fails)
            width = hi_bits - lo_bits
            if width.max(initial=0) <= 1:
                return 0.5 * (lo + hi)
            climbed = lo > 0.0
            # a walk starts at a lane's first failing point after one held;
            # past half the bracket the midpoint takes over, and the cap at
            # its width keeps the doubling from overflowing
            walk += walk
            np.minimum(walk, width, out=walk)
            np.maximum(walk, fails, out=walk, where=climbed)
            mid = lo + hi
            mid *= 0.5
            # Newton's point at least two floats above lo; a start that
            # fails is halved
            np.add(lo, step, out=x)
            np.fmax(x, (lo_bits + 2).view(float), out=x)
            np.copyto(x, mid, where=~climbed)
            np.fmax((hi_bits - walk).view(float), mid, out=x, where=walk > 0)
            np.minimum(x_bits, hi_bits - 1, out=x_bits)


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
    ``(0, pi / (2 max(m1, m2))]``, bit for bit.

    Below theta* the relation is convex and decreasing, so Newton's
    method from a point where the predicate ``_char_values(params, x) >
    0.0`` holds climbs towards theta* and stays below it but for
    rounding.  It starts a millionth below ``_closed_form_root``, halved
    until the predicate holds, and each next point is at least two floats
    above the last.  From the first point that fails it walks down by one
    float, two, four, ... until a point holds, and ``_first_sign_change``
    bisects the bracket left, which ends on bisection's adjacent floats.
    It takes 4 to 9 evaluations of the relation, and up to 12 at long
    unequal arms, where bisection takes 52 to 55, whatever ``n1`` and
    ``n2``.  Where arms of more than 10^9 rows nearly match, the root is
    nearly double and Newton's method slows to halving the distance: 35
    evaluations at most on a seeded sample up to 2^59, as in the batch.

    No point lies above the float under ``hi``, as in the batch.  The
    climb's guarantee holds in exact arithmetic only: past ``m = 2^53``
    the float predicate can hold on the whole bracket (``m * hi`` rounds
    below pi/2, whose cosine is positive), and a climb of two floats a
    step would then pass ``hi`` and never end.  A climb that reaches the
    float under ``hi`` with the predicate holding there ends, on the
    bracket of that float and ``hi``, whose bisection gives ``hi``'s bits.
    """
    m1, m2 = params.m1, params.m2
    two_n1, two_n2 = 2.0 / params.n1, 2.0 / params.n2
    hi = math.pi / (2 * max(m1, m2))
    top = math.nextafter(hi, 0.0)
    start = _closed_form_root(m1, two_n1, m2, two_n2, math)
    lo = min(start, hi) * _START_BELOW
    while not _char_values(params, lo) > 0.0:
        lo *= 0.5
    while lo < top:
        # max keeps its first argument against a nan step
        two_up = math.nextafter(math.nextafter(lo, math.inf), math.inf)
        x = min(max(two_up, lo + _newton_step(m1, two_n1, m2, two_n2, lo)), top)
        if not _char_values(params, x) > 0.0:
            break
        lo = x
    else:
        return _first_sign_change(lambda theta: _char_values(params, theta), hi, lo)
    hi, drop = x, math.ulp(x)
    while x - drop > lo:
        if _char_values(params, x - drop) > 0.0:
            lo = x - drop
            break
        hi, drop = x - drop, drop + drop
    return _first_sign_change(lambda theta: _char_values(params, theta), hi, lo)


def _skeleton_proves_slem(shapes, s: np.ndarray, w_minus, w_plus) -> np.ndarray:
    """``_counts_prove_slem`` on the counts of each optimum's central block
    at all four shifts, in one ``count_central_below`` call on its
    ``skeleton_rows``, from the rows of a slice's shapes."""
    m = shapes[::2]
    below = count_central_below(
        *skeleton_rows(_Shapes(*shapes), w_minus, w_plus), m, _self_check_shifts(s)
    )
    return _counts_prove_slem(below, m[0] + m[1])


def optimal_weights_batch(m1, n1, m2, n2) -> BatchSolution:
    """``optimal_weights`` for many shapes at once, as arrays.

    ``m1, n1, m2, n2`` are integer arrays (or integers) that broadcast
    together.  They are converted once, into one float array of rows
    ``m1, n1, m2, n2`` (``_batch_shapes``), and once every shape is
    valid, each slice of ``_ONE_CALL_LANES`` shapes is solved end to end,
    root search to self-check, on row views of that array, into one
    result buffer of rows theta*, ``s``, ``w_{-1}``, ``w_1`` and the gap,
    which the result views read-only: memory is one slice's besides the
    two arrays.  A slice's search keeps bisection's predicate, bracket
    and stop rule, so theta*, ``s`` and both boundary weights equal the
    scalar route's bit for bit.  The self-check
    (``_skeleton_proves_slem``) makes the scalar route's decision,
    ``_counts_prove_slem`` at the same shifts, on a skeleton of each
    optimum's central block, in O(1) time and memory per instance
    whatever its branch lengths.  An invalid shape, or one that the
    scalar route would not return, raises that route's error for the
    first such instance in input order: ``InvalidParameterError`` before
    any solving, as ``TfsParams`` raises it (for a length sum past
    ``MAX_ARRAY_ENTRIES`` too), then ``SelfCheckError``.
    """
    import numpy as np

    arrays = [np.asarray(v) for v in (m1, n1, m2, n2)]
    shapes = _batch_shapes(arrays)
    results = np.empty((5, *shapes.shape[1:]))
    lanes, solved = shapes.reshape(4, -1), results.reshape(5, -1)
    for start in range(0, lanes.shape[1], _ONE_CALL_LANES):
        chunk = lanes[:, start : start + _ONE_CALL_LANES]
        rows = solved[:, start : start + _ONE_CALL_LANES]
        theta, s, w_minus, w_plus, gap = rows
        theta[...] = _first_sign_changes(chunk)
        np.cos(theta, out=s)
        _boundary_weights(chunk[::2], theta, out=rows[2:4])
        gap[...] = _gap(theta, np)
        failed = ~_skeleton_proves_slem(chunk, s, w_minus, w_plus)
        if failed.any():
            # the scalar route's error for the first failing lane, from
            # the lane's own s, which has that route's bits
            lane = int(np.argmax(failed))
            params = TfsParams(*_cell(_cells(arrays), start + lane))
            raise _self_check_error(params, float(s[lane]))
    results.flags.writeable = False
    return BatchSolution(*results)


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
    return _self_checked(params, theta_star, *_boundary_pair(params, theta_star))
