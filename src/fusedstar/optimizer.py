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
where bisection takes 52 to 55 evaluations: ``optimal_weights`` on one
shape (``_theta_star``, evaluating ``_char_values``) in four to twelve,
and ``optimal_weights_batch`` on every lane of a slice of
``_ONE_CALL_LANES`` shapes at once (``_first_sign_changes``), whose
first two climbs take Halley's step, in at most seven calls of the
stateless ``_relation`` on the benchmark's sweep grids.  Each call
judges one angle a lane (the second two, Newton's point and Halley's),
with ``_char_values``'s float operations in its order, and the last
calls take no step.  The two routes judge different angles and end on
the same floats.  The batch takes
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


def _gap(theta, xp, out=None):
    """``1 - cos(theta)`` as ``2 sin(theta/2)^2``, free of the cancellation
    of ``1 - s`` at small angles, for a float with ``xp = math`` or an
    array of angles with ``xp = np``, written in place to ``out`` if
    given, with the same float operations in the same order on either."""
    if out is None:
        half = xp.sin(0.5 * theta)
        return 2.0 * (half * half)
    half = xp.sin(0.5 * theta, out=out)
    half *= half
    half *= 2.0
    return half


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
    two at a shift below 0 and the smaller at one above.  ``below`` may be
    nested lists (a single solve's, and the verdict a bool) or an array
    over lanes (a batch's, and the verdict an array).
    """
    if isinstance(below, list):
        (c0, a0), (c1, a1), (c2, a2), (c3, a3) = below
        most, least = (max(c0, a0), max(c1, a1)), (min(c2, a2), min(c3, a3))
    else:
        import numpy as np

        most = np.maximum(below[:2, 0], below[:2, 1])
        least = np.minimum(below[2:, 0], below[2:, 1])
    return (most[0] == 0) & (most[1] > 0) & (least[0] < top) & (least[1] >= top)


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


@functools.cache
def _least_shape() -> np.ndarray:
    """The least valid ``m1, n1, m2, n2``, as a read-only column, built on
    first use, so that importing the module loads no numpy."""
    import numpy as np

    least = np.array([[1.0], [2.0], [1.0], [2.0]])
    least.flags.writeable = False
    return least


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
        valid = np.isfinite(lanes) & (lanes == np.floor(lanes))
        valid &= lanes >= _least_shape()
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


def _relation(coef, two_n, theta, order=1) -> tuple:
    """``_char_values + 1`` of every lane at ``theta``, from
    ``_relation_rows``, and the steps of ``order`` towards the root of ``f
    = a1 a2 - 1`` there: none (``None``) for 0, Newton's ``-f / f'`` for 1,
    and for 2 Newton's and Halley's ``-f / f' / (1 - f f'' / 2 f'^2)`` on a
    new first axis.

    Each float operation of the product is ``_char_values``'s, in the
    same order, so the bits are its own; ``product > 1.0`` is then
    exactly its ``> 0.0``, since ``x - 1.0 > 0.0`` holds exactly when
    ``x > 1.0``.  An arm factor is ``a = g - 1`` with ``g = (2/n) cot(m t)
    cot(t/2)``, so ``-a' = e g`` with ``e = m / (sin cos)(m t) + 1 / sin
    t``, the rows of ``coef / (sin cos) = coef (cot + tan)`` summed, which
    stays finite at angles below 1e-154, where ``sin**2`` underflows.
    Then ``-f' = a1 a2 (r1 e1 + r2 e2)`` with ``r = 1 + 1/a``, and the
    step ``(1 - 1/a1 a2)`` over that sum overflows nowhere that ``a1 a2``
    does not.  Each row's share of ``-e'`` is ``coef^2 cos(2 coef t) /
    (sin cos)^2 = coef (cot - tan)`` times its rate, and ``f'' / a1 a2``
    is ``r1 (e1^2 - e1') + r2 (e2^2 - e2') + 2 r1 e1 r2 e2``.  Nothing
    persists between calls; the steps reuse the evaluation's arrays in
    place.
    """
    import numpy as np

    angles = coef * theta
    cot = np.cos(angles)
    sin = np.sin(angles, out=angles)
    cot /= sin
    # the half angle's row and the arms' rows, later of the rates
    half, arms = cot[0], cot[1:]
    arm = two_n * arms
    arm *= half
    arm -= 1.0
    product = arm[0] * arm[1]
    if not order:
        return product, None
    tan = np.reciprocal(cot, out=sin)
    rate = np.add(cot, tan, out=cot)
    rate *= coef
    if order > 1:
        # coef (cot - tan) as rate - 2 coef tan
        curve = np.multiply(tan, coef, out=tan)
        curve *= -2.0
        curve += rate
        curve *= rate
        curve[1:] += curve[0]
    arms += half
    ratio = np.reciprocal(arm, out=arm)
    ratio += 1.0
    if order > 1:
        curve[1:] *= ratio
    rise = np.multiply(arms, ratio, out=ratio)
    slope = np.add(rise[0], rise[1], out=half)
    if order > 1:
        arms *= rise
        curve[1:] += arms
    newton = np.reciprocal(product, out=arms[0] if order > 1 else None)
    np.subtract(1.0, newton, out=newton)
    newton /= slope
    if order == 1:
        return product, newton
    # Halley's step is Newton's over 1 + (Newton's) (-f'' / 2 a1 a2) / slope
    bend = np.add(curve[1], curve[2], out=curve[1])
    bend *= -0.5
    bend -= np.multiply(rise[0], rise[1], out=rise[0])
    step = np.multiply(newton, bend, out=arms[1])
    step /= slope
    step += 1.0
    np.divide(newton, step, out=step)
    return product, arms


def _arm_terms(m, two_n):
    """``n m / 4`` and ``c = n m/4 + 4 m^2/pi^2 + 1/12`` of arms of lengths
    ``m`` and arm factors ``2/n``, scaled by ``2**-64``: floats, or arrays
    with both arms of a slice on their first axis, for
    ``_closed_form_root``.  A scale by an exact power of two rounds as the
    unscaled term does."""
    unit = 2.0**-64
    quarter = m * (0.5 * unit) / two_n
    return quarter, m * m * (unit * _COT_SLOPE) + quarter + unit / 12.0


def _closed_form_root(quarter, c, xp):
    """theta* from the relation with ``cot x = 1/x - 4x/pi^2``, from both
    arms' ``_arm_terms``, indexed by arm: floats with ``xp = math``, or
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
    # the split square root keeps n1 n2 ~ 1e600 finite, and so does hypot
    d = xp.sqrt(quarter[0]) * xp.sqrt(quarter[1])
    d = d + d
    return xp.sqrt(2.0 / (xp.hypot(c[0] - c[1], d) + c[0] + c[1])) * 2.0**-32


def _first_sign_changes(shapes) -> np.ndarray:
    """``_theta_star`` on every lane at once: ``_first_sign_change`` of the
    relation on ``(0, pi / (2 max(m1, m2))]``, bit for bit.

    Each call of ``_relation`` judges each angle ``x`` of a lane by the
    scalar predicate ``product > 1.0``, and moves the lane's ``lo`` to
    ``x`` where it holds and its ``hi`` to ``x`` where it fails.  Every
    lane starts a millionth below ``_closed_form_root``.  While every
    point holds, every lane climbs: first to Newton's point, at least one
    float up, judged beside Halley's point, at least at Newton's, in one
    call; then to Halley's point alone; then to Newton's points.  Halley's
    point lands closer, but it may pass theta*, and a lane that passed it
    from far below would walk down from there, so where it fails it only
    bounds the lane above, and the lane climbs on from where it was.
    These climbs have a loop of their own, which skips the bookkeeping of
    lanes that fail.  Once any point fails, a lane that has climbed
    climbs on with Newton's points, one that has not is halved, and from
    its first failing Newton point a lane walks down from ``hi``, a float
    from each of its first three failing points and then 2, 4, ...
    floats, and bisects once the walk passes the midpoint.  Newton's
    steps from below only shrink, so once no lane's Newton point lies
    more than a float above its ``lo`` and no lane is halved, every
    climbing lane climbs a float a call and the calls left take no step.
    Every point lies below ``hi``, so the first ``hi``, where with ``m1 =
    m2`` both arm factors are -1 and rounding may make the predicate
    hold, is never judged.  Since the predicate holds on an initial
    segment of the bracket, each lane ends on the adjacent floats where
    bisection ends, and the search returns bisection's last midpoint
    ``0.5 * (lo + hi)`` once every lane has.  The single solve
    (``_theta_star``) climbs by Newton's points alone, at least two floats
    a step, and walks by 1, 2, 4, ... floats: it judges other angles, and
    ends on the same floats.

    The batch makes as many calls as its slowest lane: 5 to 7 on the
    benchmark's ``sweep`` grids (6 on most) and 6 on ``sweep fig2``, of
    one angle more, where bisection judges 52 to 55, and 10 at the
    longest unequal arms of a log-uniform sample up to ``m = 1e6``; the
    count does not grow with ``n1`` and ``n2``.  Its memory is a few rows
    of two angles a lane.
    """
    import numpy as np

    coef, two_n = _relation_rows(shapes)
    m = coef[1:, 0]
    hi = np.pi / (2.0 * np.maximum(m[0], m[1]))
    x = np.minimum(_closed_form_root(*_arm_terms(m, two_n[:, 0]), np), hi)
    x *= _START_BELOW
    x = x[None]
    # each lane's lo and Newton's step there
    lo, step = np.zeros((2, hi.size))
    # non-negative floats order as their bit patterns, and adjacent ones
    # differ by one there
    hi_bits = hi.view(np.int64)
    # far from theta* a step may come of a division by zero or an overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the climbs while every point holds: x holds a call's points, a
        # row each
        climb = 0
        while True:
            product, steps = _relation(coef, two_n, x, 2 if climb < 2 else 1)
            holds = product > 1.0
            if climb == 1:
                # Halley's point where it holds; where it fails, it bounds
                # the lane above, and Newton's point is judged as ever
                np.copyto(hi, x[1], where=~holds[1])
                np.copyto(x[0], x[1], where=holds[1])
                np.copyto(steps[:, 0], steps[:, 1], where=holds[1])
            elif climb == 2:
                # where Halley's point, judged alone, fails, it bounds the
                # lane above, and the lane stays at lo
                dropped = ~holds[0]
                np.copyto(hi, x[0], where=dropped)
                np.copyto(x[0], lo, where=dropped)
                np.copyto(steps[0], step, where=dropped)
                holds[0] = True
            if climb < 2:
                x_step, bend = steps[0, 0], steps[1, 0]
            else:
                x_step, bend = steps[0], None
            x, holds = x[0], holds[0]
            # count_nonzero costs a third of all() on a slice's rows
            if np.count_nonzero(holds) < holds.size:
                break
            lo = x
            np.copyto(step, x_step)
            lo_bits = lo.view(np.int64)
            if (hi_bits - lo_bits).max(initial=0) <= 1:
                return 0.5 * (lo + hi)
            x = np.empty((2 if climb == 0 else 1, hi.size))
            newton = np.add(lo, step, out=x[0])
            np.fmax(newton, (lo_bits + 1).view(float), out=newton)
            if climb < 2:
                # Halley's point at least at Newton's: beside it on the first
                # climb, and in its place on the second
                np.fmax(lo + bend, newton, out=x[-1])
            # the float under hi bounds every point
            np.minimum(x.view(np.int64), hi_bits - 1, out=x.view(np.int64))
            # this call's arrays go before the next call makes its own
            del product, steps, x_step, bend, newton
            climb += 1
        lo_bits, x_bits = lo.view(np.int64), x.view(np.int64)
        # each lane's failing points once it has climbed, and the floats by
        # which it walks down from hi
        failed, walk = np.zeros((2, hi.size), dtype=np.int64)
        order = 1
        while True:
            fails = ~holds
            np.copyto(lo, x, where=holds)
            np.copyto(hi, x, where=fails)
            width = hi_bits - lo_bits
            if width.max(initial=0) <= 1:
                return 0.5 * (lo + hi)
            # a lane that has not climbed is halved
            halving = np.count_nonzero(lo) < lo.size
            climbed = lo > 0.0 if halving else True
            # a walk starts at a lane's first failing point after one held
            # and doubles from its fourth; past half the bracket the
            # midpoint takes over, and the cap at its width keeps the
            # doubling from overflowing
            np.add(failed, fails, out=failed, where=climbed)
            walk += walk * (failed > 3)
            np.minimum(walk, width, out=walk)
            np.maximum(walk, fails, out=walk, where=climbed)
            mid = lo + hi
            mid *= 0.5
            if order:
                # Newton's step at each lane's lo, and 0 where a lane
                # failed, since it walks from now on
                np.copyto(step, x_step, where=holds)
                np.copyto(step, 0.0, where=fails)
                # Newton's point at least one float above lo
                up = lo_bits + 1
                np.add(lo, step, out=x)
                np.fmax(x, up.view(float), out=x)
                # once no lane's Newton point lies more than a float up and
                # no lane is halved, every later step is under a float
                order = int(halving or np.count_nonzero(x_bits > up) > 0)
            else:
                # every climbing lane climbs a float
                np.add(lo_bits, 1, out=x_bits)
            if halving:
                np.copyto(x, mid, where=~climbed)
            np.fmax((hi_bits - walk).view(float), mid, out=x, where=walk > 0)
            np.minimum(x_bits, hi_bits - 1, out=x_bits)
            product, steps = _relation(coef, two_n, x[None], order)
            holds = product[0] > 1.0
            if order:
                x_step = steps[0]


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
    (quarter1, c1), (quarter2, c2) = _arm_terms(m1, two_n1), _arm_terms(m2, two_n2)
    start = _closed_form_root((quarter1, quarter2), (c1, c2), math)
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
        _gap(theta, np, out=gap)
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
