"""Analytic optimizer for the fastest-consensus weights of a TFS network.

The optimum is characterized by a scalar transcendental relation: writing
``s = cos(theta)`` for the target spectral radius, the two star arms each
contribute a response factor ``(2/n) * cot(m*theta) * cot(theta/2) - 1`` and
optimality requires their product to equal one.  All interior orbit weights
are 1/2 at the optimum and the two center-adjacent weights follow in closed
form from the smallest root theta*, and ``cos(theta*)`` is the optimal
spectral radius.  On ``(0, pi / (2 max(m1, m2))]`` both response factors are
at least -1 and strictly decreasing, so the relation is positive exactly
below theta* there and bisection on that bracket finds it.
``optimal_weights_batch`` solves a grid of shapes at once, each step one
evaluation of the relation on a stacked ``(3, lanes)`` angle array
(``_StackedRelation``) with ``_char_values``'s float operations in its
order.  Below theta* the relation is convex, so a Newton step from the
positive end of each lane's bracket stays below theta*; guarded by
bisection, it reaches the adjacent floats where the scalar bisection
stops in 14 to 16 steps instead of 52 to 55, and returns its bits.  Every
optimum, on either route, is self-checked by eigenvalue counts at four
shifts (``_counts_prove_slem``), never by computed eigenvalues, and the
counts cost O(1) in the branch lengths.  A single solve counts the blocks
that ``build_blocks`` keeps on its weights, twelve pure-Python counts of
``Tridiagonal.count_below`` whose blocks its report and certificate
reuse.  A batch counts each optimum's blocks with each arm written in
three run-length-encoded rows (``_skeleton``), vectorised over the
shapes.  The all-roots scan that cross-checks this bisection,
``solve_theta_roots``, lives in ``fusedstar.reference``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .spectral import build_blocks, central_tridiagonal, count_central_below
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
# shapes up to which the self-check counts all four shifts in one call, and
# the root search solves them in one chunk
_ONE_CALL_LANES = 8192


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal orbit weights, the smallest root and ``s = cos(theta_star)``,
    the SLEM that eigenvalue counts proved within ``_SELF_CHECK``."""

    params: TfsParams
    theta_star: float
    s: float
    weights: OrbitWeights


def _char_values(params: TfsParams, theta: np.ndarray | float) -> np.ndarray:
    # a float stays a numpy scalar throughout, which the scalar bisection
    # needs fast; _StackedRelation repeats these operations for a batch
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


def _boundary_weight(m: int, theta: float) -> float:
    """Center-adjacent orbit weight of an arm of length ``m`` at a root."""
    weight, degenerate = _boundary_weights(np.float64(m), np.float64(theta))
    if degenerate:
        raise DegenerateSineError(
            f"boundary-weight denominator vanished at theta = {theta}"
        )
    return float(weight)


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
    w[params.m1 - 1] = _boundary_weight(params.m1, theta)
    w[params.m1] = _boundary_weight(params.m2, theta)
    return OrbitWeights(params, w)


def _first_sign_change(f: Callable[[float], float], hi: float) -> float:
    """Where ``f`` stops being positive on ``(0, hi]``, to adjacent floats.

    ``f`` must be positive exactly on an initial segment of the interval;
    bisection on the predicate ``f(mid) > 0`` then never loses the point.
    It is the oracle whose bits ``optimal_weights_batch`` must return.
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
    from the smallest characteristic root theta*, found by bisection on
    ``(0, pi / (2 max(m1, m2))]``.  The result is self-checked: eigenvalue
    counts of its blocks (``Tridiagonal.count_below``) must prove
    ``s = cos(theta*)`` the spectral radius below 1 within 1e-9.
    Requires n1, n2 >= 2.
    """
    _require_two_branches(params)
    theta_star = _first_sign_change(
        lambda theta: float(_char_values(params, theta)),
        math.pi / (2 * max(params.m1, params.m2)),
    )
    return _self_checked(params, theta_star, _weights_at(params, theta_star))


@dataclass(frozen=True)
class BatchSolution:
    """Smallest roots theta*, ``s = cos(theta*)`` and the two boundary
    weights ``w_{-1}``, ``w_1`` of a batch of shapes, as read-only arrays
    in the shape of the broadcast inputs."""

    theta_star: np.ndarray
    s: np.ndarray
    w_minus_1: np.ndarray
    w_plus_1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta_star", "s", "w_minus_1", "w_plus_1"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


class _Shapes(NamedTuple):
    """Branch lengths and counts of a batch as float arrays, one entry per
    lane; ``central_tridiagonal`` reads them as it reads a ``TfsParams``."""

    m1: np.ndarray
    n1: np.ndarray
    m2: np.ndarray
    n2: np.ndarray


def _cell(cells: list[np.ndarray], index: int) -> tuple:
    return tuple(cell[index : index + 1].tolist()[0] for cell in cells)


def _batch_shapes(cells: list[np.ndarray]) -> _Shapes:
    """The cells as floats, once every cell is a valid two-branch shape.

    Otherwise the first invalid cell, in input order, raises the error
    that ``TfsParams`` or ``optimal_weights`` raise for it.
    """
    try:
        shapes = _Shapes(*(np.asarray(cell, dtype=float) for cell in cells))
    except (OverflowError, TypeError, ValueError):
        suspects = range(cells[0].size)
    else:
        m1, n1, m2, n2 = shapes
        valid = (m1 >= 1) & (m2 >= 1) & (n1 >= 2) & (n2 >= 2)
        for field in shapes:
            valid &= np.isfinite(field) & (field == np.floor(field))
        if valid.all():
            return shapes
        suspects = np.flatnonzero(~valid).tolist()
    for index in suspects:
        _require_two_branches(TfsParams(*_cell(cells, index)))
    raise InvalidParameterError("branch lengths and counts must be integers")


class _StackedRelation:
    """The characteristic relation of every lane of a batch, evaluated on
    one stacked angle array.

    ``coef`` holds each lane's angle coefficients ``0.5, m1, m2`` as rows
    and ``two_n`` its arm factors ``2/n1, 2/n2``.  Each evaluation writes
    the same buffers, and ``newton_step`` reuses them, so a step of the
    root search allocates no stack.
    """

    def __init__(self, shapes: _Shapes) -> None:
        self.coef = np.stack([np.full_like(shapes.m1, 0.5), shapes.m1, shapes.m2])
        self.two_n = 2.0 / np.stack([shapes.n1, shapes.n2])
        self._angles = np.empty_like(self.coef)
        self._cot = np.empty_like(self.coef)
        self._arm = np.empty_like(self.two_n)
        self._product = np.empty_like(shapes.m1)

    def arm_product(self, theta) -> np.ndarray:
        """``_char_values + 1`` of every lane at ``theta``, in a buffer that
        the next call overwrites.

        Each float operation is ``_char_values``'s, in the same order, so
        the bits are its own; ``arm_product(theta) > 1.0`` is then exactly
        its ``> 0.0``, since ``x - 1.0 > 0.0`` holds exactly when ``x > 1.0``.
        """
        angles = np.multiply(self.coef, theta, out=self._angles)
        cot = np.cos(angles, out=self._cot)
        cot /= np.sin(angles, out=angles)
        arm = np.multiply(self.two_n, cot[1:], out=self._arm)
        arm *= cot[0]
        arm -= 1.0
        return np.multiply(arm[0], arm[1], out=self._product)

    def newton_step(self, out: np.ndarray, where: np.ndarray) -> None:
        """Newton's step ``-f / f'`` for ``f = a1 a2 - 1`` at the angle of
        the last ``arm_product``, written to ``out`` where ``where`` holds.

        An arm factor is ``a = g - 1`` with ``g = (2/n) cot(m t) cot(t/2)``,
        so ``-a' = e g`` with ``e = m / (sin cos)(m t) + 1 / sin t``, the
        rows of ``coef / (sin cos)`` summed.  Then ``-f' = a1 a2 ((1 +
        1/a1) e1 + (1 + 1/a2) e2)``, and the step ``(1 - 1/a1 a2)`` over
        that sum overflows nowhere that ``a1 a2`` does not.  It overwrites
        the buffers of the evaluation, where ``_angles`` holds the sines.
        """
        rate = np.multiply(self._angles, self._angles, out=self._angles)
        rate *= self._cot
        np.divide(self.coef, rate, out=rate)
        rate[1:] += rate[0]
        ratio = np.reciprocal(self._arm, out=self._arm)
        ratio += 1.0
        rate[1:] *= ratio
        slope = np.add(rate[1], rate[2], out=rate[0])
        drop = np.reciprocal(self._product, out=self._product)
        np.subtract(1.0, drop, out=drop)
        np.divide(drop, slope, out=out, where=where)


def _first_sign_changes(shapes: _Shapes) -> np.ndarray:
    """``_first_sign_change`` of the relation on every lane at once, bit for
    bit, by a guarded Newton search.

    Each lane keeps bisection's bracket ``(lo, hi]``, from ``lo = 0`` and
    ``hi = pi / (2 max(m1, m2))``: it evaluates the scalar predicate,
    ``_StackedRelation.arm_product(x) > 1.0``, once per step and moves
    ``lo`` or ``hi`` to ``x`` as bisection does.  Below theta* both arm
    factors are positive, decreasing and convex, so ``f = a1 a2 - 1`` is
    convex there, and Newton's point from ``lo`` never passes theta* in
    exact arithmetic.  The next ``x`` is that point when it lies strictly
    inside the bracket, the float below ``hi`` when it lands at or past
    ``hi``, and the float above ``lo`` when the step is below an ulp.  A
    lane bisects instead while it has no finite positive step (before its
    first positive point, or where the slope overflowed), and when its
    bracket has not halved over the last two steps.  Since the predicate
    changes sign once on the bracket, as ``_first_sign_change`` requires,
    each lane ends at the adjacent floats where bisection ends and
    returns bisection's last midpoint ``0.5 * (lo + hi)``.

    The guard halves a bracket at least once in three steps, so a lane
    takes at most three times the steps that bisection takes from the same
    bracket: at most 3 x 1075 from ``(0, pi / 2]``, and the batch as many
    as its slowest lane.  The benchmark's ``sweep`` grids take 14 to 16
    steps, where bisection takes 52 to 55.  Past ``_ONE_CALL_LANES`` lanes
    it solves them in chunks of that many, so that memory stays a few
    stacks of that size.
    """
    size = _ONE_CALL_LANES
    if shapes.m1.size > size:
        chunks = range(0, shapes.m1.size, size)
        return np.concatenate([
            _first_sign_changes(_Shapes(*(f[i : i + size] for f in shapes)))
            for i in chunks
        ])
    relation = _StackedRelation(shapes)
    hi = np.pi / (2.0 * np.maximum(shapes.m1, shapes.m2))
    lo = np.zeros_like(hi)
    x = 0.5 * hi
    step = np.full_like(hi, np.nan)  # Newton's step from lo: none yet
    # half the bracket's width after each of the last two steps
    half_last = half_before = np.full_like(hi, np.inf)
    # the Newton step may divide by zero or overflow on lanes that do not
    # take it, and a step of zero or nan makes its lane bisect
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            positive = relation.arm_product(x) > 1.0
            relation.newton_step(out=step, where=positive)
            lo = np.where(positive, x, lo)
            hi = np.where(positive, hi, x)
            x = lo + hi
            x *= 0.5
            above_lo = np.nextafter(lo, hi)
            if not (above_lo < hi).any():
                return x
            width = hi - lo
            newton = width <= half_before
            newton &= step > 0.0
            half_before, half_last = half_last, np.multiply(width, 0.5, out=width)
            point = lo + step
            np.maximum(point, above_lo, out=point)
            np.minimum(point, np.nextafter(hi, lo), out=point)
            np.copyto(x, point, where=newton)


def _skeleton(shapes: _Shapes, w_minus, w_plus) -> tuple:
    """Each optimum's central block for ``count_central_below``.

    The entries are ``central_tridiagonal``'s for the shape with each arm
    written in three rows: the leaf, one interior row that stands for the
    ``m - 2`` equal ones (an arm of two rows skips it; one of one row, with
    no interior orbit, is its last row alone) and the row next to the
    center.
    """
    m = np.stack([shapes.m1, shapes.m2])
    interior = np.where(m > 1.0, 0.5, 0.0)
    w = [interior[0], interior[0], w_minus, w_plus, interior[1], interior[1]]
    diagonal, off = central_tridiagonal(shapes._replace(m1=3), np.stack(w))
    # entry j of off joins rows j and j + 1: rows 0-2 are the first arm
    # from its leaf, row 3 the center and rows 6-4 the second arm
    squares = off * off
    arms = (
        diagonal[[[0, 6], [1, 5], [2, 4]]],
        (0.0, squares[[0, 5]], squares[[1, 4]]),
        (m > 1.0, np.maximum(m - 2.0, 0.0), 1.0),
    )
    return diagonal[3].copy(), squares[2:4].copy(), arms


def _skeleton_proves_slem(
    shapes: _Shapes, s: np.ndarray, w_minus, w_plus
) -> np.ndarray:
    """``_counts_prove_slem`` on the counts of each optimum's ``_skeleton``:
    past ``_ONE_CALL_LANES`` shapes one shift at a time, so that memory
    stays a few arrays of two entries per shape, and otherwise in one
    call, which pays numpy's per-call cost once."""
    skeleton = _skeleton(shapes, w_minus, w_plus)
    shifts = _self_check_shifts(s)
    groups = [shifts] if s.size <= _ONE_CALL_LANES else shifts[:, None]
    below = np.concatenate([count_central_below(*skeleton, x) for x in groups])
    return _counts_prove_slem(below, shapes.m1 + shapes.m2)


def optimal_weights_batch(m1, n1, m2, n2) -> BatchSolution:
    """``optimal_weights`` for many shapes at once, as arrays.

    ``m1, n1, m2, n2`` are integer arrays (or integers) that broadcast
    together.  All instances are bisected together with the scalar route's
    predicate, bracket and stop rule, so theta*, ``s`` and both boundary
    weights equal the scalar route's bit for bit.  The self-check
    (``_skeleton_proves_slem``) makes the scalar route's decision,
    ``_counts_prove_slem`` at the same shifts, on a skeleton of each
    optimum's central block, in O(1) time and memory per instance
    whatever its branch lengths.  An invalid shape, or one that
    the scalar route would not return, raises that route's error for the
    first such instance in input order:
    ``InvalidParameterError`` before any solving, then
    ``DegenerateSineError`` or ``SelfCheckError``.
    """
    arrays = [np.asarray(v) for v in (m1, n1, m2, n2)]
    # reshape leaves a one-dimensional broadcast cell a view; ravel copies it
    cells = [cell.reshape(-1) for cell in np.broadcast_arrays(*arrays)]
    shapes = _batch_shapes(cells)
    theta = _first_sign_changes(shapes)
    s = np.cos(theta)
    w_minus, bad_minus = _boundary_weights(shapes.m1, theta)
    w_plus, bad_plus = _boundary_weights(shapes.m2, theta)
    failed = bad_minus | bad_plus
    failed |= ~_skeleton_proves_slem(shapes, s, w_minus, w_plus)
    if failed.any():
        # the scalar route raises its own error for this instance
        params = TfsParams(*_cell(cells, int(np.argmax(failed))))
        raise _self_check_error(params, optimal_weights(params).s)
    shape = np.broadcast_shapes(*(v.shape for v in arrays))
    results = (theta, s, w_minus, w_plus)
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
