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
``optimal_weights_batch`` bisects a grid of shapes at once.  Every optimum,
on either route, is self-checked by eigenvalue counts
(``_counts_prove_slem``), never by computed eigenvalues: those of its
blocks with each arm written in three run-length-encoded rows
(``_skeleton``), so the check costs O(1) in the branch lengths.  The
all-roots scan ``solve_theta_roots`` is an independent reference route.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .spectral import build_blocks, central_tridiagonal, count_central_below
from .topology import InvalidParameterError, TfsParams
from .weighting import OrbitWeights


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the characteristic relation."""


class NoRootsError(RuntimeError):
    """The characteristic relation has no root on the scanned interval."""


class SelfCheckError(RuntimeError):
    """Eigenvalue counts do not prove the analytic optimum's SLEM."""


class DegenerateSineError(ArithmeticError):
    """A sine-quotient formula hit a vanishing denominator."""


class RootCountMismatchWarning(RuntimeWarning):
    """Number of characteristic roots differs from the spectral reference."""


_EXCLUSION = 1e-9  # half-width of the pole exclusion zone, in theta
# a bracket is a root when its midpoint lies within this distance (theta)
# of a zero by the Newton step |f| / slope, the slope taken across the
# bracket; an absolute residual bound would drop roots where f is steep
_STEP_SPURIOUS = 1e-9
_ROOT_TOL = 1e-12  # bracket width at which a root's bisection may stop
_RESIDUAL_POLISH = 1e-11  # keep bisecting below _ROOT_TOL until this is met
_SELF_CHECK = 1e-9  # largest |slem - s| the self-checks accept
# a boundary weight is degenerate when its denominator is below this times
# max(1, |numerator|)
_DEGENERATE = 1e-13
# shapes up to which the self-check counts all four shifts in one call
_ONE_CALL_LANES = 8192


@dataclass(frozen=True)
class ThetaRoots:
    """All roots of the characteristic relation in (0, pi), ascending."""

    roots: np.ndarray
    residuals: np.ndarray

    def __post_init__(self) -> None:
        for name in ("roots", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class OptimalSolution:
    """Optimal orbit weights, the smallest root and ``s = cos(theta_star)``,
    the SLEM that eigenvalue counts proved within ``_SELF_CHECK``."""

    params: TfsParams
    theta_star: float
    s: float
    weights: OrbitWeights


def _char_values(params: TfsParams, theta: np.ndarray | float) -> np.ndarray:
    # a float stays a numpy scalar throughout, which the bisection needs
    # fast; array-valued params evaluate a batch lane by lane
    half = 0.5 * theta
    cot_half = np.cos(half) / np.sin(half)
    angle1, angle2 = params.m1 * theta, params.m2 * theta
    arm1 = 2.0 / params.n1 * (np.cos(angle1) / np.sin(angle1)) * cot_half - 1.0
    arm2 = 2.0 / params.n2 * (np.cos(angle2) / np.sin(angle2)) * cot_half - 1.0
    return arm1 * arm2 - 1.0


def _pole_distance(params: TfsParams, theta: float) -> float:
    dist = theta  # cot(theta/2) is singular at 0
    for m in (params.m1, params.m2):
        nearest = round(theta * m / math.pi) * math.pi / m
        dist = min(dist, abs(theta - nearest))
    return dist


def _pole_positions(params: TfsParams) -> np.ndarray:
    """Interior singularities of the characteristic relation, sorted."""
    poles = [
        k * math.pi / m
        for m in (params.m1, params.m2)
        for k in range(1, m)
    ]
    return np.unique(np.asarray(poles, dtype=float))


def char_residual(params: TfsParams, theta: float) -> float:
    """Value of the characteristic relation (zero exactly at its roots).

    Raises PoleProximityError within 1e-9 of a singularity.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"theta must lie in (0, pi), got {theta}")
    if _pole_distance(params, theta) < _EXCLUSION:
        raise PoleProximityError(
            f"theta = {theta} is within {_EXCLUSION} of a singularity"
        )
    return float(_char_values(params, theta))


def _grid_roots(
    f: Callable[[np.ndarray], np.ndarray],
    n_grid: int,
    poles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bracket sign changes of ``f`` on a uniform grid over (0, pi), bisect.

    Grid points within the exclusion zone of a pole are discarded and
    brackets that straddle a pole are rejected outright: a pole flips the
    sign without a root.  Bisection continues past ``_ROOT_TOL`` while the
    midpoint residual is still improvable, then spurious brackets are
    dropped by their residual relative to the slope across them.
    """
    theta = np.linspace(0.0, math.pi, n_grid + 2)[1:-1]
    if poles.size:
        pos = np.searchsorted(poles, theta)
        left = np.where(
            pos > 0, theta - poles[np.maximum(pos - 1, 0)], np.inf
        )
        right = np.where(
            pos < poles.size,
            poles[np.minimum(pos, poles.size - 1)] - theta,
            np.inf,
        )
        theta = theta[np.minimum(left, right) > _EXCLUSION]
    values = f(theta)
    finite = np.isfinite(values)
    theta, values = theta[finite], values[finite]
    exact = theta[values == 0.0]
    sign = np.sign(values)
    flip = sign[:-1] * sign[1:] < 0
    lo, hi, flo = theta[:-1][flip], theta[1:][flip], values[:-1][flip]
    if poles.size and lo.size:
        straddles = np.searchsorted(poles, lo) != np.searchsorted(poles, hi)
        lo, hi, flo = lo[~straddles], hi[~straddles], flo[~straddles]
    for _ in range(200):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        go_left = np.sign(fmid) == np.sign(flo)
        lo = np.where(go_left, mid, lo)
        flo = np.where(go_left, fmid, flo)
        hi = np.where(go_left, hi, mid)
        width = hi - lo
        floor = 4.0 * np.finfo(float).eps * np.maximum(np.abs(hi), 1.0)
        done = width <= np.maximum(_ROOT_TOL, floor)
        settled = (np.abs(fmid) <= _RESIDUAL_POLISH) | (width <= floor)
        if np.all(done & settled):
            break
    roots = np.concatenate([0.5 * (lo + hi), exact])
    residuals = np.abs(f(roots))
    slopes = np.concatenate(
        [np.abs(f(hi) - flo) / (hi - lo), np.full(exact.size, np.inf)]
    )
    genuine = residuals <= _STEP_SPURIOUS * slopes
    roots, residuals = roots[genuine], residuals[genuine]
    order = np.argsort(roots)
    roots, residuals = roots[order], residuals[order]
    if roots.size > 1:
        distinct = np.concatenate([[True], np.diff(roots) > 1e-10])
        roots, residuals = roots[distinct], residuals[distinct]
    return roots, residuals


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


def _cross_check_root_count(params: TfsParams, roots: np.ndarray) -> None:
    # reference count: central-block eigenvalues strictly below 1 at the
    # candidate optimum
    try:
        ow = _weights_at(params, float(roots[0]))
    except DegenerateSineError:
        return
    below = build_blocks(params, ow).center.count_below(1.0 - 1e-9)
    if below != roots.size:
        warnings.warn(
            f"found {roots.size} characteristic roots for {params} but the "
            f"central block has {below} eigenvalues below 1",
            RootCountMismatchWarning,
            stacklevel=3,
        )


def solve_theta_roots(params: TfsParams) -> ThetaRoots:
    """All roots of the characteristic relation on (0, pi).

    Scans a uniform grid of max(10^4, 200 * (m1 + m2)) points with
    pole exclusion, bisects each sign change and cross-checks the root
    count against the central-block spectrum (mismatch is a warning).
    Requires n1, n2 >= 2.  This is the reference route; the optimum comes
    from ``optimal_weights``, which never calls it.
    """
    _require_two_branches(params)
    roots, residuals = _grid_roots(
        lambda th: _char_values(params, th),
        max(10_000, 200 * (params.m1 + params.m2)),
        _pole_positions(params),
    )
    if roots.size == 0:
        raise NoRootsError(f"no characteristic roots found for {params}")
    _cross_check_root_count(params, roots)
    return ThetaRoots(roots=roots, residuals=residuals)


def _first_sign_change(f: Callable[[float], float], hi: float) -> float:
    """Where ``f`` stops being positive on ``(0, hi]``, to adjacent floats.

    ``f`` must be positive exactly on an initial segment of the interval;
    bisection on the predicate ``f(mid) > 0`` then never loses the point.
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
    m1, w = params.m1, ow.values_for(params)
    fields = (m1, params.n1, params.m2, params.n2)
    lane = _Shapes(*(np.asarray([v], dtype=float) for v in fields))
    w_minus, w_plus = w[m1 - 1 : m1], w[m1 : m1 + 1]
    if not _skeleton_proves_slem(lane, np.array([s]), w_minus, w_plus)[0]:
        raise _self_check_error(params, s)
    return OptimalSolution(params=params, theta_star=theta_star, s=s, weights=ow)


def optimal_weights(params: TfsParams) -> OptimalSolution:
    """Provably optimal orbit weights for fastest consensus averaging.

    Interior orbits get weight 1/2; the two center-adjacent orbits follow
    from the smallest characteristic root theta*, found by bisection on
    ``(0, pi / (2 max(m1, m2))]``.  The result is self-checked: eigenvalue
    counts of its blocks (``_skeleton_proves_slem``) must prove
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
    """Branch lengths and counts of a batch as float arrays; ``_char_values``
    reads them as it reads a ``TfsParams``."""

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


def _first_sign_changes(
    f: Callable[[np.ndarray], np.ndarray], hi: np.ndarray
) -> np.ndarray:
    """``_first_sign_change`` on every lane of ``hi`` at once.

    Each lane bisects on ``f(mid) > 0`` until its midpoint is no longer
    strictly inside its bracket, as the scalar loop does.  A finished
    lane's midpoint equals one end of its bracket, so moving either end
    to it leaves the midpoint where it stopped while the others go on.
    """
    lo = np.zeros_like(hi)
    mid = 0.5 * (lo + hi)
    while ((lo < mid) & (mid < hi)).any():
        positive = f(mid) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


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
    weights equal the scalar route's bit for bit, and so does the
    self-check (``_skeleton_proves_slem``), in O(1) time and memory per
    instance whatever its branch lengths.  An invalid shape, or one that
    the scalar route would not return, raises that route's error for the
    first such instance in input order:
    ``InvalidParameterError`` before any solving, then
    ``DegenerateSineError`` or ``SelfCheckError``.
    """
    arrays = [np.asarray(v) for v in (m1, n1, m2, n2)]
    # reshape leaves a one-dimensional broadcast cell a view; ravel copies it
    cells = [cell.reshape(-1) for cell in np.broadcast_arrays(*arrays)]
    shapes = _batch_shapes(cells)
    theta = _first_sign_changes(
        lambda mid: _char_values(shapes, mid),
        np.pi / (2.0 * np.maximum(shapes.m1, shapes.m2)),
    )
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


def equivalent_star(params: TfsParams) -> tuple[int, Fraction]:
    """Branch count and exact rational branch length of the equivalent star.

    The equivalent single star preserves total branch count n1 + n2 and
    total node count, giving mean branch length
    (m1 n1 + m2 n2) / (n1 + n2).
    """
    n = params.n1 + params.n2
    m_bar = Fraction(params.m1 * params.n1 + params.m2 * params.n2, n)
    return n, m_bar
