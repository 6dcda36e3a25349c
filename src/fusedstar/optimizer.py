"""Analytic optimizer for the fastest-consensus weights of a TFS network.

The optimum is characterized by a scalar transcendental relation: writing
``s = cos(theta)`` for the target spectral radius, the two star arms each
contribute a response factor ``(2/n) * cot(m*theta) * cot(theta/2) - 1`` and
optimality requires their product to equal one.  All interior orbit weights
are 1/2 at the optimum and the two center-adjacent weights follow in closed
form from the smallest root theta*, and ``cos(theta*)`` is the optimal
spectral radius.  On ``(0, pi / (2 max(m1, m2))]`` both response factors are
at least -1 and strictly decreasing, so the relation is positive exactly
below theta* there and bisection on that bracket finds it.  The all-roots
scan ``solve_theta_roots`` is an independent reference route.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .spectral import _tridiagonal_eigenvalues, block_spectrum, build_blocks
from .topology import InvalidParameterError, TfsParams
from .weighting import OrbitWeights


class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the characteristic relation."""


class NoRootsError(RuntimeError):
    """The characteristic relation has no root on the scanned interval."""


class SelfCheckError(RuntimeError):
    """Analytic optimum disagrees with the assembled spectrum."""


class DegenerateSineError(ArithmeticError):
    """A sine-quotient formula hit a vanishing denominator."""


class RootCountMismatchWarning(RuntimeWarning):
    """Number of characteristic roots differs from the spectral reference."""


_EXCLUSION = 1e-9  # half-width of the pole exclusion zone, in theta
_RESIDUAL_SPURIOUS = 1e-8  # brackets whose midpoint residual stays above
# this are pole artifacts, not roots
_RESIDUAL_POLISH = 1e-11  # keep bisecting below tol until this is met


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
    """Optimal orbit weights, the smallest root and ``s = cos(theta_star)``."""

    params: TfsParams
    theta_star: float
    s: float
    weights: OrbitWeights


def _char_values(params: TfsParams, theta: np.ndarray | float) -> np.ndarray:
    # a float stays a numpy scalar throughout, which the bisection needs fast
    cot_half = np.cos(0.5 * theta) / np.sin(0.5 * theta)
    arm1 = (
        2.0
        / params.n1
        * (np.cos(params.m1 * theta) / np.sin(params.m1 * theta))
        * cot_half
        - 1.0
    )
    arm2 = (
        2.0
        / params.n2
        * (np.cos(params.m2 * theta) / np.sin(params.m2 * theta))
        * cot_half
        - 1.0
    )
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
    tol: float,
    poles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bracket sign changes of ``f`` on a uniform grid over (0, pi), bisect.

    Grid points within the exclusion zone of a pole are discarded and
    brackets that straddle a pole are rejected outright: a pole flips the
    sign without a root.  Bisection continues past ``tol`` while the
    midpoint residual is still improvable, then spurious brackets are
    dropped by their residual.
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
        done = width <= np.maximum(tol, floor)
        settled = (np.abs(fmid) <= _RESIDUAL_POLISH) | (width <= floor)
        if np.all(done & settled):
            break
    roots = np.concatenate([0.5 * (lo + hi), exact])
    residuals = np.abs(f(roots))
    order = np.argsort(roots)
    roots, residuals = roots[order], residuals[order]
    genuine = residuals <= _RESIDUAL_SPURIOUS
    roots, residuals = roots[genuine], residuals[genuine]
    if roots.size > 1:
        distinct = np.concatenate([[True], np.diff(roots) > 1e-10])
        roots, residuals = roots[distinct], residuals[distinct]
    return roots, residuals


def _boundary_weight(m: int, theta: float) -> float:
    """Center-adjacent orbit weight of an arm of length ``m`` at a root."""
    s = math.cos(theta)
    num = (1.0 - s) * math.sin(m * theta)
    den = math.sin(m * theta) - math.sin((m - 1) * theta)
    if abs(den) < 1e-13 * max(1.0, abs(num)):
        raise DegenerateSineError(
            f"boundary-weight denominator vanished at theta = {theta}"
        )
    return num / den


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
    w = {label: 0.5 for label in params.orbit_labels}
    w[-1] = _boundary_weight(params.m1, theta)
    w[1] = _boundary_weight(params.m2, theta)
    return OrbitWeights(w)


def _cross_check_root_count(params: TfsParams, roots: np.ndarray) -> None:
    # reference count: central-block eigenvalues strictly below 1 at the
    # candidate optimum
    try:
        ow = _weights_at(params, float(roots[0]))
    except DegenerateSineError:
        return
    eigs = _tridiagonal_eigenvalues(build_blocks(params, ow).block_center)
    below = int(np.sum(eigs < 1.0 - 1e-9))
    if below != roots.size:
        warnings.warn(
            f"found {roots.size} characteristic roots for {params} but the "
            f"central block has {below} eigenvalues below 1",
            RootCountMismatchWarning,
            stacklevel=3,
        )


def solve_theta_roots(
    params: TfsParams,
    grid_points: int | None = None,
    tol: float = 1e-12,
) -> ThetaRoots:
    """All roots of the characteristic relation on (0, pi).

    Scans a uniform grid (default max(10^4, 200 * (m1 + m2)) points) with
    pole exclusion, bisects each sign change and cross-checks the root
    count against the central-block spectrum (mismatch is a warning).
    Requires n1, n2 >= 2.  This is the reference route; the optimum comes
    from ``optimal_weights``, which never calls it.
    """
    _require_two_branches(params)
    if grid_points is None:
        grid_points = max(10_000, 200 * (params.m1 + params.m2))
    if grid_points < 1000:
        raise ValueError(f"grid_points must be >= 1000, got {grid_points}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    roots, residuals = _grid_roots(
        lambda th: _char_values(params, th),
        grid_points,
        tol,
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


def _self_checked(
    params: TfsParams, theta_star: float, ow: OrbitWeights
) -> OptimalSolution:
    s = math.cos(theta_star)
    report = block_spectrum(build_blocks(params, ow))
    if abs(report.slem - s) > 1e-9:
        raise SelfCheckError(
            f"assembled spectrum gives slem = {report.slem!r} but the "
            f"smallest root promises {s!r}"
        )
    return OptimalSolution(
        params=params, theta_star=theta_star, s=s, weights=ow
    )


def optimal_weights(params: TfsParams) -> OptimalSolution:
    """Provably optimal orbit weights for fastest consensus averaging.

    Interior orbits get weight 1/2; the two center-adjacent orbits follow
    from the smallest characteristic root theta*, found by bisection on
    ``(0, pi / (2 max(m1, m2))]``.  The result is self-checked: the
    assembled block spectrum must reproduce ``s = cos(theta*)`` as its
    spectral radius below 1 within 1e-9.  Requires n1, n2 >= 2.
    """
    _require_two_branches(params)
    theta_star = _first_sign_change(
        lambda theta: float(_char_values(params, theta)),
        math.pi / (2 * max(params.m1, params.m2)),
    )
    return _self_checked(params, theta_star, _weights_at(params, theta_star))


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
