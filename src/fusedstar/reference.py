"""Independent reference routes that the product is checked against.

The product is what the command line runs: ``topology``, ``weighting``,
``spectral``, ``optimizer``, ``certificate`` and ``simulation``.  This
module holds the other ways to reach the same answers, which the tests
compare against: the node and edge views of a network, the
stochasticity report of a dense matrix, the full spectrum of the blocks
and the change of basis behind them, the all-roots scan of the
characteristic relation, the rank-one edge stencils of the certificate
and the matrix recurrence.  It imports the product modules; no product
module imports it, so the CLI never loads it.  Only the full-spectrum
route, ``tridiagonal_spectrum``, needs scipy, and it loads it on first
use.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

import numpy as np

from .optimizer import DegenerateSineError, _char_values, _require_two_branches, _weights_at
from .simulation import Trajectory, _rounds, _summarise
from .spectral import SpectralReport, StratifiedBlocks, Tridiagonal, _report, build_blocks
from .topology import InvalidParameterError, TfsParams, edge_table
from .weighting import WeightMatrix

__all__ = [
    "InvalidNodeError", "NoRootsError", "NodeId", "NotAnEdgeError",
    "PoleProximityError", "RootCountMismatchWarning", "StochasticityReport",
    "ThetaRoots", "alpha_vectors", "block_spectrum", "block_structure",
    "canonical_nodes", "char_residual", "degrees", "edge_orbit", "edges",
    "equivalent_star", "interlacing_check", "iterate", "matrix_rounds",
    "node_index", "nodes", "solve_theta_roots", "stencil_gram_matrices",
    "strata", "stratification_basis", "stratum_labels", "tridiagonal_spectrum",
    "validate_stochastic",
]


# -- topology: nodes ``(i, mu)``, edges and strata ----------------------------
class InvalidNodeError(ValueError):
    """Node label that does not exist for the given parameters."""


class NotAnEdgeError(ValueError):
    """Node pair that is not an edge of the network."""


@dataclass(frozen=True, order=True)
class NodeId:
    """Node label ``(i, mu)``: stratum index and branch number."""

    i: int
    mu: int


def stratum_labels(params: TfsParams) -> tuple[int, ...]:
    """Stratum labels in canonical order: -m1..m2, the center at 0."""
    return tuple(range(-params.m1, params.m2 + 1))


def _branch_count(params: TfsParams, i: int) -> int:
    return params.n1 if i < 0 else params.n2


def _check_node(params: TfsParams, node: NodeId) -> None:
    i, mu = node.i, node.mu
    if i == 0:
        if mu != 0:
            raise InvalidNodeError(f"center node must be (0, 0), got {node}")
        return
    if not -params.m1 <= i <= params.m2:
        raise InvalidNodeError(f"stratum {i} out of range for {params}")
    if not 1 <= mu <= _branch_count(params, i):
        raise InvalidNodeError(f"branch {mu} out of range in stratum {i}")


def canonical_nodes(params: TfsParams) -> Iterator[NodeId]:
    """Nodes in canonical order: stratum-major, branch-minor, center between."""
    for i in range(-params.m1, 0):
        for mu in range(1, params.n1 + 1):
            yield NodeId(i, mu)
    yield NodeId(0, 0)
    for i in range(1, params.m2 + 1):
        for mu in range(1, params.n2 + 1):
            yield NodeId(i, mu)


def node_index(params: TfsParams, node: NodeId) -> int:
    """Position of ``node`` in the canonical ordering (0-based).

    The center sits at index ``m1 * n1``; strata are contiguous.
    """
    _check_node(params, node)
    i, mu = node.i, node.mu
    if i < 0:
        return (i + params.m1) * params.n1 + (mu - 1)
    if i == 0:
        return params.m1 * params.n1
    return params.m1 * params.n1 + 1 + (i - 1) * params.n2 + (mu - 1)


def edge_orbit(params: TfsParams, edge: tuple[NodeId, NodeId]) -> int:
    """Orbit label of an edge under the branch-permuting symmetry group.

    Raises NotAnEdgeError if the endpoints are not adjacent.
    """
    u, v = edge
    _check_node(params, u)
    _check_node(params, v)
    if u.i > v.i:
        u, v = v, u
    if u.i == v.i:
        raise NotAnEdgeError(f"{edge} joins nodes of the same stratum")
    if v.i - u.i != 1:
        raise NotAnEdgeError(f"{edge} joins non-adjacent strata")
    if u.i != 0 and v.i != 0 and u.mu != v.mu:
        raise NotAnEdgeError(f"{edge} joins different branches")
    if v.i <= 0:
        return u.i  # within the first star, including (-1, mu) -- center
    return v.i  # center -- (1, mu), or within the second star


def nodes(params: TfsParams) -> tuple[NodeId, ...]:
    """Nodes in canonical order (see ``canonical_nodes``)."""
    return tuple(canonical_nodes(params))


def edges(params: TfsParams) -> tuple[tuple[NodeId, NodeId], ...]:
    """Edges orbit by orbit (orbit -m1 first, ascending label) and branch
    by branch within each orbit, the order of ``topology.edge_table``;
    endpoints ordered by stratum."""
    center = NodeId(0, 0)
    out: list[tuple[NodeId, NodeId]] = []
    for label in params.orbit_labels:
        if label < -1:
            for mu in range(1, params.n1 + 1):
                out.append((NodeId(label, mu), NodeId(label + 1, mu)))
        elif label == -1:
            for mu in range(1, params.n1 + 1):
                out.append((NodeId(-1, mu), center))
        elif label == 1:
            for mu in range(1, params.n2 + 1):
                out.append((center, NodeId(1, mu)))
        else:
            for mu in range(1, params.n2 + 1):
                out.append((NodeId(label - 1, mu), NodeId(label, mu)))
    return tuple(out)


def strata(params: TfsParams) -> Mapping[int, tuple[NodeId, ...]]:
    """Nodes of each stratum, keyed by stratum label."""
    out = {
        i: tuple(NodeId(i, mu) for mu in range(1, _branch_count(params, i) + 1))
        for i in stratum_labels(params)
        if i != 0
    }
    out[0] = (NodeId(0, 0),)
    return out


def degrees(params: TfsParams) -> dict[NodeId, int]:
    """Degree of every node (leaves 1, branch interiors 2, center n1 + n2)."""
    out = {node: 0 for node in nodes(params)}
    for u, v in edges(params):
        out[u] += 1
        out[v] += 1
    return out


# -- weighting: the dense matrix measured -------------------------------------
@dataclass(frozen=True)
class StochasticityReport:
    """Deviation measures of a candidate averaging matrix."""

    max_row_sum_deviation: float
    max_asymmetry: float
    sparsity_violations: tuple[tuple[int, int], ...]


def validate_stochastic(matrix: WeightMatrix) -> StochasticityReport:
    """Measure row-sum deviation, asymmetry and sparsity-pattern violations.

    Sparsity violations are index pairs (a < b) with a nonzero entry where
    the network has no edge.
    """
    entries = matrix.entries
    params = matrix.params
    row_dev = float(np.max(np.abs(entries.sum(axis=1) - 1.0)))
    asym = float(np.max(np.abs(entries - entries.T)))
    a, b, _ = edge_table(params)
    allowed = np.eye(params.n_nodes, dtype=bool)
    allowed[a, b] = allowed[b, a] = True
    bad = np.argwhere((entries != 0.0) & ~allowed)
    violations = tuple((int(a), int(b)) for a, b in bad if a < b)
    return StochasticityReport(
        max_row_sum_deviation=row_dev,
        max_asymmetry=asym,
        sparsity_violations=violations,
    )


# -- spectral: every eigenvalue, and the basis behind the blocks --------------
def tridiagonal_spectrum(block: Tridiagonal) -> np.ndarray:
    """All eigenvalues of a tridiagonal, ascending, by scipy's
    symmetric-tridiagonal solver (loaded on first use)."""
    if block.size == 1:
        return block.diagonal.copy()
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(block.diagonal, block.off_diagonal, eigvals_only=True)


def block_spectrum(blocks: StratifiedBlocks) -> SpectralReport:
    """Spectrum of the full matrix from the blocks, multiplicities symbolic.

    Every block goes through the symmetric-tridiagonal eigensolver.
    Eigenvalues are never replicated in memory.  ``spectral.block_extremes``
    gives the same ``lambda2``, ``lambda_min`` and ``slem`` from a few
    eigenvalues.
    """
    return _report(blocks, tridiagonal_spectrum)


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
            [tridiagonal_spectrum(blocks.minus), tridiagonal_spectrum(blocks.plus)]
        )
    )
    cen = tridiagonal_spectrum(blocks.center)
    lower = float(np.max(cen[:-1] - arm))
    upper = float(np.max(arm - cen[1:]))
    return max(0.0, lower, upper)


# -- optimizer: every root of the characteristic relation ---------------------
class PoleProximityError(ValueError):
    """Evaluation point too close to a pole of the characteristic relation."""


class NoRootsError(RuntimeError):
    """The characteristic relation has no root on the scanned interval."""


class RootCountMismatchWarning(RuntimeWarning):
    """Number of characteristic roots differs from the spectral reference."""


_EXCLUSION = 1e-9  # half-width of the pole exclusion zone, in theta
# a bracket is a root when its midpoint lies within this distance (theta)
# of a zero by the Newton step |f| / slope, the slope taken across the
# bracket; an absolute residual bound would drop roots where f is steep
_STEP_SPURIOUS = 1e-9
_ROOT_TOL = 1e-12  # bracket width at which a root's bisection may stop
_RESIDUAL_POLISH = 1e-11  # keep bisecting below _ROOT_TOL until this is met


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


def _pole_distance(params: TfsParams, theta: float) -> float:
    dist = theta  # cot(theta/2) is singular at 0
    for m in (params.m1, params.m2):
        nearest = round(theta * m / math.pi) * math.pi / m
        dist = min(dist, abs(theta - nearest))
    return dist


def _pole_positions(params: TfsParams) -> np.ndarray:
    """Interior singularities of the characteristic relation, sorted."""
    poles = [k * math.pi / m for m in (params.m1, params.m2) for k in range(1, m)]
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
        left = np.where(pos > 0, theta - poles[np.maximum(pos - 1, 0)], np.inf)
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
    Requires n1, n2 >= 2.  The optimum comes from
    ``optimizer.optimal_weights``, which never calls it.
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


def equivalent_star(params: TfsParams) -> tuple[int, Fraction]:
    """Branch count and exact rational branch length of the equivalent star.

    The equivalent single star preserves total branch count n1 + n2 and
    total node count, giving mean branch length
    (m1 n1 + m2 n2) / (n1 + n2).
    """
    n = params.n1 + params.n2
    m_bar = Fraction(params.m1 * params.n1 + params.m2 * params.n2, n)
    return n, m_bar


# -- certificate: the edge stencils written out -------------------------------
def alpha_vectors(
    params: TfsParams,
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Rank-one edge stencils of the central block and the arm blocks.

    Returns two dicts keyed by orbit label.  The first holds vectors of
    length m1 + m2 + 1 (central-block space, center at index m1), the
    second vectors of length m1 + m2 (arm-block space, first arm first).
    Subtracting the weighted outer products of these stencils from the
    identity reproduces the stratified blocks exactly.
    """
    m1 = params.m1
    dim = params.m1 + params.m2 + 1
    inv = 1.0 / math.sqrt(2.0)
    alpha: dict[int, np.ndarray] = {}
    alpha_prime: dict[int, np.ndarray] = {}
    for i in params.orbit_labels:
        u = np.zeros(dim)
        up = np.zeros(dim - 1)
        if i <= -2:
            u[i + m1] = -inv
            u[i + m1 + 1] = inv
            up[i + m1] = -inv
            up[i + m1 + 1] = inv
        elif i == -1:
            scale = 1.0 / math.sqrt(params.n1 + 1.0)
            u[m1 - 1] = -scale
            u[m1] = math.sqrt(params.n1) * scale
            up[m1 - 1] = 1.0
        elif i == 1:
            scale = 1.0 / math.sqrt(params.n2 + 1.0)
            u[m1] = -math.sqrt(params.n2) * scale
            u[m1 + 1] = scale
            up[m1] = 1.0
        else:
            u[i + m1 - 1] = -inv
            u[i + m1] = inv
            up[i + m1 - 2] = -inv
            up[i + m1 - 1] = inv
        alpha[i] = u
        alpha_prime[i] = up
    return alpha, alpha_prime


def stencil_gram_matrices(params: TfsParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Gram matrices of the two stencil families.

    Rows and columns follow ``params.orbit_labels``.  Both matrices are
    unit-diagonal and tridiagonal in label order; only the three pairs
    touching the center deviate from the uniform -1/2 overlap.
    """
    labels = params.orbit_labels
    n1, n2 = float(params.n1), float(params.n2)
    k = len(labels)
    gram = np.eye(k)
    gram_prime = np.eye(k)
    for a in range(k - 1):
        pair = (labels[a], labels[a + 1])
        if pair == (-2, -1):
            g = -1.0 / math.sqrt(2.0 * (n1 + 1.0))
            gp = 1.0 / math.sqrt(2.0)
        elif pair == (-1, 1):
            g = -math.sqrt(n1 * n2 / ((n1 + 1.0) * (n2 + 1.0)))
            gp = 0.0
        elif pair == (1, 2):
            g = -1.0 / math.sqrt(2.0 * (n2 + 1.0))
            gp = -1.0 / math.sqrt(2.0)
        else:
            g = -0.5
            gp = -0.5
        gram[a, a + 1] = gram[a + 1, a] = g
        gram_prime[a, a + 1] = gram_prime[a + 1, a] = gp
    return gram, gram_prime


# -- simulation: the matrix recurrence ----------------------------------------
def matrix_rounds(matrix: WeightMatrix, x0: np.ndarray) -> Iterator[np.ndarray]:
    """The states x(1), x(2), ... of the matrix recurrence x(t+1) = W x(t),
    without end; ``simulation.distributed_rounds`` must agree with them to
    reassociation-level tolerance."""
    entries = matrix.entries
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or entries.shape != (x.size, x.size):
        raise ValueError(
            f"state of length {x.size} does not match matrix shape {entries.shape}"
        )
    return _rounds(x, lambda now: entries @ now)


def iterate(matrix: WeightMatrix, x0: np.ndarray, steps: int) -> Trajectory:
    """Run the matrix recurrence for ``steps`` rounds."""
    x = np.asarray(x0, dtype=float)
    return _summarise(x, matrix_rounds(matrix, x), steps)
