"""Independent reference routes that the product is checked against.

The product is what the command line runs: ``topology``, ``weighting``,
``spectral``, ``optimizer``, ``certificate`` and ``simulation``.  This
module holds the other ways to reach the same answers, which the tests
compare against: the node and edge views of a network, the
stochasticity report of a dense matrix, the full spectrum of the blocks,
eigenvalues with multiplicities, and the change of basis behind them,
the extreme eigenvalues and counts of the blocks written out (the oracle
of ``SkeletonBlocks``, which reads every report in the product),
theta* and the boundary weights in mpmath, the rank-one edge stencils
of the certificate and the certificate with its vectors written out, in
O(m), and the per-node stencil and the matrix recurrence of the
iteration.  They take a network as its ``TfsParams`` and a dense
matrix as a plain array.
It imports the product modules; no product module imports it, so the CLI
never loads it.  Importing it needs only numpy: the full-spectrum route,
``tridiagonal_spectrum``, loads scipy on first use, and the mpmath
oracle, ``mp_theta_star`` and ``mp_boundary_weight``, loads mpmath.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .certificate import CertificateResiduals, _chain_ratio
from .optimizer import OptimalSolution
from .simulation import Trajectory, _no_room
from .spectral import (
    _DENSE_ROWS,
    _NON_FINITE,
    SpectralReport,
    StratifiedBlocks,
    Tridiagonal,
    _RunCount,
    build_blocks,
    perron_vector,
)
from .topology import InvalidParameterError, TfsParams, edge_table
from .weighting import OrbitWeights

__all__ = [
    "BlockSpectrumReport", "CountedTridiagonal", "InvalidNodeError", "NodeId",
    "NotAnEdgeError", "StochasticityReport", "VectorCertificate",
    "alpha_vectors", "block_extremes", "block_spectrum", "block_structure",
    "build_vector_certificate", "canonical_nodes", "counted_blocks", "degrees",
    "distributed_iterate", "distributed_rounds", "edge_orbit", "edges",
    "equivalent_star", "exact_count_below", "interlacing_check", "iterate",
    "matrix_rounds", "mp_boundary_weight", "mp_theta_star", "node_index",
    "nodes", "stencil_gram_matrices", "strata", "stratification_basis",
    "stratum_labels", "tridiagonal_spectrum", "validate_stochastic",
    "verify_vector_certificate",
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


def validate_stochastic(params: TfsParams, entries: np.ndarray) -> StochasticityReport:
    """Measure row-sum deviation, asymmetry and sparsity-pattern violations
    of the ``(n, n)`` matrix ``entries`` on the network ``params``.

    Sparsity violations are index pairs (a < b) with a nonzero entry where
    the network has no edge.
    """
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


@dataclass(frozen=True)
class BlockSpectrumReport(SpectralReport):
    """A ``SpectralReport`` with the spectrum behind it: its eigenvalues
    with multiplicities, descending."""

    eigenvalues: tuple[tuple[float, int], ...]

    @classmethod
    def from_pairs(cls, pairs: list[tuple[float, int]]) -> "BlockSpectrumReport":
        """The report of ``(value, multiplicity)`` pairs.  ``lambda2`` is
        the top value when it repeats or stands alone, else the next."""
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
        return cls(
            lambda2=lambda2, lambda_min=pairs[-1][0], eigenvalues=tuple(pairs)
        )


def block_spectrum(blocks: StratifiedBlocks) -> BlockSpectrumReport:
    """Spectrum of the full matrix from the blocks, multiplicities symbolic.

    Every block goes through the symmetric-tridiagonal eigensolver.
    Eigenvalues are never replicated in memory.  ``block_extremes``
    gives the same ``lambda2``, ``lambda_min`` and ``slem`` from a few
    eigenvalues.
    """
    sized = zip((blocks.minus, blocks.center, blocks.plus), blocks.multiplicities)
    return BlockSpectrumReport.from_pairs([
        (value, mult)
        for block, mult in sized
        for value in tridiagonal_spectrum(block).tolist()
    ])


class CountedTridiagonal(Tridiagonal):
    """A ``Tridiagonal`` read by the run-compressed count of its own rows
    written out: the oracle of ``SkeletonBlocks``' reads and counts."""

    def eigenvalues(self, indices: Iterable[int]) -> np.ndarray:
        """Ascending eigenvalues at ``indices`` (0-based), as a new array,
        each distinct index read once by ``_RunCount.read``.

        A block of at most ``_DENSE_ROWS`` rows supplies guesses from
        ``np.linalg.eigvalsh`` on its dense form, accurate to a few
        ``eps ||T||``: a guess of at least ``||T|| / 8`` in magnitude
        stands as it is, and ``read`` checks any other.  A larger block
        reads without guesses, and so has the same bits read together or
        alone.
        """
        indices = list(indices)
        wanted = list(dict.fromkeys(indices))
        if wanted and self.size <= _DENSE_ROWS:
            dense = self.dense()
            if not np.isfinite(dense).all():
                raise np.linalg.LinAlgError(_NON_FINITE)
            values = np.linalg.eigvalsh(dense)
            # a few ulps near ||T||, but not far below it, where the counts
            # read to their relative accuracy (as lambda_min at
            # (1, 10^12, 1, 2) under Metropolis weights)
            floor = 0.125 * max(-values[0], values[-1])
            found = {
                index: guess if abs(guess) >= floor else self._runs.read(index, guess)
                for index, guess in zip(wanted, values[wanted].tolist())
            }
        else:
            found = {index: self._runs.read(index) for index in wanted}
        return np.array([found[index] for index in indices], dtype=float)

    def count_below(self, shifts: float | np.ndarray) -> int | np.ndarray:
        """Number of eigenvalues below each shift, from the run-compressed
        Sturm count: an int for one shift, an array for an array.

        Each shift is one pure-Python count, O(runs and stepped rows) of
        the block.  Away from rounding level at an eigenvalue it equals
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
    def _runs(self) -> _RunCount:
        return _run_count_of(self.diagonal, self.off_diagonal)


def _run_count_of(diagonal: np.ndarray, off_diagonal: np.ndarray) -> _RunCount:
    """The count of the tridiagonal with these two diagonals: rows 1..
    start a new run where ``a_j`` or ``|b_{j-1}|`` changes, and only the
    entries that start a run are read."""
    top = max(
        float(np.abs(diagonal).max()),
        float(np.abs(off_diagonal).max(initial=0.0)),
    )
    if not math.isfinite(top):
        raise np.linalg.LinAlgError(_NON_FINITE)
    b = np.abs(off_diagonal)
    changes = (diagonal[2:] != diagonal[1:-1]) | (b[1:] != b[:-1])
    bounds = [1, *(np.flatnonzero(changes) + 2).tolist(), diagonal.size]
    a, b = diagonal.item, b.item
    return _RunCount([(a(0), 0.0, 1)] + [
        (a(lo), b(lo - 1), hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ])


def counted_blocks(blocks: StratifiedBlocks) -> StratifiedBlocks:
    """The same three blocks, each a ``CountedTridiagonal`` of its own on
    the same arrays, uncopied."""
    minus, center, plus = (
        CountedTridiagonal(block.diagonal, block.off_diagonal)
        for block in (blocks.minus, blocks.center, blocks.plus)
    )
    return StratifiedBlocks(blocks.params, minus, center, plus)


def block_extremes(blocks: StratifiedBlocks) -> SpectralReport:
    """``lambda2``, ``lambda_min`` and ``slem`` of the full matrix from the
    extreme eigenvalues of its blocks written out, by the interlacing rule
    of ``SkeletonBlocks.report`` without claims: the center's lowest
    eigenvalue and the arm blocks' top, with the center's second-highest
    beside a star of one branch.  Each block is read by
    ``CountedTridiagonal.eigenvalues``, on counts of its own.
    """
    blocks = counted_blocks(blocks)
    center = blocks.center
    arms = [
        arm
        for arm, mult in zip((blocks.minus, blocks.plus), blocks.multiplicities[::2])
        if mult > 0
    ]
    wanted = [0] if len(arms) == 2 else [0, center.size - 2]
    lowest, *tops = center.eigenvalues(wanted).tolist()
    tops += [arm.eigenvalues([arm.size - 1]).item() for arm in arms]
    return SpectralReport(lambda2=max(tops), lambda_min=lowest)


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


def exact_count_below(
    diagonal: Iterable[float | Fraction],
    couplings: Iterable[float | Fraction],
    shift: float | Fraction,
) -> int:
    """Eigenvalues of a symmetric tridiagonal at or below ``shift``, by
    Sylvester's law of inertia in exact rational arithmetic.

    ``diagonal`` holds the rows' entries and ``couplings`` (one fewer) the
    squared off-diagonals; every value is a rational (a float, an int or a
    ``Fraction``), taken exactly.  The count is the number of negative
    pivots of ``T - xI = LDL^T``, stepped row by row as ``d_j = (a_j - x)
    - b_{j-1}^2 / d_{j-1}``.  The tie rule is
    ``spectral.count_eigenvalues_below``'s, with its ``pivmin`` taken to
    0: the pivots are those just above the shift, where each one falls as
    the shift rises.  So a zero pivot counts as negative, the pivot after
    it (its coupling not 0) is ``+inf`` and passes no term on, and an
    eigenvalue at the shift counts as below.  Its cost grows as the
    square of the rows in bit work.
    """
    x = Fraction(shift)
    below = 0
    # None is an infinite pivot, or none before row 0: no term passes on
    pivot: Fraction | None = None
    for a, c in zip(diagonal, itertools.chain([0], couplings)):
        c = Fraction(c)
        if pivot == 0 and c:
            pivot = None
            continue
        pivot = Fraction(a) - x - (c / pivot if pivot and c else 0)
        below += pivot <= 0
    return below


# -- optimizer: theta* and the boundary weights in mpmath --------------------
def mp_theta_star(params: TfsParams):
    """theta*, the smallest root of the characteristic relation, as an
    mpmath number at the working precision ``mpmath.mp.dps``.

    On ``(0, pi / (2 max(m1, m2))]`` each factor of the relation falls
    from +inf to at least -1, so the relation crosses zero once there.
    The bracket is halved downward until the relation is positive at its
    lower end, then bisected to a relative width of ``10^(10 - dps)``.
    mpmath is loaded on first use.
    """
    import mpmath

    def relation(theta):  # optimizer._char_values at the working precision
        cot_half = mpmath.cot(theta / 2)
        arm1 = 2 / mpmath.mpf(params.n1) * mpmath.cot(params.m1 * theta) * cot_half - 1
        arm2 = 2 / mpmath.mpf(params.n2) * mpmath.cot(params.m2 * theta) * cot_half - 1
        return arm1 * arm2 - 1

    hi = mpmath.pi / (2 * max(params.m1, params.m2))
    lo = hi / 2
    while relation(lo) <= 0:
        lo, hi = lo / 2, lo
    width = mpmath.mpf(10) ** (10 - mpmath.mp.dps)
    while hi - lo > lo * width:
        mid = (lo + hi) / 2
        if relation(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_boundary_weight(m: int, theta):
    """The center-adjacent weight of an arm of length ``m`` at the angle
    ``theta``, ``(1 - cos t) sin(m t) / (sin(m t) - sin((m - 1) t))``, in
    mpmath at the working precision."""
    import mpmath

    # the difference form loses about twice the digits of theta; work with
    # that many more
    extra = 2 * max(0, -int(mpmath.floor(mpmath.log10(theta))))
    with mpmath.workdps(mpmath.mp.dps + extra):
        return (
            (1 - mpmath.cos(theta))
            * mpmath.sin(m * theta)
            / (mpmath.sin(m * theta) - mpmath.sin((m - 1) * theta))
        )


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


# -- simulation: the per-node stencil and the matrix recurrence ---------------
def _rounds(
    x: np.ndarray, advance: Callable[[np.ndarray], np.ndarray]
) -> Iterator[np.ndarray]:
    """x(1), x(2), ... with x(t+1) = advance(x(t)), each a fresh
    read-only array."""
    while True:
        try:
            x = advance(x)
        except MemoryError as exc:
            raise _no_room(exc) from None
        x.flags.writeable = False
        yield x


def _summarise(
    x0: np.ndarray, rounds: Iterator[np.ndarray], steps: int
) -> Trajectory:
    """The error norm and sum of x(0) and the first ``steps`` states of
    ``rounds``, each taken as the state arrives.

    The reductions are those that ``np.linalg.norm(..., axis=1)`` and
    ``sum(axis=1)`` apply per row of a state array, so they equal those
    bitwise.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    try:
        error_norms = np.empty(steps + 1)
        sums = np.empty(steps + 1)
        deviation = np.empty(x0.size)
        average = x0.mean()
        states = itertools.chain([x0], itertools.islice(rounds, steps))
        for t, state in enumerate(states):
            np.subtract(state, average, out=deviation)
            np.multiply(deviation, deviation, out=deviation)
            error_norms[t] = np.sqrt(np.add.reduce(deviation))
            sums[t] = np.add.reduce(state)
        return Trajectory(error_norms, sums, average)
    except MemoryError as exc:
        raise _no_room(exc) from None


def distributed_rounds(
    params: TfsParams, weights: OrbitWeights, x0: np.ndarray
) -> Iterator[np.ndarray]:
    """The rounds of x(t+1) = W x(t) as local updates, without end: each
    node combines its own value with its neighbors' values, weighted per
    edge orbit, as the protocol executes on an actual network.

    No weight matrix and no edge list is formed.  In canonical order
    every stratum is a contiguous run of nodes: arm 1 is ``x[:c]``, ``n1``
    nodes per stratum, arm 2 is ``x[c+1:]``, ``n2`` per stratum, and the
    center ``c = m1 * n1`` sits between them.  A node's neighbors in the
    adjacent strata are then ``n1`` or ``n2`` places away, and a round is
    a few shifted-slice products per arm.

    Each node adds its terms in the order of the per-edge gather (two
    ``np.add.at`` passes over ``edge_table``): its own share, then the
    neighbor in the stratum above (label ``i + 1``), then the one below.
    The center adds its ``n2 + n1`` terms one after another, arm 2
    first, as the gather does, so the states equal the gather's bitwise.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or x.size != params.n_nodes:
        raise ValueError(
            f"state of length {x.size} does not match {params.n_nodes} nodes"
        )
    m1, n1, m2, n2 = params.m1, params.n1, params.m2, params.n2
    c = m1 * n1
    w = weights.values_for(params)
    w_in1, w_in2 = w[m1 - 1], w[m1]  # the center's two orbits
    try:
        # each node's weight to its neighbor one stratum nearer the center
        near1 = np.repeat(w[:m1], n1)
        near2 = np.repeat(w[m1:], n2)
        keep = np.empty(x.size)  # the incident weights, then 1 minus them
        keep[:c] = near1
        keep[n1:c] += near1[:-n1]
        keep[c + 1 :] = near2
        keep[c + 1 : -n2] += near2[n2:]
        # the center's terms, summed in gather order: its own share, arm 2, arm 1
        hub = np.empty(1 + n2 + n1)
        hub[0] = 0.0
        hub[1 : 1 + n2] = w_in2
        hub[1 + n2 :] = w_in1
        keep[c] = np.add.accumulate(hub)[-1]
    except MemoryError as exc:
        raise _no_room(exc) from None
    np.subtract(1.0, keep, out=keep)

    def advance(now: np.ndarray) -> np.ndarray:
        out = np.multiply(keep, now)
        x1, y1 = now[:c], out[:c]
        x2, y2 = now[c + 1 :], out[c + 1 :]
        xc = now[c]
        y1[:-n1] += near1[:-n1] * x1[n1:]
        y1[-n1:] += w_in1 * xc
        y1[n1:] += near1[:-n1] * x1[:-n1]
        y2[:-n2] += near2[n2:] * x2[n2:]
        y2[:n2] += w_in2 * xc
        y2[n2:] += near2[n2:] * x2[:-n2]
        hub[0] = out[c]
        np.multiply(w_in2, x2[:n2], out=hub[1 : 1 + n2])
        np.multiply(w_in1, x1[-n1:], out=hub[1 + n2 :])
        out[c] = np.add.accumulate(hub, out=hub)[-1]
        return out

    return _rounds(x, advance)


def distributed_iterate(
    params: TfsParams, weights: OrbitWeights, x0: np.ndarray, steps: int
) -> Trajectory:
    """Run ``steps`` rounds of ``distributed_rounds``."""
    x = np.asarray(x0, dtype=float)
    return _summarise(x, distributed_rounds(params, weights, x), steps)


def matrix_rounds(entries: np.ndarray, x0: np.ndarray) -> Iterator[np.ndarray]:
    """The states x(1), x(2), ... of the matrix recurrence x(t+1) = W x(t)
    for the ``(n, n)`` array ``entries``, without end; ``distributed_rounds``
    must agree with them to reassociation-level tolerance."""
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or entries.shape != (x.size, x.size):
        raise ValueError(
            f"state of length {x.size} does not match matrix shape {entries.shape}"
        )
    return _rounds(x, lambda now: entries @ now)


def iterate(entries: np.ndarray, x0: np.ndarray, steps: int) -> Trajectory:
    """Run the matrix recurrence for ``steps`` rounds."""
    x = np.asarray(x0, dtype=float)
    return _summarise(x, matrix_rounds(entries, x), steps)


# The O(m) dual certificate: the sine chains, z1 and z2 written out as
# vectors of the m1 + m2 orbits and the m1 + m2 + 1 rows, and every
# condition evaluated on them.  A certificate stores three such vectors
# (the table, z1 and z2); building one peaks at six and verifying one at
# about three.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _center_stencils(params: TfsParams, arms: bool) -> tuple[tuple[float, float], ...]:
    """The ``(lo, hi)`` pairs of stencils ``m1 - 1`` and ``m1``, on central
    rows ``(m1 - 1, m1)`` and ``(m1, m1 + 1)`` (``reference.alpha_vectors``
    writes every stencil out)."""
    if arms:
        return (1.0, 0.0), (0.0, 1.0)
    n1, n2 = params.n1, params.n2
    scale1, scale2 = 1.0 / math.sqrt(n1 + 1.0), 1.0 / math.sqrt(n2 + 1.0)
    return (-scale1, math.sqrt(n1) * scale1), (-math.sqrt(n2) * scale2, scale2)


def _combine(params: TfsParams, coeffs: np.ndarray, arms: bool) -> np.ndarray:
    """``sum_j coeffs[j] stencil_j``: each row adds its lo term to 0, then its hi."""
    m1 = params.m1
    (lo1, hi1), (lo2, hi2) = _center_stencils(params, arms)
    z = np.zeros(coeffs.size + 1)
    terms = coeffs * -_INV_SQRT2
    terms[m1 - 1], terms[m1] = coeffs[m1 - 1] * lo1, coeffs[m1] * lo2
    z[:-1] += terms
    np.multiply(coeffs, _INV_SQRT2, out=terms)
    terms[m1 - 1], terms[m1] = coeffs[m1 - 1] * hi1, coeffs[m1] * hi2
    z[1:] += terms
    return np.delete(z, m1) if arms else z


def _inner_products(params: TfsParams, z: np.ndarray, arms: bool) -> np.ndarray:
    """``stencil_j . z`` for every ``j``."""
    m1 = params.m1
    (lo1, hi1), (lo2, hi2) = _center_stencils(params, arms)
    if arms:
        z = np.insert(z, m1, 0.0)
    dots = z[:-1] * -_INV_SQRT2
    dots += z[1:] * _INV_SQRT2
    dots[m1 - 1] = lo1 * z[m1 - 1] + hi1 * z[m1]
    dots[m1] = lo2 * z[m1] + hi2 * z[m1 + 1]
    return dots


def _chain(
    params: TfsParams, table: np.ndarray, arms: bool, scaled: bool
) -> np.ndarray:
    """The +s chain (``arms``) or the -s chain, hatted or (``scaled``)
    rescaled at the two center-adjacent labels to stencil coefficients.
    The -s chain, at ``pi - theta``, is the table with each even ``k``
    negated: ``k = j + 1`` on the first arm, ``m1 + m2 - j`` on the second."""
    m1 = params.m1
    chain = table.copy()
    if not arms:
        for part in (chain[1:m1:2], chain[m1 + params.m2 % 2 :: 2]):
            np.negative(part, out=part)
    if scaled and arms:
        chain[m1 - 1] /= -math.sqrt(2.0)
        chain[m1] /= math.sqrt(2.0)
    elif scaled:
        chain[m1 - 1] *= math.sqrt((params.n1 + 1.0) / 2.0)
        chain[m1] *= math.sqrt((params.n2 + 1.0) / 2.0)
    return chain


@dataclass(frozen=True)
class VectorCertificate:
    """Dual witness pair with its chain coordinates.

    ``sines`` is the table ``sin(k theta*)``, times the chain ratio on the
    second arm; ``t1`` and ``t2`` normalize the -s and +s chains into z1
    and z2.  The chains are derived on each read: ``coeffs``/``coeffs_prime``
    expand z1 and z2 over the stencils, and ``coeffs_hat``/``coeffs_hat_prime``
    are the hatted chains, in which the recurrences and the proportionality
    law hold.  Every array is read-only, in ``params.orbit_labels`` order.
    """

    params: TfsParams
    theta: float
    s: float
    gap: float
    sines: np.ndarray
    t1: float
    t2: float
    z1: np.ndarray
    z2: np.ndarray

    def _normalized(self, arms: bool, scaled: bool) -> np.ndarray:
        chain = _chain(self.params, self.sines, arms, scaled)
        chain *= self.t2 if arms else self.t1
        chain.flags.writeable = False
        return chain

    coeffs = property(lambda self: self._normalized(False, True))
    coeffs_prime = property(lambda self: self._normalized(True, True))
    coeffs_hat = property(lambda self: self._normalized(False, False))
    coeffs_hat_prime = property(lambda self: self._normalized(True, False))


def build_vector_certificate(solution: OptimalSolution) -> VectorCertificate:
    """Dual witness for an optimal solution, every vector written out: the
    oracle of ``certificate.build_dual_certificate``.

    The table ``sin(k theta*)`` is in orbit order (``k = 1..m1``, then
    ``k = m2..1``).  ||z1||^2 = (1 - s)/2 and ||z2||^2 = (1 + s)/2 fix
    both the unit total norm and the duality value.  A network of more
    nodes than the largest float is refused as invalid input: the Perron
    vector's norm is the node count's square root, and past it the
    chains' arm factors, about ``n m / 4``, overflow."""
    params = solution.params
    if params.n_nodes > sys.float_info.max:
        raise InvalidParameterError(
            "the node count is too large for floating-point arithmetic"
        )
    theta, s, gap = solution.theta_star, solution.s, solution.gap
    m1, m2 = params.m1, params.m2
    table = np.sin(np.arange(1.0, max(m1, m2) + 1.0) * theta)
    sines = np.empty(m1 + m2)
    sines[:m1] = table[:m1]
    np.multiply(table[m2 - 1 :: -1], _chain_ratio(params, theta), out=sines[m1:])
    del table  # before the witnesses take their own vectors
    z1 = _combine(params, _chain(params, sines, False, True), arms=False)
    z2 = _combine(params, _chain(params, sines, True, True), arms=True)
    t1 = math.sqrt(0.5 * gap) / _norm(z1)
    t2 = math.sqrt((1.0 + s) / 2.0) / _norm(z2)
    z1 *= t1
    z2 *= t2
    for array in (sines, z1, z2):
        array.flags.writeable = False
    return VectorCertificate(params, theta, s, gap, sines, t1, t2, z1, z2)


def _recurrence_residual(
    params: TfsParams, w: np.ndarray, c: np.ndarray, s: float, gap: float,
    primed: bool,
) -> float:
    """Worst violation of the three-term chain relations, ``w`` and the
    chain ``c`` in orbit order, at ``s`` and its gap ``1 - s``.  The +s
    system couples the arms through the center with strength sqrt(n1 n2),
    the -s system not at all, and its center-adjacent diagonal terms carry
    (n + 1) w, the other's w."""
    m1 = params.m1
    base = gap if primed else (1.0 + s)
    acc = np.subtract(base, w * 2.0)
    acc[m1 - 1] = base - (1.0 if primed else params.n1 + 1.0) * w[m1 - 1]
    acc[m1] = base - (1.0 if primed else params.n2 + 1.0) * w[m1]
    acc *= c
    if primed:
        cross = 0.0
    else:
        try:
            cross = math.sqrt(params.n1 * params.n2)
        except OverflowError:
            # a product past the float range: its integer square root is
            # within one of the root, and fits
            cross = float(math.isqrt(params.n1 * params.n2))
    terms = w[1:] * c[:-1]
    terms[m1 - 1] = cross * w[m1] * c[m1 - 1]
    acc[1:] += terms
    np.multiply(w[:-1], c[1:], out=terms)
    terms[m1 - 1] = cross * w[m1 - 1] * c[m1]
    acc[:-1] += terms
    return _max_abs(acc)


def _proportionality_residual(certificate: VectorCertificate) -> float:
    """Worst relative gap between ``(1 + cos theta)^2 hat^2`` and
    ``(1 - cos theta)^2 hat_prime^2`` where either is nonzero."""
    theta, sines = certificate.theta, certificate.sines
    plus, minus = 1.0 + math.cos(theta), certificate.gap
    # the hatted -s chain is the table times t1 up to sign
    lhs = np.square(sines * certificate.t1) * plus**2
    rhs = np.square(sines * certificate.t2) * minus**2
    scale = np.maximum(lhs, rhs)  # both are never negative
    nonzero = scale > 0.0
    np.abs(np.subtract(lhs, rhs, out=lhs), out=lhs)
    np.divide(lhs, scale, out=lhs, where=nonzero)
    return float(np.max(lhs, where=nonzero, initial=0.0))


def _trace_mismatch(params: TfsParams, z1: np.ndarray, z2: np.ndarray) -> float:
    # squared stencil coordinates of z1, times n + 1 at the center, vs z2's
    rhs = np.square(_inner_products(params, z2, arms=True))
    lhs = np.square(_inner_products(params, z1, arms=False))
    lhs[params.m1 - 1] *= params.n1 + 1.0
    lhs[params.m1] *= params.n2 + 1.0
    lhs -= rhs
    return _max_abs(lhs)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # numpy's pairwise sum, not BLAS: BLAS splits a long dot product
    # between its threads, and the rounding with it
    return float(np.sum(x * y))


def _max_abs(x: np.ndarray) -> float:
    # with no |x| array; abs turns -0.0 into 0.0
    return float(abs(max(x.max(), -x.min())))


def _norm(x: np.ndarray, out: np.ndarray | None = None) -> float:
    # at a power-of-two scale, which is exact, so no square overflows;
    # ``out``, which may be ``x``, takes the scaled squares
    _, exponent = np.frexp(_max_abs(x))
    squares = np.ldexp(x, -exponent, out=out)
    squares *= squares
    return math.ldexp(math.sqrt(float(np.sum(squares))), int(exponent))


def verify_vector_certificate(
    certificate: VectorCertificate,
    weights: OrbitWeights,
) -> CertificateResiduals:
    """Evaluate every certificate condition against the given weights.

    At the optimal weights all residuals sit at rounding level and the
    two feasibility matrices ``s I + C - v v^T`` (C the central block, v
    its Perron vector) and ``s I - arms`` are positive semidefinite.  Any
    weight perturbation shows up in the slackness and recurrence
    residuals.  Every condition costs O(m1 + m2): both slackness products
    are tridiagonal, and both smallest feasibility eigenvalues follow
    from extreme eigenvalues of ``build_blocks``' blocks of ``weights``.
    This is the oracle of ``certificate.verify_certificate``, and the
    route for weights whose interior orbits are not all 1/2.
    """
    params = certificate.params
    w = weights.values_for(params)
    blocks = counted_blocks(build_blocks(params, weights))
    s, z1, z2 = certificate.s, certificate.z1, certificate.z2

    # C v = v for every orbit weighting, so s I + C - v v^T has the
    # spectrum of C with one eigenvalue 1 replaced by 0; the certificate
    # claims C's lowest at -s and each arm's top at +s.  A block they
    # refuse (not finite, or past the float range) raises here, first.
    center_min = float(blocks.center.eigenvalues([0])[0])
    arms_top = max(
        float(blocks.minus.eigenvalues([params.m1 - 1])[0]),
        float(blocks.plus.eigenvalues([params.m2 - 1])[0]),
    )
    norm1, norm2 = _dot(z1, z1), _dot(z2, z2)
    v = perron_vector(params)
    perron_dot = _dot(v, z1)
    # s z1 + C z1 - (v . z1) v, then s z2 - arms z2, in place
    residual = blocks.center.matvec(z1)
    residual += s * z1
    v *= perron_dot
    residual -= v
    slackness_center = _norm(residual, out=residual)
    residual = s * z2
    residual[: params.m1] -= blocks.minus.matvec(z2[: params.m1])
    residual[params.m1 :] -= blocks.plus.matvec(z2[params.m1 :])
    slackness_arms = _norm(residual, out=residual)
    del v, residual  # before the passes below take their own
    return CertificateResiduals(
        slackness_center=slackness_center,
        slackness_arms=slackness_arms,
        perron_orthogonality=abs(perron_dot),
        norm_sum_error=abs(norm1 + norm2 - 1.0),
        norm_split_error=abs(norm2 - norm1 - s),
        trace_mismatch=_trace_mismatch(params, z1, z2),
        feasibility_min_eig=min(s + min(0.0, center_min), s - arms_top),
        recurrence=_recurrence_residual(
            params, w, certificate.coeffs_hat, s, certificate.gap, False
        ),
        recurrence_prime=_recurrence_residual(
            params, w, certificate.coeffs_hat_prime, s, certificate.gap, True
        ),
        proportionality_rel=_proportionality_residual(certificate),
        duality_gap=s + norm1 - perron_dot**2 - norm2,
    )
