"""Analytic optimality certificate for the fastest-consensus weights.

The optimum returned by the solver is certified through a dual witness
pair (z1, z2) built from closed-form sine chains.  z1 lives in the
coupled central block, z2 in the direct sum of the two arm blocks; at
the optimum z1 is an eigenvector of the central block for -s and z2 an
eigenvector of the arm blocks for +s.  Both chains are read from one
table ``sin(k theta*)`` with no cancelling difference.  Every optimality
condition (slackness, normalization, trace matching, feasibility, chain
recurrences and the squared-coordinate proportionality between the two
chains) is evaluated numerically by ``verify_certificate``; all of them
vanish only at the optimal weights, so perturbing any weight breaks the
certificate measurably.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .optimizer import OptimalSolution
from .spectral import build_blocks, perron_vector
from .topology import TfsParams
from .weighting import OrbitWeights

# the bounds that ``CertificateResiduals.passes`` applies
_RESIDUAL_TOL = 1e-8
_FEASIBILITY_TOL = 1e-10
_RECURRENCE_TOL = 1e-10
_PROPORTIONALITY_TOL = 1e-9


# one stencil family as index arrays: (pos, lo, hi)
_Stencils = tuple[np.ndarray, np.ndarray, np.ndarray]


def _stencil_arrays(params: TfsParams) -> tuple[_Stencils, _Stencils]:
    """The rank-one edge stencils of the central block, then of the arm
    blocks (``reference.alpha_vectors`` writes them out), as index arrays.

    Each family is ``(pos, lo, hi)`` in ``params.orbit_labels`` order:
    stencil ``j`` holds ``lo[j]`` at ``pos[j]`` and ``hi[j]`` at
    ``pos[j] + 1`` and is zero elsewhere.  In the arm space the two
    center-adjacent stencils are unit vectors, written with a zero entry.
    """
    m1, k = params.m1, params.m1 + params.m2
    inv = 1.0 / math.sqrt(2.0)
    pos = np.arange(k)
    lo, hi = np.full(k, -inv), np.full(k, inv)
    scale1 = 1.0 / math.sqrt(params.n1 + 1.0)
    scale2 = 1.0 / math.sqrt(params.n2 + 1.0)
    lo[m1 - 1], hi[m1 - 1] = -scale1, math.sqrt(params.n1) * scale1
    lo[m1], hi[m1] = -math.sqrt(params.n2) * scale2, scale2
    # the second arm's stencils sit one place lower: the arm space has no
    # center
    pos_prime = np.where(pos < m1, pos, pos - 1)
    lo_prime, hi_prime = np.full(k, -inv), np.full(k, inv)
    lo_prime[m1 - 1], hi_prime[m1 - 1] = 1.0, 0.0
    lo_prime[m1], hi_prime[m1] = 0.0, 1.0
    return (pos, lo, hi), (pos_prime, lo_prime, hi_prime)


def _expand(stencils: _Stencils, coeffs: np.ndarray, size: int) -> np.ndarray:
    """The combination ``sum_j coeffs[j] * stencil_j``."""
    pos, lo, hi = stencils
    z = np.zeros(size)
    np.add.at(z, pos, coeffs * lo)
    np.add.at(z, pos + 1, coeffs * hi)
    return z


def _project(stencils: _Stencils, z: np.ndarray) -> np.ndarray:
    """The inner products ``stencil_j . z`` for every ``j``."""
    pos, lo, hi = stencils
    return lo * z[pos] + hi * z[pos + 1]


def _chain_ratio(params: TfsParams, theta: float) -> float:
    # ratio of the second-arm chain to the first-arm chain, fixed by the
    # coupled center equation of the +s system; a1 a2 = 1 at the root, and
    # the larger response factor is the one formed without cancellation
    cot_half = 1.0 / math.tan(0.5 * theta)
    a1 = 2.0 / params.n1 / math.tan(params.m1 * theta) * cot_half - 1.0
    a2 = 2.0 / params.n2 / math.tan(params.m2 * theta) * cot_half - 1.0
    if abs(a2) > abs(a1):
        a1 = 1.0 / a2
    sign = (-1) ** (params.m1 + params.m2 + 1)
    ratio = math.sqrt(params.n1 / params.n2) * math.sin(params.m1 * theta)
    return sign * a1 * ratio / math.sin(params.m2 * theta)


@dataclass(frozen=True)
class DualCertificate:
    """Dual witness pair with its chain coordinates.

    Every chain is a read-only array in ``params.orbit_labels`` order.
    ``coeffs``/``coeffs_prime`` expand z1 and z2 over the stencils;
    ``coeffs_hat``/``coeffs_hat_prime`` are the same chains in hatted
    form (rescaled at the two center-adjacent labels) in which the
    three-term recurrences and the proportionality law hold.
    """

    params: TfsParams
    theta: float
    s: float
    coeffs: np.ndarray
    coeffs_prime: np.ndarray
    coeffs_hat: np.ndarray
    coeffs_hat_prime: np.ndarray
    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "coeffs", "coeffs_prime", "coeffs_hat", "coeffs_hat_prime", "z1", "z2"
        ):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def build_dual_certificate(solution: OptimalSolution) -> DualCertificate:
    """Closed-form dual witness for an optimal solution.

    Both chains come from one table ``sin(k theta*)`` in orbit order
    (``k = 1..m1`` on the first arm, ``k = m2..1`` on the second), times
    the arm ratio on the second arm.  The -s chain is that table; the +s
    chain, a sine chain at ``pi - theta*``, is the same table times
    ``(-1)^(k+1)``.  The pair is normalized so that
    ||z1||^2 = (1 - s)/2 and ||z2||^2 = (1 + s)/2, which fixes both the
    unit total norm and the duality value.
    """
    params = solution.params
    theta, s = solution.theta_star, solution.s
    m1, m2 = params.m1, params.m2
    k = np.concatenate([np.arange(1, m1 + 1), np.arange(m2, 0, -1)])
    hat_prime = np.sin(k * theta)
    hat_prime[m1:] *= _chain_ratio(params, theta)
    # sin(k (pi - theta)) = (-1)^(k+1) sin(k theta)
    hat = np.where(k % 2 == 1, hat_prime, -hat_prime)

    a = hat.copy()
    a[m1 - 1] *= math.sqrt((params.n1 + 1.0) / 2.0)
    a[m1] *= math.sqrt((params.n2 + 1.0) / 2.0)
    a_prime = hat_prime.copy()
    a_prime[m1 - 1] /= -math.sqrt(2.0)
    a_prime[m1] /= math.sqrt(2.0)

    stencils, stencils_prime = _stencil_arrays(params)
    z1 = _expand(stencils, a, k.size + 1)
    z2 = _expand(stencils_prime, a_prime, k.size)

    # sqrt((1 - s) / 2) = sin(theta / 2), which does not cancel at small theta
    t1 = math.sin(0.5 * theta) / _norm(z1)
    t2 = math.sqrt((1.0 + s) / 2.0) / _norm(z2)
    return DualCertificate(
        params=params,
        theta=theta,
        s=s,
        coeffs=a * t1,
        coeffs_prime=a_prime * t2,
        coeffs_hat=hat * t1,
        coeffs_hat_prime=hat_prime * t2,
        z1=z1 * t1,
        z2=z2 * t2,
    )


@dataclass(frozen=True)
class CertificateResiduals:
    """Numeric size of every certificate condition.

    All fields except ``feasibility_min_eig`` and ``duality_gap`` are
    absolute residuals that vanish at the optimum.
    """

    slackness_center: float
    slackness_arms: float
    perron_orthogonality: float
    norm_sum_error: float
    norm_split_error: float
    trace_mismatch: float
    feasibility_min_eig: float
    recurrence: float
    recurrence_prime: float
    proportionality_rel: float
    duality_gap: float

    def passes(self) -> bool:
        residuals_ok = all(
            value <= _RESIDUAL_TOL
            for value in (
                self.slackness_center,
                self.slackness_arms,
                self.perron_orthogonality,
                self.norm_sum_error,
                self.norm_split_error,
                self.trace_mismatch,
                abs(self.duality_gap),
            )
        )
        return (
            residuals_ok
            and self.feasibility_min_eig >= -_FEASIBILITY_TOL
            and self.recurrence <= _RECURRENCE_TOL
            and self.recurrence_prime <= _RECURRENCE_TOL
            and self.proportionality_rel <= _PROPORTIONALITY_TOL
        )

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def _recurrence_residual(
    params: TfsParams,
    w: np.ndarray,
    c: np.ndarray,
    s: float,
    primed: bool,
) -> float:
    """Worst violation of the three-term chain relations.

    ``w`` and the chain ``c`` are in ``params.orbit_labels`` order.  The
    +s system couples the two arms through the center with strength
    sqrt(n1 n2); the -s system is decoupled there.  Center-adjacent
    diagonal terms carry (n + 1) w in the coupled system and w in the
    decoupled one.
    """
    m1 = params.m1
    base = (1.0 - s) if primed else (1.0 + s)
    diag = base - 2.0 * w
    diag[m1 - 1] = base - (1.0 if primed else params.n1 + 1.0) * w[m1 - 1]
    diag[m1] = base - (1.0 if primed else params.n2 + 1.0) * w[m1]
    # coupling between neighbouring labels j and j + 1
    coupling = np.ones(c.size - 1)
    coupling[m1 - 1] = 0.0 if primed else math.sqrt(params.n1 * params.n2)
    acc = diag * c
    acc[1:] += coupling * w[1:] * c[:-1]
    acc[:-1] += coupling * w[:-1] * c[1:]
    return float(np.max(np.abs(acc)))


def _proportionality_residual(
    theta: float, hat: np.ndarray, hat_prime: np.ndarray
) -> float:
    plus = 1.0 + math.cos(theta)
    minus = 2.0 * math.sin(0.5 * theta) ** 2  # 1 - cos(theta), no cancellation
    lhs = plus**2 * hat**2
    rhs = minus**2 * hat_prime**2
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    nonzero = scale > 0.0
    return float(
        np.max(np.abs(lhs - rhs)[nonzero] / scale[nonzero], initial=0.0)
    )


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # numpy's pairwise sum, not BLAS: BLAS splits a long dot product
    # between its threads, and the rounding with it
    return float(np.sum(x * y))


def _norm(x: np.ndarray) -> float:
    # taken at a power-of-two scale, which is exact, so no square overflows
    _, exponent = np.frexp(np.max(np.abs(x), initial=0.0))
    scaled = np.ldexp(x, -exponent)
    return math.ldexp(math.sqrt(_dot(scaled, scaled)), int(exponent))


def verify_certificate(
    certificate: DualCertificate,
    weights: OrbitWeights,
) -> CertificateResiduals:
    """Evaluate every certificate condition against the given weights.

    At the optimal weights all residuals sit at rounding level and the
    two feasibility matrices ``s I + C - v v^T`` (C the central block, v
    its Perron vector) and ``s I - arms`` are positive semidefinite.  Any
    weight perturbation shows up in the slackness and recurrence
    residuals.  Every condition costs O(m1 + m2): both slackness products
    are tridiagonal, and both smallest feasibility eigenvalues follow
    from extreme eigenvalues of the blocks.  The blocks are the ones that
    ``build_blocks`` keeps on ``weights``: after a self-check and a
    report on the same weights, no block is built again and the lowest
    eigenvalue of the central block and the top of each arm block are
    read from what the report found.  Otherwise the certificate's own
    claim seeds them, ``-s`` and ``+s``: at the optimum a few counts
    confirm it, and under other weights the seeds fail and the search
    finds the eigenvalues.
    """
    params = certificate.params
    w = weights.values_for(params)
    blocks = build_blocks(params, weights)
    m1 = params.m1
    v = perron_vector(params)
    s, z1, z2 = certificate.s, certificate.z1, certificate.z2

    norm1 = _dot(z1, z1)
    norm2 = _dot(z2, z2)
    perron_dot = _dot(v, z1)
    arms_z2 = np.concatenate(
        [blocks.minus.matvec(z2[:m1]), blocks.plus.matvec(z2[m1:])]
    )

    # C v = v for every orbit weighting, so s I + C - v v^T has the
    # spectrum of C with one eigenvalue 1 replaced by 0; the certificate
    # claims C's lowest at -s and each arm's top at +s, which seeds them
    center_min = float(blocks.center.eigenvalues([0], [-s])[0])
    arms_top = max(
        float(blocks.minus.eigenvalues([m1 - 1], [s])[0]),
        float(blocks.plus.eigenvalues([params.m2 - 1], [s])[0]),
    )

    stencils, stencils_prime = _stencil_arrays(params)
    factor = np.ones(w.size)
    factor[m1 - 1] = params.n1 + 1.0
    factor[m1] = params.n2 + 1.0
    lhs = factor * _project(stencils, z1) ** 2
    rhs = _project(stencils_prime, z2) ** 2

    return CertificateResiduals(
        slackness_center=_norm(s * z1 + blocks.center.matvec(z1) - perron_dot * v),
        slackness_arms=_norm(s * z2 - arms_z2),
        perron_orthogonality=abs(perron_dot),
        norm_sum_error=abs(norm1 + norm2 - 1.0),
        norm_split_error=abs(norm2 - norm1 - s),
        trace_mismatch=float(np.max(np.abs(lhs - rhs))),
        feasibility_min_eig=min(s + min(0.0, center_min), s - arms_top),
        recurrence=_recurrence_residual(
            params, w, certificate.coeffs_hat, s, primed=False
        ),
        recurrence_prime=_recurrence_residual(
            params, w, certificate.coeffs_hat_prime, s, primed=True
        ),
        proportionality_rel=_proportionality_residual(
            certificate.theta, certificate.coeffs_hat, certificate.coeffs_hat_prime
        ),
        duality_gap=s + norm1 - perron_dot**2 - norm2,
    )
