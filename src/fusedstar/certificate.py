"""Analytic optimality certificate for the fastest-consensus weights.

The solver's optimum is certified through a dual witness pair (z1, z2)
built from closed-form sine chains: z1 lives in the coupled central
block and is, at the optimum, its eigenvector for -s; z2 lives in the
direct sum of the two arm blocks and is their eigenvector for +s.  Both
chains are read from one table ``sin(k theta*)`` with no cancelling
difference, and z1 and z2 come from them by one stencil formula: the
edge stencil of orbit ``j`` is ``-1/sqrt(2)`` at row ``j`` and
``+1/sqrt(2)`` at row ``j + 1`` of the central block, except the two
beside the center, whose ``(lo, hi)`` pairs are all that differs in the
arm space (the central space without its center row), where they are
unit vectors.  ``verify_certificate`` evaluates every optimality
condition (slackness, normalization, trace matching, feasibility, chain
recurrences and the proportionality of the chains' squares) as a
residual that vanishes only at the optimal weights.  A certificate
stores three float vectors of the ``m1 + m2`` orbits (the table, z1 and
z2); building one peaks at six such vectors and verifying one at about three.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
class DualCertificate:
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


def build_dual_certificate(solution: OptimalSolution) -> DualCertificate:
    """Closed-form dual witness for an optimal solution.

    The table ``sin(k theta*)`` is in orbit order (``k = 1..m1``, then
    ``k = m2..1``).  ||z1||^2 = (1 - s)/2 and ||z2||^2 = (1 + s)/2 fix
    both the unit total norm and the duality value."""
    params = solution.params
    theta, s = solution.theta_star, solution.s
    m1, m2 = params.m1, params.m2
    table = np.sin(np.arange(1.0, max(m1, m2) + 1.0) * theta)
    sines = np.empty(m1 + m2)
    sines[:m1] = table[:m1]
    np.multiply(table[m2 - 1 :: -1], _chain_ratio(params, theta), out=sines[m1:])
    del table  # before the witnesses take their own vectors
    z1 = _combine(params, _chain(params, sines, False, True), arms=False)
    z2 = _combine(params, _chain(params, sines, True, True), arms=True)
    # sqrt((1 - s) / 2) = sin(theta / 2), which does not cancel at small theta
    t1 = math.sin(0.5 * theta) / _norm(z1)
    t2 = math.sqrt((1.0 + s) / 2.0) / _norm(z2)
    z1 *= t1
    z2 *= t2
    for array in (sines, z1, z2):
        array.flags.writeable = False
    return DualCertificate(params, theta, s, sines, t1, t2, z1, z2)


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
        absolute = (
            self.slackness_center, self.slackness_arms, self.perron_orthogonality,
            self.norm_sum_error, self.norm_split_error, self.trace_mismatch,
            abs(self.duality_gap),
        )
        return (
            all(value <= _RESIDUAL_TOL for value in absolute)
            and self.feasibility_min_eig >= -_FEASIBILITY_TOL
            and self.recurrence <= _RECURRENCE_TOL
            and self.recurrence_prime <= _RECURRENCE_TOL
            and self.proportionality_rel <= _PROPORTIONALITY_TOL
        )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _recurrence_residual(
    params: TfsParams, w: np.ndarray, c: np.ndarray, s: float, primed: bool
) -> float:
    """Worst violation of the three-term chain relations, ``w`` and the
    chain ``c`` in orbit order.  The +s system couples the arms through the
    center with strength sqrt(n1 n2), the -s system not at all, and its
    center-adjacent diagonal terms carry (n + 1) w, the other's w."""
    m1 = params.m1
    base = (1.0 - s) if primed else (1.0 + s)
    acc = np.subtract(base, w * 2.0)
    acc[m1 - 1] = base - (1.0 if primed else params.n1 + 1.0) * w[m1 - 1]
    acc[m1] = base - (1.0 if primed else params.n2 + 1.0) * w[m1]
    acc *= c
    cross = 0.0 if primed else math.sqrt(params.n1 * params.n2)
    terms = w[1:] * c[:-1]
    terms[m1 - 1] = cross * w[m1] * c[m1 - 1]
    acc[1:] += terms
    np.multiply(w[:-1], c[1:], out=terms)
    terms[m1 - 1] = cross * w[m1 - 1] * c[m1]
    acc[:-1] += terms
    return _max_abs(acc)


def _proportionality_residual(certificate: DualCertificate) -> float:
    """Worst relative gap between ``(1 + cos theta)^2 hat^2`` and
    ``(1 - cos theta)^2 hat_prime^2`` where either is nonzero."""
    theta, sines = certificate.theta, certificate.sines
    plus = 1.0 + math.cos(theta)
    minus = 2.0 * math.sin(0.5 * theta) ** 2  # 1 - cos(theta), no cancellation
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
    from extreme eigenvalues of the blocks that ``build_blocks`` keeps on
    ``weights``: read from what a report on the same weights found, or
    seeded with the certificate's own claim, which a few counts confirm
    at the optimum and a search replaces under other weights.
    """
    params = certificate.params
    w = weights.values_for(params)
    blocks = build_blocks(params, weights)
    s, z1, z2 = certificate.s, certificate.z1, certificate.z2

    # C v = v for every orbit weighting, so s I + C - v v^T has the
    # spectrum of C with one eigenvalue 1 replaced by 0; the certificate
    # claims C's lowest at -s and each arm's top at +s.  A block they
    # refuse (not finite, or past the float range) raises here, first.
    center_min = float(blocks.center.eigenvalues([0], [-s])[0])
    arms_top = max(
        float(blocks.minus.eigenvalues([params.m1 - 1], [s])[0]),
        float(blocks.plus.eigenvalues([params.m2 - 1], [s])[0]),
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
        recurrence=_recurrence_residual(params, w, certificate.coeffs_hat, s, False),
        recurrence_prime=_recurrence_residual(
            params, w, certificate.coeffs_hat_prime, s, True
        ),
        proportionality_rel=_proportionality_residual(certificate),
        duality_gap=s + norm1 - perron_dot**2 - norm2,
    )
