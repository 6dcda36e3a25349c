"""Analytic optimality certificate for the fastest-consensus weights.

The solver's optimum is certified through a dual witness pair (z1, z2)
built from closed-form sine chains: z1 lives in the coupled central
block and is, at the optimum, its eigenvector for -s; z2 lives in the
direct sum of the two arm blocks and is their eigenvector for +s.  On
the first arm, orbit ``k`` (1 at the leaf, ``m1`` beside the center)
carries ``sin(k theta*)``, and on the second ``ratio * sin(k theta*)``;
the -s chain negates every even ``k``.  z1 and z2 are the edge-stencil
expansions of those chains, normalized by ``t1`` and ``t2``, and their
entries are sine chains again: on the arm row ``p`` rows from the leaf,
z1 is ``+-sqrt(2) rho cos(theta/2) sin((p + 1/2) theta) t1`` and z2 is
``-+sqrt(2) rho sin(theta/2) cos((p + 1/2) theta) t2`` (``rho`` is 1 or
``ratio``), and z1's center entry combines the two arms' last chain
entries.  So the pair is a few numbers, like the optimum it certifies,
and building and verifying it costs O(1) in the branch lengths and
counts:

- every recurrence, slackness and proportionality relation holds on the
  interior rows by the sine-chain identities, whatever the boundary
  weights; each residual is evaluated only at the leaf, boundary and
  center rows, and the interior rows add the rounding-error bound of
  their O(m) evaluation (``_closed_form``);
- ``||z1||^2`` and ``||z2||^2`` come from Lagrange's sums of ``sin^2``
  and ``cos^2`` at the half-integer angles (Gradshteyn and Ryzhik,
  section 1.34), written without cancellation;
- ``v . z1`` telescopes: every edge stencil is orthogonal to the Perron
  vector ``v``;
- the feasibility extremes are the skeleton's reads
  (``SkeletonBlocks.report``).

The weights verified are the optimum's skeleton, or one with other
boundary weights (``verify --perturb``): interior orbits of 1/2.  The
O(m) construction, with every vector written out, is
``fusedstar.reference.build_vector_certificate`` and
``fusedstar.reference.verify_vector_certificate``, the oracle that the closed
forms are tested against, and the route for any other weights.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .optimizer import OptimalSolution
from .spectral import SkeletonBlocks
from .topology import InvalidParameterError, TfsParams
from .weighting import MissingOrbitWeightError

# the bounds that ``CertificateResiduals.passes`` applies
_RESIDUAL_TOL = 1e-8
_FEASIBILITY_TOL = 1e-10
_RECURRENCE_TOL = 1e-10
_PROPORTIONALITY_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)
# the unit roundoff, and the multiple of it that bounds the relative
# rounding error of one residual term, as either route evaluates it: a
# term is a product of a few entries (a chain value, a weight, s) that
# each carry a few roundings (a sine of a rounded angle, two scalings),
# and a row sums at most five terms
_UNIT = sys.float_info.epsilon / 2.0
_TERM_ERROR = 16.0 * _UNIT
# y - sin(y) by its Taylor series up to 1: y^3 times a polynomial in y^2
# with the coefficients (-1)^k / (2k + 3)!, highest first, to a relative
# error below 1e-19
_SERIES = [(-1.0) ** k / math.factorial(2 * k + 3) for k in range(9)][::-1]


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


def _y_minus_sin(y: float) -> float:
    if y > 1.0:
        return y - math.sin(y)
    square, total = y * y, 0.0
    for coefficient in _SERIES:
        total = total * square + coefficient
    return total * square * y


def _half_angle_sums(m: int, theta: float) -> tuple[float, float]:
    """Lagrange's ``sum_{p < m} sin^2((p + 1/2) theta)`` and the same sum of
    ``cos^2``, for ``m theta <= pi/2``: ``m/2 -+ sin(2 m theta) / (4 sin
    theta)``.  The first cancels at small ``m theta``, so it is taken as
    ``((2 m theta - sin 2 m theta) - 2 m (theta - sin theta)) / (4 sin
    theta)``, whose two terms differ by a factor of at least about 4 m^2,
    with each ``y - sin y`` by its series up to 1."""
    spread = 4.0 * math.sin(theta)
    cosines = 0.5 * m + math.sin(2.0 * m * theta) / spread
    if m == 1:
        return math.sin(0.5 * theta) ** 2, cosines
    sines = (_y_minus_sin(2.0 * m * theta) - 2.0 * m * _y_minus_sin(theta)) / spread
    return sines, cosines


def _cross(params: TfsParams) -> float:
    try:
        return math.sqrt(params.n1 * params.n2)
    except OverflowError:
        # a product past the float range: its integer square root is
        # within one of the root, and fits
        return float(math.isqrt(params.n1 * params.n2))


@dataclass(frozen=True)
class DualCertificate:
    """Dual witness pair of an optimum, in closed form.

    ``theta``, ``s`` and ``gap`` are the optimum's; ``ratio`` scales the
    second arm's chain; ``t1`` and ``t2`` normalize the -s and +s chains
    into z1 and z2, and ``norm1`` and ``norm2`` are the norms of their
    expansions before that; ``center`` is z1's center entry before
    ``t1``.  The chains and the entries of z1 and z2 follow from these.
    Arms are 0 and 1, rows and orbits counted from the arm's leaf.
    """

    params: TfsParams
    theta: float
    s: float
    gap: float
    ratio: float
    t1: float
    t2: float
    norm1: float
    norm2: float
    center: float

    def sine(self, arm: int, k: int) -> float:
        """The +s chain at orbit ``k``, before ``t2``; the -s chain is it
        with every even ``k`` negated."""
        return (self.ratio if arm else 1.0) * math.sin(k * self.theta)

    def z1(self, arm: int, row: int) -> float:
        sign = (1.0 if row % 2 else -1.0) * (-1.0 if arm else 1.0)
        scale = _SQRT2 * (self.ratio if arm else 1.0) * math.cos(0.5 * self.theta)
        return sign * scale * math.sin((row + 0.5) * self.theta) * self.t1

    def z2(self, arm: int, row: int) -> float:
        sign = 1.0 if arm else -1.0
        scale = _SQRT2 * (self.ratio if arm else 1.0) * math.sin(0.5 * self.theta)
        return sign * scale * math.cos((row + 0.5) * self.theta) * self.t2


def _last_entry(params: TfsParams, arm: int, ratio: float, theta: float) -> float:
    # the -s chain at the arm's boundary orbit, sign (-1)^(m + 1), times
    # the square root of its branch count
    m, n = (params.m1, params.n1) if arm == 0 else (params.m2, params.n2)
    value = math.sqrt(n) * (ratio if arm else 1.0) * math.sin(m * theta)
    return value if m % 2 else -value


def build_dual_certificate(solution: OptimalSolution) -> DualCertificate:
    """Closed-form dual witness for an optimal solution.

    ||z1||^2 = (1 - s)/2, read from the gap, and ||z2||^2 = (1 + s)/2 =
    cos(theta/2)^2 fix both the unit total norm and the duality value.
    The norms of the expansions are Lagrange's sums over each arm and the
    center entry, combined by ``hypot`` so that no square overflows.  A
    network of more nodes than the largest float is refused as invalid
    input: the Perron vector's norm is the node count's square root, and
    past it the chains' arm factors, about ``n m / 4``, overflow."""
    params = solution.params
    if params.n_nodes > sys.float_info.max:
        raise InvalidParameterError(
            "the node count is too large for floating-point arithmetic"
        )
    theta = solution.theta_star
    ratio = _chain_ratio(params, theta)
    (sines1, cosines1), (sines2, cosines2) = (
        _half_angle_sums(m, theta) for m in (params.m1, params.m2)
    )
    center = (
        _last_entry(params, 0, ratio, theta) - _last_entry(params, 1, ratio, theta)
    ) / _SQRT2
    arms1 = math.hypot(math.sqrt(sines1), ratio * math.sqrt(sines2))
    arms2 = math.hypot(math.sqrt(cosines1), ratio * math.sqrt(cosines2))
    norm1 = math.hypot(_SQRT2 * math.cos(0.5 * theta) * arms1, center)
    norm2 = _SQRT2 * math.sin(0.5 * theta) * arms2
    return DualCertificate(
        params=params,
        theta=theta,
        s=solution.s,
        gap=solution.gap,
        ratio=ratio,
        t1=math.sqrt(0.5 * solution.gap) / norm1,
        t2=math.cos(0.5 * theta) / norm2,
        norm1=norm1,
        norm2=norm2,
        center=center,
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


class _Rows:
    """A residual's values at the rows evaluated, each the sum of its
    terms, and the magnitudes of those terms summed."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.terms: list[float] = []

    def add(self, *terms: float) -> None:
        # sum adds left to right from 0, which adds nothing to a float
        self.values.append(sum(terms))
        self.terms.append(sum(map(abs, terms)))

    def norm(self) -> float:
        return math.hypot(*self.values)

    def largest(self) -> float:
        return max(map(abs, self.values))

    def norm_error(self) -> float:
        return _TERM_ERROR * math.hypot(*self.terms)

    def largest_error(self) -> float:
        return _TERM_ERROR * max(self.terms)


def _closed_form(
    certificate: DualCertificate, weights: SkeletonBlocks
) -> tuple[CertificateResiduals, CertificateResiduals]:
    """The residuals of ``verify_certificate`` and, field by field, a bound
    on their distance from the O(m) evaluation's
    (``reference.verify_vector_certificate``).

    Rows are counted from each arm's leaf, ``0 .. m - 1``, and orbits
    ``1 .. m``.  An interior row or orbit, whose weights are all 1/2,
    satisfies its relation exactly for any theta: the center's rows ``(z(p
    - 1) + z(p + 1)) / 2 + s z(p) = 0`` for the alternating chain, the
    arms' ``(z(p - 1) + z(p + 1)) / 2 - s z(p) = 0``, and the recurrences
    alike; the proportionality law and each interior orbit's trace
    mismatch are one number for every orbit, times the orbit's
    ``sin^2``.  The leaf rows and orbits satisfy the relations too, with
    ``sin 0 = 0``; they are evaluated anyway, as are the boundary rows
    and orbits and the center, where the boundary weights and the root
    enter.

    Error: a term of a residual has a rounding error of at most
    ``_TERM_ERROR`` times its magnitude, so a row evaluated here is within
    that, over its terms' magnitudes, of its exact value.  The interior
    rows' float values are at most as much, which the closed form bounds
    by the largest entries (max residuals) or by three times the vector's
    norm (norm residuals: each entry enters three rows), and adds to the
    residual: a max residual takes the larger of its rows and that bound,
    a norm residual their ``hypot``.  The O(m) evaluation's rows carry the
    same errors, except where it forms an entry by a difference that
    cancels: each entry of z2 is a difference of two neighbouring +s
    chain values, so its error is ``_TERM_ERROR`` times theirs, which the
    bounds on its slackness and trace rows take from the chain's norm and
    largest value.  Sums over all rows (the norms, ``v . z1``) have the
    summation's error besides, ``log2`` of the rows times the unit
    roundoff over the magnitudes summed.
    """
    params, s, gap = certificate.params, certificate.s, certificate.gap
    if weights.params != params:
        raise MissingOrbitWeightError(f"weights for {weights.params} do not fit {params}")
    t1, t2 = certificate.t1, certificate.t2
    lengths, counts = (params.m1, params.m2), (params.n1, params.n2)
    # each arm's entries at the two rows at either end, and its chain at
    # the two orbits at either end, each evaluated once
    ends = [{row for row in (0, 1, m - 2, m - 1) if 0 <= row < m} for m in lengths]
    z1 = [{row: certificate.z1(arm, row) for row in rows} for arm, rows in enumerate(ends)]
    z2 = [{row: certificate.z2(arm, row) for row in rows} for arm, rows in enumerate(ends)]
    sines = [
        {k: certificate.sine(arm, k) for k in {1, 2, m - 1, m} if 1 <= k <= m}
        for arm, m in enumerate(lengths)
    ]

    boundary = (weights.w_minus_1, weights.w_plus_1)
    d, off = weights.rows
    # each arm's leaf and boundary diagonal and its coupling to the center
    leaf, adjacent, coupling = (d[0], d[4]), (d[1], d[3]), (off[1], off[2])
    zc = certificate.center * t1
    summation = (math.log2(params.m1 + params.m2 + 1) + 1.0) * _UNIT
    norm_z1, norm_z2 = math.sqrt(0.5 * gap), math.cos(0.5 * certificate.theta)
    # the chains grow towards the center, as m theta <= pi/2: their largest
    # values, without t1 or t2, and a bound on their norm
    lasts = [abs(sines[arm][m]) for arm, m in enumerate(lengths)]
    largest = max(lasts)
    chain_norm = t2 * math.hypot(*(
        last * math.sqrt(m) for last, m in zip(lasts, lengths)
    ))
    # whether an arm has interior rows, between its leaf and boundary rows
    inner = max(lengths) > 2

    # v . z1 telescopes: each arm's entries sum to its last -s chain entry
    # over -+sqrt(2) (times t1), and v is sqrt(n) / sqrt(N) on the arm
    norm_v = math.sqrt(params.n_nodes)
    sums = [
        _last_entry(params, arm, certificate.ratio, certificate.theta) / _SQRT2 * t1
        for arm in (0, 1)
    ]
    perron_dot = ((zc - sums[0]) + sums[1]) / norm_v
    perron_error = (_TERM_ERROR + summation) * (
        (abs(zc) + abs(sums[0]) + abs(sums[1])) / norm_v + norm_z1
    )

    center, arms = _Rows(), _Rows()
    for arm, (m, a_leaf, a_adjacent, c_center) in enumerate(
        zip(lengths, leaf, adjacent, coupling)
    ):
        v = math.sqrt(counts[arm]) / norm_v
        arm1, arm2 = z1[arm], z2[arm]
        for row in sorted({0, m - 1}):
            a = a_adjacent if row == m - 1 else a_leaf
            inward1 = 0.5 * arm1[row - 1] if row else 0.0
            inward2 = 0.5 * arm2[row - 1] if row else 0.0
            if row == m - 1:
                outward1, outward2 = c_center * zc, 0.0
            else:
                outward1, outward2 = 0.5 * arm1[row + 1], 0.5 * arm2[row + 1]
            value1, value2 = arm1[row], arm2[row]
            center.add(a * value1, outward1, inward1, s * value1, -perron_dot * v)
            arms.add(s * value2, -a * value2, -outward2, -inward2)
    center.add(
        d[2] * zc, coupling[0] * z1[0][params.m1 - 1],
        coupling[1] * z1[1][params.m2 - 1], s * zc, -perron_dot / norm_v,
    )
    interior_center = abs(perron_dot) + perron_error
    if inner:
        interior_center += 3.0 * _TERM_ERROR * norm_z1
    interior_arms = 3.0 * _TERM_ERROR * norm_z2 if inner else 0.0
    # z2's entries as the O(m) route forms them, each with an error of at
    # most _TERM_ERROR times two chain values over sqrt(2), in every row
    z2_error = 3.0 * _SQRT2 * _TERM_ERROR * chain_norm

    # the three-term relations of the hatted chains at each arm's leaf and
    # boundary orbit; the -s system couples the arms' boundary orbits
    # through the center with strength sqrt(n1 n2), the +s system not at
    # all, and its boundary diagonal carries (n + 1) w, the other's w
    hatted = [
        {k: (sine if k % 2 else -sine) * t1 for k, sine in arm.items()} for arm in sines
    ]
    primed_chains = [{k: sine * t2 for k, sine in arm.items()} for arm in sines]
    recurrences = []
    for primed, base, cross, chain in (
        (False, 1.0 + s, _cross(params), hatted), (True, gap, 0.0, primed_chains)
    ):
        orbits = _Rows()
        for arm, (m, n, w_b) in enumerate(zip(lengths, counts, boundary)):
            for k in sorted({1, m}):
                w = w_b if k == m else 0.5
                factor = (1.0 if primed else n + 1.0) if k == m else 2.0
                terms = [(base - factor * w) * chain[arm][k]]
                if k > 1:
                    terms.append(w * chain[arm][k - 1])
                if k < m:
                    terms.append(w * chain[arm][k + 1])
                else:
                    other = 1 - arm
                    terms.append(cross * w * chain[other][lengths[other]])
                orbits.add(*terms)
        # an interior orbit's terms are at most twice the largest value
        interior = 2.0 * _TERM_ERROR * largest * (t2 if primed else t1) if inner else 0.0
        recurrences.append(
            (max(orbits.largest(), interior), 2.0 * (orbits.largest_error() + interior))
        )

    # trace matching at the boundary orbits, whose z1 stencils reach the
    # center, as (lo, hi) on the rows (m1 - 1, center) and (center, m1 + 1)
    traces = _Rows()
    for arm, (m, n) in enumerate(zip(lengths, counts)):
        scale = 1.0 / math.sqrt(n + 1.0)
        if arm == 0:
            dot = -scale * z1[0][m - 1] + math.sqrt(n) * scale * zc
        else:
            dot = -math.sqrt(n) * scale * zc + scale * z1[1][m - 1]
        traces.add(dot * dot * (n + 1.0), -z2[arm][m - 1] ** 2)
    # an interior orbit k has (t1 (1 + s) sin(k theta))^2 against (t2 gap
    # sin(k theta))^2, and its stencils read the rows k - 1 and k, where z1
    # grows towards the center and z2 falls
    lhs, rhs = (t1 * (1.0 + s)) ** 2, (t2 * gap) ** 2
    # the proportionality law's relative gap |a^2 - b^2| / max(a, b)^2 as
    # (1 - r)(1 + r) for r = min / max, which no underflow of a square
    # makes 0 / 0
    sides = sorted([abs(t1 * (1.0 + s)), abs(t2 * gap)])
    ratio = sides[0] / sides[1] if sides[1] else 1.0
    interior_trace = interior_trace_error = 0.0
    for arm, m in enumerate(lengths):
        if m > 1:
            interior_trace = max(interior_trace, sines[arm][m - 1] ** 2 * abs(lhs - rhs))
            reach = (abs(z1[arm][m - 1]) + abs(z1[arm][m - 2])) ** 2
            reach += (2.0 * abs(z2[arm][0])) ** 2
            interior_trace_error = max(interior_trace_error, _TERM_ERROR * reach)
    # the O(m) route's z2 stencil products, each off by twice an entry's
    # error, of at most 2 sqrt(2) |z2| in magnitude
    chain_error = 2.0 * _TERM_ERROR * largest * t2
    z2_reach = 2.0 * _SQRT2 * max(abs(z2[arm][0]) for arm in (0, 1))
    trace_z2_error = 2.0 * z2_reach * chain_error + chain_error**2

    norm1 = (t1 * certificate.norm1) ** 2
    norm2 = (t2 * certificate.norm2) ** 2
    norm_error = (_TERM_ERROR + summation) * (norm1 + norm2)
    # the center's lowest eigenvalue and the arms' top
    report = weights.report(s)
    residuals = CertificateResiduals(
        slackness_center=math.hypot(center.norm(), interior_center),
        slackness_arms=math.hypot(arms.norm(), interior_arms),
        perron_orthogonality=abs(perron_dot),
        norm_sum_error=abs(norm1 + norm2 - 1.0),
        norm_split_error=abs(norm2 - norm1 - s),
        trace_mismatch=max(traces.largest(), interior_trace + interior_trace_error),
        feasibility_min_eig=min(s + min(0.0, report.lambda_min), s - report.lambda2),
        recurrence=recurrences[0][0],
        recurrence_prime=recurrences[1][0],
        proportionality_rel=(1.0 - ratio) * (1.0 + ratio) + _TERM_ERROR,
        duality_gap=s + norm1 - perron_dot**2 - norm2,
    )
    errors = CertificateResiduals(
        slackness_center=2.0 * (center.norm_error() + interior_center),
        slackness_arms=2.0 * (arms.norm_error() + interior_arms) + z2_error,
        perron_orthogonality=perron_error,
        norm_sum_error=norm_error,
        norm_split_error=norm_error,
        trace_mismatch=2.0 * (traces.largest_error() + interior_trace_error)
        + trace_z2_error,
        feasibility_min_eig=_TERM_ERROR * (1.0 + 3.0 * max(map(abs, d + off))),
        recurrence=recurrences[0][1],
        recurrence_prime=recurrences[1][1],
        proportionality_rel=4.0 * _TERM_ERROR,
        duality_gap=norm_error + (2.0 * abs(perron_dot) + perron_error) * perron_error,
    )
    return residuals, errors


def verify_certificate(
    certificate: DualCertificate, weights: SkeletonBlocks
) -> CertificateResiduals:
    """Evaluate every certificate condition against the given weights.

    ``weights`` are the optimum's (``OptimalSolution.skeleton``), or others
    whose interior orbits all weigh 1/2, by their boundary weights.  At
    the optimal weights all residuals sit at rounding level and the two
    feasibility matrices ``s I + C - v v^T`` (C the central block, v its
    Perron vector) and ``s I - arms`` are positive semidefinite; a move of
    a boundary weight shows up in the slackness and recurrence residuals.
    Every condition costs O(1) in the branch lengths (``_closed_form``);
    both smallest feasibility eigenvalues are the skeleton's reads of the
    center's lowest and the arms' top at ``-+s``, which a report on the
    same weights has already made.
    """
    return _closed_form(certificate, weights)[0]
