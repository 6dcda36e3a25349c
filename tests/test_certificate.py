"""Dual certificate construction and residual verification.

The product's certificate is closed-form (``fusedstar.certificate``); the
tests of the vectors themselves, and of weights whose interior orbits are
not all 1/2, run on the O(m) certificate that ``fusedstar.reference``
writes out, the product's oracle (``tests/test_closed_certificate.py``
holds the two to each other).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fusedstar.certificate import build_dual_certificate, verify_certificate
from fusedstar.optimizer import _char_values, optimal_weights
from fusedstar.reference import (
    _recurrence_residual,
    alpha_vectors,
    build_vector_certificate,
    stencil_gram_matrices,
    verify_vector_certificate,
)
from fusedstar.spectral import SkeletonBlocks, build_blocks, perron_vector
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights


def random_weights(params, seed):
    rng = np.random.default_rng(seed)
    return OrbitWeights.from_labels(
        params, {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
    )


def reconstruct_center_block(params, weights, alpha):
    size = params.m1 + params.m2 + 1
    total = np.eye(size)
    for label in params.orbit_labels:
        a = alpha[label]
        if label == -1:
            coeff = (params.n1 + 1) * weights[label]
        elif label == 1:
            coeff = (params.n2 + 1) * weights[label]
        else:
            coeff = 2 * weights[label]
        total -= coeff * np.outer(a, a)
    return total


def reconstruct_arm_block(params, weights, alpha_prime):
    size = params.m1 + params.m2
    total = np.eye(size)
    for label in params.orbit_labels:
        a = alpha_prime[label]
        coeff = (2 if abs(label) >= 2 else 1) * weights[label]
        total -= coeff * np.outer(a, a)
    return total


@pytest.mark.parametrize("params", [(2, 2, 2, 2), (3, 4, 4, 3), (1, 3, 4, 2)])
def test_rank_one_reconstruction(params):
    p = TfsParams(*params)
    ow = random_weights(p, sum(params))
    alpha, alpha_prime = alpha_vectors(p)
    blocks = build_blocks(p, ow)

    center = reconstruct_center_block(p, ow, alpha)
    assert np.max(np.abs(center - blocks.center.dense())) <= 1e-12

    arms = np.zeros((p.m1 + p.m2, p.m1 + p.m2))
    arms[: p.m1, : p.m1] = blocks.minus.dense()
    arms[p.m1 :, p.m1 :] = blocks.plus.dense()
    rebuilt = reconstruct_arm_block(p, ow, alpha_prime)
    assert np.max(np.abs(rebuilt - arms)) <= 1e-12


@pytest.mark.parametrize("params", [(2, 2, 2, 2), (3, 4, 4, 3), (2, 5, 3, 2)])
def test_gram_matrices_match_stencils(params):
    p = TfsParams(*params)
    alpha, alpha_prime = alpha_vectors(p)
    G, G_prime = stencil_gram_matrices(p)
    labels = list(p.orbit_labels)
    for row, i in enumerate(labels):
        for col, j in enumerate(labels):
            assert G[row, col] == pytest.approx(
                float(alpha[i] @ alpha[j]), abs=1e-14
            )
            assert G_prime[row, col] == pytest.approx(
                float(alpha_prime[i] @ alpha_prime[j]), abs=1e-14
            )


def test_alpha_norms():
    p = TfsParams(3, 4, 2, 5)
    alpha, alpha_prime = alpha_vectors(p)
    for label in p.orbit_labels:
        assert np.linalg.norm(alpha[label]) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(alpha_prime[label]) == pytest.approx(1.0, abs=1e-14)


# (50, 10^7, 60, 10^7): s = cos(theta*) is within 2e-9 of 1, where 1 - s
# formed by subtraction put proportionality_rel at 2.3e-8
@pytest.mark.parametrize(
    "params",
    [(2, 2, 2, 2), (3, 4, 4, 3), (10, 20, 20, 10), (50, 10**7, 60, 10**7)],
)
def test_certificate_residuals_at_optimum(params):
    sol = optimal_weights(TfsParams(*params))
    cert = build_dual_certificate(sol)
    res = verify_certificate(cert, sol.skeleton)
    assert res.slackness_center <= 1e-8
    assert res.slackness_arms <= 1e-8
    assert res.perron_orthogonality <= 1e-8
    assert res.norm_sum_error <= 1e-8
    assert res.norm_split_error <= 1e-8
    assert res.trace_mismatch <= 1e-8
    assert res.feasibility_min_eig >= -1e-10
    assert res.recurrence <= 1e-10
    assert res.recurrence_prime <= 1e-10
    assert res.proportionality_rel <= 1e-9
    assert abs(res.duality_gap) <= 1e-8
    assert res.passes()


def test_certificate_norm_split():
    sol = optimal_weights(TfsParams(3, 4, 4, 3))
    cert = build_vector_certificate(sol)
    s = sol.s
    assert float(cert.z1 @ cert.z1) == pytest.approx((1 - s) / 2, abs=1e-12)
    assert float(cert.z2 @ cert.z2) == pytest.approx((1 + s) / 2, abs=1e-12)


def test_certificate_z_expansion():
    # z1 and z2 are exactly the stencil expansions of their coefficients,
    # also with single-stratum arms
    for params in [(2, 3, 3, 2), (1, 3, 3, 2), (2, 3, 1, 2), (1, 2, 1, 2)]:
        p = TfsParams(*params)
        sol = optimal_weights(p)
        cert = build_vector_certificate(sol)
        alpha, alpha_prime = alpha_vectors(p)
        z1 = sum(c * alpha[i] for c, i in zip(cert.coeffs, p.orbit_labels))
        z2 = sum(
            c * alpha_prime[i] for c, i in zip(cert.coeffs_prime, p.orbit_labels)
        )
        assert np.max(np.abs(z1 - cert.z1)) <= 1e-12, params
        assert np.max(np.abs(z2 - cert.z2)) <= 1e-12, params


def test_chain_ratios_are_reciprocal_at_optimum():
    # the arm ratio takes a1 = 1/a2, which holds exactly where
    # a1 a2 - 1 = 0, the characteristic relation: at theta* it must vanish
    # to within a few ulps of theta* times its slope, and a thousandth away
    # it must not
    for params in ((3, 4, 4, 3), (2, 3, 4, 5), (10, 20, 20, 10)):
        p = TfsParams(*params)
        theta = optimal_weights(p).theta_star
        h = 1e-6
        slope = abs(_char_values(p, theta + h) - _char_values(p, theta - h)) / (2 * h)
        assert abs(_char_values(p, theta)) <= 4 * math.ulp(theta) * slope
        for off in (-1e-3, 1e-3):
            assert abs(_char_values(p, theta + off)) >= 0.5 * slope * 1e-3


def test_mirror_symmetric_chain():
    sol = optimal_weights(TfsParams(3, 4, 3, 4))
    cert = build_vector_certificate(sol)
    assert abs(cert.coeffs[-1]) == pytest.approx(abs(cert.coeffs[0]), rel=1e-9)


def test_perturbed_weights_fail_verification():
    sol = optimal_weights(TfsParams(3, 4, 4, 3))
    cert = build_dual_certificate(sol)
    shifted = SkeletonBlocks(sol.params, sol.w_minus_1 + 0.01, sol.w_plus_1)
    res = verify_certificate(cert, shifted)
    worst = max(
        res.slackness_center,
        res.slackness_arms,
        res.recurrence,
        res.recurrence_prime,
        -res.feasibility_min_eig,
    )
    assert worst > 1e-4
    assert not res.passes()


def test_residual_report_dict():
    sol = optimal_weights(TfsParams(2, 2, 2, 2))
    res = verify_certificate(build_dual_certificate(sol), sol.skeleton)
    d = res.as_dict()
    assert set(d) == {
        "slackness_center",
        "slackness_arms",
        "perron_orthogonality",
        "norm_sum_error",
        "norm_split_error",
        "trace_mismatch",
        "feasibility_min_eig",
        "recurrence",
        "recurrence_prime",
        "proportionality_rel",
        "duality_gap",
    }
    assert all(isinstance(v, float) for v in d.values())


def test_certificate_immutability():
    sol = optimal_weights(TfsParams(2, 2, 2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        build_dual_certificate(sol).t1 = 0.0
    cert = build_vector_certificate(sol)
    with pytest.raises(ValueError):
        cert.coeffs[-1] = 0.0
    with pytest.raises(ValueError):
        cert.z1[0] = 0.0
    # every other stored array and every derived chain
    for name in ("sines", "z2", "coeffs_prime", "coeffs_hat", "coeffs_hat_prime"):
        with pytest.raises(ValueError):
            getattr(cert, name)[0] = 0.0


# shapes for the dense-oracle checks, with single-stratum arms among them
ORACLE_SHAPES = [
    (2, 2, 2, 2),
    (3, 4, 4, 3),
    (1, 2, 1, 2),
    (1, 3, 4, 2),
    (5, 2, 1, 3),
    (1, 10**6, 1, 3),
    (7, 2, 3, 20),
    (1, 2, 30, 5),
    (30, 5, 2, 9),
    (10, 20, 20, 10),
]


def oracle_weightings(sol, seed):
    shifted = []
    for delta in (1e-3, -1e-3):
        w = {label: sol.weights[label] for label in sol.params.orbit_labels}
        w[-1] += delta
        shifted.append(OrbitWeights.from_labels(sol.params, w))
    return [sol.weights, *shifted, random_weights(sol.params, seed)]


def dense_feasibility_residuals(cert, weights):
    """Slackness and feasibility from the dense matrices s I + C - v v^T
    and s I - arms."""
    p, s = cert.params, cert.s
    blocks = build_blocks(p, weights)
    v = perron_vector(p)
    feas_center = s * np.eye(p.m1 + p.m2 + 1) + blocks.center.dense()
    feas_center -= np.outer(v, v)
    arms = np.zeros((p.m1 + p.m2, p.m1 + p.m2))
    arms[: p.m1, : p.m1] = blocks.minus.dense()
    arms[p.m1 :, p.m1 :] = blocks.plus.dense()
    feas_arms = s * np.eye(p.m1 + p.m2) - arms
    return {
        "slackness_center": float(np.linalg.norm(feas_center @ cert.z1)),
        "slackness_arms": float(np.linalg.norm(feas_arms @ cert.z2)),
        "feasibility_min_eig": float(
            min(
                np.linalg.eigvalsh(feas_center)[0],
                np.linalg.eigvalsh(feas_arms)[0],
            )
        ),
    }


@pytest.mark.parametrize("params", ORACLE_SHAPES)
def test_feasibility_and_slackness_match_dense_matrices(params):
    sol = optimal_weights(TfsParams(*params))
    cert = build_vector_certificate(sol)
    for index, weights in enumerate(oracle_weightings(sol, sum(params))):
        res = verify_vector_certificate(cert, weights)
        dense = dense_feasibility_residuals(cert, weights)
        assert res.feasibility_min_eig == pytest.approx(
            dense["feasibility_min_eig"], rel=4 * np.finfo(float).eps, abs=1e-12
        ), index
        for name in ("slackness_center", "slackness_arms"):
            assert getattr(res, name) == pytest.approx(
                dense[name], rel=1e-12, abs=1e-14
            ), (index, name)
        assert dataclasses.replace(res, **dense).passes() == res.passes()


def loop_recurrence_residual(params, weights, chain, s, gap, primed):
    # label-by-label form of the three-term chain relations
    labels = params.orbit_labels
    base = gap if primed else (1.0 + s)
    cross = 0.0 if primed else math.sqrt(params.n1 * params.n2)
    worst = 0.0
    for k, i in enumerate(labels):
        w = weights[i]
        if i == -1:
            diag = base - (1.0 if primed else params.n1 + 1.0) * w
        elif i == 1:
            diag = base - (1.0 if primed else params.n2 + 1.0) * w
        else:
            diag = base - 2.0 * w
        acc = diag * chain[k]
        for nbr in (k - 1 if k else None,
                    k + 1 if k < len(labels) - 1 else None):
            if nbr is None:
                continue
            coupling = cross if {i, labels[nbr]} == {-1, 1} else 1.0
            acc += coupling * w * chain[nbr]
        worst = max(worst, abs(acc))
    return worst


def loop_trace_mismatch(cert):
    p = cert.params
    alpha, alpha_prime = alpha_vectors(p)
    worst = 0.0
    for i in p.orbit_labels:
        factor = {-1: p.n1 + 1.0, 1: p.n2 + 1.0}.get(i, 1.0)
        lhs = factor * float(alpha[i] @ cert.z1) ** 2
        rhs = float(alpha_prime[i] @ cert.z2) ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("params", ORACLE_SHAPES)
def test_recurrence_and_trace_match_stencil_loops(params):
    p = TfsParams(*params)
    sol = optimal_weights(p)
    cert = build_vector_certificate(sol)
    assert verify_vector_certificate(cert, sol.weights).trace_mismatch == (
        pytest.approx(loop_trace_mismatch(cert), rel=1e-12, abs=1e-16)
    )
    for weights in oracle_weightings(sol, sum(params)):
        w = weights.values_for(p)
        for chain, primed in (
            (cert.coeffs_hat, False), (cert.coeffs_hat_prime, True)
        ):
            assert _recurrence_residual(
                p, w, chain, cert.s, cert.gap, primed
            ) == loop_recurrence_residual(p, weights, chain, cert.s, cert.gap, primed)


def test_certificate_at_long_arms_runs_in_small_memory():
    # the dense feasibility matrices alone would take 2 * 8 * 6001^2 bytes,
    # about 576 MB
    tracemalloc.start()
    try:
        sol = optimal_weights(TfsParams(3000, 5, 3000, 7))
        res = verify_vector_certificate(build_vector_certificate(sol), sol.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passes()
    assert peak <= 16 * 10**6


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificate_memory_in_orbit_vectors():
    # building and verifying each peak within 8 float vectors of the
    # m1 + m2 orbits, the solution's own weights verified
    p = TfsParams(10**5, 3, 10**5, 4)
    sol = optimal_weights(p)
    vector = 8 * (p.m1 + p.m2)
    weights = sol.weights
    cert, build_peak = traced_peak(lambda: build_vector_certificate(sol))
    res, verify_peak = traced_peak(lambda: verify_vector_certificate(cert, weights))
    assert res.passes()
    assert build_peak <= 8 * vector, build_peak / vector
    assert verify_peak <= 8 * vector, verify_peak / vector
