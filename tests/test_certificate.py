"""Dual certificate construction and residual verification."""

import math

import numpy as np
import pytest

from fusedstar.certificate import (
    DualCertificate,
    alpha_vectors,
    build_dual_certificate,
    stencil_gram_matrices,
    verify_certificate,
    _chain_ratio,
)
from fusedstar.optimizer import optimal_weights
from fusedstar.spectral import build_blocks
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights


def random_weights(params, seed):
    rng = np.random.default_rng(seed)
    return OrbitWeights(
        {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
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
    assert np.max(np.abs(center - blocks.block_center)) <= 1e-12

    arms = np.zeros((p.m1 + p.m2, p.m1 + p.m2))
    arms[: p.m1, : p.m1] = blocks.block_minus
    arms[p.m1 :, p.m1 :] = blocks.block_plus
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
    res = verify_certificate(cert, sol.weights)
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
    cert = build_dual_certificate(sol)
    s = sol.s
    assert float(cert.z1 @ cert.z1) == pytest.approx((1 - s) / 2, abs=1e-12)
    assert float(cert.z2 @ cert.z2) == pytest.approx((1 + s) / 2, abs=1e-12)


def test_certificate_z_expansion():
    # z1 and z2 are exactly the stencil expansions of their coefficients
    p = TfsParams(2, 3, 3, 2)
    sol = optimal_weights(p)
    cert = build_dual_certificate(sol)
    alpha, alpha_prime = alpha_vectors(p)
    z1 = sum(cert.coeffs[i] * alpha[i] for i in p.orbit_labels)
    z2 = sum(cert.coeffs_prime[i] * alpha_prime[i] for i in p.orbit_labels)
    assert np.max(np.abs(z1 - cert.z1)) <= 1e-12
    assert np.max(np.abs(z2 - cert.z2)) <= 1e-12


def test_chain_ratios_are_reciprocal_at_optimum():
    # the characteristic relation is exactly the statement that the two
    # boundary-ratio formulas are mutually consistent
    p = TfsParams(3, 4, 4, 3)
    sol = optimal_weights(p)
    psi = math.pi - sol.theta_star
    forward = _chain_ratio(p, sol.s, psi)
    backward = _chain_ratio(p.swap(), sol.s, psi)
    assert forward * backward == pytest.approx(1.0, abs=1e-9)


def test_mirror_symmetric_chain():
    sol = optimal_weights(TfsParams(3, 4, 3, 4))
    cert = build_dual_certificate(sol)
    assert abs(cert.coeffs[3]) == pytest.approx(abs(cert.coeffs[-3]), rel=1e-9)


def test_perturbed_weights_fail_verification():
    sol = optimal_weights(TfsParams(3, 4, 4, 3))
    cert = build_dual_certificate(sol)
    shifted = dict(sol.weights.w)
    shifted[-1] += 0.01
    res = verify_certificate(cert, OrbitWeights(shifted))
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
    res = verify_certificate(build_dual_certificate(sol), sol.weights)
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
    cert = build_dual_certificate(sol)
    with pytest.raises(TypeError):
        cert.coeffs[-1] = 0.0
    with pytest.raises(ValueError):
        cert.z1[0] = 0.0
