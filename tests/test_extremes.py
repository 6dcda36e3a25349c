"""Extreme network shapes: optimum, certificate and a high-precision oracle.

Every valid shape must return a self-checked optimum whose certificate
passes, or raise a typed error.  The oracle, ``reference.mp_theta_star``
and ``reference.mp_boundary_weight``, finds theta* and both boundary
weights in mpmath, outside numpy and LAPACK.
"""

import json
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from fusedstar.certificate import build_dual_certificate, verify_certificate
from fusedstar.cli import _sig10, main
from fusedstar.optimizer import SelfCheckError, optimal_weights, optimal_weights_batch
from fusedstar.reference import (
    block_extremes,
    build_blocks,
    metropolis_orbit_weights,
    mp_boundary_weight,
    mp_theta_star,
)
from fusedstar.topology import TfsParams


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: max(low, min(high, round(math.exp(x))))
    )


def certified(params):
    sol = optimal_weights(params)
    res = verify_certificate(build_dual_certificate(sol), sol.skeleton)
    return sol, res


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
)
@given(
    m1=log_uniform(1, 10**5),
    n1=log_uniform(2, 10**15),
    m2=log_uniform(1, 10**5),
    n2=log_uniform(2, 10**15),
)
def test_random_shapes_certify_or_raise_typed_error(m1, n1, m2, n2):
    params = TfsParams(m1, n1, m2, n2)
    try:
        sol, res = certified(params)
    except SelfCheckError:
        return
    assert 0 < sol.theta_star < math.pi / (2 * max(m1, m2))
    assert res.passes(), (params, res.as_dict())


# shapes whose certificate cancelled at small theta*, and one whose
# boundary weight did
NAMED_SHAPES = [
    (1, 10**12, 1, 2),
    (10**5, 2, 1, 2),
    (1, 10**18, 2, 10**18),
    (2646, 257245, 1, 964),
    (199, 2196315, 1, 9),
    (2, 10**300, 2, 2),
]


@pytest.mark.parametrize("params", NAMED_SHAPES)
def test_named_extreme_shapes_certify(params):
    _, res = certified(TfsParams(*params))
    assert res.passes(), res.as_dict()


def weight_tolerance(m, theta):
    """Relative error bound of the boundary weight at a float angle.

    The arguments m theta and (m - 1/2) theta carry rounding errors of
    about one ulp; near m theta = pi/2 the denominator cos((m - 1/2) theta)
    is small and magnifies them.
    """
    x = m * theta
    kappa = 1.0 + x * (abs(math.tan(x - 0.5 * theta)) + 1.0 / abs(math.tan(x)))
    return 8.0 * 2.0**-52 * kappa


# the shapes held to the 50-digit oracle
ORACLE_SHAPES = [
    (3, 4, 4, 3),
    (1, 2, 1, 2),
    (2000, 2, 1, 2),
    (1, 10**12, 1, 2),
    (1, 10**18, 2, 10**18),
    (2646, 257245, 1, 964),
    (199, 2196315, 1, 9),
    (50, 10**7, 60, 10**7),
    (2, 10**300, 2, 2),
    (7, 3, 900, 10**9),
]


@pytest.mark.parametrize("params", ORACLE_SHAPES)
def test_mpmath_oracle(params):
    # theta* against the 50-digit root; the weights against 50-digit values
    # at the same float theta*, so that only their own rounding is measured
    p = TfsParams(*params)
    sol = optimal_weights(p)
    theta = sol.theta_star
    with mpmath.workdps(50):
        root = mp_theta_star(p)
        w_minus = mp_boundary_weight(p.m1, mpmath.mpf(theta))
        w_plus = mp_boundary_weight(p.m2, mpmath.mpf(theta))
    assert theta == pytest.approx(float(root), rel=1e-15, abs=0)
    assert sol.weights[-1] == pytest.approx(
        float(w_minus), rel=weight_tolerance(p.m1, theta), abs=0
    )
    assert sol.weights[1] == pytest.approx(
        float(w_plus), rel=weight_tolerance(p.m2, theta), abs=0
    )


@pytest.mark.parametrize(
    "params", ORACLE_SHAPES + [(10**5, 2, 2, 2)], ids=str
)
def test_gap_is_two_squared_half_sines_to_four_ulps(params):
    # 1 - s cancels at small theta*: at (1, 10^12, 1, 2) it is off by a
    # relative 2.2e-5; the gap is held to the 50-digit 2 sin^2(theta*/2) at
    # the returned theta*, on both routes, and the batch's is the single
    # solve's bit for bit
    p = TfsParams(*params)
    sol = optimal_weights(p)
    with mpmath.workdps(50):
        exact = float(2 * mpmath.sin(mpmath.mpf(sol.theta_star) / 2) ** 2)
    assert abs(sol.gap - exact) <= 4 * math.ulp(exact), (sol.gap, exact)
    batch = optimal_weights_batch(*params)
    assert batch.theta_star == sol.theta_star
    assert float(batch.gap).hex() == sol.gap.hex()
    with pytest.raises(ValueError):
        batch.gap[...] = 0.0


def test_lambda_min_far_below_the_norm_keeps_its_digits(capsys):
    # under Metropolis weights at (1, 10^12, 1, 2) the central block's
    # lowest eigenvalue is about -1e-12 beside two eigenvalues near 1;
    # np.linalg.eigvalsh alone finds it to a few eps ||T|| (2.2e-5 off),
    # so the dense route confirms or bisects it on counts
    p = TfsParams(1, 10**12, 1, 2)
    blocks = build_blocks(p, metropolis_orbit_weights(p))
    with mpmath.workdps(60):
        dense = mpmath.matrix(blocks.center.dense().tolist())
        lowest = float(min(mpmath.eigsy(dense, eigvals_only=True)))
    lambda_min = block_extremes(blocks).lambda_min
    assert lambda_min == pytest.approx(lowest, rel=1e-12, abs=0)
    assert main(
        ["solve", "--m1", "1", "--n1", str(10**12), "--m2", "1", "--n2", "2",
         "--scheme", "metropolis"]
    ) == 0
    assert json.loads(capsys.readouterr().out)["lambda_min"] == _sig10(lowest)
