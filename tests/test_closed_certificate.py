"""The closed-form certificate against the O(m) one it replaces.

``certificate.build_dual_certificate`` and ``verify_certificate`` read
the optimum's few numbers; ``reference.build_vector_certificate`` and
``verify_vector_certificate`` write every vector out.  Each closed-form
residual must lie within its derived rounding-error bound
(``certificate._closed_form``) of the O(m) residual, and both routes must
reach the same verdict: at the optimum, where both pass, and with
``w_-1`` moved by 1e-3 either way.  The closed forms cost O(1) in the
branch lengths, which the memory and time gates hold at 1e7 and 1e9
rows.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from test_extremes import NAMED_SHAPES, ORACLE_SHAPES

from fusedstar.certificate import (
    _closed_form,
    build_dual_certificate,
    verify_certificate,
)
from fusedstar.optimizer import SelfCheckError, optimal_weights
from fusedstar.reference import build_vector_certificate, verify_vector_certificate
from fusedstar.spectral import SkeletonBlocks
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights

MOVES = (0.0, 1e-3, -1e-3)


def seeded_shapes(count, seed):
    # log-uniform arms up to 10^4 rows and branch counts up to 10^6
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(0.0, math.log(1e4), (count, 2))).round().astype(int)
    n = np.exp(rng.uniform(math.log(2), math.log(1e6), (count, 2))).round().astype(int)
    return [TfsParams(int(a), int(b), int(c), int(d)) for (a, c), (b, d) in zip(m, n)]


def assert_closed_form_is_the_reference(params):
    try:
        solution = optimal_weights(params)
    except SelfCheckError:
        return 0
    closed = build_dual_certificate(solution)
    vectors = build_vector_certificate(solution)
    for move in MOVES:
        w_minus = solution.w_minus_1 + move
        skeleton = (
            solution.skeleton if move == 0.0
            else SkeletonBlocks(params, w_minus, solution.w_plus_1)
        )
        residuals, bounds = _closed_form(closed, skeleton)
        values = solution.weights.values.copy()
        values[params.m1 - 1] = w_minus
        oracle = verify_vector_certificate(vectors, OrbitWeights(params, values))
        for name, value in residuals.as_dict().items():
            distance = abs(value - getattr(oracle, name))
            assert distance <= getattr(bounds, name), (params, move, name)
        assert residuals.passes() == oracle.passes(), (params, move)
        if move == 0.0:
            assert residuals.passes(), (params, residuals.as_dict())
    return 1


@pytest.mark.parametrize("shape", sorted(set(ORACLE_SHAPES + NAMED_SHAPES)), ids=str)
def test_closed_form_residuals_are_the_reference_on_extreme_shapes(shape):
    assert assert_closed_form_is_the_reference(TfsParams(*shape))


def test_closed_form_residuals_are_the_reference_on_a_seeded_sample():
    checked = sum(map(assert_closed_form_is_the_reference, seeded_shapes(2000, 21)))
    assert checked >= 1990


def test_verify_reads_the_skeletons_reports():
    # the feasibility extremes are the skeleton's reads, which the solve
    # report made already: no further count runs
    solution = optimal_weights(TfsParams(450, 5, 400, 3))
    report = solution.skeleton.report(solution.s)
    counted = [len(block.counted) for block in (
        solution.skeleton.center, solution.skeleton.minus, solution.skeleton.plus
    )]
    residuals = verify_certificate(build_dual_certificate(solution), solution.skeleton)
    assert residuals.feasibility_min_eig == min(
        solution.s + min(0.0, report.lambda_min), solution.s - report.lambda2
    )
    assert counted == [len(block.counted) for block in (
        solution.skeleton.center, solution.skeleton.minus, solution.skeleton.plus
    )]


def traced(call):
    """``call``'s result, its tracemalloc peak in bytes and its best wall
    time in seconds over five calls (the first traced)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return result, peak, best


@pytest.mark.parametrize("m", [10**7, 10**9], ids=["1e7", "1e9"])
def test_the_optimum_and_its_certificate_cost_nothing_in_the_lengths(m):
    # at m = 10^7 the O(m) routes took 649 MiB (the solve) and 1392 MiB
    # (the certificate)
    params = TfsParams(m, 3, m, 4)
    solution, peak, seconds = traced(lambda: optimal_weights(params))
    assert peak < 2**20 and seconds < 5e-3, (peak, seconds)

    def certify():
        # the skeleton's reads of the feasibility extremes included
        skeleton = SkeletonBlocks(params, solution.w_minus_1, solution.w_plus_1)
        return verify_certificate(build_dual_certificate(solution), skeleton)

    residuals, peak, seconds = traced(certify)
    assert peak < 2**20 and seconds < 5e-3, (peak, seconds)
    assert residuals.feasibility_min_eig >= -1e-10
