"""The self-check's counts, ``count_runs_below`` and
``count_central_below``, against Kahan's count.

Every optimum of a batch is proved by counts over a skeleton of its
central block: each arm written from its leaf as three run-length-encoded
rows, and the center's twisted pivot.  Here those counts must equal
``count_eigenvalues_below`` on the blocks written out row by row, away
from rounding level at an eigenvalue, and the self-check's verdict must
be the same from either count on every example.  The sample has arms of
one, two and three rows, runs shorter than ``spectral._MIN_RUN``, shifts
exactly at an entry of the blocks, ``w_-1`` moved off the optimum and
shifts relative to the gap ``1 - s``.  A single solve counts its blocks
themselves with ``Tridiagonal.count_below`` instead, and must reach the
skeleton's verdict on the same sample and on the extreme shapes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusedstar import spectral
from fusedstar.optimizer import (
    SelfCheckError,
    _counts_prove_slem,
    _self_check_shifts,
    _self_checked,
    _Shapes,
    _skeleton,
    _skeleton_proves_slem,
    optimal_weights,
)
from fusedstar.spectral import (
    central_tridiagonal,
    count_central_below,
    count_eigenvalues_below,
    count_runs_below,
)
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights

EXAMPLES = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: max(low, min(high, round(math.exp(x))))
    )


# arms of one to three rows, runs shorter than _MIN_RUN and long ones
arm_lengths = st.one_of(
    st.integers(1, spectral._MIN_RUN + 1), st.integers(spectral._MIN_RUN + 2, 400)
)
networks = st.builds(
    TfsParams,
    m1=arm_lengths,
    n1=log_uniform(2, 10**6),
    m2=arm_lengths,
    n2=log_uniform(2, 10**6),
)
# w_-1 as found, cut, moved by a relative 1e-6 and moved far
moves = st.sampled_from([1.0, 0.0, 1.0 + 1e-6, 1.0 - 1e-6, 0.5, 1.5])


def kahan_counts(params, w_minus, w_plus, x):
    """``count_eigenvalues_below`` of the central block and of both arm
    blocks together, written out row by row, shaped like the skeleton's."""
    w = np.full(params.m1 + params.m2, 0.5)
    w[params.m1 - 1], w[params.m1] = w_minus, w_plus
    diagonal, off = central_tridiagonal(params, w)
    m1 = params.m1

    def count(rows, couplings):
        return count_eigenvalues_below(rows[:, None], couplings[:, None] ** 2, x)

    center = count(diagonal, off)
    arms = count(diagonal[:m1], off[: m1 - 1]) + count(
        diagonal[m1 + 1 :], off[m1 + 1 :]
    )
    return np.stack([center, arms], axis=-1), max(
        1.0, float(np.max(np.abs(diagonal))) + 2.0 * float(np.max(np.abs(off)))
    )


@EXAMPLES
@given(networks, moves, st.integers(0, 2**32 - 1))
def test_skeleton_counts_equal_kahan_counts(params, move, seed):
    optimum = optimal_weights(params)
    s, w = optimum.s, optimum.weights
    w_minus, w_plus = w[-1] * move, w[1]
    gap = 1.0 - s
    x = np.concatenate([
        _self_check_shifts(s),  # the verdict's four shifts come first
        [s + 1e-6 * gap, s - 1e-6 * gap, -s + 1e-6 * gap, -s - 1e-6 * gap],
        [0.0, 0.5, -0.5, 1.0, -1.0],  # exactly at entries of the blocks
        np.random.default_rng(seed).uniform(-1.2, 1.2, 8),
    ])
    fields = (params.m1, params.n1, params.m2, params.n2)
    lane = _Shapes(*(np.asarray([v], dtype=float) for v in fields))
    skeleton = _skeleton(lane, np.array([w_minus]), np.array([w_plus]))
    counts = count_central_below(*skeleton, x[:, None])[..., 0]
    reference, scale = kahan_counts(params, w_minus, w_plus, x)
    # away from rounding level: no eigenvalue within a few ulps of ||T||
    # of the shift, where the counts a little to either side agree
    step = 1e-12 * scale * np.array([[-1.0], [1.0]])
    away = np.equal(*kahan_counts(params, w_minus, w_plus, x + step)[0])
    assert np.array_equal(counts[away], reference[away]), (params, move)
    top = params.m1 + params.m2
    assert _counts_prove_slem(counts[:4], top) == _counts_prove_slem(
        reference[:4], top
    ), (params, move)


def assert_scalar_verdict_is_the_skeletons(params, move):
    """``_self_checked``, which counts the blocks of the weights, accepts
    the optimum with ``w_-1`` times ``move`` exactly when
    ``_skeleton_proves_slem`` does."""
    optimum, m1 = optimal_weights(params), params.m1
    w = optimum.weights.values.copy()
    w[m1 - 1] *= move
    fields = (m1, params.n1, params.m2, params.n2)
    lane = _Shapes(*(np.asarray([v], dtype=float) for v in fields))
    skeleton = _skeleton_proves_slem(
        lane, np.array([optimum.s]), w[m1 - 1 : m1], w[m1 : m1 + 1]
    )[0]
    try:
        _self_checked(params, optimum.theta_star, OrbitWeights(params, w))
    except SelfCheckError:
        scalar = False
    else:
        scalar = True
    assert scalar == skeleton, (params, move)


@EXAMPLES
@given(networks, moves)
def test_scalar_self_check_reaches_the_skeletons_verdict(params, move):
    assert_scalar_verdict_is_the_skeletons(params, move)


@pytest.mark.parametrize("move", [1.0, 0.0, 1.0 + 1e-6, 1.0 - 1e-6, 0.5, 1.5])
@pytest.mark.parametrize(
    "shape",
    [
        # tests/test_extremes.py's named shapes
        (1, 10**12, 1, 2),
        (10**5, 2, 1, 2),
        (1, 10**18, 2, 10**18),
        (2646, 257245, 1, 964),
        (199, 2196315, 1, 9),
        (2, 10**300, 2, 2),
        (3, 4, 4, 3),
        (1, 2, 1, 2),
        (2000, 2, 1, 2),
        (50, 10**7, 60, 10**7),
        (7, 3, 900, 10**9),
        # where 1 - s is near or below the self-check's margin 1e-9
        (10**5, 2, 2, 2),
        (40000, 3, 40000, 4),
        (3000, 3, 3000, 4),
    ],
    ids=str,
)
def test_scalar_self_check_reaches_the_skeletons_verdict_on_extreme_shapes(
    shape, move
):
    assert_scalar_verdict_is_the_skeletons(TfsParams(*shape), move)


rows = st.tuples(
    st.floats(-1.5, 1.5),
    st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
    st.sampled_from([0, 1, 2, 3, spectral._MIN_RUN - 1, spectral._MIN_RUN, 40]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.lists(st.lists(rows, min_size=1, max_size=5), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_run_counts_equal_kahan_counts(stack, seed):
    # lanes of up to five encoded rows: skipped rows, steps, decoupled
    # runs and coupled runs shorter and longer than _MIN_RUN, counted at
    # random shifts, at every diagonal entry and at the edges of every
    # run's band, a +- 2 b
    depth = max(map(len, stack))
    # skipped rows even out the lanes
    a, c, length = np.array(
        [lane + [(0.0, 0.0, 0)] * (depth - len(lane)) for lane in stack]
    ).T
    x = np.concatenate([
        np.random.default_rng(seed).uniform(-3.0, 3.0, 8),
        a.ravel(), (a + 2.0 * np.sqrt(c)).ravel(), (a - 2.0 * np.sqrt(c)).ravel(),
    ])[:, None]
    counts, _ = count_runs_below(a, c, length, x)
    for k in range(a.shape[1]):
        written = np.repeat(np.arange(depth), length[:, k].astype(int))
        if written.size == 0:
            assert not counts[:, k].any()
            continue
        rows_a, rows_c = a[written, k], c[written, k][1:]

        def kahan(shifts):
            return count_eigenvalues_below(rows_a[:, None], rows_c[:, None], shifts)

        reference = kahan(x[:, 0])
        away = kahan(x[:, 0] - 1e-12) == kahan(x[:, 0] + 1e-12)
        assert np.array_equal(counts[away, k], reference[away]), (stack, k)
