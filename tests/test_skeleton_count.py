"""The self-check's count, ``count_central_below``, against Kahan's count.

Every optimum of a batch is proved by counts over a skeleton of its
central block: ``central_tridiagonal`` on four orbits gives each arm's
leaf, the row next to the center and the center, the arm's interior is a
run of the optimum's constant rows in closed form, and the center's
pivot is twisted.  Here those counts must equal
``count_eigenvalues_below`` on the blocks written out row by row, away
from rounding level at an eigenvalue, and the self-check's verdict must
be the same from either count on every example.  The sample has arms of
one, two and three rows, runs shorter and longer than
``spectral._MIN_RUN``, shifts exactly at an entry of the blocks and at
the edges of the interior run's band, ``w_-1`` moved off the optimum,
random boundary and interior weights and shifts relative to the gap
``1 - s``.  A single solve counts the same skeleton rows with scalar run
counts (``SkeletonBlocks``), and its counts must equal the counts of the
blocks written out, ``reference.CountedTridiagonal.count_below`` on
``build_blocks``, and
reach the batch's verdict, on the same sample and on the extreme shapes.
"""

import math
import tracemalloc

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
    _skeleton_proves_slem,
    optimal_weights,
)
from fusedstar.reference import block_extremes, counted_blocks
from fusedstar.spectral import (
    SkeletonBlocks,
    build_blocks,
    central_tridiagonal,
    count_central_below,
    count_eigenvalues_below,
    skeleton_rows,
)
from fusedstar.topology import TfsParams
from fusedstar.weighting import (
    OrbitWeights,
    best_constant_skeleton,
    max_degree_skeleton,
    metropolis_skeleton,
    skeleton_weights,
)

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
    s = optimum.s
    w_minus, w_plus = optimum.w_minus_1 * move, optimum.w_plus_1
    gap = 1.0 - s
    x = np.concatenate([
        _self_check_shifts(s),  # the verdict's four shifts come first
        [s + 1e-6 * gap, s - 1e-6 * gap, -s + 1e-6 * gap, -s - 1e-6 * gap],
        [0.0, 0.5, -0.5, 1.0, -1.0],  # exactly at entries of the blocks
        np.random.default_rng(seed).uniform(-1.2, 1.2, 8),
    ])
    fields = (params.m1, params.n1, params.m2, params.n2)
    lane = _Shapes(*(np.asarray([v], dtype=float) for v in fields))
    rows = skeleton_rows(lane, np.array([w_minus]), np.array([w_plus]))
    m = np.array([[params.m1], [params.m2]], dtype=float)
    counts = count_central_below(*rows, m, x[:, None])[..., 0]
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


def block_counts(params, w_minus, w_plus, shifts):
    """The self-check's counts as a single solve made them on the blocks
    written out: ``CountedTridiagonal.count_below`` of the central block and of
    both arm blocks together, one row per shift."""
    w = np.full(params.m1 + params.m2, 0.5)
    w[params.m1 - 1], w[params.m1] = w_minus, w_plus
    blocks = counted_blocks(build_blocks(params, OrbitWeights(params, w)))
    return np.array([
        blocks.center.count_below(shifts),
        blocks.minus.count_below(shifts) + blocks.plus.count_below(shifts),
    ]).T


def assert_scalar_counts_are_the_blocks(params, move):
    """``_self_checked``'s scalar skeleton counts, with ``w_-1`` times
    ``move``, are the counts of the blocks written out, and it accepts
    exactly when the batch's ``_skeleton_proves_slem`` does."""
    optimum = optimal_weights(params)
    w_minus, w_plus = optimum.w_minus_1 * move, optimum.w_plus_1
    shifts = _self_check_shifts(optimum.s)
    counts = SkeletonBlocks(params, w_minus, w_plus).count_below(shifts.tolist())
    assert np.array_equal(counts, block_counts(params, w_minus, w_plus, shifts)), (
        params, move
    )
    fields = (params.m1, params.n1, params.m2, params.n2)
    lane = _Shapes(*(np.asarray([v], dtype=float) for v in fields))
    skeleton = _skeleton_proves_slem(
        lane, np.array([optimum.s]), np.array([w_minus]), np.array([w_plus])
    )[0]
    try:
        _self_checked(params, optimum.theta_star, w_minus, w_plus)
    except SelfCheckError:
        scalar = False
    else:
        scalar = True
    assert scalar == skeleton, (params, move)


@EXAMPLES
@given(networks, moves)
def test_scalar_self_check_reaches_the_skeletons_verdict(params, move):
    assert_scalar_counts_are_the_blocks(params, move)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 10, 11, 400])
def test_a_boundary_row_equal_to_the_interior_joins_its_run(m):
    # boundary weights of 1/2 make the rows next to the center equal to
    # the interior's (diagonal 0, coupling 1/2): the skeleton's runs join
    # as the blocks written out find them, and the counts agree
    params = TfsParams(m, 3, m + 1, 4)
    shifts = np.linspace(-1.5, 1.5, 41)
    skeleton = SkeletonBlocks(params, 0.5, 0.5)
    assert np.array_equal(
        skeleton.count_below(shifts.tolist()), block_counts(params, 0.5, 0.5, shifts)
    )
    written = counted_blocks(
        build_blocks(params, OrbitWeights(params, np.full(2 * m + 1, 0.5)))
    )
    for block in ("center", "minus", "plus"):
        assert getattr(skeleton, block).steps == getattr(written, block)._runs.steps


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
    assert_scalar_counts_are_the_blocks(TfsParams(*shape), move)


def written_out(diagonal, off, m1, m2):
    """The central block that ``count_central_below`` reads from one
    lane's rows, row by row: each arm's leaf, ``m - 2`` interior rows of
    diagonal 0 coupled by 1/2, and its row next to the center."""
    def arm(leaf, adjacent, coupling, m):
        if m == 1:
            return [adjacent], []
        return [leaf] + [0.0] * (m - 2) + [adjacent], [0.5] * (m - 2) + [coupling]

    rows1, couplings1 = arm(diagonal[0], diagonal[1], off[0], m1)
    rows2, couplings2 = arm(diagonal[4], diagonal[3], off[3], m2)
    rows = rows1 + [diagonal[2]] + rows2[::-1]
    couplings = couplings1 + [off[1], off[2]] + couplings2[::-1]
    return np.array(rows), np.array(couplings)


lane_strategy = st.tuples(
    arm_lengths,
    log_uniform(2, 10**6),
    arm_lengths,
    log_uniform(2, 10**6),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(lane_strategy, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_run_counts_equal_kahan_counts(lanes, seed):
    # stacks of up to three lanes with random boundary and interior
    # weights: arms of one to three rows, interior runs shorter and longer
    # than _MIN_RUN, counted at random shifts, at every entry of the rows
    # and at the edges of the interior run's band, 0 +- 2 * 1/2
    m1, n1, m2, n2, w = (np.array(v, dtype=float) for v in zip(*lanes))
    stack = _Shapes(m1, n1, m2, n2)._replace(m1=2)
    diagonal, off = central_tridiagonal(stack, w.T)
    m = np.stack([m1, m2])
    x = np.concatenate([
        np.random.default_rng(seed).uniform(-3.0, 3.0, 8),
        diagonal.ravel(), [0.0, 1.0, -1.0],
    ])[:, None]
    counts = count_central_below(diagonal, off, m, x)
    for k, (length1, _, length2, _, _) in enumerate(lanes):
        rows, couplings = written_out(diagonal[:, k], off[:, k], length1, length2)

        def kahan(shifts):
            def count(a, b):
                return count_eigenvalues_below(a[:, None], b[:, None] ** 2, shifts)

            arms = count(rows[:length1], couplings[: length1 - 1]) + count(
                rows[length1 + 1 :], couplings[length1 + 1 :]
            )
            return np.stack([count(rows, couplings), arms], axis=-1)

        reference = kahan(x[:, 0])
        away = np.equal(kahan(x[:, 0] - 1e-12), kahan(x[:, 0] + 1e-12))
        assert np.array_equal(counts[:, :, k][away], reference[away]), (lanes, k)


def test_four_orbit_rows_are_the_seven_row_skeletons():
    # the five rows of skeleton_rows are, bit for bit, the leaf, the row
    # next to the center and the center of the skeleton with each arm
    # written in three rows (leaf, one interior row, row next to the
    # center), built by central_tridiagonal on six orbits
    rng = np.random.default_rng(5)
    for _ in range(100):
        lanes = int(rng.integers(1, 50))
        m1, m2 = rng.integers(1, 6, (2, lanes)).astype(float)
        m1[rng.random(lanes) < 0.3] = 10**5
        n1, n2 = np.round(np.exp(rng.uniform(math.log(2), 35.0, (2, lanes))))
        shapes = _Shapes(m1, n1, m2, n2)
        w_minus, w_plus = rng.uniform(0.0, 1.0, (2, lanes))
        w_minus[rng.random(lanes) < 0.1] = 0.0
        # an optimum's interior weight, the unit weights' and any other
        weight = [0.5, 1.0, rng.uniform(0.0, 1.0)][_ % 3]
        diagonal, off = skeleton_rows(shapes, w_minus, w_plus, weight)
        interior = np.where(np.stack([m1, m2]) > 1.0, weight, 0.0)
        six = [interior[0], interior[0], w_minus, w_plus, interior[1], interior[1]]
        seven, seven_off = central_tridiagonal(shapes._replace(m1=3), np.stack(six))
        rows = seven[[0, 2, 3, 4, 6]]
        assert np.array_equal(diagonal.view(np.int64), rows.view(np.int64))
        assert np.array_equal(off.view(np.int64), seven_off[1:5].view(np.int64))


def scheme_skeletons(params):
    """The skeleton of each scheme, of the unit weights, and, where both
    stars have two branches or more, of the optimum: one of its own, whose
    counts no self-check has made."""
    skeletons = {
        "max-degree": max_degree_skeleton(params),
        "max-degree+1": max_degree_skeleton(params, "inv_dmax_plus_1"),
        "metropolis": metropolis_skeleton(params),
        "best-constant": best_constant_skeleton(params),
        "unit": SkeletonBlocks(params, 1.0, 1.0, 1.0),
    }
    if min(params.n1, params.n2) > 1:
        optimum = optimal_weights(params)
        skeletons["optimal"] = SkeletonBlocks(
            params, optimum.w_minus_1, optimum.w_plus_1
        )
    return skeletons


def seeded_scheme_shapes(count, seed):
    # log-uniform arms of 1 to 300 rows, so blocks on both sides of the
    # dense guesses' 64 rows, and branch counts up to 10^12, one star in
    # four of one branch
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m1, m2 = np.exp(rng.uniform(0.0, math.log(300.0), 2)).round().astype(int)
        n1, n2 = np.exp(rng.uniform(0.0, math.log(1e12), 2)).round().astype(int)
        n1, n2 = (1 if rng.random() < 0.25 else int(n) for n in (n1, n2))
        yield TfsParams(int(m1), n1, int(m2), n2)


def test_every_scheme_reports_on_its_skeleton_as_on_its_blocks():
    # each report read on a skeleton without claims is, bit for bit, the
    # report of the blocks written out: the same runs, the same dense
    # guesses below 64 rows and the same searches above
    shapes = list(seeded_scheme_shapes(320, 48))
    assert {min(p.n1, p.n2) for p in shapes} >= {1, 2}
    sizes = {p.m1 + p.m2 + 1 > 64 for p in shapes} | {p.m1 > 64 for p in shapes}
    assert sizes == {True, False}
    for params in shapes:
        for name, skeleton in scheme_skeletons(params).items():
            blocks = build_blocks(params, skeleton_weights(skeleton))
            report, expected = skeleton.report(), block_extremes(blocks)
            assert [report.lambda2.hex(), report.lambda_min.hex()] == [
                expected.lambda2.hex(), expected.lambda_min.hex()
            ], (params, name)
            written = counted_blocks(blocks)
            for block in ("center", "minus", "plus"):
                steps = getattr(written, block)._runs.steps
                assert getattr(skeleton, block).steps == steps, (params, name)


def test_every_scheme_reports_in_bounded_memory():
    # no array of the arms' length: each report at 10^9 rows a side takes
    # a few KiB (tracemalloc), as the optimum's
    params = TfsParams(10**9, 3, 10**9, 4)
    for name in ("max-degree", "metropolis", "best-constant", "unit", "optimal"):
        tracemalloc.start()
        try:
            scheme_skeletons(params)[name].report()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, name
