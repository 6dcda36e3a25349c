"""Characteristic-relation root finding and the analytic optimum."""

import argparse
import functools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fusedstar import cli, optimizer, reference
from fusedstar.cli import main
from fusedstar.optimizer import (
    SelfCheckError,
    _Shapes,
    _batch_shapes,
    _self_check_shifts,
    _skeleton_proves_slem,
    optimal_weights,
    optimal_weights_batch,
    solve_symmetric_star,
)
from fusedstar.reference import (
    block_extremes,
    block_spectrum,
    build_blocks,
    equivalent_star,
    mp_theta_star,
    orbit_weights_from_labels,
)
from fusedstar.spectral import (
    _RunCount,
    count_central_below,
    count_eigenvalues_below,
    full_spectrum,
    skeleton_rows,
)
from fusedstar.topology import InvalidParameterError, TfsParams
from fusedstar.weighting import assemble_weight_matrix

P343 = TfsParams(3, 4, 4, 3)

# frozen solver outputs for (3,4,4,3)
THETA_343 = 0.30280276095670755
S_343 = 0.9545044654072468
WM1_343 = 0.16361147830979006
WP1_343 = 0.2886837942392352


def test_char_residual_formula():
    p = TfsParams(2, 3, 1, 4)
    theta = 0.7
    c1 = 2.0 / p.n1 / math.tan(p.m1 * theta) / math.tan(theta / 2)
    c2 = 2.0 / p.n2 / math.tan(p.m2 * theta) / math.tan(theta / 2)
    expected = (c1 - 1.0) * (c2 - 1.0) - 1.0
    assert optimizer._char_values(p, theta) == pytest.approx(expected, rel=1e-14)


def test_char_residual_at_table_value():
    assert abs(optimizer._char_values(P343, math.acos(0.9545))) <= 1e-3


def test_char_residual_swap_symmetry():
    p = TfsParams(3, 4, 2, 5)
    for theta in (0.3, 0.9, 1.7, 2.4):
        assert optimizer._char_values(p, theta) == pytest.approx(
            optimizer._char_values(p.swap(), theta), rel=1e-13
        )


def test_equal_arms_reduce_to_star_relation():
    # with equal branch lengths every root of the collapsed relation
    # (n+2)cos((m+1/2)t) = (n-2)cos((m-1/2)t) also solves the full one
    m, n1, n2 = 2, 3, 2
    n = n1 + n2
    p = TfsParams(m, n1, m, n2)

    def g(t):
        return (n + 2) * math.cos((m + 0.5) * t) - (n - 2) * math.cos((m - 0.5) * t)

    grid = np.linspace(1e-3, math.pi - 1e-3, 4001)
    vals = np.array([g(t) for t in grid])
    for k in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        lo, hi = grid[k], grid[k + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (g(lo) < 0) == (g(mid) < 0):
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(optimizer._char_values(p, root)) <= 1e-8


def test_optimal_weights_343():
    sol = optimal_weights(P343)
    assert sol.theta_star == pytest.approx(THETA_343, abs=1e-11)
    assert sol.s == pytest.approx(S_343, abs=1e-10)
    assert sol.s == pytest.approx(math.cos(sol.theta_star))
    assert sol.weights[-1] == pytest.approx(WM1_343, abs=1e-10)
    assert sol.weights[1] == pytest.approx(WP1_343, abs=1e-10)
    for label in (-3, -2, 2, 3, 4):
        assert sol.weights[label] == 0.5
    assert 0 < sol.s < 1


def test_optimal_weights_table_row_values():
    assert optimal_weights(P343).s == pytest.approx(0.95450, abs=5e-5)
    assert optimal_weights(TfsParams(3, 4, 3, 6)).s == pytest.approx(
        0.95381, abs=5e-5
    )


def test_boundary_weight_formula():
    sol = optimal_weights(TfsParams(2, 3, 4, 5))
    t, s = sol.theta_star, sol.s
    m1, m2 = 2, 4
    left = (1 - s) * math.sin(m1 * t) / (math.sin(m1 * t) - math.sin((m1 - 1) * t))
    right = (1 - s) * math.sin(m2 * t) / (math.sin(m2 * t) - math.sin((m2 - 1) * t))
    assert sol.weights[-1] == pytest.approx(left, rel=1e-12)
    assert sol.weights[1] == pytest.approx(right, rel=1e-12)


def test_mirror_symmetric_network():
    sol = optimal_weights(TfsParams(3, 5, 3, 5))
    assert sol.weights[-1] == pytest.approx(sol.weights[1], rel=1e-13)


def oracle_sample():
    """300 seeded shapes: each branch length in 1..29, each branch count
    log-uniform in [2, 10^9]."""
    rng = random.Random(40)
    shapes = []
    for _ in range(300):
        m1, m2 = rng.randint(1, 29), rng.randint(1, 29)
        n1, n2 = (
            round(math.exp(rng.uniform(math.log(2), math.log(1e9)))) for _ in range(2)
        )
        shapes.append((m1, n1, m2, n2))
    return shapes


# named shapes, then the seeded sample, in which 144 shapes have theta*
# below 3.1e-4, down to 2.84e-5 at (1, 3, 10, 495021412)
@pytest.mark.parametrize(
    "params",
    [
        (1, 2, 1, 2),
        (2, 2, 2, 2),
        (3, 4, 4, 3),
        (5, 3, 5, 7),
        (1, 3, 10, 2),
        (10, 22, 1, 2),
        (7, 2, 3, 20),
        (10, 20, 20, 10),
        (30, 5, 2, 9),
        # steep relation: an absolute residual bound dropped the smallest
        # root of these
        (1, 2, 1000, 2),
        (2000, 2, 1, 2),
        (1, 10**6, 1, 3),
        *oracle_sample(),
    ],
    ids=str,
)
def test_bisection_matches_the_oracle(params):
    # 30 digits put the oracle's theta* within a relative 1e-20
    p = TfsParams(*params)
    with mpmath.workdps(30):
        root = float(mp_theta_star(p))
    assert abs(optimal_weights(p).theta_star - root) <= 1e-11


# shapes whose smallest root the grid scan used to drop (steep relation)
# or misplace, so the self-check failed; and one whose boundary weight
# cancelled to a vanishing denominator
@pytest.mark.parametrize(
    "params",
    [
        (1, 2, 1000, 2),
        (2000, 2, 1, 2),
        (1, 10**6, 1, 3),
        (50, 10**7, 60, 10**7),
        (2, 10**300, 2, 2),
    ],
)
def test_extreme_shapes_return_self_checked_optimum(params):
    p = TfsParams(*params)
    sol = optimal_weights(p)
    assert 0 < sol.theta_star < math.pi / (2 * max(p.m1, p.m2))
    report = block_spectrum(build_blocks(p, sol.weights))
    assert abs(report.slem - sol.s) <= 1e-9
    assert abs(report.lambda_min + sol.s) <= 1e-11


@pytest.mark.parametrize(
    "params", [(3, 4, 4, 3), (2, 2, 2, 2), (1, 2, 1, 3), (5, 3, 2, 6)]
)
def test_analytic_vs_spectral_route(params):
    p = TfsParams(*params)
    sol = optimal_weights(p)
    report = block_spectrum(build_blocks(p, sol.weights))
    assert abs(report.slem - sol.s) <= 1e-9
    # dense route as well on these small instances
    dense = full_spectrum(assemble_weight_matrix(p, sol.weights))
    assert abs(dense.slem - sol.s) <= 1e-9


def test_optimal_weights_validation():
    with pytest.raises(InvalidParameterError):
        optimal_weights(TfsParams(3, 1, 3, 3))


def test_optimality_probe():
    # the analytic point is a local (indeed global) minimizer of the SLEM
    # over the two boundary weights
    sol = optimal_weights(TfsParams(2, 2, 3, 4))
    p = sol.params
    base = {label: sol.weights[label] for label in p.orbit_labels}
    rng = np.random.default_rng(42)
    for _ in range(100):
        trial = dict(base)
        trial[-1] = base[-1] + rng.uniform(-0.05, 0.05)
        trial[1] = base[1] + rng.uniform(-0.05, 0.05)
        report = block_spectrum(build_blocks(p, orbit_weights_from_labels(p, trial)))
        assert report.slem >= sol.s - 1e-10


def test_symmetric_star_agreement_with_tfs_solver():
    m, n1, n2 = 3, 4, 3
    star = solve_symmetric_star(m, n1 + n2)
    tfs = optimal_weights(TfsParams(m, n1, m, n2))
    assert star.s == pytest.approx(tfs.s, abs=1e-10)
    assert star.weights[-1] == pytest.approx(star.weights[1], rel=1e-13)


def test_symmetric_star_two_branches_is_a_path():
    # n = 2, m = 1: the 3-node path; theta* = pi/3 and w = 1/2
    sol = solve_symmetric_star(1, 2)
    assert sol.theta_star == pytest.approx(math.pi / 3, abs=1e-11)
    assert sol.s == pytest.approx(0.5, abs=1e-12)
    assert sol.weights[-1] == pytest.approx(0.5, abs=1e-12)
    dense = full_spectrum(assemble_weight_matrix(sol.params, sol.weights))
    assert dense.slem == pytest.approx(sol.s, abs=1e-11)


def test_symmetric_star_monotone_in_branch_length():
    values = [solve_symmetric_star(m, 18).s for m in range(1, 11)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_symmetric_star_validation():
    with pytest.raises(InvalidParameterError):
        solve_symmetric_star(0, 4)
    with pytest.raises(InvalidParameterError):
        solve_symmetric_star(2, 1)


def test_equivalent_star_examples():
    assert equivalent_star(P343) == (7, Fraction(24, 7))
    assert equivalent_star(TfsParams(2, 6, 5, 12)) == (18, Fraction(4))
    n, m_bar = equivalent_star(TfsParams(4, 3, 4, 9))
    assert n == 12
    assert m_bar == Fraction(4)


BRANCH_COUNTS = (2, 3, 4, 6, 12, 20, 22)
# the acceptance suite's criterion-3 grid, in its order
CRITERION_3_GRID = [
    (m1, n1, m2, n2)
    for n1 in BRANCH_COUNTS
    for n2 in BRANCH_COUNTS
    for m1 in range(1, 11)
    for m2 in range(1, 11)
]
# the TFS rows of the default ``sweep fig2`` (n1 = 6, n2 = 12)
FIG2_TFS = [
    (m1, 6, (18 * m_bar - 6 * m1) // 12, 12)
    for m_bar in range(1, 9)
    for m1 in range(1, 3 * m_bar)
    if (18 * m_bar - 6 * m1) % 12 == 0
]
EXTREME_SHAPES = [
    (1, 2, 1000, 2),
    (2000, 2, 1, 2),
    (1, 10**6, 1, 3),
    (50, 10**7, 60, 10**7),
    (2, 10**300, 2, 2),
]


def solve_batch(shapes):
    # object arrays keep branch counts beyond int64 exact
    return optimal_weights_batch(*np.array(shapes, dtype=object).T)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_batch_is_bitwise_equal_to_the_scalar_route():
    shapes = CRITERION_3_GRID + FIG2_TFS + EXTREME_SHAPES
    batch = solve_batch(shapes)
    scalar = [optimal_weights(TfsParams(*shape)) for shape in shapes]
    for field, value in (
        ("theta_star", lambda sol: sol.theta_star),
        ("s", lambda sol: sol.s),
        ("w_minus_1", lambda sol: sol.weights[-1]),
        ("w_plus_1", lambda sol: sol.weights[1]),
    ):
        expected = bits([value(sol) for sol in scalar])
        assert np.array_equal(bits(getattr(batch, field)), expected), field


def test_starts_that_fail_are_halved_to_the_scalar_bits(monkeypatch):
    # no sample's closed-form start fails the predicate; a start at the top
    # of the bracket fails on every lane, and each route halves it, climbs
    # from the first point that holds and ends on bisection's floats
    monkeypatch.setattr(optimizer, "_closed_form_root", lambda quarter, c, xp: xp.inf)
    shapes = grid(3, 4) + grid(12, 22) + LONG_UNEQUAL_ARMS
    scalar = [optimal_weights(TfsParams(*shape)).theta_star for shape in shapes]
    assert np.array_equal(bits(solve_batch(shapes).theta_star), bits(scalar))


SWEEP_ARGVS = [
    ["sweep", "custom", "--n1", str(n1), "--n2", str(n2)]
    for n1 in BRANCH_COUNTS
    for n2 in BRANCH_COUNTS
] + [["sweep", "fig2"]]


@pytest.mark.parametrize(
    "argv", SWEEP_ARGVS, ids=[" ".join(argv[1:]) for argv in SWEEP_ARGVS]
)
def test_a_sweep_slice_as_the_cli_passes_it_has_the_scalar_bits(argv):
    # the slice that cmd_sweep hands the batch: int64 lengths beside
    # Python-int branch counts on a 10 x 10 grid, or fig2's int64 rows,
    # one slice of 100 or 56 lanes
    args = cli._parse_args(argv)
    shapes = args.grid(args)[2]
    batch = optimal_weights_batch(*shapes)
    lanes = zip(*(cells.tolist() for cells in np.broadcast_arrays(*shapes)))
    scalar = [optimal_weights(TfsParams(*shape)) for shape in lanes]
    for field in ("theta_star", "s", "w_minus_1", "w_plus_1", "gap"):
        expected = bits([getattr(sol, field) for sol in scalar])
        assert np.array_equal(bits(getattr(batch, field)), expected), field


def boundary_weight(m, theta):
    return float(optimizer._boundary_weights(np.float64(m), np.float64(theta)))


def full_bracket_bisection(params):
    """Bisection on the predicate ``_char_values > 0`` from the whole
    bracket ``(0, pi / (2 max(m1, m2))]``, written here so that the bits
    the searches must return come from code the product does not run."""
    lo, hi = 0.0, math.pi / (2 * max(params.m1, params.m2))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if optimizer._char_values(params, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def bare_bisection(shapes):
    """theta*, s, w_{-1} and w_1 of each shape, as bits, from bisection on
    the scalar relation and the boundary-weight formula at each arm's
    length alone, without a self-check or an O(m) weight vector."""
    lanes = []
    for shape in shapes:
        params = TfsParams(*map(int, shape))
        theta = full_bracket_bisection(params)
        lanes.append((
            theta,
            float(np.cos(theta)),
            boundary_weight(params.m1, theta),
            boundary_weight(params.m2, theta),
        ))
    return bits(lanes).T


def fig2_shapes(mbar_max):
    args = argparse.Namespace(mbar_min=1, mbar_max=mbar_max)
    return cli._fig2_sweep(args)[2].T.tolist()


def log_uniform_shapes(count, seed=20221):
    # m log-uniform on [1, 1e6] and n on [2, 1e15]
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(0.0, math.log(1e6), (2, count)))
    n = np.exp(rng.uniform(math.log(2.0), math.log(1e15), (2, count)))
    return np.stack([m[0], n[0], m[1], n[1]]).astype(np.int64).T.tolist()


def long_arm_shapes(count, seed=20232):
    # the long_arm benchmark's range: m on [100, 800] and n on [2, 8]
    rng = np.random.default_rng(seed)
    m, n = rng.integers(100, 801, (2, count)), rng.integers(2, 9, (2, count))
    return np.stack([m[0], n[0], m[1], n[1]]).T.tolist()


# the three of 20,000 seeded shapes with m up to 1e6 where the search is
# longest: long, unequal arms with mixed branch counts, where the
# closed-form start is poorest and Newton's first steps only halve its
# error
LONG_UNEQUAL_ARMS = [
    (228319, 94542, 251257, 2),
    (977076, 3, 849670, 520899),
    (752393, 36, 447795, 1461897),
]
BATCH_SHAPES = {
    "custom-grids": CRITERION_3_GRID,
    "fig2": fig2_shapes(8) + fig2_shapes(30),
    "log-uniform": log_uniform_shapes(10**4),
    "long-unequal": LONG_UNEQUAL_ARMS,
}
BATCH_SAMPLES = pytest.mark.parametrize(
    "shapes", list(BATCH_SHAPES.values()), ids=list(BATCH_SHAPES)
)
SCALAR_SHAPES = {
    **BATCH_SHAPES,
    "long-arm": long_arm_shapes(2000),
    "extreme": EXTREME_SHAPES,
}
SCALAR_SAMPLES = pytest.mark.parametrize("name", list(SCALAR_SHAPES))


@functools.cache
def bisection_bits(name):
    return bare_bisection(SCALAR_SHAPES[name])


@pytest.mark.parametrize("name", list(BATCH_SHAPES))
def test_batch_bisection_takes_the_scalar_steps(name):
    # every `sweep custom` grid of m1, m2 <= 10 over the bench's branch
    # counts, the shapes of `sweep fig2` and `--mbar-max 30`, a seeded
    # sample up to m = 1e6 and n = 1e15 and the long unequal arms
    batch = solve_batch(BATCH_SHAPES[name])
    for field, lane_bits in zip(
        ("theta_star", "s", "w_minus_1", "w_plus_1"), bisection_bits(name)
    ):
        assert np.array_equal(bits(getattr(batch, field)), lane_bits), field


@SCALAR_SAMPLES
def test_single_solve_takes_the_bisection_bits(name):
    # the batch's samples, the long_arm benchmark's range and the extreme
    # shapes, (2, 10**300, 2, 2) among them; optimal_weights returns these
    # once its self-check passes
    lanes = []
    for shape in SCALAR_SHAPES[name]:
        params = TfsParams(*map(int, shape))
        theta = optimizer._theta_star(params)
        lanes.append((theta, float(np.cos(theta)), *optimizer._boundary_pair(params, theta)))
    for field, lane_bits, expected in zip(
        ("theta_star", "s", "w_minus_1", "w_plus_1"), bits(lanes).T, bisection_bits(name)
    ):
        assert np.array_equal(lane_bits, expected), field


@BATCH_SAMPLES
def test_the_predicate_changes_sign_once_around_theta_star(shapes):
    # the batch's Newton search and the scalar bisection evaluate the
    # predicate at different angles; they end on the same adjacent floats
    # only where it is true below theta* and false above it
    theta = solve_batch(shapes).theta_star
    cells = list(np.array(shapes, dtype=object).T)
    rows = optimizer._relation_rows(_batch_shapes(cells))
    below = above = theta
    for _ in range(64):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        # Newton's step, which this test does not read, may divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            product, _ = optimizer._relation(*rows, np.stack([below, above]))
        holds = product > 1.0
        assert holds[0].all()
        assert not holds[1].any()


def judged_angles(monkeypatch, shapes, search=solve_batch, limit=math.inf):
    """The angles a lane that each ``_relation`` call of the batch's search
    judges, one entry a call: as many as ``theta``'s first axis holds.
    Past ``limit`` angles the search fails instead of running on."""
    angles = []
    evaluate = optimizer._relation

    def counting(coef, two_n, theta, *args, **kwargs):
        angles.append(np.shape(theta)[0])
        assert sum(angles) <= limit, "the search did not end"
        return evaluate(coef, two_n, theta, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_relation", counting)
        search(shapes)
    return angles


def count_angles(monkeypatch, shapes, search=solve_batch, limit=math.inf):
    """The angles a lane that the batch's search judges in all."""
    return sum(judged_angles(monkeypatch, shapes, search, limit))


def bisection_evaluations(shape):
    params = TfsParams(*shape)
    calls = []

    def relation(theta):
        calls.append(None)
        return float(optimizer._char_values(params, theta))

    hi = math.pi / (2 * max(params.m1, params.m2))
    optimizer._first_sign_change(relation, hi)
    return len(calls)


def test_newton_search_pins_a_sweep_in_few_evaluations(monkeypatch):
    # bisection takes 52 to 55 on these shapes, and so would any slide back
    # to linear convergence; a slice takes as many angles as its slowest
    # lane
    for n1 in BRANCH_COUNTS:
        for n2 in BRANCH_COUNTS:
            assert count_angles(monkeypatch, grid(n1, n2)) <= 9, (n1, n2)
    assert count_angles(monkeypatch, fig2_shapes(8)) <= 9
    assert count_angles(monkeypatch, LONG_UNEQUAL_ARMS) <= 12
    # the 10^4 log-uniform shapes in one slice
    monkeypatch.setattr(optimizer, "_ONE_CALL_LANES", 10**4)
    assert count_angles(monkeypatch, BATCH_SHAPES["log-uniform"]) <= 9


def test_a_sweep_slice_takes_at_most_seven_calls(monkeypatch):
    # each call costs a slice of 100 lanes about as much as one of a few,
    # so the slice's slowest lane sets the time; bisection makes 52 to 55
    slices = [grid(n1, n2) for n1 in BRANCH_COUNTS for n2 in BRANCH_COUNTS]
    for shapes in slices + [fig2_shapes(8)]:
        assert len(judged_angles(monkeypatch, shapes)) <= 7, shapes[0]


@pytest.mark.parametrize("shape", EXTREME_SHAPES)
def test_newton_search_stays_within_twice_bisection(monkeypatch, shape):
    # a lane that climbs past theta* walks down a few floats and bisects
    # what is left, so it takes fewer evaluations than bisection from the
    # whole bracket; (2, 10**300, 2, 2) bisects about 500 times
    bound = 2 * bisection_evaluations(shape)
    assert count_angles(monkeypatch, [shape]) <= bound


@pytest.mark.parametrize(
    "shape",
    [(10**200, 2, 3, 2), (10**300, 2, 10**300, 2), (10**300, 10**300, 3, 2),
     (10**307, 2, 2, 2)],
)
def test_batch_refuses_lengths_past_an_array_before_any_solving(
    monkeypatch, shape
):
    # TfsParams refuses these lengths, whose m1 + m2 + 1 orbits no array
    # holds, and so does the batch, before its search judges an angle
    # (count_angles fails on the first) or its counts warn of a cast
    with pytest.raises(InvalidParameterError) as expected:
        TfsParams(*shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError) as info:
            count_angles(monkeypatch, [(3, 4, 4, 3), shape], limit=0)
    assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("dtype", [object, np.int64])
def test_batch_takes_the_lengths_that_the_single_solve_takes(dtype):
    # a float sum rounds both m1 + m2 = 2**60 - 2 and 2**60 - 1 to 2**60,
    # but only the second makes m1 + m2 + 1 more than an array holds
    valid, invalid = (2**59, 2, 2**59 - 2, 3), (2**59, 2, 2**59 - 1, 3)
    assert TfsParams(*valid)
    with pytest.raises(InvalidParameterError) as expected:
        TfsParams(*invalid)
    cells = list(np.array([(1, 2, 1, 2), valid], dtype=dtype).T)
    assert _batch_shapes(cells)[2, 1] == float(2**59 - 2)
    cells = list(np.array([valid, invalid, (1, 1, 1, 2)], dtype=dtype).T)
    with pytest.raises(InvalidParameterError) as info:
        _batch_shapes(cells)
    assert str(info.value) == str(expected.value)


# a branch count near the float range, where the closed-form start's
# unscaled n m / 4 terms would overflow and leave each search to halve
# hi / 2 about 500 times
NEAR_THE_FLOAT_RANGE = {
    "wide-star": [(1, 2, 10, 5 * 10**307)],
    "n=1e308": [(8, 10**308, 8, 10**308)],
}


@pytest.mark.parametrize(
    ("shapes", "bound"),
    [
        ([(m, n, m, n) for m in (1, 3, 10, 100, 10**4)], 7)
        for n in (10**2, 10**6, 10**10, 10**15)
    ] + [([(2, 10**300, 2, 2)], 7)]
    + [(shapes, 9) for shapes in NEAR_THE_FLOAT_RANGE.values()],
    ids=["n=1e2", "n=1e6", "n=1e10", "n=1e15", "n=1e300", *NEAR_THE_FLOAT_RANGE],
)
def test_root_search_evaluations_do_not_grow_with_branch_counts(
    monkeypatch, shapes, bound
):
    # the closed-form start is as close at every branch count; a search
    # from the bracket's midpoint took 33 evaluations at n = 1e15 and 509
    # at (2, 10**300, 2, 2)
    assert count_angles(monkeypatch, shapes) <= bound


def scalar_evaluations(monkeypatch, solve, shape, limit=math.inf):
    """``solve``'s ``_char_values`` calls at ``shape``; past ``limit`` the
    search fails instead of running on."""
    calls = []
    evaluate = optimizer._char_values

    def counting(params, theta):
        calls.append(None)
        assert len(calls) <= limit, "the search did not end"
        return evaluate(params, theta)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_char_values", counting)
        solve(TfsParams(*map(int, shape)))
    return len(calls)


@SCALAR_SAMPLES
def test_single_solve_pins_theta_star_in_few_evaluations(monkeypatch, name):
    # bisection takes 52 to 55 evaluations on most of these shapes and 550
    # on (2, 10**300, 2, 2); Newton's climb, the walk down and the last
    # bisection each take a few
    counts = [
        scalar_evaluations(monkeypatch, optimizer._theta_star, shape)
        for shape in SCALAR_SHAPES[name]
    ]
    assert max(counts) <= (12 if name == "long-unequal" else 9)


@pytest.mark.parametrize(
    "shapes",
    [
        [(m, n, m, n) for m in (1, 3, 10, 100, 10**4)]
        for n in (10**2, 10**6, 10**10, 10**15)
    ] + [[(2, 10**300, 2, 2)], [(10**6, 2, 10**6, 2)], *NEAR_THE_FLOAT_RANGE.values()],
    ids=["n=1e2", "n=1e6", "n=1e10", "n=1e15", "n=1e300", "m=1e6", *NEAR_THE_FLOAT_RANGE],
)
def test_single_solve_evaluations_do_not_grow_with_branch_counts(
    monkeypatch, shapes
):
    # bisection took 77 evaluations at n = 1e15 and 550 at
    # (2, 10**300, 2, 2); the closed-form start is as close at every count
    for shape in shapes:
        assert scalar_evaluations(monkeypatch, optimal_weights, shape) <= 9, shape


# past m = 2^53 the float predicate can hold on the whole bracket, as at
# this valid shape, where a climb of two floats a step never ended
PAST_THE_BRACKET = (2**59, 2, 2**59 - 2, 3)


def test_single_solve_ends_where_the_predicate_holds_on_the_whole_bracket(
    monkeypatch,
):
    # the bound is test_newton_search_stays_within_twice_bisection's
    bound = 2 * bisection_evaluations(PAST_THE_BRACKET)
    search = optimizer._theta_star
    assert scalar_evaluations(monkeypatch, search, PAST_THE_BRACKET, bound) <= bound
    params = TfsParams(*PAST_THE_BRACKET)
    theta = search(params)
    assert theta.hex() == full_bracket_bisection(params).hex()
    assert theta == math.pi / (2 * params.m1)
    assert count_angles(monkeypatch, [PAST_THE_BRACKET], limit=bound) <= bound


def test_both_searches_end_at_lengths_up_to_2_to_the_59(monkeypatch):
    # 3000 seeded shapes, m log-uniform from 1e6 to 2^59, half with near
    # equal arms, where the relation's root is nearly double and the
    # climb is slowest; n up to 1e6
    rng = np.random.default_rng(20)
    m = np.exp(rng.uniform(math.log(1e6), math.log(2.0**59), (2, 3000)))
    m = m.round().astype(np.int64)
    m[1] = np.where(rng.random(3000) < 0.5, m[0] - rng.integers(0, 4, 3000), m[1])
    n = np.exp(rng.uniform(math.log(2), math.log(1e6), (2, 3000))).round()
    shapes = [tuple(map(int, cells)) for cells in zip(m[0], n[0], m[1], n[1])]
    bounds = [2 * bisection_evaluations(shape) for shape in shapes]
    thetas = []
    for shape, bound in zip(shapes, bounds):
        assert scalar_evaluations(monkeypatch, optimizer._theta_star, shape, bound)
        thetas.append(optimizer._theta_star(TfsParams(*shape)))
        assert thetas[-1] == full_bracket_bisection(TfsParams(*shape)), shape
    batch = []

    def search(lanes):
        lanes = np.array(lanes, dtype=float).T
        batch.append(optimizer._first_sign_changes(lanes))

    assert count_angles(monkeypatch, shapes, search, limit=min(bounds)) <= min(bounds)
    assert np.array_equal(batch[0], thetas)


_LENGTHS = st.one_of(st.integers(1, 40), st.integers(1, 10**6))
_COUNTS = st.one_of(st.integers(2, 40), st.integers(2, 10**15))


@given(
    shape=st.tuples(_LENGTHS, _COUNTS, _LENGTHS, _COUNTS),
    below=st.one_of(st.integers(0, 64), st.floats(0.0, 1.0, exclude_max=True)),
    above=st.one_of(st.integers(0, 64), st.floats(0.0, 1.0)),
)
@settings(max_examples=300, deadline=None)
def test_any_bracket_around_the_sign_change_bisects_to_the_same_bits(
    shape, below, above
):
    # the single solve's last step: from any lo where the predicate holds
    # (or 0) and any hi where it fails (or the bracket's top), bisection
    # ends on the full bracket's two adjacent floats; an integer end lies
    # that many ulps from theta*, a float one that share of the way to the
    # bracket's end
    params = TfsParams(*shape)
    theta = full_bracket_bisection(params)
    top = math.pi / (2 * max(params.m1, params.m2))
    ulp = math.ulp(theta)
    lo = max(theta - below * ulp, 0.0) if isinstance(below, int) else below * theta
    hi = min(theta + above * ulp, top) if isinstance(above, int) else (
        theta + above * (top - theta)
    )
    with np.errstate(all="ignore"):
        relation = functools.partial(optimizer._char_values, params)
        assume(lo == 0.0 or relation(lo) > 0.0)
        assume(hi == top or not relation(hi) > 0.0)
        assert bits(optimizer._first_sign_change(relation, hi, lo)) == bits(theta)


@st.composite
def lanes_and_angles(draw):
    """A few shapes, each with an angle in ``(0, pi / (2 max(m1, m2))]``."""
    lanes = []
    for _ in range(draw(st.integers(1, 4))):
        m1, n1, m2, n2 = (draw(_LENGTHS), draw(_COUNTS), draw(_LENGTHS), draw(_COUNTS))
        hi = math.pi / (2 * max(m1, m2))
        lanes.append(((m1, n1, m2, n2), draw(st.floats(0.0, hi, exclude_min=True))))
    return lanes


@given(lanes=lanes_and_angles())
@settings(max_examples=300, deadline=None)
def test_stacked_relation_has_the_bits_of_the_scalar_relation(lanes):
    shapes, thetas = zip(*lanes)
    rows = optimizer._relation_rows(_batch_shapes(list(np.array(shapes).T)))
    # each lane's rows broadcast over its one angle; at angles
    # near the smallest float a cotangent overflows or its sine is 0, on
    # both sides alike
    with np.errstate(all="ignore"):
        product = optimizer._relation(*rows, np.array(thetas))[0][0]
        expected = np.array([
            optimizer._char_values(TfsParams(*shape), theta)
            for shape, theta in lanes
        ])
    assert np.array_equal(bits(product - 1.0), bits(expected))
    assert np.array_equal(product > 1.0, expected > 0.0)


@given(
    shape=st.tuples(_LENGTHS, _COUNTS, _LENGTHS, _COUNTS),
    share=st.floats(1e-6, 1.0, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_scalar_newton_step_is_the_batch_step(shape, share):
    # the single solve's step in math and the batch's in numpy are one
    # formula written twice, summed in other orders; both searches read
    # it only where the predicate holds, below theta*
    params = TfsParams(*shape)
    theta = share * optimizer._theta_star(params)
    assume(optimizer._char_values(params, theta) > 0.0)
    m1, n1, m2, n2 = shape
    scalar = optimizer._newton_step(m1, 2.0 / n1, m2, 2.0 / n2, theta)
    rows = optimizer._relation_rows(_batch_shapes([np.array([v]) for v in shape]))
    batch = optimizer._relation(*rows, np.array([theta]))[1].item()
    assert scalar == pytest.approx(batch, rel=1e-12, abs=0.0)


def test_batch_broadcasts_and_is_read_only():
    batch = optimal_weights_batch(np.arange(1, 4)[:, None], 4, np.arange(1, 3), 3)
    assert batch.theta_star.shape == (3, 2)
    assert batch.s[2, 1] == optimal_weights(TfsParams(3, 4, 2, 3)).s
    single = optimal_weights_batch(3, 4, 4, 3)
    assert single.s.shape == ()
    assert float(single.w_minus_1) == optimal_weights(P343).weights[-1]
    with pytest.raises(ValueError):
        batch.s[0, 0] = 0.0
    assert optimal_weights_batch([], 2, [], 2).s.shape == (0,)


@pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3])
def test_inertia_check_agrees_with_computed_extremes(shift):
    # the self-check's counts, one count for both routes, accept exactly
    # where block_extremes puts both ends of the spectrum within 1e-9 of
    # where the slackness conditions put them, lambda2 at s and lambda_min
    # at -s, at the optimum and with w_-1 moved off it
    shapes = [
        (m1, n1, m2, n2)
        for n1 in (2, 3, 22)
        for n2 in (2, 4, 20)
        for m1 in (1, 2, 5, 10)
        for m2 in (1, 2, 5, 10)
    ] + EXTREME_SHAPES
    batch = solve_batch(shapes)
    w_minus = batch.w_minus_1 + shift
    cells = list(np.array(shapes, dtype=object).T)
    accepted = _skeleton_proves_slem(
        _batch_shapes(cells), batch.s, w_minus, batch.w_plus_1
    )
    expected = []
    for shape, wm, wp, s in zip(shapes, w_minus, batch.w_plus_1, batch.s):
        p = TfsParams(*shape)
        w = {label: 0.5 for label in p.orbit_labels}
        w[-1], w[1] = wm, wp
        report = block_extremes(build_blocks(p, orbit_weights_from_labels(p, w)))
        expected.append(
            abs(report.lambda2 - s) <= 1e-9 and abs(report.lambda_min + s) <= 1e-9
        )
    assert accepted.tolist() == expected
    if shift == 0.0:
        assert all(expected)
    if abs(shift) >= 1e-6:
        assert sum(expected) <= 1


def test_count_below_matches_dense_eigenvalues():
    rng = np.random.default_rng(7)
    size, stack = 9, 40
    diagonals = rng.uniform(-1.0, 1.0, (size, stack))
    off = rng.uniform(-0.6, 0.6, (size - 1, stack))
    off[rng.random(off.shape) < 0.2] = 0.0  # some decoupled rows
    shifts = rng.uniform(-1.5, 1.5, (3, stack))
    counts = count_eigenvalues_below(diagonals, off**2, shifts)
    for k in range(stack):
        dense = np.diag(diagonals[:, k])
        dense += np.diag(off[:, k], 1) + np.diag(off[:, k], -1)
        eigenvalues = np.linalg.eigvalsh(dense)
        for i in range(3):
            assert counts[i, k] == np.count_nonzero(eigenvalues < shifts[i, k])


def test_count_below_survives_a_zero_pivot():
    # a shift equal to a decoupled diagonal entry makes a pivot exactly
    # zero; it counts as negative and must not turn the next pivot into
    # 0/0
    diagonals = np.array([[0.5], [0.3], [0.9]])
    couplings = np.array([[0.0], [0.01]])
    assert count_eigenvalues_below(diagonals, couplings, np.array([0.5])).tolist() == [2]


def test_inertia_check_locates_the_slem_of_any_weights():
    # with arbitrary boundary weights the SLEM comes from the top of an arm
    # block or the bottom of the spectrum (the central block's second
    # eigenvalue interlaces below the arms' top), and the other end lies
    # elsewhere.  The counts locate the SLEM's end at s and reject it 2e-9
    # to either side, and the self-check, which proves an optimum's two
    # ends at s and -s, rejects every one of these weights
    rng = np.random.default_rng(3)
    shapes = [
        (int(rng.integers(1, 8)), int(rng.integers(2, 30)),
         int(rng.integers(1, 8)), int(rng.integers(2, 30)))
        for _ in range(150)
    ]
    w_minus, w_plus = rng.uniform(0.01, 0.3, (2, len(shapes)))
    slem, at_top = [], []
    for shape, wm, wp in zip(shapes, w_minus, w_plus):
        p = TfsParams(*shape)
        w = {label: 0.5 for label in p.orbit_labels}
        w[-1], w[1] = wm, wp
        report = block_extremes(build_blocks(p, orbit_weights_from_labels(p, w)))
        slem.append(report.slem)
        at_top.append(report.slem != -report.lambda_min)
    assert set(at_top) == {True, False}
    lanes = _batch_shapes(list(np.array(shapes).T))
    top = lanes[0] + lanes[2]
    for offset in (0.0, 2e-9, -2e-9):
        s = np.array(slem) + offset
        below = count_central_below(
            *skeleton_rows(_Shapes(*lanes), w_minus, w_plus),
            np.stack([lanes[0], lanes[2]]),
            _self_check_shifts(s),
        )
        bounded = (below[0] == 0).all(axis=0) & (below[3] >= top).all(axis=0)
        near_top = (below[2] < top).any(axis=0)
        near_bottom = (below[1] > 0).any(axis=0)
        located = bounded & np.where(at_top, near_top, near_bottom)
        assert located.tolist() == [offset == 0.0] * len(shapes), offset
        checked = _skeleton_proves_slem(lanes, s, w_minus, w_plus)
        assert not checked.any(), offset


def test_no_optimum_computes_an_eigenvalue(monkeypatch, capsys):
    # every optimum is self-checked by eigenvalue counts alone
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue was computed")

    monkeypatch.setattr(_RunCount, "read", refuse)
    monkeypatch.setattr(reference, "tridiagonal_spectrum", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for shape in [(3, 4, 4, 3), (800, 5, 790, 7)] + EXTREME_SHAPES:
        assert optimal_weights(TfsParams(*shape)).s > 0.0
    assert solve_symmetric_star(5, 18).s > 0.0
    argv = ["simulate", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3",
            "--scheme", "optimal", "--steps", "20", "--tail", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out


def scalar_loop_error(shapes):
    with pytest.raises(Exception) as info:
        for shape in shapes:
            optimal_weights(TfsParams(*shape))
    return info.value


def grid(n1, n2, m_max=10):
    lengths = range(1, m_max + 1)
    return [(m1, n1, m2, n2) for m1 in lengths for m2 in lengths]


@pytest.mark.parametrize(
    "shapes",
    [
        grid(1, 3),
        grid(3, 1),
        grid(0, 3),
        [(1, 2, 1, 2), (2, 2, 2, 2), (2, 1, 2, 2), (3, 0, 3, 2)],
        [(1, 2, 1, 2), (2, 2, 2, 10**400)],
    ],
)
def test_batch_rejects_the_first_invalid_shape_like_the_scalar_loop(shapes):
    expected = scalar_loop_error(shapes)
    assert isinstance(expected, InvalidParameterError)
    with pytest.raises(InvalidParameterError) as info:
        solve_batch(shapes)
    assert str(info.value) == str(expected)


def test_boundary_weights_stay_clear_of_a_vanishing_denominator():
    # on the bracket (m - 1/2) theta <= pi/2 - pi/(4m), so the product
    # form's denominator cos((m - 1/2) theta) is at least sin(pi/(4m)) at
    # theta*, whatever the branch counts
    rng = np.random.default_rng(20240)
    count = 10**5
    m = np.floor(np.exp(rng.uniform(0.0, math.log(1e6), (2, count))))
    n = np.floor(np.exp(rng.uniform(math.log(2.0), math.log(1e300), (2, count))))
    batch = optimal_weights_batch(m[0], n[0], m[1], n[1])
    for length, weight in ((m[0], batch.w_minus_1), (m[1], batch.w_plus_1)):
        den = np.cos((length - 0.5) * batch.theta_star)
        assert (den >= np.sin(np.pi / (4 * length)) * (1 - 1e-12)).all()
        assert (np.isfinite(weight) & (weight > 0.0) & (weight < 1.0)).all()


def test_batch_reports_the_first_failing_shape_in_input_order(monkeypatch):
    # every shape with m1 + m2 >= 15 fails on both routes; the error must
    # name the first failing shape in input order, here (5, 10), not the
    # first in order of m1 + m2, (6, 9)
    def reject_long(shapes, s, w_minus, w_plus):
        return shapes[0] + shapes[2] < 15

    monkeypatch.setattr(optimizer, "_skeleton_proves_slem", reject_long)
    with pytest.raises(SelfCheckError, match=r"m1=5, n1=3, m2=10, n2=4"):
        solve_batch(grid(3, 4))


def test_a_failing_long_shape_is_reported_in_memory_free_of_its_length(
    monkeypatch,
):
    # the error names the lane's own s, which has the scalar route's bits,
    # without a second solve of the shape on an O(m) weight vector
    def reject_long(shapes, s, w_minus, w_plus):
        return shapes[0] < 10**12

    monkeypatch.setattr(optimizer, "_skeleton_proves_slem", reject_long)
    params = TfsParams(10**12, 2, 10**12, 2)
    s = float(np.cos(optimizer._theta_star(params)))
    expected = optimizer._self_check_error(params, s)
    tracemalloc.start()
    try:
        with pytest.raises(SelfCheckError) as info:
            solve_batch([(3, 4, 4, 3), (10**12, 2, 10**12, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == str(expected)
    assert peak < 2**20


def test_a_failing_shape_past_the_first_slice_is_reported_in_input_order(
    monkeypatch,
):
    # in slices of 7 shapes, (5, 10) is shape 49, in the eighth slice
    def reject_long(shapes, s, w_minus, w_plus):
        return shapes[0] + shapes[2] < 15

    monkeypatch.setattr(optimizer, "_ONE_CALL_LANES", 7)
    monkeypatch.setattr(optimizer, "_skeleton_proves_slem", reject_long)
    with pytest.raises(SelfCheckError, match=r"m1=5, n1=3, m2=10, n2=4"):
        solve_batch(grid(3, 4))


@pytest.mark.parametrize("size", [1, 7, 8192])
@pytest.mark.parametrize(
    "shapes",
    [*BATCH_SHAPES.values(), grid(3, 4, m_max=20), grid(22, 2, m_max=20)],
    ids=[*BATCH_SHAPES, "grid-3-4", "grid-22-2"],
)
def test_slices_of_any_size_return_the_bits_of_one_slice(
    monkeypatch, shapes, size
):
    # a lane's bits do not depend on the lanes solved beside it; slices of
    # one shape take 16 s on the 10^4 log-uniform shapes, so they solve its
    # first 1000 (slices of 8192 cut it in two)
    if size == 1:
        shapes = shapes[:1000]
    monkeypatch.setattr(optimizer, "_ONE_CALL_LANES", len(shapes))
    whole = solve_batch(shapes)
    monkeypatch.setattr(optimizer, "_ONE_CALL_LANES", size)
    sliced = solve_batch(shapes)
    for field in ("theta_star", "s", "w_minus_1", "w_plus_1"):
        assert np.array_equal(
            bits(getattr(sliced, field)), bits(getattr(whole, field))
        ), field


def test_batch_of_one_long_shape_takes_no_memory_in_its_length():
    # its self-check counts a few skeleton rows, whatever the arm lengths
    shape = (10**5, 3, 10**5, 4)
    tracemalloc.start()
    try:
        batch = optimal_weights_batch(*shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    sol = optimal_weights(TfsParams(*shape))
    assert bits(batch.theta_star) == bits(sol.theta_star)
    assert bits(batch.s) == bits(sol.s)
    assert bits(batch.w_minus_1) == bits(sol.weights[-1])
    assert bits(batch.w_plus_1) == bits(sol.weights[1])


def test_single_solve_memory_in_orbit_vectors():
    # the solution keeps the weights and the central block's two diagonals,
    # which the arm blocks slice without a copy and the counts read as they
    # are; a count's set-up takes the couplings' magnitudes for a while
    shape = TfsParams(10**5, 3, 10**5, 4)
    optimal_weights(TfsParams(3, 4, 4, 3))
    tracemalloc.start()
    try:
        sol = optimal_weights(shape)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    orbit_vector = 8 * (shape.m1 + shape.m2)
    assert retained <= 3.5 * orbit_vector
    assert peak <= 6 * orbit_vector
    assert sol.weights.values.size == shape.m1 + shape.m2


def test_batch_memory_is_bounded_on_a_large_grid():
    # stacked whole, this grid's blocks would take 90000 x 601 rows x 32
    # bytes, about 1.7 GB; the batch solves it in slices of 8192 shapes,
    # each self-checked on a few skeleton rows per shape
    m1, m2 = np.divmod(np.arange(300 * 300), 300)
    tracemalloc.start()
    try:
        batch = optimal_weights_batch(m1 + 1, 3, m2 + 1, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (4, shapes) shape array of 2.9 MB and the (5, shapes) result
    # buffer of 3.6 MB, beside one slice's root search and counts: a peak
    # of about 12.6 MiB
    assert peak < 13 * 2**20
    lanes = slice(0, optimizer._ONE_CALL_LANES)
    cells = np.broadcast_arrays(m1[lanes] + 1, 3, m2[lanes] + 1, 4)
    shapes = _batch_shapes(cells)
    tracemalloc.start()
    try:
        theta = optimizer._first_sign_changes(shapes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one slice's rows of one angle a shape stay near 1.6 MB beside its
    # 64 kB of roots
    assert peak < 2 * 2**20
    assert np.array_equal(theta, batch.theta_star[lanes])
    for index in (0, 299, 90000 - 1):
        sol = optimal_weights(TfsParams(int(m1[index]) + 1, 3, int(m2[index]) + 1, 4))
        assert batch.theta_star[index] == sol.theta_star
