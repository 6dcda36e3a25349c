"""Characteristic-relation root finding and the analytic optimum."""

import argparse
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fusedstar import cli, optimizer, reference
from fusedstar.cli import main
from fusedstar.optimizer import (
    DegenerateSineError,
    SelfCheckError,
    _batch_shapes,
    _skeleton_proves_slem,
    optimal_weights,
    optimal_weights_batch,
    solve_symmetric_star,
)
from fusedstar.reference import (
    NoRootsError,
    PoleProximityError,
    RootCountMismatchWarning,
    block_spectrum,
    char_residual,
    equivalent_star,
    solve_theta_roots,
)
from fusedstar.spectral import (
    Tridiagonal,
    block_extremes,
    build_blocks,
    count_eigenvalues_below,
    full_spectrum,
)
from fusedstar.topology import InvalidParameterError, TfsParams
from fusedstar.weighting import OrbitWeights, assemble_weight_matrix

P343 = TfsParams(3, 4, 4, 3)

# frozen solver outputs for (3,4,4,3)
THETA_343 = 0.30280276095670755
S_343 = 0.9545044654072468
WM1_343 = 0.16361147830979006
WP1_343 = 0.2886837942392352
ROOTS_343 = [0.302803, 0.457494, 1.016169, 1.365969, 1.837120, 2.259665, 2.702325]


def test_char_residual_formula():
    p = TfsParams(2, 3, 1, 4)
    theta = 0.7
    c1 = 2.0 / p.n1 / math.tan(p.m1 * theta) / math.tan(theta / 2)
    c2 = 2.0 / p.n2 / math.tan(p.m2 * theta) / math.tan(theta / 2)
    expected = (c1 - 1.0) * (c2 - 1.0) - 1.0
    assert char_residual(p, theta) == pytest.approx(expected, rel=1e-14)


def test_char_residual_domain():
    p = TfsParams(2, 2, 2, 2)
    with pytest.raises(ValueError):
        char_residual(p, 0.0)
    with pytest.raises(ValueError):
        char_residual(p, math.pi)
    # sin(m1 theta) vanishes at theta = pi/2 for m1 = 2
    with pytest.raises(PoleProximityError):
        char_residual(p, math.pi / 2)
    with pytest.raises(PoleProximityError):
        char_residual(p, math.pi / 2 + 1e-10)


def test_char_residual_at_table_value():
    assert abs(char_residual(P343, math.acos(0.9545))) <= 1e-3


def test_char_residual_swap_symmetry():
    p = TfsParams(3, 4, 2, 5)
    for theta in (0.3, 0.9, 1.7, 2.4):
        assert char_residual(p, theta) == pytest.approx(
            char_residual(p.swap(), theta), rel=1e-13
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
        assert abs(char_residual(p, root)) <= 1e-8


def test_theta_roots_343():
    roots = solve_theta_roots(P343)
    assert len(roots.roots) == 7
    assert np.allclose(roots.roots, ROOTS_343, atol=1e-5)
    assert math.cos(roots.roots[0]) == pytest.approx(0.9545, abs=1e-4)
    assert roots.residuals.max() <= 1e-10
    assert np.all(np.diff(roots.roots) > 0)
    assert roots.roots[0] > 0 and roots.roots[-1] < math.pi


def test_theta_roots_medium_network():
    roots = solve_theta_roots(TfsParams(10, 20, 20, 10))
    assert math.cos(roots.roots[0]) == pytest.approx(0.997739, abs=1e-6)
    assert roots.residuals.max() <= 1e-10


def test_theta_roots_validation():
    with pytest.raises(InvalidParameterError):
        solve_theta_roots(TfsParams(2, 1, 2, 2))


def test_root_count_mismatch_warns():
    # genuine eigenvalue angles can sit inside excluded pole neighborhoods;
    # the solver reports the discrepancy but still returns the good roots
    with pytest.warns(RootCountMismatchWarning):
        roots = solve_theta_roots(TfsParams(1, 2, 3, 2))
    assert roots.roots.size >= 3
    assert roots.residuals.max() <= 1e-10


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
    ],
)
def test_bisection_matches_smallest_scanned_root(params):
    p = TfsParams(*params)
    with warnings.catch_warnings():
        # the reference scan may miss roots near poles; its smallest root
        # sits below the first pole and is unaffected
        warnings.simplefilter("ignore", RootCountMismatchWarning)
        reference = solve_theta_roots(p).roots[0]
    assert abs(optimal_weights(p).theta_star - reference) <= 1e-11


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
        report = block_spectrum(build_blocks(p, OrbitWeights.from_labels(p, trial)))
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


def boundary_weight(m, theta):
    weight, degenerate = optimizer._boundary_weights(np.float64(m), np.float64(theta))
    assert not degenerate
    return float(weight)


def bare_bisection(shapes):
    """theta*, s, w_{-1} and w_1 of each shape, as bits, from bisection on
    the scalar relation and the boundary-weight formula at each arm's
    length alone, without a self-check or an O(m) weight vector."""
    lanes = []
    for shape in shapes:
        params = TfsParams(*map(int, shape))
        theta = optimizer._first_sign_change(
            lambda theta: float(optimizer._char_values(params, theta)),
            math.pi / (2 * max(params.m1, params.m2)),
        )
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


BATCH_SHAPES = {
    "custom-grids": CRITERION_3_GRID,
    "fig2": fig2_shapes(8) + fig2_shapes(30),
    "log-uniform": log_uniform_shapes(10**4),
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
    # counts, the shapes of `sweep fig2` and `--mbar-max 30`, and a
    # seeded sample up to m = 1e6 and n = 1e15
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
        w = optimizer._weights_at(params, theta).values
        lanes.append((theta, float(np.cos(theta)), w[params.m1 - 1], w[params.m1]))
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


def count_evaluations(monkeypatch, shapes):
    calls = []
    evaluate = optimizer._relation

    def counting(*args, **kwargs):
        calls.append(None)
        return evaluate(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_relation", counting)
        solve_batch(shapes)
    return len(calls)


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
    # to linear convergence; each evaluation judges two points a shape
    for n1 in BRANCH_COUNTS:
        for n2 in BRANCH_COUNTS:
            assert count_evaluations(monkeypatch, grid(n1, n2)) <= 7, (n1, n2)
    assert count_evaluations(monkeypatch, fig2_shapes(8)) <= 7
    # the 10^4 log-uniform shapes in one slice
    monkeypatch.setattr(optimizer, "_ONE_CALL_LANES", 10**4)
    assert count_evaluations(monkeypatch, BATCH_SHAPES["log-uniform"]) <= 7


@pytest.mark.parametrize("shape", EXTREME_SHAPES)
def test_newton_search_stays_within_twice_bisection(monkeypatch, shape):
    # the docstring's bound: where the bracket has not shrunk to a quarter
    # over two evaluations the next one takes its midpoint, so the width
    # falls as 2**(-k/2) at least and a lane takes at most about twice
    # the bisection's; (2, 10**300, 2, 2) bisects about 500 times
    bound = 2 * bisection_evaluations(shape)
    assert count_evaluations(monkeypatch, [shape]) <= bound


@pytest.mark.parametrize(
    "shapes",
    [
        [(m, n, m, n) for m in (1, 3, 10, 100, 10**4)]
        for n in (10**2, 10**6, 10**10, 10**15)
    ] + [[(2, 10**300, 2, 2)]],
    ids=["n=1e2", "n=1e6", "n=1e10", "n=1e15", "n=1e300"],
)
def test_root_search_evaluations_do_not_grow_with_branch_counts(
    monkeypatch, shapes
):
    # the closed-form start is as close at every branch count; a search
    # from the bracket's midpoint took 33 evaluations at n = 1e15 and 509
    # at (2, 10**300, 2, 2)
    assert count_evaluations(monkeypatch, shapes) <= 6


def scalar_evaluations(monkeypatch, solve, shape):
    calls = []
    evaluate = optimizer._char_values

    def counting(params, theta):
        calls.append(None)
        return evaluate(params, theta)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_char_values", counting)
        solve(TfsParams(*map(int, shape)))
    return len(calls)


@SCALAR_SAMPLES
def test_single_solve_pins_theta_star_in_few_evaluations(monkeypatch, name):
    # bisection takes 52 to 55 evaluations on most of these shapes and 550
    # on (2, 10**300, 2, 2); the search judges at most two points a step
    counts = [
        scalar_evaluations(monkeypatch, optimizer._theta_star, shape)
        for shape in SCALAR_SHAPES[name]
    ]
    assert max(counts) <= 14


@pytest.mark.parametrize(
    "shapes",
    [
        [(m, n, m, n) for m in (1, 3, 10, 100, 10**4)]
        for n in (10**2, 10**6, 10**10, 10**15)
    ] + [[(2, 10**300, 2, 2)]],
    ids=["n=1e2", "n=1e6", "n=1e10", "n=1e15", "n=1e300"],
)
def test_single_solve_evaluations_do_not_grow_with_branch_counts(
    monkeypatch, shapes
):
    # bisection took 77 evaluations at n = 1e15 and 550 at
    # (2, 10**300, 2, 2); the closed-form start is as close at every count
    for shape in shapes:
        assert scalar_evaluations(monkeypatch, optimal_weights, shape) <= 14, shape


_LENGTHS = st.one_of(st.integers(1, 40), st.integers(1, 10**6))
_COUNTS = st.one_of(st.integers(2, 40), st.integers(2, 10**15))


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
    # each lane's angle broadcasts over both of its trial points; at angles
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
    # where block_extremes puts the SLEM within 1e-9 of s, at the optimum
    # and with w_-1 moved off it
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
        blocks = build_blocks(p, OrbitWeights.from_labels(p, w))
        expected.append(abs(block_extremes(blocks).slem - s) <= 1e-9)
    assert accepted.tolist() == expected
    if shift in (0.0, -1e-12):
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
    # eigenvalue interlaces below the arms' top); the self-check's counts
    # must accept s at the computed SLEM and reject it 2e-9 to either side
    rng = np.random.default_rng(3)
    shapes = [
        (int(rng.integers(1, 8)), int(rng.integers(2, 30)),
         int(rng.integers(1, 8)), int(rng.integers(2, 30)))
        for _ in range(150)
    ]
    w_minus, w_plus = rng.uniform(0.01, 0.3, (2, len(shapes)))
    slem, sources = [], set()
    for shape, wm, wp in zip(shapes, w_minus, w_plus):
        p = TfsParams(*shape)
        w = {label: 0.5 for label in p.orbit_labels}
        w[-1], w[1] = wm, wp
        report = block_extremes(build_blocks(p, OrbitWeights.from_labels(p, w)))
        slem.append(report.slem)
        sources.add("lowest" if report.slem == -report.lambda_min else "top")
    assert sources == {"lowest", "top"}
    cells = list(np.array(shapes).T)
    for offset, accept in ((0.0, True), (2e-9, False), (-2e-9, False)):
        s = np.array(slem) + offset
        checked = _skeleton_proves_slem(_batch_shapes(cells), s, w_minus, w_plus)
        assert checked.tolist() == [accept] * len(shapes), offset


def test_no_optimum_computes_an_eigenvalue(monkeypatch, capsys):
    # every optimum is self-checked by eigenvalue counts alone
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue was computed")

    monkeypatch.setattr(Tridiagonal, "eigenvalues", refuse)
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


def test_batch_raises_the_scalar_degenerate_sine_error(monkeypatch):
    # no shape of this grid comes near a vanishing denominator, so raise
    # the threshold until the longer arms count as degenerate
    monkeypatch.setattr(optimizer, "_DEGENERATE", 0.2)
    shapes = grid(2, 22)
    expected = scalar_loop_error(shapes)
    assert isinstance(expected, DegenerateSineError)
    with pytest.raises(DegenerateSineError) as info:
        solve_batch(shapes)
    assert str(info.value) == str(expected)


def test_batch_reports_the_first_failing_shape_in_input_order(monkeypatch):
    # every shape with m1 + m2 >= 15 fails on both routes; the error must
    # name the first failing shape in input order, here (5, 10), not the
    # first in order of m1 + m2, (6, 9)
    def reject_long(shapes, s, w_minus, w_plus):
        return shapes.m1 + shapes.m2 < 15

    monkeypatch.setattr(optimizer, "_skeleton_proves_slem", reject_long)
    with pytest.raises(SelfCheckError, match=r"m1=5, n1=3, m2=10, n2=4"):
        solve_batch(grid(3, 4))


def test_a_failing_shape_past_the_first_slice_is_reported_in_input_order(
    monkeypatch,
):
    # in slices of 7 shapes, (5, 10) is shape 49, in the eighth slice
    def reject_long(shapes, s, w_minus, w_plus):
        return shapes.m1 + shapes.m2 < 15

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
    # 2.9 MB of results and the grid's 1.4 MB of float branch lengths
    # beside one slice's root search and counts; each constant branch
    # count is one float under its lanes' views
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
    # one slice's stacks of two points a shape stay near 3 MB beside its
    # 64 kB of roots
    assert peak < 4 * 2**20
    assert np.array_equal(theta, batch.theta_star[lanes])
    for index in (0, 299, 90000 - 1):
        sol = optimal_weights(TfsParams(int(m1[index]) + 1, 3, int(m2[index]) + 1, 4))
        assert batch.theta_star[index] == sol.theta_star
