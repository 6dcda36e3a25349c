"""Characteristic-relation root finding and the analytic optimum."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fusedstar.optimizer import (
    NoRootsError,
    PoleProximityError,
    RootCountMismatchWarning,
    char_residual,
    equivalent_star,
    optimal_weights,
    solve_symmetric_star,
    solve_theta_roots,
)
from fusedstar.spectral import block_spectrum, build_blocks, full_spectrum
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
    with pytest.raises(ValueError):
        solve_theta_roots(P343, grid_points=100)
    with pytest.raises(ValueError):
        solve_theta_roots(P343, tol=2.0)


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
# or misplace, so the self-check failed
@pytest.mark.parametrize(
    "params",
    [(1, 2, 1000, 2), (2000, 2, 1, 2), (1, 10**6, 1, 3), (50, 10**7, 60, 10**7)],
)
def test_extreme_shapes_return_self_checked_optimum(params):
    p = TfsParams(*params)
    sol = optimal_weights(p)
    assert 0 < sol.theta_star < math.pi / (2 * max(p.m1, p.m2))
    assert abs(block_spectrum(build_blocks(p, sol.weights)).slem - sol.s) <= 1e-9


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
    base = dict(sol.weights.w)
    rng = np.random.default_rng(42)
    for _ in range(100):
        trial = dict(base)
        trial[-1] = base[-1] + rng.uniform(-0.05, 0.05)
        trial[1] = base[1] + rng.uniform(-0.05, 0.05)
        report = block_spectrum(build_blocks(p, OrbitWeights(trial)))
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
