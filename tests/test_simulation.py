"""Consensus iteration, distributed-gather equivalence, rate estimation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fusedstar.optimizer import optimal_weights
from fusedstar.reference import iterate, matrix_rounds
from fusedstar.simulation import (
    InsufficientSignalError,
    Trajectory,
    convergence_factor_estimate,
    distributed_iterate,
    distributed_rounds,
    random_initial_state,
    write_trajectory_csv,
)
from fusedstar.topology import TfsParams, build_topology, edge_table
from fusedstar.weighting import (
    OrbitWeights,
    assemble_weight_matrix,
    max_degree_orbit_weights,
)


def random_weights(params, seed):
    rng = np.random.default_rng(seed)
    return OrbitWeights.from_labels(
        params, {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
    )


def first(rounds, steps):
    """The states x(1..steps) of a stream."""
    return list(itertools.islice(rounds, steps))


def gather_reference(params, weights, x0, steps):
    """The protocol edge by edge: every node adds w_e * x(neighbor) over
    its edges with two ``np.add.at`` passes over the edge table."""
    ends_a, ends_b, orbit = edge_table(params)
    edge_w = weights.values_for(params)[orbit]
    incident = np.zeros(params.n_nodes)
    np.add.at(incident, ends_a, edge_w)
    np.add.at(incident, ends_b, edge_w)
    keep = 1.0 - incident
    states = np.empty((steps + 1, params.n_nodes))
    states[0] = x0
    for t in range(steps):
        x, nxt = states[t], states[t + 1]
        np.multiply(keep, x, out=nxt)
        np.add.at(nxt, ends_a, edge_w * x[ends_b])
        np.add.at(nxt, ends_b, edge_w * x[ends_a])
    return states


def bounded_random_weights(params, seed):
    """Random orbit weights whose rows stay a convex combination, so a
    long run neither overflows nor leaves [0, 100)."""
    rng = np.random.default_rng(seed)
    w = {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
    hub = params.n1 + params.n2
    w[-1] = rng.uniform(0.05, 1.0) / hub
    w[1] = rng.uniform(0.05, 1.0) / hub
    return OrbitWeights.from_labels(params, w)


STENCIL_SHAPES = [
    (1, 1, 1, 1), (1, 5, 7, 3), (2, 3, 3, 2), (3, 4, 4, 3),
    (3, 500, 2, 700), (10, 200, 1, 1),
]
STENCIL_CASES = [
    (shape, scheme)
    for shape in STENCIL_SHAPES
    for scheme in ("random", "max-degree", "optimal")
    # the optimum is defined for two or more branches per star
    if scheme != "optimal" or min(shape[1], shape[3]) >= 2
]


@pytest.mark.parametrize("shape, scheme", STENCIL_CASES)
def test_distributed_iterate_equals_per_edge_gather(shape, scheme):
    p = TfsParams(*shape)
    ow = {
        "random": lambda: bounded_random_weights(p, sum(shape)),
        "max-degree": lambda: max_degree_orbit_weights(p, convention="inv_dmax"),
        "optimal": lambda: optimal_weights(p).weights,
    }[scheme]()
    x0 = random_initial_state(p.n_nodes, seed=sum(shape))
    steps = 60
    graph = build_topology(p)
    reference = gather_reference(p, ow, x0, steps)
    for state, expected in zip(
        first(distributed_rounds(graph, ow, x0), steps), reference[1:], strict=True
    ):
        assert np.array_equal(state, expected)
    # the per-step statistics are the whole-array reductions, bitwise
    traj = distributed_iterate(graph, ow, x0, steps)
    assert np.array_equal(
        traj.error_norms, np.linalg.norm(reference - x0.mean(), axis=1)
    )
    sums = reference.sum(axis=1)
    assert np.array_equal(traj.sum_deviations(), np.abs(sums - sums[0]))


def test_distributed_iterate_memory_does_not_grow_with_steps():
    p = TfsParams(6, 1200, 6, 1100)
    ow = max_degree_orbit_weights(p, convention="inv_dmax")
    x0 = random_initial_state(p.n_nodes, seed=1)
    graph = build_topology(p)
    for steps in (200, 2000):
        tracemalloc.start()
        try:
            distributed_iterate(graph, ow, x0, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * p.n_nodes * 8


def test_constant_state_is_fixed():
    p = TfsParams(2, 2, 3, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.3))
    ones = np.ones(p.n_nodes)
    for state in first(matrix_rounds(wm, ones), 20):
        assert np.allclose(state, 1.0, atol=1e-13)
    traj = iterate(wm, ones, 20)
    assert traj.n_steps == 20
    assert traj.average == 1.0


def test_identity_matrix_freezes_state():
    p = TfsParams(1, 2, 1, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.0))
    x0 = random_initial_state(p.n_nodes, seed=1)
    for state in first(matrix_rounds(wm, x0), 10):
        assert np.array_equal(state, x0)


def test_dimension_mismatch():
    p = TfsParams(1, 2, 1, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.2))
    with pytest.raises(ValueError):
        iterate(wm, np.ones(p.n_nodes + 1), 5)
    with pytest.raises(ValueError):
        distributed_rounds(build_topology(p), OrbitWeights.constant(p, 0.2), np.ones(3))


def test_trajectory_bookkeeping():
    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    x0 = random_initial_state(p.n_nodes, seed=3)
    traj = iterate(wm, x0, 40)
    assert traj.n_steps == 40
    assert traj.sums.size == 41
    assert traj.average == x0.mean()
    assert traj.sums[0] == np.add.reduce(x0)
    assert np.all(np.asarray(traj.error_norms) >= 0)


def test_trajectory_copies_caller_arrays():
    errors = np.ones(3)
    sums = np.array([6.0, 22.0, 38.0])
    traj = Trajectory(error_norms=errors, sums=sums, average=np.float64(1.5))
    for mine, held in ((errors, traj.error_norms), (sums, traj.sums)):
        assert not np.shares_memory(mine, held)
        assert not held.flags.writeable
    assert type(traj.average) is float and traj.average == 1.5
    assert np.array_equal(traj.sum_deviations(), [0.0, 16.0, 32.0])
    errors[0] = sums[0] = -7.0
    assert traj.error_norms[0] == 1.0
    assert traj.sums[0] == 6.0
    with pytest.raises(ValueError):
        Trajectory(error_norms=errors, sums=sums[:2], average=1.5)


def test_iterated_trajectories_are_read_only_and_detached():
    p = TfsParams(2, 3, 2, 2)
    ow = random_weights(p, 5)
    x0 = random_initial_state(p.n_nodes, seed=5)
    for rounds in (
        matrix_rounds(assemble_weight_matrix(p, ow), x0),
        distributed_rounds(build_topology(p), ow, x0),
    ):
        states = first(rounds, 6)
        for t, state in enumerate(states):
            assert state.shape == x0.shape
            assert not state.flags.writeable
            assert not np.shares_memory(state, x0)
            assert not any(np.shares_memory(state, s) for s in states[:t])
    for traj in (
        iterate(assemble_weight_matrix(p, ow), x0, 6),
        distributed_iterate(build_topology(p), ow, x0, 6),
    ):
        for arr in (traj.error_norms, traj.sums):
            assert not arr.flags.writeable


def test_sum_conservation():
    from fusedstar.weighting import metropolis_orbit_weights

    p = TfsParams(3, 2, 2, 4)
    wm = assemble_weight_matrix(p, metropolis_orbit_weights(p))
    x0 = random_initial_state(p.n_nodes, seed=9)
    traj = iterate(wm, x0, 200)
    budget = 1e-9 * np.abs(x0).sum()
    assert max(abs(d) for d in traj.sum_deviations()) <= budget


def test_distributed_matches_matrix_route():
    p = TfsParams(2, 3, 3, 2)
    g = build_topology(p)
    ow = random_weights(p, 17)
    x0 = random_initial_state(p.n_nodes, seed=17)
    a = first(matrix_rounds(assemble_weight_matrix(p, ow), x0), 100)
    b = first(distributed_rounds(g, ow, x0), 100)
    for sa, sb in zip(a, b, strict=True):
        assert np.max(np.abs(sa - sb)) <= 1e-12


def test_convergence_factor_at_optimum():
    p = TfsParams(3, 4, 4, 3)
    sol = optimal_weights(p)
    wm = assemble_weight_matrix(p, sol.weights)
    x0 = random_initial_state(p.n_nodes, seed=0)
    traj = iterate(wm, x0, 500)
    estimate = convergence_factor_estimate(traj, tail=50)
    assert estimate == pytest.approx(0.9545, abs=1e-3)


def test_convergence_factor_orders_schemes():
    p = TfsParams(3, 4, 4, 3)
    x0 = random_initial_state(p.n_nodes, seed=5)
    opt = iterate(assemble_weight_matrix(p, optimal_weights(p).weights), x0, 400)
    slow = iterate(
        assemble_weight_matrix(p, max_degree_orbit_weights(p, convention="inv_dmax")),
        x0,
        400,
    )
    assert convergence_factor_estimate(slow, tail=50) > convergence_factor_estimate(
        opt, tail=50
    )


def test_error_norms_contract_geometrically():
    p = TfsParams(2, 2, 2, 2)
    sol = optimal_weights(p)
    wm = assemble_weight_matrix(p, sol.weights)
    x0 = random_initial_state(p.n_nodes, seed=11)
    traj = iterate(wm, x0, 300)
    errors = np.asarray(traj.error_norms)
    keep = errors > 1e-8  # stay clear of the rounding floor
    t = np.arange(errors.size)[keep]
    slope = np.polyfit(t, np.log(errors[keep]), 1)[0]
    assert slope <= math.log(sol.s) + 1e-3


def test_convergence_factor_rejects_flat_signal():
    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    traj = iterate(wm, np.ones(p.n_nodes), 100)
    with pytest.raises(InsufficientSignalError):
        convergence_factor_estimate(traj, tail=50)


def test_convergence_factor_window_validation():
    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    traj = iterate(wm, random_initial_state(p.n_nodes, seed=2), 30)
    with pytest.raises(ValueError):
        convergence_factor_estimate(traj, tail=1)
    with pytest.raises(ValueError):
        convergence_factor_estimate(traj, tail=31)


def test_random_initial_state_reproducible():
    a = random_initial_state(10, seed=4)
    b = random_initial_state(10, seed=4)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 100.0


def test_trajectory_csv(tmp_path):
    p = TfsParams(1, 2, 1, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    traj = iterate(wm, random_initial_state(p.n_nodes, seed=6), 5)
    out = tmp_path / "traj.csv"
    with out.open("w", newline="") as fh:
        write_trajectory_csv(traj, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,error_norm,sum_deviation"
    assert len(lines) == 7  # header + states 0..5
    assert lines[1].startswith("0,")
