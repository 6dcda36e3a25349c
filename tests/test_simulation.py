"""Consensus iteration, distributed-gather equivalence, rate estimation."""

import csv
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusedstar import simulation
from fusedstar.optimizer import optimal_weights
from fusedstar.reference import (
    distributed_iterate,
    distributed_rounds,
    iterate,
    matrix_rounds,
)
from fusedstar.simulation import (
    InsufficientSignalError,
    Trajectory,
    convergence_factor_estimate,
    random_initial_state,
    stratified_iterate,
    write_trajectory_csv,
)
from fusedstar.spectral import build_blocks
from fusedstar.topology import TfsParams, edge_table
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


def scheme_cases(shapes):
    return [
        (shape, scheme)
        for shape in shapes
        for scheme in ("random", "max-degree", "optimal")
        # the optimum is defined for two or more branches per star
        if scheme != "optimal" or min(shape[1], shape[3]) >= 2
    ]


STENCIL_CASES = scheme_cases(STENCIL_SHAPES)


def scheme_weights(p, scheme):
    seed = p.m1 + p.n1 + p.m2 + p.n2
    return {
        "random": lambda: bounded_random_weights(p, seed),
        "max-degree": lambda: max_degree_orbit_weights(p, convention="inv_dmax"),
        "optimal": lambda: optimal_weights(p).weights,
    }[scheme]()


@pytest.mark.parametrize("shape, scheme", STENCIL_CASES)
def test_distributed_iterate_equals_per_edge_gather(shape, scheme):
    p = TfsParams(*shape)
    ow = scheme_weights(p, scheme)
    x0 = random_initial_state(p.n_nodes, seed=sum(shape))
    steps = 60
    reference = gather_reference(p, ow, x0, steps)
    for state, expected in zip(
        first(distributed_rounds(p, ow, x0), steps), reference[1:], strict=True
    ):
        assert np.array_equal(state, expected)
    # the per-step statistics are the whole-array reductions, bitwise
    traj = distributed_iterate(p, ow, x0, steps)
    assert np.array_equal(
        traj.error_norms, np.linalg.norm(reference - x0.mean(), axis=1)
    )
    sums = reference.sum(axis=1)
    assert np.array_equal(traj.sum_deviations(), np.abs(sums - sums[0]))


@pytest.mark.parametrize("route", ["stencil", "strata"])
def test_distributed_iterate_memory_does_not_grow_with_steps(route):
    p = TfsParams(6, 1200, 6, 1100)
    ow = max_degree_orbit_weights(p, convention="inv_dmax")
    x0 = random_initial_state(p.n_nodes, seed=1)
    run = {
        "stencil": lambda steps: distributed_iterate(p, ow, x0, steps),
        "strata": lambda steps: stratified_iterate(p, ow, x0, steps),
    }[route]
    for steps in (200, 2000):
        tracemalloc.start()
        try:
            run(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * p.n_nodes * 8


def test_stratified_iterate_memory_on_a_long_arm():
    # the round buffers come after the set-up's state-length vectors go,
    # and the set-up's profile and factors go once they are in the lanes
    p = TfsParams(200_000, 2, 200_000, 3)
    ow = max_degree_orbit_weights(p, convention="inv_dmax")
    x0 = random_initial_state(p.n_nodes, seed=1)
    tracemalloc.start()
    try:
        stratified_iterate(p, ow, x0, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * p.n_nodes * 8


# n below, equal to and above m on each arm, n - 1 equal to m, and n = 1
RANK_SHAPES = [
    (4, 2, 3, 9), (4, 4, 3, 3), (4, 5, 3, 4), (4, 9, 3, 2), (3, 1, 2, 6),
    (5, 3, 1, 1),
]


def estimate_or_error(trajectory):
    try:
        return convergence_factor_estimate(trajectory, tail=50)
    except (InsufficientSignalError, ValueError) as exc:
        return type(exc)


# a central block of more than spectral._DENSE_ROWS (64) rows, which the
# run advances round by round instead of in closed form
STEPPED_SHAPE = (40, 3, 30, 5)


@pytest.mark.parametrize(
    "shape, scheme", scheme_cases(STENCIL_SHAPES + RANK_SHAPES + [STEPPED_SHAPE])
)
def test_stratified_iterate_matches_the_stencil(shape, scheme):
    p = TfsParams(*shape)
    ow = scheme_weights(p, scheme)
    x0 = random_initial_state(p.n_nodes, seed=sum(shape))
    constant = np.full(p.n_nodes, 37.3)
    spread = np.linalg.norm(x0 - x0.mean())
    # (state, steps, atol scale, compare the estimates): the stencil drifts
    # off a constant state by rounding, which the strata never see, so
    # there the scale is the state's own and the estimates are noise
    runs = [
        (x0, 60, spread, True),
        (x0, 0, spread, True),
        (constant, 60, np.linalg.norm(constant), False),
        (np.zeros(p.n_nodes), 60, 0.0, True),
    ]
    for state, steps, scale, estimates in runs:
        expected = distributed_iterate(p, ow, state, steps)
        got = stratified_iterate(p, ow, state, steps)
        assert got.n_steps == steps
        assert got.average == expected.average
        np.testing.assert_allclose(
            got.error_norms, expected.error_norms, rtol=1e-9, atol=1e-12 * scale
        )
        budget = 1e-9 * np.abs(state).sum()
        drift = np.abs(got.sum_deviations() - expected.sum_deviations())
        assert np.all(drift <= budget)
        if not estimates:
            continue
        want, have = estimate_or_error(expected), estimate_or_error(got)
        if isinstance(want, float):
            assert have == pytest.approx(want, rel=1e-10)
        else:
            assert have is want


# the threshold that forces each route, whatever the central block's size
ROUTES = {"closed": 10**9, "stepped": 0}


@pytest.mark.parametrize("shape", [(5, 900, 4, 683), (4, 5, 3, 4), (40, 3, 30, 50)])
@pytest.mark.parametrize("route", ROUTES)
def test_history_size_changes_no_bit(route, shape, monkeypatch):
    monkeypatch.setattr(simulation, "_DENSE_ROWS", ROUTES[route])
    p = TfsParams(*shape)
    ow = bounded_random_weights(p, seed=sum(shape))
    x0 = random_initial_state(p.n_nodes, seed=sum(shape))
    expected = stratified_iterate(p, ow, x0, 300)
    # one round (or chunk row) per fill, fills that split 301 records
    # unevenly, and one fill for the whole run
    for budget in (1, 1000, 5000, 2**20):
        monkeypatch.setattr(simulation, "_HISTORY_FLOATS", budget)
        got = stratified_iterate(p, ow, x0, 300)
        assert np.array_equal(got.error_norms, expected.error_norms)
        assert np.array_equal(got.sums, expected.sums)


def without_an_arm_mode(p, ow, x0):
    """``x0`` with each arm's dominant block eigenvector taken out of its
    within-stratum deviations, so that the mode holds only rounding."""
    blocks = build_blocks(p, ow)
    x = x0.copy()
    c = p.m1 * p.n1
    arms = ((blocks.minus, x[:c], p.n1), (blocks.plus, x[c + 1 :], p.n2))
    for block, nodes, n in arms:
        rows = nodes.reshape(-1, n)
        spectrum, q = np.linalg.eigh(block.dense())
        mode = q[:, np.argmax(np.abs(spectrum))]
        spread = rows - rows.mean(axis=1, keepdims=True)
        rows -= np.outer(mode, mode @ spread)
    return x


@pytest.mark.parametrize("shape, scheme", scheme_cases(STENCIL_SHAPES + RANK_SHAPES))
def test_closed_form_matches_stepping(shape, scheme, monkeypatch):
    p = TfsParams(*shape)
    ow = scheme_weights(p, scheme)
    x0 = random_initial_state(p.n_nodes, seed=sum(shape))
    # an arm mode of amplitude at rounding level, which a Gram form
    # q' (D D') q can round below zero
    for state in (x0, without_an_arm_mode(p, ow, x0)):
        spread = np.linalg.norm(state - state.mean())
        budget = 1e-9 * np.abs(state).sum()
        for steps in (0, 1, 200, 2000):
            runs = {}
            for route, limit in ROUTES.items():
                monkeypatch.setattr(simulation, "_DENSE_ROWS", limit)
                runs[route] = stratified_iterate(p, ow, state, steps)
            closed, stepped = runs["closed"], runs["stepped"]
            assert closed.n_steps == stepped.n_steps == steps
            assert closed.average == stepped.average
            np.testing.assert_allclose(
                closed.error_norms,
                stepped.error_norms,
                rtol=1e-9,
                atol=1e-12 * spread,
            )
            drift = np.abs(closed.sum_deviations() - stepped.sum_deviations())
            assert np.all(drift <= budget)


def test_only_the_stepped_route_factors_the_deviations(monkeypatch):
    # the closed form projects each arm's deviations on its eigenvectors;
    # only round-by-round lanes need min(m_i, n_i) factor columns
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for shape in STENCIL_SHAPES + RANK_SHAPES:
        p = TfsParams(*shape)
        x0 = random_initial_state(p.n_nodes, seed=sum(shape))
        stratified_iterate(p, bounded_random_weights(p, sum(shape)), x0, 50)
    p = TfsParams(*STEPPED_SHAPE)
    x0 = random_initial_state(p.n_nodes, seed=1)
    with pytest.raises(AssertionError, match="qr"):
        stratified_iterate(p, bounded_random_weights(p, 1), x0, 50)


@pytest.mark.parametrize("shape", [(6, 400_000, 6, 400_000), (1, 5 * 10**6, 1, 2)])
def test_closed_form_set_up_is_one_state_vector(shape):
    # the deviations overwrite the centred state, and the projections go a
    # bounded chunk of branches at a time
    p = TfsParams(*shape)
    ow = max_degree_orbit_weights(p, convention="inv_dmax")
    x0 = random_initial_state(p.n_nodes, seed=1)
    tracemalloc.start()
    try:
        stratified_iterate(p, ow, x0, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * p.n_nodes * 8


@pytest.mark.parametrize("route", ROUTES)
def test_a_zero_state_stays_zero_under_expanding_weights(route, monkeypatch):
    # weights of 0.9 give the blocks eigenvalues past 1 in magnitude, whose
    # powers overflow long before 2000 steps; a mode that holds nothing
    # must still add exactly 0, never inf * 0 = nan
    monkeypatch.setattr(simulation, "_DENSE_ROWS", ROUTES[route])
    p = TfsParams(3, 4, 2, 5)
    ow = OrbitWeights.constant(p, 0.9)
    assert np.abs(np.linalg.eigvalsh(assemble_weight_matrix(p, ow))).max() > 1.5
    with np.errstate(all="raise"):
        traj = stratified_iterate(p, ow, np.zeros(p.n_nodes), 2000)
    assert np.all(traj.error_norms == 0.0)
    assert np.all(traj.sum_deviations() == 0.0)


def test_closed_form_memory_is_the_records():
    # 10**6 steps in chunks of about _HISTORY_FLOATS floats: the peak is
    # the two per-step records and a constant, whatever the step count
    p = TfsParams(3, 4, 4, 3)
    ow = optimal_weights(p).weights
    x0 = random_initial_state(p.n_nodes, seed=1)
    steps = 10**6
    tracemalloc.start()
    try:
        traj = stratified_iterate(p, ow, x0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps == steps
    assert peak <= 2 * 8 * (steps + 1) + 2**20


def test_stratified_iterate_rejects_a_bad_run():
    p = TfsParams(1, 2, 1, 2)
    ow = OrbitWeights.constant(p, 0.2)
    with pytest.raises(ValueError):
        stratified_iterate(p, ow, np.ones(p.n_nodes + 1), 5)
    with pytest.raises(ValueError):
        stratified_iterate(p, ow, np.ones(p.n_nodes), -1)


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
        distributed_rounds(p, OrbitWeights.constant(p, 0.2), np.ones(3))


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
        distributed_rounds(p, ow, x0),
    ):
        states = first(rounds, 6)
        for t, state in enumerate(states):
            assert state.shape == x0.shape
            assert not state.flags.writeable
            assert not np.shares_memory(state, x0)
            assert not any(np.shares_memory(state, s) for s in states[:t])
    for traj in (
        iterate(assemble_weight_matrix(p, ow), x0, 6),
        distributed_iterate(p, ow, x0, 6),
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
    ow = random_weights(p, 17)
    x0 = random_initial_state(p.n_nodes, seed=17)
    a = first(matrix_rounds(assemble_weight_matrix(p, ow), x0), 100)
    b = first(distributed_rounds(p, ow, x0), 100)
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


def test_trajectory_csv_is_the_bytes_of_the_stdlib_writer():
    p = TfsParams(3, 4, 4, 3)
    ow = max_degree_orbit_weights(p, convention="inv_dmax")
    x0 = random_initial_state(p.n_nodes, seed=0)
    trajectories = [
        stratified_iterate(p, ow, x0, 200),
        stratified_iterate(p, ow, x0, 0),
        # exact zeros, subnormal and rounding-level norms, and sums that
        # drift by an ulp or less
        Trajectory(
            error_norms=[3.5, 0.0, 1e-300, 5e-324, 1.2345678901234e-17, 1e20],
            sums=[10.0, 10.0, np.nextafter(10.0, 11.0), 10.0 - 2**-49, -0.0, 1e-16],
            average=10.0 / 7,
        ),
        # one pass of the row template, and one row into a second
        stratified_iterate(p, ow, x0, 4095),
        stratified_iterate(p, ow, x0, 4096),
    ]
    for trajectory in trajectories:
        out = io.StringIO()
        write_trajectory_csv(trajectory, out)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["t", "error_norm", "sum_deviation"])
        for t, (norm, deviation) in enumerate(
            zip(trajectory.error_norms, trajectory.sum_deviations())
        ):
            writer.writerow([t, f"{norm:.10g}", f"{deviation:.10g}"])
        assert out.getvalue() == expected.getvalue()


_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072e-308]),
)


@given(
    rows=st.lists(st.tuples(st.integers(-10**20, 10**20), _CELLS, _CELLS), max_size=20),
    rows_per_pass=st.integers(1, 7),
)
@settings(max_examples=200, deadline=None)
def test_row_passes_format_each_cell_as_its_own_format_call(rows, rows_per_pass):
    # "%d" and "%.10g" write what format() writes, nan, inf, -0.0 and
    # subnormals included, whichever pass a row falls in
    expected = "".join(
        f"{count},{format(x, '.10g')},{format(y, '.10g')}\r\n" for count, x, y in rows
    )
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    with mock.patch.object(simulation, "_ROWS_PER_PASS", rows_per_pass):
        written = simulation._format_rows("%d,%.10g,%.10g\r\n", columns)
    assert written == expected
