"""Weight matrix assembly and the three comparison weighting schemes."""

import numpy as np
import pytest

from fusedstar.topology import TfsParams, build_topology
from fusedstar.weighting import (
    MissingOrbitWeightError,
    OrbitWeights,
    assemble_weight_matrix,
    best_constant_orbit_weights,
    best_constant_weights,
    max_degree_weights,
    metropolis_orbit_weights,
    metropolis_weights,
    validate_stochastic,
)


def slem(matrix: np.ndarray) -> float:
    vals = np.sort(np.linalg.eigvalsh(matrix))
    return max(vals[-2], -vals[0])


def test_center_diagonal_case():
    p = TfsParams(1, 2, 1, 2)
    ow = OrbitWeights({-1: 0.25, 1: 0.25})
    W = assemble_weight_matrix(p, ow).entries
    center = p.m1 * p.n1
    assert W[center, center] == pytest.approx(0.0, abs=1e-15)


def test_zero_weights_give_identity():
    p = TfsParams(2, 3, 3, 2)
    W = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.0)).entries
    assert np.array_equal(W, np.eye(p.n_nodes))


def test_diagonal_case_formula():
    p = TfsParams(3, 2, 2, 3)
    ow = OrbitWeights({-3: 0.1, -2: 0.2, -1: 0.3, 1: 0.4, 2: 0.5})
    W = assemble_weight_matrix(p, ow).entries
    # leaf, interior, center, interior, leaf diagonals
    assert W[0, 0] == pytest.approx(1 - 0.1)
    assert W[2, 2] == pytest.approx(1 - 0.1 - 0.2)  # stratum -2
    c = p.m1 * p.n1
    assert W[c, c] == pytest.approx(1 - 2 * 0.3 - 3 * 0.4)
    assert W[c + 1, c + 1] == pytest.approx(1 - 0.4 - 0.5)  # stratum 1
    assert W[-1, -1] == pytest.approx(1 - 0.5)


def test_missing_orbit_weight():
    p = TfsParams(2, 2, 2, 2)
    with pytest.raises(MissingOrbitWeightError):
        assemble_weight_matrix(p, OrbitWeights({-2: 0.5, -1: 0.5, 1: 0.5}))


def test_orbit_weights_round_trip():
    p = TfsParams(2, 3, 3, 2)
    ow = OrbitWeights({-2: 0.11, -1: 0.22, 1: 0.33, 2: 0.44, 3: 0.55})
    g = build_topology(p)
    W = assemble_weight_matrix(p, ow).entries
    from fusedstar.topology import edge_orbit, node_index

    recovered = {}
    for u, v in g.edges:
        recovered[edge_orbit(p, (u, v))] = W[node_index(p, u), node_index(p, v)]
    assert OrbitWeights(recovered) == ow


def test_validate_stochastic_clean():
    p = TfsParams(2, 2, 3, 4)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.3))
    report = validate_stochastic(wm)
    assert report.max_row_sum_deviation <= 1e-12
    assert report.max_asymmetry == 0.0
    assert report.sparsity_violations == ()


def test_validate_stochastic_flags_perturbation():
    from fusedstar.weighting import WeightMatrix

    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.3))
    perturbed = wm.entries.copy()
    perturbed[0, 1] += 1e-3
    report = validate_stochastic(WeightMatrix(perturbed, p))
    assert report.max_asymmetry > 0
    assert report.max_row_sum_deviation > 0


def test_validate_stochastic_identity():
    p = TfsParams(1, 2, 1, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.0))
    report = validate_stochastic(wm)
    assert report.max_row_sum_deviation == 0.0
    assert report.sparsity_violations == ()


def test_max_degree_path():
    # 3-node path, d_max = 2: constant weight 1/2 gives SLEM 1/2
    g = build_topology(TfsParams(1, 1, 1, 1))
    W = max_degree_weights(g, convention="inv_dmax").entries
    assert W[0, 1] == pytest.approx(0.5)
    assert slem(W) == pytest.approx(0.5, abs=1e-12)


def test_max_degree_star_rows():
    # two fused 3-branch stars of depth 1: d_max = 6
    g = build_topology(TfsParams(1, 3, 1, 3))
    W = max_degree_weights(g, convention="inv_dmax").entries
    for row in (0, 1, 2):  # leaf rows
        assert W[row, row] == pytest.approx(1 - 1 / 6)
        assert W[row, 3] == pytest.approx(1 / 6)


def test_max_degree_plus_one_convention():
    g = build_topology(TfsParams(1, 1, 1, 1))
    W = max_degree_weights(g, convention="inv_dmax_plus_1").entries
    assert W[0, 1] == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        max_degree_weights(g, convention="bogus")


def test_metropolis_conventions():
    # interior edge joins two degree-2 nodes
    p = TfsParams(2, 2, 2, 2)
    g = build_topology(p)
    plus1 = metropolis_orbit_weights(g, convention="inv_max_plus_1")
    assert plus1[-2] == pytest.approx(1 / 3)
    plain = metropolis_orbit_weights(g)
    assert plain[-2] == pytest.approx(1 / 2)
    # center edges see the center degree n1+n2 = 4
    assert plain[-1] == pytest.approx(1 / 4)
    assert plus1[-1] == pytest.approx(1 / 5)
    with pytest.raises(ValueError):
        metropolis_orbit_weights(g, convention="bogus")


def test_best_constant_path():
    # 3-node path Laplacian spectrum {0, 1, 3} -> alpha = 2/(3+1)
    g = build_topology(TfsParams(1, 1, 1, 1))
    ow = best_constant_orbit_weights(g)
    assert ow[-1] == pytest.approx(0.5, abs=1e-12)
    assert ow[1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "params",
    [(1, 1, 1, 1), (1, 2, 1, 2), (2, 3, 5, 1), (3, 4, 4, 3), (1, 7, 6, 2),
     (10, 20, 20, 10), (4, 1, 2, 9)],
)
def test_best_constant_matches_dense_laplacian(params):
    # oracle: the dense graph Laplacian straight from the edge list
    from fusedstar.topology import node_index

    p = TfsParams(*params)
    g = build_topology(p)
    lap = np.zeros((p.n_nodes, p.n_nodes))
    for u, v in g.edges:
        a, b = node_index(p, u), node_index(p, v)
        lap[a, b] = lap[b, a] = -1.0
        lap[a, a] += 1.0
        lap[b, b] += 1.0
    eigs = np.linalg.eigvalsh(lap)
    expected = 2.0 / (eigs[-1] + eigs[1])
    ow = best_constant_orbit_weights(g)
    for label in p.orbit_labels:
        assert ow[label] == pytest.approx(expected, rel=1e-12)


# Published benchmark rows at 5e-4, plus a frozen regression value for the
# middle network, whose published Metropolis cell 0.97195 repeats the first
# row's and is corrected to 0.97018 in the acceptance suite's ERRATA.
@pytest.mark.parametrize(
    "params,expected,tol",
    [
        ((3, 4, 4, 3), 0.97194, 5e-4),
        ((10, 20, 20, 10), 0.99884, 5e-4),
        ((3, 4, 3, 6), 0.9701763068, 1e-9),
    ],
)
def test_metropolis_slem_values(params, expected, tol):
    g = build_topology(TfsParams(*params))
    W = metropolis_weights(g).entries
    assert slem(W) == pytest.approx(expected, abs=tol)


@pytest.mark.parametrize(
    "params,expected",
    [((3, 4, 4, 3), 0.97089), ((10, 20, 20, 10), 0.99962)],
)
def test_best_constant_slem_values(params, expected):
    g = build_topology(TfsParams(*params))
    W = best_constant_weights(g).entries
    assert slem(W) == pytest.approx(expected, abs=5e-4)


def test_max_degree_slem_value():
    g = build_topology(TfsParams(3, 4, 4, 3))
    W = max_degree_weights(g, convention="inv_dmax").entries
    assert slem(W) == pytest.approx(0.98277, abs=5e-4)


@pytest.mark.parametrize("params", [(2, 2, 3, 4), (1, 3, 2, 2), (3, 4, 4, 3)])
def test_schemes_are_stochastic_with_bounded_spectra(params):
    g = build_topology(TfsParams(*params))
    for wm in (
        max_degree_weights(g, convention="inv_dmax"),
        max_degree_weights(g, convention="inv_dmax_plus_1"),
        metropolis_weights(g),
        metropolis_weights(g, convention="inv_max_plus_1"),
        best_constant_weights(g),
    ):
        report = validate_stochastic(wm)
        assert report.max_row_sum_deviation <= 1e-12
        assert report.max_asymmetry <= 1e-12
        assert report.sparsity_violations == ()
        vals = np.linalg.eigvalsh(wm.entries)
        assert vals.min() >= -1 - 1e-12
        assert vals.max() <= 1 + 1e-12


def test_star_swap_spectra_match():
    p = TfsParams(2, 3, 4, 5)
    q = p.swap()
    for build in (
        lambda g: max_degree_weights(g, convention="inv_dmax"),
        metropolis_weights,
        best_constant_weights,
    ):
        a = np.sort(np.linalg.eigvalsh(build(build_topology(p)).entries))
        b = np.sort(np.linalg.eigvalsh(build(build_topology(q)).entries))
        assert np.allclose(a, b, atol=1e-11)
