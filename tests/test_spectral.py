"""Stratified block decomposition, spectra, SLEM and interlacing."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusedstar.optimizer import optimal_weights
from fusedstar.reference import (
    block_spectrum,
    block_structure,
    interlacing_check,
    stratification_basis,
    tridiagonal_spectrum,
)
from fusedstar.spectral import (
    SpectralReport,
    SpectrumSizeError,
    StratifiedBlocks,
    Tridiagonal,
    block_extremes,
    build_blocks,
    central_tridiagonal,
    count_eigenvalues_below,
    full_spectrum,
    perron_vector,
)
from fusedstar.topology import InvalidParameterError, TfsParams
from fusedstar.weighting import (
    OrbitWeights,
    assemble_weight_matrix,
    metropolis_orbit_weights,
)

# frozen optimum for (3,4,4,3); interior weights sit at 1/2
OPT_343 = OrbitWeights.from_labels(
    TfsParams(3, 4, 4, 3),
    {-3: 0.5, -2: 0.5, -1: 0.16361147830979006,
     1: 0.2886837942392352, 2: 0.5, 3: 0.5, 4: 0.5}
)
S_343 = 0.9545044654072468


def random_weights(params, seed):
    rng = np.random.default_rng(seed)
    return OrbitWeights.from_labels(
        params, {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
    )


def weighted_multiset(report: SpectralReport) -> np.ndarray:
    values = []
    for value, mult in report.eigenvalues:
        values.extend([value] * mult)
    return np.sort(np.array(values))


def test_center_block_small_example():
    p = TfsParams(1, 2, 1, 2)
    blocks = build_blocks(p, OrbitWeights.from_labels(p, {-1: 0.25, 1: 0.25}))
    r = math.sqrt(2) / 4
    expected = np.array([[0.75, r, 0.0], [r, 0.0, r], [0.0, r, 0.75]])
    assert np.allclose(blocks.center.dense(), expected, atol=1e-15)


def test_arm_block_entries():
    p = TfsParams(3, 2, 2, 3)
    ow = OrbitWeights.from_labels(p, {-3: 0.1, -2: 0.2, -1: 0.3, 1: 0.4, 2: 0.45})
    blocks = build_blocks(p, ow)
    minus = blocks.minus.dense()
    assert np.allclose(np.diag(minus), [1 - 0.1, 1 - 0.1 - 0.2, 1 - 0.2 - 0.3])
    assert np.allclose(np.diag(minus, 1), [0.1, 0.2])
    plus = blocks.plus.dense()
    assert np.allclose(np.diag(plus), [1 - 0.4 - 0.45, 1 - 0.45])
    assert np.allclose(np.diag(plus, 1), [0.45])
    # coupling rows of the center block carry sqrt(n) factors
    center = blocks.center.dense()
    m1 = p.m1
    assert center[m1, m1 - 1] == pytest.approx(math.sqrt(p.n1) * 0.3)
    assert center[m1, m1 + 1] == pytest.approx(math.sqrt(p.n2) * 0.4)
    assert center[m1, m1] == pytest.approx(1 - p.n1 * 0.3 - p.n2 * 0.4)


def test_center_block_embeds_arm_blocks():
    p = TfsParams(2, 3, 3, 4)
    blocks = build_blocks(p, random_weights(p, 7))
    c = blocks.center.dense()
    assert np.allclose(c[:2, :2], blocks.minus.dense())
    assert np.allclose(c[-3:, -3:], blocks.plus.dense())


def test_multiplicities_and_structure():
    p = TfsParams(3, 4, 4, 3)
    blocks = build_blocks(p, OPT_343)
    assert blocks.multiplicities == (3, 1, 2)
    sizes = block_structure(p)
    assert sizes == (3, 3, 3, 8, 4, 4)
    assert sum(sizes) == p.n_nodes


def test_perron_pair():
    p = TfsParams(3, 2, 2, 3)
    blocks = build_blocks(p, random_weights(p, 3))
    v = perron_vector(p)
    assert np.linalg.norm(blocks.center.dense() @ v - v, np.inf) <= 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_basis_unitary():
    for params in [(2, 2, 2, 2), (3, 4, 4, 3), (2, 3, 1, 5)]:
        p = TfsParams(*params)
        phi = stratification_basis(p)
        eye = phi.conj().T @ phi
        assert np.max(np.abs(eye - np.eye(p.n_nodes))) <= 1e-12


def test_basis_trivial_branches_is_permutation():
    p = TfsParams(2, 1, 3, 1)
    phi = stratification_basis(p)
    assert np.max(np.abs(phi.imag)) <= 1e-15
    real = np.abs(phi.real)
    assert np.allclose(real @ real.T, np.eye(p.n_nodes), atol=1e-15)
    assert np.all(np.isin(np.round(real, 12), [0.0, 1.0]))


def test_basis_transport_is_block_diagonal():
    p = TfsParams(2, 2, 2, 2)
    ow = random_weights(p, 11)
    W = assemble_weight_matrix(p, ow).entries
    phi = stratification_basis(p)
    transported = phi.conj().T @ W @ phi
    assert np.max(np.abs(transported.imag)) <= 1e-12

    sizes = block_structure(p)
    mask = np.zeros_like(W, dtype=bool)
    start = 0
    for size in sizes:
        mask[start : start + size, start : start + size] = True
        start += size
    off_block = np.where(mask, 0.0, np.abs(transported))
    assert off_block.max() <= 1e-12

    # diagonal blocks reproduce build_blocks entrywise
    blocks = build_blocks(p, ow)
    expected = [blocks.minus.dense()] * (p.n1 - 1)
    expected.append(blocks.center.dense())
    expected.extend([blocks.plus.dense()] * (p.n2 - 1))
    start = 0
    for size, ref in zip(sizes, expected):
        sub = transported[start : start + size, start : start + size].real
        assert np.allclose(sub, ref, atol=1e-12)
        start += size


@pytest.mark.parametrize("params", [(2, 2, 2, 2), (3, 2, 2, 3), (2, 3, 4, 2)])
def test_block_spectrum_matches_dense(params):
    p = TfsParams(*params)
    ow = random_weights(p, sum(params))
    blocks = build_blocks(p, ow)
    via_blocks = weighted_multiset(block_spectrum(blocks))
    dense = np.sort(
        np.linalg.eigvalsh(assemble_weight_matrix(p, ow).entries)
    )
    assert via_blocks.shape == dense.shape
    assert np.max(np.abs(via_blocks - dense)) <= 1e-10


def random_shapes(count, seed):
    # branch counts of 1 leave an arm block out of the spectrum (compare
    # reports such networks)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield TfsParams(
            int(rng.integers(1, 25)),
            int(rng.choice([1, 2, 3, 7, 40])),
            int(rng.integers(1, 25)),
            int(rng.choice([1, 2, 5, 11, 1000])),
        )


@pytest.mark.parametrize("seed", range(4))
def test_block_extremes_match_block_spectrum(seed):
    for index, p in enumerate(random_shapes(50, seed)):
        weightings = [
            random_weights(p, 100 * seed + index),
            OrbitWeights.constant(p, 0.0),
            OrbitWeights.constant(p, 1.0),
        ]
        if p.m1 > 1:
            # a zero leaf weight splits the first arm block and the
            # central block: eigenvalue 1 three times
            w = {label: weightings[0][label] for label in p.orbit_labels}
            w[-p.m1] = 0.0
            weightings.append(OrbitWeights.from_labels(p, w))
        for ow in weightings:
            blocks = build_blocks(p, ow)
            full, extremes = block_spectrum(blocks), block_extremes(blocks)
            for name in ("lambda2", "lambda_min", "slem"):
                # unit weights reach |lambda| ~ n1 + n2, where 1e-13 is
                # below one ulp
                value = getattr(full, name)
                gap = abs(getattr(extremes, name) - value)
                assert gap <= 1e-13 * max(1.0, abs(value)), (p, name)


# 64 rows and fewer take the dense route, 65 and more bisection
@pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 60, 64, 65, 150])
def test_tridiagonal_matches_dense(size):
    rng = np.random.default_rng(size)
    tri = Tridiagonal(
        rng.uniform(-1, 1, size), rng.uniform(-0.5, 0.5, size - 1)
    )
    dense = tri.dense()
    assert np.array_equal(dense, dense.T)
    eigs = np.linalg.eigvalsh(dense)
    x = rng.uniform(-1, 1, size)
    assert np.max(np.abs(tri.matvec(x) - dense @ x)) <= 1e-15
    assert np.max(np.abs(tridiagonal_spectrum(tri) - eigs)) <= 1e-13
    assert np.max(np.abs(tri.eigenvalues(0, size - 1) - eigs)) <= 1e-13
    last = size - 1
    assert tri.eigenvalues(last, last)[0] == pytest.approx(eigs[-1], abs=1e-13)
    expected = eigs if size <= 3 else eigs[[0, last - 1, last]]
    assert np.max(np.abs(tri.extremes() - expected)) <= 1e-13
    # thresholds halfway between eigenvalues, and beyond both ends
    thresholds = np.concatenate(
        [[eigs[0] - 1.0], 0.5 * (eigs[:-1] + eigs[1:]), [eigs[-1] + 1.0]]
    )
    for count, threshold in enumerate(thresholds):
        assert tri.count_below(threshold) == count


def test_central_tridiagonal_of_a_stack_is_that_of_each_shape():
    rng = np.random.default_rng(11)
    shapes = [TfsParams(1, 2, 1, 3), TfsParams(4, 7, 1, 2),
              TfsParams(1, 5, 6, 2), TfsParams(3, 10**12, 5, 9)]
    rows = max(p.m1 + p.m2 for p in shapes) + 1
    w = np.zeros((rows - 1, len(shapes)))
    for k, p in enumerate(shapes):
        w[: p.m1 + p.m2, k] = rng.uniform(-1.0, 1.0, p.m1 + p.m2)
    # a stack's fields are arrays over its columns
    stack = SimpleNamespace(**{
        field: np.array([getattr(p, field) for p in shapes], dtype=float)
        for field in ("m1", "n1", "m2", "n2")
    })
    diagonal, off = central_tridiagonal(stack, w)
    for k, p in enumerate(shapes):
        size = p.m1 + p.m2 + 1
        one_d, one_off = central_tridiagonal(p, w[: size - 1, k])
        assert np.array_equal(diagonal[:size, k], one_d)
        assert np.array_equal(off[: size - 1, k], one_off)
        # zero weights past the last orbit: decoupled rows of diagonal 1
        assert np.all(diagonal[size:, k] == 1.0)
        assert np.all(off[size - 1 :, k] == 0.0)


# (diagonal, off-diagonal, shift, count): each shift meets an eigenvalue
# exactly, as a zero pivot, and the tie counts as below
EXACT_TIES = [
    ([0.5, 0.3, 0.9], [0.0, 0.1], 0.5, 2),  # eigenvalues 0.28, 0.5, 0.92
    ([1.0, 1.0], [0.0], 1.0, 2),  # 1, 1
    ([2.0, 0.0, 2.0], [0.0, 0.0], 2.0, 3),  # 0, 2, 2
    ([0.5, 0.5], [0.5], 0.0, 1),  # 0, 1
]


def test_count_below_counts_an_exact_tie_in_one_lane_and_a_stack():
    rows = max(len(diagonal) for diagonal, *_ in EXACT_TIES)
    # each matrix padded to a stack column by decoupled rows above its shift
    diagonals = np.array(
        [d + [x + 1.0] * (rows - len(d)) for d, _, x, _ in EXACT_TIES]
    ).T
    couplings = np.array(
        [e + [0.0] * (rows - 1 - len(e)) for _, e, _, _ in EXACT_TIES]
    ).T ** 2
    shifts = np.array([x for *_, x, _ in EXACT_TIES])
    expected = [count for *_, count in EXACT_TIES]
    stacked = count_eigenvalues_below(diagonals, couplings, shifts)
    assert stacked.tolist() == expected
    for diagonal, off, x, count in EXACT_TIES:
        assert Tridiagonal(diagonal, off).count_below(x) == count


def test_count_below_of_a_long_central_block_equals_kahan_count():
    # 1591 rows, two runs in closed form, at the root-count and the
    # self-check shifts
    p = TfsParams(800, 5, 790, 7)
    sol = optimal_weights(p)
    center = build_blocks(p, sol.weights).center
    s = sol.s
    shifts = np.array([1 - 1e-9, s - 1e-9, s + 1e-9, -s - 1e-9, -s + 1e-9])
    expected = count_eigenvalues_below(
        center.diagonal[:, None], center.off_diagonal[:, None] ** 2, shifts
    )
    assert center.count_below(shifts).tolist() == expected.tolist()
    assert [center.count_below(x) for x in shifts] == expected.tolist()


def test_tridiagonal_is_read_only_and_checked():
    diag = np.array([1.0, 2.0])
    tri = Tridiagonal(diag, np.array([0.5]))
    diag[0] = 9.0
    assert tri.diagonal[0] == 1.0
    with pytest.raises(ValueError):
        tri.diagonal[0] = 3.0
    with pytest.raises(ValueError):
        Tridiagonal(np.ones(3), np.ones(3))


def test_block_spectrum_zero_weights():
    p = TfsParams(2, 3, 2, 3)
    report = block_spectrum(build_blocks(p, OrbitWeights.constant(p, 0.0)))
    values = weighted_multiset(report)
    assert values.shape == (p.n_nodes,)
    assert np.allclose(values, 1.0, atol=1e-14)
    assert report.lambda2 == 1.0
    assert report.slem == 1.0


def test_block_spectrum_at_optimum():
    p = TfsParams(3, 4, 4, 3)
    report = block_spectrum(build_blocks(p, OPT_343))
    assert report.lambda2 == pytest.approx(S_343, abs=1e-9)
    # the smallest eigenvalue mirrors lambda2 exactly at the optimum
    assert report.lambda_min == pytest.approx(-S_343, abs=1e-9)
    assert report.slem == max(report.lambda2, -report.lambda_min)
    assert report.theta2 == pytest.approx(math.acos(report.lambda2))


def test_spectral_report_leading_eigenvalue():
    p = TfsParams(2, 2, 3, 3)
    report = block_spectrum(build_blocks(p, random_weights(p, 5)))
    assert report.eigenvalues[0][0] == pytest.approx(1.0, abs=1e-10)


def test_full_spectrum_identity():
    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.0))
    report = full_spectrum(wm)
    assert report.eigenvalues[0][0] == pytest.approx(1.0)
    assert report.lambda2 == pytest.approx(1.0)


def test_full_spectrum_metropolis_benchmark():
    p = TfsParams(3, 4, 4, 3)
    report = full_spectrum(assemble_weight_matrix(p, metropolis_orbit_weights(p)))
    assert report.slem == pytest.approx(0.97194, abs=5e-4)


def test_full_spectrum_size_guard():
    p = TfsParams(3, 2, 2, 3)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    with pytest.raises(SpectrumSizeError):
        full_spectrum(wm, max_size=10)


@pytest.mark.parametrize("seed", range(4))
def test_interlacing_random_weights(seed):
    p = TfsParams(2, 2, 2, 2)
    blocks = build_blocks(p, random_weights(p, seed))
    assert interlacing_check(blocks) <= 1e-10


def test_interlacing_symmetric_network():
    p = TfsParams(3, 3, 3, 3)
    blocks = build_blocks(p, random_weights(p, 13))
    assert interlacing_check(blocks) <= 1e-10


def test_interlacing_at_optimum_ties_lambda2():
    p = TfsParams(3, 4, 4, 3)
    blocks = build_blocks(p, OPT_343)
    assert interlacing_check(blocks) <= 1e-10
    # at the optimum lambda2 is shared with the arm-only matrix W'
    arm_top = max(
        np.linalg.eigvalsh(blocks.minus.dense()).max(),
        np.linalg.eigvalsh(blocks.plus.dense()).max(),
    )
    assert arm_top == pytest.approx(S_343, abs=1e-9)


def test_interlacing_requires_two_branches():
    p = TfsParams(2, 1, 2, 3)
    blocks = build_blocks(p, OrbitWeights.constant(p, 0.3))
    with pytest.raises(InvalidParameterError):
        interlacing_check(blocks)


def test_blocks_are_built_once_per_weight_vector():
    p = TfsParams(4, 3, 5, 2)
    ow = metropolis_orbit_weights(p)
    blocks = build_blocks(p, ow)
    assert build_blocks(TfsParams(4, 3, 5, 2), ow) is blocks
    # equal weights in another object get their own blocks, equal to these
    twin = OrbitWeights(p, ow.values)
    twin_blocks = build_blocks(p, twin)
    assert twin_blocks is not blocks
    for name in ("minus", "center", "plus"):
        mine, theirs = getattr(blocks, name), getattr(twin_blocks, name)
        assert np.array_equal(mine.diagonal, theirs.diagonal)
        assert np.array_equal(mine.off_diagonal, theirs.off_diagonal)


@pytest.mark.parametrize("m", [5, 200])  # dense route, then bisection
def test_returned_eigenvalues_do_not_share_the_memo(m):
    p = TfsParams(m, 3, m + 1, 4)
    block = build_blocks(p, metropolis_orbit_weights(p)).center
    reads = (block.extremes, lambda: block.eigenvalues(0, 1))
    for read in reads * 2:
        first = read()
        expected = first.copy()
        try:
            first[:] = 7.0
        except ValueError:
            pass  # a read-only array is as good as a copy
        assert np.array_equal(read(), expected)
    assert block.eigenvalues(0, 0)[0] == block.extremes()[0]
