"""Stratified block decomposition, spectra, SLEM and interlacing."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from fusedstar import spectral
from fusedstar.optimizer import optimal_weights
from fusedstar.reference import (
    CountedTridiagonal,
    best_constant_orbit_weights,
    block_extremes,
    block_spectrum,
    block_structure,
    build_blocks,
    counted_blocks,
    interlacing_check,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
    orbit_weights_from_labels,
    stratification_basis,
    tridiagonal_spectrum,
)
from fusedstar.spectral import (
    SkeletonBlocks,
    SpectralReport,
    SpectrumSizeError,
    Tridiagonal,
    central_tridiagonal,
    count_eigenvalues_below,
    full_spectrum,
    perron_vector,
)
from fusedstar.topology import InvalidParameterError, TfsParams
from fusedstar.weighting import OrbitWeights, assemble_weight_matrix, skeleton_weights

# frozen optimum for (3,4,4,3); interior weights sit at 1/2
OPT_343 = orbit_weights_from_labels(
    TfsParams(3, 4, 4, 3),
    {-3: 0.5, -2: 0.5, -1: 0.16361147830979006,
     1: 0.2886837942392352, 2: 0.5, 3: 0.5, 4: 0.5}
)
S_343 = 0.9545044654072468


def random_weights(params, seed):
    rng = np.random.default_rng(seed)
    return orbit_weights_from_labels(
        params, {label: rng.uniform(0.05, 0.5) for label in params.orbit_labels}
    )


def weighted_multiset(report: SpectralReport) -> np.ndarray:
    values = []
    for value, mult in report.eigenvalues:
        values.extend([value] * mult)
    return np.sort(np.array(values))


def test_center_block_small_example():
    p = TfsParams(1, 2, 1, 2)
    blocks = build_blocks(p, orbit_weights_from_labels(p, {-1: 0.25, 1: 0.25}))
    r = math.sqrt(2) / 4
    expected = np.array([[0.75, r, 0.0], [r, 0.0, r], [0.0, r, 0.75]])
    assert np.allclose(blocks.center.dense(), expected, atol=1e-15)


def test_arm_block_entries():
    p = TfsParams(3, 2, 2, 3)
    ow = orbit_weights_from_labels(p, {-3: 0.1, -2: 0.2, -1: 0.3, 1: 0.4, 2: 0.45})
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


def test_blocks_share_the_central_arrays_and_copy_a_callers():
    p = TfsParams(4, 3, 5, 2)
    blocks = build_blocks(p, random_weights(p, 11))
    center = blocks.center
    for arm in (blocks.minus, blocks.plus):
        for arr in (arm.diagonal, arm.off_diagonal):
            assert not arr.flags.writeable
        assert np.shares_memory(arm.diagonal, center.diagonal)
        assert np.shares_memory(arm.off_diagonal, center.off_diagonal)
    # a read-only float64 array is kept; a writeable one, or one of
    # another dtype, is copied, so the caller's later writes do not reach it
    kept = Tridiagonal(center.diagonal, center.off_diagonal)
    assert kept.diagonal is center.diagonal
    assert kept.off_diagonal is center.off_diagonal
    diagonal, off = np.array([0.5, 0.25, 0.5]), np.array([0.25, 0.25], dtype=np.float32)
    off.flags.writeable = False
    block = Tridiagonal(diagonal, off)
    assert not np.shares_memory(block.diagonal, diagonal)
    assert block.off_diagonal.dtype == np.float64
    assert not block.diagonal.flags.writeable
    assert not block.off_diagonal.flags.writeable
    diagonal[0] = 7.0
    assert block.diagonal[0] == 0.5


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
    W = assemble_weight_matrix(p, ow)
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
    dense = np.sort(np.linalg.eigvalsh(assemble_weight_matrix(p, ow)))
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


def assert_extremes_match(p, ow, *, dense=False):
    """``block_extremes`` agrees with the full block spectrum, and with the
    dense matrix's if asked."""
    blocks = build_blocks(p, ow)
    extremes = block_extremes(blocks)
    references = [block_spectrum(blocks)]
    if dense:
        references.append(full_spectrum(assemble_weight_matrix(p, ow)))
    for reference in references:
        for name in ("lambda2", "lambda_min", "slem"):
            # unit weights reach |lambda| ~ n1 + n2, where 1e-13 is below
            # one ulp
            value = getattr(reference, name)
            gap = abs(getattr(extremes, name) - value)
            assert gap <= 1e-13 * max(1.0, abs(value)), (p, name, reference)


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
            weightings.append(zero_leaf_weight(p, weightings[0]))
        for ow in weightings:
            assert_extremes_match(p, ow)


def zero_leaf_weight(p, ow):
    w = {label: ow[label] for label in p.orbit_labels}
    w[-p.m1] = 0.0
    return orbit_weights_from_labels(p, w)


# where block_extremes's direct rule (lambda2 from the center's
# second-highest eigenvalue and the arms' highest) and the multiset rule of
# the full spectrum could part; the blocks of more than 64 rows bisect
PARTING_CASES = [
    # n1 = 1: no first arm block
    ((5, 1, 7, 3), "random"),
    ((90, 1, 70, 2), "random"),
    ((4, 1, 200, 2), "unit"),
    # n1 = 2 and a zero leaf weight: the first arm's eigenvalue 1, once,
    # beside the center's
    ((4, 2, 6, 3), "zero leaf"),
    ((100, 2, 90, 3), "zero leaf"),
    # W = I
    ((3, 4, 5, 2), "zero"),
    ((100, 2, 70, 3), "zero"),
    # unit weights, up to m = 200
    ((3, 4, 4, 3), "unit"),
    ((65, 3, 1, 2), "unit"),
    ((200, 2, 150, 3), "unit"),
    ((120, 3, 200, 2), "unit"),
]


@pytest.mark.parametrize("shape, weighting", PARTING_CASES, ids=str)
def test_block_extremes_match_where_the_rules_could_part(shape, weighting):
    p = TfsParams(*shape)
    ow = {
        "random": lambda: random_weights(p, sum(shape)),
        "zero leaf": lambda: zero_leaf_weight(p, random_weights(p, sum(shape))),
        "zero": lambda: OrbitWeights.constant(p, 0.0),
        "unit": lambda: OrbitWeights.constant(p, 1.0),
    }[weighting]()
    assert_extremes_match(p, ow, dense=True)


def seeded_shapes(count, seed):
    # log-uniform arms up to 10^5 rows, on both sides of the dense route's
    # 64 rows, and branch counts up to 10^6
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m1, m2 = np.exp(rng.uniform(0.0, math.log(1e5), 2)).round().astype(int)
        n1, n2 = np.exp(rng.uniform(math.log(2), math.log(1e6), 2)).round().astype(int)
        yield TfsParams(int(m1), int(n1), int(m2), int(n2))


def fresh_report(p, ow):
    # blocks of their own, so that no memo carries values between reports
    return block_extremes(build_blocks(p, OrbitWeights(p, ow.values)))


def report_bits(report):
    return [getattr(report, name) for name in ("lambda2", "lambda_min", "slem")]


# Metropolis weights on a long arm, whose lowest eigenvalue the arm block
# shares with the central block to within an ulp
NEAR_TIES = [TfsParams(75076, 96, 6, 4), TfsParams(517, 809119, 99322, 1848)]

# every block of these takes the dense route: at most 64 rows
SMALL_SHAPES = [
    TfsParams(3, 4, 4, 3),
    TfsParams(1, 2, 1, 2),
    TfsParams(10, 149, 10, 149),
    TfsParams(30, 3, 33, 2),
    TfsParams(2, 6, 3, 12),
]


@pytest.mark.parametrize("seed", range(3))
def test_a_wrong_seed_costs_counts_not_accuracy(seed):
    # the skeleton's report reads +-s on two counts each and searches where
    # they fail; a wrong claim, or weights moved off the optimum, cost a
    # search on the skeleton's count, which finds what the blocks written
    # out give, within the search's two ulps
    shapes = list(seeded_shapes(12, seed)) + NEAR_TIES + SMALL_SHAPES
    optima = [optimal_weights(p) for p in shapes]
    for p, optimum, other in zip(shapes, optima, optima[1:] + optima[:1]):
        # a relative move of 1e-3 of w_-1 moves both ends far more than 8
        # ulps
        moved = SkeletonBlocks(p, optimum.w_minus_1 * (1.0 - 1e-3), optimum.w_plus_1)
        claims = [(SkeletonBlocks(p, optimum.w_minus_1, optimum.w_plus_1), other.s),
                  (moved, optimum.s)]
        for skeleton, s in claims:
            report = skeleton.report(s)
            written = fresh_report(p, skeleton_weights(skeleton))
            for name in ("lambda2", "lambda_min"):
                value = getattr(written, name)
                gap = abs(getattr(report, name) - value)
                assert gap <= 8 * math.ulp(max(1.0, abs(value))), (p, s, name)
        # at the optimum the claims stand, within 8 ulps of the search
        searched = fresh_report(p, optimum.weights)
        seeded = optimum.skeleton.report(optimum.s)
        for name in ("lambda2", "lambda_min"):
            gap = abs(getattr(seeded, name) - getattr(searched, name))
            assert gap <= 8 * math.ulp(optimum.s), (p, name)


@pytest.mark.parametrize(
    "shape", [(3, 4, 4, 3), (1, 2, 1, 2), (10, 149, 10, 149), (20, 2, 43, 5)],
    ids=str,
)
def test_seeds_stand_on_a_dense_route_block(shape, monkeypatch):
    # a central block of at most 64 rows: the optimum's report on its
    # skeleton reads +-s on counts alone, with no dense solve or search
    p = TfsParams(*shape)
    optimum = optimal_weights(p)
    assert p.m1 + p.m2 + 1 <= 64
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(matrix):
        solved.append(matrix.shape)
        return eigvalsh(matrix)

    def refused(self, index):
        raise AssertionError("an eigenvalue was searched")

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setattr(spectral._RunCount, "_search", refused)
    report = optimum.skeleton.report(optimum.s)
    assert report.lambda2 == optimum.s
    assert report.lambda_min == -optimum.s
    assert solved == []


# 64 rows and fewer take the dense route, 65 and more bisection
@pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 60, 64, 65, 150])
def test_tridiagonal_matches_dense(size):
    rng = np.random.default_rng(size)
    tri = CountedTridiagonal(
        rng.uniform(-1, 1, size), rng.uniform(-0.5, 0.5, size - 1)
    )
    dense = tri.dense()
    assert np.array_equal(dense, dense.T)
    eigs = np.linalg.eigvalsh(dense)
    x = rng.uniform(-1, 1, size)
    assert np.max(np.abs(tri.matvec(x) - dense @ x)) <= 1e-15
    assert np.max(np.abs(tridiagonal_spectrum(tri) - eigs)) <= 1e-13
    assert np.max(np.abs(tri.eigenvalues(range(size)) - eigs)) <= 1e-13
    last = size - 1
    assert tri.eigenvalues([last])[0] == pytest.approx(eigs[-1], abs=1e-13)
    wanted = [0, max(last - 1, 0), last]
    assert np.max(np.abs(tri.eigenvalues(wanted) - eigs[wanted])) <= 1e-13
    # thresholds halfway between eigenvalues, and beyond both ends
    thresholds = np.concatenate(
        [[eigs[0] - 1.0], 0.5 * (eigs[:-1] + eigs[1:]), [eigs[-1] + 1.0]]
    )
    for count, threshold in enumerate(thresholds):
        assert tri.count_below(threshold) == count


def test_central_tridiagonal_of_a_stack_is_that_of_each_shape():
    rng = np.random.default_rng(11)
    shapes = [TfsParams(3, 2, 1, 3), TfsParams(3, 7, 4, 2),
              TfsParams(3, 5, 6, 2), TfsParams(3, 10**12, 5, 9)]
    rows = max(p.m1 + p.m2 for p in shapes) + 1
    w = np.zeros((rows - 1, len(shapes)))
    for k, p in enumerate(shapes):
        w[: p.m1 + p.m2, k] = rng.uniform(-1.0, 1.0, p.m1 + p.m2)
    # a stack shares one m1; its other fields are arrays over its columns
    stack = SimpleNamespace(m1=3, **{
        field: np.array([getattr(p, field) for p in shapes], dtype=float)
        for field in ("n1", "m2", "n2")
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


def padded_central_tridiagonal(params, w):
    """``central_tridiagonal`` as a reference: each diagonal entry from the
    weights padded with a zero orbit at either end, and the center's
    entries gathered by fancy indexing."""
    lanes = np.asarray(w, dtype=float).reshape(len(w), -1)
    ends = np.zeros((1, lanes.shape[1]))
    sides = np.concatenate([ends, lanes, ends])
    off = lanes.copy()
    lane = np.arange(lanes.shape[1])
    m1 = np.asarray(params.m1).astype(np.int64)
    n1, n2 = (np.asarray(n, dtype=float) for n in (params.n1, params.n2))
    w_minus, w_plus = lanes[m1 - 1, lane], lanes[m1, lane]
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = 1.0 - sides[:-1] - sides[1:]
        diagonal[m1, lane] = 1.0 - n1 * w_minus - n2 * w_plus
        off[m1 - 1, lane] = np.sqrt(n1) * w_minus
        off[m1, lane] = np.sqrt(n2) * w_plus
    shape = np.shape(w)
    return diagonal.reshape(diagonal.shape[:1] + shape[1:]), off.reshape(shape)


def test_central_tridiagonal_keeps_the_padded_formulas_bits():
    # one shape and stacks that share one m1, drawn or 2 (as skeleton_rows
    # passes), at weights from 1e-300 to 1e300 in magnitude, of either sign
    rng = np.random.default_rng(23)

    def assert_same_bits(params, w):
        for ours, theirs in zip(
            central_tridiagonal(params, w), padded_central_tridiagonal(params, w)
        ):
            assert ours.shape == theirs.shape
            assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))

    def weights(shape):
        scale = 10.0 ** rng.integers(-300, 301, shape)
        return rng.uniform(-1.0, 1.0, shape) * scale

    for _ in range(300):
        m1, m2 = (int(m) for m in rng.integers(1, 40, 2))
        n1, n2 = (int(n) for n in np.exp(rng.uniform(0.7, 35.0, 2)))
        assert_same_bits(TfsParams(m1, n1, m2, n2), weights(m1 + m2))
    for _ in range(100):
        lanes, orbits = int(rng.integers(1, 30)), int(rng.integers(3, 30))
        m1 = int(rng.integers(1, orbits))
        n1, n2 = np.round(np.exp(rng.uniform(0.7, 35.0, (2, lanes))))
        stack = SimpleNamespace(m1=m1, n1=n1, m2=orbits - m1, n2=n2)
        w = weights((orbits, lanes))
        assert_same_bits(stack, w)
        assert_same_bits(SimpleNamespace(m1=2, n1=n1, m2=orbits - 2, n2=n2), w)


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
        assert CountedTridiagonal(diagonal, off).count_below(x) == count


def test_count_below_of_a_long_central_block_equals_kahan_count():
    # 1591 rows, two runs in closed form, at the root-count and the
    # self-check shifts
    p = TfsParams(800, 5, 790, 7)
    sol = optimal_weights(p)
    center = counted_blocks(build_blocks(p, sol.weights)).center
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


def test_spectral_report_leading_eigenvalue():
    p = TfsParams(2, 2, 3, 3)
    report = block_spectrum(build_blocks(p, random_weights(p, 5)))
    assert report.eigenvalues[0][0] == pytest.approx(1.0, abs=1e-10)


def test_full_spectrum_identity():
    p = TfsParams(2, 2, 2, 2)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.0))
    report = full_spectrum(wm)
    assert report.lambda2 == pytest.approx(1.0)


def test_spectral_report_holds_two_numbers_and_derives_the_slem():
    assert [f.name for f in dataclasses.fields(SpectralReport)] == [
        "lambda2", "lambda_min",
    ]
    assert SpectralReport(lambda2=0.5, lambda_min=-0.75).slem == 0.75
    assert SpectralReport(lambda2=0.75, lambda_min=-0.5).slem == 0.75


@pytest.mark.parametrize("shape", [(3, 4, 4, 3), (3, 4, 3, 6), (10, 20, 20, 10)])
def test_full_spectrum_reads_the_ascending_eigenvalues(shape):
    # the scheme matrices of the acceptance benchmark table
    p = TfsParams(*shape)
    schemes = [metropolis_orbit_weights(p), best_constant_orbit_weights(p),
               max_degree_orbit_weights(p, convention="inv_dmax")]
    for ow in schemes:
        entries = assemble_weight_matrix(p, ow)
        eigs = np.linalg.eigvalsh(entries)
        report = full_spectrum(entries)
        assert type(report) is SpectralReport
        expected = (eigs[-2], eigs[0], max(eigs[-2], -eigs[0]))
        got = (report.lambda2, report.lambda_min, report.slem)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in expected]
    # a single row is its own lambda2
    assert dataclasses.astuple(full_spectrum(np.array([[0.25]]))) == (0.25, 0.25)


def test_full_spectrum_metropolis_benchmark():
    p = TfsParams(3, 4, 4, 3)
    report = full_spectrum(assemble_weight_matrix(p, metropolis_orbit_weights(p)))
    assert report.slem == pytest.approx(0.97194, abs=5e-4)


def test_full_spectrum_size_guard(monkeypatch):
    monkeypatch.setattr("fusedstar.spectral._FULL_SPECTRUM_ROWS", 10)
    p = TfsParams(3, 2, 2, 3)
    wm = assemble_weight_matrix(p, OrbitWeights.constant(p, 0.25))
    with pytest.raises(
        SpectrumSizeError, match="matrix of size 13 exceeds the dense-eigensolve guard 10"
    ):
        full_spectrum(wm)


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


@pytest.mark.parametrize("m", [5, 200])  # dense route, then bisection
def test_returned_eigenvalues_do_not_share_the_memo(m):
    p = TfsParams(m, 3, m + 1, 4)
    block = counted_blocks(build_blocks(p, metropolis_orbit_weights(p))).center
    reads = (
        lambda: block.eigenvalues([0, block.size - 2]),
        lambda: block.eigenvalues([0, 1]),
    )
    for read in reads * 2:
        first = read()
        expected = first.copy()
        try:
            first[:] = 7.0
        except ValueError:
            pass  # a read-only array is as good as a copy
        assert np.array_equal(read(), expected)
    assert block.eigenvalues([0])[0] == block.eigenvalues([0, block.size - 2])[0]
