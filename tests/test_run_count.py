"""Run-compressed Sturm counts against Kahan's count, row by row.

Every block the program builds has runs of equal rows, and the count
takes each run in closed form.  Here it must give exactly the counts of
``count_eigenvalues_below``, never decrease as the shift rises (bisection
needs that), and the eigenvalues bisected on it must agree with scipy's
tridiagonal eigensolver.  Blocks come from the optimal, Metropolis,
max-degree and unit (best-constant) weights, with arms up to 2 * 10^4.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusedstar import spectral
from fusedstar.cli import main
from fusedstar.optimizer import optimal_weights
from fusedstar.reference import CountedTridiagonal, counted_blocks
from fusedstar.spectral import build_blocks, count_eigenvalues_below
from fusedstar.topology import TfsParams
from fusedstar.weighting import (
    OrbitWeights,
    best_constant_orbit_weights,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
)

SCHEMES = {
    "optimal": lambda p: optimal_weights(p).weights,
    "metropolis": metropolis_orbit_weights,
    "max-degree": lambda p: max_degree_orbit_weights(p, "inv_dmax"),
    "unit": lambda p: OrbitWeights.constant(p, 1.0),
}

EXAMPLES = settings(
    derandomize=True, database=None, deadline=None, max_examples=25
)


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: max(low, min(high, round(math.exp(x))))
    )


networks = st.builds(
    TfsParams,
    m1=log_uniform(1, 2 * 10**4),
    n1=log_uniform(2, 10**6),
    m2=log_uniform(1, 2 * 10**4),
    n2=log_uniform(2, 10**6),
)


def blocks(params, scheme):
    b = counted_blocks(build_blocks(params, SCHEMES[scheme](params)))
    return b.minus, b.center, b.plus


def extremes(tri):
    """The lowest and the top two eigenvalues (all of them up to three
    rows)."""
    n = tri.size
    return tri.eigenvalues(range(n) if n <= 3 else [0, n - 2, n - 1])


def kahan(tri, shifts):
    return count_eigenvalues_below(
        tri.diagonal[:, None], tri.off_diagonal[:, None] ** 2, shifts
    )


def gershgorin(tri):
    radius = np.zeros(tri.size)
    radius[:-1] += np.abs(tri.off_diagonal)
    radius[1:] += np.abs(tri.off_diagonal)
    return (
        float(np.min(tri.diagonal - radius)),
        float(np.max(tri.diagonal + radius)),
    )


def run_ties(tri):
    """Shifts at the eigenvalues ``a + 2|b| cos(k pi / (L + 1))`` of each
    run taken on its own."""
    runs = tri._runs
    ties = []
    for a, c, beta, length in runs.steps:
        if length > 1 and c > 0.0:
            for k in (1, length // 2, length):
                angle = k * math.pi / (length + 1)
                ties.append(runs.scale * (a + 2.0 * beta * math.cos(angle)))
    return np.array(ties)


def run_ends(tri):
    """Shifts either side of the extreme eigenvalues of each leading block
    that ends with a run: there the run's last pivot changes sign."""
    shifts, rows = [], 0
    for *_, length in tri._runs.steps:
        rows += length
        if length > 1:
            lead = CountedTridiagonal(tri.diagonal[:rows], tri.off_diagonal[: rows - 1])
            for value in extremes(lead):
                step = 1e-9 * max(1.0, abs(value))
                shifts += [value - step, value + step]
    return np.array(shifts)


@EXAMPLES
@given(networks, st.sampled_from(sorted(SCHEMES)), st.integers(0, 2**32 - 1))
def test_run_count_equals_kahan_count(params, scheme, seed):
    rng = np.random.default_rng(seed)
    for tri in blocks(params, scheme):
        low, high = gershgorin(tri)
        shifts = [
            rng.uniform(low - 0.1, high + 0.1, 12), run_ties(tri), run_ends(tri)
        ]
        if scheme == "optimal":
            # the self-check's shifts
            s = optimal_weights(params).s
            shifts.append(np.array([s, -s]) + np.array([[-1e-9], [1e-9]]))
        x = np.concatenate([np.ravel(part) for part in shifts])
        assert np.array_equal(tri.count_below(x), kahan(tri, x)), params


@pytest.mark.parametrize("above", [False, True], ids=["below-band", "above-band"])
@pytest.mark.parametrize("eta", [1e-3, 0.02, 0.05])
@pytest.mark.parametrize("z", [0.5, 1.5, 50.5, 99.5, 100.5, 150.0])
def test_a_run_outside_its_band_changes_sign_where_kahan_does(above, eta, z):
    # a run of 100 rows (diagonal 0, coupling 1/2) at a shift outside its
    # band, |0 - x| = cosh(eta): with theta_j = eta (j - z), the leading
    # row's pivot makes the run's pivots change sign between rows z - 1
    # and z (100.5: on its last row), and the last row's pivot is +-1e-6
    # after the pivot that the run hands on.  eta * z stays small enough
    # that rounding cannot move either.
    sign = -1.0 if above else 1.0
    x = -sign * math.cosh(eta)
    entering, handed = (
        sign * 0.5 * math.sinh(eta * (j + 1 - z)) / math.sinh(eta * (j - z))
        for j in (0, 100)
    )
    shifts = x + np.array([-1e-9, 0.0, 1e-9])
    for margin in (1e-6, -1e-6):
        tri = CountedTridiagonal(
            np.concatenate(
                [[x + entering], np.zeros(100), [x + 0.25 / handed + margin]]
            ),
            np.full(101, 0.5),
        )
        assert np.array_equal(tri.count_below(shifts), kahan(tri, shifts))


@EXAMPLES
@given(
    networks,
    st.sampled_from(sorted(SCHEMES)),
    st.integers(8, 300),
    st.integers(0, 2**32 - 1),
)
def test_decoupled_runs_count_like_kahan(params, scheme, padding, seed):
    # a run of decoupled rows of diagonal 1: at the shift 1 each of them is
    # a zero pivot and counts as below
    rng = np.random.default_rng(seed)
    minus, center, plus = blocks(params, scheme)
    for tri in (minus, center, plus):
        padded = CountedTridiagonal(
            np.concatenate([tri.diagonal, np.ones(padding)]),
            np.concatenate([tri.off_diagonal, np.zeros(padding)]),
        )
        low, high = gershgorin(padded)
        x = rng.uniform(low - 0.1, high + 0.1, 12)
        if tri is not center:
            # the central block has the Perron eigenvalue 1 itself
            x = np.append(x, 1.0)
        counts = padded.count_below(x)
        assert np.array_equal(counts, kahan(padded, x)), params
        if tri is not center:
            assert counts[-1] == tri.size + padding


@EXAMPLES
@given(networks, st.sampled_from(sorted(SCHEMES)))
def test_run_count_never_falls_as_the_shift_rises(params, scheme):
    for tri in blocks(params, scheme):
        low, high = gershgorin(tri)
        grids = [np.linspace(low - 0.01, high + 0.01, 1500)]
        # and every float within 100 ulps of each extreme eigenvalue
        for value in extremes(tri):
            steps = np.arange(-100, 101) * np.spacing(abs(value))
            grids.append(value + steps)
        for grid in grids:
            assert np.all(np.diff(tri.count_below(grid)) >= 0), params
        ends = tri.count_below(grids[0][[0, -1]])
        assert ends.tolist() == [0, tri.size]


@EXAMPLES
@given(networks, st.sampled_from(sorted(SCHEMES)))
def test_eigenvalues_match_scipy(params, scheme):
    from scipy.linalg import eigh_tridiagonal

    for tri in blocks(params, scheme):
        n = tri.size
        wanted = list(range(n)) if n <= 3 else [0, n - 2, n - 1]
        expected = np.array([
            eigh_tridiagonal(
                tri.diagonal, tri.off_diagonal, eigvals_only=True,
                select="i", select_range=(i, i),
            )[0]
            for i in wanted
        ]) if n > 1 else tri.diagonal
        tolerance = 1e-13 * max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(tri.eigenvalues(wanted) - expected)) <= tolerance
        assert np.max(np.abs(tri.eigenvalues([0]) - expected[:1])) <= tolerance


BISECTED_SCHEMES = {
    "metropolis": metropolis_orbit_weights,
    "max-degree": lambda p: max_degree_orbit_weights(p, "inv_dmax"),
    "best-constant": best_constant_orbit_weights,
    "unit": lambda p: OrbitWeights.constant(p, 1.0),
}


@pytest.mark.parametrize("scheme", sorted(BISECTED_SCHEMES))
@pytest.mark.parametrize(
    "shape", [(450, 5, 400, 3), (65, 3, 66, 4), (800, 2, 700, 8), (2000, 3, 70, 9)]
)
def test_bisected_eigenvalues_keep_the_search_contract(shape, scheme):
    # every block of more than _DENSE_ROWS rows, read unseeded, bisects:
    # each value is bracketed by counts two ulps either side, within a few
    # eps ||T|| of LAPACK's, and the same bits however the indices are read
    from scipy.linalg import eigh_tridiagonal

    p = TfsParams(*shape)
    b = counted_blocks(build_blocks(p, BISECTED_SCHEMES[scheme](p)))
    large = [tri for tri in (b.minus, b.center, b.plus) if tri.size > 64]
    assert large
    for tri in large:
        n = tri.size
        wanted = [0, n - 2, n - 1]
        values = tri.eigenvalues(wanted)
        expected = np.array([
            eigh_tridiagonal(
                tri.diagonal, tri.off_diagonal, eigvals_only=True,
                select="i", select_range=(i, i),
            )[0]
            for i in wanted
        ])
        norm = max(abs(expected[0]), abs(expected[-1]))
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for i, x in zip(wanted, values.tolist()):
            w = max(2.0 * eps * abs(x), tiny)
            assert tri.count_below(x - w) <= i < tri.count_below(x + w)
        assert np.max(np.abs(values - expected)) <= 4.0 * eps * norm

        def fresh():
            return CountedTridiagonal(tri.diagonal, tri.off_diagonal)

        alone = [fresh().eigenvalues([i])[0] for i in wanted]
        reverse = fresh().eigenvalues(wanted[::-1])[::-1]
        together = fresh().eigenvalues(wanted)
        assert together.tobytes() == np.array(alone).tobytes() == reverse.tobytes()


def test_an_exact_eigenvalue_takes_few_counts(monkeypatch, capsys):
    # the unit-weight arm block at m = 4 has the eigenvalue 0 exactly,
    # where the last pivot floors to -pivmin; compare at (4, 20, 8, 93)
    # finds it for best-constant
    counted = []
    count = spectral._RunCount.count

    def counting(self, x):
        counted.append(x)
        return count(self, x)

    monkeypatch.setattr(spectral._RunCount, "count", counting)
    tri = CountedTridiagonal(np.array([0.0, -1.0, -1.0, -1.0]), np.ones(3))
    expected = np.linalg.eigvalsh(tri.dense())[[0, 2, 3]]
    assert np.max(np.abs(tri.eigenvalues([0, 2, 3]) - expected)) <= 1e-15
    assert len(counted) <= 200
    counted.clear()
    assert main(["compare", "--m1", "4", "--n1", "20", "--m2", "8", "--n2", "93"]) == 0
    capsys.readouterr()
    assert len(counted) <= 500
