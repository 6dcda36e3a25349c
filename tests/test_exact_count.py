"""Sturm counts against an exact count in rational arithmetic.

``reference.exact_count_below`` steps the pivots of ``T - xI`` in
``fractions``, so its count is the inertia of the matrix that the floats
stand for.  ``reference.CountedTridiagonal.count_below`` (run-compressed)
and ``count_eigenvalues_below`` (Kahan's, row by row) must give it at every
shift that the exact count itself proves at least ``delta`` away from
every eigenvalue: where its counts at ``x - delta`` and ``x + delta`` are
equal.  The blocks come from seeded shapes with arms of at most 40 rows
and branch counts up to 10^15, under the optimal, Metropolis and
perturbed optimal weights.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fusedstar.optimizer import optimal_weights
from fusedstar.reference import (
    build_blocks,
    counted_blocks,
    exact_count_below,
    metropolis_orbit_weights,
)
from fusedstar.spectral import Tridiagonal, count_eigenvalues_below
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights

# the separation a tested shift keeps from every eigenvalue, relative to
# the block's largest entry (and at least absolute)
RELATIVE_DELTA = 2.0**-30


def _perturbed(params, rng):
    # every optimal weight moved by up to 1e-12 .. 1e-3 relative
    values = optimal_weights(params).weights.values
    size = 10.0 ** -rng.uniform(3.0, 12.0)
    return OrbitWeights(params, values * (1.0 + size * rng.uniform(-1.0, 1.0, values.size)))


WEIGHTINGS = {
    "optimal": lambda params, rng: optimal_weights(params).weights,
    "metropolis": lambda params, rng: metropolis_orbit_weights(params),
    "perturbed": _perturbed,
}


def _shapes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m1, m2 = rng.randint(1, 40), rng.randint(1, 40)
        n1, n2 = (round(10 ** rng.uniform(math.log10(2), 15)) for _ in range(2))
        yield TfsParams(m1, n1, m2, n2)


def _shifts(tri, rng):
    """±1 and 0, four uniform shifts over the spectrum and a little past
    it, and each side of three of its eigenvalues, 16 delta off."""
    values = np.linalg.eigvalsh(tri.dense())
    delta = _delta(tri)
    near = rng.choice(values, size=min(3, values.size), replace=False)
    return [
        -1.0, 0.0, 1.0,
        *rng.uniform(values[0] - 0.1, values[-1] + 0.1, 4).tolist(),
        *(near - 16.0 * delta).tolist(),
        *(near + 16.0 * delta).tolist(),
    ]


def _delta(tri):
    largest = np.max(np.abs(np.concatenate([tri.diagonal, tri.off_diagonal])))
    return RELATIVE_DELTA * max(1.0, float(largest))


def _exact(tri):
    """The block's diagonal and squared couplings as exact rationals."""
    return tri.diagonal.tolist(), [Fraction(b) ** 2 for b in tri.off_diagonal.tolist()]


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_sturm_counts_equal_the_exact_count(seed, weighting):
    rng = np.random.default_rng(seed)
    tested = skipped = 0
    for params in _shapes(1000 * seed + len(weighting), 16):
        blocks = counted_blocks(build_blocks(params, WEIGHTINGS[weighting](params, rng)))
        for tri in (blocks.minus, blocks.center, blocks.plus):
            diagonal, couplings = _exact(tri)
            delta = Fraction(_delta(tri))
            shifts, counts = [], []
            for x in _shifts(tri, rng):
                low = exact_count_below(diagonal, couplings, Fraction(x) - delta)
                if exact_count_below(diagonal, couplings, Fraction(x) + delta) != low:
                    skipped += 1  # an eigenvalue within delta of x
                    continue
                shifts.append(x)
                counts.append(low)
            assert [tri.count_below(x) for x in shifts] == counts, params
            kahan = count_eigenvalues_below(
                tri.diagonal[:, None], tri.off_diagonal[:, None] ** 2, np.array(shifts)
            )
            assert kahan.tolist() == counts, params
            tested += len(shifts)
    # most shifts are proven clear of the spectrum; those skipped are
    # mostly 0 and ±1, where a block has an eigenvalue at or near them
    assert tested >= 5 * skipped and tested >= 400


@pytest.mark.parametrize(
    "diagonal, couplings, shift, expected",
    [
        # eigenvalues 1 and 3: the one at the shift counts as below it
        ([2, 2], [1], 1, 1),
        ([2, 2], [1], 3, 2),
        ([2, 2], [1], Fraction(999, 1000), 0),
        # a decoupled double eigenvalue at the shift
        ([1, 1], [0], 1, 2),
        # eigenvalues -sqrt(2), 0, sqrt(2): a zero pivot in row 0
        ([0, 0, 0], [1, 1], 0, 2),
        ([0, 0, 0], [1, 1], -1, 1),
        ([0, 0, 0], [2, 2], 2, 3),
        ([5], [], 5, 1),
    ],
)
def test_exact_count_keeps_the_tie_rule(diagonal, couplings, shift, expected):
    assert exact_count_below(diagonal, couplings, shift) == expected
    kahan = count_eigenvalues_below(
        np.array(diagonal, dtype=float)[:, None],
        np.array(couplings, dtype=float)[:, None],
        np.array([float(shift)]),
    )
    if Fraction(float(shift)) == Fraction(shift):
        assert kahan.tolist() == [expected]


def test_exact_count_matches_dense_eigenvalues_on_small_rational_blocks():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 8)
        diagonal = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rows)]
        couplings = [Fraction(rng.randint(0, 30), rng.randint(1, 9)) for _ in range(rows - 1)]
        tri = Tridiagonal(
            np.array([float(a) for a in diagonal]),
            np.sqrt([float(c) for c in couplings]),
        )
        values = np.linalg.eigvalsh(tri.dense())
        for x in rng.sample(range(-40, 41), 10):
            x = Fraction(x, 8)
            if np.min(np.abs(values - float(x))) > 1e-9:
                assert exact_count_below(diagonal, couplings, x) == int(
                    np.sum(values < float(x))
                )
