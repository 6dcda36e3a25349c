"""The live defects that ROADMAP lists, one strict xfail each.

Each test asserts the right behaviour and fails today for the reason its
mark names; ``raises=AssertionError`` keeps any other failure visible.
A strict xfail that starts to pass fails the suite, so the change that
mends a defect removes its mark.  Each expected value comes from outside
the route under test: an exact rational count
(``reference.exact_count_below``) or a dense solve, whose own readings
the plain tests at the end of this file hold.
"""
import json
from fractions import Fraction

import numpy as np
import pytest

from fusedstar.cli import main
from fusedstar.reference import exact_count_below
from fusedstar.spectral import build_blocks
from fusedstar.topology import TfsParams
from fusedstar.weighting import max_degree_orbit_weights


def known_defect(item):
    return pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {item}"
    )


def run(capsys, command, shape, *options):
    argv = [command]
    for name, value in zip(("--m1", "--n1", "--m2", "--n2"), shape):
        argv += [name, str(value)]
    code = main(argv + list(options))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def central_block_of_one_row_arms(n1, n2, w_minus, w_plus):
    """The central block at ``m1 = m2 = 1``, exactly: its diagonal and its
    squared couplings."""
    diagonal = [1 - w_minus, 1 - n1 * w_minus - n2 * w_plus, 1 - w_plus]
    return diagonal, [n1 * w_minus**2, n2 * w_plus**2]


HUGE_MAX_DEGREE = TfsParams(2, 2**1022, 3, 2**1022)


def dense_max_degree_lambda_min():
    center = build_blocks(
        HUGE_MAX_DEGREE, max_degree_orbit_weights(HUGE_MAX_DEGREE)
    ).center
    dense = np.diag(center.diagonal)
    dense += np.diag(center.off_diagonal, 1) + np.diag(center.off_diagonal, -1)
    return float(np.linalg.eigvalsh(dense)[0])


@known_defect("1a")
def test_verify_fails_weights_perturbed_off_the_optimum(capsys):
    code, _, _ = run(capsys, "verify", (10**5, 2, 2, 2), "--perturb", "5e-7")
    assert code == 1


@known_defect("17a")
def test_solve_does_not_pass_weights_that_diverge(capsys):
    code, out, _ = run(capsys, "solve", (11, 235434933, 9, 524143442237257))
    assert not (code == 0 and json.loads(out)["certificate"]["passes"] is True)


@known_defect("1a and 12")
def test_verify_does_not_fail_the_optimum_of_long_arms(capsys):
    code, out, err = run(capsys, "verify", (10**9, 3, 10**9, 4))
    if code == 0:
        assert json.loads(out)["passes"] is True
    else:
        # a typed refusal: a reason and no report, not a failed check
        assert code != 1 and out == "" and err.startswith("error: ")


@known_defect(14)
def test_printed_weights_have_no_eigenvalue_at_or_below_minus_one(capsys):
    n1, n2 = 10**12, 2
    code, out, _ = run(capsys, "solve", (1, n1, 1, n2))
    assert code == 0
    weights = json.loads(out, parse_float=Fraction)["weights"]
    diagonal, couplings = central_block_of_one_row_arms(
        n1, n2, Fraction(weights["-1"]), Fraction(weights["1"])
    )
    # the arm blocks are the rows 1 - w, far from -1
    assert exact_count_below(diagonal, couplings, -1) == 0


def test_max_degree_lambda_min_at_huge_branch_counts(capsys):
    code, out, _ = run(
        capsys, "solve", (2, 2**1022, 3, 2**1022), "--scheme", "max-degree"
    )
    assert code == 0
    expected = dense_max_degree_lambda_min()
    assert abs(json.loads(out)["lambda_min"] - expected) <= 0.01 * abs(expected)


def test_the_dense_oracle_reads_the_huge_max_degree_lambda_min():
    assert dense_max_degree_lambda_min() == pytest.approx(-1.11253693e-308, rel=1e-8)


def test_the_exact_count_sees_an_eigenvalue_below_minus_one():
    # the block of one-row arms with the center's entry below -1 has an
    # eigenvalue below it; with weights half as large it has none
    n1, n2 = 10**12, 2
    w = Fraction(2, 10**12)
    assert exact_count_below(*central_block_of_one_row_arms(n1, n2, w, w), -1) == 1
    assert exact_count_below(*central_block_of_one_row_arms(n1, n2, w / 2, w / 2), -1) == 0
