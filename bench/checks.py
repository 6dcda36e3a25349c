"""Correctness checks of CLI output, run outside the timed region.

``check_output`` returns None for a correct output and a one-line reason
otherwise, so that a fast wrong answer counts as a failed request.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random

from fusedstar.optimizer import optimal_weights, solve_symmetric_star
from fusedstar.simulation import random_initial_state
from fusedstar.spectral import full_spectrum
from fusedstar.topology import TfsParams
from fusedstar.weighting import assemble_weight_matrix

ORACLE_TOL = 1e-9  # printed values carry 10 significant digits
SWEEP_ROWS_CHECKED = 2
FIG2_BRANCHES = (6, 12)


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _params(argv: list[str]) -> TfsParams:
    return TfsParams(*(int(_option(argv, f"--{k}")) for k in ("m1", "n1", "m2", "n2")))


def _dense_slem(params: TfsParams, weights) -> float:
    return full_spectrum(assemble_weight_matrix(params, weights)).slem


def _check_solve(argv: list[str], stdout: str, rng: random.Random) -> str | None:
    payload = json.loads(stdout)
    if payload["certificate"]["passes"] is not True:
        return "certificate does not pass"
    gap = abs(payload["slem"] - math.cos(payload["theta_star"]))
    if gap > ORACLE_TOL:
        return f"slem differs from cos(theta*) by {gap:.3g}"
    return None


def _check_sweep_row(argv: list[str], row: dict[str, str]) -> str | None:
    if argv[1] == "custom":
        params = TfsParams(int(row["m1"]), int(_option(argv, "--n1")),
                           int(row["m2"]), int(_option(argv, "--n2")))
        solution = optimal_weights(params)
        if abs(float(row["w_minus_1"]) - solution.weights[-1]) > ORACLE_TOL:
            return f"w_minus_1 of row {row} differs from the re-solved weight"
    elif row["network"] == "star":
        m_bar = int(row["m_bar"])
        solution = solve_symmetric_star(m_bar, sum(FIG2_BRANCHES))
        params = solution.params
    else:
        n1, n2 = FIG2_BRANCHES
        params = TfsParams(int(row["m1"]), n1, int(row["m2"]), n2)
        solution = optimal_weights(params)
    gap = abs(float(row["slem"]) - _dense_slem(params, solution.weights))
    if gap > ORACLE_TOL:
        return f"row {row} differs from the dense oracle by {gap:.3g}"
    return None


def _check_sweep(argv: list[str], stdout: str, rng: random.Random) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if argv[1] == "custom":
        expected = int(_option(argv, "--m1-max")) * int(_option(argv, "--m2-max"))
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
    if not rows:
        return "no rows"
    for row in rng.sample(rows, min(SWEEP_ROWS_CHECKED, len(rows))):
        reason = _check_sweep_row(argv, row)
        if reason:
            return reason
    return None


def _check_compare(argv: list[str], stdout: str, rng: random.Random) -> str | None:
    slem = {row["scheme"]: float(row["slem"]) for row in csv.DictReader(io.StringIO(stdout))}
    if set(slem) != {"optimal", "max-degree", "metropolis", "best-constant"}:
        return f"schemes {sorted(slem)}"
    if not all(0.0 <= value < 1.0 for value in slem.values()):
        return f"slem outside [0, 1): {slem}"
    if any(slem["optimal"] > value + 1e-12 for value in slem.values()):
        return f"optimal is not the smallest slem: {slem}"
    return None


def _check_simulate(argv: list[str], stdout: str, rng: random.Random) -> str | None:
    lines = stdout.splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    steps = int(_option(argv, "--steps"))
    if len(rows) != steps + 1:
        return f"{len(rows)} trajectory rows, expected {steps + 1}"
    x0 = random_initial_state(_params(argv).n_nodes, int(_option(argv, "--seed")))
    budget = 1e-9 * float(abs(x0).sum())
    drift = max(float(row["sum_deviation"]) for row in rows)
    if drift > budget:
        return f"sum drift {drift:.3g} exceeds {budget:.3g}"
    if not lines[-1].startswith("# convergence_factor_estimate = "):
        return "missing convergence factor estimate"
    return None


_CHECKS = {
    "solve": _check_solve,
    "sweep": _check_sweep,
    "compare": _check_compare,
    "simulate": _check_simulate,
}


def check_output(argv: list[str], stdout: str, rng: random.Random) -> str | None:
    """None if ``stdout`` is a correct answer to ``argv``, else the reason."""
    try:
        return _CHECKS[argv[0]](argv, stdout, rng)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
