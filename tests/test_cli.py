"""Command-line interface: report formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from fusedstar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_solve_optimal_json(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {
        "m1": 3, "n1": 4, "m2": 4, "n2": 3, "n_nodes": 25
    }
    assert payload["scheme"] == "optimal"
    assert payload["slem"] == pytest.approx(0.95450, abs=5e-5)
    assert payload["lambda2"] == payload["slem"]
    assert payload["theta_star"] == pytest.approx(0.302803, abs=1e-6)
    assert set(payload["weights"]) == {"-3", "-2", "-1", "1", "2", "3", "4"}
    assert payload["weights"]["-2"] == 0.5
    assert payload["certificate"]["passes"] is True
    # report invariant
    assert payload["slem"] == pytest.approx(
        max(payload["lambda2"], -payload["lambda_min"]), abs=1e-12
    )


def test_solve_best_constant(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--m1", "3", "--n1", "4", "--m2", "3", "--n2", "6",
        "--scheme", "best-constant",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slem"] == pytest.approx(0.96497, abs=5e-4)
    assert payload["theta_star"] is None
    assert "certificate" not in payload


def test_solve_rejects_single_branch_star(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--m1", "3", "--n1", "1", "--m2", "3", "--n2", "2",
        "--scheme", "optimal",
    )
    assert code == 2
    assert ">= 2" in err


def test_solve_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--m1", "2", "--n1", "2", "--m2", "2", "--n2", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) == out.strip()


def test_solve_deterministic(capsys):
    argv = ("solve", "--m1", "2", "--n1", "3", "--m2", "1", "--n2", "4")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


TABLE_ROWS = {
    (3, 4, 4, 3): {
        "optimal": 0.95450,
        "max-degree": 0.98277,
        "metropolis": 0.97194,
        "best-constant": 0.97089,
    },
    (10, 20, 20, 10): {
        "optimal": 0.99774,
        "max-degree": 0.99981,
        "metropolis": 0.99884,
        "best-constant": 0.99962,
    },
}


@pytest.mark.parametrize("params", sorted(TABLE_ROWS))
def test_compare_reproduces_benchmark_rows(capsys, params):
    m1, n1, m2, n2 = params
    code, out, _ = run_cli(
        capsys,
        "compare",
        "--m1", str(m1), "--n1", str(n1), "--m2", str(m2), "--n2", str(n2),
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["scheme", "slem"]
    values = {scheme: float(text) for scheme, text in rows}
    for scheme, expected in TABLE_ROWS[params].items():
        assert values[scheme] == pytest.approx(expected, abs=5e-4), scheme
    assert values["optimal"] == min(values.values())


def test_compare_optimal_matches_solve(capsys):
    argv = ("--m1", "2", "--n1", "3", "--m2", "3", "--n2", "2")
    _, solve_out, _ = run_cli(capsys, "solve", *argv)
    _, compare_out, _ = run_cli(capsys, "compare", *argv)
    _, rows = parse_csv(compare_out)
    compare_value = dict(rows)["optimal"]
    assert float(compare_value) == json.loads(solve_out)["slem"]


@pytest.mark.parametrize("params", [(3, 4, 4, 3), (2, 2, 2, 2)])
def test_verify_passes_at_optimum(capsys, params):
    m1, n1, m2, n2 = params
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--m1", str(m1), "--n1", str(n1), "--m2", str(m2), "--n2", str(n2),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passes"] is True
    assert payload["residuals"]["slackness_center"] <= 1e-8
    assert payload["residuals"]["feasibility_min_eig"] >= -1e-10


def test_verify_perturbation_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3",
        "--perturb", "0.01",
    )
    assert code == 1
    assert json.loads(out)["passes"] is False


def test_sweep_fig2_shape(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "fig2", "--mbar-min", "1", "--mbar-max", "2"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m_bar", "network", "m1", "m2", "slem"]
    by_mbar = {}
    for m_bar, network, m1, m2, slem in rows:
        by_mbar.setdefault(int(m_bar), []).append((network, float(slem)))
    assert set(by_mbar) == {1, 2}
    for m_bar, cells in by_mbar.items():
        stars = [v for kind, v in cells if kind == "star"]
        others = [v for kind, v in cells if kind == "tfs"]
        assert len(stars) == 1
        assert others, "each mean length lists at least one two-star network"
        assert all(stars[0] <= v + 1e-12 for v in others)


def test_sweep_fig3_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "fig3", "--m1-max", "3", "--m2-max", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m1", "m2", "slem"]
    grid = {(int(a), int(b)): float(v) for a, b, v in rows}
    assert len(grid) == 9
    for (m1, m2), v in grid.items():
        if (m1 + 1, m2) in grid:
            assert grid[(m1 + 1, m2)] > v
        if (m1, m2 + 1) in grid:
            assert grid[(m1, m2 + 1)] > v


def test_sweep_fig4_boundary_weight_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "fig4", "--m1-max", "3", "--m2-max", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m1", "m2", "w_minus_1"]
    grid = {(int(a), int(b)): float(v) for a, b, v in rows}
    for (m1, m2), v in grid.items():
        if (m1 + 1, m2) in grid:
            assert grid[(m1 + 1, m2)] > v  # grows with own branch length
        if (m1, m2 + 1) in grid:
            assert grid[(m1, m2 + 1)] < v  # shrinks with the other


def test_sweep_custom_requires_branch_counts(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "custom", "--m1-max", "2", "--m2-max", "2"
    )
    assert code == 2
    assert "--n1" in err


def test_sweep_custom_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "custom",
        "--n1", "3", "--n2", "4", "--m1-max", "1", "--m2-max", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m1", "m2", "slem", "w_minus_1", "theta_star"]
    assert len(rows) == 1
    m1, m2, slem, w_minus_1, theta = rows[0]
    assert (m1, m2) == ("1", "1")
    assert float(slem) == pytest.approx(0.7777777778, abs=1e-9)
    assert float(w_minus_1) == pytest.approx(0.2222222222, abs=1e-9)
    assert float(theta) == pytest.approx(0.6796738189, abs=1e-9)


def test_sweep_empty_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "fig2", "--mbar-min", "3", "--mbar-max", "2"
    )
    assert code == 2
    assert err


def test_simulate_trajectory(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,error_norm,sum_deviation"
    assert lines[-1].startswith("# convergence_factor_estimate = ")
    estimate = float(lines[-1].rsplit("=", 1)[1])
    assert estimate == pytest.approx(0.9545, abs=1e-3)
    assert len(lines) == 1 + 501 + 1  # header, states 0..500, estimate


def test_simulate_max_degree_estimate(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3",
        "--scheme", "max-degree",
    )
    assert code == 0
    estimate = float(out.splitlines()[-1].rsplit("=", 1)[1])
    assert estimate == pytest.approx(0.98277, abs=1e-3)


def test_simulate_deterministic(capsys):
    argv = (
        "simulate",
        "--m1", "2", "--n1", "2", "--m2", "2", "--n2", "2",
        "--steps", "50", "--seed", "7",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_console_entry_point():
    result = subprocess.run(
        [
            sys.executable, "-m", "fusedstar.cli",
            "solve", "--m1", "1", "--n1", "2", "--m2", "1", "--n2", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["params"]["n_nodes"] == 5
