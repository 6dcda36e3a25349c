"""Command-line interface: report formats, exit codes, determinism."""

import csv
import importlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fusedstar
from fusedstar import cli, optimizer, spectral
from fusedstar.cli import _sig10, _weights_json, main
from fusedstar.optimizer import (
    SelfCheckError,
    optimal_weights,
    solve_symmetric_star,
)
from fusedstar.topology import TfsParams
from fusedstar.weighting import (
    best_constant_orbit_weights,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    # the child imports the same fusedstar package as this process
    package_root = str(pathlib.Path(fusedstar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, [env.get("PYTHONPATH")])]
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_cli_process(argv, preexec_fn=None):
    # bytes, decoded without newline translation: CSV rows end in \r\n
    result = subprocess.run(
        [sys.executable, "-m", "fusedstar.cli", *argv],
        capture_output=True,
        env=cli_env(),
        preexec_fn=preexec_fn,
        timeout=120,
    )
    return result.returncode, result.stdout.decode(), result.stderr.decode()


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


def _seeded_shapes(seed, count):
    rng = random.Random(seed)

    def draw(high):
        return max(1, round(math.exp(rng.uniform(0.0, math.log(high)))))

    return [(draw(900), 1 + draw(10**4), draw(900), 1 + draw(10**4)) for _ in range(count)]


# the smallest shape, arms of one orbit, seeded shapes and one long arm
JSON_SHAPES = [
    (1, 2, 1, 2), (1, 7, 5, 3), (6, 3, 1, 9), (3, 4, 4, 3),
    *_seeded_shapes(20261018, 4), (100_000, 2, 3, 2),
]
SCHEME_WEIGHTS = {
    "optimal": lambda p: optimal_weights(p).weights,
    "max-degree": max_degree_orbit_weights,
    "metropolis": metropolis_orbit_weights,
    "best-constant": best_constant_orbit_weights,
}


@pytest.mark.parametrize("shape", JSON_SHAPES)
@pytest.mark.parametrize("scheme", [*SCHEME_WEIGHTS, "dmax+1"])
def test_solve_writes_the_bytes_of_the_per_weight_dict(capsys, scheme, shape):
    params = TfsParams(*shape)
    argv = ["solve", *(f"--{k}={v}" for k, v in zip(("m1", "n1", "m2", "n2"), shape))]
    if scheme == "dmax+1":
        argv += ["--scheme", "max-degree", "--max-degree-convention", "dmax+1"]
        weights = max_degree_orbit_weights(params, "inv_dmax_plus_1")
    else:
        argv += ["--scheme", scheme]
        weights = SCHEME_WEIGHTS[scheme](params)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    payload["weights"] = dict(
        zip(map(str, params.orbit_labels), map(_sig10, weights.values.tolist()))
    )
    assert out == json.dumps(payload, indent=2) + "\n"


def _runs(pieces):
    return [value for value, length in pieces for _ in range(length)]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 0.5,
     0.1, math.nextafter(0.1, 1.0), 1.7976931348623157e308]
)
_VECTORS = st.one_of(
    st.lists(st.one_of(_FINITE, _EDGE_VALUES), min_size=2, max_size=40),
    # runs of equal values: all equal, alternating and in between
    st.lists(
        st.tuples(st.one_of(_EDGE_VALUES, _FINITE), st.integers(1, 6)), min_size=1, max_size=8
    ).map(_runs).filter(lambda v: len(v) >= 2),
)


@given(values=_VECTORS, data=st.data())
@example(values=[-0.0, 0.0, 0.0, -0.0, -0.0], data=None)
@example(values=[1e300] * 7 + [-1e300, 5e-324, -5e-324], data=None)
@example(values=[0.1, math.nextafter(0.1, 1.0)] * 3, data=None)
@settings(max_examples=300, deadline=None)
def test_weights_writer_matches_the_stdlib_encoder(values, data):
    m1 = data.draw(st.integers(1, len(values) - 1)) if data else len(values) // 2
    params = TfsParams(m1, 2, len(values) - m1, 2)
    by_label = dict(zip(map(str, params.orbit_labels), map(_sig10, values)))
    written = _weights_json(params, np.array(values))
    assert '{\n  "weights": ' + written + "\n}" == json.dumps(
        {"weights": by_label}, indent=2
    )


@pytest.fixture
def run_counts(monkeypatch):
    """Counts of ``_RunCount`` builds and eigenvalue searches."""
    counts = {"built": 0, "searched": 0}
    build, search = spectral._RunCount.__init__, spectral._RunCount._search

    def counted_build(self, *args):
        counts["built"] += 1
        build(self, *args)

    def counted_search(self, *args):
        counts["searched"] += 1
        return search(self, *args)

    monkeypatch.setattr(spectral._RunCount, "__init__", counted_build)
    monkeypatch.setattr(spectral._RunCount, "_search", counted_search)
    return counts


@pytest.mark.parametrize(
    "command, built, searched",
    [
        # the optimum's blocks, which its self-check, report and
        # certificate share; the seeds +-s stand, so nothing is searched
        ("solve", 3, 0),
        ("verify", 3, 0),
        # three blocks per scheme, and the unit weights of best-constant;
        # two eigenvalues of each of the other schemes' nine blocks and of
        # best-constant's three
        ("compare", 15, 24),
    ],
)
def test_each_solve_builds_each_block_and_finds_each_eigenvalue_once(
    capsys, run_counts, command, built, searched
):
    code, _, _ = run_cli(
        capsys, command, "--m1", "450", "--n1", "5", "--m2", "400", "--n2", "3"
    )
    assert code == 0
    assert run_counts == {"built": built, "searched": searched}


def test_solve_never_searches_the_consensus_eigenvalue(capsys, monkeypatch):
    # the center's top is 1, and an arm's second-highest eigenvalue is
    # never the report's lambda2 nor its lambda_min; at the optimum the
    # report's own eigenvalues stand on their seeds +-s, so none is searched
    searched = []
    search = spectral._RunCount._search

    def recorded_search(self, index, counted):
        searched.append((self.size, index))
        return search(self, index, counted)

    monkeypatch.setattr(spectral._RunCount, "_search", recorded_search)
    code, _, _ = run_cli(
        capsys, "solve", "--m1", "450", "--n1", "5", "--m2", "400", "--n2", "3"
    )
    assert code == 0
    assert searched == []


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


def test_verify_negative_perturbation_fails(capsys):
    # a negative value must be attached with '=': argparse reads a
    # separate "-1e-3" as an option
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3",
        "--perturb=-1e-3",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["perturbation"] == -1e-3
    assert payload["passes"] is False


@pytest.mark.parametrize("perturb", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_perturbation(capsys, perturb):
    code, out, err = run_cli(
        capsys,
        "verify",
        "--m1", "1", "--n1", "2", "--m2", "1", "--n2", "2",
        f"--perturb={perturb}",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --perturb must be finite")


@pytest.mark.parametrize(
    "shape, perturb",
    [
        ((3, 4, 4, 3), "1e154"),
        ((1, 2, 1, 2), "1e160"),
        # blocks long enough for bisection, scaled before counting
        ((300, 3, 300, 4), "1e154"),
    ],
    ids=["3-4-4-3", "1-2-1-2", "300-3-300-4"],
)
def test_verify_reports_an_overflowing_weight(capsys, shape, perturb):
    # the weight's square overflows, yet the report is whole and fails
    m1, n1, m2, n2 = map(str, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--m1", m1, "--n1", n1, "--m2", m2, "--n2", n2,
            "--perturb", perturb,
        )
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["passes"] is False
    assert report["perturbation"] == float(perturb)
    assert report["residuals"]["feasibility_min_eig"] < -float(perturb)
    assert all(math.isfinite(value) for value in report["residuals"].values())


@pytest.mark.parametrize("perturb", ["1e308", "-1e308"])
@pytest.mark.parametrize("shape", [(1, 2, 1, 2), (100, 3, 80, 4)], ids=str)
def test_verify_reports_an_infinite_block_entry_as_one_error(capsys, shape, perturb):
    # n1 w_{-1} overflows in the central block: the typed error is the only
    # line on stderr, with no numpy warning before it
    m1, n1, m2, n2 = map(str, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--m1", m1, "--n1", n1, "--m2", m2, "--n2", n2,
            f"--perturb={perturb}",
        )
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: a block with non-finite entries has no eigenvalues"]


@pytest.mark.parametrize(
    "shape, perturb",
    [((100, 3, 80, 4), "5e307"), ((100, 3, 80, 4), "-5e307"), ((1, 2, 1, 2), "-5e307")],
    ids=str,
)
def test_verify_refuses_a_block_past_the_float_range(capsys, shape, perturb):
    # a block entry of 2^1023 or more has no power of two above it to scale
    # the block by: the typed error is the only line, with no warning
    m1, n1, m2, n2 = map(str, shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "verify",
            "--m1", m1, "--n1", n1, "--m2", m2, "--n2", n2,
            f"--perturb={perturb}",
        )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: a block with an entry of 2^1023 or more in magnitude may "
        "have eigenvalues past the float range"
    ]


def test_verify_output_does_not_depend_on_the_blas_thread_count():
    # at 20003 orbits a BLAS dot product splits its sum between threads
    argv = [sys.executable, "-m", "fusedstar.cli",
            "verify", "--m1", "20000", "--n1", "2", "--m2", "2", "--n2", "2"]
    outs = []
    for threads in ("1", "2"):
        env = cli_env()
        env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert result.returncode == 0
        outs.append(result.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "4"], 0),
        (["compare", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "4"], 0),
        (["simulate", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "4",
          "--steps", "20", "--tail", "10"], 0),
        (["verify", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "4"], 2),
        (["sweep", "fig3", "--m1-max", "2", "--m2-max", "2"], 2),
    ],
    ids=["solve", "compare", "simulate", "verify", "sweep"],
)
def test_only_max_degree_commands_take_its_convention(capsys, argv, code):
    try:
        returned = main([*argv, "--max-degree-convention", "dmax+1"])
    except SystemExit as exc:  # argparse rejects an unknown option
        returned = exc.code
    assert returned == code
    capsys.readouterr()


def test_verify_help_shows_the_negative_perturbation_form(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--perturb=-1e-3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m1", "2", "--n1", str(10**400), "--m2", "2", "--n2", "2"],
        ["verify", "--m1", "2", "--n1", "2", "--m2", "2", "--n2", str(10**400)],
        ["sweep", "custom", "--n1", str(10**400), "--n2", "3", "--m1-max", "2"],
    ],
    ids=["solve", "verify", "sweep"],
)
def test_branch_count_beyond_float_range_is_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert len(out.splitlines()) <= 1  # a sweep prints its header first
    assert "too large for floating-point arithmetic" in err


@pytest.mark.parametrize(
    "argv",
    [
        "solve --m1 1152921504606846976 --n1 2 --m2 2 --n2 2",
        "compare --m1 2 --n1 2 --m2 1152921504606846976 --n2 2",
        "verify --m1 9223372036854775807 --n1 2 --m2 2 --n2 2",
        "solve --m1 9223372036854775807 --n1 2 --m2 2 --n2 2 --scheme metropolis",
        "simulate --m1 2 --n1 576460752303423488 --m2 2 --n2 2 --steps 10 --tail 5",
        "simulate --m1 3 --n1 4 --m2 4 --n2 3 --steps 1152921504606846976 --tail 5",
        "sweep custom --n1 2 --n2 3 --m1-max 1073741824 --m2-max 1073741824",
    ],
)
def test_a_size_past_numpy_array_limit_is_invalid_input(capsys, argv):
    # more than 2^60 - 1 float64 entries: numpy cannot even try to allocate
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_a_size_at_numpy_array_limit_is_a_memory_error(capsys):
    # 2^60 - 1 rows, 2^60 - 2 orbit weights: numpy tries, and fails to allocate
    code, out, err = run_cli(
        capsys, "solve", "--m1", "1152921504606846972", "--n1", "2", "--m2", "2", "--n2", "2"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate 8.00 EiB")


def test_huge_branch_count_within_float_range_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--m1", "2", "--n1", str(10**300), "--m2", "2", "--n2", "2"
    )
    assert code == 0
    assert json.loads(out)["certificate"]["passes"] is True


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


def test_sweep_fig2_star_rows_match_the_star_route(capsys):
    code, out, _ = run_cli(capsys, "sweep", "fig2", "--mbar-max", "200")
    assert code == 0
    _, rows = parse_csv(out)
    stars = [(int(m_bar), slem) for m_bar, network, _, _, slem in rows
             if network == "star"]
    assert stars == [
        (m, f"{solve_symmetric_star(m, 18).s:.10g}") for m in range(1, 201)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--mbar-max", "4"],
        ["fig3", "--m1-max", "3", "--m2-max", "2"],
        ["fig4", "--m1-max", "2", "--m2-max", "3"],
        ["custom", "--n1", "3", "--n2", "5", "--m1-max", "2", "--m2-max", "2"],
    ],
    ids=["fig2", "fig3", "fig4", "custom"],
)
def test_every_sweep_is_one_batch(capsys, monkeypatch, argv):
    def scalar_route(params, *args):
        raise SelfCheckError(f"the scalar route ran for {params}")

    batches = []
    batch = cli.optimal_weights_batch

    def counted_batch(*shapes):
        batches.append(shapes)
        return batch(*shapes)

    monkeypatch.setattr(optimizer, "_self_checked", scalar_route)
    monkeypatch.setattr(cli, "optimal_weights_batch", counted_batch)
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert len(batches) == 1
    assert len(parse_csv(out)[1]) == np.broadcast(*batches[0]).size


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "fig2"],
        ["sweep", "fig3"],
        ["sweep", "fig4"],
        ["sweep", "custom", "--n1", "3", "--n2", "12"],
        ["compare", "--m1", "4", "--n1", "20", "--m2", "8", "--n2", "93"],
    ],
    ids=["fig2", "fig3", "fig4", "custom", "compare"],
)
def test_csv_is_the_bytes_of_the_stdlib_writer(capsys, monkeypatch, argv):
    tables = []
    write_csv = cli._write_csv

    def recorded(header, rows):
        tables.append((header, rows))
        write_csv(header, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, len(tables)) == (0, "", 1)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(tables[0][0])
    writer.writerows(tables[0][1])
    assert out == expected.getvalue()


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
    for argv in (
        ["fig2", "--mbar-min", "3", "--mbar-max", "2"],
        ["fig2", "--mbar-max", "0"],
        ["fig3", "--m1-max", "0"],
        ["fig4", "--m2-max", "0"],
        ["custom", "--n1", "3", "--n2", "4", "--m1-max", "0"],
    ):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    # a range that starts below 1 is not empty, and is named for what it is
    code, out, err = run_cli(capsys, "sweep", "fig2", "--mbar-min", "0")
    assert (code, out) == (2, "")
    assert err == "error: mean-length range [0, 8] must start at 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--m1", "2", "--n1", "1", "--m2", "2", "--n2", "3"],
        ["compare", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "1"],
        ["sweep", "custom", "--n1", "1", "--n2", "4", "--m1-max", "2"],
    ],
    ids=["compare-n1", "compare-n2", "sweep-custom-n1"],
)
def test_single_branch_star_writes_no_csv(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert ">= 2" in err


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
    code, out, _ = run_cli_process(["solve", "--m1", "1", "--n1", "2", "--m2", "1", "--n2", "2"])
    assert code == 0
    assert json.loads(out)["params"]["n_nodes"] == 5


def test_a_reader_gone_before_the_report_ends_the_cli_quietly():
    # as when `head` exits before the report is written: the pipe's read
    # end is closed, so the first write fails with EPIPE
    argv = [sys.executable, "-m", "fusedstar.cli", "solve", "--m1", "450",
            "--n1", "5", "--m2", "400", "--n2", "3", "--scheme", "metropolis"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            argv,
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.stderr.decode() == ""
    assert result.returncode == cli.EXIT_CLOSED_PIPE == 141


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--steps", "-1"], "--steps must be >= 0"),
        (["--tail", "1"], "--tail must be between 2 and --steps"),
        (["--steps", "10"], "--tail must be between 2 and --steps (10), got 50"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
    ids=["negative-steps", "tail-below-2", "tail-beyond-steps", "negative-seed"],
)
def test_simulate_rejects_bad_run_lengths(capsys, extra, message):
    code, out, err = run_cli(
        capsys, "simulate", "--m1", "2", "--n1", "2", "--m2", "2", "--n2", "2", *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def _cap_address_space():
    import resource

    cap = 2**30  # far above the interpreter's own ~0.2 GiB
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "n1",
    # 5e7 nodes take 0.37 GiB per vector: the initial state fits under the
    # cap, but not the set-up's two state-length vectors beside it
    [10**12, 5 * 10**7],
    ids=["initial-state", "setup"],
)
def test_simulate_reports_unallocatable_trajectory(n1):
    # a capped address space makes the failure independent of the host's
    # overcommit policy
    code, out, err = run_cli_process(
        ["simulate", "--m1", "1", "--n1", str(n1), "--m2", "1", "--n2", "2"],
        preexec_fn=_cap_address_space,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot allocate the run: ")
    assert f"shape ({n1 + 3},)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--m1", str(10**9), "--n1", "2", "--m2", "2", "--n2", "2"]
        for command in ("solve", "compare", "verify")
    ]
    # a 10**10-cell grid: 74.5 GiB of branch lengths
    + [["sweep", "custom", "--n1", "2", "--n2", "3",
        "--m1-max", "100000", "--m2-max", "100000"]],
    ids=["solve", "compare", "verify", "sweep"],
)
def test_unallocatable_requests_report_a_typed_error(argv):
    code, out, err = run_cli_process(argv, preexec_fn=_cap_address_space)
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate ")
    assert "Traceback" not in err


def test_main_is_reentrant(capsys):
    commands = [
        ["solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"],
        ["sweep", "custom", "--n1", "3", "--n2", "5", "--m1-max", "3", "--m2-max", "2"],
        ["simulate", "--m1", "2", "--n1", "3", "--m2", "2", "--n2", "2", "--steps", "60"],
        ["sweep", "fig2", "--mbar-min", "3", "--mbar-max", "2"],
    ]
    alone = [run_cli_process(argv)[:2] for argv in commands]
    assert [code for code, _ in alone] == [0, 0, 0, 2]
    for order in (commands, commands[::-1]):
        for argv in order:
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == alone[commands.index(argv)]


def test_no_cli_path_imports_scipy():
    # every subcommand, at a small shape and at (800, 5, 790, 7), in one
    # fresh interpreter: scipy serves only the reference routes
    commands = []
    for m1, n1, m2, n2 in [("3", "4", "4", "3"), ("800", "5", "790", "7")]:
        shape = ["--m1", m1, "--n1", n1, "--m2", m2, "--n2", n2]
        commands += [
            ["solve", *shape],
            ["solve", *shape, "--scheme", "best-constant"],
            ["verify", *shape],
            ["verify", *shape, "--perturb", "1e-3"],
            ["compare", *shape],
            ["simulate", *shape, "--steps", "20", "--tail", "10"],
        ]
        commands.append(
            ["sweep", "custom", "--n1", n1, "--n2", n2,
             "--m1-max", "3", "--m2-max", "3"]
        )
    commands.append(["sweep", "fig2", "--mbar-max", "3"])
    script = (
        "import contextlib, io, json, sys\n"
        "from fusedstar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    codes, loaded = json.loads(result.stdout)
    # only the perturbed certificates fail
    assert codes == [1 if "--perturb" in argv else 0 for argv in commands]
    assert loaded == []


# what moved from each product module (or from a class in it) into
# fusedstar.reference, and the name it has there when that differs
MOVED_TO_REFERENCE = {
    "optimizer": [
        "solve_theta_roots", "_grid_roots", "_pole_positions", "_pole_distance",
        "_cross_check_root_count", "char_residual", "ThetaRoots",
        "PoleProximityError", "NoRootsError", "RootCountMismatchWarning",
        "_EXCLUSION", "_STEP_SPURIOUS", "_ROOT_TOL", "_RESIDUAL_POLISH",
        "equivalent_star",
    ],
    "topology": [
        "NodeId", "canonical_nodes", "node_index", "edge_orbit", "degrees",
        "_check_node", "_branch_count", "InvalidNodeError", "NotAnEdgeError",
        "nodes", "edges", "strata",
    ],
    "topology.TfsParams": ["stratum_labels"],
    "certificate": ["alpha_vectors", "stencil_gram_matrices"],
    "spectral": [
        "stratification_basis", "block_structure", "interlacing_check",
        "block_spectrum",
    ],
    "spectral.Tridiagonal": ["spectrum"],
    "weighting": ["StochasticityReport", "validate_stochastic"],
    "simulation": [
        "matrix_rounds", "iterate", "distributed_rounds", "distributed_iterate",
        "_rounds", "_summarise",
    ],
}
RENAMED_IN_REFERENCE = {"spectrum": "tridiagonal_spectrum"}


def test_cli_never_loads_the_reference():
    # every subcommand on small shapes in one fresh interpreter; then the
    # product modules, and classes in them, hold none of the moved names
    shape = ["--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"]
    commands = [
        ["solve", *shape],
        ["compare", *shape],
        ["verify", *shape],
        ["sweep", "fig2", "--mbar-max", "3"],
        ["simulate", *shape, "--steps", "20", "--tail", "10"],
    ]
    script = (
        "import contextlib, functools, importlib, io, json, sys\n"
        "from fusedstar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'fusedstar.reference' or m.split('.')[0] == 'scipy']\n"
        "left = []\n"
        "for owner, names in json.loads(sys.argv[2]).items():\n"
        "    module, *path = owner.split('.')\n"
        "    obj = importlib.import_module('fusedstar.' + module)\n"
        "    obj = functools.reduce(getattr, path, obj)\n"
        "    left += [f'{owner}.{name}' for name in names if hasattr(obj, name)]\n"
        "print(json.dumps([codes, loaded, left]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands),
         json.dumps(MOVED_TO_REFERENCE)],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    codes, loaded, left = json.loads(result.stdout)
    assert codes == [0] * len(commands)
    assert loaded == []
    assert left == []
    from fusedstar import reference

    for names in MOVED_TO_REFERENCE.values():
        for name in names:
            assert hasattr(reference, RENAMED_IN_REFERENCE.get(name, name)), name

    # a network is its TfsParams and a dense oracle a plain array: the
    # wrappers that held them are gone from every module of the package
    gone = {"TfsGraph", "build_topology", "WeightMatrix"}
    modules = ["certificate", "cli", "optimizer", "reference", "simulation",
               "spectral", "topology", "weighting"]
    for module in [fusedstar, *(importlib.import_module(f"fusedstar.{m}") for m in modules)]:
        assert gone & set(vars(module)) == set(), module.__name__
    assert gone & set(fusedstar.__all__) == set()
