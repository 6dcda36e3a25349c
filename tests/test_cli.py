"""Command-line interface: report formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fusedstar
from fusedstar import cli, optimizer, spectral, weighting
from fusedstar.cli import _sig10, _weights_json, main
from fusedstar.optimizer import (
    SelfCheckError,
    optimal_weights,
    solve_symmetric_star,
)
from fusedstar.reference import (
    best_constant_orbit_weights,
    block_extremes,
    build_blocks,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
)
from fusedstar.spectral import full_spectrum
from fusedstar.topology import TfsParams
from fusedstar.weighting import (
    OrbitWeights,
    assemble_weight_matrix,
    constant_weight_slems,
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


def equal_bits_runs(values):
    """``values`` as the writer takes them: runs ``(value, length)`` of
    equal bits, which keep ``-0.0`` and ``0.0`` apart, across the stars."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    starts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(values)]
    return [(float(values[lo]), hi - lo) for lo, hi in zip(starts, starts[1:])]


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
    written = _weights_json(params, equal_bits_runs(values)).decode()
    assert '{\n  "weights": ' + written + "\n}" == json.dumps(
        {"weights": by_label}, indent=2
    )


@pytest.mark.parametrize(
    "m1, m2, breaks",
    [
        (1, 1, []),
        (99, 100, [50]),
        (100, 101, [1, 99, 100]),
        (101, 99, [2, 101, 150]),
        (250, 1999, [50, 199, 200, 201, 250, 1349]),
        (10**4 + 7, 10**4 + 1, [17, 999, 1000, 1001, 12345]),
    ],
)
def test_weights_writer_runs_cross_hundreds(m1, m2, breaks):
    # runs that start, end and break on either side of a label's hundred
    # and thousand, on both stars
    params = TfsParams(m1, 2, m2, 2)
    values = np.full(m1 + m2, 0.5)
    values[[0, m1 - 1, m1, *breaks]] = 0.25, 1 / 3, -0.0, *[0.1] * len(breaks)
    by_label = dict(zip(map(str, params.orbit_labels), map(_sig10, values)))
    written = _weights_json(params, equal_bits_runs(values)).decode()
    assert '{\n  "weights": ' + written + "\n}" == json.dumps(
        {"weights": by_label}, indent=2
    )


@given(first=st.integers(-3000, 3000), count=st.integers(1, 2500))
@settings(max_examples=300, deadline=None)
def test_label_lines_are_the_per_label_lines(first, count):
    # a run of labels lies on one side of 0
    first = first or 1
    stop = min(first + count, 0) if first < 0 else first + count
    written = "".join(cli._label_lines(first, stop, "-1.5e-07"))
    assert written == "".join(f'    "{label}": -1.5e-07,\n' for label in range(first, stop))


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
        # the skeletons of three weightings: the optimum's, Metropolis's
        # and the unit weights', whose report gives max-degree's and
        # best-constant's rows; one eigenvalue of each of the six blocks
        # of Metropolis and the unit weights
        ("compare", 9, 6),
        # Metropolis's own skeleton: the center's lowest eigenvalue and
        # each arm block's top
        ("solve --scheme metropolis", 3, 3),
    ],
)
def test_each_solve_builds_each_block_and_finds_each_eigenvalue_once(
    capsys, run_counts, command, built, searched
):
    code, _, _ = run_cli(
        capsys, *command.split(),
        "--m1", "450", "--n1", "5", "--m2", "400", "--n2", "3",
    )
    assert code == 0
    assert run_counts == {"built": built, "searched": searched}


# compare's stdout, and the SHA-256 of each solve --scheme's, as the blocks
# written out (build_blocks) gave them: below 64 rows each block's dense
# guesses, above it bisection, and one-branch stars, where compare refuses
SCHEME_OUTPUTS = {
    (450, 5, 400, 3): (
        "scheme,slem\r\noptimal,0.9999939419\r\nmax-degree,0.9999984803\r\n"
        "metropolis,0.9999940013\r\nbest-constant,0.9999973405\r\n",
        {"max-degree": "30bd1a7f567fdb8b", "metropolis": "99182735447ebdcd",
         "best-constant": "a58ff822457943b3"},
    ),
    (3, 4, 4, 3): (
        "scheme,slem\r\noptimal,0.9545044654\r\nmax-degree,0.9827693202\r\n"
        "metropolis,0.9719487663\r\nbest-constant,0.9708913492\r\n",
        {"max-degree": "a499b61c5e62a21c", "metropolis": "ba8fa130aa94274f",
         "best-constant": "290e2278bb66b6bd"},
    ),
    (5, 1, 70, 3): (
        None,
        {"max-degree": "ac9e1f852561f2e7", "metropolis": "5a6fdfba2d3f09b9",
         "best-constant": "42feee9918b78f2f"},
    ),
}


@pytest.mark.parametrize("shape", sorted(SCHEME_OUTPUTS), ids=str)
def test_every_scheme_reports_without_writing_its_blocks(capsys, monkeypatch, shape):
    # compare and solve --scheme read skeletons: with build_blocks refused
    # wherever the commands could bind it, they print the same bytes
    def refused(*args, **kwargs):
        raise AssertionError("a block was written out")

    for module in (cli, spectral, weighting):
        monkeypatch.setattr(module, "build_blocks", refused, raising=False)
    argv = [f"{name}={value}" for name, value in zip(_SHAPE, shape)]
    compared, solved = SCHEME_OUTPUTS[shape]
    if compared is not None:
        assert run_cli(capsys, "compare", *argv) == (0, compared, "")
    for scheme, digest in solved.items():
        code, out, err = run_cli(capsys, "solve", *argv, "--scheme", scheme)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, scheme


def test_solve_never_searches_the_consensus_eigenvalue(capsys, monkeypatch):
    # the center's top is 1, and an arm's second-highest eigenvalue is
    # never the report's lambda2 nor its lambda_min; at the optimum the
    # report's own eigenvalues stand on their seeds +-s, so none is searched
    searched = []
    search = spectral._RunCount._search

    def recorded_search(self, index):
        searched.append((self.size, index))
        return search(self, index)

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


def _compare_shapes():
    # the search-path shape, a star of 10^12 branches, two long arms, then
    # wide_net's kinds of compare: arms of 2-10 strata with 20-149
    # branches, some at most 2000 nodes, and 30000-40000 nodes
    rng = random.Random(7)
    shapes = [(450, 5, 400, 3), (1, 10**12, 1, 2), (10**5, 3, 10**5, 4)]
    for low, high in [(20, 60), (20, 60), (20, 149), (20, 149), (1500, 2200)]:
        shapes.append(
            (rng.randint(2, 10), rng.randint(low, high), rng.randint(2, 10),
             rng.randint(low, high))
        )
    return shapes


@pytest.mark.parametrize("convention", sorted(cli._CONVENTIONS))
@pytest.mark.parametrize("shape", _compare_shapes(), ids=str)
def test_compare_matches_solve_on_every_scheme(capsys, shape, convention):
    # each row is the .10g of solve's slem, which reads the scheme's own
    # skeleton; in-process, max-degree's and best-constant's closed forms
    # keep constant_weight_slems' bound against the scheme's blocks
    # written out (r = 8) and against the dense oracle (r = n) where it
    # fits
    params = TfsParams(*shape)
    argv = [f"{name}={value}" for name, value in zip(_SHAPE, shape)]
    argv.append(f"--max-degree-convention={convention}")
    code, out, _ = run_cli(capsys, "compare", *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert [scheme for scheme, _ in rows] == list(cli.SCHEMES)
    for scheme, text in rows:
        code, solve_out, _ = run_cli(capsys, "solve", *argv, "--scheme", scheme)
        assert code == 0
        assert text == "%.10g" % json.loads(solve_out)["slem"], scheme
    unit = block_extremes(build_blocks(params, OrbitWeights.constant(params, 1.0)))
    closed = constant_weight_slems(params, cli._CONVENTIONS[convention])
    schemes = (
        max_degree_orbit_weights(params, cli._CONVENTIONS[convention]),
        best_constant_orbit_weights(params),
    )
    for slem, weights in zip(closed, schemes):
        alpha = float(weights.values[0])
        spread = alpha * (1.0 - unit.lambda_min)
        routes = [(8, block_extremes(build_blocks(params, weights)))]
        if params.n_nodes <= 2000:
            matrix = assemble_weight_matrix(params, weights)
            routes.append((params.n_nodes, full_spectrum(matrix)))
        for reads, report in routes:
            bound = np.finfo(float).eps * (
                8 * alpha * max(1.0, -unit.lambda_min)
                + reads * max(1.0, spread - 1.0)
                + 1.0
                + spread
            )
            assert abs(slem - report.slem) <= bound, (reads, alpha)


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
    # argparse rejects the option where the command does not read it
    assert main([*argv, "--max-degree-convention", "dmax+1"]) == code
    capsys.readouterr()


USAGE_ERRORS = [
    ["solve", "--m1", "x", "--n1", "2", "--m2", "2", "--n2", "2"],
    ["solve", "--m1", "2", "--n1", "2", "--m2", "2"],
    ["sweep", "fig3", "--n1", "5"],
    ["simulate", "--bogus"],
    ["frobnicate"],
    [],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv))
def test_main_returns_two_for_a_usage_error(capsys, argv):
    # argparse's own message on stderr, and no report
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: fusedstar")


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "custom", "-h"]])
def test_main_returns_zero_for_help(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: fusedstar")


def test_the_console_exit_codes_of_usage_errors_and_help_stay():
    code, out, err = run_cli_process(USAGE_ERRORS[0])
    assert (code, out) == (2, "")
    assert "invalid int value: 'x'" in err
    code, out, err = run_cli_process(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: fusedstar")


def test_verify_help_shows_the_negative_perturbation_form(capsys):
    assert main(["verify", "--help"]) == 0
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


def _wide_stars(n):
    return ["--m1", "2", "--n1", str(n), "--m2", "2", "--n2", str(n)]


def _unequal_wide_stars(n):
    return ["--m1", "2", "--n1", str(n), "--m2", "3", "--n2", str(n)]


_ONE_WIDE_STAR = ["--m1", "1", "--n1", "2", "--m2", "10", "--n2", str(5 * 10**307)]


def _argv_id(argv):
    return "-".join(
        f"{token[0]}e{len(token) - 1}" if token.isdigit() and len(token) > 20
        else token.lstrip("-")
        for token in argv
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, code, id=_argv_id(argv))
        for argv, code in [
            (["solve", *_wide_stars(10**200)], 0),
            (["verify", *_wide_stars(10**200)], 0),
            (["solve", *_wide_stars(10**308)], 2),
            (["verify", *_wide_stars(10**308)], 2),
            *((["solve", *_wide_stars(10**308), "--scheme", scheme], code)
              for scheme, code in zip(cli.SCHEMES[1:], (0, 0, 2))),
            # n1 + n2 past the float range: the unit weights' center
            # entry 1 - n1 - n2 would be -inf, so every read of them refuses
            (["compare", *_wide_stars(10**308)], 2),
            (["compare", *_wide_stars(10**308), "--max-degree-convention", "dmax+1"], 2),
            (["compare", *_wide_stars(9 * 10**307)], 2),
            (["solve", *_wide_stars(9 * 10**307), "--scheme", "best-constant"], 2),
            # n1 + n2 = 2^1023: a center entry of 2^1023 or more, which no
            # block route reads, is refused before a block is built;
            # max-degree builds none
            (["compare", *_unequal_wide_stars(2**1022)], 2),
            (["compare", *_unequal_wide_stars(2**1022), "--max-degree-convention", "dmax+1"], 2),
            (["solve", *_unequal_wide_stars(2**1022), "--scheme", "best-constant"], 2),
            (["solve", *_unequal_wide_stars(2**1022), "--scheme", "max-degree"], 0),
            # just below that bound every read of the unit weights computes
            (["compare", *_unequal_wide_stars(4 * 10**307)], 0),
            (["solve", *_unequal_wide_stars(4 * 10**307), "--scheme", "best-constant"], 0),
            (["solve", *_unequal_wide_stars(4 * 10**307), "--scheme", "max-degree"], 0),
            # theta* near 1e-154: the first star's arm factor overflows
            (["solve", *_ONE_WIDE_STAR], 2),
            (["compare", *_ONE_WIDE_STAR], 0),
            (["sweep", "custom", "--n1", "3", "--n2", str(10**308)], 0),
        ]
    ],
)
def test_derived_integers_past_the_float_range_raise_no_traceback(capsys, argv, expected):
    # each branch count fits a float, but n1 n2 (10^400), n1 + n2 or the
    # node count (4 10^308) does not: each is computed without converting
    # it, or the request is refused as invalid input with one error line;
    # and no overflow in the searches reaches stderr as a RuntimeWarning
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""


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
        # 3.0e18 rows, about 0.75 mbar_max^2
        "sweep fig2 --mbar-max 2000000000",
    ],
)
def test_a_size_past_numpy_array_limit_is_invalid_input(capsys, argv):
    # more than 2^60 - 1 float64 entries: numpy cannot even try to allocate
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_a_size_at_numpy_array_limit_is_a_memory_error(capsys):
    # 2^60 - 1 rows, 2^60 - 2 orbit weights: a valid size, whose report of
    # about 30 bytes a weight the writer tries, and fails, to allocate
    code, out, err = run_cli(
        capsys, "solve", "--m1", "1152921504606846972", "--n1", "2", "--m2", "2", "--n2", "2"
    )
    assert (code, out) == (cli.EXIT_NO_MEMORY, "")
    assert err.startswith("error: Unable to allocate 32.0 EiB")


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
        # 4160 rows, two passes of the row template
        ["sweep", "custom", "--n1", "3", "--n2", "12", "--m1-max", "65", "--m2-max", "64"],
        ["compare", "--m1", "4", "--n1", "20", "--m2", "8", "--n2", "93"],
    ],
    ids=["fig2", "fig3", "fig4", "custom", "custom-two-passes", "compare"],
)
def test_csv_is_the_bytes_of_the_stdlib_writer(capsys, monkeypatch, argv):
    # the cells given to _write_csv, a float to 10 significant digits
    tables = []
    write_csv = cli._write_csv

    def recorded(header, row_format, columns):
        tables.append((header, columns))
        write_csv(header, row_format, columns)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, len(tables)) == (0, "", 1)
    header, columns = tables[0]
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(
        [f"{cell:.10g}" if isinstance(cell, float) else cell for cell in row]
        for row in zip(*columns)
    )
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
    # argparse requires them
    code = main(["sweep", "custom", "--m1-max", "2", "--m2-max", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "--n1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig3", "--n1", "5", "--m1-max", "2", "--m2-max", "2"],
        ["fig4", "--n2", "5", "--m1-max", "2"],
        ["fig3", "--mbar-max", "3"],
        ["fig2", "--m1-max", "50"],
        ["fig2", "--n1", "3"],
        ["custom", "--mbar-max", "99", "--n1", "3", "--n2", "4"],
        ["custom", "--mbar-min", "2", "--n1", "3", "--n2", "4"],
    ],
    ids=["fig3-n1", "fig4-n2", "fig3-mbar", "fig2-m1", "fig2-n1",
         "custom-mbar-max", "custom-mbar-min"],
)
def test_sweep_refuses_an_option_its_kind_does_not_read(capsys, argv):
    # each kind reads its own options: the one after the kind is another's,
    # and is refused rather than ignored
    code = main(["sweep", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith(f"unrecognized arguments: {' '.join(argv[1:3])}\n")


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


# 10001 rows, 472027 bytes: far more than a pipe holds, so the report is
# still being written when a reader that takes one line exits
SWEEP_ARGV = ["sweep", "custom", "--n1", "3", "--n2", "4",
              "--m1-max", "100", "--m2-max", "100"]


def sweep_command(unbuffered):
    # -u, or no PYTHONUNBUFFERED in the environment: stdout buffered or not
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    return [sys.executable, *flags, "-m", "fusedstar.cli", *SWEEP_ARGV], env


@pytest.mark.parametrize("unbuffered", [True, False], ids=["-u", "buffered"])
def test_a_reader_gone_mid_report_ends_the_cli_quietly(unbuffered):
    # as `| head -1`: the reader exits while the report is being written,
    # so a raw write is short; unbuffered, the rest must not be dropped
    # with exit 0
    argv, env = sweep_command(unbuffered)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"m1,m2,slem,w_minus_1,theta_star\r\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert stderr == b""
    assert proc.returncode == cli.EXIT_CLOSED_PIPE


def test_a_full_reader_gets_the_same_report_buffered_or_not():
    reports = []
    for unbuffered in (True, False):
        argv, env = sweep_command(unbuffered)
        result = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert (result.returncode, result.stderr) == (0, b"")
        reports.append(result.stdout)
    assert len(reports[0]) == 472027
    assert reports[0] == reports[1]


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
    # 8e7 nodes take 0.6 GiB per vector: the initial state fits under the
    # cap, but not the set-up's one state-length vector beside it
    [10**12, 8 * 10**7],
    ids=["initial-state", "setup"],
)
def test_simulate_reports_unallocatable_trajectory(n1):
    # a capped address space makes the failure independent of the host's
    # overcommit policy
    code, out, err = run_cli_process(
        ["simulate", "--m1", "1", "--n1", str(n1), "--m2", "1", "--n2", "2"],
        preexec_fn=_cap_address_space,
    )
    assert code == cli.EXIT_NO_MEMORY == 3
    assert out == ""
    assert err.startswith("error: cannot allocate the run: ")
    assert f"shape ({n1 + 3},)" in err
    assert "Traceback" not in err


def test_simulate_sets_up_in_one_state_vector():
    # 5e7 nodes take 0.37 GiB per vector: the initial state and the
    # set-up's one vector fit under the cap together
    code, out, err = run_cli_process(
        ["simulate", "--m1", "1", "--n1", str(5 * 10**7), "--m2", "1", "--n2", "2",
         "--steps", "60"],
        preexec_fn=_cap_address_space,
    )
    assert (code, err) == (0, "")
    lines = out.split("\r\n")
    assert lines[0] == "t,error_norm,sum_deviation"
    assert [line.split(",")[0] for line in lines[1:62]] == [str(t) for t in range(61)]
    assert lines[62].startswith("# convergence_factor_estimate = ")
    assert lines[63:] == [""]


@pytest.mark.parametrize(
    "argv",
    [
        # solve writes 10**9 weights
        ["solve", "--m1", str(10**9), "--n1", "2", "--m2", "2", "--n2", "2"]
    ]
    # a 10**10-cell grid: 74.5 GiB of branch lengths
    + [["sweep", "custom", "--n1", "2", "--n2", "3",
        "--m1-max", "100000", "--m2-max", "100000"]]
    # 7.5e9 shapes: the grid's first array of them takes 55.9 GiB
    + [["sweep", "fig2", "--mbar-max", "100000"]],
    ids=["solve", "sweep", "fig2"],
)
def test_unallocatable_requests_report_a_typed_error(argv):
    code, out, err = run_cli_process(argv, preexec_fn=_cap_address_space)
    assert code == cli.EXIT_NO_MEMORY
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: Unable to allocate ")
    assert "Traceback" not in err


def test_compare_at_long_arms_runs_in_bounded_memory():
    # every row reads a skeleton, so compare at 10**9 rows needs no array
    # of the arms' length and ends with its rows under the cap
    argv = ["compare", "--m1", str(10**9), "--n1", "2", "--m2", "2", "--n2", "2"]
    code, out, err = run_cli_process(argv, preexec_fn=_cap_address_space)
    assert (code, err) == (0, "")
    lines = out.split("\r\n")
    assert len(lines) == 6 and lines[-1] == ""
    assert lines[0] == "scheme,slem"
    assert [line.split(",")[0] for line in lines[1:5]] == list(cli.SCHEMES)


@pytest.mark.parametrize("m1", [10**8, 10**9], ids=["1e8", "1e9"])
def test_verify_at_long_arms_runs_in_bounded_memory(m1):
    # the certificate is closed-form, so verify at 10**9 rows, which once
    # ran out of memory, runs under the same cap and ends with a report;
    # its gap is below eps, where s prints as 1.0 (ROADMAP item 12)
    argv = ["verify", "--m1", str(m1), "--n1", "2", "--m2", "2", "--n2", "2"]
    code, out, err = run_cli_process(argv, preexec_fn=_cap_address_space)
    assert code in (0, 1)
    assert err == ""
    report = json.loads(out)
    assert report["passes"] is (code == 0)
    assert report["params"]["m1"] == m1


def test_a_memory_error_without_a_message_reports_a_reason(capsys, monkeypatch):
    # Python's own MemoryError, from a list that cannot grow, has no message
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_sweep", exhausted)
    code, out, err = run_cli(capsys, "sweep", "fig2")
    assert code == cli.EXIT_NO_MEMORY
    assert out == ""
    assert err == "error: out of memory\n"


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


# ints that either keep a request small or lie past what an array can hold,
# so that no example allocates much; 10^200 and 10^308 are branch counts
# whose sums and products pass the float range
_INT_TOKENS = st.one_of(
    st.integers(0, 12), st.integers(2**60, 2**64), st.sampled_from([10**200, 10**308])
).map(str)
_BAD_TOKENS = st.sampled_from(["", "x", "-1", "1.5", "0x10"])
_VALUES = {
    "--scheme": st.sampled_from([*cli.SCHEMES, "x"]),
    "--max-degree-convention": st.sampled_from(["dmax", "dmax+1", "x"]),
    "--perturb": st.floats().map(repr),
}
_SHAPE = ["--m1", "--n1", "--m2", "--n2"]
_GRID = ["--m1-max", "--m2-max"]
# each command with its required options and the others it takes
_COMMANDS = {
    ("solve",): (_SHAPE, ["--scheme", "--max-degree-convention"]),
    ("compare",): (_SHAPE, ["--max-degree-convention"]),
    ("verify",): (_SHAPE, ["--perturb"]),
    ("simulate",): (_SHAPE, ["--scheme", "--max-degree-convention",
                             "--steps", "--seed", "--tail"]),
    ("sweep", "fig2"): ([], ["--mbar-min", "--mbar-max"]),
    ("sweep", "fig3"): ([], _GRID),
    ("sweep", "fig4"): ([], _GRID),
    ("sweep", "custom"): (["--n1", "--n2"], _GRID),
    (): ([], []),
    ("sweep",): ([], []),
    ("bogus",): ([], []),
}
_ANY_OPTION = st.sampled_from(sorted({*_VALUES, *_SHAPE, *_GRID, "--steps", "--bogus"}))


@st.composite
def argument_lists(draw):
    """A command with its required options and some others it takes, now
    and then one dropped or one it does not take, each with a value, one
    in ten invalid, attached by '=' or not."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    required, optional = _COMMANDS[command]
    options = required + [option for option in optional if draw(st.booleans())]
    if draw(st.integers(0, 9)) == 0:
        options = options[1:] + [draw(_ANY_OPTION)]
    argv = list(command)
    for option in draw(st.permutations(options)):
        valid = draw(st.integers(0, 9)) > 0
        value = draw(_VALUES.get(option, _INT_TOKENS) if valid else _BAD_TOKENS)
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv


@given(argv=argument_lists())
@example(argv=["solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"])
@example(argv=["verify", "--m1", "1", "--n1", "2", "--m2", "1", "--n2", "2",
               "--perturb=1e308"])
@settings(max_examples=200, deadline=None)
def test_every_argument_list_gets_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, cli.EXIT_NO_MEMORY), code
    if err.startswith("usage: "):
        assert code == 2
    else:
        assert err == "" or (err.count("\n") == 1 and err.startswith("error: ")), err
    if code == 2:
        assert out == ""


def _parse_outcome(parse, argv):
    """The namespace ``parse`` gives ``argv``, each value as its ``repr``,
    or its ``SystemExit`` code, with what it wrote to stdout and stderr.
    The reprs compare ``--perturb nan`` equal to itself, where ``nan !=
    nan``, and tell ``-0.0`` from ``0.0``, where ``-0.0 == 0.0``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
            result = ("namespace", {key: repr(v) for key, v in namespace.items()})
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


_SMALL_SHAPE = ["--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"]


@given(argv=argument_lists())
@example(argv=["--help"])
@example(argv=["-h"])
@example(argv=["solve", "--help"])
@example(argv=["solve", "--he"])
@example(argv=["sweep", "--help"])
@example(argv=["sweep", "fig3", "--n1", "5"])
@example(argv=["solve", *_SMALL_SHAPE, "extra"])
@example(argv=["solve", "--", "--m1", "1"])
@example(argv=["--m1", "1", "solve"])
@example(argv=["verify", *_SMALL_SHAPE, "--perturb", "-1e-3"])
@example(argv=["verify", *_SMALL_SHAPE, "--perturb=-1e-3"])
@example(argv=["verify", *_SMALL_SHAPE, "--perturb", "nan"])
@example(argv=["verify", *_SMALL_SHAPE, "--perturb=-0.0"])
@example(argv=["verify", "--m1", "0", "--perturb", "nan", "--m2", "-1", "--n2", "-1",
               "--n1", "-1"])
@settings(max_examples=200, deadline=None)
def test_the_command_word_route_parses_as_the_top_level_parser(argv):
    # main parses a request with its command words' own parser; the
    # namespace, or the exit code and the text on stdout and stderr, are
    # those of the top-level parser's own walk
    assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(
        cli._command_parsers()[()].parse_args, argv
    )


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
    "optimizer": ["equivalent_star"],
    "topology": [
        "NodeId", "canonical_nodes", "node_index", "edge_orbit", "degrees",
        "_check_node", "_branch_count", "InvalidNodeError", "NotAnEdgeError",
        "nodes", "edges", "strata",
    ],
    "topology.TfsParams": ["stratum_labels"],
    "certificate": [
        "alpha_vectors", "stencil_gram_matrices", "_center_stencils", "_combine",
        "_inner_products", "_chain", "_recurrence_residual",
        "_proportionality_residual", "_trace_mismatch", "_dot", "_max_abs", "_norm",
    ],
    "certificate.DualCertificate": [
        "sines", "coeffs", "coeffs_prime", "coeffs_hat", "coeffs_hat_prime",
    ],
    "spectral": [
        "stratification_basis", "block_structure", "interlacing_check",
        "block_spectrum", "block_extremes", "StratifiedBlocks", "build_blocks",
    ],
    "spectral.Tridiagonal": [
        "spectrum", "eigenvalues", "count_below", "_runs", "matvec",
    ],
    "spectral._RunCount": ["of"],
    "spectral.SpectralReport": ["from_pairs", "eigenvalues"],
    "weighting": [
        "StochasticityReport", "validate_stochastic", "max_degree_orbit_weights",
        "metropolis_orbit_weights", "best_constant_orbit_weights",
    ],
    "weighting.OrbitWeights": ["from_labels"],
    "simulation": [
        "matrix_rounds", "iterate", "distributed_rounds", "distributed_iterate",
        "_rounds", "_summarise",
    ],
}
# a renamed name is a function of the module itself
RENAMED_IN_REFERENCE = {
    "spectrum": "tridiagonal_spectrum",
    "of": "_run_count_of",
    "from_labels": "orbit_weights_from_labels",
}
# the reference class that holds what moved from a product class, where
# the names did not move to the module itself
REFERENCE_CLASS = {
    "spectral.SpectralReport": "BlockSpectrumReport",
    "spectral.Tridiagonal": "CountedTridiagonal",
    "certificate.DualCertificate": "VectorCertificate",
}


def holds(obj, name):
    # hasattr does not see a dataclass field without a default
    return hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", {})


# every subcommand on a small shape, with a central block of 8 rows
SMALL_SHAPE = ["--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"]
EVERY_SUBCOMMAND = [
    ["solve", *SMALL_SHAPE],
    ["compare", *SMALL_SHAPE],
    ["verify", *SMALL_SHAPE],
    ["sweep", "fig2", "--mbar-max", "3"],
    ["simulate", *SMALL_SHAPE, "--steps", "20", "--tail", "10"],
]


def test_solve_and_verify_load_no_numpy():
    # the single solve, its report, certificate and weights, and verify,
    # perturbed or not, run on Python floats: in one fresh interpreter
    # nothing loads numpy
    shape = ["--m1", "450", "--n1", "5", "--m2", "400", "--n2", "3"]
    commands = [
        ["solve", "--m1", "1", "--n1", "2", "--m2", "1", "--n2", "2"],
        ["solve", *shape],
        ["verify", *shape],
        ["verify", *shape, "--perturb=1e-3"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from fusedstar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'numpy')]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    codes, loaded = json.loads(result.stdout)
    assert codes == [0, 0, 0, 1]
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "custom", "--n1", "3", "--n2", "4", "--m1-max", "3", "--m2-max", "2"],
        ["simulate", *SMALL_SHAPE, "--steps", "20", "--tail", "10"],
        ["compare", *SMALL_SHAPE],
        ["solve", *SMALL_SHAPE, "--scheme", "metropolis"],
    ],
    ids=["sweep", "simulate", "compare", "scheme"],
)
def test_a_fresh_interpreter_gives_the_in_process_bytes(capsys, argv):
    # each command alone in a fresh interpreter loads what it runs on first
    # use: a missed import would show as another exit code or other bytes
    in_process = run_cli(capsys, *argv)
    assert in_process[0] == 0
    assert run_cli_process(argv) == in_process


def test_an_unallocatable_report_fails_at_once(capsys):
    # the weights of 10^15 orbits take about 2.6e16 bytes of text; the
    # writer asks for them in one piece, before writing any, and is refused
    # at once, with no cap on the process
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "solve", "--m1", str(10**15), "--n1", "2", "--m2", "2", "--n2", "2"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (cli.EXIT_NO_MEMORY, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: Unable to allocate ")


def test_cli_never_loads_the_reference():
    # every subcommand on small shapes in one fresh interpreter; then the
    # product modules, and classes in them, hold none of the moved names
    commands = EVERY_SUBCOMMAND
    script = (
        "import contextlib, functools, importlib, io, json, sys\n"
        "from fusedstar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'fusedstar.reference'\n"
        "          or m.split('.')[0] in ('mpmath', 'scipy')]\n"
        "left = []\n"
        "for owner, names in json.loads(sys.argv[2]).items():\n"
        "    module, *path = owner.split('.')\n"
        "    obj = importlib.import_module('fusedstar.' + module)\n"
        "    obj = functools.reduce(getattr, path, obj)\n"
        "    fields = getattr(obj, '__dataclass_fields__', {})\n"
        "    left += [f'{owner}.{name}' for name in names\n"
        "             if hasattr(obj, name) or name in fields]\n"
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

    for owner, names in MOVED_TO_REFERENCE.items():
        home = reference
        if owner in REFERENCE_CLASS:
            home = getattr(reference, REFERENCE_CLASS[owner])
        for name in names:
            if name in RENAMED_IN_REFERENCE:
                assert holds(reference, RENAMED_IN_REFERENCE[name]), name
            else:
                assert holds(home, name), name
    # theta*'s mpmath oracle is in the reference too
    for name in ("mp_theta_star", "mp_boundary_weight"):
        assert holds(reference, name), name

    # a network is its TfsParams and a dense oracle a plain array: the
    # wrappers that held them are gone from every module of the package,
    # and so is the grid scan of the characteristic relation, whose job
    # the optimizer's bisection and the mpmath oracle do
    gone = {
        "TfsGraph", "build_topology", "WeightMatrix",
        "solve_theta_roots", "_grid_roots", "_pole_positions", "_pole_distance",
        "_cross_check_root_count", "char_residual", "ThetaRoots",
        "PoleProximityError", "NoRootsError", "RootCountMismatchWarning",
        "_EXCLUSION", "_STEP_SPURIOUS", "_ROOT_TOL", "_RESIDUAL_POLISH",
        "_ShapeRows",
    }
    modules = ["certificate", "cli", "optimizer", "reference", "simulation",
               "spectral", "topology", "weighting"]
    for module in [fusedstar, *(importlib.import_module(f"fusedstar.{m}") for m in modules)]:
        assert gone & set(vars(module)) == set(), module.__name__
    assert gone & set(fusedstar.__all__) == set()


# the public functions and methods (properties included) of the product
# modules that no command of the test below runs, each with the reason it
# stays in the product: the one list of such names
UNREACHED_BY_THE_CLI = {
    "optimizer.solve_symmetric_star":
        "bench/checks.py imports it; it moves with the benchmark (ROADMAP 2a)",
    "spectral.full_spectrum":
        "bench/checks.py imports it; it moves with the benchmark (ROADMAP 2a)",
    "weighting.assemble_weight_matrix":
        "bench/checks.py imports it; it moves with the benchmark (ROADMAP 2a)",
    "topology.edge_table":
        "assemble_weight_matrix's edges; it waits with it (ROADMAP 2a)",
    "spectral.count_eigenvalues_below":
        "the reference of both run counts, until U's route is settled "
        "(ROADMAP 1b)",
    "topology.TfsParams.orbit_labels":
        "names a non-finite weight's orbit; the tests key weights by it",
    "topology.TfsParams.swap": "a convenience kept for the tests",
    "topology.TfsParams.n_edges": "a convenience kept for the tests",
    "weighting.OrbitWeights.constant": "a convenience kept for the tests",
    "simulation.Trajectory.n_steps": "a convenience kept for the tests",
    "spectral.SkeletonBlocks.center": "a convenience kept for the tests",
    "spectral.SkeletonBlocks.minus": "a convenience kept for the tests",
    "spectral.SkeletonBlocks.plus": "a convenience kept for the tests",
}


def test_cli_reaches_every_public_name_but_these():
    # every subcommand, every scheme under both max-degree conventions, a
    # failing certificate, every sweep, both routes of simulate (a central
    # block of 8 rows and of 71) under every scheme, and arm blocks past
    # 64 rows, which are read by bisection; all in one fresh interpreter
    # under sys.setprofile, which records every Python function it enters
    wide = ["--m1", "35", "--n1", "3", "--m2", "35", "--n2", "2"]
    grid = ["--m1-max", "3", "--m2-max", "3"]
    commands = [
        *EVERY_SUBCOMMAND,
        *(["solve", *SMALL_SHAPE, "--scheme", scheme,
           "--max-degree-convention", convention]
          for scheme in cli.SCHEMES for convention in cli._CONVENTIONS),
        ["verify", *SMALL_SHAPE, "--perturb", "1e-3"],
        ["sweep", "custom", "--n1", "3", "--n2", "4", *grid],
        ["sweep", "fig3", *grid],
        ["sweep", "fig4", *grid],
        *(["simulate", *shape, "--scheme", scheme, "--steps", "20", "--tail", "10"]
          for shape in (SMALL_SHAPE, wide) for scheme in cli.SCHEMES),
        ["solve", "--m1", "70", "--n1", "3", "--m2", "80", "--n2", "4",
         "--scheme", "metropolis"],
    ]
    script = (
        "import contextlib, functools, importlib, inspect, io, json, sys\n"
        "seen = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        seen.add(frame.f_code)\n"
        "sys.setprofile(profile)\n"
        "from fusedstar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "sys.setprofile(None)\n"
        "def functions(owner, prefix):\n"
        "    for name, obj in vars(owner).items():\n"
        "        if name.startswith('_'):\n"
        "            continue\n"
        "        if isinstance(obj, property):\n"
        "            obj = obj.fget\n"
        "        elif isinstance(obj, functools.cached_property):\n"
        "            obj = obj.func\n"
        "        obj = getattr(obj, '__func__', obj)\n"
        "        if inspect.isfunction(obj):\n"
        "            yield prefix + name, obj\n"
        "unreached = []\n"
        "for module in json.loads(sys.argv[2]):\n"
        "    owner = importlib.import_module('fusedstar.' + module)\n"
        "    found = list(functions(owner, module + '.'))\n"
        "    for name, obj in vars(owner).items():\n"
        "        if inspect.isclass(obj) and obj.__module__ == owner.__name__:\n"
        "            found += functions(obj, f'{module}.{name}.')\n"
        "    unreached += [name for name, function in found\n"
        "                  if function.__module__ == owner.__name__\n"
        "                  and function.__code__ not in seen]\n"
        "print(json.dumps([codes, sorted(unreached)]))\n"
    )
    product = ["certificate", "cli", "optimizer", "simulation", "spectral",
               "topology", "weighting"]
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), json.dumps(product)],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    codes, unreached = json.loads(result.stdout)
    # only the perturbed certificate fails
    assert codes == [1 if "--perturb" in argv else 0 for argv in commands]
    assert unreached == sorted(UNREACHED_BY_THE_CLI)
