"""Command-line reports for fused-star consensus networks.

Subcommands: solve (single-instance JSON report), compare (SLEM of all
weighting schemes), verify (optimality certificate residuals), sweep
(CSV grids over network shapes, each solved as one batch), simulate
(consensus trajectory).
JSON goes to stdout for single reports, RFC-4180 CSV for grids and
trajectories; diagnostics go to stderr.  Exit codes: 0 success,
1 verification or computation failure, 2 invalid input, 141 stdout
closed before the report was written (a reader such as ``head`` that
exits early; 128 + SIGPIPE, as a shell reports a process that SIGPIPE
ends), with nothing on stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .certificate import build_dual_certificate, verify_certificate
from .optimizer import (
    DegenerateSineError,
    OptimalSolution,
    SelfCheckError,
    optimal_weights,
    optimal_weights_batch,
)
from .simulation import (
    InsufficientSignalError,
    convergence_factor_estimate,
    random_initial_state,
    stratified_iterate,
    write_trajectory_csv,
)
from .spectral import SpectralReport, block_extremes, build_blocks
from .topology import InvalidParameterError, TfsParams, check_array_size
from .weighting import (
    OrbitWeights,
    best_constant_orbit_weights,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
)

SCHEMES = ("optimal", "max-degree", "metropolis", "best-constant")

EXIT_CLOSED_PIPE = 141

_CONVENTIONS = {"dmax": "inv_dmax", "dmax+1": "inv_dmax_plus_1"}


def _sig10(x: float) -> float:
    # 10 significant digits, round half even
    return float(f"{float(x):.10g}")


def _params_from(args: argparse.Namespace) -> TfsParams:
    return TfsParams(m1=args.m1, n1=args.n1, m2=args.m2, n2=args.n2)


def _scheme_weights(
    params: TfsParams, scheme: str, args: argparse.Namespace
) -> tuple[OrbitWeights, OptimalSolution | None]:
    if scheme == "optimal":
        solution = optimal_weights(params)
        return solution.weights, solution
    if scheme == "max-degree":
        convention = _CONVENTIONS[args.max_degree_convention]
        return max_degree_orbit_weights(params, convention), None
    if scheme == "metropolis":
        return metropolis_orbit_weights(params), None
    if scheme == "best-constant":
        return best_constant_orbit_weights(params), None
    raise InvalidParameterError(f"unknown scheme {scheme!r}")


def _report(
    params: TfsParams, weights: OrbitWeights, solution: OptimalSolution | None
) -> SpectralReport:
    """``block_extremes`` of the weights of a scheme, seeded with the
    optimum's ``s`` where ``solution`` is one: its blocks are then the
    self-check's, and the certificate reads their extremes again."""
    return block_extremes(
        build_blocks(params, weights), None if solution is None else solution.s
    )


def _solve_payload(
    params: TfsParams, args: argparse.Namespace
) -> tuple[dict, np.ndarray]:
    """The solve report without its weights, and the weight vector.

    The report's ``"weights"`` is an empty placeholder for ``cmd_solve``
    to fill from ``_weights_json``.
    """
    weights, solution = _scheme_weights(params, args.scheme, args)
    report = _report(params, weights, solution)
    payload = {
        "params": {
            "m1": params.m1,
            "n1": params.n1,
            "m2": params.m2,
            "n2": params.n2,
            "n_nodes": params.n_nodes,
        },
        "scheme": args.scheme,
        "slem": _sig10(report.slem),
        "lambda2": _sig10(report.lambda2),
        "lambda_min": _sig10(report.lambda_min),
        "theta_star": _sig10(solution.theta_star) if solution else None,
        "weights": {},
    }
    if solution is not None:
        certificate = build_dual_certificate(solution)
        residuals = verify_certificate(certificate, solution.weights)
        payload["certificate"] = {
            key: _sig10(value) for key, value in residuals.as_dict().items()
        }
        payload["certificate"]["passes"] = residuals.passes()
    return payload, weights.values


def _weights_json(params: TfsParams, values: np.ndarray) -> str:
    """The ``"weights"`` object as ``json.dumps(payload, indent=2)`` writes
    ``{str(label): _sig10(weight)}`` one level deep, in orbit order.

    Each run of equal weights formats its value once and joins its labels
    in C, so the cost is O(runs) in Python.  Runs are of equal bits, which
    keeps ``-0.0`` and ``0.0`` apart, and break where the labels skip 0.
    """
    m1 = params.m1
    bits = values.view(np.int64)
    starts = sorted({0, m1, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()})
    entries = []
    for lo, hi in zip(starts, [*starts[1:], values.size]):
        value = json.dumps(_sig10(values.item(lo)))
        # the labels skip 0 between the stars
        first = lo - m1 if lo < m1 else lo - m1 + 1
        labels = range(first, first + hi - lo)
        separator = f'": {value},\n    "'
        entries.append(f'    "{separator.join(map(str, labels))}": {value}')
    return "{\n" + ",\n".join(entries) + "\n  }"


def cmd_solve(args: argparse.Namespace) -> int:
    params = _params_from(args)
    payload, values = _solve_payload(params, args)
    # no key before "weights" can hold the placeholder text
    print(json.dumps(payload, indent=2).replace(
        '"weights": {}', '"weights": ' + _weights_json(params, values), 1
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _params_from(args)
    rows = []
    for scheme in SCHEMES:
        report = _report(params, *_scheme_weights(params, scheme, args))
        rows.append([scheme, f"{report.slem:.10g}"])
    _write_csv(["scheme", "slem"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if not math.isfinite(args.perturb):
        raise InvalidParameterError(
            f"--perturb must be finite, got {args.perturb}"
        )
    solution = optimal_weights(params)
    certificate = build_dual_certificate(solution)
    weights = solution.weights
    if args.perturb:
        shifted = weights.values.copy()
        shifted[params.m1 - 1] += args.perturb
        weights = OrbitWeights(params, shifted)
    residuals = verify_certificate(certificate, weights)
    payload = {
        "params": {
            "m1": params.m1,
            "n1": params.n1,
            "m2": params.m2,
            "n2": params.n2,
        },
        "theta_star": _sig10(solution.theta_star),
        "s": _sig10(solution.s),
        "perturbation": args.perturb,
        "residuals": {
            key: _sig10(value) for key, value in residuals.as_dict().items()
        },
        "passes": residuals.passes(),
    }
    print(json.dumps(payload, indent=2))
    return 0 if residuals.passes() else 1


# A sweep's leading header and cells, and its shapes (m1, n1, m2, n2) as
# arrays that broadcast; cmd_sweep solves every shape in one batch.
def _fig2_sweep(args: argparse.Namespace) -> tuple:
    n1, n2 = 6, 12
    lo, hi = args.mbar_min, args.mbar_max
    if lo < 1:
        raise InvalidParameterError(f"mean-length range [{lo}, {hi}] must start at 1")
    if hi < lo:
        raise InvalidParameterError(f"empty mean-length range [{lo}, {hi}]")
    lead, shapes = [], []
    for m_bar in range(lo, hi + 1):
        total = m_bar * (n1 + n2)
        tfs = [
            (m1, (total - m1 * n1) // n2)
            for m1 in range(1, total // n1 + 1)
            if total - m1 * n1 > 0 and (total - m1 * n1) % n2 == 0
        ]
        # the star of n1 + n2 branches of length m_bar, as a TFS network
        shapes += [(m_bar, (n1 + n2) // 2, m_bar, (n1 + n2 + 1) // 2)]
        shapes += [(m1, n1, m2, n2) for m1, m2 in tfs]
        lead += [[str(m_bar), "star", str(m_bar), str(m_bar)]]
        lead += [[str(m_bar), "tfs", str(m1), str(m2)] for m1, m2 in tfs]
    return ["m_bar", "network", "m1", "m2"], lead, np.array(shapes).T


def _grid_sweep(args: argparse.Namespace, n1: int, n2: int) -> tuple:
    if args.m1_max < 1 or args.m2_max < 1:
        raise InvalidParameterError("branch-length ranges must start at 1")
    check_array_size("--m1-max * --m2-max", args.m1_max * args.m2_max)
    m1, m2 = np.divmod(np.arange(args.m1_max * args.m2_max), args.m2_max)
    m1, m2 = m1 + 1, m2 + 1
    lead = [[str(a), str(b)] for a, b in zip(m1.tolist(), m2.tolist())]
    return ["m1", "m2"], lead, (m1, n1, m2, n2)


# sweep column -> BatchSolution field
_SWEEP_COLUMNS = {
    "slem": "s",
    "w_minus_1": "w_minus_1",
    "theta_star": "theta_star",
}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind == "fig2":
        header, lead, shapes = _fig2_sweep(args)
        columns = ("slem",)
    elif args.kind == "custom":
        if args.n1 is None or args.n2 is None:
            raise InvalidParameterError("custom sweeps require --n1 and --n2")
        header, lead, shapes = _grid_sweep(args, args.n1, args.n2)
        columns = ("slem", "w_minus_1", "theta_star")
    else:
        header, lead, shapes = _grid_sweep(args, 2, 22)
        columns = ("slem",) if args.kind == "fig3" else ("w_minus_1",)
    batch = optimal_weights_batch(*shapes)
    values = [getattr(batch, _SWEEP_COLUMNS[name]).tolist() for name in columns]
    _write_csv([*header, *columns], [
        cells + [f"{value:.10g}" for value in row]
        for cells, *row in zip(lead, *values)
    ])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.steps < 0:
        raise InvalidParameterError(f"--steps must be >= 0, got {args.steps}")
    if not 2 <= args.tail <= args.steps:
        raise InvalidParameterError(
            f"--tail must be between 2 and --steps ({args.steps}), got {args.tail}"
        )
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    check_array_size("the node count", params.n_nodes)
    check_array_size("--steps + 1", args.steps + 1)
    weights, _ = _scheme_weights(params, args.scheme, args)
    x0 = random_initial_state(params.n_nodes, args.seed)
    trajectory = stratified_iterate(params, weights, x0, args.steps)
    write_trajectory_csv(trajectory, sys.stdout)
    try:
        estimate = f"{convergence_factor_estimate(trajectory, args.tail):.10g}"
    except InsufficientSignalError:
        estimate = "nan"
    sys.stdout.write(f"# convergence_factor_estimate = {estimate}\r\n")
    return 0


def _write_csv(header: list[str], rows: list[list[str]]) -> None:
    # rows are computed before anything is written, so an input error
    # leaves stdout empty; no cell (digits, .10g floats, scheme names,
    # star or tfs) needs quoting, so these are csv.writer's excel bytes
    sys.stdout.write("".join(",".join(row) + "\r\n" for row in [header, *rows]))


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m1", type=int, required=True, help="first-star branch length")
    parser.add_argument("--n1", type=int, required=True, help="first-star branch count")
    parser.add_argument("--m2", type=int, required=True, help="second-star branch length")
    parser.add_argument("--n2", type=int, required=True, help="second-star branch count")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-degree-convention",
        choices=sorted(_CONVENTIONS),
        default="dmax",
        help="max-degree weight 1/d_max or 1/(d_max+1)",
    )

    parser = argparse.ArgumentParser(
        prog="fusedstar",
        description="Optimal consensus-averaging weights for two fused stars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[common], help="solve one network, report JSON"
    )
    _add_params(p_solve)
    p_solve.add_argument("--scheme", choices=SCHEMES, default="optimal")

    p_compare = sub.add_parser(
        "compare", parents=[common], help="SLEM of every weighting scheme, CSV"
    )
    _add_params(p_compare)

    p_verify = sub.add_parser("verify", help="check the optimality certificate")
    _add_params(p_verify)
    p_verify.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="shift the first center-adjacent weight before checking; "
        "write a negative shift as --perturb=-1e-3",
    )

    p_sweep = sub.add_parser("sweep", help="SLEM or boundary-weight grids, CSV")
    p_sweep.add_argument("kind", choices=("fig2", "fig3", "fig4", "custom"))
    p_sweep.add_argument("--mbar-min", type=int, default=1)
    p_sweep.add_argument("--mbar-max", type=int, default=8)
    p_sweep.add_argument("--m1-max", type=int, default=10)
    p_sweep.add_argument("--m2-max", type=int, default=10)
    p_sweep.add_argument("--n1", type=int, default=None, help="custom sweeps only")
    p_sweep.add_argument("--n2", type=int, default=None, help="custom sweeps only")

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="run consensus rounds, trajectory CSV"
    )
    _add_params(p_sim)
    p_sim.add_argument("--scheme", choices=SCHEMES, default="optimal")
    p_sim.add_argument("--steps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--tail", type=int, default=50)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the parser is built once per process, so the command is looked up
    # here: a ``cmd_*`` rebound since then (say, by a tracing wrapper) runs
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; as the Python docs' note on
        # SIGPIPE shows, point stdout at devnull so that the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SelfCheckError, DegenerateSineError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
