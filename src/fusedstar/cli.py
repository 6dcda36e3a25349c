"""Command-line reports for fused-star consensus networks.

Subcommands: solve (single-instance JSON report), compare (SLEM of all
weighting schemes), verify (optimality certificate residuals), sweep
(CSV grids over network shapes), simulate (consensus trajectory).
JSON goes to stdout for single reports, RFC-4180 CSV for grids and
trajectories; diagnostics go to stderr.  Exit codes: 0 success,
1 verification or computation failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .certificate import build_dual_certificate, verify_certificate
from .optimizer import (
    DegenerateSineError,
    OptimalSolution,
    SelfCheckError,
    optimal_weights,
    solve_symmetric_star,
)
from .simulation import (
    InsufficientSignalError,
    convergence_factor_estimate,
    distributed_iterate,
    random_initial_state,
    write_trajectory_csv,
)
from .spectral import SpectralReport, block_spectrum, build_blocks
from .topology import InvalidParameterError, TfsParams, build_topology
from .weighting import (
    OrbitWeights,
    best_constant_orbit_weights,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
)

SCHEMES = ("optimal", "max-degree", "metropolis", "best-constant")

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
    graph = build_topology(params)
    if scheme == "max-degree":
        convention = _CONVENTIONS[args.max_degree_convention]
        return max_degree_orbit_weights(graph, convention), None
    if scheme == "metropolis":
        return metropolis_orbit_weights(graph), None
    if scheme == "best-constant":
        return best_constant_orbit_weights(graph), None
    raise InvalidParameterError(f"unknown scheme {scheme!r}")


def _spectral_report(params: TfsParams, weights: OrbitWeights) -> SpectralReport:
    return block_spectrum(build_blocks(params, weights))


def _solve_payload(params: TfsParams, args: argparse.Namespace) -> dict:
    weights, solution = _scheme_weights(params, args.scheme, args)
    report = _spectral_report(params, weights)
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
        "weights": {str(label): _sig10(weights[label]) for label in params.orbit_labels},
    }
    if solution is not None:
        certificate = build_dual_certificate(solution)
        residuals = verify_certificate(certificate, solution.weights)
        payload["certificate"] = {
            key: _sig10(value) for key, value in residuals.as_dict().items()
        }
        payload["certificate"]["passes"] = residuals.passes()
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    payload = _solve_payload(_params_from(args), args)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _params_from(args)
    writer = _csv_writer()
    writer.writerow(["scheme", "slem"])
    for scheme in SCHEMES:
        weights, _ = _scheme_weights(params, scheme, args)
        writer.writerow([scheme, f"{_spectral_report(params, weights).slem:.10g}"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _params_from(args)
    solution = optimal_weights(params)
    certificate = build_dual_certificate(solution)
    weights = solution.weights
    if args.perturb:
        shifted = dict(weights.w)
        shifted[-1] += args.perturb
        weights = OrbitWeights(shifted)
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


def _fig2_rows(args: argparse.Namespace) -> list[list[str]]:
    n1, n2 = 6, 12
    lo, hi = args.mbar_min, args.mbar_max
    if lo < 1 or hi < lo:
        raise InvalidParameterError(f"empty mean-length range [{lo}, {hi}]")
    rows: list[list[str]] = []
    for m_bar in range(lo, hi + 1):
        star = solve_symmetric_star(m_bar, n1 + n2)
        rows.append(
            [str(m_bar), "star", str(m_bar), str(m_bar), f"{star.s:.10g}"]
        )
        total = m_bar * (n1 + n2)
        for m1 in range(1, total // n1 + 1):
            remainder = total - m1 * n1
            if remainder <= 0 or remainder % n2:
                continue
            m2 = remainder // n2
            solution = optimal_weights(TfsParams(m1, n1, m2, n2))
            rows.append(
                [str(m_bar), "tfs", str(m1), str(m2), f"{solution.s:.10g}"]
            )
    return rows


_SWEEP_COLUMNS = {
    "slem": lambda solution: solution.s,
    "w_minus_1": lambda solution: solution.weights[-1],
    "theta_star": lambda solution: solution.theta_star,
}


def _grid_rows(
    args: argparse.Namespace, n1: int, n2: int, columns: tuple[str, ...]
) -> list[list[str]]:
    if args.m1_max < 1 or args.m2_max < 1:
        raise InvalidParameterError("branch-length ranges must start at 1")
    rows = []
    for m1 in range(1, args.m1_max + 1):
        for m2 in range(1, args.m2_max + 1):
            solution = optimal_weights(TfsParams(m1, n1, m2, n2))
            rows.append(
                [str(m1), str(m2)]
                + [f"{_SWEEP_COLUMNS[name](solution):.10g}" for name in columns]
            )
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    writer = _csv_writer()
    if args.kind == "fig2":
        writer.writerow(["m_bar", "network", "m1", "m2", "slem"])
        writer.writerows(_fig2_rows(args))
        return 0
    if args.kind == "custom":
        if args.n1 is None or args.n2 is None:
            raise InvalidParameterError("custom sweeps require --n1 and --n2")
        n1, n2, columns = args.n1, args.n2, ("slem", "w_minus_1", "theta_star")
    else:
        n1, n2 = 2, 22
        columns = ("slem",) if args.kind == "fig3" else ("w_minus_1",)
    writer.writerow(["m1", "m2", *columns])
    writer.writerows(_grid_rows(args, n1, n2, columns))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from(args)
    weights, _ = _scheme_weights(params, args.scheme, args)
    graph = build_topology(params)
    x0 = random_initial_state(params.n_nodes, args.seed)
    trajectory = distributed_iterate(graph, weights, x0, args.steps, seed=args.seed)
    write_trajectory_csv(trajectory, sys.stdout)
    try:
        estimate = f"{convergence_factor_estimate(trajectory, args.tail):.10g}"
    except InsufficientSignalError:
        estimate = "nan"
    sys.stdout.write(f"# convergence_factor_estimate = {estimate}\r\n")
    return 0


def _csv_writer():
    return csv.writer(sys.stdout)


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m1", type=int, required=True, help="first-star branch length")
    parser.add_argument("--n1", type=int, required=True, help="first-star branch count")
    parser.add_argument("--m2", type=int, required=True, help="second-star branch length")
    parser.add_argument("--n2", type=int, required=True, help="second-star branch count")


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
    p_solve.set_defaults(func=cmd_solve)

    p_compare = sub.add_parser(
        "compare", parents=[common], help="SLEM of every weighting scheme, CSV"
    )
    _add_params(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check the optimality certificate"
    )
    _add_params(p_verify)
    p_verify.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="shift the first center-adjacent weight before checking",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="SLEM or boundary-weight grids, CSV"
    )
    p_sweep.add_argument("kind", choices=("fig2", "fig3", "fig4", "custom"))
    p_sweep.add_argument("--mbar-min", type=int, default=1)
    p_sweep.add_argument("--mbar-max", type=int, default=8)
    p_sweep.add_argument("--m1-max", type=int, default=10)
    p_sweep.add_argument("--m2-max", type=int, default=10)
    p_sweep.add_argument("--n1", type=int, default=None, help="custom sweeps only")
    p_sweep.add_argument("--n2", type=int, default=None, help="custom sweeps only")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser(
        "simulate", parents=[common], help="run consensus rounds, trajectory CSV"
    )
    _add_params(p_sim)
    p_sim.add_argument("--scheme", choices=SCHEMES, default="optimal")
    p_sim.add_argument("--steps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--tail", type=int, default=50)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SelfCheckError, DegenerateSineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
