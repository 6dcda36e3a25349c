"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
`pytest -s` or in failure reports) before asserting, so the log always
carries the verdict and the measured values.  Criteria 1 and 2 keep the
published reference tables as their data; the few cells that independent
computation contradicts are listed in `ERRATA` with the published value,
the corrected value and the evidence, and the criterion lines print both
beside the measured value.
"""

import itertools
import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np

from fusedstar.certificate import build_dual_certificate, verify_certificate
from fusedstar.optimizer import optimal_weights, solve_symmetric_star
from fusedstar.reference import (
    best_constant_orbit_weights,
    block_spectrum,
    block_structure,
    build_blocks,
    distributed_rounds,
    interlacing_check,
    iterate,
    matrix_rounds,
    max_degree_orbit_weights,
    metropolis_orbit_weights,
    mp_theta_star,
    orbit_weights_from_labels,
    stratification_basis,
)
from fusedstar.simulation import convergence_factor_estimate, random_initial_state
from fusedstar.spectral import SkeletonBlocks, full_spectrum
from fusedstar.topology import TfsParams
from fusedstar.weighting import OrbitWeights, assemble_weight_matrix


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{label}]: {verdict}"
    if detail:
        line += f" :: {detail}"
    print(line)


def slem_of(params: TfsParams, weights: OrbitWeights) -> float:
    return block_spectrum(build_blocks(params, weights)).slem


@dataclass(frozen=True)
class Erratum:
    published: float
    corrected: float
    reason: str


# Published cells that independent computation contradicts, keyed by
# (table, network, column).  Every other cell is asserted as published.
ERRATA = {
    ("spectrum", (3, 4, 4, 3), "lambda_min"): Erratum(
        -0.9445, -0.9545,
        "digit slip: the row's own first column is 0.9545, block lambda_min "
        "is -0.9545044654 and no eigenvalue lies within 0.01 of -0.9445",
    ),
    ("spectrum", (100, 200, 200, 100), "cos_theta_star"): Erratum(
        0.9999772, 0.9999774,
        "below the certified optimum: a 40-digit root of the characteristic "
        "relation gives cos(theta*) = 0.999977384658",
    ),
    ("spectrum", (100, 200, 200, 100), "lambda_min"): Erratum(
        -0.9999772, -0.9999774,
        "mirror of the first column: block lambda_min is -0.9999773847",
    ),
    ("schemes", (3, 4, 3, 6), "metropolis"): Erratum(
        0.97195, 0.97018,
        "repeats the (3,4,4,3) value 0.9719488; a dense matrix built from "
        "scratch gives 0.9701763 (1/max(d_i,d_j)) or 0.9739548 (1/(1+max))",
    ),
}


def reference(table: str, params: tuple, column: str, published: float):
    """Value to assert for a published cell, and its label for the report."""
    erratum = ERRATA.get((table, params, column))
    if erratum is None:
        return published, f"published {published}"
    assert erratum.published == published, (table, params, column)
    return erratum.corrected, (
        f"published {published}, corrected {erratum.corrected}: {erratum.reason}"
    )


def test_criterion_1_spectrum_endpoints():
    # the reference spectrum table at printed precision +- 1 final-digit
    # unit: column 1 is cos(theta*) from the 50-digit root of the
    # characteristic relation, column 2 the smallest eigenvalue of the
    # optimal matrix from the block route
    cases = [
        ((3, 4, 4, 3), 0.9545, -0.9445, 1e-4),
        ((10, 20, 20, 10), 0.997739, -0.997739, 1e-6),
        ((100, 200, 200, 100), 0.9999772, -0.9999772, 1e-7),
    ]
    start = time.perf_counter()
    failures = []
    details = []
    for params, published_cos, published_min, tol in cases:
        p = TfsParams(*params)
        with mpmath.workdps(50):
            theta_star = float(mp_theta_star(p))
        measured = {
            "cos_theta_star": math.cos(theta_star),
            "lambda_min": block_spectrum(
                build_blocks(p, optimal_weights(p).weights)
            ).lambda_min,
        }
        published = {"cos_theta_star": published_cos, "lambda_min": published_min}
        for column, got in measured.items():
            want, label = reference("spectrum", params, column, published[column])
            details.append(f"{params} {column}={got:.10f} ({label})")
            if abs(got - want) > tol:
                failures.append(f"{params} {column} off by "
                                f"{abs(got - want):.3g} (tol {tol})")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s budget")
    ok = not failures
    report(1, "spectrum endpoints vs reference table", ok,
           f"runtime {elapsed:.2f}s; " + "; ".join(details))
    assert ok, (
        "spectrum table mismatches (column 1 against cos of the 50-digit "
        "smallest characteristic root, column 2 against the block-spectrum smallest "
        "eigenvalue, corrected cells as listed in ERRATA): "
        + "; ".join(failures)
    )


def test_criterion_2_scheme_benchmarks():
    # scheme SLEMs against the reference comparison table; the passing
    # conventions and the corrected cells are recorded in the printed line
    networks = [(3, 4, 4, 3), (3, 4, 3, 6), (10, 20, 20, 10)]
    expected = {
        "optimal": ([0.95450, 0.95381, 0.99774], 5e-5),
        "metropolis": ([0.97194, 0.97195, 0.99884], 5e-4),
        "best-constant": ([0.97089, 0.96497, 0.99962], 5e-4),
        "max-degree": ([0.98277, 0.98019, 0.99981], 5e-4),
    }
    failures = []
    corrected = []
    for idx, params in enumerate(networks):
        p = TfsParams(*params)
        measured = {
            "optimal": optimal_weights(p).s,
            "metropolis": full_spectrum(
                assemble_weight_matrix(p, metropolis_orbit_weights(p))
            ).slem,
            "best-constant": full_spectrum(
                assemble_weight_matrix(p, best_constant_orbit_weights(p))
            ).slem,
            "max-degree": full_spectrum(
                assemble_weight_matrix(
                    p, max_degree_orbit_weights(p, convention="inv_dmax")
                )
            ).slem,
        }
        for scheme, (values, tol) in expected.items():
            got = measured[scheme]
            want, label = reference("schemes", params, scheme, values[idx])
            if want != values[idx]:
                corrected.append(f"{scheme} on {params}: {got:.7f} ({label})")
            if abs(got - want) > tol:
                failures.append(
                    f"{scheme} on {params}: {got:.7f} vs {want} (tol {tol})"
                )
    ok = not failures
    report(
        2,
        "scheme benchmark table",
        ok,
        "conventions: max-degree = 1/d_max, metropolis = 1/max(d_i,d_j); "
        + "; ".join(corrected + failures),
    )
    assert ok, (
        "benchmark mismatches (published cells, corrected cells as listed "
        "in ERRATA): " + "; ".join(failures)
    )


def test_criterion_3_route_consistency():
    # analytic cos(theta*) vs assembled-matrix SLEM over the full grid
    worst = 0.0
    count = 0
    for n1 in (2, 3, 4, 6, 12, 20, 22):
        for n2 in (2, 3, 4, 6, 12, 20, 22):
            for m1 in range(1, 11):
                for m2 in range(1, 11):
                    sol = optimal_weights(TfsParams(m1, n1, m2, n2))
                    gap = abs(sol.s - slem_of(sol.params, sol.weights))
                    worst = max(worst, gap)
                    count += 1
    ok = worst <= 1e-9
    report(3, "analytic vs spectral routes", ok,
           f"{count} instances, worst gap {worst:.3g}")
    assert ok, f"worst |cos(theta*) - slem| = {worst:.3g} over {count} instances"


def test_criterion_4_certificate_suite():
    failures = []
    for params in [(2, 2, 2, 2), (3, 4, 4, 3), (10, 20, 20, 10)]:
        sol = optimal_weights(TfsParams(*params))
        cert = build_dual_certificate(sol)
        res = verify_certificate(cert, sol.skeleton)
        checks = [
            (res.slackness_center <= 1e-8, "slackness_center", res.slackness_center),
            (res.slackness_arms <= 1e-8, "slackness_arms", res.slackness_arms),
            (res.perron_orthogonality <= 1e-8, "perron_orthogonality",
             res.perron_orthogonality),
            (res.norm_sum_error <= 1e-8, "norm_sum_error", res.norm_sum_error),
            (res.norm_split_error <= 1e-8, "norm_split_error", res.norm_split_error),
            (res.trace_mismatch <= 1e-8, "trace_mismatch", res.trace_mismatch),
            (res.feasibility_min_eig >= -1e-10, "feasibility_min_eig",
             res.feasibility_min_eig),
            (res.recurrence <= 1e-10, "recurrence", res.recurrence),
            (res.recurrence_prime <= 1e-10, "recurrence_prime", res.recurrence_prime),
            (res.proportionality_rel <= 1e-9, "proportionality",
             res.proportionality_rel),
        ]
        failures.extend(
            f"{params} {name} = {value:.3g}" for good, name, value in checks if not good
        )
        # suboptimality detection
        shifted = SkeletonBlocks(sol.params, sol.w_minus_1 + 0.01, sol.w_plus_1)
        perturbed = verify_certificate(cert, shifted)
        worst = max(
            perturbed.slackness_center,
            perturbed.slackness_arms,
            perturbed.recurrence,
            perturbed.recurrence_prime,
            -perturbed.feasibility_min_eig,
        )
        if worst <= 1e-4:
            failures.append(f"{params} perturbation undetected (max {worst:.3g})")
    ok = not failures
    report(4, "dual certificate residuals", ok,
           "" if ok else "; ".join(failures))
    assert ok, "; ".join(failures)


def test_criterion_5_stratification_suite():
    rng = np.random.default_rng(2024)
    worst_spectrum = 0.0
    worst_off_block = 0.0
    worst_interlacing = 0.0
    checked = 0
    while checked < 50:
        m1, m2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        p = TfsParams(m1, n1, m2, n2)
        if p.n_nodes > 200:
            continue
        checked += 1
        ow = orbit_weights_from_labels(
            p, {label: float(rng.uniform(0.05, 0.5)) for label in p.orbit_labels}
        )
        blocks = build_blocks(p, ow)
        reported = block_spectrum(blocks)
        values = []
        for value, mult in reported.eigenvalues:
            values.extend([value] * mult)
        dense_matrix = assemble_weight_matrix(p, ow)
        dense = np.sort(np.linalg.eigvalsh(dense_matrix))
        worst_spectrum = max(
            worst_spectrum, float(np.max(np.abs(np.sort(values) - dense)))
        )

        phi = stratification_basis(p)
        transported = phi.conj().T @ dense_matrix @ phi
        mask = np.zeros((p.n_nodes, p.n_nodes), dtype=bool)
        offset = 0
        for size in block_structure(p):
            mask[offset : offset + size, offset : offset + size] = True
            offset += size
        worst_off_block = max(
            worst_off_block,
            float(np.where(mask, 0.0, np.abs(transported)).max()),
        )

        if n1 >= 2 and n2 >= 2:
            worst_interlacing = max(worst_interlacing, interlacing_check(blocks))
    ok = (
        worst_spectrum <= 1e-10
        and worst_off_block <= 1e-12
        and worst_interlacing <= 1e-10
    )
    report(5, "stratification vs dense oracle", ok,
           f"50 instances: spectrum gap {worst_spectrum:.3g}, "
           f"off-block {worst_off_block:.3g}, interlacing {worst_interlacing:.3g}")
    assert ok


def test_criterion_6_symmetric_star_agreement():
    worst = 0.0
    for m in (1, 2, 3, 5):
        for n1, n2 in ((2, 2), (4, 3), (6, 12)):
            star = solve_symmetric_star(m, n1 + n2)
            tfs = optimal_weights(TfsParams(m, n1, m, n2))
            worst = max(worst, abs(star.s - tfs.s))
    ok = worst <= 1e-10
    report(6, "two solver routes for equal-length branches", ok,
           f"worst |delta s| = {worst:.3g}")
    assert ok


def test_criterion_7_simulation_suite():
    p = TfsParams(3, 4, 4, 3)
    sol = optimal_weights(p)
    x0 = random_initial_state(p.n_nodes, seed=0)
    wm = assemble_weight_matrix(p, sol.weights)
    routes = zip(
        matrix_rounds(wm, x0),
        distributed_rounds(p, sol.weights, x0),
    )
    route_gap = max(
        float(np.max(np.abs(a - b))) for a, b in itertools.islice(routes, 500)
    )
    matrix_route = iterate(wm, x0, 500)
    sum_drift = max(abs(d) for d in matrix_route.sum_deviations())
    budget = 1e-9 * float(np.abs(x0).sum())
    estimate = convergence_factor_estimate(matrix_route, tail=50)
    ok = (
        route_gap <= 1e-12
        and sum_drift <= budget
        and abs(estimate - 0.9545) <= 1e-3
    )
    report(7, "consensus simulation", ok,
           f"route gap {route_gap:.3g}, sum drift {sum_drift:.3g} "
           f"(budget {budget:.3g}), rate estimate {estimate:.6f}")
    assert ok


def test_criterion_8_sweep_properties():
    failures = []

    # equal-average-length family: the single star is never slower
    n1, n2 = 6, 12
    for m_bar in range(1, 9):
        star = solve_symmetric_star(m_bar, n1 + n2)
        total = m_bar * (n1 + n2)
        for m1 in range(1, total // n1 + 1):
            rest = total - m1 * n1
            if rest <= 0 or rest % n2:
                continue
            tfs = optimal_weights(TfsParams(m1, n1, rest // n2, n2))
            if star.s > tfs.s + 1e-12:
                failures.append(
                    f"m_bar={m_bar}: star {star.s:.9f} > "
                    f"({m1},{rest // n2}) {tfs.s:.9f}"
                )

    # asymmetric-branch grids
    n1, n2 = 2, 22
    slem = {}
    w_minus = {}
    for m1 in range(1, 11):
        for m2 in range(1, 11):
            sol = optimal_weights(TfsParams(m1, n1, m2, n2))
            slem[(m1, m2)] = sol.s
            w_minus[(m1, m2)] = sol.weights[-1]
    for (m1, m2), value in slem.items():
        if (m1 + 1, m2) in slem and slem[(m1 + 1, m2)] <= value:
            failures.append(f"slem not increasing in m1 at {(m1, m2)}")
        if (m1, m2 + 1) in slem and slem[(m1, m2 + 1)] <= value:
            failures.append(f"slem not increasing in m2 at {(m1, m2)}")
    # at equal branch lengths the long-star direction dominates the step
    for k in range(1, 10):
        d_m2 = slem[(k, k + 1)] - slem[(k, k)]
        d_m1 = slem[(k + 1, k)] - slem[(k, k)]
        if d_m2 <= d_m1:
            failures.append(f"m2 step not dominant at matched point ({k},{k})")
    for (m1, m2), value in w_minus.items():
        if (m1 + 1, m2) in w_minus and w_minus[(m1 + 1, m2)] <= value:
            failures.append(f"w_-1 not increasing in m1 at {(m1, m2)}")
        if (m1, m2 + 1) in w_minus and w_minus[(m1, m2 + 1)] >= value:
            failures.append(f"w_-1 not decreasing in m2 at {(m1, m2)}")
    ok = not failures
    report(8, "sweep monotonicity and dominance", ok,
           "" if ok else "; ".join(failures[:4]))
    assert ok, "; ".join(failures)
