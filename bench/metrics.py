"""Metric names, units and arithmetic of the benchmark.

End-to-end metrics come from the untraced closed loop, with request times
scaled to reference host speed (``speed``); per-layer metrics from the
traced passes (``tracing``), as measured.
"""
from __future__ import annotations

import math
import statistics

import tracing

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}

# Functions whose self time is reported, per traced request.
SELF_MS = (
    "cli.main",
    "optimizer.optimal_weights",
    "optimizer.solve_theta_roots",
    "optimizer.solve_symmetric_star",
    "spectral.build_blocks",
    "spectral.block_spectrum",
    "certificate.build_dual_certificate",
    "certificate.verify_certificate",
    "topology.build_topology",
    "weighting.max_degree_orbit_weights",
    "weighting.metropolis_orbit_weights",
    "weighting.best_constant_orbit_weights",
    "simulation.distributed_iterate",
    "simulation.write_trajectory_csv",
    "simulation.convergence_factor_estimate",
)
CALLS = (
    "optimizer.optimal_weights",
    "spectral.block_spectrum",
    "certificate.verify_certificate",
    "topology.build_topology",
)
PEAK_ALLOC = (
    "spectral.block_spectrum",
    "certificate.verify_certificate",
    "topology.build_topology",
    "weighting.best_constant_orbit_weights",
    "simulation.distributed_iterate",
)
LAYER_METRICS: dict[str, str] = {
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    **{f"{name}.self_ms": "ms/req" for name in SELF_MS},
    **{f"{name}.calls": "calls/req" for name in CALLS},
    **{f"{name}.peak_alloc_mb": "MB" for name in PEAK_ALLOC},
    "optimizer.roots_computed": "roots/req",
    "optimizer.useful_root_ratio": "ratio",
    "optimizer.root_count_mismatch": "count/req",
    "optimizer.self_check_errors": "count/req",
    "certificate.pass_ratio": "ratio",
    "certificate.worst_residual": "abs",
    "topology.nodes_built": "nodes/req",
    "weighting.memory_errors": "count/req",
    "simulation.node_rounds_per_s": "1/s",
    **{f"{layer}.share": "ratio" for layer in tracing.LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.uncovered_share": "ratio",
}

TAIL_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; +inf entries (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile: the order statistics
    weighted by a Beta((n+1)q/100, (n+1)(1-q/100)) density, which is steadier
    than one order statistic at the sample sizes one run gives."""
    ordered = sorted(values)
    n, p, sub = len(ordered), q / 100, 64
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    density = [
        math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        for x in ((k + 0.5) / (sub * n) for k in range(sub * n))
    ]
    weighted = sum(v * sum(density[i * sub:(i + 1) * sub]) for i, v in enumerate(ordered))
    return weighted / sum(density)


def beyond(count: int, q: float) -> int:
    """Samples of ``count`` ranked above the nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def tail_percentile(count: int, at_least: int = TAIL_BEYOND) -> int | None:
    """Highest whole percentile with ``at_least`` of ``count`` samples beyond it."""
    q = 99
    while q >= 50 and beyond(count, q) < at_least:
        q -= 1
    return q if q >= 50 else None


def latencies_ms(records: list[dict], failed_as_inf: bool = False,
                 key: str = "latency_s") -> list[float]:
    """Time of every request in ms, read from ``key``; failed ones as
    measured or as +inf."""
    return [
        math.inf if failed_as_inf and r["status"] != "ok" else 1e3 * r[key]
        for r in records
    ]


def end_to_end(records: list[dict], setup_s: list[float], rss_kb: int, tail_q: int,
               key: str = "latency_s") -> dict[str, float]:
    """End-to-end metrics of one untraced run, from the request times under
    ``key``; see ``END_TO_END`` for units."""
    correct = sum(r["status"] == "ok" for r in records)
    all_ms = latencies_ms(records, key=key)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_rps": 1e3 * correct / sum(all_ms),
        "latency_p50_ms": harrell_davis(all_ms, 50),
        "latency_tail_ms": harrell_davis(all_ms, tail_q),
        "peak_rss_mb": rss_kb / 1024,
        "success_frac": correct / len(records),
    }


def _per_request(total: float, requests: int) -> float:
    return total / requests if requests else 0.0


def layer_metrics(spans: list[tracing.Span], traced: list[dict], untraced: list[dict],
                  peak_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of a traced pass, except the import times.

    ``traced`` are the request records of the span pass, ``untraced`` those
    of the untraced pass over the same requests, ``peak_bytes`` the
    tracemalloc peaks per function.
    """
    n = len(traced)
    self_s = tracing.self_times(spans)
    wall = sum(r["latency_s"] for r in traced)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def named(name: str) -> list[tracing.Span]:
        return [spans[i] for i in by_name.get(name, [])]

    out: dict[str, float] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = _per_request(1e3 * sum(self_s[i] for i in by_name.get(name, [])), n)
    for name in CALLS:
        out[f"{name}.calls"] = _per_request(len(named(name)), n)
    for name in PEAK_ALLOC:
        out[f"{name}.peak_alloc_mb"] = peak_bytes.get(name, 0) / 2**20

    roots = sum(s.info.get("roots", 0) for s in named("optimizer.solve_theta_roots"))
    solved = sum(1 for s in named("optimizer.optimal_weights") if s.error is None)
    out["optimizer.roots_computed"] = _per_request(roots, n)
    out["optimizer.useful_root_ratio"] = solved / roots if roots else 0.0
    out["optimizer.root_count_mismatch"] = _per_request(
        sum(r["warnings"].count("RootCountMismatchWarning") for r in traced), n)
    out["optimizer.self_check_errors"] = _per_request(sum(
        1 for name in ("optimizer.optimal_weights", "optimizer.solve_symmetric_star")
        for s in named(name) if s.error == "SelfCheckError"), n)

    verified = [s for s in named("certificate.verify_certificate") if s.error is None]
    out["certificate.pass_ratio"] = (
        sum(s.info["passes"] for s in verified) / len(verified) if verified else 0.0)
    out["certificate.worst_residual"] = max((s.info["worst_residual"] for s in verified), default=0.0)
    out["topology.nodes_built"] = _per_request(
        sum(s.info.get("nodes", 0) for s in named("topology.build_topology")), n)
    out["weighting.memory_errors"] = _per_request(sum(
        1 for s in spans if s.name.startswith("weighting.") and s.error == "MemoryError"), n)
    iterate = [s for s in named("simulation.distributed_iterate") if s.error is None]
    busy = sum(s.end - s.start for s in iterate)
    out["simulation.node_rounds_per_s"] = (
        sum(s.info["node_rounds"] for s in iterate) / busy if busy else 0.0)

    for layer in tracing.LAYERS:
        layer_self = sum(t for s, t in zip(spans, self_s) if s.name.split(".")[0] == layer)
        out[f"{layer}.share"] = layer_self / wall if wall else 0.0
    base = sum(r["latency_s"] for r in untraced[:n])
    out["trace.overhead_frac"] = (wall - base) / base if base else 0.0
    out["trace.uncovered_share"] = 1.0 - sum(self_s) / wall if wall else 0.0
    return out
