"""Tests of the benchmark's own arithmetic and tracing.

Run with ``python -m pytest bench`` from the repository root.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, 0)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("d", 2.0, 3.0, parent=1),
        _span("c", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 6.0, 0), _span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "count, expected", [(100, 90), (60, 83), (1000, 99), (20, 50), (19, None), (5, None)]
)
def test_tail_percentile_has_ten_beyond(count, expected):
    q = metrics.tail_percentile(count)
    assert q == expected
    if q is not None:
        assert metrics.beyond(count, q) >= 10
        assert q == 99 or metrics.beyond(count, q + 1) < 10


def _records(latencies_s):
    return [
        {"latency_s": t or 0.5, "status": "ok" if t is not None else "exit1"} for t in latencies_s
    ]


def test_failed_requests_are_infinite_in_both_percentiles():
    records = _records([0.010, 0.020, 0.030, None, None])
    all_ms = metrics.latencies_ms(records, failed_as_inf=True)
    assert sorted(all_ms)[-2:] == [math.inf, math.inf]
    assert metrics.percentile(all_ms, 50) == pytest.approx(30.0)
    assert metrics.percentile(all_ms, 90) == math.inf
    measured = metrics.latencies_ms(records)
    assert math.inf not in measured and len(measured) == len(records)


def test_turning_a_failure_into_a_success_never_raises_a_percentile():
    before = _records([0.010, 0.050, None, 0.020, None, 0.040])
    for fixed_latency in (0.001, 0.030, 10.0):
        after = [dict(r) for r in before]
        after[2] = {"latency_s": fixed_latency, "status": "ok"}
        for q in (50, 75, 90):
            old = metrics.percentile(metrics.latencies_ms(before, True), q)
            new = metrics.percentile(metrics.latencies_ms(after, True), q)
            assert new <= old


def test_end_to_end_counts_correct_requests_and_times_all():
    records = _records([0.010, 0.040, 0.030, 0.020])
    records[1]["status"] = "exit1"
    records[2]["status"] = "wrong_output"
    out = metrics.end_to_end(records, setup_s=[0.9, 0.7, 0.8], rss_kb=2048, tail_q=75)
    assert out["throughput_rps"] == pytest.approx(2 / 0.1)
    assert out["success_frac"] == pytest.approx(0.5)
    assert out["setup_s"] == pytest.approx(0.8)
    assert out["peak_rss_mb"] == pytest.approx(2.0)
    all_ms = [10.0, 40.0, 30.0, 20.0]
    assert out["latency_p50_ms"] == pytest.approx(metrics.harrell_davis(all_ms, 50))
    assert out["latency_tail_ms"] == pytest.approx(metrics.harrell_davis(all_ms, 75))


def test_harrell_davis_is_a_weighted_order_statistic():
    assert metrics.harrell_davis([5.0] * 7, 85) == pytest.approx(5.0)
    values = [float(v) for v in range(1, 102)]
    assert metrics.harrell_davis(values, 50) == pytest.approx(51.0, abs=1e-6)
    estimates = [metrics.harrell_davis(values, q) for q in (10, 50, 70, 90)]
    assert estimates == sorted(estimates)
    assert 1.0 < estimates[0] and estimates[-1] < 101.0
    assert metrics.harrell_davis(values, 90) == pytest.approx(metrics.percentile(values, 90), abs=1.0)


def test_wrappers_cover_every_binding_and_are_restored():
    from fusedstar import cli, optimizer

    original = optimizer.optimal_weights
    before = tracing.bindings()
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing.wrapped(recorder) as replaced:
            assert cli.optimal_weights is not original
            assert optimizer.optimal_weights is cli.optimal_weights
            assert len(replaced) > len(metrics.SELF_MS)
            raise RuntimeError("leave the block early")
    assert tracing.bindings() == before
    assert cli.optimal_weights is original


def test_spans_nest_across_layers(capsys):
    from fusedstar import cli

    recorder = tracing.SpanRecorder()
    recorder.request = 7
    with tracing.wrapped(recorder):
        assert cli.main(["solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"]) == 0
    capsys.readouterr()
    spans = recorder.spans
    names = [s.name for s in spans]
    assert names[0] == "cli.main" and spans[0].parent is None
    solve = spans[names.index("optimizer.optimal_weights")]
    assert spans[solve.parent].name == "cli.cmd_solve"
    roots = spans[names.index("optimizer.solve_theta_roots")]
    assert roots.info["roots"] >= 1 and all(s.request == 7 for s in spans)
    verify = spans[names.index("certificate.verify_certificate")]
    assert verify.info["passes"] is True
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].end - spans[0].start)


def test_alloc_recorder_keeps_outer_peak_across_inner_reset():
    recorder = tracing.AllocRecorder()
    mb = 2**20

    def inner():
        block = bytearray(mb)
        return len(block)

    def outer():
        held = bytearray(2 * mb)
        recorder.call("inner", inner, (), {})
        return len(held)

    tracemalloc.start()
    try:
        recorder.call("outer", outer, (), {})
    finally:
        tracemalloc.stop()
    assert recorder.peak_bytes["inner"] >= mb
    assert recorder.peak_bytes["outer"] >= 3 * mb


def test_request_lists_are_seeded():
    for name in workloads.WORKLOADS:
        length = 3 * workloads.BLOCK[name]
        first = workloads.digest(workloads.build_requests(name, 3, length))
        assert len(workloads.build_requests(name, 3, length)) == length
        assert first == workloads.digest(workloads.build_requests(name, 3, length))
        assert first != workloads.digest(workloads.build_requests(name, 4, length))
    with pytest.raises(ValueError):
        workloads.build_requests("long_arm", 3, 8)


def test_seeds_of_one_family_reorder_the_same_requests():
    for name in workloads.WORKLOADS:
        length = 2 * workloads.BLOCK[name]
        first, second, other = (workloads.build_requests(name, seed, length) for seed in (3, 4, 1000))
        assert first != second and sorted(first) == sorted(second)
        assert sorted(first) != sorted(other)


def test_end_to_end_reads_the_scaled_times():
    records = _records([0.010, 0.030])
    for record in records:
        record["scaled_s"] = 2 * record["latency_s"]
    out = metrics.end_to_end(records, setup_s=[1.0], rss_kb=1024, tail_q=50, key="scaled_s")
    assert out["throughput_rps"] == pytest.approx(2 / 0.08)
    assert out["latency_p50_ms"] == pytest.approx(metrics.harrell_davis([20.0, 60.0], 50))


def test_speed_scaling_follows_the_local_probe():
    assert speed.scale(2.0, speed.REFERENCE_PROBE_S, 0.5) == pytest.approx(2.0)
    assert speed.scale(2.0, 2 * speed.REFERENCE_PROBE_S, 1.0) == pytest.approx(1.0)
    assert speed.scale(2.0, 4 * speed.REFERENCE_PROBE_S, 0.5) == pytest.approx(1.0)
    assert speed.local_probes([1.0, 9.0, 2.0, 3.0, 1.0], window=1) == [5.0, 2.0, 3.0, 2.0, 2.0]
    assert speed.probe_s() > 0


@pytest.mark.parametrize("seconds", [1, 25, 60])
def test_runs_send_whole_blocks(seconds):
    for name in workloads.WORKLOADS:
        count = workloads.request_count(name, seconds)
        assert count > 0 and count % workloads.BLOCK[name] == 0
        assert workloads.tail_q(name, seconds) >= 50


def test_closed_loop_sends_every_request_once():
    import worker

    argv = ["solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"]
    records, _ = worker.closed_loop([argv, argv], time.perf_counter() + 60)
    assert [(r["index"], r["status"]) for r in records] == [(0, "ok"), (1, "ok")]
    assert worker.closed_loop([argv], time.perf_counter())[0] == []


def test_long_arm_covers_every_stratum_of_the_arm_sum():
    k, width = 70, 701
    requests = workloads.build_requests("long_arm", 0, k)
    sums = sorted(int(r[2]) + int(r[6]) - 200 for r in requests)

    def cdf(s: int) -> float:
        return sum(t + 1 if t < width else 2 * width - 1 - t for t in range(s + 1)) / width**2

    for j, s in enumerate(sums):
        assert cdf(s - 1) <= (j + 1) / k and cdf(s) >= j / k


def test_summed_pair_is_uniform_on_the_square():
    counts: dict[tuple[int, int], int] = {}
    grid = 400
    for a in range(grid):
        for b in range(grid):
            pair = workloads._summed_pair((a + 0.5) / grid, (b + 0.5) / grid, 1, 4)
            counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == 16
    assert max(counts.values()) / min(counts.values()) < 1.02


def test_arm_is_uniform_and_stratifies_the_node_count():
    grid = 1200
    arms = [workloads._arm((i + 0.5) / grid, 2, 4, 5, 8) for i in range(grid)]
    counts = {arm: arms.count(arm) for arm in set(arms)}
    assert len(counts) == 12 and set(counts.values()) == {grid // 12}
    assert [m * n for m, n in arms] == sorted(m * n for m, n in arms)


def test_wide_net_has_one_compare_beyond_the_cap_per_block():
    requests = workloads.build_requests("wide_net", 0, 200)
    big = [r for r in requests if r[0] == "compare"
           and int(r[2]) * int(r[4]) + int(r[6]) * int(r[8]) + 1 >= 30_000]
    assert len(big) == 10
    assert sum(r[0] == "simulate" for r in requests) == 140


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.LAYER_METRICS


def _changed_answer(argv: list[str], out: str) -> str:
    """The same output with a wrong number in every checked place."""
    if argv[0] == "solve":
        payload = json.loads(out)
        payload["slem"] += 1e-6
        return json.dumps(payload)
    rows = list(csv.reader(io.StringIO(out)))
    column = rows[0].index("sum_deviation" if argv[0] == "simulate" else "slem")
    for row in rows[1:]:
        if row[0].startswith("#"):
            continue
        if argv[0] == "simulate":
            row[column] = "1"
        elif argv[0] == "compare":
            row[column] = "0.99999" if row[0] == "optimal" else row[column]
        else:
            row[column] = repr(float(row[column]) + 1e-6)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("argv", [
    ["solve", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"],
    ["sweep", "custom", "--n1", "3", "--n2", "4", "--m1-max", "3", "--m2-max", "2"],
    ["sweep", "fig2", "--mbar-max", "2"],
    ["compare", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3"],
    ["simulate", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3", "--steps", "60",
     "--seed", "5"],
])
def test_checks_accept_real_output_and_reject_a_changed_answer(argv, capsys):
    from fusedstar import cli

    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert checks.check_output(argv, out, random.Random(0)) is None
    assert checks.check_output(argv, _changed_answer(argv, out), random.Random(0)) is not None
