"""Benchmark child process: one closed-loop client for one workload.

Run as ``python bench/worker.py SPEC.json`` with ``src`` on PYTHONPATH.
The spec names the workload, its request list, the warm-up requests, the
time budget, the deadline, whether to trace, and the path to write the
result to.
Every request goes through ``fusedstar.cli.main`` in this process; the
next one starts only after the last one returned.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
import tracemalloc
import warnings

import numpy as np
import scipy

import checks
import speed
import tracing
from metrics import layer_metrics
from fusedstar import cli

# Traced mode: a share of the requests runs untraced and with spans, then a
# tracemalloc pass repeats a prefix of them for a share of the time budget.
PAIRED_SHARE = 0.4
ALLOC_SHARE = 0.25


def run_request(argv: list[str]) -> dict:
    """Time one CLI request; classify it as ok, a non-zero exit or a raise."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a failed request, never a benchmark crash
                raised = exc
            latency = time.perf_counter() - start
    stdout = out.getvalue()
    if raised is not None:
        status = type(raised).__name__
        detail = traceback.format_exception_only(raised)[-1]
    else:
        status = "ok" if code == 0 else f"exit{code}"
        lines = err.getvalue().strip().splitlines()
        detail = lines[-1] if lines else ""
    return {
        "latency_s": latency,
        "status": status,
        "detail": detail.strip()[:160],
        "warnings": [w.category.__name__ for w in caught],
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stdout": stdout,
    }


def closed_loop(requests: list[list[str]], deadline: float) -> tuple[list[dict], float]:
    """Send the requests one after another, each followed by a host-speed
    probe outside its timed region; stop early only at ``deadline`` (a
    ``time.perf_counter`` value), so that the run still ends in time."""
    records: list[dict] = []
    start = time.perf_counter()
    for index, argv in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        record = run_request(argv)
        record["index"] = index
        record["probe_s"] = speed.probe_s()
        records.append(record)
    return records, time.perf_counter() - start


def paired_loop(requests: list[list[str]], deadline: float,
                recorder: tracing.SpanRecorder) -> tuple[list[dict], list[dict]]:
    """Run each request untraced and with spans, alternating which goes
    first, so that neither side always meets cold caches."""
    untraced: list[dict] = []
    traced: list[dict] = []
    for index, argv in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        for with_spans in (False, True) if index % 2 == 0 else (True, False):
            if with_spans:
                recorder.request = index
                with tracing.wrapped(recorder):
                    traced.append(run_request(argv))
            else:
                untraced.append(dict(run_request(argv), index=index))
    return untraced, traced


def check_records(records: list[dict], requests: list[list[str]], seed: int) -> None:
    """Mark each successful request whose output fails its check."""
    for record in records:
        if record["status"] != "ok":
            continue
        rng = random.Random(f"{seed}:{record['index']}")
        reason = checks.check_output(requests[record["index"]], record["stdout"], rng)
        if reason is not None:
            record["status"] = "wrong_output"
            record["detail"] = reason


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    requests, seconds = spec["requests"], spec["seconds"]
    deadline = time.perf_counter() + spec["deadline_s"]
    for argv in spec["warmup"]:
        record = run_request(argv)
        if record["status"] != "ok":
            raise RuntimeError(f"warm-up request {argv} failed: {record['detail']}")

    result: dict = {
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()},
    }
    if not spec["trace"]:
        result["planned"] = len(requests)
        records, result["loop_wall_s"] = closed_loop(requests, deadline)
        result["rss_after_loop_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        before = tracing.bindings()
        spans = tracing.SpanRecorder()
        paired = requests[:max(1, round(PAIRED_SHARE * len(requests)))]
        result["planned"] = len(paired)
        records, traced = paired_loop(paired, deadline, spans)
        alloc = tracing.AllocRecorder()
        tracemalloc.start()
        try:
            with tracing.wrapped(alloc):
                closed_loop(requests[:len(records)],
                            min(deadline, time.perf_counter() + ALLOC_SHARE * seconds))
        finally:
            tracemalloc.stop()
        result["wrappers_restored"] = tracing.bindings() == before
        result["trace_output_mismatches"] = sum(
            a["stdout_sha256"] != b["stdout_sha256"] for a, b in zip(records, traced))
        result["layer_metrics"] = layer_metrics(spans.spans, traced, records, alloc.peak_bytes)
        with open(spec["spans_path"], "w") as fh:
            for span in spans.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
    check_records(records, requests, spec["seed"])
    for record in records:
        del record["stdout"]
    result["records"] = records
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
