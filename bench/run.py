"""Run the fusedstar benchmark and print its metrics.

    python3 bench/run.py --workload long_arm --seed 1 --seconds 25 --trace 0

Builds the workload's request list from the seed, times a fresh CLI
process on the warm-up request (``setup_s``), then runs the list
closed-loop through ``fusedstar.cli.main`` in one child process under an
address-space cap, checks every output and prints each metric by name
with its unit; request times are scaled to reference host speed
(``speed``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (machine, request list and digest, per-request status,
latency and stdout sha256) is written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from metrics import END_TO_END, LAYER_METRICS, end_to_end, latencies_ms, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 5
# Start-up is interpreted Python (imports, unmarshalling), so its time
# follows the host-speed probe about as closely as sweep_small's requests.
SETUP_ELASTICITY = 0.9
IMPORT_REPEATS = 3
AS_CAP_CEILING = 4 * 2**30
RUN_DEADLINE_S = 170
# The closed loop stops sending requests at this point of a run, leaving
# time for the output checks.
LOOP_DEADLINE_S = 140
# BLAS threads of the processes the benchmark starts.  With two threads on a
# shared 2-vCPU VM, each small LAPACK call wakes a helper thread on the other
# vCPU: over three runs of one seed, the spread of median latency reached
# 0.37 with two threads and stayed at or below 0.14 with one.
BLAS_THREADS = 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mem_total() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def address_space_cap() -> int:
    """Below physical memory, so a dense n x n array fails as MemoryError."""
    total = _mem_total()
    return min(AS_CAP_CEILING, total // 2) if total else AS_CAP_CEILING


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _limit(cap: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return apply


def _run(cmd: list[str], env: dict, cap: int, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=env, preexec_fn=_limit(cap), timeout=timeout,
                          check=True, **kwargs)


def setup_seconds(argv: list[str], env: dict, cap: int) -> list[float]:
    """Wall time of fresh ``python -m fusedstar.cli`` processes on ``argv``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _run([sys.executable, "-m", "fusedstar.cli", *argv], env, cap, 60,
             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def import_times_ms(env: dict, cap: int) -> tuple[float, float]:
    """Median import time of ``fusedstar.cli`` and the scipy part of it, in ms."""
    total, scipy_part = [], []
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import fusedstar.cli"],
                    env, cap, 60, capture_output=True, text=True)
        cli_us, scipy_us = _parse_importtime(proc.stderr)
        total.append(cli_us / 1e3)
        scipy_part.append(scipy_us / 1e3)
    return statistics.median(total), statistics.median(scipy_part)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _parse_importtime(stderr: str) -> tuple[int, int]:
    """Cumulative microseconds of the ``fusedstar`` imports and of the
    outermost ``scipy`` imports they trigger, from ``-X importtime`` output.

    Lines come in post-order (a module after the modules it imports), so a
    scipy line is outermost unless a later, shallower line is scipy too.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2))))
    fusedstar_us = sum(us for depth, name, us in entries
                       if depth == 1 and name.split(".")[0] == "fusedstar")
    scipy_us = 0
    for i, (depth, name, us) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((e for e in entries[i + 1:] if e[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            scipy_us += us
    return fusedstar_us, scipy_us


def machine_record(threads: int, cap: int) -> dict:
    return {
        "nproc": threads,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "address_space_cap_bytes": cap,
        "git_commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    threads = len(os.sched_getaffinity(0))
    cap = address_space_cap()
    env = child_env(BLAS_THREADS)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(threads, cap)}
    requests = workloads.build_requests(name, seed, workloads.request_count(name, seconds))
    record["requests_sha256"] = workloads.digest(requests)
    record["requests"] = requests
    warmup = workloads.WARMUP[name]
    if trace:
        import_ms, import_scipy_ms = import_times_ms(env, cap)
    else:
        record["setup_runs_s"] = setup_seconds(warmup[0], env, cap)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "requests": requests, "warmup": warmup,
            "deadline_s": LOOP_DEADLINE_S - (time.perf_counter() - start),
            "result_path": str(stem) + ".child.json", "spans_path": str(stem) + ".spans.jsonl"}
    spec_path = Path(str(stem) + ".spec.json")
    spec_path.write_text(json.dumps(spec))
    with open(str(stem) + ".child.log", "w") as log:
        _run([sys.executable, str(BENCH / "worker.py"), str(spec_path)], env, cap,
             RUN_DEADLINE_S - (time.perf_counter() - start), stdout=subprocess.DEVNULL, stderr=log)
    child = json.loads(Path(spec["result_path"]).read_text())
    records = child.pop("records")
    record["machine"]["versions"] = child.pop("versions")
    record.update(child)
    record["records"] = records

    tail_q = workloads.tail_q(name, seconds)
    ok = [r for r in records if r["status"] == "ok"]
    inf_ms = latencies_ms(records, failed_as_inf=True)
    record["summary"] = {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "wrong_outputs": sum(r["status"] == "wrong_output" for r in records),
        "failures_by_kind": _failure_kinds(records),
        "tail_percentile": tail_q,
        "latency_p50_ms_failed_as_inf": percentile(inf_ms, 50),
        f"latency_p{tail_q}_ms_failed_as_inf": percentile(inf_ms, tail_q),
    }
    if trace:
        metrics = dict(child["layer_metrics"], **{
            "cli.import_ms": import_ms, "cli.import_scipy_ms": import_scipy_ms})
        units = LAYER_METRICS
    else:
        elasticity = workloads.ELASTICITY[name]
        probes = speed.local_probes([r["probe_s"] for r in records])
        for r, probe in zip(records, probes):
            r["scaled_s"] = speed.scale(r["latency_s"], probe, elasticity)
        # the set-up runs came just before the loop: scale them by its first probes
        setup_s = [speed.scale(t, probes[0], SETUP_ELASTICITY) for t in record["setup_runs_s"]]
        metrics = end_to_end(records, setup_s, child["rss_after_loop_kb"], tail_q, key="scaled_s")
        units = END_TO_END
        record["summary"]["as_measured"] = end_to_end(
            records, record["setup_runs_s"], child["rss_after_loop_kb"], tail_q)
        record["summary"]["correct_beyond_tail"] = sum(
            1e3 * r["scaled_s"] > metrics["latency_tail_ms"] for r in ok)
    record["metrics"] = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    return record


def _failure_kinds(records: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            detail = re.sub(r"[-+]?\d[\d.e+-]*", "#", r["detail"])[:60]
            key = r["status"] + (f": {detail}" if detail else "")
            kinds[key] = kinds.get(key, 0) + 1
    return kinds


def report(record: dict) -> None:
    s, machine = record["summary"], record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"requests {record['requests_sha256'][:16]}")
    print(f"  {machine['nproc']} CPUs ({machine['cpu_model']}), BLAS "
          f"{machine['versions']['blas']['name']} x{machine['blas_threads']} threads, "
          f"address-space cap {machine['address_space_cap_bytes'] / 2**30:.2f} GiB, "
          f"load {machine['loadavg_at_start'][0]:.2f}")
    print(f"  attempted {s['attempted']}  failed {s['failed']}  "
          f"failed_frac {s['failed'] / s['attempted']:.4f} ratio")
    if s["attempted"] < record["planned"]:
        print(f"  the loop hit its deadline after {s['attempted']} of {record['planned']} requests")
    for kind, count in sorted(s["failures_by_kind"].items()):
        print(f"    {count:4d}  {kind}")
    if not record["trace"]:
        print(f"  tail percentile p{s['tail_percentile']} with {s['correct_beyond_tail']} "
              "correct requests beyond it"
              + ("  (fewer than ten: the tail is unreliable)" if s["correct_beyond_tail"] < 10 else ""))
    else:
        print(f"  wrappers restored {record['wrappers_restored']}, "
              f"{record['trace_output_mismatches']} traced outputs differ from untraced")
    for key, value in s.items():
        if key.endswith("_failed_as_inf"):
            print(f"  {key:<44} {value:.6g} ms")
    if not record["trace"]:
        print("  as measured, without scaling to reference host speed:")
        for key in ("setup_s", "throughput_rps", "latency_p50_ms", "latency_tail_ms"):
            print(f"    {key:<42} {s['as_measured'][key]:.6g} {END_TO_END[key]}")
    for key, metric in record["metrics"].items():
        print(f"  {key:<44} {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fusedstar" / "cli.py").is_file():
        print(f"error: no fusedstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        report(record)
    single = len(records) == 1
    print(json.dumps({
        "correct": all(r["summary"]["wrong_outputs"] == 0 and r.get("wrappers_restored", True)
                       for r in records),
        "attempted": sum(r["summary"]["attempted"] for r in records),
        "failed": sum(r["summary"]["failed"] for r in records),
        "metrics": {
            (key if single else f"{r['workload']}.{key}"): metric
            for r in records for key, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
