"""Host-speed probe: a fixed piece of CPU work, timed after each request.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within minutes, so one run of a seed can take 20% longer than the
next.  The probe does a little of what the program does (interpreted
Python, numpy on small arrays, one dense eigensolve) and never calls the
program, so a change to the program does not change it.  ``scale`` turns a
request's time into the time it would have taken at the host speed at which
the probe takes ``REFERENCE_PROBE_S``, given how strongly the workload's
time follows the probe's (its elasticity).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on a shared 2-vCPU VM (Intel Xeon at 2.1 GHz, scipy-openblas
# with 1 thread, Python 3.11).
REFERENCE_PROBE_S = 0.008

# A request's host speed is the median probe of the requests within this
# many places of it, which follows the drift but not one-off stalls.
WINDOW = 5

_MATRIX = np.cos(np.add.outer(np.arange(200.0), np.arange(200.0)) ** 1.3)
_MATRIX = _MATRIX + _MATRIX.T


def _python_work() -> str:
    rows, total = [], 0.0
    for i in range(2500):
        total += (i * 0.37) ** 0.5
        rows.append((i, f"{total:.10g}", {"key": i % 13}))
    rows.sort(key=lambda row: row[2]["key"])
    return ",".join(row[1] for row in rows[:50])


def _numpy_work() -> float:
    x = np.linspace(0.0, 1.0, 64)
    index = np.arange(64) % 7
    for _ in range(250):
        x = 0.5 * (x + x[index].mean())
    return float(x.sum())


def probe_s() -> float:
    """Wall time of the probe work, in seconds."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    np.linalg.eigvalsh(_MATRIX)
    return time.perf_counter() - start


def local_probes(probes: list[float], window: int = WINDOW) -> list[float]:
    """Median of the probes within ``window`` places of each one."""
    return [
        statistics.median(probes[max(0, i - window):i + window + 1]) for i in range(len(probes))
    ]


def scale(seconds: float, probe: float, elasticity: float) -> float:
    """``seconds`` measured where the probe took ``probe``, at reference
    speed, for work whose time varies as the probe's time to the power
    ``elasticity``."""
    return seconds * (REFERENCE_PROBE_S / probe) ** elasticity
