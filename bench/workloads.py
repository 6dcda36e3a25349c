"""Seeded request lists for the three benchmark workloads.

Each workload is a sequence of CLI argument lists, a whole number of
blocks of its request mix.  The list is drawn as one stratified sample: each
stratified parameter takes one value in each of as many equal strata as the
list has requests of that kind.  Every list thus covers the whole parameter
range in the right proportions; seeds of one family (``SHAPE_FAMILY``) send
the same requests in different orders.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import random

from metrics import tail_percentile

WORKLOADS = ("sweep_small", "long_arm", "wide_net")

# Requests in one block of each workload's mix (see ``_DRAWS``).
BLOCK = {"sweep_small": 5, "long_arm": 7, "wide_net": 20}

# Seeds that differ only in their last two digits send the same requests in
# different orders.  Which long_arm shapes fail is erratic (it flips between
# m1 and m1 + 1), so independent draws of 42 shapes failed 11 to 20 times
# and their latency percentiles differed by up to a third; within a family,
# runs differ only by the host and the order.  Seed 1000, held out for gain claims, is another family.
SHAPE_FAMILY = 100

# About the requests per second one client completed at the seed commit on
# a shared 2-vCPU VM (Intel Xeon, scipy-openblas, 1 BLAS thread).  A run
# sends a fixed number of requests, about ``--seconds`` worth at this
# rate, in whole blocks: a seed then sends the same requests in every run,
# so the same ones fail.
NOMINAL_RATE = {"sweep_small": 3.0, "long_arm": 1.6, "wide_net": 3.0}

# How strongly each workload's request time follows the host-speed probe:
# the slope of log request time on log probe time (request size and kind
# held fixed) over twenty runs at the seed commit, rounded.  long_arm spends
# most of its time in LAPACK on large matrices, which the host's speed
# swings move about half as much as the interpreted Python the others run.
ELASTICITY = {"sweep_small": 0.9, "long_arm": 0.5, "wide_net": 0.8}

# One small untimed request per subcommand the workload uses.  The first
# one is also the request whose fresh-process wall time is ``setup_s``.
# Where a workload runs dense eigensolves of 100 rows or more, so does its
# warm-up, so that BLAS start-up stays out of the timed loop.
WARMUP = {
    "sweep_small": [
        ["sweep", "custom", "--n1", "3", "--n2", "4", "--m1-max", "2", "--m2-max", "2"],
    ],
    "long_arm": [
        ["solve", "--m1", "50", "--n1", "3", "--m2", "50", "--n2", "4"],
    ],
    "wide_net": [
        ["simulate", "--m1", "3", "--n1", "4", "--m2", "4", "--n2", "3", "--steps", "50"],
        ["compare", "--m1", "4", "--n1", "15", "--m2", "4", "--n2", "16"],
    ],
}

SWEEP_BRANCH_COUNTS = (2, 3, 4, 6, 12, 20, 22)
SCHEMES = ("optimal", "metropolis", "max-degree")


def _strata(rng: random.Random, k: int) -> list[float]:
    """One uniform point in each of ``k`` equal strata of [0, 1), shuffled."""
    order = list(range(k))
    rng.shuffle(order)
    return [(s + rng.random()) / k for s in order]


def _params(m1: int, n1: int, m2: int, n2: int) -> list[str]:
    return ["--m1", str(m1), "--n1", str(n1), "--m2", str(m2), "--n2", str(n2)]


def _sweep_small(rng: random.Random, blocks: int) -> list[list[str]]:
    customs = 4 * blocks
    n1, n2 = (
        [SWEEP_BRANCH_COUNTS[int(u * len(SWEEP_BRANCH_COUNTS))] for u in _strata(rng, customs)]
        for _ in range(2)
    )
    requests = [
        ["sweep", "custom", "--n1", str(a), "--n2", str(b), "--m1-max", "10", "--m2-max", "10"]
        for a, b in zip(n1, n2)
    ]
    requests += [["sweep", "fig2"]] * blocks
    rng.shuffle(requests)
    return requests


def _ordered_pair(u: float, v: float, lo: int, hi: int) -> tuple[int, int]:
    """Larger and smaller of two iid uniform integers on [lo, hi], drawn
    from u and v in [0, 1) by inverse CDF: the larger is lo + i with
    probability (2i + 1) / width**2, and the smaller is then lo + j with
    weight 2 for each j < i and 1 for j = i."""
    width = hi - lo + 1
    i = int(math.sqrt(u) * width)
    j = int(v * (2 * i + 1)) // 2
    return lo + i, lo + j


def _summed_pair(u: float, v: float, lo: int, hi: int) -> tuple[int, int]:
    """Two iid uniform integers on [lo, hi], drawn from u and v in [0, 1) by
    inverse CDF: their sum lo + lo + s has probability (s + 1) / width**2
    for s < width and (2 width - 1 - s) / width**2 above, and the first is
    then uniform on the values that leave the second in range."""
    width = hi - lo + 1
    target, s, cumulative = u * width * width, 0, 0
    while True:
        weight = s + 1 if s < width else 2 * width - 1 - s
        if cumulative + weight > target or s == 2 * width - 2:
            break
        cumulative += weight
        s += 1
    first_lo, first_hi = max(0, s - width + 1), min(width - 1, s)
    first = first_lo + int(v * (first_hi - first_lo + 1))
    return lo + first, lo + s - first


def _long_arm(rng: random.Random, blocks: int) -> list[list[str]]:
    # Solve time grows with about the 2.5th power of m1 + m2, so that sum is
    # stratified.  The SelfCheckError failures grow with fewer branches (and
    # a failure skips the certificate, so the failure share moves latency and
    # throughput too), so the smaller branch count is stratified as well; a
    # coin decides which star gets it, keeping m1, m2, n1, n2 iid uniform.
    k = 7 * blocks
    m_sum, m_split, n_lo, n_hi = (_strata(rng, k) for _ in range(4))
    requests = []
    for j in range(k):
        m1, m2 = _summed_pair(m_sum[j], m_split[j], 100, 800)
        many_n, few_n = _ordered_pair(1.0 - n_lo[j], n_hi[j], 2, 8)
        n1, n2 = (many_n, few_n) if rng.random() < 0.5 else (few_n, many_n)
        requests.append(["solve"] + _params(m1, n1, m2, n2))
    return requests


@functools.cache
def _arms_by_size(m_lo: int, m_hi: int, n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    """Every arm (m, n) with m, n in the ranges, in order of its m * n nodes."""
    arms = [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)]
    return sorted(arms, key=lambda arm: arm[0] * arm[1])


def _arm(u: float, m_lo: int, m_hi: int, n_lo: int, n_hi: int) -> tuple[int, int]:
    """An arm (m, n), uniform on the ranges, drawn from u in [0, 1) by
    inverse CDF of its node count m * n."""
    arms = _arms_by_size(m_lo, m_hi, n_lo, n_hi)
    return arms[int(u * len(arms))]


def _wide_net(rng: random.Random, blocks: int) -> list[list[str]]:
    # Simulation and comparison time grow with the node count, so each arm's
    # m * n is stratified; m1, n1, m2, n2 stay iid uniform.
    sims = 14 * blocks
    arm1, arm2 = _strata(rng, sims), _strata(rng, sims)
    schemes = [SCHEMES[j % len(SCHEMES)] for j in range(sims)]
    rng.shuffle(schemes)
    requests = [
        ["simulate"]
        + _params(*_arm(arm1[j], 2, 10, 500, 2000), *_arm(arm2[j], 2, 10, 500, 2000))
        + ["--steps", "200", "--scheme", schemes[j], "--seed", str(rng.randrange(2**31))]
        for j in range(sims)
    ]
    small = 5 * blocks
    arm1, arm2 = _strata(rng, small), _strata(rng, small)
    # n <= 149 keeps every small compare at 2 * 10 * 149 + 1 <= 3000 nodes
    requests += [
        ["compare"] + _params(*_arm(arm1[j], 2, 10, 20, 149), *_arm(arm2[j], 2, 10, 20, 149))
        for j in range(small)
    ]
    # one compare per block at 30000+ nodes: its dense best-constant
    # Laplacian (8 n^2 bytes) exceeds the child's address-space cap
    for _ in range(blocks):
        big_m1, big_m2 = rng.randint(2, 10), rng.randint(2, 10)
        nodes = rng.randint(30_000, 40_000)
        n = math.ceil((nodes - 1) / (big_m1 + big_m2))
        requests.append(["compare"] + _params(big_m1, n, big_m2, n))
    rng.shuffle(requests)
    return requests


_DRAWS = {
    "sweep_small": _sweep_small,
    "long_arm": _long_arm,
    "wide_net": _wide_net,
}


def request_count(workload: str, seconds: float) -> int:
    """Requests one run of ``workload`` sends for a ``seconds`` budget."""
    block = BLOCK[workload]
    return block * max(1, round(seconds * NOMINAL_RATE[workload] / block))


def tail_q(workload: str, seconds: float) -> int:
    """The tail percentile of a run: the highest one with at least ten of
    its requests beyond it, or the median for runs too short to have one."""
    return tail_percentile(request_count(workload, seconds)) or 50


def build_requests(workload: str, seed: int, length: int) -> list[list[str]]:
    """``length`` requests of ``workload`` for ``seed``, stratified as one
    sample; ``length`` is a whole number of blocks.  The shapes come from
    ``seed // SHAPE_FAMILY``, the order from ``seed``."""
    blocks, rest = divmod(length, BLOCK[workload])
    if rest or not blocks:
        raise ValueError(f"{workload} requests come in blocks of {BLOCK[workload]}, not {length}")
    requests = _DRAWS[workload](random.Random(f"{workload}:{seed // SHAPE_FAMILY}"), blocks)
    random.Random(f"{workload}:{seed}:order").shuffle(requests)
    return requests


def digest(requests: list[list[str]]) -> str:
    """sha256 of the canonical JSON form of a request list."""
    blob = json.dumps(requests, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
