"""Measurement helpers: percentiles, work-mode boundary checks, memory, host calibration."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys

import numpy as np

__all__ = [
    "boundary_flags",
    "descendants",
    "nearest_rank",
    "peak_rss_mb",
    "relative_residual",
    "tail_percentile",
    "triad_gbps",
]


def nearest_rank(values, pct: float) -> float:
    """The nearest-rank ``pct`` percentile (a sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` samples above it."""
    pct = int(math.floor(100.0 * (n - beyond) / n))
    while pct > 0 and n - math.ceil(pct / 100.0 * n) < beyond:
        pct -= 1
    return pct


def boundary_flags(latencies, modes, percentiles: dict, margin: int = 3,
                   separation: float = 0.15) -> list[str]:
    """Percentiles that sit within ``margin`` samples of a work-mode boundary.

    Work modes (e.g. cold/warm set-up, burst size, preconditioner
    applications) are ordered by their median latency; modes whose medians
    differ by less than ``separation`` are merged, because a percentile moving
    between them moves little.  The boundaries are the cumulative sample
    counts between the remaining modes.  A percentile whose nearest rank lies
    within ``margin`` samples of a boundary reads a different mode when the
    mix shifts by a few samples, so it is flagged.
    """
    groups: dict = {}
    for lat, mode in zip(latencies, modes):
        groups.setdefault(mode, []).append(lat)
    ordered = sorted(groups.items(), key=lambda kv: statistics.median(kv[1]))
    boundaries, count, previous = [], 0, None
    for mode, lats in ordered:
        med = statistics.median(lats)
        if previous is not None and med > previous * (1.0 + separation):
            boundaries.append(count)
        count += len(lats)
        previous = med if previous is None else max(previous, med)
    n = len(latencies)
    flags = []
    for label, pct in percentiles.items():
        rank = max(1, math.ceil(pct / 100.0 * n))
        for boundary in boundaries:
            if abs(rank - boundary) <= margin:
                flags.append(f"{label} (p{pct:g}, rank {rank}/{n}) is within "
                             f"{margin} samples of a work-mode boundary at "
                             f"rank {boundary}")
    return flags


def relative_residual(csr, x: np.ndarray, b: np.ndarray) -> float:
    """fp64 ``||b - A x|| / ||b||`` with the benchmark's own CSR matvec."""
    values = np.asarray(csr.values, dtype=np.float64)
    indices = np.asarray(csr.indices, dtype=np.int64)
    indptr = np.asarray(csr.indptr, dtype=np.int64)
    products = values * np.asarray(x, dtype=np.float64)[indices]
    ax = np.add.reduceat(products, indptr[:-1]) if products.size else products
    empty = indptr[1:] == indptr[:-1]
    if empty.any():
        ax[empty] = 0.0
    return float(np.linalg.norm(b - ax) / np.linalg.norm(b))


# ------------------------------------------------------------------ #
# Memory
# ------------------------------------------------------------------ #
def descendants(root: int | None = None) -> list[int]:
    """Live descendant process ids of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            out.append(child)
            frontier.append(child)
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant, in MB."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


# ------------------------------------------------------------------ #
# Host calibration
# ------------------------------------------------------------------ #
#: three float64 arrays of this length hold 480 MB, over 4x the 105 MiB L3
TRIAD_LENGTH = 20_000_000

_TRIAD_SCRIPT = f"""
import time, numpy as np
n = {TRIAD_LENGTH}
a = np.zeros(n); b = np.full(n, 1.5); c = np.full(n, 2.5)
best = float("inf")
for _ in range(4):
    t = time.perf_counter()
    np.multiply(c, 3.0, out=a)
    np.add(a, b, out=a)
    best = min(best, time.perf_counter() - t)
assert a[0] == 9.0
print(3 * 8 * n / best / 1e9)
"""


def triad_gbps() -> float:
    """STREAM-triad bandwidth (GB/s, STREAM's 24 bytes per element) measured
    in a short-lived child process, so its arrays never count toward the
    benchmark's own peak memory."""
    out = subprocess.run([sys.executable, "-c", _TRIAD_SCRIPT], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])
