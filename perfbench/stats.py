"""Summaries, host fingerprint and process counters for the benchmark.

Timings are reported exactly as measured: no host-speed probe scales
them, because dividing by a calibration loop widened the run-to-run
spread instead of narrowing it.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import sys
import time

import numpy as np

#: A p90 is kept only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return quantile(values, 0.5)


def p90_supported(count: int) -> bool:
    """Whether ``count`` samples leave ten beyond the 90th percentile."""
    return count - int(0.9 * count) >= MIN_TAIL_SAMPLES


def describe(values) -> dict:
    """Sample count and quartiles, plus p90 where the sample supports it."""
    values = [float(v) for v in values]
    out = {"n": len(values)}
    if values:
        out.update(p25=quantile(values, 0.25), p50=median(values),
                   p75=quantile(values, 0.75))
        if p90_supported(len(values)):
            out["p90"] = quantile(values, 0.9)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    """The host a run measured: CPUs, interpreter, numpy and its BLAS."""
    info = {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS") if name in os.environ} or "default"
    return info


class GcWatch:
    """Garbage collections, and optionally their pauses, over a phase.

    Counting reads ``gc.get_stats()`` before and after, which costs
    nothing while the phase runs.  Pause timing installs a
    ``gc.callbacks`` hook and is used only in traced runs.
    """

    def __init__(self, time_pauses: bool = False):
        self.time_pauses = time_pauses
        self.pauses: list[tuple[float, float]] = []  # (start, end)
        self.collections = 0
        self.wall = 0.0
        self._started = 0.0
        self._before: list[int] = []
        self._pause_start = 0.0

    def _hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._pause_start = time.monotonic()
        else:
            self.pauses.append((self._pause_start, time.monotonic()))

    def __enter__(self) -> "GcWatch":
        self._before = [s["collections"] for s in gc.get_stats()]
        if self.time_pauses:
            gc.callbacks.append(self._hook)
        self._started = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.monotonic() - self._started
        if self.time_pauses:
            gc.callbacks.remove(self._hook)
        after = [s["collections"] for s in gc.get_stats()]
        self.collections += sum(a - b for a, b in zip(after, self._before))


#: Share of a run's windows that :func:`fastest_windows` keeps.
FAST_SHARE = 0.1


def fastest_windows(windows: list[list[float]]) -> list[float]:
    """Samples of a run's least-disturbed windows, pooled.

    The host's cores are shared, and per window its speed is bimodal:
    novel-graph windows ran near 38 ms or near 60 ms per generation, and
    the share of fast windows moved between 0.03 and 0.64 from run to
    run.  A median over every window jumps between the two modes when
    that share nears one half; the fastest tenth of the windows (at
    least three), ranked by median, stays in the fast mode while a run
    has a few fast windows at all.
    """
    ranked = sorted((w for w in windows if w), key=median)
    keep = max(3, math.ceil(FAST_SHARE * len(ranked)))
    return [s for window in ranked[:keep] for s in window]
