"""Traced mode: time each layer's public calls from outside the program.

Every entry of :data:`PROBES` names one callable at the attribute its
callers resolve at call time (a module global or a class attribute), so
swapping in a timing wrapper catches every call without editing
``repro``.  ``repro.obs`` stays off throughout; spans live here, in
memory, and are turned into the per-layer metrics at the end of a run.

A span's self time is its duration minus the time of wrapped calls
nested inside it on the same thread.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from stats import median, p90_supported, quantile


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_time: float
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _submit_info(args, kwargs, result):
    return id(args[1]), id(result)


def _collect_info(args, kwargs, batch):
    return [(id(item.request), item.enqueued_at) for item in batch]


def _graph_nodes(args, kwargs, result):
    return args[0].num_nodes


def _forward_info(args, kwargs, result):
    graphs = args[1]
    if isinstance(graphs, (list, tuple)):
        return len(graphs), sum(g.num_nodes for g in graphs)
    return 1, graphs.num_nodes


# (span name, module path, attribute path, info extractor).  Spans
# without a metric of their own (reply, cache lookup, embedding lookup)
# still count towards ``serve.attributed_share`` and self times.
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("serve.submit", "repro.serve.server", "PredictionServer.submit",
     _submit_info),
    ("serve.collect", "repro.serve.batching", "MicroBatcher.collect",
     _collect_info),
    ("serve.reply", "repro.serve.server", "ServeFuture.set_result",
     lambda a, k, r: id(a[0])),
    ("serve.cache_lookup", "repro.serve.cache", "ResultCache.lookup", None),
    ("graphs.fingerprint", "repro.serve.cache", "graph_fingerprint", None),
    ("graphs.verify", "repro.core.predictor", "assert_verified",
     _graph_nodes),
    ("core.predict", "repro.core.predictor", "PredictDDL.predict",
     lambda a, k, r: id(a[1])),
    ("core.warm", "repro.core.predictor", "PredictDDL.warm_embeddings",
     None),
    ("core.features", "repro.core.features", "FeatureAssembler.assemble",
     None),
    ("ghn.lookup", "repro.ghn.registry", "GHNRegistry.embed", None),
    ("ghn.registry_embed_many", "repro.ghn.registry",
     "GHNRegistry.embed_many", lambda a, k, r: len(a[2])),
    ("ghn.forward", "repro.ghn.model", "GHN2.embed_many", _forward_info),
    ("ghn.forward", "repro.ghn.model", "GHN2.embed", _forward_info),
    ("ghn.train", "repro.ghn.trainer", "GHNTrainer.train", None),
    ("regression.predict", "repro.core.engine", "InferenceEngine.predict",
     None),
    ("regression.fit", "repro.core.engine", "InferenceEngine.fit", None),
    ("parallel.map", "repro.sim.tracegen", "parallel_map", None),
    ("parallel.shm_attach", "repro.parallel.shm", "_attach_array",
     lambda a, k, r: a[3]),
)

#: Wrapped only around the serial re-run of one sweep configuration;
#: the parallel sweep pickles this function by name for its workers.
POINT_PROBE = ("sim.point", "repro.sim.tracegen", "_simulate_point", None)


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class LayerTracer:
    """Collects :class:`Span` records while :meth:`recording` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original, info):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            nested = [0.0]
            stack.append(nested)
            start = time.monotonic()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append(Span(
                    name, start, end, end - start - nested[0],
                    info(args, kwargs, result) if info else None))

        return wrapper

    @contextlib.contextmanager
    def recording(self, probes=PROBES):
        """Install the wrappers for the duration of the block."""
        patched = []
        try:
            for name, module_path, attr_path, info in probes:
                owner, attr = _resolve(module_path, attr_path)
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def select(self, name: str, windows=None) -> list[Span]:
        """Spans called ``name`` that start inside any of ``windows``."""
        spans = [s for s in self.spans if s.name == name]
        if windows is None:
            return spans
        return [s for s in spans
                if any(lo <= s.start < hi for lo, hi in windows)]


@dataclass
class Windows:
    """Where, in time, a workload's traced work ran.

    ``request``: windows in which the workload's requests were served
    while traced; ``throughput``: the fixed-depth (or generation) phases
    among them; ``passes``: traced offline passes; ``latency_items``:
    (request ids, client send, client reply) of each latency sample.
    """

    request: list = field(default_factory=list)
    throughput: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    latency_items: list = field(default_factory=list)
    requests: int = 0
    graphs: set = field(default_factory=set)

    def add(self, start: float, throughput_start: float, end: float,
            requests: list) -> None:
        """One traced round or window of served ``requests``."""
        self.request.append((start, end))
        self.throughput.append((throughput_start, end))
        self.requests += len(requests)
        self.graphs.update(id(q.graph) for q in requests)


def _ms(spans) -> list[float]:
    return [s.duration * 1e3 for s in spans]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def serve_attribution(tracer: LayerTracer, windows: Windows,
                      gc_pauses=()):
    """Per latency sample: covered share and serve overhead.

    Covered time is the union, within the sample's send-to-reply
    interval, of every wrapped call that overlaps it, each request's
    queue wait (enqueue to ``MicroBatcher.collect`` pickup) and the
    garbage-collector pauses.  Overhead is the reply latency minus the
    time the predictor worked on it (``predict`` and
    ``warm_embeddings`` calls).  Samples last well under a second, so
    spans starting more than a second earlier cannot overlap them.
    """
    spans = sorted(tracer.spans, key=lambda s: s.start)
    pauses = list(gc_pauses)
    starts = [s.start for s in spans]
    pickups = {}
    for span in tracer.select("serve.collect"):
        for request_id, enqueued in span.info:
            pickups[request_id] = (enqueued, span.end)
    covered = latency = 0.0
    overheads = []
    for request_ids, lo, hi in windows.latency_items:
        upto = bisect.bisect_right(starts, hi)
        overlapping = [s for s in spans[max(0, bisect.bisect_left(
            starts, lo - 1.0)):upto] if s.end > lo]
        intervals = [(s.start, s.end) for s in overlapping]
        intervals += [pickups[r] for r in request_ids if r in pickups]
        covered += _union_length(intervals + pauses, lo, hi)
        latency += hi - lo
        working = [(s.start, s.end) for s in overlapping
                   if s.name in ("core.predict", "core.warm")]
        overheads.append((hi - lo - _union_length(working, lo, hi)) * 1e3)
    return (covered / latency if latency else 0.0), overheads


def layer_metrics(tracer: LayerTracer, windows: Windows, *,
                  serve_workers: int, pool_workers: int,
                  serial_s_per_point: float, points_per_pass: int,
                  pool_delta: dict, gc_pauses=()) -> dict:
    """Per-layer metrics from the spans of traced work (0 where a
    workload does not reach a layer); offline ones are per traced
    pass."""
    def sel(name, where=windows.request):
        return tracer.select(name, where)

    requests = max(windows.requests, 1)
    collect = sel("serve.collect")
    waits = [(s.end - enqueued) * 1e3
             for s in collect for _, enqueued in s.info]
    batches = [len(s.info) for s in sel("serve.collect",
                                        windows.throughput)]
    busy = sum(s.duration for s in sel("core.predict",
                                       windows.throughput))
    throughput_wall = sum(hi - lo for lo, hi in windows.throughput)
    attributed, overheads = serve_attribution(tracer, windows, gc_pauses)
    fingerprint = sel("graphs.fingerprint")
    verify = sel("graphs.verify")
    predict = sel("core.predict")
    forward = sel("ghn.forward")
    many = sel("ghn.registry_embed_many")
    per_pass = max(len(windows.passes), 1)
    parallel_s = sum(s.duration for s in sel("parallel.map",
                                             windows.passes)) / per_pass
    predict_ms = _ms(predict)
    return {
        "serve.submit_ms.p50": median(_ms(sel("serve.submit"))),
        "serve.overhead_ms.p50": median(overheads),
        "serve.queue_wait_ms.p50": median(waits),
        "serve.queue_wait_ms.p90": (quantile(waits, 0.9)
                                    if p90_supported(len(waits)) else 0.0),
        "serve.batch_size.mean": float(np.mean(batches)) if batches else 0.0,
        "serve.predict_share": (busy / (serve_workers * throughput_wall)
                                if throughput_wall else 0.0),
        "serve.attributed_share": attributed,
        "graphs.fingerprint_ms.p50": median(_ms(fingerprint)),
        "graphs.fingerprint_calls_per_request": len(fingerprint) / requests,
        "graphs.verify_ms.p50": median(_ms(verify)),
        "graphs.verify_calls_per_request": len(verify) / requests,
        "graphs.verify_us_per_node": (
            sum(s.duration for s in verify) * 1e6
            / max(sum(s.info for s in verify), 1)),
        "core.predict_ms.p50": median(predict_ms),
        "core.predict_ms.p90": (quantile(predict_ms, 0.9)
                                if p90_supported(len(predict_ms)) else 0.0),
        "core.predict_self_ms.p50": median([s.self_time * 1e3
                                            for s in predict]),
        "core.features_ms.p50": median(_ms(sel("core.features"))),
        "core.warm_ms.p50": median(_ms(sel("core.warm"))),
        "ghn.embed_many_ms.p50": median(_ms(many)),
        "ghn.embed_us_per_node": (
            sum(s.duration for s in forward) * 1e6
            / max(sum(s.info[1] for s in forward), 1)),
        "ghn.embed_many_graphs.mean": (
            float(np.mean([s.info for s in many])) if many else 0.0),
        "ghn.embed_cache_hit_ratio": (
            1.0 - sum(s.info[0] for s in forward) / len(windows.graphs)
            if windows.graphs else 0.0),
        "ghn.train_s": sum(s.duration for s in sel(
            "ghn.train", windows.passes)) / per_pass,
        "regression.predict_ms.p50": median(_ms(sel("regression.predict"))),
        "regression.fit_s": sum(s.duration for s in sel(
            "regression.fit", windows.passes)) / per_pass,
        "sim.point_ms.p50": median(_ms(tracer.select("sim.point"))),
        "parallel.map_s": parallel_s,
        "parallel.efficiency": (
            serial_s_per_point * points_per_pass
            / (pool_workers * parallel_s) if parallel_s else 0.0),
        "parallel.chunks": pool_delta.get("chunks", 0) / per_pass,
        "parallel.steals": pool_delta.get("steals", 0) / per_pass,
        "parallel.respawns": pool_delta.get("respawns", 0),
        "parallel.shm_bytes": sum(s.info for s in tracer.select(
            "parallel.shm_attach", windows.passes)) / per_pass,
    }


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "serve.submit_ms.p50": "ms",
    "serve.overhead_ms.p50": "ms",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms",
    "serve.batch_size.mean": "count",
    "serve.predict_share": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.failed": "count",
    "serve.attributed_share": "ratio",
    "graphs.fingerprint_ms.p50": "ms",
    "graphs.fingerprint_calls_per_request": "count",
    "graphs.verify_ms.p50": "ms",
    "graphs.verify_calls_per_request": "count",
    "graphs.verify_us_per_node": "us",
    "core.predict_ms.p50": "ms",
    "core.predict_ms.p90": "ms",
    "core.predict_self_ms.p50": "ms",
    "core.features_ms.p50": "ms",
    "core.warm_ms.p50": "ms",
    "core.fit_s": "s",
    "ghn.embed_many_ms.p50": "ms",
    "ghn.embed_us_per_node": "us",
    "ghn.embed_many_graphs.mean": "count",
    "ghn.embed_cache_hit_ratio": "ratio",
    "ghn.train_s": "s",
    "regression.predict_ms.p50": "ms",
    "regression.fit_s": "s",
    "sim.point_ms.p50": "ms",
    "sim.sweep_points_per_s": "1/s",
    "parallel.map_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.chunks": "count",
    "parallel.steals": "count",
    "parallel.respawns": "count",
    "parallel.shm_bytes": "bytes",
    "runtime.gc_pause_ms.max": "ms",
    "runtime.gc_pause_share": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "check.wrong_answers": "count",
    "check.nonfinite": "count",
    "check.name_collision": "count",
    "check.grad_mode_leaked": "count",
}
