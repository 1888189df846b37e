"""The paper's offline phase (Figs. 8 and 13).

- The *first pass* sweeps the 2340-point collection plan (39 zoo models
  x 1-20 servers, for each of the three dataset/server/batch
  configurations of ``standard_trace``) with
  ``generate_trace(workers=<cpus>)`` on the persistent pool, fits
  ``PredictDDL`` from a fresh registry on half of the models and scores
  the held-out half of the trace (MAPE against the simulator).
- A *cold prediction* predicts one held-out model on CIFAR-10 with cold
  caches (Fig. 13's per-model cost: verify + embed + regress).

The first pass starts with the zoo graphs built and the GHN structure
cache empty; a full collection precedes every sweep and the fit, so the
collector's pauses fall at the same points of the same work in every
run.  The trace seeds are fixed, so the fitted model, its answers and
the held-out MAPE are the same on every run.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro import PredictDDL, PredictionRequest
from repro.cluster import make_cluster
from repro.ghn import structure_cache
from repro.graphs.zoo import get_model, list_models
from repro.parallel import get_pool, parallel_map, pool_stats
from repro.sim import STANDARD_CLUSTER_SIZES, DLWorkload, generate_trace

from layers import POINT_PROBE, Windows
from stats import GcWatch

#: ``standard_trace``'s collection plan: dataset, server class, batch
#: size per server and trace seed of each configuration.
PLAN = (("cifar10", "gpu-p100", 32, 0),
        ("cifar10", "gpu-p100", 64, 1),
        ("tiny-imagenet", "cpu-e5-2630", 32, 2))

#: Requests target CIFAR-10 (64 px, 10 classes), the dataset whose GHN
#: the fit trains; Tiny-ImageNet falls back to it.
DATASET = "cifar10"
INPUT_SIZE = 64
NUM_CLASSES = 10

MODELS = tuple(list_models())
TRAIN_MODELS = frozenset(MODELS[::2])
HELDOUT_MODELS = tuple(m for m in MODELS if m not in TRAIN_MODELS)

#: The cluster the cold per-model predictions target (Fig. 13 uses 8).
COLD_SERVERS = 8


def workers() -> int:
    return len(os.sched_getaffinity(0))


def structure_name(model: str, input_size: int, num_classes: int) -> str:
    """A graph name per structure.

    The GHN registry keys embeddings on ``(dataset, graph.name)``, so a
    correct client gives structurally different graphs different names.
    """
    return f"{model}-{input_size}px-{num_classes}c"


def build_graph(model: str, input_size: int, num_classes: int):
    graph = get_model(model, input_size=input_size, num_classes=num_classes)
    graph.name = structure_name(model, input_size, num_classes)
    return graph


def build_zoo_graphs() -> dict:
    """Every zoo model at the request dataset's shape, by model name."""
    return {model: build_graph(model, INPUT_SIZE, NUM_CLASSES)
            for model in MODELS}


def prepare() -> dict:
    """Build the graphs, then start the worker pool.

    The trace's graphs are built first so the forked workers inherit
    them and no pass pays for them.  Returns the zoo graphs by model.
    """
    graphs = build_zoo_graphs()
    for model in MODELS:
        for dataset, *_ in PLAN:
            DLWorkload(model, dataset).graph
    pool = get_pool(workers()).warm()
    parallel_map(abs, list(range(4 * workers())), workers=workers(),
                 pool=pool)
    return graphs


def sweep(n_workers: int, plan=PLAN, times: list | None = None) -> list:
    """The plan's points; ``times`` gets each configuration's seconds."""
    points = []
    for dataset, server_class, batch, seed in plan:
        gc.collect()
        start = time.perf_counter()
        points += generate_trace(MODELS, dataset, server_class,
                                 STANDARD_CLUSTER_SIZES,
                                 batch_size_per_server=batch, seed=seed,
                                 workers=n_workers)
        if times is not None:
            times.append(time.perf_counter() - start)
    return points


def same_points(a, b) -> bool:
    """Bitwise equality of two sweeps' records."""
    return len(a) == len(b) and all(
        x.as_record() == y.as_record() and
        np.float64(x.total_time).tobytes() ==
        np.float64(y.total_time).tobytes() for x, y in zip(a, b))


def serial_rerun(parallel_points, tracer=None) -> tuple[bool, float, int]:
    """Re-run the first configuration in-process; compare bitwise.

    Returns (identical, serial seconds, points re-run).  In traced runs
    each point is timed as ``sim.point``.
    """
    start = time.perf_counter()
    if tracer is None:
        serial = sweep(1, PLAN[:1])
    else:
        with tracer.recording((POINT_PROBE,)):
            serial = sweep(1, PLAN[:1])
    seconds = time.perf_counter() - start
    return (same_points(serial, parallel_points[:len(serial)]), seconds,
            len(serial))


def bits(value: float) -> bytes:
    """A float's exact bytes, for bitwise comparison."""
    return np.float64(value).tobytes()


class OfflinePhase:
    """The offline work of one run and what it measured.

    :meth:`first_pass` sweeps the whole plan, fits and scores (traced in
    traced runs; with ``serial_check`` the sweep is then compared
    bitwise with an in-process serial re-run).  :meth:`cold_predict`
    times one held-out model's cold prediction; a run makes several of
    each, spread over its length, and each is checked bit for bit
    against the model's first.
    """

    def __init__(self, graphs: dict, tracer=None, *,
                 serial_check: bool = False):
        self.graphs = graphs
        self.tracer = tracer
        self.serial_check = serial_check
        self.windows = Windows()
        self.gc = GcWatch()
        self.pool_delta = {"chunks": 0, "steals": 0, "respawns": 0}
        self.identical: bool | None = None
        self.serial_s_per_point = 0.0
        self.trace: list = []
        self.config_s: list[float] = []  # per configuration of PLAN
        self.fit_s = 0.0
        self.score_s = 0.0
        self.heldout_mape: float | None = None
        self.cold_s: dict[str, list[float]] = {m: [] for m in
                                              HELDOUT_MODELS}
        self.cold_answers: dict[str, float] = {}
        self.attempted = 0
        self.nonfinite = 0
        self.wrong = 0
        self._cluster = make_cluster(COLD_SERVERS, "gpu-p100")

    def first_pass(self) -> PredictDDL:
        """Sweep the plan, fit, score; returns the fitted predictor."""
        tracer = self.tracer
        before = pool_stats() or {}
        with self.gc:
            if tracer is None:
                predictor = self._first_pass()
            else:
                with tracer.recording():
                    lo = time.monotonic()
                    predictor = self._first_pass()
                    self.windows.passes.append((lo, time.monotonic()))
                after = pool_stats() or {}
                for key in self.pool_delta:
                    self.pool_delta[key] += (after.get(key, 0)
                                             - before.get(key, 0))
        if self.serial_check:
            self.identical, seconds, count = serial_rerun(self.trace,
                                                          tracer)
            self.serial_s_per_point = seconds / count
        return predictor

    def _first_pass(self) -> PredictDDL:
        structure_cache().clear()
        self.trace = sweep(workers(), times=self.config_s)
        self.attempted += len(self.trace)
        train = [p for p in self.trace
                 if p.workload.model_name in TRAIN_MODELS]
        heldout = [p for p in self.trace
                   if p.workload.model_name not in TRAIN_MODELS]
        gc.collect()
        start = time.perf_counter()
        predictor = PredictDDL(seed=0).fit(train)
        self.fit_s = time.perf_counter() - start
        self.attempted += 1
        start = time.perf_counter()
        predicted = predictor.predict_trace(heldout)
        self.score_s = time.perf_counter() - start
        actual = np.array([p.total_time for p in heldout])
        self.heldout_mape = float(
            np.mean(np.abs(predicted - actual) / actual) * 100.0)
        self.attempted += len(heldout)
        self.nonfinite += int(np.sum(~np.isfinite(predicted)))
        return predictor

    def cold_predict(self, predictor: PredictDDL, model: str) -> None:
        """Predict ``model`` with cold caches (Fig. 13's per-model cost).

        ``predictor`` must not have predicted ``model`` before (its GHN
        remembers verified graph names); the embedding and structure
        caches are emptied here.  Untimed checks: the answer is finite,
        a warm repeat reproduces it, and so does every other cold
        prediction of the model in the run.
        """
        request = PredictionRequest(workload=DLWorkload(model, DATASET),
                                    cluster=self._cluster,
                                    graph=self.graphs[model])
        predictor.registry.embed_cache.clear()
        structure_cache().clear()
        with self.gc:
            start = time.perf_counter()
            answer = predictor.predict(request).predicted_time
            self.cold_s[model].append(time.perf_counter() - start)
        self.attempted += 1
        self.nonfinite += not np.isfinite(answer)
        first = self.cold_answers.setdefault(model, answer)
        self.wrong += (bits(predictor.predict(request).predicted_time)
                       != bits(answer) or bits(first) != bits(answer))

    def metrics(self) -> dict:
        """The phase's end-to-end metrics.

        Cold cost takes each held-out model's fastest cold prediction
        and averages over the models (Fig. 13's per-model cost; their
        median sits in a gap between model sizes and jumps with small
        shifts).  A model's samples fall at unrelated moments of the
        run, so the mean draws on many of them.
        """
        return {
            "cold_predict_ms": float(np.mean(
                [min(times) for times in self.cold_s.values()])) * 1e3,
            "heldout_mape": self.heldout_mape,
        }

    def samples(self) -> dict:
        return {"sweep_config_s": self.config_s,
                "fit_s": [self.fit_s],
                "score_s": [self.score_s],
                "cold_predict_ms": [s * 1e3 for times in self.cold_s.values()
                                    for s in times]}

    @property
    def sweep_points_per_s(self) -> float:
        return len(self.trace) / sum(self.config_s)

    @property
    def correct(self) -> bool:
        return (self.wrong == 0 and self.nonfinite == 0
                and self.identical is not False)
