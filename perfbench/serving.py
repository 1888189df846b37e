"""Serving workloads: what-if traffic and novel-graph NAS screening.

Both drive a ``PredictionServer`` with the default ``ServeConfig``
from this process, closed loop, with every request object built before
the timed region that sends it.  A run serves in several segments, one
freshly set-up server each; a segment continues the run's
:class:`ServeResult`.  Between two rounds or windows, with nothing in
flight, a segment runs the next of the caller's ``between`` tasks
(offline units), and its time limit counts serving time only.

``serve_miss``
    Capacity-planning what-ifs.  Every request is a new (zoo model,
    cluster, batch) key on warm embeddings, so the ``ResultCache`` never
    hits.  Each round sends the 39 zoo graphs in a seeded order one at a
    time (latency), then 39 more keys at a fixed in-flight depth
    (throughput).  Every round holds the same graphs, so the same work.
``serve_novel``
    NAS screening: generations of never-seen graphs (the same zoo
    architectures in every generation, rebuilt at unseen input sizes and
    class counts), each generation sent at once and awaited.  Windows of
    five generations give the throughput samples.
"""

from __future__ import annotations

import contextlib
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import PredictionRequest
from repro.cluster import make_cluster
from repro.ghn import structure_cache
from repro.nn import is_grad_enabled, no_grad
from repro.serve import AdmissionError, PredictionServer, ServeConfig
from repro.sim import DLWorkload

from layers import Windows
from offline import DATASET, INPUT_SIZE, NUM_CLASSES, bits, build_graph
from stats import GcWatch

#: What-if key space: server class x servers x batch per server.
SERVER_CLASSES = ("gpu-p100", "cpu-e5-2630", "cpu-e5-2650")
SERVER_COUNTS = tuple(range(1, 21))
BATCHES = (16, 32, 64)
#: In-flight requests of the throughput phase (admission cap is 64).
DEPTH = 8
#: Rounds every segment serves, however short its time.
MIN_ROUNDS = 5
#: Requests are built for this many rounds: 2 keys per model each, so
#: every one of the 180 keys per model at most once.
MAX_ROUNDS = 90

#: One NAS generation: these architectures, at fresh shapes each time.
GENERATION = ("alexnet", "vgg11", "squeezenet1_1", "resnet18")
WINDOW_GENERATIONS = 5
#: Windows every segment serves, however short its time; a run of four
#: segments then holds at least 180 generations, well over the 100 a
#: supported p90 needs.
MIN_WINDOWS = 9
#: Every CHECK_EVERY-th generation is checked against a reference.
CHECK_EVERY = 8
NOVEL_CLUSTER = (8, "gpu-p100")

REPLY_TIMEOUT = 60.0


def warm_requests(zoo_graphs: dict) -> list:
    cluster = make_cluster(1, "gpu-p100")
    return [PredictionRequest(workload=DLWorkload(model, DATASET),
                              cluster=cluster, graph=graph)
            for model, graph in zoo_graphs.items()]


def frozen_predictor(predictor) -> bytes:
    """The fitted predictor as a deployment ships it: caches empty."""
    predictor.registry.embed_cache.clear()
    return pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)


def setup_once(blob: bytes, warm: list):
    """Unpickle, warm the zoo embeddings, start a server (timed)."""
    structure_cache().clear()
    start = time.perf_counter()
    predictor = pickle.loads(blob)
    predictor.warm_embeddings(warm)
    server = PredictionServer(predictor, ServeConfig()).start()
    return time.perf_counter() - start, predictor, server


@dataclass
class ServeResult:
    """What a serving phase measured and answered."""

    #: Latency samples of each round (serve_miss) or window
    #: (serve_novel); even-numbered ones are traced in traced runs.
    unit_latency_s: list = field(default_factory=list)
    throughput: list = field(default_factory=list)  # per round/window
    late_s: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # (request, result)
    checked: list = field(default_factory=list)  # subset to verify
    attempted: int = 0
    failed: int = 0
    generations: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    gc: GcWatch = field(default_factory=GcWatch)
    traced_gc: GcWatch = field(default_factory=lambda: GcWatch(True))
    windows: Windows = field(default_factory=Windows)

    @property
    def cache_hit_ratio(self) -> float:
        return (self.cache_hits / self.cache_lookups
                if self.cache_lookups else 0.0)

    def count_cache(self, before: dict, after: dict) -> None:
        """Add one segment's result-cache hits and lookups."""
        hits = after["hits"] - before["hits"]
        self.cache_hits += hits
        self.cache_lookups += hits + after["misses"] - before["misses"]

    def latency_s(self, traced: bool | None = None) -> list:
        """All samples, or those of traced (even) / untraced units."""
        return [s for i, unit in enumerate(self.unit_latency_s)
                if traced is None or (i % 2 == 0) == traced for s in unit]


def _send(server, block, depth: int, result: ServeResult) -> list:
    """Submit ``block`` keeping at most ``depth`` requests in flight."""
    slots = threading.Semaphore(depth)
    pairs = []
    for request in block:
        slots.acquire()
        result.attempted += 1
        try:
            future = server.submit(request)
        except AdmissionError:
            slots.release()
            result.failed += 1
            continue
        future.add_done_callback(lambda _: slots.release())
        pairs.append((request, future))
    return pairs


def _await(pairs, result: ServeResult) -> None:
    """Collect replies; exceptions and non-finite answers are failures."""
    for request, future in pairs:
        try:
            answer = future.result(REPLY_TIMEOUT)
        except Exception:  # noqa: BLE001 - any refusal is a failed op
            result.failed += 1
            continue
        if not np.isfinite(answer.predicted_time):
            result.failed += 1
        result.answers.append((request, answer))


def _phase(tracer, traced: bool, result: ServeResult):
    """Recording context for one traced or untraced unit of work."""
    stack = contextlib.ExitStack()
    if traced:
        stack.enter_context(tracer.recording())
        stack.enter_context(result.traced_gc)
    stack.enter_context(result.gc)
    return stack


# ----------------------------------------------------------------------
# serve_miss
# ----------------------------------------------------------------------
class MissPlan:
    """``rounds`` x (latency block, throughput block), keys all distinct.

    Rounds are built in order as serving reaches them, between timed
    regions, so the heap holds only the requests a run sends; a seed
    gives the same rounds however many are used.
    """

    def __init__(self, zoo_graphs: dict, rng: np.random.Generator,
                 rounds: int):
        self._combos = [(c, n, b) for c in SERVER_CLASSES
                        for n in SERVER_COUNTS for b in BATCHES]
        if 2 * rounds > len(self._combos):
            raise ValueError("not enough distinct what-if keys")
        self._graphs = zoo_graphs
        self._rng = rng
        self._rounds = rounds
        self._keys = list(zoo_graphs)
        self._orders = {key: rng.permutation(len(self._combos))
                        for key in self._keys}
        self._clusters = {(c, n): make_cluster(n, c)
                          for c in SERVER_CLASSES for n in SERVER_COUNTS}
        self._built: list = []

    def __len__(self) -> int:
        return self._rounds

    def __getitem__(self, r: int) -> tuple[list, list]:
        while len(self._built) <= r:
            self._built.append(self._build(len(self._built)))
        return self._built[r]

    def _request(self, model: str, combo: int) -> PredictionRequest:
        server_class, servers, batch = self._combos[combo]
        return PredictionRequest(
            workload=DLWorkload(model, DATASET,
                                batch_size_per_server=batch),
            cluster=self._clusters[(server_class, servers)],
            graph=self._graphs[model])

    def _build(self, r: int) -> tuple[list, list]:
        keys, orders = self._keys, self._orders
        latency = [self._request(keys[i], orders[keys[i]][2 * r])
                   for i in self._rng.permutation(len(keys))]
        throughput = [self._request(keys[i], orders[keys[i]][2 * r + 1])
                      for i in self._rng.permutation(len(keys))]
        return latency, throughput


def _between(tasks) -> None:
    task = next(tasks, None)
    if task is not None:
        task()


def serve_miss(server, plan: MissPlan, seconds: float, result: ServeResult,
               tracer=None, between=iter(())) -> None:
    """One segment: the plan's next rounds for ``seconds`` of serving
    (at least ``MIN_ROUNDS``, at most what is left of the plan)."""
    before = server.cache.stats()
    served = 0.0
    first = len(result.unit_latency_s)
    for r in range(first, len(plan)):
        if r - first >= MIN_ROUNDS and served >= seconds:
            break
        latency_block, throughput_block = plan[r]
        traced = tracer is not None and r % 2 == 0
        latencies = []
        with _phase(tracer, traced, result):
            round_start = previous = time.monotonic()
            for request in latency_block:
                start = time.monotonic()
                result.late_s.append(start - previous)
                _await(_send(server, [request], 1, result), result)
                previous = time.monotonic()
                latencies.append(previous - start)
                if traced:
                    result.windows.latency_items.append(
                        ((id(request),), start, previous))
            throughput_start = time.monotonic()
            _await(_send(server, throughput_block, DEPTH, result), result)
            end = time.monotonic()
        served += end - round_start
        result.unit_latency_s.append(latencies)
        result.throughput.append(len(throughput_block)
                                 / (end - throughput_start))
        if traced:
            result.windows.add(round_start, throughput_start, end,
                               latency_block + throughput_block)
        _between(between)
    result.count_cache(before, server.cache.stats())
    result.checked = result.answers


# ----------------------------------------------------------------------
# serve_novel
# ----------------------------------------------------------------------
class NovelGraphs:
    """Never-seen graphs: zoo architectures at unseen shapes.

    The seed picks each graph's input size and class count; the
    architectures, and so the work per generation, are fixed.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._used = {(INPUT_SIZE, NUM_CLASSES)}
        self._cluster = make_cluster(*NOVEL_CLUSTER)

    def _shape(self) -> tuple[int, int]:
        while True:
            shape = (int(self._rng.integers(65, 225)),
                     int(self._rng.integers(11, 1000)))
            if shape not in self._used:
                self._used.add(shape)
                return shape

    def generation(self) -> list:
        requests = []
        for model in GENERATION:
            graph = build_graph(model, *self._shape())
            requests.append(PredictionRequest(
                workload=DLWorkload(model, DATASET),
                cluster=self._cluster, graph=graph))
        return requests


def serve_novel(server, novel: NovelGraphs, seconds: float,
                result: ServeResult, tracer=None,
                between=iter(())) -> None:
    """One segment: windows of fresh generations for ``seconds`` of
    serving (at least ``MIN_WINDOWS``)."""
    before = server.cache.stats()
    served = 0.0
    first = len(result.unit_latency_s)
    while (len(result.unit_latency_s) - first < MIN_WINDOWS
           or served < seconds):
        generations = [novel.generation()
                       for _ in range(WINDOW_GENERATIONS)]
        traced = tracer is not None and len(result.unit_latency_s) % 2 == 0
        latencies = []
        with _phase(tracer, traced, result):
            window_start = previous = time.monotonic()
            for requests in generations:
                start = time.monotonic()
                result.late_s.append(start - previous)
                answered = len(result.answers)
                _await(_send(server, requests, len(requests), result),
                       result)
                previous = time.monotonic()
                latencies.append(previous - start)
                if traced:
                    result.windows.latency_items.append(
                        (tuple(id(q) for q in requests), start, previous))
                if result.generations % CHECK_EVERY == 0:
                    result.checked += result.answers[answered:]
                result.generations += 1
            end = time.monotonic()
        served += end - window_start
        result.unit_latency_s.append(latencies)
        result.throughput.append(len(generations) * len(GENERATION)
                                 / (end - window_start))
        if traced:
            result.windows.add(window_start, window_start, end,
                               [q for g in generations for q in g])
        _between(between)
    result.count_cache(before, server.cache.stats())


# ----------------------------------------------------------------------
# correctness, outside every timed region
# ----------------------------------------------------------------------
def reference(predictor, request, embedding) -> float:
    """What ``predict`` must answer, from an independently computed
    embedding."""
    row = predictor.assembler.assemble(embedding, request.workload,
                                       request.cluster)
    return float(predictor.engine.predict(row.reshape(1, -1))[0])


def wrong_answers(predictor, checked: list, batched: bool) -> int:
    """Served answers that differ in any bit from the reference.

    The reference embedding bypasses the registry's cache: it comes
    straight from the GHN that served the answer, recomputed once per
    distinct graph -- one batched ``GHN2.embed_many`` pass for the 39
    zoo graphs (bitwise equal to ``embed`` by the program's contract),
    or one ``GHN2.embed`` per novel graph.
    """
    by_dataset: dict[str, dict[int, object]] = {}
    for request, answer in checked:
        by_dataset.setdefault(answer.dataset_used, {})[
            id(request.graph)] = request.graph
    embeddings = {}
    for dataset, graphs in by_dataset.items():
        ghn = predictor.registry.get(dataset)
        ordered = list(graphs.items())
        if batched:
            vectors = ghn.embed_many([g for _, g in ordered])
        else:
            vectors = [ghn.embed(g) for _, g in ordered]
        for (key, _), vector in zip(ordered, vectors):
            embeddings[(dataset, key)] = vector
    return sum(
        bits(answer.predicted_time) != bits(reference(
            predictor, request,
            embeddings[(answer.dataset_used, id(request.graph))]))
        for request, answer in checked)


def name_collision_probe(server, predictor) -> int:
    """Serve two different graphs under one name; count wrong answers.

    The registry keys embeddings on ``(dataset, graph.name)``, so the
    second graph is answered with the first one's embedding.
    """
    cluster = make_cluster(*NOVEL_CLUSTER)
    requests = []
    for model in ("resnet18", "vgg11"):
        graph = build_graph(model, 96, 17)
        graph.name = "name-collision-probe"
        requests.append(PredictionRequest(
            workload=DLWorkload(model, DATASET), cluster=cluster,
            graph=graph))
    answers = [server.predict(request, timeout=REPLY_TIMEOUT)
               for request in requests]
    ghn = predictor.registry.get(answers[0].dataset_used)
    return sum(bits(answer.predicted_time)
               != bits(reference(predictor, request,
                                 ghn.embed(request.graph)))
               for request, answer in zip(requests, answers))


def grad_mode_probe() -> bool:
    """Two threads' ``no_grad`` blocks overlapping as concurrent GHN
    forwards do; True when grad mode is left off afterwards.

    ``repro.nn.no_grad`` saves and restores one process-wide flag, so
    the later exit restores the earlier thread's "off".  This leaves
    grad mode off for the rest of the process: run it last.
    """
    first_in, second_in, first_out = (threading.Event() for _ in range(3))

    def first():
        with no_grad():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with no_grad():
            second_in.set()
            first_out.wait(5)

    threads = [threading.Thread(target=first),
               threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    return not is_grad_enabled()
