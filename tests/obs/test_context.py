"""Trace-context propagation: cross-thread parenting and sampling."""

import threading

import pytest

from repro.obs.context import TraceContext, TraceSampler
from repro.obs.export import stitch, validate
from repro.obs.tracing import NULL_SPAN, Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


class TestTraceContext:
    def test_dict_roundtrip(self):
        ctx = TraceContext("t01", "s02", sampled=False)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_sampled_defaults_true(self):
        assert TraceContext.from_dict(
            {"trace_id": "t", "span_id": "s"}).sampled

    def test_child_of_rebinds_parent_span(self):
        ctx = TraceContext("t01", "s02")
        child = ctx.child_of("s03")
        assert child.trace_id == "t01"
        assert child.span_id == "s03"


class TestSampler:
    def test_rate_one_always_samples(self):
        sampler = TraceSampler(1.0, seed=0)
        assert all(sampler.decide() for _ in range(50))

    def test_rate_zero_never_samples(self):
        sampler = TraceSampler(0.0, seed=0)
        assert not any(sampler.decide() for _ in range(50))

    def test_partial_rate_is_seed_deterministic(self):
        first = [TraceSampler(0.5, seed=7).decide() for _ in range(1)]
        a = TraceSampler(0.5, seed=7)
        b = TraceSampler(0.5, seed=7)
        seq_a = [a.decide() for _ in range(200)]
        seq_b = [b.decide() for _ in range(200)]
        assert seq_a == seq_b
        assert True in seq_a and False in seq_a
        assert seq_a[0] == first[0]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(1.5)


class TestCurrentContext:
    def test_none_outside_any_span(self, tracer):
        assert tracer.current_context() is None

    def test_none_when_disabled(self):
        assert Tracer().current_context() is None

    def test_points_at_the_open_span(self, tracer):
        with tracer.span("a") as span:
            ctx = tracer.current_context()
            assert ctx is not None
            assert ctx.trace_id == span.trace_id
            assert ctx.span_id == span.span_id
            assert ctx.sampled


class TestCrossThreadAttach:
    def test_worker_span_parents_under_ingress_span(self, tracer):
        # Regression for cross-thread span orphaning: the span opened
        # on the worker thread must join the ingress-pump span's trace
        # (via the attached context), not start a fresh root trace.
        handoff = {}

        def ingress():
            with tracer.span("serve.ingress"):
                handoff["ctx"] = tracer.current_context()

        def worker():
            token = tracer.attach(handoff["ctx"])
            try:
                with tracer.span("serve.execute"):
                    pass
            finally:
                tracer.detach(token)

        for target in (ingress, worker):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join()

        by_name = {r.name: r for r in tracer.records()}
        ing = by_name["serve.ingress"]
        exe = by_name["serve.execute"]
        assert exe.trace_id == ing.trace_id
        assert exe.parent_id == ing.span_id
        assert ing.parent_id is None
        trees = stitch(tracer.records())
        assert len(trees) == 1
        assert trees[0].span_names() == ["serve.ingress",
                                         "serve.execute"]
        assert validate(tracer.records()) == []

    def test_without_attach_threads_get_separate_traces(self, tracer):
        def work(name):
            with tracer.span(name):
                pass

        for name in ("left", "right"):
            thread = threading.Thread(target=work, args=(name,))
            thread.start()
            thread.join()

        records = tracer.records()
        assert len({r.trace_id for r in records}) == 2
        assert all(r.parent_id is None for r in records)

    def test_attached_context_manager(self, tracer):
        with tracer.span("root"):
            ctx = tracer.current_context()
        with tracer.attached(ctx):
            with tracer.span("child"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["child"].trace_id == by_name["root"].trace_id

    def test_detach_restores_previous_ambient(self, tracer):
        ctx = TraceContext("tAA", "sAA")
        token = tracer.attach(ctx)
        tracer.detach(token)
        with tracer.span("fresh"):
            pass
        record = tracer.records()[0]
        assert record.trace_id != "tAA"
        assert record.parent_id is None

    def test_attach_none_is_a_noop(self, tracer):
        token = tracer.attach(None)
        tracer.detach(token)
        assert tracer.current_context() is None

    def test_unsampled_context_suppresses_spans(self, tracer):
        token = tracer.attach(TraceContext("t01", "s01", sampled=False))
        try:
            assert tracer.span("suppressed") is NULL_SPAN
        finally:
            tracer.detach(token)
        assert tracer.records() == []


class TestEmit:
    def test_finished_span_parents_under_context(self, tracer):
        with tracer.span("ingress"):
            ctx = tracer.current_context()
        span = tracer.emit("execute", ctx, start_wall=5.0, duration=0.25,
                           source="cache")
        (ingress, execute) = tracer.records()
        assert execute.span_id == span.span_id
        assert execute.trace_id == ingress.trace_id
        assert execute.parent_id == ingress.span_id
        assert (execute.start_wall, execute.duration) == (5.0, 0.25)
        assert execute.attrs == {"source": "cache"}
        assert validate(tracer.records()) == []

    def test_leaves_thread_state_alone(self, tracer):
        with tracer.span("outer") as outer:
            tracer.emit("side", TraceContext("t09", "s09"),
                        start_wall=0.0, duration=0.0)
            assert tracer.current_context().span_id == outer.span_id
        assert outer.children == []

    def test_noop_when_disabled_unsampled_or_contextless(self):
        off = Tracer()
        ctx = TraceContext("t01", "s01")
        assert off.emit("x", ctx, start_wall=0.0, duration=0.0) is None
        on = Tracer()
        on.enable()
        for dead in (None, TraceContext("t01", "s01", sampled=False)):
            assert on.emit("x", dead, start_wall=0.0, duration=0.0) is None
        assert off.records() == on.records() == []
