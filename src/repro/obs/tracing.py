"""Span tracer: nested, named spans over the predict/simulate pipeline.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest
through a thread-local context stack, so instrumentation composes across
call boundaries: ``PredictDDL.predict`` opens a root span, and the spans
opened inside ``WorkloadEmbeddingsGenerator.generate`` or ``GHN2.embed``
attach themselves as children without any plumbing.

Cross-thread propagation: a thread-local stack cannot follow a request
through a queue into a worker pool, so the tracer also carries an
explicit **ambient context** (:class:`~repro.obs.context.TraceContext`).
:meth:`Tracer.current_context` captures the active span's position;
:meth:`Tracer.attach` installs it in another thread, and the next root
span opened there records the remote trace/parent ids instead of
starting a new trace.  The span *objects* stay thread-local;
:mod:`repro.obs.export` stitches the id-linked records back into one
tree.

Design constraints (DESIGN.md Sec. 5):

* **Off by default, near-free when disabled.**  ``Tracer.span`` is
  guarded by a single ``enabled`` attribute check and returns one shared
  no-op object on the disabled path -- no allocation, no clock reads.
* **Deterministic content.**  Span names, nesting structure and
  attribute values are functions of the (seeded) workload; only the
  measured durations (and the arbitrarily thread-ordered ids) vary
  between runs.
* **Two clocks.**  ``time.perf_counter`` measures durations (monotonic,
  high resolution); ``time.time`` stamps the wall-clock start so
  exported records can be correlated with external logs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
import time
from collections.abc import Iterator

from .context import TraceContext

__all__ = ["Span", "SpanRecord", "Stopwatch", "Tracer", "render_tree"]


@dataclasses.dataclass(frozen=True)
class SpanRecord:
    """Flat export of one finished span (depth-first order)."""

    name: str
    path: str            # "/"-joined names from the root, e.g. "a/b/c"
    depth: int
    start_wall: float    # time.time() at entry
    duration: float      # perf_counter seconds
    attrs: dict
    status: str          # "ok" | "error"
    error: str | None = None
    trace_id: str = ""        # shared by every span of one request
    span_id: str = ""         # unique within the process
    parent_id: str | None = None  # None: a true trace root

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Stopwatch:
    """Minimal timing context: measures ``duration``, records nothing.

    Returned by :meth:`Tracer.timed` when tracing is disabled so call
    sites whose public API exposes seconds (``fit_seconds``,
    ``inference_seconds``...) keep working at the cost of two
    ``perf_counter`` reads -- the same cost as the stopwatch code the
    spans replaced.
    """

    __slots__ = ("duration", "_start")

    def __init__(self):
        self.duration = 0.0

    def set_attr(self, _key, _value) -> None:
        pass

    def annotate(self, **_attrs) -> None:
        pass

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._start
        return False


class _NullSpan:
    """Shared do-nothing span for the disabled path (one instance)."""

    __slots__ = ()
    duration = 0.0

    def set_attr(self, _key, _value) -> None:
        pass

    def annotate(self, **_attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One timed, named, attributed region of execution.

    Use as a context manager; exceptions propagate but are recorded
    (``status="error"``) and the context stack is always unwound.
    """

    __slots__ = ("name", "attrs", "children", "duration", "start_wall",
                 "status", "error", "trace_id", "span_id", "parent_id",
                 "_tracer", "_start", "_is_root")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.duration = 0.0
        self.start_wall = 0.0
        self.status = "ok"
        self.error: str | None = None
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None
        self._tracer = tracer

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        self._tracer._pop(self)
        return False  # never swallow

    # ------------------------------------------------------------------
    def walk(self, depth: int = 0, prefix: str = ""
             ) -> Iterator[tuple["Span", int, str]]:
        """Yield ``(span, depth, path)`` depth-first."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield self, depth, path
        for child in self.children:
            yield from child.walk(depth + 1, path)


class _ThreadState(threading.local):
    """One thread's open-span stack and attached ambient context."""

    def __init__(self):
        self.stack: list[Span] = []
        self.ambient: TraceContext | None = None


class Tracer:
    """Collects spans into per-thread trees; exports records and trees.

    The tracer starts disabled.  :meth:`span` costs one attribute check
    plus the return of a shared singleton until :meth:`enable` is
    called.  Finished root spans accumulate until :meth:`reset`.
    """

    def __init__(self):
        self.enabled = False
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        # Monotonic id sources; itertools.count is atomic in CPython.
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all finished spans (and any dangling thread stacks)."""
        with self._lock:
            self._roots = []
        self._local = _ThreadState()

    # -- span creation --------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a named child span of the current thread's active span."""
        if not self.enabled:
            return NULL_SPAN
        local = self._local
        if not local.stack:
            ambient = local.ambient
            if ambient is not None and not ambient.sampled:
                return NULL_SPAN
        return Span(self, name, attrs)

    def timed(self, name: str, **attrs):
        """Like :meth:`span`, but still measures ``duration`` when
        disabled (a bare :class:`Stopwatch`, recorded nowhere)."""
        if not self.enabled:
            return Stopwatch()
        return Span(self, name, attrs)

    # -- cross-thread context propagation -------------------------------
    def current_context(self) -> TraceContext | None:
        """The active span's position as a handoff-able context.

        Returns the topmost open span of *this* thread, or the attached
        ambient context if no span is open, or None when tracing is
        disabled / nothing is active.  Hand the result to another
        thread (or serialize it over the fabric) and :meth:`attach` it
        there before opening spans.
        """
        if not self.enabled:
            return None
        local = self._local
        if local.stack:
            top = local.stack[-1]
            return TraceContext(trace_id=top.trace_id,
                                span_id=top.span_id)
        return local.ambient

    def attach(self, ctx: TraceContext | None):
        """Install ``ctx`` as this thread's ambient trace context.

        The next root span this thread opens becomes a child of
        ``ctx.span_id`` inside ``ctx.trace_id`` instead of starting a
        new trace.  Returns an opaque token for :meth:`detach` (None
        when nothing was attached -- tracing disabled or ``ctx`` is
        None -- which :meth:`detach` accepts as a no-op).
        """
        if not self.enabled or ctx is None:
            return None
        local = self._local
        previous = local.ambient
        local.ambient = ctx
        return (previous,)

    def detach(self, token) -> None:
        """Restore the ambient context saved by :meth:`attach`."""
        if token is None:
            return
        self._local.ambient = token[0]

    @contextlib.contextmanager
    def attached(self, ctx: TraceContext | None):
        """``with tracer.attached(ctx):`` -- scoped :meth:`attach`."""
        token = self.attach(ctx)
        try:
            yield
        finally:
            self.detach(token)

    def emit(self, name: str, ctx: TraceContext | None, *,
             start_wall: float, duration: float, **attrs) -> Span | None:
        """Record an already-finished span as a child of ``ctx``.

        For work whose interval is known only after the fact, e.g. a
        request answered by another request's execution.  Touches
        neither this thread's stack nor its ambient context.  Returns
        the span, or None when tracing is off or ``ctx`` is None or
        unsampled.
        """
        if not self.enabled or ctx is None or not ctx.sampled:
            return None
        span = Span(self, name, attrs)
        span.span_id = f"s{next(self._span_ids):08x}"
        span.trace_id = ctx.trace_id
        span.parent_id = ctx.span_id
        span.start_wall = start_wall
        span.duration = duration
        span._is_root = True
        with self._lock:
            self._roots.append(span)
        return span

    # -- internal stack maintenance ------------------------------------
    def _push(self, span: Span) -> None:
        local = self._local
        stack = local.stack
        span._is_root = not stack
        span.span_id = f"s{next(self._span_ids):08x}"
        if stack:
            parent = stack[-1]
            parent.children.append(span)
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            ambient = local.ambient
            if ambient is not None:
                span.trace_id = ambient.trace_id
                span.parent_id = ambient.span_id
            else:
                span.trace_id = f"t{next(self._trace_ids):08x}"
                span.parent_id = None
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        # Exception-safe unwind: pop through anything the span's body
        # failed to close (cannot normally happen with context managers,
        # but keeps the stack sane if a generator span leaks).
        while stack:
            top = stack.pop()
            if top is span:
                break
        if span._is_root:
            with self._lock:
                self._roots.append(span)

    # -- export ---------------------------------------------------------
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def records(self) -> list[SpanRecord]:
        """Finished spans flattened depth-first across all roots."""
        out: list[SpanRecord] = []
        for root in self.roots():
            for span, depth, path in root.walk():
                out.append(SpanRecord(
                    name=span.name, path=path, depth=depth,
                    start_wall=span.start_wall, duration=span.duration,
                    attrs=dict(span.attrs), status=span.status,
                    error=span.error, trace_id=span.trace_id,
                    span_id=span.span_id, parent_id=span.parent_id))
        return out

    def render_tree(self) -> str:
        """ASCII rendering of every finished root span."""
        return "\n".join(render_tree(root) for root in self.roots())


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{k}={v}" for k, v in attrs.items())
    return f"  [{body}]"


#: Runs of more than this many same-named sibling spans are collapsed
#: in the rendered tree (a GHN training loop emits one span per step).
COLLAPSE_THRESHOLD = 6
_COLLAPSE_KEEP = 3


def _collapse(children: list[Span]) -> list:
    """Replace long same-name runs by ``(name, count, total)`` summaries."""
    out: list = []
    i = 0
    while i < len(children):
        j = i
        while (j < len(children)
               and children[j].name == children[i].name):
            j += 1
        run = children[i:j]
        if len(run) > COLLAPSE_THRESHOLD:
            out.extend(run[:_COLLAPSE_KEEP])
            out.append((run[0].name, len(run) - _COLLAPSE_KEEP,
                        sum(s.duration for s in run[_COLLAPSE_KEEP:])))
        else:
            out.extend(run)
        i = j
    return out


def render_tree(root: Span) -> str:
    """One root span as an ASCII tree with per-span durations."""
    lines: list[str] = []

    def visit(span, prefix: str, is_last: bool, is_root: bool):
        if is_root:
            head = ""
            child_prefix = ""
        else:
            head = prefix + ("└─ " if is_last else "├─ ")
            child_prefix = prefix + ("   " if is_last else "│  ")
        if isinstance(span, tuple):
            name, count, total = span
            lines.append(f"{head}... +{count} more {name} "
                         f"(total {_format_duration(total)})")
            return
        marker = " !ERROR" if span.status == "error" else ""
        lines.append(f"{head}{span.name} "
                     f"({_format_duration(span.duration)})"
                     f"{marker}{_format_attrs(span.attrs)}")
        children = _collapse(span.children)
        for i, child in enumerate(children):
            visit(child, child_prefix, i == len(children) - 1, False)

    visit(root, "", True, True)
    return "\n".join(lines)
