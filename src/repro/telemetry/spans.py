"""Hierarchical tracing spans with a Chrome trace-event exporter.

The paper's performance story is an *attribution* story — Table 7 splits
every job into startup / evaluation / output phases, and §4.2 diagnoses
under-utilized GPUs by looking at *where* wall-clock time went.  The
tracer makes that attribution possible for the reproduction's own runs:
any code can open a :meth:`Tracer.span` context manager, spans nest
per-thread (worker-pool threads each grow their own stack), and every
closed span records wall time plus whatever counters were attached while
it was open.

Exporting with :meth:`Tracer.export_chrome_trace` produces the Chrome
trace-event JSON format, so a campaign run opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` as a flamegraph — one
track per thread, stage spans at the top, shard and kernel spans nested
underneath.

:class:`NullTracer` is the default everywhere instrumentation is wired:
its ``span()`` returns a shared no-op handle, so disabled telemetry
costs one attribute lookup and no allocation per call site — and, by
construction, cannot perturb a bit of any numerical result.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "Tracer", "NullTracer", "NULL_TRACER", "phase_totals_of"]

#: The Table 7 phase taxonomy spans may be classified under.
PHASES = ("startup", "evaluation", "output")


@dataclass
class SpanRecord:
    """One closed span: a named wall-time interval with counters."""

    span_id: int
    parent_id: int | None
    name: str
    #: seconds since the tracer's epoch (``perf_counter`` based)
    start_s: float
    duration_s: float
    thread_id: int
    thread_name: str
    #: optional Table 7 phase classification ("startup" | "evaluation" | "output")
    phase: str | None = None
    #: optional campaign stage this span belongs to
    stage: str | None = None
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _OpenSpan:
    """Context-manager handle to one in-flight span.

    Handles are single-use and owned by the opening thread; counters may
    be accumulated from that thread while the span is open.
    """

    __slots__ = (
        "_tracer", "span_id", "parent_id", "name", "phase", "stage",
        "counters", "_parent_hint", "_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        phase: str | None,
        stage: str | None,
        parent_hint: int | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.phase = phase
        self.stage = stage
        self.counters: dict[str, float] = {}
        self.span_id = 0
        self.parent_id: int | None = None
        self._parent_hint = parent_hint
        self._start = 0.0

    def add(self, key: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto counter ``key`` of this span."""
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def set(self, key: str, value: float) -> None:
        """Set counter ``key`` of this span to ``value``."""
        self.counters[key] = float(value)

    def __enter__(self) -> "_OpenSpan":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._exit(self)


class Tracer:
    """Thread-safe hierarchical tracer.

    Each thread maintains its own stack of open spans (``span()`` calls
    nest naturally within a thread); closed spans from every thread are
    appended to one shared record list.  Parent/child links are explicit
    (``parent_id``), so the exported trace reconstructs the flamegraph
    even for spans whose parents closed on another thread.

    The tracer is append-only and lock-cheap: the per-span cost is two
    ``perf_counter`` calls, one lock acquisition and one small object.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_id = 1
        self._local = threading.local()
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------ #
    def span(
        self,
        name: str,
        *,
        phase: str | None = None,
        stage: str | None = None,
        parent: "_OpenSpan | None" = None,
    ) -> _OpenSpan:
        """Open a span named ``name``; use as a context manager.

        ``phase`` optionally classifies the span under the Table 7
        taxonomy (see :data:`PHASES`); ``stage`` tags it with the
        campaign stage it belongs to.  Both flow into the run record's
        per-stage phase breakdown.  ``parent`` explicitly links the span
        under another *open* span — needed when a worker thread's work
        logically nests under a coordinator-thread span, which the
        per-thread stacks cannot see (e.g. stream shards under the run
        span, so the exported flamegraph keeps stage → shard → kernel
        nesting across threads).
        """
        if phase is not None and phase not in PHASES:
            raise ValueError(f"unknown phase '{phase}'; expected one of {PHASES}")
        parent_hint = parent.span_id if isinstance(parent, _OpenSpan) else None
        return _OpenSpan(self, name, phase, stage, parent_hint=parent_hint)

    def current(self) -> _OpenSpan | None:
        """The innermost open span on the calling thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add(self, key: str, value: float = 1.0) -> None:
        """Accumulate a counter on the calling thread's open span (no-op without one)."""
        span = self.current()
        if span is not None:
            span.add(key, value)

    # ------------------------------------------------------------------ #
    def _enter(self, span: _OpenSpan) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span.parent_id = stack[-1].span_id if stack else span._parent_hint
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack.append(span)
        span._start = time.perf_counter()

    def _exit(self, span: _OpenSpan) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        # tolerate mis-nested exits defensively: pop back to this span
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        thread = threading.current_thread()
        record = SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start_s=span._start - self.epoch,
            duration_s=end - span._start,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            phase=span.phase,
            stage=span.stage,
            counters=dict(span.counters),
        )
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------ #
    def records(self) -> list[SpanRecord]:
        """Snapshot of every closed span so far (closing order)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------ #
    # ------------------------------------------------------------------ #
    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Spans become complete (``"ph": "X"``) events with microsecond
        timestamps; counters, phase and stage ride in ``args``.  The
        document loads directly in Perfetto or ``chrome://tracing``.
        """
        events = []
        for record in self.records():
            args: dict[str, object] = dict(record.counters)
            if record.phase is not None:
                args["phase"] = record.phase
            if record.stage is not None:
                args["stage"] = record.stage
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            events.append(
                {
                    "name": record.name,
                    "ph": "X",
                    "ts": record.start_s * 1e6,
                    "dur": record.duration_s * 1e6,
                    "pid": 1,
                    "tid": record.thread_id,
                    "cat": record.phase or "span",
                    "args": args,
                }
            )
        thread_names = {}
        for record in self.records():
            thread_names.setdefault(record.thread_id, record.thread_name)
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in sorted(thread_names.items())
        ]
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> str:
        """Write :meth:`to_chrome_trace` as JSON to ``path``; returns ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
        return str(path)


def phase_totals_of(records: list[SpanRecord]) -> dict[str, float]:
    """Summed seconds per phase over *outermost* phase-tagged spans.

    A span nested (by ``parent_id``) inside another phase-tagged span is
    excluded, so concurrent worker sub-spans can carry phases without
    double-counting the coordinator's sections.  Works on any record
    slice — e.g. the spans one campaign stage emitted.
    """
    phased = {r.span_id: r for r in records if r.phase is not None}
    by_id = {r.span_id: r for r in records}
    totals: dict[str, float] = {}
    for record in phased.values():
        parent = record.parent_id
        shadowed = False
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor.span_id in phased:
                shadowed = True
                break
            parent = ancestor.parent_id
        if not shadowed:
            totals[record.phase] = totals.get(record.phase, 0.0) + record.duration_s
    return totals


class _NullSpan:
    """Shared no-op span handle returned by :class:`NullTracer`.

    Re-entrant and stateless: ``with`` blocks on the same instance may
    nest freely across threads.
    """

    __slots__ = ()

    def add(self, key: str, value: float = 1.0) -> None:
        pass

    def set(self, key: str, value: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: records nothing, allocates nothing per span."""

    enabled = False
    epoch = 0.0

    def span(self, name: str, *, phase: str | None = None, stage: str | None = None, parent=None) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def add(self, key: str, value: float = 1.0) -> None:
        pass

    def records(self) -> list[SpanRecord]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle)
        return str(path)


#: Shared default instance — the zero-overhead tracer every call site
#: falls back to when telemetry is disabled.
NULL_TRACER = NullTracer()
