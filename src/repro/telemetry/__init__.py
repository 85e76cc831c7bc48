"""repro.telemetry — unified tracing, metrics and run-record export.

Three pieces, designed to be wired through the whole pipeline:

* :class:`Tracer` — hierarchical ``span()`` context managers (thread-safe
  across worker pools) with a Chrome trace-event exporter, so a campaign
  run opens in Perfetto / ``chrome://tracing`` as a flamegraph.
* :class:`MetricsRegistry` — central counters and fixed-memory
  streaming histograms plus snapshot-time probes, behind one
  ``registry.snapshot()``.
* :func:`build_run_record` — one schema-validated JSON document per run
  with per-stage startup/evaluation/output phase accounting (Table 7,
  from real spans), worker occupancy, cache ledgers and fault history.

:class:`Telemetry` bundles a tracer and a registry.  The **disabled**
bundle (:meth:`Telemetry.disabled`) carries the shared zero-overhead
:class:`NullTracer`; it is the module default, so un-configured runs pay
one attribute lookup per instrumentation point and the golden suites
stay bit-identical with telemetry on or off (instrumentation only
*observes* — it never touches RNG streams, batch composition or
checkpoint keys).

Deeply nested components (docking kernels, featurization, the training
loop) read the process-wide *active* bundle via :func:`current`;
orchestrators (``CampaignRuntime``, ``StreamingScreen``) activate their
bundle for the duration of a run with :func:`activate`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.telemetry.exact import ExactSum, ExactVectorSum, exact_vector_sum
from repro.telemetry.histogram import StreamingHistogram
from repro.telemetry.registry import Counter, MetricsRegistry
from repro.telemetry.runrecord import (
    RUN_RECORD_SCHEMA,
    RUN_RECORD_VERSION,
    build_run_record,
    stage_entry,
    validate_run_record,
    worker_occupancy,
)
from repro.telemetry.spans import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "Counter",
    "ExactSum",
    "ExactVectorSum",
    "exact_vector_sum",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RUN_RECORD_SCHEMA",
    "RUN_RECORD_VERSION",
    "SpanRecord",
    "StreamingHistogram",
    "Telemetry",
    "Tracer",
    "activate",
    "build_run_record",
    "current",
    "stage_entry",
    "validate_run_record",
    "worker_occupancy",
]


class Telemetry:
    """A tracer + registry bundle, the unit the pipeline passes around."""

    def __init__(
        self,
        enabled: bool = True,
        tracer: Tracer | NullTracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if tracer is None:
            tracer = Tracer() if enabled else NULL_TRACER
        self.tracer = tracer
        self.registry = registry if registry is not None else MetricsRegistry()

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A bundle with the shared zero-overhead null tracer."""
        return cls(enabled=False)

    @property
    def enabled(self) -> bool:
        return bool(getattr(self.tracer, "enabled", False))

    # convenience passthroughs ----------------------------------------- #
    def span(self, name: str, *, phase: str | None = None, stage: str | None = None, parent=None):
        return self.tracer.span(name, phase=phase, stage=stage, parent=parent)

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def export_chrome_trace(self, path: str) -> str:
        return self.tracer.export_chrome_trace(path)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


#: The process-wide default: telemetry off, but a live registry so
#: always-on ledgers (cache stats, kernel counters) still accumulate.
_DEFAULT = Telemetry(enabled=False)
_active = _DEFAULT
_active_lock = threading.Lock()


def current() -> Telemetry:
    """The active bundle deep call sites instrument against."""
    return _active


@contextmanager
def activate(telemetry: Telemetry):
    """Make ``telemetry`` the active bundle for the duration of the block.

    Worker threads spawned inside the block observe the active bundle
    (it is a plain process-wide reference, not a context variable — the
    worker pools in this codebase are threads, which would not inherit a
    ``contextvars`` context).  Blocks nest; the previous bundle is
    restored on exit.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = telemetry
    try:
        yield telemetry
    finally:
        with _active_lock:
            _active = previous
