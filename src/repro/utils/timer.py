"""Timing utilities used by throughput accounting and benchmarks."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.telemetry.spans import PHASES


class Timer:
    """A thread-safe accumulating stopwatch, routed through the tracer.

    ``Timer`` is used by the streamed screen to break run time into the
    startup / evaluation / output phases reported in the paper's Table 7.
    Sections may enter/exit concurrently from worker-pool threads — the
    per-section totals accumulate under a lock, so no update is lost.

    Each ``section()`` also opens a span on the active tracer
    (:func:`repro.telemetry.current`, or an explicit ``tracer=``), with
    the section name doubling as its Table 7 phase when it is one of
    ``startup`` / ``evaluation`` / ``output`` — so existing Timer call
    sites show up in exported traces without any further wiring.

    Examples
    --------
    >>> t = Timer()
    >>> with t.section("startup"):
    ...     pass
    >>> "startup" in t.sections
    True
    """

    def __init__(self, tracer=None, stage: str | None = None) -> None:
        self.sections: dict[str, float] = {}
        self.stage = stage
        self._tracer = tracer
        self._lock = threading.Lock()

    def _resolve_tracer(self):
        if self._tracer is not None:
            return self._tracer
        from repro.telemetry import current

        return current().tracer

    def section(self, name: str) -> "_TimerSection":
        """Return a context manager accumulating elapsed time under ``name``."""
        return _TimerSection(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to section ``name`` (creating it if needed)."""
        with self._lock:
            self.sections[name] = self.sections.get(name, 0.0) + float(seconds)

    def total(self) -> float:
        """Total seconds accumulated across all sections."""
        with self._lock:
            return float(sum(self.sections.values()))

    def as_dict(self) -> dict[str, float]:
        """Copy of the per-section totals."""
        with self._lock:
            return dict(self.sections)


class _TimerSection:
    def __init__(self, timer: Timer, name: str) -> None:
        self._timer = timer
        self._name = name
        self._start = 0.0
        self._span = None

    def __enter__(self) -> "_TimerSection":
        tracer = self._timer._resolve_tracer()
        self._span = tracer.span(
            self._name,
            phase=self._name if self._name in PHASES else None,
            stage=self._timer.stage,
        )
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._timer.add(self._name, time.perf_counter() - self._start)
        if self._span is not None:
            self._span.__exit__(*exc)
            self._span = None


@dataclass
class WallClock:
    """A virtual wall clock used by the simulated cluster and scheduler.

    The simulated HPC components (LSF-like scheduler, MPI jobs, fault
    injector) advance this clock with *modelled* durations rather than
    real time, which lets the benchmarks reproduce multi-hour screening
    campaigns in milliseconds while keeping the arithmetic of the
    paper's timing tables intact.
    """

    now: float = 0.0
    history: list[tuple[float, str]] = field(default_factory=list)

    def advance(self, seconds: float, label: str = "") -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by a negative duration: {seconds}")
        self.now += float(seconds)
        if label:
            self.history.append((self.now, label))
        return self.now

    def reset(self) -> None:
        """Reset the clock to zero and clear history."""
        self.now = 0.0
        self.history.clear()
