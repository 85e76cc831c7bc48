"""Layer spans recorded from outside the program, for the traced runs.

Spans are recorded on a private :class:`repro.telemetry.Tracer` (never
activated, so the program's own spans stay off) by thin wrappers around
the dependencies the public API accepts from its caller — prep factory,
compound source, featurizer, model, scoring backend, checkpoint store —
and by timing subclasses of the two docking stages
:class:`~repro.screening.stream.StreamingScreen` builds itself.

:func:`account` turns the spans into a per-layer table whose wall-time
shares plus an ``other`` remainder add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.docking.conveyorlc import CDT2Ligand, CDT3Docking, CDT4Mmgbsa
from repro.runtime.checkpoint import CheckpointStore
from repro.telemetry import Tracer

from perfbench.harness import Outcome

#: Span name of each layer boundary the wrappers time.
GENERATE = "datasets.generate"
PREP = "chem.prep"
DOCK = "docking.dock"
MMGBSA = "docking.mmgbsa"
FEATURIZE_BATCH = "featurize.batch"
FEATURIZE_REQUEST = "featurize.request"
COLLATE = "featurize.collate"
FORWARD = "models.forward"
FORWARD_BATCH = "models.forward_batch"
VALIDATE = "models.validate"
CHECKPOINT_SAVE = "runtime.checkpoint_save"
CHECKPOINT_LOAD = "runtime.checkpoint_load"
FORWARD_BACKWARD = "nn.forward_backward"
OPTIMIZER_STEP = "nn.optimizer_step"
ALLREDUCE = "hpc.allreduce"
OTHER = "other"


class Recorder:
    """Spans of one traced run, tagged with the shard or request they serve."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._local = threading.local()
        self.started = 0.0
        self.stopped = 0.0

    def tag(self, key: str, value: float) -> None:
        """Tag every later span on this thread, e.g. with its shard or request."""
        if not hasattr(self._local, "tags"):
            self._local.tags = {}
        self._local.tags[key] = value

    @contextlib.contextmanager
    def span(self, name: str, **counters: float):
        with self.tracer.span(name) as span:
            for key, value in {**getattr(self._local, "tags", {}), **counters}.items():
                span.set(key, value)
            yield span

    def start(self) -> None:
        self.started = self.now()

    def stop(self) -> None:
        self.stopped = self.now()

    def now(self) -> float:
        """Seconds on the span clock."""
        return time.perf_counter() - self.tracer.epoch

    def records(self):
        return self.tracer.records()

    def export(self, path: Path) -> None:
        self.tracer.export_chrome_trace(str(path))


# --------------------------------------------------------------------------- #
# Wrappers around caller-supplied dependencies
# --------------------------------------------------------------------------- #
class _Delegate:
    """Forward every attribute the wrapper does not time to the wrapped object."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TracedSource(_Delegate):
    """A lazy compound library whose shard slices are timed."""

    def __init__(self, inner, recorder: Recorder, shard_size: int) -> None:
        super().__init__(inner, recorder)
        self._shard_size = shard_size

    def __len__(self) -> int:
        return len(self._inner)

    def generate_range(self, start: int, stop: int):
        self._recorder.tag("shard", start // self._shard_size)
        with self._recorder.span(GENERATE, compounds=stop - start):
            return self._inner.generate_range(start, stop)


class TracedFeaturizer(_Delegate):
    def __init__(self, inner, recorder: Recorder) -> None:
        super().__init__(inner, recorder)
        self._lock = threading.Lock()
        #: (complex_id, pose_id) -> span-clock times its featurization ended
        self.featurized: dict[tuple[str, int], list[float]] = defaultdict(list)

    def featurize(self, complex_, *args, **kwargs):
        with self._recorder.span(FEATURIZE_REQUEST, requests=1):
            sample = self._inner.featurize(complex_, *args, **kwargs)
        with self._lock:
            self.featurized[complex_.complex_id, complex_.pose_id].append(self._recorder.now())
        return sample

    def featurize_many(self, complexes, *args, **kwargs):
        with self._recorder.span(FEATURIZE_BATCH, poses=len(complexes)):
            return self._inner.featurize_many(complexes, *args, **kwargs)


class TracedModel(_Delegate):
    def predict_batch(self, batch):
        with self._recorder.span(FORWARD, poses=len(batch)):
            return self._inner.predict_batch(batch)


class TracedBackend(_Delegate):
    """A serving backend whose batches are timed; records which requests
    each batch carried so queue waits can be measured per request."""

    def __init__(self, inner, recorder: Recorder) -> None:
        super().__init__(inner, recorder)
        self.name = inner.name
        self._lock = threading.Lock()
        #: (start_s, [(complex_id, pose_id), ...]) per scored batch
        self.batches: list[tuple[float, list[tuple[str, int]]]] = []

    def fingerprint(self) -> str:
        return self._inner.fingerprint()

    def score_batch(self, batch: dict):
        started = self._recorder.now()
        with self._recorder.span(FORWARD_BATCH, batch_size=len(batch["ids"])):
            scores = self._inner.score_batch(batch)
        with self._lock:
            self.batches.append((started, list(zip(batch["ids"], batch["pose_ids"]))))
        return scores


class TracedCheckpointStore(CheckpointStore):
    def __init__(self, directory, recorder: Recorder) -> None:
        super().__init__(directory)
        self._recorder = recorder

    def save(self, stage_name, key, payload) -> None:
        with self._recorder.span(CHECKPOINT_SAVE, saves=1):
            super().save(stage_name, key, payload)

    def load(self, stage_name, key):
        with self._recorder.span(CHECKPOINT_LOAD, loads=1):
            return super().load(stage_name, key)


def prep_factory(recorder: Recorder):
    """A ``prep_factory`` whose ligand-prep stages are timed."""

    class TracedPrep(CDT2Ligand):
        def run(self, molecules, library=""):
            with recorder.span(PREP, compounds=len(molecules)) as span:
                prepared = super().run(molecules, library=library)
                span.set("prepared", len(prepared))
                return prepared

    return TracedPrep


def docking_stages(recorder: Recorder):
    """Timing subclasses of the docking and MM/GBSA stages."""

    class TracedDocking(CDT3Docking):
        def run(self, receptors, ligands, references=None):
            with recorder.span(DOCK, compounds=len(ligands), sites=len(receptors)) as span:
                database = super().run(receptors, ligands, references)
                span.set("poses", len(database))
                return database

    class TracedMmgbsa(CDT4Mmgbsa):
        def run(self, database, sites):
            with recorder.span(MMGBSA) as span:
                result = super().run(database, sites)
                span.set("poses", sum(1 for r in result.records() if not math.isnan(r.mmgbsa_score)))
                return result

    return TracedDocking, TracedMmgbsa


@contextlib.contextmanager
def substituted_docking(recorder: Recorder):
    """Make the streaming screen build timed docking stages, then restore."""
    import repro.screening.stream as stream

    docking, mmgbsa = docking_stages(recorder)
    saved = stream.CDT3Docking, stream.CDT4Mmgbsa
    stream.CDT3Docking, stream.CDT4Mmgbsa = docking, mmgbsa
    try:
        yield
    finally:
        stream.CDT3Docking, stream.CDT4Mmgbsa = saved


# --------------------------------------------------------------------------- #
# Accounting
# --------------------------------------------------------------------------- #
def layer_totals(records, name: str, counter: str | None = None) -> tuple[float, float, int]:
    """(summed duration s, summed counter, span count) of spans called ``name``."""
    seconds = 0.0
    total = 0.0
    calls = 0
    for record in records:
        if record.name == name:
            seconds += record.duration_s
            if counter is not None:
                total += record.counters.get(counter, 0.0)
            calls += 1
    return seconds, total, calls


def self_times(records) -> dict[str, float]:
    """Thread-seconds per layer, excluding time covered by child spans."""
    children = defaultdict(float)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id] += record.duration_s
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        totals[record.name] += record.duration_s - children.get(record.span_id, 0.0)
    return dict(totals)


def account(records, started: float, stopped: float) -> dict[str, float]:
    """Split the traced wall time ``[started, stopped]`` over layers.

    At every instant each thread is in at most one innermost span; the
    instant's time is shared equally by the layers of the threads that
    are inside a span, and goes to ``other`` when no thread is.  The
    shares therefore add up to the wall time exactly (up to rounding),
    whatever the concurrency.
    """
    events = []
    for record in records:
        events.append((record.start_s, 1, record.thread_id, record.span_id, record.name))
        events.append((record.end_s, 0, record.thread_id, record.span_id, record.name))
    # ends before starts at equal times, so back-to-back spans do not overlap
    events.sort(key=lambda e: (e[0], e[1]))
    stacks: dict[int, list[tuple[int, str]]] = defaultdict(list)
    shares: dict[str, float] = defaultdict(float)
    previous = started

    def advance(to: float) -> None:
        nonlocal previous
        now = min(max(to, started), stopped)
        if now <= previous:
            return
        active = [stack[-1][1] for stack in stacks.values() if stack] or [OTHER]
        for layer in active:
            shares[layer] += (now - previous) / len(active)
        previous = now

    for time_s, is_start, thread, span_id, name in events:
        advance(time_s)
        stack = stacks[thread]
        if is_start:
            stack.append((span_id, name))
        else:
            stack[:] = [entry for entry in stack if entry[0] != span_id]
    advance(stopped)
    shares.setdefault(OTHER, 0.0)
    return dict(shares)


def layer_table(records, started: float, stopped: float) -> dict:
    """The per-layer table written next to the Chrome trace."""
    wall = stopped - started
    shares = account(records, started, stopped)
    busy = self_times(records)
    calls = defaultdict(int)
    for record in records:
        calls[record.name] += 1
    layers = {
        name: {
            "wall_share_s": shares.get(name, 0.0),
            "self_thread_s": busy.get(name, 0.0),
            "calls": calls.get(name, 0),
        }
        for name in sorted(set(shares) | set(busy))
    }
    accounted = sum(entry["wall_share_s"] for entry in layers.values())
    return {
        "wall_s": wall,
        "accounted_s": accounted,
        "balanced": math.isclose(accounted, wall, rel_tol=1e-9, abs_tol=1e-9),
        "layers": layers,
    }


def write_trace(recorder: Recorder, table: dict, stem: Path) -> dict[str, str]:
    stem.parent.mkdir(parents=True, exist_ok=True)
    trace_path = stem.with_suffix(".trace.json")
    table_path = stem.with_suffix(".layers.json")
    recorder.export(trace_path)
    with open(table_path, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
    return {"chrome_trace": str(trace_path), "layer_table": str(table_path)}


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: Every per-layer metric every traced workload reports, with its unit.
PER_LAYER_UNITS = {
    "datasets.generate_ms_per_compound": "ms",
    "chem.prep_ms_per_compound": "ms",
    "chem.prep_yield": "ratio",
    "docking.dock_ms_per_compound": "ms",
    "docking.poses_per_compound": "count",
    "docking.mmgbsa_ms_per_pose": "ms",
    "featurize.ms_per_pose": "ms",
    "featurize.cache_hit_rate": "ratio",
    "featurize.ms_per_request": "ms",
    "models.forward_ms_per_pose": "ms",
    "models.batch_size_mean": "count",
    "models.forward_ms_per_batch": "ms",
    "runtime.checkpoint_save_ms_per_shard": "ms",
    "runtime.checkpoint_bytes_per_shard": "B",
    "screening.shard_ms_p50": "ms",
    "screening.shard_ms_tail": "ms",
    "screening.other_ms_per_compound": "ms",
    "screening.worker_busy_share": "ratio",
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_tail": "ms",
    "serving.mean_batch_size": "count",
    "serving.batch_occupancy": "ratio",
    "serving.cache_hit_rate": "ratio",
    "serving.rejected_share": "ratio",
    "serving.replica_busy_share": "ratio",
    "loadgen.lag_ms_tail": "ms",
    "featurize.collate_ms_per_chunk": "ms",
    "nn.forward_backward_ms_per_chunk": "ms",
    "nn.optimizer_step_ms": "ms",
    "hpc.allreduce_ms_per_step": "ms",
    "hpc.spmd_other_ms_per_step": "ms",
    "models.validate_ms_per_epoch": "ms",
    "trace.other_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per(total: float, count: float, scale: float = 1.0) -> float:
    """``total / count`` (scaled); 0 when the layer did no work in this workload."""
    return total * scale / count if count else 0.0


def emit_layers(outcome: Outcome, values: dict[str, float], table: dict) -> None:
    """Every per-layer metric, 0 for layers this workload does not use."""
    values = dict(values)
    values["trace.other_share"] = per(table["layers"].get(OTHER, {}).get("wall_share_s", 0.0), table["wall_s"])
    for name, unit in PER_LAYER_UNITS.items():
        outcome.metric(name, values.get(name, 0.0), unit)
    outcome.check("layer_accounting", [] if table["balanced"] else [
        f"layer shares add up to {table['accounted_s']!r} s, traced wall time is {table['wall_s']!r} s"
    ])
    outcome.detail["layer_table"] = table


def ms_per(records, name: str, counter: str | None) -> float:
    seconds, total, calls = layer_totals(records, name, counter)
    return per(seconds, total if counter else calls, 1e3)


def pipeline_layers(records) -> dict[str, float]:
    """Layer metrics of the screening pipeline (datasets, chem, docking,
    featurize, models) from the spans of one traced run."""
    values = {
        "datasets.generate_ms_per_compound": ms_per(records, GENERATE, "compounds"),
        "chem.prep_ms_per_compound": ms_per(records, PREP, "compounds"),
        "docking.mmgbsa_ms_per_pose": ms_per(records, MMGBSA, "poses"),
        "featurize.ms_per_pose": ms_per(records, FEATURIZE_BATCH, "poses"),
        "featurize.ms_per_request": ms_per(records, FEATURIZE_REQUEST, "requests"),
        "models.forward_ms_per_pose": ms_per(records, FORWARD, "poses"),
        "models.forward_ms_per_batch": ms_per(records, FORWARD_BATCH, None),
    }
    _, compounds, _ = layer_totals(records, PREP, "compounds")
    _, prepared, _ = layer_totals(records, PREP, "prepared")
    values["chem.prep_yield"] = per(prepared, compounds)
    dock_s, docked, _ = layer_totals(records, DOCK, "compounds")
    _, poses, _ = layer_totals(records, DOCK, "poses")
    pairs = sum(r.counters.get("compounds", 0.0) * r.counters.get("sites", 0.0) for r in records if r.name == DOCK)
    values["docking.dock_ms_per_compound"] = per(dock_s, docked, 1e3)
    values["docking.poses_per_compound"] = per(poses, pairs)
    _, forwarded, calls = layer_totals(records, FORWARD, "poses")
    values["models.batch_size_mean"] = per(forwarded, calls)
    return values
