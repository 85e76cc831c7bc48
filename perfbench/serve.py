"""Open-loop serving workload ``serve``.

One thread submits docked complexes to a fresh default
:class:`ScoringService` (two thread replicas, result cache on) at a
fixed rate, whatever the service does (open loop).  Latency runs from
each request's due time; throughput is goodput, completions within
:data:`LATENCY_LIMIT_MS` per second.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import make_streaming_library
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking
from repro.serving import Overloaded, ScoringService, ServingConfig
from repro.serving.workers import ModuleBackend
from repro.utils.rng import derive_seed, spawn_rng

from perfbench import tracing
from perfbench.harness import OUT_DIR, Outcome, latency_summary, load_workbench, new_featurizer, percentile, tail_percentile

#: Open-loop request rate (requests/s), a fixed constant: about a third
#: of the ~140/s a quiet 2-core box holds.  Rates near capacity are not
#: measured: on a shared VM, CPU steal moves capacity itself, and the
#: tail at 80-100/s varied threefold between runs (see README).
RATE = 45.0
#: A completion later than this after its due time misses the limit.
LATENCY_LIMIT_MS = 100.0
REPEAT_SHARE = 0.2
#: A repeat targets a request sent at least this long before it, so the
#: first response is back and the repeat hits the result cache.
REPEAT_MIN_AGE_S = 1.0
WARMUP_REQUESTS = 16
TRAFFIC_DOCKING = dict(num_poses=24, monte_carlo_steps=3, restarts=12)
#: Online batch composition depends on timing and can move the last ulp.
SCORE_TOL = 1e-9


@dataclass
class ServeState:
    workbench: object
    rate: float
    #: traffic[i] = index into ``complexes`` of request i
    traffic: list[int]
    complexes: list
    warmup: list
    unique: int
    seed: int


def request_count(seconds: float) -> int:
    return max(60, int(round(RATE * seconds)))


def build_traffic(seed: int, count: int, rate: float) -> tuple[list[int], int]:
    """Open-loop request sequence: ~20 % repeats of requests sent at least
    :data:`REPEAT_MIN_AGE_S` earlier, the rest unseen complexes."""
    rng = spawn_rng(seed, "traffic")
    min_age = int(math.ceil(REPEAT_MIN_AGE_S * rate))
    traffic: list[int] = []
    unique = 0
    for index in range(count):
        if index >= min_age and rng.random() < REPEAT_SHARE:
            traffic.append(traffic[int(rng.integers(0, index - min_age + 1))])
        else:
            traffic.append(unique)
            unique += 1
    return traffic, unique


def dock_traffic(seed: int, needed: int) -> list[ProteinLigandComplex]:
    """Docked complexes across all four sites, in a seeded order."""
    sites = make_sarscov2_targets()
    receptors = CDT1Receptor().run(list(sites.values()))
    docking = CDT3Docking(seed=derive_seed(seed, "traffic-docking"), **TRAFFIC_DOCKING)
    prep = CDT2Ligand()
    complexes: list[ProteinLigandComplex] = []
    batch = 4
    library = make_streaming_library("enamine", 10_000, derive_seed(seed, "traffic-library"))
    start = 0
    while len(complexes) < needed:
        ligands = prep.run(library.generate_range(start, start + batch), library="enamine")
        start += batch
        for record in docking.run(receptors, ligands).records():
            complexes.append(ProteinLigandComplex(
                site=sites[record.site_name], ligand=record.pose,
                complex_id=record.compound_id, pose_id=record.pose_id,
            ))
    order = spawn_rng(seed, "traffic-order").permutation(len(complexes))
    return [complexes[i] for i in order[:needed]]


def setup(name: str, seed: int, seconds: float) -> ServeState:
    workbench = load_workbench()
    traffic, unique = build_traffic(seed, request_count(seconds), RATE)
    pool = dock_traffic(seed, unique + WARMUP_REQUESTS)
    return ServeState(workbench, RATE, traffic, pool[:unique], pool[unique:], unique, seed)


@dataclass
class ServePhase:
    sent: list[float]
    due: list[float]
    latency_ms: list[float]
    responses: list
    rejected: int
    failed: int
    completed: int
    wall_s: float
    snapshot: object


def run_open_loop(state: ServeState, service: ScoringService, recorder=None) -> ServePhase:
    """Submit every request at its due time from one thread (open loop)."""
    for complex_ in state.warmup:
        service.score(complex_)
    service.metrics.reset()
    count = len(state.traffic)
    due = [0.0] * count
    sent = [0.0] * count
    hit_done = [None] * count
    pendings: list = [None] * count
    rejected = 0
    start = time.perf_counter() + 0.05
    for index, target in enumerate(state.traffic):
        due[index] = start + index / state.rate
        delay = due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if recorder is not None:
            recorder.tag("request", index)
        sent[index] = time.perf_counter()
        try:
            pending = service.submit(state.complexes[target])
        except Overloaded:
            rejected += 1
            continue
        if pending.done:
            hit_done[index] = time.perf_counter()
        pendings[index] = pending
    latency_ms = [math.inf] * count
    responses: list = [None] * count
    failed = completed = 0
    finished = start
    for index, pending in enumerate(pendings):
        if pending is None:
            continue
        try:
            response = pending.result(timeout=120.0)
        except Exception:  # a failed request counts as a miss
            failed += 1
            continue
        completed += 1
        responses[index] = response
        done_at = hit_done[index] if response.cached and hit_done[index] else sent[index] + response.latency_s
        finished = max(finished, done_at)
        latency_ms[index] = (done_at - due[index]) * 1e3
    service.drain(timeout=60.0)
    return ServePhase(
        sent, due, latency_ms, responses, rejected, failed, completed,
        max(finished, due[-1]) - start, service.snapshot(),
    )


def phase_run(state: ServeState, recorder=None) -> tuple[ServePhase, object, object]:
    wb = state.workbench
    featurizer = new_featurizer(wb)
    backend = None
    if recorder is not None:
        featurizer = tracing.TracedFeaturizer(featurizer, recorder)
        backend = tracing.TracedBackend(ModuleBackend(wb.coherent_fusion), recorder)
    service = (
        ScoringService(model=wb.coherent_fusion, featurizer=featurizer)
        if backend is None
        else ScoringService(backend=backend, featurizer=featurizer)
    )
    with service:
        phase = run_open_loop(state, service, recorder)
    return phase, featurizer, backend


def report(phase: ServePhase, outcome: Outcome) -> None:
    # rejected and failed requests have infinite latency: they miss the
    # limit, and the percentiles describe the requests that completed
    within = sum(1 for v in phase.latency_ms if v <= LATENCY_LIMIT_MS)
    summary = latency_summary([v for v in phase.latency_ms if math.isfinite(v)])
    outcome.metric("throughput_per_s", within / phase.wall_s, "1/s")
    outcome.metric("latency_p50_ms", summary["p50"], "ms")
    outcome.detail["latency"] = {"unit_of_work": "request, timed from its due time", **summary}
    outcome.detail["goodput"] = {"limit_ms": LATENCY_LIMIT_MS, "within_limit": within, "wall_s": phase.wall_s}


def checks(state: ServeState, phase: ServePhase, outcome: Outcome) -> None:
    count = len(state.traffic)
    ledger = []
    if phase.completed + phase.rejected + phase.failed != count:
        ledger.append(
            f"{count} sent but {phase.completed} completed + {phase.rejected} rejected + {phase.failed} failed"
        )
    snap = phase.snapshot
    if snap.submitted != snap.completed + snap.failed:
        ledger.append(f"service ledger: submitted {snap.submitted} != completed {snap.completed} + failed {snap.failed}")
    outcome.check("request_ledger", ledger)
    outcome.check("fresh_scores", check_fresh_scores(state, phase))
    outcome.check("cached_scores", check_cached_scores(state, phase))
    outcome.attempted = count
    outcome.failed = phase.rejected + phase.failed
    outcome.detail["traffic"] = {
        "requests": count, "rate_per_s": state.rate, "unique": state.unique,
        "repeats": count - state.unique, "feature_cache_capacity": state.workbench.featurizer.cache.capacity,
        "cache_hits": snap.cache_hits, "rejected": phase.rejected, "failed": phase.failed,
    }


def check_fresh_scores(state: ServeState, phase: ServePhase) -> list[str]:
    """Fresh scores agree with a direct ``predict_batch`` on the same
    complex to :data:`SCORE_TOL`: online batch composition depends
    on timing and may move the last ulp."""
    fresh = [(i, r) for i, r in enumerate(phase.responses) if r is not None and not r.cached]
    if not fresh:
        return ["no fresh responses"]
    wb = state.workbench
    featurizer = new_featurizer(wb)
    complexes = [state.complexes[state.traffic[i]] for i, _ in fresh]
    samples = featurizer.featurize_many(complexes)
    direct = np.concatenate([
        wb.coherent_fusion.predict_batch(samples[begin : begin + 8]) for begin in range(0, len(samples), 8)
    ])
    served = np.array([r.score for _, r in fresh])
    bad = np.flatnonzero(~(np.abs(served - direct) <= SCORE_TOL))
    return [
        f"request {fresh[i][0]}: served {served[i]!r}, direct {direct[i]!r}" for i in bad[:5]
    ] + ([f"... {len(bad)} fresh scores off"] if len(bad) > 5 else [])


def check_cached_scores(state: ServeState, phase: ServePhase) -> list[str]:
    """A cached response equals the first response to the same complex bit for bit."""
    first: dict[int, float] = {}
    failures = []
    for index, response in enumerate(phase.responses):
        if response is None:
            continue
        target = state.traffic[index]
        if target not in first:
            first[target] = response.score
        elif response.cached and response.score != first[target]:
            failures.append(f"request {index}: cached {response.score!r} != first {first[target]!r}")
    return failures


def run(name: str, state: ServeState, outcome: Outcome) -> None:
    phase, _, _ = phase_run(state)
    report(phase, outcome)
    outcome.detail["loadgen_lag_ms_tail"] = _lag_tail(phase)
    checks(state, phase, outcome)


def _lag_tail(phase: ServePhase) -> float:
    lag_ms = [(s - d) * 1e3 for s, d in zip(phase.sent, phase.due)]
    return percentile(lag_ms, tail_percentile(len(lag_ms)))


def traced(name: str, state: ServeState, outcome: Outcome) -> None:
    baseline, _, _ = phase_run(state)
    recorder = tracing.Recorder()
    recorder.start()
    phase, featurizer, backend = phase_run(state, recorder)
    recorder.stop()
    records = recorder.records()
    table = tracing.layer_table(records, recorder.started, recorder.stopped)
    snap = phase.snapshot
    values = tracing.pipeline_layers(records)
    values["serving.queue_wait_ms_p50"], values["serving.queue_wait_ms_tail"] = _queue_waits(featurizer, backend)
    stats = featurizer.cache.stats()
    values["featurize.cache_hit_rate"] = tracing.per(stats.hits, stats.hits + stats.misses)
    values["serving.mean_batch_size"] = snap.mean_batch_size
    values["serving.batch_occupancy"] = snap.batch_occupancy
    values["serving.cache_hit_rate"] = snap.cache_hit_rate
    values["serving.rejected_share"] = tracing.per(phase.rejected, len(state.traffic))
    forward_s, _, _ = tracing.layer_totals(records, tracing.FORWARD_BATCH)
    values["serving.replica_busy_share"] = tracing.per(forward_s, ServingConfig().num_replicas * table["wall_s"])
    values["loadgen.lag_ms_tail"] = _lag_tail(phase)
    values["trace.overhead_ratio"] = tracing.per(
        float(np.median([v for v in phase.latency_ms if math.isfinite(v)])),
        float(np.median([v for v in baseline.latency_ms if math.isfinite(v)])),
    )
    tracing.emit_layers(outcome, values, table)
    outcome.detail["trace_files"] = tracing.write_trace(recorder, table, OUT_DIR / "traces" / f"{name}-{state.seed}")
    checks(state, phase, outcome)


def _queue_waits(featurizer, backend) -> tuple[float, float]:
    """Per fresh request: from the end of its featurization (when it
    enters the batcher) to the start of the batch that scored it."""
    waits = []
    for started, members in backend.batches:
        for key in members:
            ends = [e for e in featurizer.featurized.get(key, ()) if e <= started]
            if ends:
                waits.append((started - max(ends)) * 1e3)
    if len(waits) < 20:
        return 0.0, 0.0
    return percentile(waits, 50.0), percentile(waits, tail_percentile(len(waits)))


def teardown(state: ServeState) -> None:
    """Every phase closes its own service."""
