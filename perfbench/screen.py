"""Streamed-screen workload ``screen``.

The serial baseline: :class:`StreamingScreen` with one worker on the
thread backend, the direct model, and every shard checkpointed.
Throughput is compounds/s (median over rounds); latency is the wall time
of one shard.
"""

from __future__ import annotations

import copy
import math
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import make_streaming_library
from repro.runtime.checkpoint import CheckpointStore
from repro.screening.stream import StreamConfig, StreamingScreen
from repro.telemetry import current as current_telemetry
from repro.utils.rng import derive_seed

from perfbench import tracing
from perfbench.harness import OUT_DIR, Outcome, load_workbench, new_featurizer, tail_percentile

#: Two of the four sites: the pockets differ in size (90 vs 42 atoms).
SITES = ("protease1", "spike1")
SHARD_SIZE = 4
ROUND_COMPOUNDS = 32
TOP_K = 10
RESCORE_TOP = 3
#: Seconds per round measured on a 2-core box; sets how many rounds fill
#: ``--seconds``.  The count depends on ``--seconds`` alone, so the tail
#: percentile never moves between runs.
ROUND_S = 2.6
#: Fine resolution for the program's always-on shard-time histogram.
SHARD_HISTOGRAM = dict(min_value=1e-4, max_value=1e3, growth=1.0001)


@dataclass
class ScreenState:
    workbench: object
    sites: dict
    config: StreamConfig
    libraries: list
    seed: int


def setup(name: str, seed: int, seconds: float) -> ScreenState:
    """Model, sites, config and a warm-up shard."""
    shard_histogram()
    workbench = load_workbench()
    targets = make_sarscov2_targets()
    sites = {site: targets[site] for site in SITES}
    config = StreamConfig(
        shard_size=SHARD_SIZE, workers=1, backend="thread", top_k=TOP_K,
        poses_per_compound=2, mmgbsa=True, seed=seed, library_name="enamine",
    )
    warmup = make_streaming_library("enamine", SHARD_SIZE, derive_seed(seed, "warmup"))
    StreamingScreen(workbench.coherent_fusion, workbench.featurizer, sites, config).run(warmup)
    libraries = [
        make_streaming_library("enamine", ROUND_COMPOUNDS, derive_seed(seed, "round", index))
        for index in range(max(3, int(round(seconds / ROUND_S))))
    ]
    return ScreenState(workbench, sites, config, libraries, seed)


def shard_histogram():
    """The program's always-on shard-time histogram, at fine resolution.

    ``StreamingScreen`` observes every shard's wall time into the
    registry histogram ``stream.shard_s``; registering it first, with
    0.01 % buckets, makes its quantiles exact to 0.01 % at no extra cost
    to the program.
    """
    histogram = current_telemetry().registry.histogram("stream.shard_s", **SHARD_HISTOGRAM)
    if histogram.growth != SHARD_HISTOGRAM["growth"]:
        raise RuntimeError("stream.shard_s was created before the benchmark could register it")
    return histogram


@dataclass
class ScreenRound:
    library: object
    result: object
    seconds: float
    checkpoint_dir: object


def run_rounds(state: ScreenState, recorder=None, featurizer=None) -> list[ScreenRound]:
    """Screen every round's library on a fresh engine with a fresh
    checkpoint store; with ``recorder``, through the timing wrappers."""
    model = state.workbench.coherent_fusion
    featurizer = featurizer or state.workbench.featurizer
    prep = None
    if recorder is not None:
        model = tracing.TracedModel(model, recorder)
        featurizer = tracing.TracedFeaturizer(featurizer, recorder)
        prep = tracing.prep_factory(recorder)
    rounds = []
    for index, library in enumerate(state.libraries):
        directory = OUT_DIR / "checkpoints" / f"screen-{index}"
        shutil.rmtree(directory, ignore_errors=True)
        source, checkpoints = library, CheckpointStore(directory)
        if recorder is not None:
            source = tracing.TracedSource(library, recorder, SHARD_SIZE)
            checkpoints = tracing.TracedCheckpointStore(directory, recorder)
        engine = StreamingScreen(
            model, featurizer, state.sites, state.config, checkpoints=checkpoints, prep_factory=prep,
        )
        started = time.perf_counter()
        result = engine.run(source)
        rounds.append(ScreenRound(library, result, time.perf_counter() - started, directory))
    return rounds


def throughput(rounds: list[ScreenRound]) -> float:
    return float(np.median([r.result.num_compounds / r.seconds for r in rounds]))


def check_accounting(rounds: list[ScreenRound]) -> list[str]:
    failures = []
    for index, r in enumerate(rounds):
        res = r.result
        completed = res.shards_executed + res.shards_restored
        if res.num_shards != completed + res.shards_failed:
            failures.append(
                f"round {index}: {res.num_shards} shards submitted != {completed} completed + {res.shards_failed} failed"
            )
        if res.shards_failed:
            failures.append(f"round {index}: {res.shards_failed} failed shards")
        if res.num_compounds != len(r.library):
            failures.append(f"round {index}: {res.num_compounds} of {len(r.library)} compounds screened")
    return failures


def compound_index(compound_id: str) -> int:
    return int(compound_id.rsplit("-", 1)[1]) - 1


def check_topk_rescore(state: ScreenState, rounds: list[ScreenRound]) -> list[str]:
    """Each site's top compounds, rescored alone on the direct serial path,
    must reproduce their streamed scores bit for bit."""
    failures = []
    wb = state.workbench
    config = copy.deepcopy(state.config)
    config.workers = 1
    for index in sorted({0, len(rounds) - 1}):
        r = rounds[index]
        ids = sorted({e.compound_id for entries in r.result.top_k.values() for e in entries[:RESCORE_TOP]})
        molecules = [r.library.compound(compound_index(cid)) for cid in ids]
        reference = StreamingScreen(wb.coherent_fusion, copy.deepcopy(wb.featurizer), state.sites, config).run(molecules)
        for site, entries in r.result.top_k.items():
            expected = np.array([e.score for e in entries[:RESCORE_TOP]])
            rescored = {e.compound_id: e.score for e in reference.top_k[site]}
            got = np.array([rescored.get(e.compound_id, math.nan) for e in entries[:RESCORE_TOP]])
            if not np.array_equal(expected, got):
                failures.append(f"round {index} site {site}: top-{RESCORE_TOP} {expected.tolist()} rescored as {got.tolist()}")
    return failures


def check_checkpoint_restore(state: ScreenState, rounds: list[ScreenRound]) -> list[str]:
    """Re-running on each round's store restores every shard, same top-K."""
    failures = []
    wb = state.workbench
    for index, r in enumerate(rounds):
        engine = StreamingScreen(
            wb.coherent_fusion, wb.featurizer, state.sites, state.config,
            checkpoints=CheckpointStore(r.checkpoint_dir),
        )
        again = engine.run(r.library)
        if again.shards_restored != again.num_shards:
            failures.append(f"round {index}: {again.shards_restored} of {again.num_shards} shards restored")
        for site in state.sites:
            if not all(np.array_equal(a, b) for a, b in zip(r.result.topk_arrays(site), again.topk_arrays(site))):
                failures.append(f"round {index} site {site}: restored top-K differs")
    return failures


def checks(state: ScreenState, rounds: list[ScreenRound], outcome: Outcome) -> None:
    outcome.check("shard_accounting", check_accounting(rounds))
    outcome.check("topk_rescore", check_topk_rescore(state, rounds))
    outcome.check("checkpoint_restore", check_checkpoint_restore(state, rounds))
    outcome.attempted = sum(len(r.library) for r in rounds)
    outcome.failed = outcome.attempted - sum(r.result.num_compounds for r in rounds)


def run(name: str, state: ScreenState, outcome: Outcome) -> None:
    histogram = shard_histogram()
    histogram.reset()
    rounds = run_rounds(state)
    shard_ms = _histogram_latency(histogram)
    outcome.metric("throughput_per_s", throughput(rounds), "1/s")
    outcome.metric("latency_p50_ms", shard_ms["p50"], "ms")
    outcome.detail["latency"] = {"unit_of_work": "shard", **shard_ms}
    outcome.detail["rounds"] = [
        {"compounds": r.result.num_compounds, "seconds": r.seconds} for r in rounds
    ]
    checks(state, rounds, outcome)


def _histogram_latency(histogram) -> dict:
    count = histogram.count
    tail = tail_percentile(count)
    return {
        "p50": histogram.quantile(0.5) * 1e3,
        "tail": histogram.quantile(tail / 100.0) * 1e3,
        "tail_percentile": tail,
        "samples": count,
    }


def traced(name: str, state: ScreenState, outcome: Outcome) -> None:
    """An untraced pass, then a traced pass over the same libraries with
    a cold feature cache, so both passes do the same work."""
    histogram = shard_histogram()
    baseline = run_rounds(state)
    histogram.reset()
    recorder = tracing.Recorder()
    featurizer = new_featurizer(state.workbench)
    recorder.start()
    with tracing.substituted_docking(recorder):
        traced = run_rounds(state, recorder, featurizer)
    recorder.stop()
    records = recorder.records()
    table = tracing.layer_table(records, recorder.started, recorder.stopped)
    shard_ms = _histogram_latency(histogram)
    compounds = sum(r.result.num_compounds for r in traced)
    values = tracing.pipeline_layers(records)
    stats = featurizer.cache.stats()
    values["featurize.cache_hit_rate"] = tracing.per(stats.hits, stats.hits + stats.misses)
    values["screening.shard_ms_p50"] = shard_ms["p50"]
    values["screening.shard_ms_tail"] = shard_ms["tail"]
    values["screening.other_ms_per_compound"] = tracing.per(table["layers"][tracing.OTHER]["wall_share_s"], compounds, 1e3)
    values["screening.worker_busy_share"] = _worker_busy_share(records, state.config.workers, table["wall_s"])
    saved = sum(1 for rec in records if rec.name == tracing.CHECKPOINT_SAVE)
    stored = sum(f.stat().st_size for r in traced for f in r.checkpoint_dir.iterdir())
    values["runtime.checkpoint_save_ms_per_shard"] = tracing.ms_per(records, tracing.CHECKPOINT_SAVE, None)
    values["runtime.checkpoint_bytes_per_shard"] = tracing.per(stored, saved)
    values["trace.overhead_ratio"] = throughput(baseline) / throughput(traced)
    tracing.emit_layers(outcome, values, table)
    outcome.detail["trace_files"] = tracing.write_trace(recorder, table, OUT_DIR / "traces" / f"{name}-{state.seed}")
    checks(state, traced, outcome)


def _worker_busy_share(records, workers: int, wall: float) -> float:
    """Share of the workers' wall time spent inside a layer call."""
    outer = [r for r in records if r.thread_name.startswith("stream-worker") and r.parent_id is None]
    return tracing.per(sum(r.duration_s for r in outer), workers * wall)


def teardown(state: ScreenState) -> None:
    shutil.rmtree(OUT_DIR / "checkpoints", ignore_errors=True)
