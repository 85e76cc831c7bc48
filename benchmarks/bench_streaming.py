"""Streaming screening throughput and memory — the bounded-RSS claim.

The paper screens hundreds of millions of compounds on HPC; the
streaming engine (``repro.screening.stream``) claims peak memory
``O(shard_size + K)`` regardless of library size, with ``shard_size``
and ``workers`` as pure throughput knobs.  This benchmark pins both
claims into ``benchmarks/artifacts/streaming_throughput.json``:

* **memory flatness** — the real :class:`StreamingScreen.run` loop
  (ordered thread pool, in-order fold window, top-K + streaming-stats fold)
  drives 10k and then 100k compounds with a synthetic, vectorized shard
  executor standing in for the physics stages, under ``tracemalloc``.
  Peak traced memory must stay < ``MAX_MEMORY_GROWTH``x across the 10x
  library growth — the fold path, not the library, owns the RSS.
* **worker scaling** — the same synthetic engine (NumPy-heavy shard
  bodies that release the GIL) swept over ``workers`` ∈ {1, 4};
  compounds/s must scale >= ``MIN_WORKER_SCALING``x on machines with
  >= 4 cores (recorded, not asserted, on smaller runners).
* **pipeline throughput** — the full prep → dock → MM/GBSA → fusion
  stream on a real (tiny) deck and model, swept over shard size and
  worker count, recording end-to-end compounds/s for the perf
  trajectory.  Shard size and worker count cannot move a bit of the
  results (``tests/test_streaming_screen.py`` pins that), so every
  throughput row is a pure win.

The synthetic executor replaces only ``_execute_shard`` — scores are a
pure vectorized function of the global compound index — so the measured
loop is exactly the code path a mega-library campaign runs.

A second benchmark pins the observability contract: full tracing
(``repro.telemetry``) must cost < ``MAX_TELEMETRY_OVERHEAD`` on the
smallest synthetic row (best-of-3, enabled vs disabled), and a traced
pipeline run must export a schema-valid run record
(``benchmarks/artifacts/streaming_run_record.json``).
"""

from __future__ import annotations

import json
import os
import resource
import time
import tracemalloc

import numpy as np

from benchmarks.conftest import write_artifact
from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import build_screening_deck
from repro.screening.stream import ShardOutcome, StreamConfig, StreamingScreen
from repro.telemetry import Telemetry, validate_run_record

MAX_MEMORY_GROWTH = 1.5
MIN_WORKER_SCALING = 2.0
MAX_TELEMETRY_OVERHEAD = 1.05
MEMORY_SIZES = (10_000, 100_000)
SCALING_COMPOUNDS = 20_000
WORKER_COUNTS = (1, 4)


class _SyntheticRange:
    """A length-only compound source: the engine never materializes it."""

    def __init__(self, size: int) -> None:
        self._size = size

    def __len__(self) -> int:
        return self._size


class _SyntheticFoldEngine(StreamingScreen):
    """The real streaming loop over a synthetic, vectorized shard stage.

    ``_execute_shard`` derives each compound's best score as a pure
    function of its global index (sin-basis features through a fixed
    random MLP — dense NumPy work that releases the GIL, like the real
    batched docking/featurize kernels), so shard results are
    partition-invariant and the scheduler/fold machinery under test is
    byte-for-byte the production one.
    """

    FEATURE_DIM = 192
    ROUNDS = 4

    def __init__(self, sites, config: StreamConfig, telemetry: Telemetry | None = None) -> None:
        super().__init__(
            model=object(), featurizer=None, sites=sites, config=config, telemetry=telemetry
        )
        rng = np.random.default_rng(12345)
        self._freqs = rng.uniform(0.1, 3.0, self.FEATURE_DIM)
        self._weights = rng.standard_normal((self.FEATURE_DIM, self.FEATURE_DIM)) / np.sqrt(
            self.FEATURE_DIM
        )
        self._readout = rng.standard_normal(self.FEATURE_DIM) / self.FEATURE_DIM

    def _execute_shard(self, index: int, start: int, stop: int, source) -> ShardOutcome:
        indices = np.arange(start, stop, dtype=np.float64)
        activations = np.sin(np.outer(indices * 1e-4, self._freqs))
        for _ in range(self.ROUNDS):
            activations = np.tanh(activations @ self._weights)
        scores = activations @ self._readout
        ids = [f"SYN-{int(i):09d}" for i in range(start, stop)]
        best_scores = {
            name: list(zip(ids, (scores + site_offset).tolist()))
            for site_offset, name in enumerate(self.sites)
        }
        return ShardOutcome(
            index=index,
            start=start,
            stop=stop,
            status="executed",
            best_scores=best_scores,
            num_compounds=stop - start,
        )


def _run_synthetic(
    sites,
    compounds: int,
    workers: int,
    shard_size: int = 512,
    telemetry: Telemetry | None = None,
) -> tuple[float, object]:
    config = StreamConfig(shard_size=shard_size, workers=workers, top_k=50, seed=0)
    engine = _SyntheticFoldEngine(sites, config, telemetry=telemetry)
    started = time.perf_counter()
    result = engine.run(_SyntheticRange(compounds))
    return time.perf_counter() - started, result


def _memory_rows(sites) -> list[dict]:
    rows = []
    for compounds in MEMORY_SIZES:
        tracemalloc.start()
        elapsed, result = _run_synthetic(sites, compounds, workers=2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.num_compounds == compounds
        rows.append(
            {
                "compounds": compounds,
                "shard_size": 512,
                "top_k": 50,
                "workers": 2,
                "peak_traced_mb": peak / 2**20,
                "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "compounds_per_s": compounds / elapsed if elapsed > 0 else float("inf"),
            }
        )
    return rows


def _scaling_rows(sites) -> list[dict]:
    rows = []
    for workers in WORKER_COUNTS:
        # best-of-2 wall clock: robust to runner preemption
        elapsed = min(_run_synthetic(sites, SCALING_COMPOUNDS, workers)[0] for _ in range(2))
        rows.append(
            {
                "workers": workers,
                "compounds": SCALING_COMPOUNDS,
                "compounds_per_s": SCALING_COMPOUNDS / elapsed if elapsed > 0 else float("inf"),
            }
        )
    return rows


def _pipeline_rows(workbench, bench_scale: str) -> list[dict]:
    sites = make_sarscov2_targets(seed=2020)
    sites = {"protease1": sites["protease1"]}
    deck = build_screening_deck(
        {"emolecules": 4 if bench_scale == "tiny" else 12}, seed=2020
    )
    rows = []
    for shard_size, workers in ((2, 1), (2, 4), (len(deck), 1)):
        config = StreamConfig(
            shard_size=shard_size,
            workers=workers,
            top_k=10,
            poses_per_compound=2,
            docking_mc_steps=6,
            docking_restarts=1,
            mmgbsa_max_poses=2,
            seed=2020,
        )
        engine = StreamingScreen(workbench.coherent_fusion, workbench.featurizer, sites, config)
        started = time.perf_counter()
        result = engine.run(deck.molecules)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "compounds": len(deck),
                "shard_size": shard_size,
                "workers": workers,
                "num_shards": result.num_shards,
                "compounds_per_s": len(deck) / elapsed if elapsed > 0 else float("inf"),
            }
        )
    return rows


def test_streaming_throughput_and_memory(benchmark, workbench, bench_scale):
    """Memory-flatness + worker-scaling sweep; emit the JSON artifact."""
    sites = {"protease1": make_sarscov2_targets(seed=2020)["protease1"]}

    payload = benchmark.pedantic(
        lambda: {
            "memory": _memory_rows(sites),
            "scaling": _scaling_rows(sites),
            "pipeline": _pipeline_rows(workbench, bench_scale),
        },
        rounds=1,
        iterations=1,
    )

    memory = payload["memory"]
    growth = memory[-1]["peak_traced_mb"] / memory[0]["peak_traced_mb"]
    scaling = payload["scaling"]

    by_workers = {r["workers"]: r["compounds_per_s"] for r in scaling}
    worker_speedup = by_workers[WORKER_COUNTS[-1]] / by_workers[WORKER_COUNTS[0]]
    payload["memory_growth_10x_library"] = growth
    payload["worker_scaling_1_to_4"] = worker_speedup
    payload["cpu_count"] = os.cpu_count()
    write_artifact("streaming_throughput.json", json.dumps(payload, indent=2))

    assert growth < MAX_MEMORY_GROWTH, (
        f"streaming fold memory is not flat: {memory[0]['compounds']} -> "
        f"{memory[-1]['compounds']} compounds grew peak memory {growth:.2f}x "
        f">= {MAX_MEMORY_GROWTH}x"
    )
    for row in payload["pipeline"]:
        assert row["compounds_per_s"] > 0
    if (os.cpu_count() or 1) >= 4:
        assert worker_speedup >= MIN_WORKER_SCALING, (
            f"worker scaling regressed: 1 -> 4 workers gave {worker_speedup:.2f}x "
            f"< {MIN_WORKER_SCALING}x on a {os.cpu_count()}-core machine"
        )
    benchmark.extra_info["memory_growth_10x_library"] = growth
    benchmark.extra_info["worker_scaling_1_to_4"] = worker_speedup


# --------------------------------------------------------------------------- #
# telemetry: overhead ceiling + run-record artifact
# --------------------------------------------------------------------------- #
def _telemetry_overhead(sites) -> dict:
    """Best-of-3 wall clock for the smallest synthetic row, traced vs not."""
    compounds = MEMORY_SIZES[0]

    def best_of_three(telemetry: Telemetry) -> float:
        return min(
            _run_synthetic(sites, compounds, workers=2, telemetry=telemetry)[0]
            for _ in range(3)
        )

    disabled_s = best_of_three(Telemetry.disabled())
    enabled_s = best_of_three(Telemetry(enabled=True))
    return {
        "compounds": compounds,
        "workers": 2,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead": enabled_s / disabled_s if disabled_s > 0 else float("inf"),
    }


def test_telemetry_overhead_and_run_record(benchmark, workbench):
    """Full tracing must cost < 5% on the streaming loop; the traced
    pipeline run must export a schema-valid run record."""
    sites = {"protease1": make_sarscov2_targets(seed=2020)["protease1"]}
    overhead = benchmark.pedantic(lambda: _telemetry_overhead(sites), rounds=1, iterations=1)

    telemetry = Telemetry(enabled=True)
    deck = build_screening_deck({"emolecules": 4}, seed=2020)
    config = StreamConfig(
        shard_size=2,
        workers=2,
        top_k=10,
        poses_per_compound=2,
        docking_mc_steps=6,
        docking_restarts=1,
        mmgbsa_max_poses=2,
        seed=2020,
    )
    engine = StreamingScreen(
        workbench.coherent_fusion, workbench.featurizer, sites, config, telemetry=telemetry
    )
    result = engine.run(deck.molecules)
    record = engine.run_record()
    validate_run_record(record)
    assert record["stages"][0]["name"] == "streamed_screen"
    assert record["trace"]["num_spans"] > 0
    assert record["metrics"]["counters"]["stream.compounds"] == result.num_compounds

    write_artifact("streaming_run_record.json", json.dumps(record, indent=2))
    write_artifact("streaming_telemetry_overhead.json", json.dumps(overhead, indent=2))

    assert overhead["overhead"] < MAX_TELEMETRY_OVERHEAD, (
        f"telemetry overhead {overhead['overhead']:.3f}x exceeds "
        f"{MAX_TELEMETRY_OVERHEAD}x on the {overhead['compounds']}-compound row"
    )
    benchmark.extra_info["telemetry_overhead"] = overhead["overhead"]
