"""Featurization throughput — scalar oracle vs the vectorized engine.

Featurization is the stage between docking output and fusion scoring,
so its complexes/s bounds campaign throughput whenever the scorer is
fast.  This benchmark sweeps grid dimension and batch size over
identical pose traffic and records scalar vs vectorized throughput (and
the fully cache-served replay) to a JSON artifact
(``benchmarks/artifacts/featurize_throughput.json``) — the perf
trajectory later changes must not regress.  The scalar side is the
per-atom oracle in ``tests/featurize_oracle.py`` (run with
``PYTHONPATH=src:tests`` so it imports); the engine is bit-identical to
it (see ``tests/test_featurize_engine.py``), so every speedup row here
is a pure win.

Scale knob: ``REPRO_BENCH_SCALE=tiny`` shrinks the traffic for the CI
smoke run; grid_dim 24 stays in the sweep at every scale because the
acceptance trajectory tracks the >= 5x speedup at that size.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import write_artifact
from repro.chem.complexes import ProteinLigandComplex
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.prep import LigandPrepPipeline
from repro.chem.protein import make_sarscov2_targets
from repro.featurize.engine import FeaturePipeline, VectorizedVoxelizer
from repro.featurize.voxelize import VoxelGridConfig

from featurize_oracle import ComplexFeaturizer, Voxelizer

GRID_DIMS = (8, 16, 24)
MIN_SPEEDUP_AT_24 = 5.0


def _make_traffic(num_complexes: int, seed: int = 7) -> list[ProteinLigandComplex]:
    """Docked-pose-like traffic: generated ligands posed in one site."""
    site = make_sarscov2_targets(seed=2020)["protease1"]
    generator = MoleculeGenerator(GeneratorProfile(), seed=seed)
    prep = LigandPrepPipeline(minimize=False, seed=3)
    prepared = prep.process_many(generator.generate_many(num_complexes, prefix="bench"), library="bench")
    complexes = []
    for index, entry in enumerate(prepared):
        ligand = entry.molecule
        offset = np.array([0.3 * (index % 5) - 0.6, 0.2 * (index % 3), -2.0 + 0.25 * index])
        ligand = ligand.translate(-ligand.centroid() + offset)
        complexes.append(ProteinLigandComplex(site, ligand, complex_id=f"bench{index}", pose_id=index))
    return complexes


def _throughput(fn, batches: list[list[ProteinLigandComplex]]) -> float:
    start = time.perf_counter()
    total = 0
    for batch in batches:
        fn(batch)
        total += len(batch)
    elapsed = time.perf_counter() - start
    return total / elapsed if elapsed > 0 else float("inf")


def _sweep(traffic: list[ProteinLigandComplex], batch_sizes: tuple[int, ...]) -> list[dict]:
    rows = []
    for grid_dim in GRID_DIMS:
        config = VoxelGridConfig(grid_dim=grid_dim)
        scalar = Voxelizer(config)
        vectorized = VectorizedVoxelizer(config)
        vectorized.voxelize(traffic[0])  # build the per-site pocket block once
        for batch_size in batch_sizes:
            batches = [traffic[i : i + batch_size] for i in range(0, len(traffic), batch_size)]

            # both sides produce the stacked (N, C, D, D, D) batch product
            # that collation consumes, so the comparison is like-for-like
            scalar_cps = _throughput(lambda b: np.stack([scalar.voxelize(c) for c in b]), batches)
            vector_cps = _throughput(lambda b: vectorized.voxelize_many(b), batches)

            # full pipeline (voxel + graph): the uncached batch path, then a
            # fully cached replay through the one-complex entry point
            scalar_pipe = ComplexFeaturizer(config)
            engine = FeaturePipeline(config, cache_capacity=max(len(traffic), 16))
            pipeline_scalar_cps = _throughput(lambda b: scalar_pipe.featurize_many(b), batches)
            pipeline_engine_cps = _throughput(lambda b: engine.featurize_many(b), batches)
            for complex_ in traffic:
                engine.featurize(complex_)  # warm the cache
            pipeline_cached_cps = _throughput(lambda b: [engine.featurize(c) for c in b], batches)

            rows.append(
                {
                    "grid_dim": grid_dim,
                    "batch_size": batch_size,
                    "num_complexes": len(traffic),
                    "voxel_scalar_cps": scalar_cps,
                    "voxel_vectorized_cps": vector_cps,
                    "voxel_speedup": vector_cps / scalar_cps,
                    "pipeline_scalar_cps": pipeline_scalar_cps,
                    "pipeline_vectorized_cps": pipeline_engine_cps,
                    "pipeline_cached_cps": pipeline_cached_cps,
                    "pipeline_speedup": pipeline_engine_cps / pipeline_scalar_cps,
                }
            )
    return rows


def test_featurize_throughput_sweep(benchmark, bench_scale):
    """Sweep grid dim x batch size; emit the JSON perf-trajectory artifact."""
    if bench_scale == "tiny":
        traffic = _make_traffic(8)
        batch_sizes: tuple[int, ...] = (4,)
    else:
        traffic = _make_traffic(24)
        batch_sizes = (4, 16)

    rows = benchmark.pedantic(lambda: _sweep(traffic, batch_sizes), rounds=1, iterations=1)
    write_artifact("featurize_throughput.json", json.dumps(rows, indent=2))

    assert {row["grid_dim"] for row in rows} == set(GRID_DIMS)
    for row in rows:
        assert row["voxel_scalar_cps"] > 0 and row["voxel_vectorized_cps"] > 0
        # cache-served replay must never be slower than cold vectorized
        assert row["pipeline_cached_cps"] >= row["pipeline_vectorized_cps"] * 0.8

    at_24 = [row for row in rows if row["grid_dim"] == 24]
    best_speedup = max(row["voxel_speedup"] for row in at_24)
    assert best_speedup >= MIN_SPEEDUP_AT_24, (
        f"vectorized voxelization regressed: {best_speedup:.1f}x < {MIN_SPEEDUP_AT_24}x at grid_dim=24"
    )
    benchmark.extra_info["voxel_speedup_at_24"] = best_speedup
    benchmark.extra_info["best_pipeline_speedup"] = max(r["pipeline_speedup"] for r in rows)


def test_feature_cache_replay_throughput(benchmark, bench_scale):
    """A warm feature cache serves identical traffic at memory speed."""
    traffic = _make_traffic(6 if bench_scale == "tiny" else 16)
    config = VoxelGridConfig(grid_dim=16)
    engine = FeaturePipeline(config, cache_capacity=len(traffic))
    cold = [engine.featurize(c) for c in traffic]

    def replay():
        return [engine.featurize(c) for c in traffic]

    warm = benchmark.pedantic(replay, rounds=1, iterations=1)
    stats = engine.stats()
    assert stats.hits >= len(traffic)
    assert stats.ledger_closed
    for a, b in zip(cold, warm):
        assert np.array_equal(a.voxel, b.voxel)
