"""Docking throughput — scalar oracle vs the lockstep docking engine.

Docking dominates the campaign's physics budget (§4.1: ~10 poses/s/node,
about one minute per compound per core), so poses/s here bounds campaign
throughput before featurization and scoring even start.  This benchmark
docks identical compound traffic through the scalar oracle
(``ScalarPoseGenerator`` in ``tests/docking_oracle.py``) and the lockstep
``PoseGenerator``, sweeping restart counts and ligand sizes, and writes
the poses/s table to ``benchmarks/artifacts/docking_throughput.json`` —
the perf trajectory later changes must not regress.  The engine is
bit-identical to the oracle (see ``tests/test_docking_engine.py``), so
every speedup row is a pure win.  Run with ``PYTHONPATH=src:tests`` so
the oracle imports.

A "pose" is one Monte-Carlo pose evaluation: ``restarts × (steps + 1)``
per compound.  The acceptance trajectory tracks the >= 5x batched
speedup at the paper-default configuration (``restarts=4``,
``monte_carlo_steps=60``), which stays in the sweep at every scale.
Each row times ``ROUNDS`` rounds that alternate one scalar and one
batched run, and reports the median of the per-round ratios, so a
slow spell on a shared runner lands on both sides of one ratio instead
of deciding the gate.
"""

from __future__ import annotations

import json
import statistics
import time

from benchmarks.conftest import write_artifact
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.prep import LigandPrepPipeline
from repro.chem.protein import make_sarscov2_targets
from repro.docking.engine import PoseGenerator
from repro.docking.vina import VinaScorer
from repro.utils.rng import derive_seed

from docking_oracle import ScalarPoseGenerator

DEFAULT_RESTARTS = 4
DEFAULT_MC_STEPS = 60
MIN_SPEEDUP_AT_DEFAULT = 5.0
ROUNDS = 5


def _make_ligands(count: int, heavy_atoms: tuple[int, int], seed: int) -> list:
    """Prepared drug-like ligands whose sizes fall inside ``heavy_atoms``."""
    low, high = heavy_atoms
    profile = GeneratorProfile(
        heavy_atoms_mean=(low + high) / 2.0,
        heavy_atoms_sd=(high - low) / 4.0,
        heavy_atoms_min=low,
        heavy_atoms_max=high,
    )
    generator = MoleculeGenerator(profile, seed=derive_seed(seed, heavy_atoms))
    prep = LigandPrepPipeline(minimize=False, seed=3)
    ligands = []
    batch = 0
    while len(ligands) < count and batch < 10:
        for prepared in prep.process_many(
            generator.generate_many(count, prefix=f"bench{batch}"), library="bench"
        ):
            ligands.append(prepared)
            if len(ligands) == count:
                break
        batch += 1
    return ligands


def _poses_per_second(elapsed: float, compounds: int, restarts: int, steps: int) -> float:
    evaluated = compounds * restarts * (steps + 1)
    return evaluated / elapsed if elapsed > 0 else float("inf")


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _interleaved(rounds: int, run_scalar, run_batched) -> list[tuple[float, float]]:
    """``(scalar, batched)`` wall-clock seconds of each round, the two runs alternating."""
    return [(_seconds(run_scalar), _seconds(run_batched)) for _ in range(rounds)]


def _sweep(site, ligand_sets, restart_counts, mc_steps: int, rounds: int) -> list[dict]:
    scorer = VinaScorer()
    rows = []
    for label, prepared in ligand_sets:
        pairs = [(p.compound_id, p.molecule) for p in prepared]
        sizes = [p.molecule.num_atoms for p in prepared]
        for restarts in restart_counts:
            kwargs = dict(num_poses=10, monte_carlo_steps=mc_steps, restarts=restarts)

            def run_scalar():
                for compound_id, molecule in pairs:
                    ScalarPoseGenerator(
                        scorer, seed=derive_seed(0, "dock", site.name, compound_id), **kwargs
                    ).dock(site, molecule, complex_id=compound_id)

            def run_batched():
                for compound_id, molecule in pairs:
                    PoseGenerator(
                        scorer, seed=derive_seed(0, "dock", site.name, compound_id), **kwargs
                    ).dock(site, molecule, complex_id=compound_id)

            timings = _interleaved(rounds, run_scalar, run_batched)
            scalar_s = statistics.median(s for s, _ in timings)
            batched_s = statistics.median(b for _, b in timings)
            speedup = statistics.median(s / b if b > 0 else float("inf") for s, b in timings)

            rows.append(
                {
                    "ligand_set": label,
                    "ligand_atoms_min": min(sizes),
                    "ligand_atoms_max": max(sizes),
                    "compounds": len(pairs),
                    "restarts": restarts,
                    "monte_carlo_steps": mc_steps,
                    "scalar_pps": _poses_per_second(scalar_s, len(pairs), restarts, mc_steps),
                    "batched_pps": _poses_per_second(batched_s, len(pairs), restarts, mc_steps),
                    "rounds": rounds,
                    "batched_speedup": speedup,
                }
            )
    return rows


def test_docking_throughput_sweep(benchmark, bench_scale):
    """Sweep restarts x ligand size; emit the JSON perf-trajectory artifact."""
    site = make_sarscov2_targets(seed=2020)["protease1"]
    if bench_scale == "tiny":
        # the CI smoke asserts the 5x floor from this single small row
        ligand_sets = [("small", _make_ligands(2, (12, 24), seed=7))]
        restart_counts: tuple[int, ...] = (DEFAULT_RESTARTS,)
    else:
        ligand_sets = [
            ("small", _make_ligands(3, (12, 24), seed=7)),
            ("large", _make_ligands(3, (26, 40), seed=8)),
        ]
        restart_counts = (1, DEFAULT_RESTARTS, 8)

    rows = benchmark.pedantic(
        lambda: _sweep(site, ligand_sets, restart_counts, DEFAULT_MC_STEPS, rounds=ROUNDS),
        rounds=1,
        iterations=1,
    )
    write_artifact("docking_throughput.json", json.dumps(rows, indent=2))

    assert {row["restarts"] for row in rows} >= {DEFAULT_RESTARTS}
    for row in rows:
        assert row["scalar_pps"] > 0 and row["batched_pps"] > 0

    at_default = [row for row in rows if row["restarts"] == DEFAULT_RESTARTS]
    best_speedup = max(row["batched_speedup"] for row in at_default)
    assert best_speedup >= MIN_SPEEDUP_AT_DEFAULT, (
        f"batched docking regressed: median of {ROUNDS} interleaved rounds {best_speedup:.1f}x "
        f"< {MIN_SPEEDUP_AT_DEFAULT}x at restarts={DEFAULT_RESTARTS}, monte_carlo_steps={DEFAULT_MC_STEPS}"
    )
    benchmark.extra_info["batched_speedup_at_default"] = best_speedup
