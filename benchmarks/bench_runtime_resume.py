"""Campaign runtime — cold-run vs. checkpoint-resume wall time, fault retries.

The paper's throughput/fault analysis (§4.3, Figure 4) assumes the
screening pipeline survives faults and restarts; the stage runtime makes
that concrete with content-keyed checkpoints and fault-injected retries.
This benchmark records a JSON artifact
(``benchmarks/artifacts/runtime_resume.json``) with the cold vs. resumed
wall time of the same mini-campaign and the retry counts the runtime
absorbs (per streamed shard) at increasing injected fault rates, so
later changes have a resilience/perf trajectory to beat.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import write_artifact
from repro.hpc.faults import FaultInjector
from repro.runtime import CampaignRuntime, RetryPolicy, RuntimeConfig
from repro.screening.costfunction import CompoundCostFunction
from repro.screening.pipeline import CampaignConfig

FAULT_RATES = (0.0, 0.1, 0.3)


def _mini_config() -> CampaignConfig:
    return CampaignConfig(
        library_counts={"emolecules": 8, "enamine": 6},
        poses_per_compound=2,
        compounds_tested_per_site=4,
        seed=2021,
        shard_size=2,
    )


def _make_runtime(workbench, runtime_config: RuntimeConfig) -> CampaignRuntime:
    return CampaignRuntime(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        campaign=_mini_config(),
        runtime=runtime_config,
        cost_function=CompoundCostFunction(),
        interaction_model=workbench.interaction_model,
    )


def test_runtime_cold_vs_resume(benchmark, workbench, tmp_path_factory):
    """Cold checkpointed run, then a resume restoring every stage."""
    checkpoint_dir = tmp_path_factory.mktemp("runtime-checkpoints")

    def cold_then_resume() -> dict:
        cold_runtime = _make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        started = time.perf_counter()
        cold_result = cold_runtime.run()
        cold_s = time.perf_counter() - started

        resumed_runtime = _make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        started = time.perf_counter()
        resumed_result = resumed_runtime.run()
        resume_s = time.perf_counter() - started

        identical = {
            (r.site_name, r.compound_id, r.pose_id): r.fusion_pk for r in cold_result.database.records()
        } == {
            (r.site_name, r.compound_id, r.pose_id): r.fusion_pk for r in resumed_result.database.records()
        }
        return {
            "cold_wall_s": cold_s,
            "resume_wall_s": resume_s,
            "speedup": cold_s / max(resume_s, 1e-9),
            "stages_restored": len(resumed_runtime.report.restored_stages()),
            "stages_total": len(resumed_runtime.stages),
            "bit_identical": identical,
        }

    row = benchmark.pedantic(cold_then_resume, rounds=1, iterations=1)

    fault_rows = []
    for rate in FAULT_RATES:
        fault_dir = tmp_path_factory.mktemp(f"runtime-faults-{int(rate * 100)}")
        runtime = _make_runtime(
            workbench,
            RuntimeConfig(
                checkpoint_dir=str(fault_dir),
                fault_injector=FaultInjector.uniform(rate, seed=9),
                retry=RetryPolicy(max_retries=25),
            ),
        )
        started = time.perf_counter()
        runtime.run()
        report = runtime.report.stage("streamed_screen")
        fault_rows.append(
            {
                "fault_rate": rate,
                "wall_s": time.perf_counter() - started,
                "fusion_attempts": report.attempts,
                "fusion_retries": report.retries,
            }
        )

    artifact = {"cold_vs_resume": row, "fault_sweep": fault_rows}
    write_artifact("runtime_resume.json", json.dumps(artifact, indent=2))

    assert row["bit_identical"]
    assert row["stages_restored"] == row["stages_total"]
    assert row["resume_wall_s"] < row["cold_wall_s"]
    assert fault_rows[0]["fusion_retries"] == 0  # rate 0.0 injects nothing
    # higher fault rates cost retries but never lose the campaign
    assert fault_rows[-1]["fusion_retries"] > fault_rows[0]["fusion_retries"]
    benchmark.extra_info["resume_speedup"] = row["speedup"]
    benchmark.extra_info["retries_at_30pct_faults"] = fault_rows[-1]["fusion_retries"]
