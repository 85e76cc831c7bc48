"""Fault-tolerant campaign execution: checkpoints, kill, resume (paper §4.3).

The production campaign ran for days under a 12-hour LSF wall-time limit
with 2-20 % job failure rates, so the architecture leaned on many small
requeueable jobs.  ``repro.runtime`` brings that to the reproduction:
the campaign runs as a graph of named stages (library → streamed_screen
→ cost_function → assays), every completed stage is checkpointed under a
content key, the streamed screen also checkpoints every shard, and a
killed campaign resumes from the last completed stage or shard.  This
example:

1. starts a checkpointed campaign and kills it right after the streamed
   screen (prep, docking, MM/GBSA and fusion scoring);
2. resumes it — the completed stages restore from checkpoints and only
   the remaining stages execute;
3. re-runs it once more under a 30 % injected fault rate to show the
   per-shard retry/backoff machinery absorbing faults without changing a
   single score.

Run:  python examples/fault_tolerant_campaign.py
Expected runtime: a few minutes (it trains the fusion model first).
"""

from __future__ import annotations

import tempfile

from repro.experiments.common import build_workbench
from repro.hpc.faults import FaultInjector
from repro.runtime import CampaignRuntime, RetryPolicy, RuntimeConfig
from repro.screening import CampaignConfig, CompoundCostFunction


def make_runtime(workbench, runtime_config: RuntimeConfig) -> CampaignRuntime:
    return CampaignRuntime(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        campaign=CampaignConfig(
            library_counts={"emolecules": 12, "enamine": 8},
            poses_per_compound=2,
            compounds_tested_per_site=6,
            seed=2020,
            shard_size=4,
        ),
        runtime=runtime_config,
        cost_function=CompoundCostFunction(),
    )


def describe(runtime: CampaignRuntime) -> None:
    for report in runtime.report.stages:
        line = f"  {report.name:16s} {report.status:9s} {report.duration_s * 1e3:8.1f} ms"
        if report.retries:
            line += f"  retries={report.retries}"
        print(line)


def main() -> None:
    print("=== Training the Coherent Fusion model (tiny workbench) ===")
    workbench = build_workbench("tiny")

    checkpoint_dir = tempfile.mkdtemp(prefix="campaign-checkpoints-")
    print(f"\ncheckpoints: {checkpoint_dir}")

    print("\n=== 1. Campaign killed right after the streamed screen ===")
    killed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=checkpoint_dir))
    killed.run(stop_after="streamed_screen")
    describe(killed)
    checkpointed = [name for name in killed.stages.names() if killed.checkpoints.stored_key(name) is not None]
    print(f"  checkpointed stages: {sorted(checkpointed)}")
    stream = killed.report.stage("streamed_screen").extra["stream"]
    print(f"  checkpointed shards: {stream['shards_executed']:.0f} of {stream['num_shards']:.0f}")

    print("\n=== 2. Resumed campaign: completed stages restore, the rest execute ===")
    resumed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=checkpoint_dir))
    result = resumed.run()
    describe(resumed)
    summary = result.summary()
    print(f"  poses scored: {summary['num_poses_scored']:.0f}  "
          f"tested: {summary['num_tested']:.0f}  hit rate: {summary['hit_rate_33pct']:.1%}")

    print("\n=== 3. Fresh run under 30% injected faults (per-shard retry with backoff) ===")
    faults = FaultInjector.uniform(0.30, seed=7)
    faulty_dir = tempfile.mkdtemp(prefix="campaign-faulty-")
    faulty = make_runtime(
        workbench,
        RuntimeConfig(
            checkpoint_dir=faulty_dir,
            fault_injector=faults,
            retry=RetryPolicy(max_retries=20, backoff_s=0.001),
        ),
    )
    faulty_result = faulty.run()
    describe(faulty)
    screen = faulty.report.stage("streamed_screen")
    print(f"  shards: {screen.extra['stream']['num_shards']:.0f}  attempts: {screen.attempts}  "
          f"retries absorbed: {screen.retries}")

    identical = {
        (r.site_name, r.compound_id, r.pose_id): r.fusion_pk for r in result.database.records()
    } == {
        (r.site_name, r.compound_id, r.pose_id): r.fusion_pk for r in faulty_result.database.records()
    }
    print(f"\nfault-retried scores bit-identical to the clean run: {identical}")


if __name__ == "__main__":
    main()
