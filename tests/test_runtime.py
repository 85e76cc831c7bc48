"""Tests for the fault-tolerant campaign runtime (repro.runtime).

The mini-campaign here is deliberately tiny (one library, two poses per
compound, three shards) so that kill/resume scenarios can afford several
full runs; bitwise equality assertions are exact (``==`` on floats),
because the runtime's contract is bit-identical results across facade,
checkpointed, resumed and fault-retried executions of the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hpc.faults import FaultInjector
from repro.runtime import (
    CheckpointStore,
    RetryPolicy,
    RuntimeConfig,
    CampaignRuntime,
    Stage,
    StageFailure,
    StageGraph,
    checkpoint_key,
)
from repro.screening.costfunction import CompoundCostFunction
from repro.screening.pipeline import CampaignConfig, ScreeningCampaign


def mini_config(**overrides) -> CampaignConfig:
    base = dict(
        library_counts={"emolecules": 5},
        poses_per_compound=2,
        compounds_tested_per_site=3,
        seed=13,
        shard_size=2,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def make_runtime(workbench, runtime_config: RuntimeConfig | None = None, **config_overrides) -> CampaignRuntime:
    return CampaignRuntime(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        campaign=mini_config(**config_overrides),
        runtime=runtime_config,
        cost_function=CompoundCostFunction(),
        interaction_model=workbench.interaction_model,
    )


def fusion_map(result) -> dict[tuple[str, str, int], float]:
    return {(r.site_name, r.compound_id, r.pose_id): r.fusion_pk for r in result.database.records()}


def selection_map(result) -> dict[str, list[str]]:
    return {site: [score.compound_id for score in scores] for site, scores in result.selections.items()}


def stage_checkpoints(runtime) -> list[str]:
    """Checkpointed stage names, without the streamed screen's shard files."""
    return sorted(name for name in runtime.checkpoints.completed_stages() if name in runtime.stages)


@pytest.fixture(scope="module")
def baseline(workbench):
    """The uninterrupted mini-campaign through the plain facade."""
    campaign = ScreeningCampaign(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        config=mini_config(),
        cost_function=CompoundCostFunction(),
        interaction_model=workbench.interaction_model,
    )
    return campaign.run()


# --------------------------------------------------------------------- #
# stage graph
# --------------------------------------------------------------------- #
class TestStageGraph:
    def test_rejects_duplicates_and_undeclared_deps(self):
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([Stage("a", ("x",)), Stage("a", ("y",))])
        with pytest.raises(ValueError, match="not declared"):
            StageGraph([Stage("a", ("x",), deps=("missing",))])
        with pytest.raises(ValueError):
            Stage("a", provides=())

    def test_downstream_closure(self):
        graph = StageGraph(
            [
                Stage("a", ("x",)),
                Stage("b", ("y",), deps=("a",)),
                Stage("c", ("z",), deps=("b",)),
                Stage("d", ("w",)),
            ]
        )
        assert graph.downstream_of("a") == ["b", "c"]
        assert graph.downstream_of("d") == []
        with pytest.raises(KeyError):
            graph.downstream_of("nope")


# --------------------------------------------------------------------- #
# checkpoint store
# --------------------------------------------------------------------- #
class TestCheckpointStore:
    def test_roundtrip_and_stale_key_miss(self, checkpoint_store):
        payload = {"array": np.arange(5.0), "mapping": {("c1", 0): 7.25}}
        checkpoint_store.save("docking", "key-a", payload)
        restored = checkpoint_store.load("docking", "key-a")
        assert restored["mapping"] == payload["mapping"]
        np.testing.assert_array_equal(restored["array"], payload["array"])
        # a different content key means the checkpoint is stale: miss
        assert checkpoint_store.load("docking", "key-b") is None
        assert checkpoint_store.load("never-saved", "key-a") is None
        assert checkpoint_store.completed_stages() == {"docking": "key-a"}

    def test_corrupt_file_is_a_miss(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        store.save("library", "key", {"v": 1})
        (checkpoint_dir / "library.npz").write_bytes(b"not an npz container")
        assert store.load("library", "key") is None

    def test_discard_and_clear(self, checkpoint_store):
        checkpoint_store.save("a", "k1", 1)
        checkpoint_store.save("b", "k2", 2)
        checkpoint_store.discard("a")
        assert checkpoint_store.load("a", "k1") is None
        checkpoint_store.clear()
        assert checkpoint_store.completed_stages() == {}

    def test_in_memory_mode(self):
        store = CheckpointStore(directory=None)
        store.save("s", "k", {"x": 3})
        assert store.load("s", "k") == {"x": 3}
        assert store.load("s", "other") is None
        assert store.completed_stages() == {"s": "k"}

    def test_checkpoint_key_sensitivity(self):
        key = checkpoint_key("docking", {"seed": 1}, ["dep1"])
        assert key == checkpoint_key("docking", {"seed": 1}, ["dep1"])
        assert key != checkpoint_key("docking", {"seed": 2}, ["dep1"])
        assert key != checkpoint_key("docking", {"seed": 1}, ["dep2"])
        assert key != checkpoint_key("mmgbsa", {"seed": 1}, ["dep1"])


# --------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_retry_policy_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)


# --------------------------------------------------------------------- #
# campaign runtime: parity, resume, kill, faults
# --------------------------------------------------------------------- #
class TestCampaignRuntime:
    def test_cold_run_matches_facade_bitwise(self, workbench, baseline, checkpoint_dir):
        runtime = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        result = runtime.run()
        assert runtime.report.executed_stages() == runtime.stages.names()
        assert fusion_map(result) == fusion_map(baseline)
        assert result.structural_pk == baseline.structural_pk
        assert selection_map(result) == selection_map(baseline)
        assert result.summary() == baseline.summary()

    def test_resume_restores_every_stage(self, workbench, baseline, checkpoint_dir):
        make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run()
        resumed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        result = resumed.run()
        assert resumed.report.restored_stages() == resumed.stages.names()
        assert resumed.report.executed_stages() == []
        assert all(count == 0 for count in resumed.execution_counts.values())
        assert fusion_map(result) == fusion_map(baseline)
        assert result.structural_pk == baseline.structural_pk

    def test_kill_after_streamed_screen_then_resume(self, workbench, baseline, checkpoint_dir):
        """Acceptance: a campaign killed after the streamed screen resumes,
        skips completed stages (stage counters prove it) and yields
        bit-identical results."""
        killed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        assert killed.run(stop_after="streamed_screen") is None
        assert killed.report.executed_stages() == ["library", "streamed_screen"]
        assert stage_checkpoints(killed) == ["library", "streamed_screen"]

        resumed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        result = resumed.run()
        assert resumed.report.restored_stages() == ["library", "streamed_screen"]
        assert resumed.report.executed_stages() == ["cost_function", "assays"]
        # completed stages were not re-executed
        for name in ("library", "streamed_screen"):
            assert resumed.execution_counts[name] == 0
        assert fusion_map(result) == fusion_map(baseline)
        assert result.structural_pk == baseline.structural_pk
        assert selection_map(result) == selection_map(baseline)
        assert result.summary() == baseline.summary()

    def test_fault_exhaustion_kills_then_resume_skips_completed(self, workbench, baseline, checkpoint_dir):
        """FaultInjector-driven kill: one shard keeps faulting until the
        retry budget runs out, the campaign dies, and a re-run resumes from
        the library checkpoint and the shards folded before the failure."""
        # seed 20: shard 0 recovers after one retry, shard 1 faults on
        # both of its attempts; one worker folds shard 0 first
        lethal = RuntimeConfig(
            checkpoint_dir=str(checkpoint_dir),
            fault_injector=FaultInjector.uniform(0.5, seed=20),
            retry=RetryPolicy(max_retries=1),
            max_workers=1,
        )
        dying = make_runtime(workbench, lethal)
        with pytest.raises(StageFailure) as excinfo:
            dying.run()
        assert excinfo.value.stage == "streamed_screen"
        assert stage_checkpoints(dying) == ["library"]
        # the failed stage's fault diagnostics and shard progress survive
        failed_report = dying.report.stage("streamed_screen")
        assert failed_report.retries > 0
        assert failed_report.faults
        folded = failed_report.extra["stream"]["shards_executed"]
        assert folded > 0

        resumed = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        result = resumed.run()
        assert resumed.report.restored_stages() == ["library"]
        assert resumed.report.executed_stages() == ["streamed_screen", "cost_function", "assays"]
        stream = resumed.report.stage("streamed_screen").extra["stream"]
        assert stream["shards_restored"] == folded
        assert stream["shards_executed"] == stream["num_shards"] - folded
        assert resumed.execution_counts["library"] == 0
        assert resumed.execution_counts["streamed_screen"] == 1
        assert fusion_map(result) == fusion_map(baseline)

    def test_transient_faults_retry_with_identical_results(self, workbench, baseline, checkpoint_dir):
        flaky = RuntimeConfig(
            checkpoint_dir=str(checkpoint_dir),
            fault_injector=FaultInjector.uniform(0.5, seed=11),
            retry=RetryPolicy(max_retries=12),
        )
        runtime = make_runtime(workbench, flaky)
        result = runtime.run()
        report = runtime.report.stage("streamed_screen")
        assert report.retries > 0
        assert len(report.faults) == report.retries  # every logged fault cost exactly one retry
        assert report.attempts - report.retries == report.extra["stream"]["num_shards"]  # each shard succeeded once
        # faults only cost retries, never results
        assert fusion_map(result) == fusion_map(baseline)

    def test_model_swap_invalidates_screen_and_downstream_only(self, workbench, checkpoint_dir):
        make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run()
        swapped = CampaignRuntime(
            model=workbench.mid_fusion,  # different weights -> different fingerprint
            featurizer=workbench.featurizer,
            campaign=mini_config(),
            runtime=RuntimeConfig(checkpoint_dir=str(checkpoint_dir)),
            cost_function=CompoundCostFunction(),
            interaction_model=workbench.interaction_model,
        )
        swapped.run()
        assert swapped.report.restored_stages() == ["library"]
        assert swapped.report.executed_stages() == ["streamed_screen", "cost_function", "assays"]
        # shard keys carry the model fingerprint, so no shard restores
        assert swapped.report.stage("streamed_screen").extra["stream"]["shards_restored"] == 0

    def test_featurizer_change_invalidates_screen_checkpoint(self, workbench, checkpoint_dir):
        from repro.featurize.graph import GraphConfig
        from repro.featurize.pipeline import ComplexFeaturizer
        from repro.featurize.voxelize import VoxelGridConfig

        make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run()
        refeaturized = CampaignRuntime(
            model=workbench.coherent_fusion,
            featurizer=ComplexFeaturizer(  # different grid -> different model inputs
                voxel_config=VoxelGridConfig(grid_dim=12, resolution=1.5, channel_set="reduced"),
                graph_config=GraphConfig(),
                augment=True,
                seed=workbench.scale.seed,
            ),
            campaign=mini_config(),
            runtime=RuntimeConfig(checkpoint_dir=str(checkpoint_dir)),
            cost_function=CompoundCostFunction(),
            interaction_model=workbench.interaction_model,
        )
        refeaturized.run()
        assert refeaturized.report.restored_stages() == ["library"]
        assert refeaturized.report.executed_stages() == ["streamed_screen", "cost_function", "assays"]

    def test_restored_payload_missing_artifact_reexecutes(self, workbench, checkpoint_dir):
        runtime = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)))
        # forge a checkpoint under the correct key but without 'deck'
        runtime.checkpoints.save("library", runtime.stage_key("library"), {"sites": {}})
        assert runtime.run(stop_after="library") is None
        # the stale payload was discarded and the stage executed fresh
        assert runtime.report.executed_stages() == ["library"]
        assert runtime.execution_counts["library"] == 1

    def test_seed_change_invalidates_everything(self, workbench, checkpoint_dir):
        make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run()
        reseeded = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir)), seed=14)
        reseeded.run()
        assert reseeded.report.restored_stages() == []
        assert reseeded.report.executed_stages() == reseeded.stages.names()

    def test_stage_body_error_wrapped_and_report_preserved(self, workbench):
        runtime = make_runtime(workbench)
        # a stage body raising a generic error (simulating e.g. bad metadata)
        runtime._stage_library = lambda context, report: (_ for _ in ()).throw(
            KeyError("bad metadata")
        )
        with pytest.raises(StageFailure) as excinfo:
            runtime.run()
        assert excinfo.value.stage == "library"
        assert runtime.report.stage("library").status == "executed"  # report survives the failure

    def test_executed_payload_missing_artifact_fails_with_report(self, workbench):
        runtime = make_runtime(workbench)
        runtime._stage_library = lambda context, report: {"sites": {}}  # no 'deck'
        with pytest.raises(StageFailure, match="missing artifacts"):
            runtime.run()
        assert runtime.report.stage("library").status == "executed"

    def test_invalid_configuration_rejected(self, workbench):
        runtime = make_runtime(workbench)
        with pytest.raises(KeyError):
            runtime.run(stop_after="not-a-stage")


# --------------------------------------------------------------------- #
# golden determinism snapshot
# --------------------------------------------------------------------- #
def test_golden_determinism_across_direct_serving_and_resumed(workbench, baseline, checkpoint_dir):
    """Fixed-seed summary snapshot is identical across the direct path, the
    serving-routed path and a runtime run resumed from checkpoints."""
    serving_result = make_runtime(workbench, use_serving=True).run()

    make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run(stop_after="streamed_screen")
    resumed_result = make_runtime(workbench, RuntimeConfig(checkpoint_dir=str(checkpoint_dir))).run()

    golden = baseline.summary()
    assert serving_result.summary() == golden
    assert resumed_result.summary() == golden
    # the snapshot holds because selection itself is identical
    assert selection_map(serving_result) == selection_map(baseline)
    assert selection_map(resumed_result) == selection_map(baseline)
    # serving and direct scoring agree to floating-point associativity on raw scores
    base_scores = fusion_map(baseline)
    for key, score in fusion_map(serving_result).items():
        assert score == pytest.approx(base_scores[key], rel=1e-9, abs=1e-9)
    # the resumed run is bitwise identical, not merely approximately equal
    assert fusion_map(resumed_result) == base_scores
