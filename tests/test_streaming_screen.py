"""Streaming screening: golden shard/determinism suite, properties, stress.

The golden suite (tier-1) pins the streaming engine's determinism
contract bit-for-bit (``np.array_equal``, no tolerances):

* top-K ids, scores and summary statistics are identical across
  ``shard_size`` ∈ {1, 7, 64} and ``workers`` ∈ {1, 4};
* the streamed campaign reproduces the straight-line reference
  composition of ``tests/campaign_oracle.py`` exactly (records,
  selections, structural pK, assays) when both score one pose per NN
  batch;
* a run killed mid-stream resumes from shard checkpoints without
  rescoring finished shards, bit-identical to an uninterrupted run.

Regenerating goldens: there are no committed golden files here — the
suite is self-referential (every configuration must agree with every
other, and the campaign oracle is recomputed from the same code), so a
deliberate numerical change to prep/docking/featurization/models needs
no regeneration step in this file.
"""

from __future__ import annotations

import copy
import gc
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import build_screening_deck, make_streaming_library
from repro.featurize.cache import entry_nbytes
from repro.hpc.faults import FaultInjector
from repro.runtime import CheckpointStore, RetryPolicy
from repro.screening.partition import shard_bounds
from repro.screening.pipeline import CampaignConfig, ScreeningCampaign
from repro.screening.stream import (
    ExactSum,
    ShardOutcome,
    StreamConfig,
    StreamingScreen,
    StreamingStats,
    StreamShardError,
    TopKSelector,
)
from repro.utils.rng import derive_seed

from campaign_oracle import reference_campaign
from screening_oracle import read_predictions, read_topk, stats_array, topk_by_full_sort

SEED = 41
SITE_NAMES = ("protease1", "protease2")


# --------------------------------------------------------------------------- #
# fixtures: one tiny deck, streamed under many configurations
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stream_sites():
    sites = make_sarscov2_targets(seed=derive_seed(SEED, "targets"))
    return {name: sites[name] for name in SITE_NAMES}


@pytest.fixture(scope="module")
def stream_deck():
    return build_screening_deck({"emolecules": 5, "zinc_world_approved": 4}, seed=SEED)


def make_stream_config(shard_size=7, workers=1, fusion_batch_size=1, **overrides):
    defaults = dict(
        shard_size=shard_size,
        workers=workers,
        top_k=5,
        fusion_batch_size=fusion_batch_size,
        poses_per_compound=2,
        docking_mc_steps=8,
        docking_restarts=1,
        seed=SEED,
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


def run_stream(workbench, sites, deck, config, **kwargs):
    engine = StreamingScreen(workbench.coherent_fusion, workbench.featurizer, sites, config, **kwargs)
    return engine.run(deck.molecules)


@pytest.fixture(scope="module")
def stream_matrix(workbench, stream_sites, stream_deck):
    """The golden matrix: every (shard_size, workers) cell on one deck,
    keyed ``(shard_size, workers, "thread")``."""
    return {
        (shard, workers, "thread"): run_stream(
            workbench,
            stream_sites,
            stream_deck,
            make_stream_config(shard_size=shard, workers=workers),
        )
        for shard in (1, 7, 64)
        for workers in (1, 4)
    }


CAMPAIGN_KWARGS = dict(
    library_counts={"emolecules": 5, "zinc_world_approved": 4},
    poses_per_compound=2,
    docking_mc_steps=8,
    docking_restarts=1,
    compounds_tested_per_site=4,
    seed=SEED,
)


@pytest.fixture(scope="module")
def materialized_campaign(workbench, stream_sites):
    """The straight-line reference: whole-deck stages, one pose per NN batch."""
    return reference_campaign(workbench.coherent_fusion, workbench.featurizer, stream_sites, **CAMPAIGN_KWARGS)


@pytest.fixture(scope="module")
def streaming_campaign(workbench, stream_sites):
    config = CampaignConfig(sites=stream_sites, shard_size=4, top_k=5, fusion_batch_size=1, **CAMPAIGN_KWARGS)
    return ScreeningCampaign(workbench.coherent_fusion, workbench.featurizer, config).run()


# --------------------------------------------------------------------------- #
# golden shard-invariance suite (tier-1)
# --------------------------------------------------------------------------- #
@pytest.mark.tier1
class TestGoldenShardInvariance:
    def test_topk_bit_identical_across_shard_sizes_and_workers(self, stream_matrix, stream_sites):
        reference = stream_matrix[(1, 1, "thread")]
        for cell, result in stream_matrix.items():
            for site in stream_sites:
                ref_ids, ref_scores = reference.topk_arrays(site)
                ids, scores = result.topk_arrays(site)
                assert np.array_equal(ids, ref_ids), (cell, site)
                assert np.array_equal(scores, ref_scores), (cell, site)

    def test_stats_bit_identical_across_shard_sizes_and_workers(self, stream_matrix, stream_sites):
        reference = stream_matrix[(1, 1, "thread")]
        for cell, result in stream_matrix.items():
            for site in stream_sites:
                assert np.array_equal(
                    stats_array(result.stats[site]), stats_array(reference.stats[site])
                ), (cell, site)

    def test_every_compound_streamed_exactly_once(self, stream_matrix, stream_deck):
        for result in stream_matrix.values():
            assert result.num_compounds == len(stream_deck)
            assert result.shards_failed == 0
            assert result.shards_executed + result.shards_restored == result.num_shards

    def test_per_compound_batching_is_also_invariant(self, workbench, stream_sites, stream_deck):
        """fusion_batch_size=0 (one batch per compound) is a different batch
        protocol — scores may differ from batch-1 at ulp level — but it must
        be exactly as shard/worker-invariant."""
        a = run_stream(workbench, stream_sites, stream_deck, make_stream_config(7, 4, fusion_batch_size=0))
        b = run_stream(workbench, stream_sites, stream_deck, make_stream_config(64, 1, fusion_batch_size=0))
        for site in stream_sites:
            assert np.array_equal(a.topk_arrays(site)[0], b.topk_arrays(site)[0])
            assert np.array_equal(a.topk_arrays(site)[1], b.topk_arrays(site)[1])
            assert np.array_equal(stats_array(a.stats[site]), stats_array(b.stats[site]))

    def test_streaming_campaign_matches_materialized_campaign(
        self, materialized_campaign, streaming_campaign, stream_sites
    ):
        mat, st = materialized_campaign, streaming_campaign
        mat_records = {r.key: r for r in mat.database.records()}
        st_records = {r.key: r for r in st.database.records()}
        assert set(mat_records) == set(st_records)
        for key, mrec in mat_records.items():
            srec = st_records[key]
            assert mrec.vina_score == srec.vina_score, key
            assert np.array_equal(
                np.array([mrec.mmgbsa_score]), np.array([srec.mmgbsa_score]), equal_nan=True
            ), key
            assert mrec.fusion_pk == srec.fusion_pk, key
        for site in stream_sites:
            assert [s.compound_id for s in mat.selections[site]] == [
                s.compound_id for s in st.selections[site]
            ]
            assert [s.combined for s in mat.selections[site]] == [s.combined for s in st.selections[site]]
        assert mat.structural_pk == st.structural_pk
        for site in stream_sites:
            for score in mat.selections[site]:
                assert mat.assays.inhibition_of(site, score.compound_id) == st.assays.inhibition_of(
                    site, score.compound_id
                )

    def test_streaming_topk_equals_full_sort_of_materialized_database(
        self, materialized_campaign, streaming_campaign, stream_sites
    ):
        assert streaming_campaign.topk is not None
        for site in stream_sites:
            best = {
                cid: materialized_campaign.database.best_pose(site, cid, by="fusion").fusion_pk
                for cid in materialized_campaign.database.compounds(site)
            }
            reference = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            got = [(entry.compound_id, entry.score) for entry in streaming_campaign.topk[site]]
            assert got == reference

    def test_kill_mid_shard_then_resume_is_bit_identical(
        self, workbench, stream_sites, stream_deck, tmp_path, stream_matrix
    ):
        config = make_stream_config(shard_size=2, workers=2)
        store = CheckpointStore(tmp_path / "stream-ckpt")
        killed = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
            checkpoints=store, checkpoint_salt="golden",
        ).run(stream_deck.molecules, stop_after_shards=3)
        assert killed.aborted and killed.shards_executed == 3

        resumed_engine = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
            checkpoints=store, checkpoint_salt="golden",
        )
        resumed = resumed_engine.run(stream_deck.molecules)
        # finished shards restore instead of rescoring
        assert resumed.shards_restored == 3
        assert resumed.shards_executed == resumed.num_shards - 3
        reference = stream_matrix[(1, 1, "thread")]
        for site in stream_sites:
            assert np.array_equal(resumed.topk_arrays(site)[0], reference.topk_arrays(site)[0])
            assert np.array_equal(resumed.topk_arrays(site)[1], reference.topk_arrays(site)[1])
            assert np.array_equal(stats_array(resumed.stats[site]), stats_array(reference.stats[site]))

    def test_stale_checkpoint_salt_misses(self, workbench, stream_sites, stream_deck, tmp_path):
        config = make_stream_config(shard_size=4)
        store = CheckpointStore(tmp_path / "stream-ckpt")
        StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
            checkpoints=store, checkpoint_salt="config-A",
        ).run(stream_deck.molecules)
        changed = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
            checkpoints=store, checkpoint_salt="config-B",
        ).run(stream_deck.molecules)
        assert changed.shards_restored == 0

    def test_changed_stream_config_misses_without_salt_change(
        self, workbench, stream_sites, stream_deck, tmp_path
    ):
        """The shard key itself carries the content-shaping config knobs, so a
        direct API user rerunning with a different seed or docking budget can
        never restore stale shards — while retuning workers (which cannot
        change shard composition) keeps every checkpoint warm."""
        store = CheckpointStore(tmp_path / "stream-ckpt")
        run = lambda cfg: StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, cfg,
            checkpoints=store, checkpoint_salt="same-salt",
        ).run(stream_deck.molecules)
        baseline = run(make_stream_config(shard_size=4))
        assert baseline.shards_restored == 0
        retuned = run(make_stream_config(shard_size=4, workers=4))
        assert retuned.shards_restored == retuned.num_shards
        # each stale config misses (and re-executes, clobbering the store
        # under the same shard names — one payload per name, like stages)
        for stale in (
            make_stream_config(shard_size=4, seed=SEED + 1),
            make_stream_config(shard_size=4, docking_mc_steps=9),
            make_stream_config(shard_size=4, fusion_batch_size=0),
        ):
            assert run(stale).shards_restored == 0


# --------------------------------------------------------------------------- #
# stream configuration
# --------------------------------------------------------------------------- #
@pytest.mark.tier1
class TestStreamConfig:
    def test_unknown_backend_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_stream_config(backend="fork")
        # shards run on threads only: the process backend is gone
        with pytest.raises(ValueError, match="process backend was removed"):
            make_stream_config(backend="process")

    def test_thread_backend_is_the_default(self):
        assert StreamConfig().backend == "thread"
        assert make_stream_config(backend="thread") == make_stream_config()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(shard_size=0), "shard_size must be positive"),
            (dict(workers=0), "workers must be positive"),
            (dict(top_k=0), "top_k must be positive"),
            (dict(fusion_batch_size=-1), "fusion_batch_size must be non-negative"),
            (dict(on_shard_failure="ignore"), "unknown on_shard_failure policy 'ignore'"),
        ],
    )
    def test_invalid_field_rejected_at_config_time(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_stream_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(shard_size=0), "shard_size must be positive"),
            (dict(fusion_batch_size=-1), "fusion_batch_size must be non-negative"),
        ],
    )
    def test_campaign_validate_rejects_what_the_stream_cannot_honour(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**overrides).validate()

    def test_docking_counters_cover_every_compound_once(self, workbench, stream_sites, stream_deck):
        """Shard threads record into the coordinator's active registry: the
        docking counters count each (compound, site) pair exactly once and
        do not depend on the worker count."""
        from repro.telemetry import Telemetry, activate

        counters = {}
        for workers in (1, 2):
            bundle = Telemetry.disabled()
            with activate(bundle):
                run_stream(
                    workbench, stream_sites, stream_deck,
                    make_stream_config(shard_size=4, workers=workers),
                )
            snapshot = bundle.registry.snapshot()["counters"]
            counters[workers] = {k: v for k, v in snapshot.items() if k.startswith("docking.")}
        assert counters[2] == counters[1]
        assert counters[1]["docking.compounds"] == len(stream_deck) * len(stream_sites)


# --------------------------------------------------------------------------- #
# concurrency stress: injected worker faults
# --------------------------------------------------------------------------- #
class TestConcurrencyStress:
    def test_retries_converge_to_fault_free_result(self, workbench, stream_sites, stream_deck):
        config = make_stream_config(
            shard_size=1, workers=4, retry=RetryPolicy(max_retries=6, backoff_s=0.0)
        )
        clean = run_stream(workbench, stream_sites, stream_deck, make_stream_config(shard_size=1, workers=4))
        faulty = run_stream(
            workbench, stream_sites, stream_deck, config,
            fault_injector=FaultInjector.uniform(0.3, seed=7),
        )
        assert faulty.total_retries > 0
        assert faulty.shards_failed == 0
        assert faulty.shards_executed + faulty.shards_restored == faulty.num_shards
        for site in stream_sites:
            # retried shards are folded exactly once: bit-identical to clean
            assert np.array_equal(faulty.topk_arrays(site)[0], clean.topk_arrays(site)[0])
            assert np.array_equal(faulty.topk_arrays(site)[1], clean.topk_arrays(site)[1])
            assert np.array_equal(stats_array(faulty.stats[site]), stats_array(clean.stats[site]))
            ids = faulty.topk_arrays(site)[0]
            assert len(set(ids.tolist())) == len(ids)

    def test_exhausted_retries_skip_policy_accounting(self, workbench, stream_sites, stream_deck):
        config = make_stream_config(
            shard_size=1, workers=3,
            retry=RetryPolicy(max_retries=0), on_shard_failure="skip",
        )
        result = run_stream(
            workbench, stream_sites, stream_deck, config,
            fault_injector=FaultInjector.uniform(0.5, seed=3),
        )
        assert result.shards_failed > 0
        assert result.shards_executed + result.shards_restored + result.shards_failed == result.num_shards
        # failed shards contribute nothing: stats count the completed
        # compounds only, and no compound appears twice
        completed_compounds = result.shards_executed  # shard_size=1
        for site in stream_sites:
            assert result.stats[site].count == completed_compounds
            ids = result.topk_arrays(site)[0]
            assert len(set(ids.tolist())) == len(ids)

    def test_skip_policy_ledger_closes_across_a_resume(
        self, workbench, stream_sites, stream_deck, tmp_path, stream_matrix
    ):
        """``executed + restored + failed == num_shards`` on every run: a
        skip-policy run that loses shards, the same faults again (every
        completed shard restores, the same shards fail), then a fault-free
        resume that re-executes only the failed shards."""
        store = CheckpointStore(tmp_path / "skip-ckpt")
        config = make_stream_config(
            shard_size=1, workers=3, retry=RetryPolicy(max_retries=0), on_shard_failure="skip",
        )

        def run(fault_injector=None):
            return StreamingScreen(
                workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
                checkpoints=store, checkpoint_salt="skip", fault_injector=fault_injector,
            ).run(stream_deck.molecules)

        first = run(FaultInjector.uniform(0.5, seed=3))
        again = run(FaultInjector.uniform(0.5, seed=3))
        resumed = run()
        for result in (first, again, resumed):
            assert result.shards_executed + result.shards_restored + result.shards_failed == result.num_shards
            assert result.num_shards == len(stream_deck)
        assert first.shards_failed > 0 and first.shards_restored == 0
        assert (again.shards_executed, again.shards_restored, again.shards_failed) == (
            0, first.shards_executed, first.shards_failed,
        )
        assert (resumed.shards_executed, resumed.shards_restored, resumed.shards_failed) == (
            first.shards_failed, first.shards_executed, 0,
        )
        # once every shard has folded, the result is the clean run's
        reference = stream_matrix[(1, 1, "thread")]
        for site in stream_sites:
            assert np.array_equal(resumed.topk_arrays(site)[1], reference.topk_arrays(site)[1])
            assert np.array_equal(stats_array(resumed.stats[site]), stats_array(reference.stats[site]))

    def test_raise_policy_propagates_after_folding_completed_shards(
        self, workbench, stream_sites, stream_deck, tmp_path
    ):
        store = CheckpointStore(tmp_path / "faulty-ckpt")
        config = make_stream_config(
            shard_size=1, workers=2, retry=RetryPolicy(max_retries=0), on_shard_failure="raise",
        )
        with pytest.raises(StreamShardError):
            StreamingScreen(
                workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
                checkpoints=store, checkpoint_salt="fault",
                fault_injector=FaultInjector.uniform(0.5, seed=3),
            ).run(stream_deck.molecules)
        # completed shards were checkpointed before the failure propagated,
        # so the fault-free re-run restores them instead of rescoring
        resumed = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config,
            checkpoints=store, checkpoint_salt="fault",
        ).run(stream_deck.molecules)
        assert resumed.shards_restored > 0
        assert resumed.shards_failed == 0


# --------------------------------------------------------------------------- #
# import order
# --------------------------------------------------------------------------- #
class TestImportOrder:
    @pytest.mark.parametrize(
        "first_import",
        ["repro.runtime", "repro.screening", "repro.screening.stream"],
    )
    def test_package_imports_standalone(self, first_import):
        """Regression: an eager stream re-export in repro.screening/__init__
        made `import repro.runtime` (whose executor imports screening.job)
        fail as a *first* import with a partially-initialized-module error;
        the conftest's own imports masked it in the suite."""
        result = subprocess.run(
            [sys.executable, "-c", f"import {first_import}; import repro.screening; repro.screening.StreamingScreen"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr


# --------------------------------------------------------------------------- #
# ordered-executor scheduling
# --------------------------------------------------------------------------- #
class _SyntheticShardEngine(StreamingScreen):
    """The real scheduler/fold loop over an instant synthetic shard stage."""

    def __init__(self, sites, config):
        super().__init__(model=object(), featurizer=None, sites=sites, config=config)

    def _execute_shard(self, index, start, stop, source):
        # uneven shard durations force out-of-order completion, so
        # far-ahead results wait in the window for the frontier shard
        time.sleep((index % 7) * 0.0003)
        best_scores = {
            name: [(f"SYN-{i:05d}", math.sin(i * 0.7) + site_i) for i in range(start, stop)]
            for site_i, name in enumerate(self.sites)
        }
        return ShardOutcome(
            index=index, start=start, stop=stop, status="executed",
            best_scores=best_scores, num_compounds=stop - start,
        )


class TestReorderWindow:
    def test_many_shards_fold_exactly_without_deadlock(self, stream_sites):
        """Regression: an earlier slot-counting reorder window deadlocked
        once fast workers filled every slot with far-ahead results that
        could not fold until the frontier shard ran — while the frontier
        shard's worker starved waiting for a slot.  The ordered executor
        always has the frontier shard submitted, so the fold advances."""
        total = 300
        config = make_stream_config(shard_size=1, workers=4, top_k=25)
        result = _SyntheticShardEngine(stream_sites, config).run(
            [types.SimpleNamespace(name=f"SYN-{i:05d}") for i in range(total)]
        )
        assert result.num_compounds == total
        assert result.shards_executed == result.num_shards == total
        offers = [(f"SYN-{i:05d}", math.sin(i * 0.7)) for i in range(total)]
        site = sorted(stream_sites)[0]
        assert result.top_k[site] == topk_by_full_sort(offers, 25)
        assert result.stats[site].count == total

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocked_frontier_shard_bounds_started_shards(self, stream_sites, workers):
        """While shard 0 blocks, no shard at or past ``2 × workers`` starts."""
        window = 2 * workers
        release = threading.Event()
        started: list[int] = []

        class _BlockingEngine(_SyntheticShardEngine):
            def _execute_shard(self, index, start, stop, source):
                started.append(index)
                if index == 0:
                    release.wait(timeout=30)
                return super()._execute_shard(index, start, stop, source)

        total = 40
        engine = _BlockingEngine(stream_sites, make_stream_config(shard_size=1, workers=workers))
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                engine.run([types.SimpleNamespace(name=f"SYN-{i:05d}") for i in range(total)])
            )
        )
        runner.start()
        try:
            # every shard the window admits runs on the unblocked workers
            deadline = time.monotonic() + 10
            while len(started) < (window if workers > 1 else 1) and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.2)
            assert 0 in started
            assert max(started) < window
        finally:
            release.set()
            runner.join(timeout=30)
        assert not runner.is_alive()
        assert results[0].shards_executed == total
        assert sorted(started) == list(range(total))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_worker_thread_outlives_run(self, stream_sites, workers):
        """No ``stream-worker`` thread is alive after ``run()`` returns or raises."""

        def live_workers():
            return [t.name for t in threading.enumerate() if t.name.startswith("stream-worker")]

        deck = [types.SimpleNamespace(name=f"SYN-{i:05d}") for i in range(30)]
        config = make_stream_config(shard_size=1, workers=workers)
        _SyntheticShardEngine(stream_sites, config).run(deck)
        assert live_workers() == []
        failing = _RaisingShardEngine(stream_sites, config, raise_on=5)
        with pytest.raises(StreamShardError):
            failing.run(deck)
        assert live_workers() == []


class _RaisingShardEngine(_SyntheticShardEngine):
    """The synthetic stage, with one shard whose body raises."""

    def __init__(self, sites, config, raise_on):
        super().__init__(sites, config)
        self.raise_on = raise_on

    def _execute_shard(self, index, start, stop, source):
        if index == self.raise_on:
            raise ValueError(f"shard body {index} raised")
        return super()._execute_shard(index, start, stop, source)


class TestShardBodyExceptions:
    """``retry`` re-runs injected faults only: a shard body that raises
    fails its shard on the first attempt, whatever the retry budget."""

    DECK = [types.SimpleNamespace(name=f"SYN-{i:05d}") for i in range(12)]

    def test_skip_policy_records_one_failed_shard_without_retries(self, stream_sites):
        config = make_stream_config(
            shard_size=1, workers=2, retry=RetryPolicy(max_retries=5), on_shard_failure="skip",
        )
        result = _RaisingShardEngine(stream_sites, config, raise_on=3).run(self.DECK)
        assert result.failed_shards == [3]
        assert result.total_retries == 0
        assert result.shards_executed + result.shards_restored + result.shards_failed == result.num_shards
        assert result.num_shards == len(self.DECK)

    def test_raise_policy_fails_on_the_first_attempt(self, stream_sites):
        config = make_stream_config(
            shard_size=1, workers=2, retry=RetryPolicy(max_retries=5), on_shard_failure="raise",
        )
        with pytest.raises(StreamShardError) as caught:
            _RaisingShardEngine(stream_sites, config, raise_on=3).run(self.DECK)
        assert caught.value.shard_index == 3
        assert caught.value.attempts == 1


# --------------------------------------------------------------------------- #
# campaign-level resume through the runtime
# --------------------------------------------------------------------------- #
class TestStreamingCampaignRuntime:
    def test_faulted_campaign_resumes_at_shard_granularity(self, workbench, stream_sites, tmp_path):
        from repro.runtime import CampaignRuntime, RuntimeConfig, StageFailure

        config = CampaignConfig(
            sites=stream_sites, shard_size=1, top_k=5, fusion_batch_size=1, **CAMPAIGN_KWARGS
        )
        campaign = ScreeningCampaign(workbench.coherent_fusion, workbench.featurizer, config)
        # seed 5: shards 0-1 draw no fault, shard 2 does — so at least two
        # shards deterministically fold (and checkpoint) before the failure
        # propagates, regardless of worker scheduling
        faulty = campaign.runtime(
            RuntimeConfig(
                checkpoint_dir=str(tmp_path / "ckpt"),
                retry=RetryPolicy(max_retries=0),
                fault_injector=FaultInjector.uniform(0.5, seed=5),
                max_workers=2,
            )
        )
        with pytest.raises(StageFailure):
            faulty.run()
        report = faulty.report.stage("streamed_screen")
        folded = report.extra["stream"]["shards_executed"]
        assert folded > 0  # partial progress was persisted
        # the kept failure report carries the fault history, like every
        # other stage's does
        assert report.attempts > 0 and report.faults

        resumed = campaign.runtime(
            RuntimeConfig(checkpoint_dir=str(tmp_path / "ckpt"), max_workers=2)
        )
        result = resumed.run()
        assert result is not None
        stream_report = resumed.report.stage("streamed_screen").extra["stream"]
        assert stream_report["shards_restored"] == folded
        assert stream_report["shards_executed"] == stream_report["num_shards"] - folded
        # a third run restores the whole stage without touching shards
        third = campaign.runtime(RuntimeConfig(checkpoint_dir=str(tmp_path / "ckpt"), max_workers=2))
        third.run()
        assert third.report.stage("streamed_screen").restored

    def test_streamed_store_layout_roundtrips(self, streaming_campaign, stream_sites):
        assert len(streaming_campaign.job_results) == len(stream_sites)
        for job in streaming_campaign.job_results:
            stored = read_predictions(job.store, job.site_name)
            assert stored.keys() == job.predictions.keys()
            ids, scores = read_topk(job.store, job.site_name)
            entries = streaming_campaign.topk[job.site_name]
            assert ids == [e.compound_id for e in entries]
            assert np.array_equal(scores, np.array([e.score for e in entries]))
            stats = streaming_campaign.stream_stats[job.site_name]
            assert job.store.attrs(f"topk/{job.site_name}")["count"] == stats["count"]

    def test_job_predictions_are_the_streamed_records_fusion_scores(self, streaming_campaign):
        database = streaming_campaign.database
        for job in streaming_campaign.job_results:
            expected = {
                (r.compound_id, r.pose_id): r.fusion_pk
                for r in database.records()
                if r.site_name == job.site_name
            }
            assert expected and job.predictions == expected

    def test_collected_records_rank_exactly_like_the_fold(
        self, workbench, stream_sites, stream_deck, stream_matrix
    ):
        """Retaining records changes nothing the fold computes, and the
        records hold every scored pose: their best pose per compound
        reproduces the streamed top-K."""
        engine = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, make_stream_config(7, 1)
        )
        result = engine.run(stream_deck.molecules, collect_records=True)
        plain = stream_matrix[(7, 1, "thread")]
        assert plain.records is None
        keys = [(r.site_name, r.compound_id, r.pose_id) for r in result.records]
        assert len(keys) == len(set(keys))
        for site in stream_sites:
            assert np.array_equal(result.topk_arrays(site)[0], plain.topk_arrays(site)[0])
            assert np.array_equal(result.topk_arrays(site)[1], plain.topk_arrays(site)[1])
            best: dict[str, float] = {}
            for record in result.records:
                if record.site_name == site:
                    best[record.compound_id] = max(best.get(record.compound_id, -math.inf), record.fusion_pk)
            reference = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            assert [(e.compound_id, e.score) for e in result.top_k[site]] == reference


# --------------------------------------------------------------------------- #
# streaming library
# --------------------------------------------------------------------------- #
class TestStreamingLibrary:
    def test_per_index_generation_is_slice_invariant(self):
        library = make_streaming_library("enamine", size=1_000_000, seed=9)
        assert len(library) == 1_000_000
        window = library.generate_range(500_000, 500_003)
        assert [m.name for m in window] == [library.compound_name(i) for i in range(500_000, 500_003)]
        for offset, molecule in enumerate(window):
            alone = library.compound(500_000 + offset)
            assert np.array_equal(molecule.coordinates, alone.coordinates)

    def test_bounds_and_errors(self):
        library = make_streaming_library("emolecules", size=10, seed=1)
        clipped, full = library.generate_range(8, 99), library.generate_range(8, 10)
        assert [m.name for m in clipped] == [m.name for m in full]
        assert all(np.array_equal(a.coordinates, b.coordinates) for a, b in zip(clipped, full))
        with pytest.raises(IndexError):
            library.compound(10)
        with pytest.raises(KeyError):
            make_streaming_library("nope", size=5)

    def test_streaming_screen_accepts_lazy_library(self, workbench, stream_sites):
        library = make_streaming_library("enamine", size=5, seed=SEED)
        config = make_stream_config(shard_size=2, workers=2, fusion_batch_size=0)
        result = StreamingScreen(
            workbench.coherent_fusion, workbench.featurizer, stream_sites, config
        ).run(library)
        assert result.num_compounds == 5
        assert result.num_shards == 3


# --------------------------------------------------------------------------- #
# memory: a screen keeps nothing per pose
# --------------------------------------------------------------------------- #
MEMORY_COMPOUNDS = 4


class TestScreenMemory:
    def test_retained_memory_does_not_grow_with_the_library(
        self, workbench, stream_sites, pose_complexes
    ):
        """Screening 4N compounds retains no more than screening N: pose
        batches bypass the feature cache, so no featurized pose outlives
        its shard."""
        featurizer = copy.deepcopy(workbench.featurizer)  # same config, empty ledger
        sample = featurizer.featurize_many(pose_complexes[:1])[0]
        one_pose = entry_nbytes(sample.voxel, sample.graph)
        config = make_stream_config(shard_size=4, fusion_batch_size=0)

        def retained_after(compounds: int) -> int:
            library = make_streaming_library("enamine", size=compounds, seed=SEED)
            result = StreamingScreen(
                workbench.coherent_fusion, featurizer, stream_sites, config
            ).run(library)
            assert result.num_compounds == compounds
            del result
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            small = retained_after(MEMORY_COMPOUNDS)
            large = retained_after(4 * MEMORY_COMPOUNDS)
        finally:
            tracemalloc.stop()

        assert featurizer.stats().lookups == 0
        # far less than the features of 3N poses (the extra 3N compounds
        # dock 12N poses over the two sites)
        assert large - small < 3 * MEMORY_COMPOUNDS * one_pose / 4, (
            f"screening {3 * MEMORY_COMPOUNDS} more compounds retained "
            f"{(large - small) / 2**20:.2f} MB more (one pose's features: {one_pose / 2**20:.2f} MB)"
        )


# --------------------------------------------------------------------------- #
# hypothesis: top-K selector vs full-sort reference
# --------------------------------------------------------------------------- #
scores_strategy = st.one_of(
    st.floats(min_value=-100, max_value=100),
    st.sampled_from([0.0, -0.0, 1.5, 1.5, math.inf, -math.inf, math.nan]),
)
offers_strategy = st.lists(
    st.tuples(st.sampled_from([f"CMP-{i}" for i in range(12)]), scores_strategy), max_size=60
)


class TestTopKSelectorProperties:
    @given(offers=offers_strategy, k=st.integers(min_value=0, max_value=70))
    @settings(max_examples=120, deadline=None)
    def test_matches_full_sort_reference(self, offers, k):
        selector = TopKSelector(k)
        for compound_id, score in offers:
            selector.offer(compound_id, score)
        assert selector.ranking() == topk_by_full_sort(offers, k)

    @given(offers=offers_strategy, k=st.integers(min_value=0, max_value=20), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_offer_order_is_irrelevant(self, offers, k, seed):
        shuffled = list(offers)
        random.Random(seed).shuffle(shuffled)
        a, b = TopKSelector(k), TopKSelector(k)
        for compound_id, score in offers:
            a.offer(compound_id, score)
        for compound_id, score in shuffled:
            b.offer(compound_id, score)
        assert a.ranking() == b.ranking()

    @given(offers=offers_strategy)
    @settings(max_examples=40, deadline=None)
    def test_k_at_least_stream_length_keeps_every_compound(self, offers):
        k = len(offers) + 3
        selector = TopKSelector(k)
        for compound_id, score in offers:
            selector.offer(compound_id, score)
        finite_ids = {cid for cid, s in offers if not math.isnan(s)}
        assert {entry.compound_id for entry in selector.ranking()} == finite_ids

    @given(offers=offers_strategy, k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_no_duplicates_and_deterministic_tie_order(self, offers, k):
        selector = TopKSelector(k)
        for compound_id, score in offers:
            selector.offer(compound_id, score)
        ranking = selector.ranking()
        ids = [entry.compound_id for entry in ranking]
        assert len(set(ids)) == len(ids)
        keys = [(-entry.score, entry.compound_id) for entry in ranking]
        assert keys == sorted(keys)

    def test_nan_policies(self):
        dropping = TopKSelector(3)
        assert not dropping.offer("a", math.nan)
        assert dropping.nan_dropped == 1
        with pytest.raises(ValueError):
            TopKSelector(3, nan_policy="raise").offer("a", math.nan)
        with pytest.raises(ValueError):
            TopKSelector(-1)
        with pytest.raises(ValueError):
            TopKSelector(3, nan_policy="whatever")

    def test_threshold_tracks_kth_member(self):
        selector = TopKSelector(2)
        assert selector.threshold() == -math.inf
        selector.offer("a", 1.0)
        selector.offer("b", 5.0)
        assert selector.threshold() == 1.0
        selector.offer("c", 3.0)
        assert selector.threshold() == 3.0
        assert len(selector) == 2


# --------------------------------------------------------------------------- #
# hypothesis: shard partitioning
# --------------------------------------------------------------------------- #
class TestShardPartitionProperties:
    @given(total=st.integers(min_value=0, max_value=500), shard_size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_every_compound_in_exactly_one_shard(self, total, shard_size):
        bounds = shard_bounds(total, shard_size)
        indices = [i for start, stop in bounds for i in range(start, stop)]
        assert indices == list(range(total))
        assert all(1 <= stop - start <= shard_size for start, stop in bounds)

    @given(
        total=st.integers(min_value=0, max_value=300),
        size_a=st.integers(min_value=1, max_value=50),
        size_b=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_is_shard_size_independent(self, total, size_a, size_b):
        cover = lambda size: [i for s, e in shard_bounds(total, size) for i in range(s, e)]
        assert cover(size_a) == cover(size_b)

    def test_degenerate_inputs(self):
        assert shard_bounds(0, 8) == []
        assert shard_bounds(3, 100) == [(0, 3)]
        with pytest.raises(ValueError):
            shard_bounds(5, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 4)
        with pytest.raises(ValueError):
            shard_bounds(5.5, 2)


# --------------------------------------------------------------------------- #
# exact streaming statistics
# --------------------------------------------------------------------------- #
class TestStreamingStats:
    @given(
        values=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=80),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_accumulation_order_cannot_move_a_bit(self, values, seed):
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        a, b = StreamingStats(), StreamingStats()
        for v in values:
            a.add(v)
        for v in shuffled:
            b.add(v)
        assert np.array_equal(stats_array(a), stats_array(b), equal_nan=True)

    @given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_mean_is_correctly_rounded(self, values):
        stats = StreamingStats()
        for v in values:
            stats.add(v)
        assert stats.mean == math.fsum(values) / len(values)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_exact_sum_defeats_naive_accumulation(self):
        # 1e16 + lots of 1.0 — naive accumulation loses every unit
        acc = ExactSum()
        acc.add(1e16)
        for _ in range(10):
            acc.add(1.0)
        acc.add(-1e16)
        assert acc.value == 10.0

    def test_nan_and_empty_behaviour(self):
        stats = StreamingStats()
        assert math.isnan(stats.mean) and math.isnan(stats.std)
        stats.add(float("nan"))
        assert stats.count == 0 and stats.nan_count == 1
        stats.add(2.0)
        assert stats.std == 0.0 and stats.variance == 0.0
