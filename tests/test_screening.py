"""Tests for partitioning, scoring jobs, output format, cost function, throughput and the campaign."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpc.h5store import H5Store
from repro.screening.costfunction import CompoundCostFunction
from repro.screening.job import FusionScoringJob
from repro.screening.output import read_predictions, write_job_output
from repro.screening.partition import partition_evenly, partition_poses_into_jobs
from repro.screening.throughput import figure4_series, speedup_summary, table7_rows


class TestPartitioning:
    def test_partition_evenly_sizes(self):
        chunks = partition_evenly(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert sum(chunks, []) == list(range(10))

    def test_partition_with_more_parts_than_items(self):
        chunks = partition_evenly([1, 2], 4)
        assert [len(c) for c in chunks] == [1, 1, 0, 0]

    def test_partition_degenerate_cases(self):
        # empty input still yields num_parts (empty) chunks: idle MPI
        # ranks participate in the collectives
        assert partition_evenly([], 3) == [[], [], []]
        # a generator input is materialized once, not consumed twice
        assert partition_evenly(iter(range(4)), 2) == [[0, 1], [2, 3]]
        with pytest.raises(ValueError):
            partition_evenly([1, 2], -1)
        with pytest.raises(ValueError):
            partition_evenly([1, 2], 2.5)
        # bool is an int subtype; True == 1 part is accepted
        assert partition_evenly([1, 2], True) == [[1, 2]]

    def test_partition_into_jobs(self):
        jobs = partition_poses_into_jobs(list(range(7)), poses_per_job=3)
        assert [len(j) for j in jobs] == [3, 3, 1]
        assert partition_poses_into_jobs([], poses_per_job=5) == [[]]
        with pytest.raises(ValueError):
            partition_evenly([1], 0)
        with pytest.raises(ValueError):
            partition_poses_into_jobs([1], 0)

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_partition_preserves_order_and_items(self, items, parts):
        chunks = partition_evenly(items, parts)
        assert len(chunks) == parts
        assert sum(chunks, []) == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestOutputFormat:
    def test_write_and_read_roundtrip(self):
        store = H5Store()
        write_job_output(store, "protease1", ["c1", "c2"], [0, 1], np.array([7.5, 6.0]),
                         job_name="job0/rank0", timings={"startup": 2.0})
        write_job_output(store, "protease1", ["c3"], [0], np.array([5.0]), job_name="job0/rank1")
        predictions = read_predictions(store, "protease1")
        assert predictions[("c1", 0)] == 7.5
        assert predictions[("c3", 0)] == 5.0
        assert len(predictions) == 3
        assert store.attrs("dock/protease1/job0/rank0")["startup"] == 2.0

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            write_job_output(H5Store(), "s", ["a"], [0, 1], np.array([1.0]))

    def test_read_missing_site_empty(self):
        assert read_predictions(H5Store(), "nowhere") == {}


class TestFusionScoringJob:
    def test_job_scores_all_poses_and_mirrors_output(self, workbench, campaign):
        site_name = campaign.database.sites()[0]
        records = [r for r in campaign.database.records() if r.site_name == site_name][:10]
        job = FusionScoringJob(
            model=workbench.coherent_fusion,
            featurizer=workbench.featurizer,
            site=campaign.sites[site_name],
            records=records,
            num_nodes=2,
            gpus_per_node=2,
            batch_size_per_rank=4,
            job_name="unit-job",
        )
        result = job.run(use_threads=False)
        assert result.num_poses == len(records)
        assert set(result.timings) == {"startup", "evaluation", "output"}
        assert result.num_ranks == 4
        assert result.modelled is not None  # paper-scale estimate of this job geometry
        # the HDF5-like store mirrors every prediction
        stored = read_predictions(result.store, result.site_name)
        assert len(stored) == len(records)
        for record in records:
            assert np.isfinite(record.fusion_pk)
            assert stored[(record.compound_id, record.pose_id)] == pytest.approx(record.fusion_pk)

    def test_threaded_execution_matches_sequential(self, workbench, campaign):
        site_name = campaign.database.sites()[0]
        records = [r for r in campaign.database.records() if r.site_name == site_name][:6]
        site = campaign.sites[site_name]

        def run(use_threads):
            job = FusionScoringJob(
                model=workbench.coherent_fusion, featurizer=workbench.featurizer, site=site,
                records=records, num_nodes=1, gpus_per_node=4, batch_size_per_rank=4,
            )
            return job.run(use_threads=use_threads).predictions

        sequential = run(False)
        threaded = run(True)
        assert sequential.keys() == threaded.keys()
        for key in sequential:
            assert sequential[key] == pytest.approx(threaded[key], abs=1e-9)

    def test_modelled_estimate_uses_throughput_model(self, workbench, campaign):
        site = campaign.sites[campaign.database.sites()[0]]
        records = [r for r in campaign.database.records()][:4]
        job = FusionScoringJob(workbench.coherent_fusion, workbench.featurizer, site, records, num_nodes=4, batch_size_per_rank=56)
        estimate = job.modelled_estimate(num_poses=2_000_000)
        assert 4.5 <= estimate.total_hours <= 6.0

    def test_geometry_validation(self, workbench, sarscov2_sites):
        site = list(sarscov2_sites.values())[0]
        with pytest.raises(ValueError):
            FusionScoringJob(workbench.coherent_fusion, workbench.featurizer, site, [], num_nodes=0)


class TestCostFunction:
    def test_selection_prefers_better_scores(self, campaign):
        site = campaign.database.sites()[0]
        cost = CompoundCostFunction()
        scores = cost.score_site(campaign.database, site)
        assert len(scores) == len(campaign.database.compounds(site))
        combined = [s.combined for s in scores]
        assert combined == sorted(combined, reverse=True)
        top = cost.select_top(campaign.database, site, 3)
        assert len(top) == 3
        assert top[0].combined >= top[-1].combined
        with pytest.raises(ValueError):
            cost.select_top(campaign.database, site, 0)

    def test_fusion_weight_changes_ranking(self, campaign):
        site = campaign.database.sites()[0]
        fusion_heavy = CompoundCostFunction(fusion_weight=5.0, vina_weight=0.0, mmgbsa_weight=0.0, druglikeness_weight=0.0, lipinski_penalty=0.0)
        ranking = [s.compound_id for s in fusion_heavy.score_site(campaign.database, site)]
        best_by_fusion = max(
            campaign.database.compounds(site),
            key=lambda c: campaign.database.best_pose(site, c, by="fusion").fusion_pk
            if campaign.database.best_pose(site, c, by="fusion") else -np.inf,
        )
        assert ranking[0] == best_by_fusion


class TestThroughputReports:
    def test_table7_rows_structure(self):
        rows = table7_rows()
        assert set(rows) == {"single_job", "peak"}
        assert rows["peak"]["poses_per_second"] > rows["single_job"]["poses_per_second"]
        assert rows["single_job"]["avg_startup_minutes"] == pytest.approx(20.0)

    def test_figure4_series_structure(self):
        series = figure4_series(node_counts=(1, 2, 4), batch_sizes=(12, 56))
        assert set(series) == {12, 56}
        for batch, rows in series.items():
            nodes = [n for n, _t in rows]
            times = [t for _n, t in rows]
            assert nodes == [1, 2, 4]
            assert times == sorted(times, reverse=True)

    def test_speedup_summary(self):
        speedups = speedup_summary()
        assert 2.0 <= speedups["fusion_vs_vina"] <= 3.5
        assert speedups["fusion_vs_mmgbsa"] >= 300


class TestCampaignPipeline:
    def test_campaign_end_to_end(self, campaign):
        summary = campaign.summary()
        assert summary["num_poses_scored"] > 0
        assert summary["num_sites"] == 4
        assert summary["num_tested"] > 0
        # every selected compound received an assay measurement
        for site, selection in campaign.selections.items():
            for score in selection:
                assert campaign.assays.inhibition_of(site, score.compound_id) is not None
        # fusion predictions were written into the docking database
        scored = [r for r in campaign.database.records() if np.isfinite(r.fusion_pk)]
        assert len(scored) == len(campaign.database.records())
        assert 0.0 <= campaign.hit_rate() <= 1.0

    def test_campaign_has_ampl_models_and_structural_pk(self, campaign):
        assert len(campaign.ampl_models) >= 1
        for site, mapping in campaign.structural_pk.items():
            for compound, pk in mapping.items():
                assert 0.0 <= pk <= 14.0

    def test_job_results_report_timings(self, campaign):
        # one streamed result per site; the paper-scale LSF estimate
        # belongs to FusionScoringJob results (TestFusionScoringJob)
        assert sorted(r.site_name for r in campaign.job_results) == sorted(campaign.sites)
        for result in campaign.job_results:
            assert result.timings["evaluation"] >= 0.0
