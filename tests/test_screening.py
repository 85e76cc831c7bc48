"""Tests for the output format, the fusion-scoring route, cost function, throughput and the campaign."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chem.complexes import ProteinLigandComplex
from repro.hpc.h5store import H5Store
from repro.hpc.performance import FusionThroughputModel
from repro.screening.costfunction import CompoundCostFunction
from repro.screening.job import JobResult
from repro.screening.output import write_job_output
from repro.screening.throughput import figure4_series, speedup_summary, table7_rows

from screening_oracle import read_predictions


class TestOutputFormat:
    def test_write_and_read_roundtrip(self):
        store = H5Store()
        write_job_output(store, "protease1", ["c1", "c2"], [0, 1], np.array([7.5, 6.0]), job_name="job0/rank0")
        write_job_output(store, "protease1", ["c3"], [0], np.array([5.0]), job_name="job0/rank1")
        predictions = read_predictions(store, "protease1")
        assert predictions[("c1", 0)] == 7.5
        assert predictions[("c3", 0)] == 5.0
        assert len(predictions) == 3
        assert store.groups("dock/protease1/job0") == ["rank0", "rank1"]
        assert store.attrs("dock/protease1/job0/rank0") == {}

    def test_job_output_is_the_three_arrays(self):
        store = H5Store()
        write_job_output(store, "protease1", ["c1"], [3], np.array([6.5]), job_name="job0")
        for name in ("compound_ids", "pose_ids", "fusion_pk"):
            assert f"dock/protease1/job0/{name}" in store
        assert len(store) == 3 and store.attrs("dock/protease1/job0") == {}
        with pytest.raises(TypeError):
            write_job_output(store, "protease1", ["c1"], [3], np.array([6.5]), timings={"evaluation": 1.0})

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            write_job_output(H5Store(), "s", ["a"], [0, 1], np.array([1.0]))

    def test_read_missing_site_empty(self):
        assert read_predictions(H5Store(), "nowhere") == {}


def _site_records(campaign, count):
    site_name = campaign.database.sites()[0]
    records = [r for r in campaign.database.records() if r.site_name == site_name][:count]
    return campaign.sites[site_name], records


def _score(workbench, site, records, chunk):
    """Featurize ``records`` with ``featurize_many`` and score them ``chunk`` poses per ``predict_batch``."""
    samples = workbench.featurizer.featurize_many(
        [ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id) for r in records]
    )
    scores = [workbench.coherent_fusion.predict_batch(samples[i : i + chunk]) for i in range(0, len(samples), chunk)]
    return np.concatenate(scores)


class TestFusionScoringRoute:
    """The campaign's one fusion-scoring route: ``featurize_many`` then ``predict_batch``."""

    def test_route_scores_site_records_and_mirrors_output(self, workbench, campaign):
        site, records = _site_records(campaign, 10)
        scores = _score(workbench, site, records, chunk=len(records))
        assert scores.shape == (len(records),) and np.all(np.isfinite(scores))
        store = H5Store()
        write_job_output(store, site.name, [r.compound_id for r in records], [r.pose_id for r in records],
                         scores, job_name="unit-job")
        # the HDF5-like store mirrors every prediction, each one the campaign's score
        stored = read_predictions(store, site.name)
        assert len(stored) == len(records)
        for record, score in zip(records, scores):
            assert stored[(record.compound_id, record.pose_id)] == score
            assert score == pytest.approx(record.fusion_pk, abs=1e-9)

    @pytest.mark.parametrize("chunk", [1, 3, 6])
    def test_predictions_do_not_depend_on_batch_grouping(self, workbench, campaign, chunk):
        # 6 poses scored one, three and six per predict_batch score as
        # they did in the campaign
        site, records = _site_records(campaign, 6)
        scores = _score(workbench, site, records, chunk)
        for record, score in zip(records, scores):
            assert score == pytest.approx(record.fusion_pk, abs=1e-9)


class TestJobResult:
    def test_fields_are_what_readers_use(self):
        # stage checkpoints pickle these fields; nothing else is carried
        assert [f.name for f in dataclasses.fields(JobResult)] == [
            "job_name", "site_name", "predictions", "store",
        ]

    def test_pickle_roundtrip_keeps_store_and_predictions(self):
        store = H5Store()
        write_job_output(store, "protease1", ["c1", "c2"], [0, 1], np.array([7.5, 6.0]))
        result = JobResult("protease1-stream", "protease1", {("c1", 0): 7.5, ("c2", 1): 6.0}, store)
        restored = pickle.loads(pickle.dumps(result))
        assert restored.predictions == result.predictions
        assert restored.num_poses == 2
        assert read_predictions(restored.store, "protease1") == result.predictions

    def test_num_poses_of_an_empty_site(self):
        assert JobResult("j", "s", {}, H5Store()).num_poses == 0

    def test_campaign_stores_mirror_job_predictions(self, campaign):
        for result in campaign.job_results:
            assert result.num_poses > 0
            assert read_predictions(result.store, result.site_name) == result.predictions


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

    def test_paper_scale_job_estimate(self):
        # one 2M-pose job on 4 nodes at the V100's batch of 56 (Table 7)
        estimate = FusionThroughputModel().estimate(num_poses=2_000_000, num_nodes=4, batch_size_per_rank=56)
        assert 4.5 <= estimate.total_minutes / 60 <= 6.0

    @pytest.mark.parametrize("num_poses, num_nodes", [(0, 4), (2_000_000, 0)])
    def test_job_estimate_rejects_empty_geometry(self, num_poses, num_nodes):
        with pytest.raises(ValueError):
            FusionThroughputModel().estimate(num_poses=num_poses, num_nodes=num_nodes, batch_size_per_rank=56)


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

    def test_job_results_one_per_site(self, campaign):
        # one streamed result per site, its store carrying no timing attributes
        assert sorted(r.site_name for r in campaign.job_results) == sorted(campaign.sites)
        for result in campaign.job_results:
            assert result.store.attrs(f"dock/{result.site_name}/{result.job_name}") == {}
