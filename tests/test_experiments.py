"""Integration tests: the experiment drivers regenerate every table/figure artefact."""

import numpy as np
import pytest

from repro.experiments import ablations, figure2, figure4, figure5, figure6, figure7, table6, table7, table8, tables2to5
from repro.experiments.common import PAPER_TABLE6, build_workbench


class TestWorkbench:
    def test_workbench_contents(self, workbench):
        assert len(workbench.train_samples) > 0
        assert len(workbench.core_samples) == len(workbench.dataset.core)
        assert set(workbench.models()) == {"Mid-level Fusion", "Late Fusion", "Coherent Fusion", "3D-CNN", "SG-CNN"}
        assert set(workbench.histories) == {"cnn3d", "sgcnn", "mid_fusion", "coherent_fusion"}
        for history in workbench.histories.values():
            assert history.epochs_run >= 1
            assert np.isfinite(history.val_losses).all()

    def test_workbench_cached(self, workbench):
        again = build_workbench("tiny")
        assert again is workbench


class TestTable6:
    def test_rows_and_metrics(self, workbench):
        rows = table6.run_table6(workbench)
        assert set(PAPER_TABLE6) - {"Pafnucy", "KDeep"} <= set(rows)
        for metrics in rows.values():
            assert set(metrics) == {"rmse", "mae", "r2", "pearson", "spearman"}
            assert metrics["rmse"] >= metrics["mae"] >= 0.0
        claims = table6.qualitative_claims(rows)
        assert set(claims) >= {"coherent_best_rmse", "late_beats_mid", "fusion_beats_heads"}
        text = table6.render(rows)
        assert "Coherent Fusion" in text and "paper RMSE" in text


class TestFigure2:
    def test_docked_core_set_analysis(self, workbench):
        result = figure2.run_figure2(workbench, poses_per_compound=3, rmsd_filter=10.0)
        assert result.num_compounds > 0
        assert set(result.correlations) == {"vina", "mmgbsa", "coherent_fusion"}
        for value in result.correlations.values():
            assert -1.0 <= value <= 1.0
        assert result.paper_correlations["coherent_fusion"] == pytest.approx(0.745)
        claims = figure2.qualitative_claims(result)
        assert "fusion_beats_vina" in claims

    def test_empty_rmsd_filter_raises_before_metrics(self, workbench, monkeypatch):
        def no_metrics(*args):
            raise AssertionError("a metric was computed on an empty core set")

        monkeypatch.setattr(figure2, "pearson_r", no_metrics)
        with pytest.raises(ValueError, match=r"rmsd_filter=-1\.0: (\d+) of \d+ compounds docked and all \1 were dropped"):
            figure2.run_figure2(workbench, poses_per_compound=1, rmsd_filter=-1.0)


class TestTable7AndFigure4:
    def test_table7(self):
        rows = table7.run_table7()
        claims = table7.qualitative_claims(rows)
        assert claims["peak_over_100x_single"]
        assert claims["vina_speedup_2_to_3x"]
        assert claims["mmgbsa_speedup_over_300x"]
        assert claims["single_job_about_5_hours"]
        assert "Table 7" in table7.render(rows)

    def test_figure4_modelled(self):
        result = figure4.run_figure4(measure=False)
        claims = figure4.qualitative_claims(result)
        assert all(claims.values()), claims
        assert result.failure_rates[8] == pytest.approx(0.20)

    def test_figure4_measured_scaling(self, workbench):
        result = figure4.run_figure4(workbench, measure=True, measured_poses=8)
        assert result.measured
        for batch, rows in result.measured.items():
            assert len(rows) == 3
            assert all(t > 0 for _r, t in rows)


class TestCampaignAnalyses:
    def test_figure5_series(self, workbench, campaign):
        series = figure5.run_figure5(workbench, campaign)
        assert set(series) == set(campaign.selections)
        claims = figure5.qualitative_claims(series)
        assert claims["all_four_targets_present"]
        assert claims["protease_at_100um"]
        assert claims["spike_at_10um"]
        for s in series.values():
            assert len(s.predicted_pk) == len(s.percent_inhibition) == s.num_points

    def test_table8_rows(self, workbench, campaign):
        rows = table8.run_table8(workbench, campaign)
        methods = {r.method for r in rows}
        targets = {r.target for r in rows}
        assert methods == {"Vina", "AMPL MM/GBSA", "Coherent Fusion"}
        assert targets == set(campaign.selections)
        text = table8.render(rows)
        assert "Coherent Fusion" in text
        claims = table8.qualitative_claims(rows)
        assert "correlations_are_low" in claims

    def test_figure6_classification(self, workbench, campaign):
        result = figure6.run_figure6(workbench, campaign)
        assert result.threshold == 33.0
        assert set(result.counts) == set(campaign.selections)
        stats = figure6.hit_statistics(campaign)
        assert stats["num_tested"] == len(campaign.assays.results)
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_figure7_top_compounds(self, workbench, campaign):
        compounds = figure7.run_figure7(workbench, campaign, sites=tuple(campaign.selections)[:2], top_per_site=2)
        claims = figure7.qualitative_claims(compounds)
        assert claims["has_compounds"]
        text = figure7.render(compounds)
        assert "Figure 7" in text


class TestHPOAndAblations:
    def test_table1_summary(self):
        summary = tables2to5.table1_search_space_summary()
        assert set(summary) == {"3D-CNN", "SG-CNN", "Fusion"}
        assert "learning_rate" in summary["Fusion"]
        assert summary["Fusion"]["optimizer"].startswith("choice")

    def test_scaled_down_sgcnn_hpo(self, workbench):
        outcome = tables2to5.optimize_sgcnn(workbench, population=2, epochs=2, interval=1, seed=0)
        assert np.isfinite(outcome.best_score)
        assert "learning_rate" in outcome.best_config
        assert outcome.paper_config["learning_rate"] == pytest.approx(2.66e-3)

    def test_quintile_vs_random_split_ablation(self, workbench):
        result = ablations.quintile_vs_random_split(workbench)
        assert result["quintile_bins_covered"] >= result["random_bins_covered"]
        assert result["quintile_min_bin_coverage"] >= 0.0

    def test_rotation_invariance_probe(self, workbench):
        delta = ablations.rotation_invariance_probe(workbench, num_samples=3)
        assert np.isfinite(delta) and delta >= 0.0

    def test_pretrained_vs_scratch_ablation(self, workbench):
        result = ablations.pretrained_vs_scratch(workbench, epochs=1)
        assert np.isfinite(result.variant_loss) and np.isfinite(result.baseline_loss)
        assert result.name == "pretrained_vs_scratch"
