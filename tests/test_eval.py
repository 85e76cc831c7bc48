"""Tests for metrics, binary classification framing, correlation analyses and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.eval.classification import classify_by_threshold, evaluate_scores
from repro.eval.correlation import best_method_per_target, per_target_correlations
from repro.eval.metrics import (
    average_precision,
    best_f1_score,
    cohens_kappa,
    f1_score,
    mae,
    pearson_r,
    precision_recall_curve,
    r2_score,
    random_classifier_precision,
    regression_report,
    rmse,
    spearman_r,
)
from repro.eval.reports import format_table, render_pr_summary, render_series


class TestRegressionMetrics:
    def test_known_values(self):
        y = np.array([1.0, 2.0, 3.0])
        p = np.array([1.0, 2.0, 5.0])
        assert rmse(y, p) == pytest.approx(np.sqrt(4 / 3))
        assert mae(y, p) == pytest.approx(2 / 3)
        assert r2_score(y, y) == 1.0
        assert pearson_r(y, p) == pytest.approx(scipy_stats.pearsonr(y, p)[0])
        assert spearman_r(y, p) == pytest.approx(1.0)

    def test_perfect_and_constant_predictions(self):
        y = np.arange(10.0)
        assert rmse(y, y) == 0.0
        assert pearson_r(y, np.zeros(10)) == 0.0
        assert spearman_r(np.zeros(10), y) == 0.0
        assert r2_score(np.zeros(10), np.zeros(10)) == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rmse([1, 2], [1])
        with pytest.raises(ValueError):
            mae([], [])

    def test_regression_report_keys(self):
        report = regression_report(np.arange(5.0), np.arange(5.0) + 1)
        assert set(report) == {"rmse", "mae", "r2", "pearson", "spearman"}

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_rmse_at_least_mae(self, values):
        y = np.array(values)
        p = np.zeros_like(y)
        assert rmse(y, p) >= mae(y, p) - 1e-12
        assert rmse(y, p) >= 0


class TestClassificationMetrics:
    def test_f1_and_kappa_known_values(self):
        labels = np.array([1, 1, 0, 0], dtype=bool)
        predictions = np.array([1, 0, 0, 0], dtype=bool)
        assert f1_score(labels, predictions) == pytest.approx(2 / 3)
        assert cohens_kappa(labels, labels) == 1.0
        assert cohens_kappa(labels, ~labels) < 0.0
        assert f1_score(labels, np.zeros(4, dtype=bool)) == 0.0

    def test_precision_recall_curve_monotone_recall(self):
        rng = np.random.default_rng(0)
        labels = rng.random(50) < 0.3
        scores = labels * 1.0 + rng.normal(scale=0.5, size=50)
        precision, recall, thresholds = precision_recall_curve(labels, scores)
        assert np.all(np.diff(recall) >= -1e-12)
        assert recall[-1] == pytest.approx(1.0)
        assert len(precision) == len(recall) == len(thresholds)
        assert np.all((precision >= 0) & (precision <= 1))

    def test_perfect_scores_give_f1_one(self):
        labels = np.array([0, 0, 1, 1], dtype=bool)
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        f1, threshold = best_f1_score(labels, scores)
        assert f1 == 1.0
        assert average_precision(labels, scores) == pytest.approx(1.0)

    def test_random_classifier_precision(self):
        labels = np.array([1, 0, 0, 0], dtype=bool)
        assert random_classifier_precision(labels) == 0.25

    def test_kappa_of_random_guessing_near_zero(self):
        rng = np.random.default_rng(1)
        labels = rng.random(4000) < 0.3
        predictions = rng.random(4000) < 0.3
        assert abs(cohens_kappa(labels, predictions)) < 0.05

    def test_classify_by_threshold_excluded_middle(self):
        values = np.array([3.0, 5.5, 7.0, 9.0])
        labels, kept = classify_by_threshold(values, positive_threshold=8.0, negative_threshold=6.0)
        assert list(kept) == [0, 1, 3]
        assert list(labels) == [False, False, True]
        labels2, kept2 = classify_by_threshold(values, positive_threshold=6.0)
        assert len(kept2) == 4
        with pytest.raises(ValueError):
            classify_by_threshold(values, 5.0, 6.0)

    def test_evaluate_scores_summary(self):
        labels = np.array([1, 1, 0, 0, 0], dtype=bool)
        scores = np.array([0.9, 0.4, 0.5, 0.2, 0.1])
        result = evaluate_scores("demo", labels, scores)
        assert result.num_positive == 2 and result.num_negative == 3
        assert 0.0 <= result.f1 <= 1.0
        assert result.random_precision == pytest.approx(0.4)
        summary = result.summary()
        assert set(summary) >= {"f1", "average_precision", "kappa"}


class TestCorrelationAnalyses:
    def test_per_target_correlations_and_filter(self):
        observations = {"t1": np.array([0.5, 10.0, 40.0, 80.0]), "t2": np.array([0.0, 0.0, 50.0, 90.0])}
        predictions = {
            "m1": {"t1": np.array([1.0, 2.0, 3.0, 4.0]), "t2": np.array([4.0, 3.0, 2.0, 1.0])},
            "m2": {"t1": np.array([4.0, 3.0, 2.0, 1.0]), "t2": np.array([1.0, 2.0, 3.0, 4.0])},
        }
        rows = per_target_correlations(predictions, observations, min_observation=1.0)
        table = {(row.method, row.target): row for row in rows}
        assert table[("m1", "t1")].n == 3  # the 0.5 observation was filtered
        assert table[("m1", "t1")].pearson > 0
        assert table[("m2", "t1")].pearson < 0
        best = best_method_per_target(rows)
        assert best["t1"] == "m1"
        assert best["t2"] == "m2"

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            per_target_correlations({"m": {"t": np.array([1.0, 2.0])}}, {"t": np.array([1.0])})
        with pytest.raises(KeyError):
            per_target_correlations({"m": {"t": np.array([1.0])}}, {})

    def test_too_few_points_gives_nan(self):
        rows = per_target_correlations({"m": {"t": np.array([1.0, 2.0])}}, {"t": np.array([0.0, 0.5])}, min_observation=1.0)
        assert np.isnan(rows[0].pearson)


class TestReports:
    def test_format_table_alignment_and_nan(self):
        text = format_table(["a", "bb"], [["x", 1.23456], ["yy", float("nan")]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text and "-" in lines[-1]

    def test_render_pr_summary(self):
        labels = np.array([1, 0, 1, 0], dtype=bool)
        scores = np.array([0.9, 0.1, 0.8, 0.3])
        result = evaluate_scores("fusion", labels, scores)
        text = render_pr_summary({"fusion": result}, title="Figure 2")
        assert "fusion" in text and "Figure 2" in text

    def test_render_series(self):
        text = render_series("scaling", [1, 2, 4], [100.0, 60.0, 40.0], "nodes", "minutes")
        assert "scaling" in text and len(text.splitlines()) == 4
