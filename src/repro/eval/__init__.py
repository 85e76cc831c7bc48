"""Evaluation metrics and analyses used across the paper's tables and figures."""

from repro.eval.metrics import (
    cohens_kappa,
    f1_score,
    mae,
    pearson_r,
    precision_recall_curve,
    r2_score,
    regression_report,
    rmse,
    spearman_r,
)
from repro.eval.classification import (
    BinaryClassificationResult,
    classify_by_threshold,
    evaluate_scores,
)
from repro.eval.correlation import per_target_correlations
from repro.eval.reports import format_table, render_pr_summary

__all__ = [
    "rmse",
    "mae",
    "r2_score",
    "pearson_r",
    "spearman_r",
    "f1_score",
    "precision_recall_curve",
    "cohens_kappa",
    "regression_report",
    "BinaryClassificationResult",
    "classify_by_threshold",
    "evaluate_scores",
    "per_target_correlations",
    "format_table",
    "render_pr_summary",
]
