"""Correlation analyses of predictions against experimental outcomes (Table 8)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.metrics import pearson_r, spearman_r


@dataclass
class CorrelationRow:
    """One row of the Table 8 analysis: a (method, target) pair."""

    method: str
    target: str
    pearson: float
    spearman: float
    n: int


def per_target_correlations(
    predictions: dict[str, dict[str, np.ndarray]],
    observations: dict[str, np.ndarray],
    min_observation: float | None = None,
) -> list[CorrelationRow]:
    """Compute per-method, per-target correlations with experimental values.

    Parameters
    ----------
    predictions:
        ``method -> target -> prediction array`` (aligned with observations).
    observations:
        ``target -> experimental array`` (percent inhibition).
    min_observation:
        If given, only examples with observation strictly greater than this
        value are retained — the paper restricts Table 8 to compounds with
        >1 % inhibition so the sea of non-binders does not dominate.
    """
    rows: list[CorrelationRow] = []
    for method, per_target in predictions.items():
        for target, preds in per_target.items():
            if target not in observations:
                raise KeyError(f"no observations for target '{target}'")
            obs = np.asarray(observations[target], dtype=np.float64)
            preds = np.asarray(preds, dtype=np.float64)
            if obs.shape != preds.shape:
                raise ValueError(f"{method}/{target}: predictions and observations differ in length")
            mask = np.isfinite(obs) & np.isfinite(preds)
            if min_observation is not None:
                mask &= obs > min_observation
            obs_kept, preds_kept = obs[mask], preds[mask]
            if obs_kept.size < 2:
                rows.append(CorrelationRow(method, target, float("nan"), float("nan"), int(obs_kept.size)))
                continue
            rows.append(
                CorrelationRow(
                    method=method,
                    target=target,
                    pearson=pearson_r(obs_kept, preds_kept),
                    spearman=spearman_r(obs_kept, preds_kept),
                    n=int(obs_kept.size),
                )
            )
    return rows


def best_method_per_target(rows: list[CorrelationRow], by: str = "pearson") -> dict[str, str]:
    """Name of the best-correlated method for each target (ties broken by method name)."""
    best: dict[str, tuple[float, str]] = {}
    for row in rows:
        value = getattr(row, by)
        if np.isnan(value):
            continue
        current = best.get(row.target)
        if current is None or value > current[0] or (value == current[0] and row.method < current[1]):
            best[row.target] = (value, row.method)
    return {target: method for target, (_value, method) in best.items()}
