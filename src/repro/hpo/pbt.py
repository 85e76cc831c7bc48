"""Population Based Training (Jaderberg et al. 2017) — the baseline PB2 improves on."""

from __future__ import annotations

from typing import Any

from repro.hpo.space import Boolean, Choice, SearchSpace, Uniform
from repro.hpo.trial import Trial
from repro.utils.rng import ensure_rng


class PBTScheduler:
    """Exploit/explore decisions of classic population-based training.

    At each perturbation interval the bottom ``quantile_fraction`` of
    trials clone a top trial's weights and configuration; exploration
    multiplies continuous hyper-parameters by 0.8 or 1.2 and resamples
    categorical hyper-parameters with a small probability.
    """

    def __init__(
        self,
        space: SearchSpace,
        quantile_fraction: float = 0.5,
        resample_probability: float = 0.25,
        perturbation_factors: tuple[float, float] = (0.8, 1.2),
        seed: int = 0,
    ) -> None:
        if not 0.0 < quantile_fraction <= 0.5:
            raise ValueError("quantile_fraction must be in (0, 0.5]")
        self.space = space
        self.quantile_fraction = float(quantile_fraction)
        self.resample_probability = float(resample_probability)
        self.perturbation_factors = tuple(perturbation_factors)
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    def split_population(self, trials: list[Trial]) -> tuple[list[Trial], list[Trial]]:
        """Return (top, bottom) trials by current score (lower = better)."""
        ranked = sorted(trials, key=lambda t: t.score)
        k = max(1, int(round(self.quantile_fraction * len(ranked))))
        return ranked[:k], ranked[-k:]

    def needs_perturbation(self, trial: Trial, trials: list[Trial]) -> bool:
        """Whether ``trial`` is in the bottom quantile and should exploit."""
        _top, bottom = self.split_population(trials)
        return any(t.trial_id == trial.trial_id for t in bottom)

    def choose_donor(self, trial: Trial, trials: list[Trial]) -> Trial:
        """Pick a top-quantile trial to clone."""
        top, _bottom = self.split_population(trials)
        candidates = [t for t in top if t.trial_id != trial.trial_id] or top
        return candidates[int(self._rng.integers(0, len(candidates)))]

    # ------------------------------------------------------------------ #
    def explore(self, trial: Trial, donor: Trial, trials: list[Trial]) -> dict[str, Any]:
        """New configuration for ``trial`` derived from ``donor``'s configuration."""
        config = dict(donor.config)
        for name, dim in self.space.dimensions.items():
            if name not in config:
                continue
            if isinstance(dim, Uniform):
                factor = float(self._rng.choice(self.perturbation_factors))
                config[name] = dim.clip(config[name] * factor)
            elif isinstance(dim, (Choice, Boolean)):
                if self._rng.random() < self.resample_probability:
                    config[name] = dim.sample(self._rng)
        return self.space.clip(config)
