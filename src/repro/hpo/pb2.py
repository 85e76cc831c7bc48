"""Population-Based Bandits (PB2).

PB2 (Parker-Holder et al. 2020) replaces PBT's random exploration with a
provably-efficient time-varying GP bandit: when a bottom-quantile trial
exploits a top performer, the new continuous hyper-parameters are chosen
by maximizing a UCB acquisition on a GP fitted to the recent population
history (hyper-parameters, time, objective improvement).  Categorical
hyper-parameters fall back to PBT-style resampling.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.hpo.gp import TimeVaryingGP
from repro.hpo.pbt import PBTScheduler
from repro.hpo.space import Boolean, Choice, SearchSpace, Uniform
from repro.hpo.trial import Trial
from repro.utils.rng import ensure_rng


class PB2Scheduler(PBTScheduler):
    """PB2 exploit/explore scheduler.

    Parameters
    ----------
    space:
        The search space; only its continuous (``Uniform``) dimensions are
        optimized by the GP bandit.
    quantile_fraction:
        λ% of the paper (0.5): trials below this quantile exploit/explore.
    num_candidates:
        Number of candidate configurations scored by the acquisition.
    ucb_kappa:
        Exploration constant of the UCB acquisition.
    """

    def __init__(
        self,
        space: SearchSpace,
        quantile_fraction: float = 0.5,
        resample_probability: float = 0.25,
        num_candidates: int = 64,
        ucb_kappa: float = 1.5,
        seed: int = 0,
    ) -> None:
        super().__init__(
            space,
            quantile_fraction=quantile_fraction,
            resample_probability=resample_probability,
            seed=seed,
        )
        self.num_candidates = int(num_candidates)
        self.ucb_kappa = float(ucb_kappa)
        self._rng = ensure_rng(seed)
        # population history of (unit hyper-parameter vector, time, improvement)
        self._observations: list[tuple[np.ndarray, float, float]] = []

    # ------------------------------------------------------------------ #
    def record_interval(self, trial: Trial, epoch: int, previous_score: float, new_score: float) -> None:
        """Record the objective change produced by training one interval under ``trial.config``.

        The GP models *improvement* (previous - new validation loss; higher
        is better) as a function of the hyper-parameters and time.
        """
        if not np.isfinite(previous_score) or not np.isfinite(new_score):
            return
        vector = self.space.to_unit_vector(trial.config)
        if vector.size == 0:
            return
        improvement = float(previous_score - new_score)
        self._observations.append((vector, float(epoch), improvement))

    # ------------------------------------------------------------------ #
    def explore(self, trial: Trial, donor: Trial, trials: list[Trial]) -> dict[str, Any]:
        """GP-bandit exploration of the continuous dimensions (PB2's key step)."""
        config = dict(donor.config)
        continuous = self.space.continuous_names()

        # categorical dimensions: PBT-style occasional resampling
        for name, dim in self.space.dimensions.items():
            if name in config and isinstance(dim, (Choice, Boolean)):
                if self._rng.random() < self.resample_probability:
                    config[name] = dim.sample(self._rng)

        if not continuous:
            return self.space.clip(config)

        if len(self._observations) < 4:
            # not enough data for the GP yet: perturb like PBT
            return super().explore(trial, donor, trials)

        x = np.array([obs[0] for obs in self._observations])
        t = np.array([obs[1] for obs in self._observations])
        y = np.array([obs[2] for obs in self._observations])
        gp = TimeVaryingGP()
        gp.fit(x, t, y)

        donor_vector = self.space.to_unit_vector(donor.config)
        current_time = float(max(trial.epoch, donor.epoch))
        candidates = self._candidate_vectors(donor_vector)
        acquisition = gp.ucb(candidates, np.full(len(candidates), current_time), kappa=self.ucb_kappa)
        best = candidates[int(np.argmax(acquisition))]
        config = self.space.from_unit_vector(best, config)
        return self.space.clip(config)

    def _candidate_vectors(self, donor_vector: np.ndarray) -> np.ndarray:
        """Candidate set: local perturbations of the donor plus global random points."""
        d = donor_vector.size
        n_local = self.num_candidates // 2
        local = donor_vector[None, :] + self._rng.normal(scale=0.15, size=(n_local, d))
        global_ = self._rng.random(size=(self.num_candidates - n_local, d))
        return np.clip(np.vstack([local, global_]), 0.0, 1.0)
