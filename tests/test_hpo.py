"""Tests for search spaces, the time-varying GP, PBT/PB2 schedulers, random search and the tune runner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpo.gp import TimeVaryingGP
from repro.hpo.pb2 import PB2Scheduler
from repro.hpo.pbt import PBTScheduler
from repro.hpo.random_search import RandomSearch
from repro.hpo.space import (
    Boolean,
    Choice,
    SearchSpace,
    Uniform,
    cnn3d_search_space,
    fusion_search_space,
    sgcnn_search_space,
)
from repro.hpo.trial import Trial, TrialState
from repro.hpo.tune import TuneConfig, TuneRunner
from repro.models.config import SGCNNConfig
from repro.models.sgcnn import SGCNN
from repro.models.train import Trainer, TrainerConfig


def toy_space():
    space = SearchSpace()
    space.add(Uniform("learning_rate", 1e-4, 1e-1, log=True))
    space.add(Uniform("dropout", 0.0 + 1e-3, 0.5))
    space.add(Choice("batch_size", (2, 4, 8)))
    space.add(Boolean("flag"))
    return space


class TestSearchSpace:
    def test_sampling_within_bounds(self):
        space = toy_space()
        rng = np.random.default_rng(0)
        for _ in range(50):
            config = space.sample(rng)
            assert 1e-4 <= config["learning_rate"] <= 1e-1
            assert config["batch_size"] in (2, 4, 8)
            assert isinstance(config["flag"], bool)

    def test_unit_vector_roundtrip(self):
        space = toy_space()
        config = space.sample(np.random.default_rng(1))
        vector = space.to_unit_vector(config)
        assert vector.shape == (2,)
        assert np.all((0 <= vector) & (vector <= 1))
        rebuilt = space.from_unit_vector(vector, config)
        assert rebuilt["learning_rate"] == pytest.approx(config["learning_rate"], rel=1e-9)

    def test_clip(self):
        space = toy_space()
        clipped = space.clip({"learning_rate": 10.0, "dropout": -1.0, "batch_size": 2, "flag": True})
        assert clipped["learning_rate"] == pytest.approx(1e-1)
        assert clipped["dropout"] == pytest.approx(1e-3)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Uniform("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            Uniform("x", -1.0, 1.0, log=True)
        with pytest.raises(ValueError):
            Choice("c", ())

    def test_paper_table1_spaces(self):
        cnn, sg, fusion = cnn3d_search_space(), sgcnn_search_space(), fusion_search_space()
        assert set(fusion["optimizer"].options) == {"adam", "adamw", "rmsprop", "adadelta"}
        assert fusion["batch_size"].options[-1] == 56
        assert sg["covalent_k"].options == (2, 3, 4, 5, 6, 7, 8)
        assert sg["noncovalent_threshold"].low == pytest.approx(1.2)
        assert cnn["dense_nodes"].options == (40, 64, 88, 104, 128)
        assert "pretrained" in fusion.names()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_log_uniform_positive(self, seed):
        dim = Uniform("lr", 1e-8, 1e-3, log=True)
        value = dim.sample(np.random.default_rng(seed))
        assert 1e-8 <= value <= 1e-3
        assert 0.0 <= dim.to_unit(value) <= 1.0


class TestTimeVaryingGP:
    def test_fit_predict_interpolates(self):
        rng = np.random.default_rng(0)
        x = rng.random((30, 2))
        t = np.arange(30.0)
        y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1]
        gp = TimeVaryingGP(noise=1e-4).fit(x, t, y)
        mean, std = gp.predict(x[:5], t[:5])
        np.testing.assert_allclose(mean, y[:5], atol=0.2)
        assert np.all(std >= 0)

    def test_uncertainty_larger_away_from_data(self):
        x = np.array([[0.5, 0.5]])
        gp = TimeVaryingGP().fit(x, np.array([0.0]), np.array([1.0]))
        _mean_near, std_near = gp.predict(np.array([[0.5, 0.5]]), np.array([0.0]))
        _mean_far, std_far = gp.predict(np.array([[0.0, 1.0]]), np.array([0.0]))
        assert std_far > std_near

    def test_ucb_prefers_high_mean_or_uncertainty(self):
        rng = np.random.default_rng(2)
        x = rng.random((20, 1))
        y = x[:, 0]
        gp = TimeVaryingGP(noise=1e-4).fit(x, np.zeros(20), y)
        acq = gp.ucb(np.array([[0.1], [0.9]]), np.zeros(2))
        assert acq[1] > acq[0]

    def test_validation(self):
        gp = TimeVaryingGP()
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((2, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            TimeVaryingGP(time_decay=0.0)


class TestSchedulers:
    def _population(self, scores):
        return [Trial(trial_id=i, config={"learning_rate": 1e-3, "dropout": 0.1, "batch_size": 4, "flag": True},
                      score=s, best_score=s) for i, s in enumerate(scores)]

    def test_split_and_perturbation_decision(self):
        scheduler = PBTScheduler(toy_space(), quantile_fraction=0.25, seed=0)
        trials = self._population([1.0, 2.0, 3.0, 4.0])
        top, bottom = scheduler.split_population(trials)
        assert top[0].score == 1.0 and bottom[0].score == 4.0
        assert scheduler.needs_perturbation(trials[3], trials)
        assert not scheduler.needs_perturbation(trials[0], trials)
        donor = scheduler.choose_donor(trials[3], trials)
        assert donor.score <= 2.0

    def test_pbt_explore_stays_in_bounds(self):
        scheduler = PBTScheduler(toy_space(), seed=1)
        trials = self._population([1.0, 2.0, 3.0, 4.0])
        config = scheduler.explore(trials[3], trials[0], trials)
        assert 1e-4 <= config["learning_rate"] <= 1e-1
        assert config["batch_size"] in (2, 4, 8)

    @staticmethod
    def _spy_gp_fits(monkeypatch) -> list[int]:
        """Record the number of observations every ``TimeVaryingGP.fit`` call sees."""
        fitted_rows: list[int] = []
        original_fit = TimeVaryingGP.fit

        def spying_fit(gp, x, t, y):
            fitted_rows.append(len(y))
            return original_fit(gp, x, t, y)

        monkeypatch.setattr(TimeVaryingGP, "fit", spying_fit)
        return fitted_rows

    def test_pb2_explore_uses_gp_after_enough_observations(self, monkeypatch):
        fitted_rows = self._spy_gp_fits(monkeypatch)
        space = toy_space()
        scheduler = PB2Scheduler(space, seed=2, num_candidates=16)
        trials = self._population([1.0, 2.0, 3.0, 4.0])
        # record improvements favouring high learning rates
        for epoch in range(8):
            for trial in trials:
                lr = 10 ** np.random.default_rng(epoch * 10 + trial.trial_id).uniform(-4, -1)
                trial.config["learning_rate"] = lr
                improvement_driver = np.log10(lr)
                scheduler.record_interval(trial, epoch, previous_score=5.0, new_score=5.0 - (improvement_driver + 4) * 0.1)
        # every interval was recorded, and explore fitted the GP on all of them
        assert len(scheduler._observations) == 32
        config = scheduler.explore(trials[3], trials[0], trials)
        assert fitted_rows == [32]
        assert 1e-4 <= config["learning_rate"] <= 1e-1

    def test_pb2_skips_non_finite_intervals(self):
        scheduler = PB2Scheduler(toy_space(), seed=4)
        trial = self._population([1.0])[0]
        scheduler.record_interval(trial, 0, previous_score=float("nan"), new_score=1.0)
        scheduler.record_interval(trial, 0, previous_score=2.0, new_score=float("inf"))
        assert scheduler._observations == []
        scheduler.record_interval(trial, 1, previous_score=2.0, new_score=1.5)
        ((vector, epoch, improvement),) = scheduler._observations
        assert np.array_equal(vector, toy_space().to_unit_vector(trial.config))
        assert (epoch, improvement) == (1.0, 0.5)

    def test_pb2_falls_back_to_pbt_without_observations(self, monkeypatch):
        fitted_rows = self._spy_gp_fits(monkeypatch)
        scheduler = PB2Scheduler(toy_space(), seed=3)
        trials = self._population([1.0, 2.0])
        config = scheduler.explore(trials[1], trials[0], trials)
        assert set(config) == set(trials[0].config)
        assert fitted_rows == []

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            PBTScheduler(toy_space(), quantile_fraction=0.9)


class TestTrialAndRandomSearch:
    def test_trial_reporting(self):
        trial = Trial(trial_id=0, config={"a": 1})
        trial.report(1, 5.0)
        trial.report(2, 3.0)
        trial.report(3, 4.0)
        assert trial.best_score == 3.0
        assert trial.history == [(1, 5.0, {"a": 1}), (2, 3.0, {"a": 1}), (3, 4.0, {"a": 1})]
        # the history keeps a snapshot per report, not the live config
        trial.config["a"] = 2
        assert all(config == {"a": 1} for _, _, config in trial.history)
        assert trial.epoch == 3
        assert trial.state is TrialState.PENDING

    def test_random_search_finds_good_region(self):
        space = SearchSpace().add(Uniform("x", 0.0 + 1e-6, 1.0))
        search = RandomSearch(space, num_trials=40, seed=0)
        best = search.run(lambda config: (config["x"] - 0.3) ** 2)
        assert abs(best.config["x"] - 0.3) < 0.15
        assert len(search.trials) == 40
        with pytest.raises(ValueError):
            RandomSearch(space, num_trials=0)


class TestTuneRunner:
    def _factory(self, workbench):
        def factory(config):
            model = SGCNN(SGCNNConfig.scaled_down(), seed=1)
            return Trainer(
                model, workbench.train_samples[:16], workbench.val_samples[:6],
                TrainerConfig(batch_size=int(config["batch_size"]), learning_rate=float(config["learning_rate"]), seed=1),
            )
        return factory

    def _space(self):
        space = SearchSpace()
        space.add(Uniform("learning_rate", 1e-4, 1e-2, log=True))
        space.add(Choice("batch_size", (4, 8)))
        return space

    def test_population_runs_and_exploits(self, workbench):
        space = self._space()
        runner = TuneRunner(
            self._factory(workbench), space, PB2Scheduler(space, seed=0),
            TuneConfig(population_size=3, max_epochs=4, perturbation_interval=2, seed=0),
        )
        result = runner.run()
        assert result.epochs_run == 4
        assert len(result.trials) == 3
        assert np.isfinite(result.best_score)
        assert result.best_config["batch_size"] in (4, 8)
        assert all(len(t.history) == 4 for t in result.trials)
        # at least one exploit event should normally fire with 2 perturbation rounds
        assert isinstance(result.exploit_events, list)
        assert result.best_state_dict  # weights of the best trial are exposed

    def test_session_splitting_matches_single_run_epochs(self, workbench):
        space = self._space()
        runner = TuneRunner(
            self._factory(workbench), space, PBTScheduler(space, seed=1),
            TuneConfig(population_size=2, max_epochs=4, perturbation_interval=2, session_epoch_limit=2, seed=1),
        )
        result = runner.run()
        assert result.sessions == 2
        assert result.epochs_run == 4
