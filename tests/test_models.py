"""Tests for the 3D-CNN, SG-CNN, Fusion variants and the training loop."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.featurize.pipeline import collate_complexes, predict_samples
from repro.models.cnn3d import CNN3D
from repro.models.config import CNN3DConfig, CoherentFusionConfig, MidFusionConfig, SGCNNConfig
from repro.models.fusion import CoherentFusion, LateFusion, MidFusion
from repro.models.sgcnn import SGCNN
from repro.models.train import Trainer, TrainerConfig, TrainingHistory
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import spawn_rng


@pytest.fixture(scope="module")
def samples(workbench):
    return workbench.train_samples[:12]


def small_cnn_config(workbench):
    config = CNN3DConfig.scaled_down()
    config.grid_dim = workbench.scale.grid_dim
    config.in_channels = workbench.featurizer.voxelizer.config.num_channels
    return config


class TestCNN3D:
    def test_forward_shapes_and_latent(self, workbench, samples):
        model = CNN3D(small_cnn_config(workbench), seed=1)
        batch = collate_complexes(samples[:4])
        out = model(batch)
        assert out.shape == (4,)
        latent = model.latent(batch)
        assert latent.shape == (4, model.latent_dim)

    def test_paper_config_structure(self):
        config = CNN3DConfig.paper()
        assert config.conv_filters_1 == 32 and config.conv_filters_2 == 64
        assert config.residual_option_2 and not config.residual_option_1
        assert config.learning_rate == pytest.approx(4.9e-5)

    def test_residual_and_batchnorm_options(self, workbench, samples):
        config = small_cnn_config(workbench)
        config.residual_option_1 = True
        config.batch_norm = True
        model = CNN3D(config, seed=2)
        batch = collate_complexes(samples[:2])
        assert model(batch).shape == (2,)

    def test_grid_too_small_raises(self):
        config = CNN3DConfig.scaled_down()
        config.grid_dim = 4
        with pytest.raises(ValueError):
            CNN3D(config)

    def test_calibration_shifts_output(self, workbench, samples):
        model = CNN3D(small_cnn_config(workbench), seed=3)
        batch = collate_complexes(samples[:3])
        model.eval()
        with no_grad():
            before = model(batch).numpy()
            model.calibrate_output(6.0, 2.0)
            after = model(batch).numpy()
        assert not np.allclose(before, after)
        assert abs(after.mean() - 6.0) < 6.0

    def test_gradients_reach_every_parameter(self, workbench, samples):
        model = CNN3D(small_cnn_config(workbench), seed=4)
        model.train()
        batch = collate_complexes(samples[:2])
        loss = (model(batch) * 1.0).sum()
        loss.backward()
        grads = [p.grad is not None for _n, p in model.named_parameters()]
        assert sum(grads) >= len(grads) - 1  # dropout may zero a path but parameters still receive grads


class TestSGCNN:
    def test_forward_and_latent(self, workbench, samples):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=1)
        batch = collate_complexes(samples[:5])
        out = model(batch)
        assert out.shape == (5,)
        assert model.latent(batch).shape == (5, model.latent_dim)

    def test_paper_config_values(self):
        config = SGCNNConfig.paper()
        assert config.covalent_k == 6 and config.noncovalent_k == 3
        assert config.noncovalent_threshold == pytest.approx(5.22)
        assert config.noncovalent_gather_width == 128 and config.covalent_gather_width == 24

    def test_dense_layer_sizing_rule(self):
        model = SGCNN(SGCNNConfig(noncovalent_gather_width=96, covalent_gather_width=24, hidden_dim=16), seed=0)
        assert model.fc1.out_features == 64  # 96 / 1.5
        assert model.fc2.out_features == 32  # then / 2

    def test_permutation_invariance_of_batch_order(self, workbench, samples):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=2)
        model.eval()
        with no_grad():
            forward = model(collate_complexes(samples[:3])).numpy()
            backward = model(collate_complexes(list(reversed(samples[:3])))).numpy()
        np.testing.assert_allclose(forward, backward[::-1], atol=1e-8)


class TestFusionModels:
    def test_late_fusion_is_mean_of_heads(self, workbench, samples):
        batch = collate_complexes(samples[:3])
        late = LateFusion(workbench.cnn3d, workbench.sgcnn)
        late.eval()
        with no_grad():
            combined = late(batch).numpy()
            head_a = workbench.cnn3d(batch).numpy()
            head_b = workbench.sgcnn(batch).numpy()
        np.testing.assert_allclose(combined, (head_a + head_b) / 2.0, atol=1e-10)

    def test_mid_fusion_freezes_heads(self, workbench, samples):
        mid = MidFusion(workbench.cnn3d, workbench.sgcnn, MidFusionConfig.scaled_down(), seed=1)
        trainable = mid.trainable_parameters()
        head_params = set(id(p) for p in workbench.cnn3d.parameters()) | set(id(p) for p in workbench.sgcnn.parameters())
        assert all(id(p) not in head_params for p in trainable)
        # training mid fusion must not move head weights
        before = workbench.cnn3d.conv1.weight.data.copy()
        trainer = Trainer(mid, samples, samples[:4], TrainerConfig(epochs=1, batch_size=4, learning_rate=1e-3))
        trainer.fit()
        np.testing.assert_allclose(workbench.cnn3d.conv1.weight.data, before)

    def test_coherent_fusion_updates_heads(self, workbench, samples):
        coherent = CoherentFusion(
            CNN3D(small_cnn_config(workbench), seed=5), SGCNN(SGCNNConfig.scaled_down(), seed=5),
            CoherentFusionConfig.scaled_down(), seed=5,
        )
        before = coherent.cnn3d.conv1.weight.data.copy()
        trainer = Trainer(coherent, samples, samples[:4], TrainerConfig(epochs=1, batch_size=4, learning_rate=1e-3))
        trainer.fit()
        assert not np.allclose(coherent.cnn3d.conv1.weight.data, before)

    def test_config_coherence_validation(self, workbench):
        cnn = CNN3D(small_cnn_config(workbench), seed=0)
        sg = SGCNN(SGCNNConfig.scaled_down(), seed=0)
        bad_mid = MidFusionConfig()
        bad_mid.coherent = True
        with pytest.raises(ValueError):
            MidFusion(cnn, sg, bad_mid)
        bad_coherent = CoherentFusionConfig()
        bad_coherent.coherent = False
        with pytest.raises(ValueError):
            CoherentFusion(cnn, sg, bad_coherent)

    def test_paper_fusion_configs(self):
        mid, coherent = MidFusionConfig.paper(), CoherentFusionConfig.paper()
        assert mid.num_fusion_layers == 5 and coherent.num_fusion_layers == 4
        assert mid.residual_fusion_layers and not coherent.residual_fusion_layers
        assert coherent.batch_size == 48 and mid.batch_size == 1
        assert coherent.pretrained

    def test_from_pretrained_uses_head_weights(self, workbench):
        coherent = CoherentFusion.from_pretrained(workbench.cnn3d, workbench.sgcnn, CoherentFusionConfig.scaled_down())
        np.testing.assert_allclose(coherent.cnn3d.conv1.weight.data, workbench.cnn3d.conv1.weight.data)


class TestTrainer:
    def test_training_reduces_loss(self, workbench, samples):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=9)
        trainer = Trainer(model, samples, samples, TrainerConfig(epochs=6, batch_size=4, learning_rate=3e-3, seed=0))
        history = trainer.fit()
        assert history.epochs_run == 6
        assert history.val_losses[-1] <= history.val_losses[0] * 1.2
        assert history.best_epoch >= 0

    def test_fit_leaves_the_model_in_eval_mode_without_gradients(self, samples):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=4)
        Trainer(model, samples[:4], [], TrainerConfig(epochs=1, batch_size=2)).fit()
        assert not any(m.training for m in model.modules())
        assert all(p.grad is None for p in model.parameters())

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_must_be_positive(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(batch_size=batch_size)

    @pytest.mark.parametrize("shuffle", [True, False])
    def test_each_epoch_batches_one_shuffle_of_the_samples(self, samples, monkeypatch, shuffle):
        """An epoch cuts ``batch_size`` batches from one ``rng.shuffle`` of the sample order."""
        import repro.models.train as train_module

        seen = []
        collate = train_module.collate_complexes

        def recording_collate(batch, *args, **kwargs):
            seen.append([s.complex_id for s in batch])
            return collate(batch, *args, **kwargs)

        monkeypatch.setattr(train_module, "collate_complexes", recording_collate)
        model = SGCNN(SGCNNConfig.scaled_down(), seed=4)
        trainer = Trainer(model, samples[:7], [], TrainerConfig(batch_size=3, shuffle=shuffle, seed=5))
        rng = spawn_rng(5, "trainer")
        for _ in range(2):
            seen.clear()
            trainer.train_epoch()
            order = np.arange(7)
            if shuffle:
                rng.shuffle(order)
            ids = [samples[i].complex_id for i in order]
            assert seen == [ids[0:3], ids[3:6], ids[6:7]]


class TestPredictSamples:
    @pytest.mark.parametrize("layout", ["dense", "flat"])
    def test_batches_and_mode(self, workbench, samples, layout):
        model = copy.deepcopy(workbench.sgcnn).train()
        predictions = predict_samples(model, samples, batch_size=5, graph_layout=layout)
        assert predictions.shape == (len(samples),) and np.isfinite(predictions).all()
        assert all(m.training for m in model.modules())  # the mode is restored
        model.eval()
        with no_grad():
            whole = model(collate_complexes(samples, graph_layout=layout)).numpy()
        np.testing.assert_allclose(predictions, whole, rtol=1e-12, atol=1e-12)
        assert predict_samples(model, [], batch_size=5).shape == (0,)

    @pytest.mark.parametrize("head", ["cnn3d", "sgcnn"])
    @pytest.mark.parametrize("training", [False, True])
    def test_head_predict_batch_is_the_no_grad_forward(self, workbench, samples, head, training):
        model = copy.deepcopy(getattr(workbench, head)).train(training)
        batch = collate_complexes(samples[:5])
        scores = model.predict_batch(samples[:5])
        assert scores.dtype == np.float64 and scores.shape == (5,)
        assert model.training is training
        model.eval()
        with no_grad():
            direct = model(batch).numpy()
        assert scores.tobytes() == np.asarray(direct, dtype=np.float64).reshape(-1).tobytes()

    def test_workbench_predict_leaves_every_zoo_model_untouched(self, workbench):
        for name, model in workbench.models().items():
            params = model.parameters()
            data = [p.data for p in params]
            values = [p.data.tobytes() for p in params]
            modes = [m.training for m in model.modules()]
            predictions = workbench.predict(model, workbench.core_samples)
            assert predictions.shape == (len(workbench.core_samples),), name
            assert all(p.data is d for p, d in zip(params, data)), name
            assert [p.data.tobytes() for p in params] == values, name
            assert [m.training for m in model.modules()] == modes, name

    def test_validate_empty_returns_nan(self, workbench, samples):
        trainer = Trainer(workbench.sgcnn, samples, [], TrainerConfig(batch_size=4))
        assert np.isnan(trainer.validate())

    @pytest.mark.parametrize(
        "optimizer, decayed", [("adam", True), ("adamw", True), ("sgd", True), ("rmsprop", False)]
    )
    def test_optimizer_follows_config(self, workbench, samples, optimizer, decayed):
        config = TrainerConfig(batch_size=4, learning_rate=5e-4, optimizer=optimizer, weight_decay=0.01)
        trainer = Trainer(copy.deepcopy(workbench.sgcnn), samples, [], config)
        assert type(trainer.optimizer).__name__.lower() == optimizer
        assert trainer.optimizer.lr == 5e-4
        # only Adam, AdamW and SGD take the configured weight decay
        assert getattr(trainer.optimizer, "weight_decay", None) == (0.01 if decayed else None)

    def test_fusion_trainer_optimizes_only_the_fusion_layers(self, workbench):
        model = copy.deepcopy(workbench.mid_fusion)  # frozen heads: not every parameter trains
        trainer = Trainer(model, workbench.train_samples[:4], [], TrainerConfig(batch_size=4))
        trained = {id(p) for p in trainer.optimizer.params}
        assert trained == {id(p) for p in model.trainable_parameters()}
        assert len(trained) < len(list(model.parameters()))

    def test_requires_training_samples(self, workbench):
        with pytest.raises(ValueError):
            Trainer(workbench.sgcnn, [], [], TrainerConfig())

    def test_gradient_clipping_bounds_norm(self, workbench, samples):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=11)
        trainer = Trainer(model, samples[:4], [], TrainerConfig(epochs=1, batch_size=2, learning_rate=10.0, grad_clip=1.0))
        trainer.fit()  # with an absurd learning rate, clipping keeps weights finite
        assert all(np.isfinite(p.data).all() for p in model.parameters())

    def test_validate_masks_non_finite_targets(self, workbench, samples):
        trainer = Trainer(workbench.sgcnn, samples, [], TrainerConfig(batch_size=4))
        finite = trainer.validate(samples[:4])
        poisoned = [replace(s, target=float("nan")) for s in samples[:2]] + list(samples[2:4])
        assert trainer.validate(poisoned) == pytest.approx(trainer.validate(samples[2:4]))
        assert np.isfinite(finite)
        all_nan = [replace(s, target=float("nan")) for s in samples[:3]]
        assert np.isnan(trainer.validate(all_nan))

    def test_history_best_epoch_with_nan_val_losses(self):
        history = TrainingHistory(train_losses=[1.0, 0.5], val_losses=[float("nan"), 0.7])
        assert history.best_epoch == 1
        assert history.best_val_loss == pytest.approx(0.7)
        all_nan = TrainingHistory(train_losses=[1.0, 0.5], val_losses=[float("nan")] * 2)
        assert all_nan.best_epoch == -1
        assert np.isnan(all_nan.best_val_loss)
        empty = TrainingHistory()
        assert empty.best_epoch == -1
        assert np.isnan(empty.best_val_loss)
