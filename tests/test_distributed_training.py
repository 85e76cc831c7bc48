"""Tests for the data-parallel training engine.

Covers the three pillars of the engine: the exact order-invariant
vector reduction (``ExactVectorSum`` / ``allreduce_exact``), the
vectorized flat-graph path (must agree with the dense layout; the
fused optimizer step has its own oracle test, ``test_nn_optim_oracle.py``),
and the rank-invariance golden — final weights and losses bit-identical
(``np.array_equal``, no tolerances) across ranks 1/2/4 of the thread
backend.
"""

import math

import numpy as np
import pytest

from repro.featurize.pipeline import collate_complexes, predict_samples
from repro.hpc.horovod import HorovodContext
from repro.hpc.mpi import run_spmd
from repro.models.config import SGCNNConfig
from repro.models.sgcnn import SGCNN
from repro.models.train import DistributedTrainer, DistributedTrainerConfig, Trainer
from repro.nn.graph_layers import FlatEdges, FlatGraphBatch, GraphBatch
from repro.telemetry import ExactVectorSum, exact_vector_sum


# ---------------------------------------------------------------------- #
# Exact vector reduction
# ---------------------------------------------------------------------- #
class TestExactVectorSum:
    def _ill_conditioned(self, rng, shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)

    def test_matches_fsum_elementwise(self):
        rng = np.random.default_rng(0)
        arrays = [self._ill_conditioned(rng, (6,)) for _ in range(40)]
        total = exact_vector_sum(arrays)
        expected = [math.fsum(a[j] for a in arrays) for j in range(6)]
        np.testing.assert_array_equal(total, expected)

    def test_order_and_partition_invariant(self):
        rng = np.random.default_rng(1)
        arrays = [self._ill_conditioned(rng, (5,)) for _ in range(30)]
        reference = exact_vector_sum(arrays)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(arrays))
            assert np.array_equal(exact_vector_sum([arrays[i] for i in order]), reference)
        # the running accumulator agrees, whatever order the arrays arrive in
        accumulator = ExactVectorSum((5,))
        for i in np.random.default_rng(5).permutation(len(arrays)):
            accumulator.add(arrays[i])
        assert np.array_equal(accumulator.value, reference)

    def test_empty_and_shape_checks(self):
        acc = ExactVectorSum((3,))
        assert np.array_equal(acc.value, np.zeros(3))
        with pytest.raises(ValueError):
            acc.add(np.zeros(4))

    def test_allreduce_exact_is_rank_count_invariant(self):
        rng = np.random.default_rng(2)
        partials = [rng.normal(size=4) * 10.0 ** rng.integers(-9, 9, size=4) for _ in range(12)]
        reference = exact_vector_sum(partials)

        def reduce_on(size):
            def worker(ctx):
                mine = [partials[i] for i in range(ctx.rank, len(partials), ctx.size)]
                return HorovodContext(ctx).allreduce_exact(mine, tag="t")

            return run_spmd(worker, size)

        for size in (1, 2, 3, 4):
            for result in reduce_on(size):
                assert np.array_equal(result, reference)


# ---------------------------------------------------------------------- #
# Vectorized fast paths agree with the scalar reference paths
# ---------------------------------------------------------------------- #
class TestFlatGraphPath:
    def test_flat_batch_matches_dense_batch(self, workbench):
        samples = workbench.train_samples[:6]
        dense = collate_complexes(samples)
        flat = collate_complexes(samples, graph_layout="flat")
        batch_dense, batch_flat = dense["graph"], flat["graph"]
        assert isinstance(batch_dense, GraphBatch) and isinstance(batch_flat, FlatGraphBatch)
        assert batch_flat.num_graphs == len(samples)
        np.testing.assert_array_equal(batch_flat.node_features, batch_dense.node_features)
        for edge_type, edges in batch_flat.edges.items():
            assert isinstance(edges, FlatEdges)
            dense_adj = batch_dense.adjacency[edge_type]
            rebuilt = np.zeros_like(dense_adj)
            rebuilt[edges.dst, edges.src] = edges.weight
            np.testing.assert_array_equal(rebuilt, dense_adj)

    def test_model_outputs_and_grads_match_dense(self, workbench):
        samples = workbench.train_samples[:5]
        out = {}
        for layout in ("dense", "flat"):
            model = SGCNN(SGCNNConfig.scaled_down(), seed=3)
            model.eval()  # no dropout: layouts draw different mask streams
            batch = collate_complexes(samples, graph_layout=layout)
            prediction = model(batch)
            (prediction * prediction).sum().backward()
            grads = np.concatenate([p.grad.ravel() for p in model.parameters() if p.grad is not None])
            out[layout] = (prediction.numpy().copy(), grads)
        np.testing.assert_allclose(out["flat"][0], out["dense"][0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out["flat"][1], out["dense"][1], rtol=1e-9, atol=1e-12)

    def test_flat_forward_is_deterministic(self, workbench):
        samples = workbench.train_samples[:4]
        model = SGCNN(SGCNNConfig.scaled_down(), seed=5)
        model.eval()
        batch = collate_complexes(samples, graph_layout="flat")
        first = model(batch).numpy().copy()
        assert np.array_equal(model(batch).numpy(), first)

    def test_invalid_layout_rejected(self, workbench):
        with pytest.raises(ValueError):
            collate_complexes(workbench.train_samples[:2], graph_layout="sparse")


# ---------------------------------------------------------------------- #
# Rank-invariance golden
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def golden_runs(workbench):
    """Final weights + losses for every (backend, ranks) cell of the matrix."""
    train = workbench.train_samples[:8]
    val = workbench.val_samples[:4]

    def run(backend, ranks):
        model = SGCNN(SGCNNConfig.scaled_down(), seed=7)
        config = DistributedTrainerConfig(
            epochs=2, chunk_size=2, chunks_per_step=2, learning_rate=2e-3,
            seed=11, ranks=ranks, backend=backend,
        )
        trainer = DistributedTrainer(model, train, val, config=config)
        history = trainer.fit()
        state = trainer.model.state_dict()
        weights = np.concatenate([np.asarray(state[key]).ravel() for key in sorted(state)])
        return weights, np.asarray(history.train_losses), np.asarray(history.val_losses)

    return {
        (backend, ranks): run(backend, ranks)
        for backend in ("thread",)
        for ranks in (1, 2, 3, 4)
    }


class TestRankInvarianceGolden:
    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_bit_identical_to_single_rank_reference(self, golden_runs, backend, ranks):
        ref_weights, ref_train, ref_val = golden_runs[("thread", 1)]
        weights, train_losses, val_losses = golden_runs[(backend, ranks)]
        assert np.array_equal(weights, ref_weights)
        assert np.array_equal(train_losses, ref_train)
        assert np.array_equal(val_losses, ref_val)

    def test_training_actually_happened(self, golden_runs, workbench):
        _weights, train_losses, val_losses = golden_runs[("thread", 1)]
        assert train_losses.shape == (2,) and val_losses.shape == (2,)
        assert np.isfinite(train_losses).all() and np.isfinite(val_losses).all()


@pytest.fixture(scope="module")
def validation_runs(workbench):
    """Per-epoch validation losses over three validation chunks (two full,
    one partial) for ranks 1-4; at four ranks one rank
    holds no validation chunk."""
    train = workbench.train_samples[:4]
    val = workbench.val_samples[:5]

    def run(backend, ranks):
        config = DistributedTrainerConfig(
            epochs=2, chunk_size=2, chunks_per_step=2, learning_rate=2e-3,
            seed=5, ranks=ranks, backend=backend,
        )
        trainer = DistributedTrainer(SGCNN(SGCNNConfig.scaled_down(), seed=3), train, val, config=config)
        return np.asarray(trainer.fit().val_losses)

    assert len(val) == 5
    return {
        (backend, ranks): run(backend, ranks)
        for backend in ("thread",)
        for ranks in (1, 2, 3, 4)
    }


class TestDistributedValidation:
    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_val_losses_bit_identical_across_ranks(self, validation_runs, backend, ranks):
        reference = validation_runs[("thread", 1)]
        assert reference.shape == (2,) and np.isfinite(reference).all()
        assert np.array_equal(validation_runs[(backend, ranks)], reference)

    @pytest.mark.parametrize("backend", ["thread"])
    def test_empty_validation_set_yields_nan(self, workbench, backend):
        trainer = DistributedTrainer(
            SGCNN(SGCNNConfig.scaled_down(), seed=3),
            workbench.train_samples[:4],
            config=DistributedTrainerConfig(epochs=1, chunk_size=2, chunks_per_step=2, ranks=3, backend=backend),
        )
        history = trainer.fit()
        assert len(history.val_losses) == 1 and np.isnan(history.val_losses[0])


class TestDistributedTrainer:
    def test_predicts_after_fit_and_validates_config(self, workbench):
        samples = workbench.train_samples[:6]
        trainer = DistributedTrainer(
            SGCNN(SGCNNConfig.scaled_down(), seed=9),
            samples,
            config=DistributedTrainerConfig(epochs=1, chunk_size=3, chunks_per_step=2, ranks=2),
        )
        history = trainer.fit()
        assert history.epochs_run == 1
        assert np.isnan(history.val_losses[0])  # no validation set
        predictions = predict_samples(trainer.model, samples, 8, graph_layout="flat")
        assert predictions.shape == (6,) and np.isfinite(predictions).all()
        with pytest.raises(ValueError):
            DistributedTrainerConfig(chunk_size=0)
        with pytest.raises(ValueError):
            DistributedTrainerConfig(ranks=0)
        with pytest.raises(ValueError):
            DistributedTrainerConfig(backend="cuda")
        DistributedTrainerConfig(backend="thread")
        with pytest.raises(ValueError):
            DistributedTrainer(SGCNN(SGCNNConfig.scaled_down(), seed=9), [])

    def test_process_backend_is_rejected(self):
        with pytest.raises(ValueError, match="process backend was removed"):
            DistributedTrainerConfig(backend="process")

    @pytest.mark.parametrize("backend", ["PROCESS", "Thread", "", "thread ", "threads", "mpi"])
    def test_backend_names_are_matched_exactly(self, backend):
        with pytest.raises(ValueError, match="unknown execution backend") as info:
            DistributedTrainerConfig(backend=backend)
        assert repr(backend) in str(info.value)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["chunk_size", "chunks_per_step", "ranks"])
    def test_non_positive_sizes_are_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            DistributedTrainerConfig(**{field: value})

    def test_idle_ranks_keep_results_bit_identical(self, workbench):
        """Six ranks over two chunks per step and two validation chunks:
        four ranks hold no training chunk and no validation chunk, yet
        weights and losses equal the one-rank run bit for bit."""
        train = workbench.train_samples[:4]
        val = workbench.val_samples[:3]

        def run(ranks):
            config = DistributedTrainerConfig(
                epochs=2, chunk_size=2, chunks_per_step=2, learning_rate=2e-3, seed=17, ranks=ranks,
            )
            trainer = DistributedTrainer(SGCNN(SGCNNConfig.scaled_down(), seed=5), train, val, config=config)
            history = trainer.fit()
            state = trainer.model.state_dict()
            weights = np.concatenate([np.asarray(state[key]).ravel() for key in sorted(state)])
            return weights, np.asarray(history.train_losses), np.asarray(history.val_losses)

        reference, idle = run(1), run(6)
        for expected, actual in zip(reference, idle):
            assert np.array_equal(actual, expected)

    def test_fit_epochs_override_extends_history(self, workbench):
        trainer = DistributedTrainer(
            SGCNN(SGCNNConfig.scaled_down(), seed=9),
            workbench.train_samples[:4],
            workbench.val_samples[:2],
            config=DistributedTrainerConfig(epochs=5, chunk_size=2, chunks_per_step=2, ranks=2),
        )
        assert trainer.fit(epochs=1).epochs_run == 1
        history = trainer.fit(epochs=2)
        assert history.epochs_run == 3
        assert len(history.val_losses) == 3 and np.isfinite(history.val_losses).all()

    def test_matches_scalar_trainer_direction(self, workbench):
        """Distributed SSE/step training reduces loss like the scalar loop."""
        samples = workbench.train_samples[:8]
        trainer = DistributedTrainer(
            SGCNN(SGCNNConfig.scaled_down(), seed=13),
            samples,
            samples,
            config=DistributedTrainerConfig(epochs=4, chunk_size=2, chunks_per_step=4, learning_rate=3e-3, ranks=2),
        )
        history = trainer.fit()
        assert history.val_losses[-1] <= history.val_losses[0] * 1.2


class TestSharedTrainerRules:
    """``Trainer`` and ``DistributedTrainer`` calibrate, pick trainable
    parameters and apply the weight-decay rule through the same helpers."""

    def test_both_trainers_calibrate_the_output_alike(self, workbench):
        samples = workbench.train_samples[:6]
        scalar = Trainer(SGCNN(SGCNNConfig.scaled_down(), seed=1), samples)
        distributed = DistributedTrainer(SGCNN(SGCNNConfig.scaled_down(), seed=1), samples)
        targets = np.array([s.target for s in samples])
        for trainer in (scalar, distributed):
            assert trainer.model.out_mean[0] == targets.mean()
            assert trainer.model.out_std[0] == targets.std()

    @pytest.mark.parametrize("optimizer", ["adam", "sgd", "rmsprop", "adadelta"])
    def test_every_optimizer_trains_with_weight_decay_configured(self, workbench, optimizer):
        # rmsprop and adadelta take no weight decay: passing one would raise
        config = DistributedTrainerConfig(
            epochs=1, chunk_size=2, chunks_per_step=2, learning_rate=1e-3,
            optimizer=optimizer, weight_decay=0.01, ranks=2,
        )
        model = SGCNN(SGCNNConfig.scaled_down(), seed=2)
        history = DistributedTrainer(model, workbench.train_samples[:4], config=config).fit()
        assert history.epochs_run == 1 and np.isfinite(history.train_losses).all()

