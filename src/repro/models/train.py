"""Training loop shared by the individual heads, the fusion models and PB2 trials."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from repro.featurize.pipeline import FeaturizedComplex, collate_complexes
from repro.hpc.horovod import HorovodContext
from repro.hpc.mpi import run_spmd
from repro.models.fusion import FusionNetwork
from repro.nn.dataloader import DataLoader
from repro.nn.layers import Dropout
from repro.nn.loss import mse_loss
from repro.nn.module import Module
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.telemetry import current as current_telemetry
from repro.utils.rng import spawn_rng


def _masked_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """MSE over finite targets only; NaN when no target is finite.

    One NaN assay label must not poison a whole validation score (and
    with it PB2's objective Q) — ``_calibrate_model`` already filters
    non-finite targets, and validation follows the same semantics.
    """
    mask = np.isfinite(targets)
    if not np.any(mask):
        return float("nan")
    diff = predictions[mask] - targets[mask]
    return float(np.mean(diff**2))


def _calibrate_model(model: Module, samples: Sequence[FeaturizedComplex]) -> None:
    """Centre the model's output on the finite training labels' distribution."""
    targets = np.array([s.target for s in samples], dtype=np.float64)
    targets = targets[np.isfinite(targets)]
    if targets.size >= 2 and hasattr(model, "calibrate_output"):
        model.calibrate_output(float(targets.mean()), float(targets.std()))


def _trainable_parameters(model: Module):
    """A fusion network's trainable parameters (its frozen heads excluded); else all."""
    if isinstance(model, FusionNetwork):
        return model.trainable_parameters()
    return model.parameters()


def _build_optimizer(model: Module, config: TrainerConfig | DistributedTrainerConfig):
    """The configured optimizer over ``model``'s trainable parameters.

    Adam, AdamW and SGD take the configured ``weight_decay``; other
    optimizers take none.
    """
    kwargs = {}
    if config.optimizer.lower() in ("adam", "adamw", "sgd"):
        kwargs["weight_decay"] = config.weight_decay
    return build_optimizer(config.optimizer, _trainable_parameters(model), lr=config.learning_rate, **kwargs)


@dataclass
class TrainerConfig:
    """Options of the generic training loop."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    weight_decay: float = 0.0
    shuffle: bool = True
    grad_clip: float | None = 5.0
    seed: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch losses recorded during training."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

    @property
    def best_val_loss(self) -> float:
        """Lowest finite validation loss; NaN when no epoch produced one.

        NaN epochs (no validation set, or an all-NaN val batch) are
        ignored rather than propagated: ``min`` over a list containing
        NaN is order-dependent, and ``np.argmin`` over all-NaN silently
        answers 0.
        """
        losses = np.asarray(self.val_losses, dtype=np.float64)
        if losses.size == 0 or not np.any(np.isfinite(losses)):
            return float("nan")
        return float(np.nanmin(losses))

    @property
    def best_epoch(self) -> int:
        """Epoch index of the lowest finite validation loss, or -1 if none."""
        losses = np.asarray(self.val_losses, dtype=np.float64)
        if losses.size == 0 or not np.any(np.isfinite(losses)):
            return -1
        return int(np.nanargmin(losses))


class Trainer:
    """Train a binding-affinity model on featurized complexes.

    Parameters
    ----------
    model:
        Any model whose ``forward(batch)`` accepts the dict produced by
        :func:`repro.featurize.collate_complexes` and returns a
        ``(batch,)`` prediction tensor.
    train_samples / val_samples:
        Lists of :class:`FeaturizedComplex`.
    config:
        Loop options.  PB2 changes hyper-parameters between perturbation
        intervals by building a new trainer through its factory.
    """

    def __init__(
        self,
        model: Module,
        train_samples: Sequence[FeaturizedComplex],
        val_samples: Sequence[FeaturizedComplex] = (),
        config: TrainerConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self.train_samples = list(train_samples)
        self.val_samples = list(val_samples)
        if not self.train_samples:
            raise ValueError("trainer requires at least one training sample")
        self.history = TrainingHistory()
        self._rng = spawn_rng(self.config.seed, "trainer")
        _calibrate_model(self.model, self.train_samples)
        self.optimizer = _build_optimizer(self.model, self.config)

    # ------------------------------------------------------------------ #
    def _loader(self, samples: Sequence[FeaturizedComplex], shuffle: bool) -> DataLoader:
        return DataLoader(
            samples,
            batch_size=self.config.batch_size,
            shuffle=shuffle,
            collate_fn=collate_complexes,
            rng=self._rng,
        )

    def train_epoch(self) -> float:
        """Run one epoch of optimization; returns the mean training MSE."""
        self.model.train()
        losses = []
        with current_telemetry().span("train-epoch") as span:
            for batch in self._loader(self.train_samples, shuffle=self.config.shuffle):
                prediction = self.model(batch)
                loss = mse_loss(prediction, Tensor(batch["target"]))
                self.optimizer.zero_grad()
                loss.backward()
                if self.config.grad_clip is not None:
                    self._clip_gradients(self.config.grad_clip)
                self.optimizer.step()
                losses.append(loss.item())
                span.add("batches")
                span.add("samples", len(batch["target"]))
        return float(np.mean(losses))

    def _clip_gradients(self, max_norm: float) -> None:
        params = [p for p in _trainable_parameters(self.model) if p.grad is not None]
        if not params:
            return
        total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for p in params:
                p.grad *= scale

    def validate(self, samples: Sequence[FeaturizedComplex] | None = None) -> float:
        """Mean squared error on the validation set (PB2's objective Q)."""
        samples = self.val_samples if samples is None else list(samples)
        if not samples:
            return float("nan")
        predictions = self.predict(samples)
        targets = np.array([s.target for s in samples])
        return _masked_mse(predictions, targets)

    def predict(self, samples: Sequence[FeaturizedComplex], batch_size: int | None = None) -> np.ndarray:
        """Predict pK for ``samples`` without touching gradients."""
        self.model.eval()
        loader = DataLoader(
            list(samples),
            batch_size=batch_size or max(self.config.batch_size, 8),
            shuffle=False,
            collate_fn=collate_complexes,
        )
        outputs = []
        with no_grad():
            for batch in loader:
                outputs.append(self.model(batch).numpy().copy())
        return np.concatenate(outputs) if outputs else np.array([])

    # ------------------------------------------------------------------ #
    def fit(self, epochs: int | None = None, log_fn=None) -> TrainingHistory:
        """Train for ``epochs`` (default: config.epochs) epochs."""
        epochs = int(epochs if epochs is not None else self.config.epochs)
        for epoch in range(epochs):
            train_loss = self.train_epoch()
            val_loss = self.validate()
            self.history.train_losses.append(train_loss)
            self.history.val_losses.append(val_loss)
            if log_fn is not None:
                log_fn(epoch, train_loss, val_loss)
        return self.history


# ---------------------------------------------------------------------- #
# Data-parallel training
# ---------------------------------------------------------------------- #
@dataclass
class DistributedTrainerConfig:
    """Options of the data-parallel training loop.

    The unit of parallelism is the *chunk*: each epoch's (optionally
    shuffled) sample order is cut into ``chunk_size`` chunks, each
    optimization step consumes ``chunks_per_step`` consecutive chunks
    (a global batch of ``chunk_size * chunks_per_step`` samples), and
    ranks process the step's chunks round-robin.  Chunk composition
    derives only from ``seed`` and the epoch — never from the rank
    count — and per-chunk gradients are reduced with an exact
    order-invariant sum, which is what makes final weights bit-identical
    for any ``ranks``.  Ranks run on threads; ``backend`` accepts only
    ``"thread"``.
    """

    epochs: int = 10
    chunk_size: int = 8
    chunks_per_step: int = 4
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    weight_decay: float = 0.0
    shuffle: bool = True
    grad_clip: float | None = 5.0
    seed: int = 0
    ranks: int = 1
    backend: str = "thread"
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.chunks_per_step <= 0:
            raise ValueError("chunks_per_step must be positive")
        if self.ranks <= 0:
            raise ValueError("ranks must be positive")
        if self.backend != "thread":
            raise ValueError(
                f"unknown execution backend {self.backend!r}: training ranks run on threads "
                "only (the process backend was removed)"
            )


@dataclass
class _DistributedSpec:
    """Everything one SPMD rank needs; shared read-only by the rank threads."""

    model: Module
    train_samples: list[FeaturizedComplex]
    val_samples: list[FeaturizedComplex]
    config: DistributedTrainerConfig
    epochs: int


def _predict_flat(model: Module, samples: Sequence[FeaturizedComplex], batch_size: int) -> np.ndarray:
    """Inference over ``samples`` using the flat graph layout."""
    model.eval()
    outputs = []
    with no_grad():
        for start in range(0, len(samples), batch_size):
            batch = collate_complexes(samples[start : start + batch_size], graph_layout="flat")
            outputs.append(model(batch).numpy().copy())
    return np.concatenate(outputs) if outputs else np.array([])


def _epoch_chunks(num_samples: int, config: DistributedTrainerConfig, epoch: int) -> list[np.ndarray]:
    """The epoch's global chunk list — a function of seed and epoch only."""
    if config.shuffle:
        order = spawn_rng(config.seed, "shuffle", epoch).permutation(num_samples)
    else:
        order = np.arange(num_samples)
    return [order[i : i + config.chunk_size] for i in range(0, num_samples, config.chunk_size)]


def _distributed_validate(model: Module, samples: Sequence[FeaturizedComplex], chunk_size: int, ctx) -> float:
    """Validation MSE, with the ``chunk_size`` chunks dealt round-robin to ranks.

    Every rank gathers every chunk's predictions and computes the same
    ``_masked_mse`` over them in chunk order. A chunk's predictions do not
    depend on which rank ran it (replicas hold identical weights), so the
    loss is the one-rank loss bit for bit.
    """
    if not samples:
        return float("nan")
    starts = range(0, len(samples), chunk_size)
    mine = [_predict_flat(model, samples[i : i + chunk_size], chunk_size) for i in starts[ctx.rank :: ctx.size]]
    gathered = ctx.allgather(mine, tag="val-predictions")
    # chunk j ran on rank j % size, as that rank's (j // size)-th chunk
    predictions = np.concatenate([gathered[j % ctx.size][j // ctx.size] for j in range(len(starts))])
    return _masked_mse(predictions, np.array([s.target for s in samples]))


def _distributed_train_worker(spec: _DistributedSpec, ctx) -> dict:
    """The SPMD program run by every rank.

    Rank invariance rests on three rules enforced here:

    1. chunk composition and per-chunk dropout streams are derived from
       ``(seed, epoch, step, chunk)`` — never from the rank id;
    2. ranks contribute their *raw* per-chunk gradient partials to the
       exact all-reduce (pre-summing locally would round twice);
    3. every quantity that feeds the next update (reduced gradient,
       clip scale, step loss) is computed from the identical reduced
       arrays on every rank.
    """
    cfg = spec.config
    model = copy.deepcopy(spec.model)
    hvd = HorovodContext(ctx)
    hvd.broadcast_parameters(model, root_rank=0)
    model.train()
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    optimizer = _build_optimizer(model, cfg)
    pack = optimizer.fuse()
    samples = spec.train_samples
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(spec.epochs):
        chunks = _epoch_chunks(len(samples), cfg, epoch)
        step_losses: list[float] = []
        for step_start in range(0, len(chunks), cfg.chunks_per_step):
            step_chunks = chunks[step_start : step_start + cfg.chunks_per_step]
            step_samples = int(sum(len(c) for c in step_chunks))
            partials: list[np.ndarray] = []
            model.train()
            for pos in range(ctx.rank, len(step_chunks), ctx.size):
                chunk = step_chunks[pos]
                chunk_id = step_start + pos
                for li, layer in enumerate(dropouts):
                    layer._rng = spawn_rng(cfg.seed, "dropout", epoch, chunk_id, li)
                batch = collate_complexes([samples[i] for i in chunk], graph_layout="flat")
                prediction = model(batch)
                residual = prediction - Tensor(batch["target"])
                sse = (residual * residual).sum()
                optimizer.zero_grad()
                sse.backward()
                partials.append(np.concatenate([pack.grad_vector(), [sse.item()]]))
            reduced = hvd.allreduce_exact(partials, tag="grad-step")
            grad = reduced[:-1] / step_samples
            step_loss = float(reduced[-1] / step_samples)
            if cfg.grad_clip is not None:
                norm = float(np.sqrt(np.sum(grad * grad)))
                if norm > cfg.grad_clip and norm > 0:
                    grad = grad * (cfg.grad_clip / norm)
            optimizer.step_fused(grad)
            step_losses.append(step_loss)
        train_losses.append(float(np.mean(step_losses)))
        val_losses.append(_distributed_validate(model, spec.val_samples, cfg.chunk_size, ctx))
    hvd.broadcast_parameters(model, root_rank=0)
    return {
        "state": model.state_dict(),
        "weights_flat": pack.get_flat(),
        "train_losses": train_losses,
        "val_losses": val_losses,
    }


class DistributedTrainer:
    """Horovod-style data-parallel trainer over thread ranks of :func:`run_spmd`.

    Mirrors the paper's multi-rank training jobs: every rank holds a
    model replica (broadcast from rank 0), processes its share of each
    global batch, and applies the exactly-averaged gradient through the
    fused optimizer path.  Final weights and per-epoch losses are
    bit-identical for every rank count; see ``docs/training.md`` for the
    argument.  Models with batch normalization are excluded from the
    bit-identity guarantee (running statistics are updated per replica).

    After :meth:`fit`, ``self.model`` holds the final weights.
    """

    def __init__(
        self,
        model: Module,
        train_samples: Sequence[FeaturizedComplex],
        val_samples: Sequence[FeaturizedComplex] = (),
        config: DistributedTrainerConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or DistributedTrainerConfig()
        self.train_samples = list(train_samples)
        self.val_samples = list(val_samples)
        if not self.train_samples:
            raise ValueError("trainer requires at least one training sample")
        self.history = TrainingHistory()
        _calibrate_model(self.model, self.train_samples)

    def fit(self, epochs: int | None = None) -> TrainingHistory:
        """Train for ``epochs`` (default: config.epochs) across all ranks."""
        epochs = int(epochs if epochs is not None else self.config.epochs)
        spec = _DistributedSpec(
            model=self.model,
            train_samples=self.train_samples,
            val_samples=self.val_samples,
            config=self.config,
            epochs=epochs,
        )
        worker = partial(_distributed_train_worker, spec)
        with current_telemetry().span("distributed-fit") as span:
            results = run_spmd(worker, self.config.ranks, barrier_timeout=self.config.timeout)
            span.add("ranks", self.config.ranks)
            span.add("epochs", epochs)
            span.add("samples", epochs * len(self.train_samples))
        result = results[0]
        self.model.load_state_dict(result["state"])
        self.history.train_losses.extend(result["train_losses"])
        self.history.val_losses.extend(result["val_losses"])
        return self.history

    def predict(self, samples: Sequence[FeaturizedComplex], batch_size: int | None = None) -> np.ndarray:
        """Predict pK for ``samples`` with the (trained) model, flat layout."""
        return _predict_flat(self.model, samples, batch_size or max(self.config.chunk_size, 8))
