"""Data-parallel training workload ``train``.

:class:`DistributedTrainer` with two thread ranks fits a deep copy of the
workbench Coherent Fusion model.  Each round is a fresh copy trained by
one-epoch ``fit()`` calls, so one epoch is the unit of latency and every
epoch is timed from outside; throughput is samples/s (median over
rounds).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import collate_complexes
from repro.hpc.horovod import HorovodContext
from repro.hpc.mpi import run_spmd
from repro.models.train import DistributedTrainer, DistributedTrainerConfig
from repro.nn.layers import Dropout
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import spawn_rng

from perfbench import tracing
from perfbench.harness import OUT_DIR, Outcome, latency_summary, load_workbench

CONFIG = dict(chunk_size=4, chunks_per_step=4, learning_rate=1e-3, ranks=2, backend="thread")
#: One-epoch ``fit()`` calls per round, each round on a fresh model copy.
ROUND_EPOCHS = 4
#: Seconds per epoch measured on a 2-core box; sets how many epochs fill
#: ``--seconds``.
EPOCH_S = 0.3


@dataclass
class TrainState:
    workbench: object
    train: list
    val: list
    rounds: int
    seed: int


def setup(name: str, seed: int, seconds: float) -> TrainState:
    """The workbench model and training split, featurized with the
    workbench's random-rotation augmentation seeded by ``seed``, plus one
    warm-up epoch.

    The seed moves voxel grids but not graphs, so the inputs change with
    the seed while the cost per epoch does not.
    """
    workbench = load_workbench()
    featurizer = FeaturePipeline.from_featurizer(workbench.featurizer, seed=seed)
    dataset = workbench.dataset
    train_entries, val_entries = dataset.train_val_split(rng=workbench.scale.seed)
    train = dataset.featurize_entries(train_entries, featurizer, training=True)
    val = dataset.featurize_entries(val_entries, featurizer)
    epochs = max(20, int(round(seconds / EPOCH_S)))
    state = TrainState(workbench, train, val, max(5, int(math.ceil(epochs / ROUND_EPOCHS))), seed)
    DistributedTrainer(copy.deepcopy(workbench.coherent_fusion), train, val, trainer_config(state)).fit(epochs=1)
    return state


def trainer_config(state: TrainState, ranks: int | None = None) -> DistributedTrainerConfig:
    options = dict(CONFIG)
    if ranks is not None:
        options["ranks"] = ranks
    return DistributedTrainerConfig(epochs=1, seed=state.seed, **options)


@dataclass
class TrainRound:
    epoch_s: list[float]
    train_losses: list[float]
    val_losses: list[float]


def run_rounds(state: TrainState, rounds: int) -> list[TrainRound]:
    """Each round: a fresh copy of the model, one-epoch ``fit()`` calls."""
    results = []
    for _ in range(rounds):
        trainer = DistributedTrainer(
            copy.deepcopy(state.workbench.coherent_fusion), state.train, state.val, trainer_config(state)
        )
        epoch_s = []
        for _ in range(ROUND_EPOCHS):
            started = time.perf_counter()
            trainer.fit(epochs=1)
            epoch_s.append(time.perf_counter() - started)
        results.append(TrainRound(epoch_s, list(trainer.history.train_losses), list(trainer.history.val_losses)))
    return results


def throughput(state: TrainState, rounds: list[TrainRound]) -> float:
    return float(np.median([len(state.train) * len(r.epoch_s) / sum(r.epoch_s) for r in rounds]))


def check_losses(rounds: list[TrainRound]) -> list[str]:
    """Epoch losses are finite and the last epoch's is below the first's."""
    failures = []
    for index, r in enumerate(rounds):
        losses = r.train_losses + r.val_losses
        if not all(math.isfinite(v) for v in losses):
            failures.append(f"round {index}: non-finite loss in {losses}")
        elif not r.train_losses[-1] < r.train_losses[0]:
            failures.append(f"round {index}: train loss did not decrease: {r.train_losses}")
    return failures


def check_rank_invariance(state: TrainState, rounds: list[TrainRound]) -> list[str]:
    """The first epoch equals a one-rank refit of the same epoch bit for bit."""
    trainer = DistributedTrainer(
        copy.deepcopy(state.workbench.coherent_fusion), state.train, state.val, trainer_config(state, ranks=1)
    )
    history = trainer.fit(epochs=1)
    failures = []
    for index, r in enumerate(rounds):
        if (r.train_losses[0], r.val_losses[0]) != (history.train_losses[0], history.val_losses[0]):
            failures.append(
                f"round {index}: 2-rank epoch-0 losses {(r.train_losses[0], r.val_losses[0])!r} != "
                f"1-rank {(history.train_losses[0], history.val_losses[0])!r}"
            )
    return failures


def checks(state: TrainState, rounds: list[TrainRound], outcome: Outcome) -> None:
    outcome.check("losses_decrease", check_losses(rounds))
    outcome.check("rank_invariance", check_rank_invariance(state, rounds))
    outcome.attempted = len(state.train) * sum(len(r.epoch_s) for r in rounds)
    outcome.failed = len(state.train) * sum(
        1 for r in rounds for v in r.train_losses if not math.isfinite(v)
    )


def run(name: str, state: TrainState, outcome: Outcome) -> None:
    rounds = run_rounds(state, state.rounds)
    epoch_ms = latency_summary([s * 1e3 for r in rounds for s in r.epoch_s])
    outcome.metric("throughput_per_s", throughput(state, rounds), "1/s")
    outcome.metric("latency_p50_ms", epoch_ms["p50"], "ms")
    outcome.detail["latency"] = {"unit_of_work": "one-epoch fit() call", **epoch_ms}
    checks(state, rounds, outcome)


def _traced_epoch(state: TrainState, recorder: tracing.Recorder, epoch: int) -> int:
    """One epoch of the data-parallel step loop ``fit()`` runs, rebuilt from
    the public blocks it composes and timed block by block on each rank;
    returns the number of optimizer steps."""
    cfg = trainer_config(state)
    samples = state.train
    model0 = copy.deepcopy(state.workbench.coherent_fusion)
    DistributedTrainer(model0, samples, state.val, cfg)  # calibrates the output layer, as fit() sees it
    order = spawn_rng(cfg.seed, "shuffle", epoch).permutation(len(samples))
    chunks = [order[i : i + cfg.chunk_size] for i in range(0, len(samples), cfg.chunk_size)]

    def rank_program(ctx):
        model = copy.deepcopy(model0)
        hvd = HorovodContext(ctx)
        hvd.broadcast_parameters(model, root_rank=0)
        model.train()
        dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
        optimizer = build_optimizer(cfg.optimizer, model.trainable_parameters(), lr=cfg.learning_rate,
                                    weight_decay=cfg.weight_decay)
        pack = optimizer.fuse()
        for step_start in range(0, len(chunks), cfg.chunks_per_step):
            step_chunks = chunks[step_start : step_start + cfg.chunks_per_step]
            step_samples = sum(len(c) for c in step_chunks)
            partials = []
            for pos in range(ctx.rank, len(step_chunks), ctx.size):
                for li, layer in enumerate(dropouts):
                    layer._rng = spawn_rng(cfg.seed, "dropout", epoch, step_start + pos, li)
                with recorder.span(tracing.COLLATE, chunks=1):
                    batch = collate_complexes([samples[i] for i in step_chunks[pos]], graph_layout="flat")
                with recorder.span(tracing.FORWARD_BACKWARD, chunks=1):
                    residual = model(batch) - Tensor(batch["target"])
                    sse = (residual * residual).sum()
                    optimizer.zero_grad()
                    sse.backward()
                    partials.append(np.concatenate([pack.grad_vector(), [sse.item()]]))
            with recorder.span(tracing.ALLREDUCE, epoch=epoch, step=step_start):
                reduced = hvd.allreduce_exact(partials, tag="grad-step")
            grad = reduced[:-1] / step_samples
            if cfg.grad_clip is not None:
                norm = float(np.sqrt(np.sum(grad * grad)))
                if norm > cfg.grad_clip and norm > 0:
                    grad = grad * (cfg.grad_clip / norm)
            with recorder.span(tracing.OPTIMIZER_STEP):
                optimizer.step_fused(grad)
        if ctx.rank == 0:
            with recorder.span(tracing.VALIDATE), no_grad():
                model.eval()
                for begin in range(0, len(state.val), cfg.chunk_size):
                    model(collate_complexes(state.val[begin : begin + cfg.chunk_size], graph_layout="flat"))

    run_spmd(rank_program, cfg.ranks)
    return math.ceil(len(chunks) / cfg.chunks_per_step)


def traced(name: str, state: TrainState, outcome: Outcome) -> None:
    rounds = run_rounds(state, state.rounds)
    epoch_s = float(np.median([s for r in rounds for s in r.epoch_s]))
    recorder = tracing.Recorder()
    recorder.start()
    steps = sum(_traced_epoch(state, recorder, epoch) for epoch in range(ROUND_EPOCHS))
    recorder.stop()
    records = recorder.records()
    table = tracing.layer_table(records, recorder.started, recorder.stopped)
    ranks = CONFIG["ranks"]
    collate_s, chunks, _ = tracing.layer_totals(records, tracing.COLLATE, "chunks")
    fb_s, _, _ = tracing.layer_totals(records, tracing.FORWARD_BACKWARD)
    opt_s, _, opt_calls = tracing.layer_totals(records, tracing.OPTIMIZER_STEP)
    validate_s, _, validations = tracing.layer_totals(records, tracing.VALIDATE)
    allreduce = _allreduce_cost(records)
    # rank compute on the critical path: each rank's share of the chunks
    # runs concurrently, so per step it is the chunk work divided by ranks
    compute_per_step = (collate_s + fb_s) / ranks / steps + opt_s / opt_calls
    untraced_step = (epoch_s - validate_s / validations) * ROUND_EPOCHS / steps
    values = {
        "featurize.collate_ms_per_chunk": tracing.per(collate_s, chunks, 1e3),
        "nn.forward_backward_ms_per_chunk": tracing.per(fb_s, chunks, 1e3),
        "nn.optimizer_step_ms": tracing.per(opt_s, opt_calls, 1e3),
        "hpc.allreduce_ms_per_step": allreduce * 1e3,
        "hpc.spmd_other_ms_per_step": (untraced_step - compute_per_step - allreduce) * 1e3,
        "models.validate_ms_per_epoch": tracing.per(validate_s, validations, 1e3),
    }
    traced_epoch_s = table["wall_s"] / ROUND_EPOCHS
    values["trace.overhead_ratio"] = traced_epoch_s / epoch_s
    tracing.emit_layers(outcome, values, table)
    outcome.detail["trace_files"] = tracing.write_trace(recorder, table, OUT_DIR / "traces" / f"train-{state.seed}")
    checks(state, rounds, outcome)


def _allreduce_cost(records) -> float:
    """Mean all-reduce time per step of the last rank to arrive.

    The first rank's span also holds its wait for the other; the last
    arrival's span is the reduction itself.
    """
    by_step: dict[tuple, float] = {}
    for r in records:
        if r.name == tracing.ALLREDUCE:
            key = (r.counters["epoch"], r.counters["step"])
            by_step[key] = min(by_step.get(key, math.inf), r.duration_s)
    return float(np.mean(list(by_step.values()))) if by_step else 0.0


def teardown(state: TrainState) -> None:
    """Training holds no resources between runs."""
