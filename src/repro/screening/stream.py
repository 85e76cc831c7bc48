"""Shard-parallel streaming screening with bounded-memory exact top-K.

The paper's headline capability is screening hundreds of millions of
compounds on HPC, so campaign size must be capped by hardware throughput
rather than by RSS.  :class:`StreamingScreen` iterates a compound
source (a materialized deck or a lazily-generated
:class:`~repro.datasets.libraries.StreamingLibrary`) in bounded-size
shards, drives each shard through ligand prep → :func:`dock_many` →
MM/GBSA → fusion scoring on a bounded, ordered thread pool, and folds
results into

* an exact bounded-memory top-K selector per binding site
  (:class:`TopKSelector` — a heap with deterministic
  ``(score desc, compound_id asc)`` tie-breaking, bit-identical to
  full-sort selection), and
* exact streaming per-site score statistics (:class:`StreamingStats` —
  Shewchuk-expansion sums, so mean/std are correctly rounded and
  therefore independent of accumulation order),

so peak memory stays ``O(shard_size + K)`` regardless of library size.

Determinism contract (the golden suite in
``tests/test_streaming_screen.py`` enforces it bit-for-bit):

* every per-compound computation derives its randomness from
  ``(seed, site, compound_id)`` — prep, docking and MM/GBSA are already
  composition-invariant by construction (PR 3-4);
* fusion batches never span compounds: each compound's pose list is
  scored in chunks of ``fusion_batch_size`` poses (``0`` = one batch per
  compound), so NN batch composition — the one ulp-sensitive knob — is a
  function of the compound alone, never of shard boundaries or worker
  scheduling;
* shard results are folded in shard-index order, with at most
  ``2 × workers`` shards submitted but not yet folded, so the output is
  independent of which worker finished first.

Consequently top-K ids, scores and summary statistics are bit-identical
across any ``shard_size`` and any ``workers`` — which is also why those
two knobs are deliberately excluded from checkpoint keys.

Each completed shard can be checkpointed under a content key through
:class:`~repro.runtime.checkpoint.CheckpointStore`; a killed streaming
run resumes at shard granularity without rescoring finished shards.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking, CDT4Mmgbsa, DockingRecord
from repro.featurize.engine import FeaturePipeline
from repro.hpc.faults import FaultEvent, FaultInjector
from repro.nn.module import Module
from repro.runtime.checkpoint import CheckpointStore, checkpoint_key
from repro.runtime.stages import RetryPolicy
from repro.screening.partition import shard_bounds
from repro.telemetry import Telemetry, activate, build_run_record, stage_entry, worker_occupancy
from repro.telemetry import current as current_telemetry
from repro.telemetry.exact import ExactSum
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed
from repro.utils.timer import Timer

logger = get_logger("repro.screening.stream")


# --------------------------------------------------------------------------- #
# Exact accumulation
# --------------------------------------------------------------------------- #
# ``ExactSum`` (the Shewchuk-expansion exact float sum that makes the
# streaming statistics order-invariant) now lives in
# :mod:`repro.telemetry.exact` — the telemetry layer's mergeable
# histograms need the same order-invariant totals and sit *below* this
# module.  It stays importable from here for the streaming API's users.


@dataclass
class StreamingStats:
    """Exact streaming summary statistics of one score stream.

    ``mean``/``std`` are computed from Shewchuk-exact sums, so every
    derived quantity is a deterministic function of the *set* of added
    values — accumulation order (and therefore shard size and worker
    scheduling) cannot perturb a single bit.  NaN values are counted and
    excluded, matching the top-K selector's NaN policy.
    """

    count: int = 0
    nan_count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    _sum: ExactSum = field(default_factory=ExactSum, repr=False)
    _sum_sq: ExactSum = field(default_factory=ExactSum, repr=False)

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            self.nan_count += 1
            return
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._sum.add(value)
        self._sum_sq.add(value * value)

    @property
    def total(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        return self._sum.value / self.count if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Population variance from the exact first and second moments."""
        if not self.count:
            return float("nan")
        total = self._sum.value
        return max((self._sum_sq.value - total * total / self.count) / self.count, 0.0)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.count else float("nan")

    def as_array(self) -> np.ndarray:
        """Canonical fingerprint array for exact (``np.array_equal``) comparison."""
        return np.array(
            [float(self.count), float(self.nan_count), self.minimum, self.maximum, self.mean, self.std],
            dtype=np.float64,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "nan_count": float(self.nan_count),
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "std": self.std,
        }


# --------------------------------------------------------------------------- #
# Exact bounded-memory top-K
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopKEntry:
    """One ranked compound: higher ``score`` first, ties by ``compound_id``."""

    compound_id: str
    score: float


class _HeapItem:
    """Min-heap node ordered worst-first under the selector's total order."""

    __slots__ = ("score", "compound_id", "valid")

    def __init__(self, score: float, compound_id: str) -> None:
        self.score = score
        self.compound_id = compound_id
        self.valid = True

    def __lt__(self, other: "_HeapItem") -> bool:
        # "worse" sorts first: lower score, then lexicographically larger id
        if self.score != other.score:
            return self.score < other.score
        return self.compound_id > other.compound_id


class TopKSelector:
    """Exact bounded-memory top-K with deterministic tie-breaking.

    The selection is *bit-identical to full-sort selection*: after any
    stream of ``offer`` calls, :meth:`ranking` equals deduplicating the
    stream to the best score per compound id, sorting by
    ``(score desc, compound_id asc)`` and truncating to ``k`` — for any
    offer order.  (Proof sketch: the kept set is always exactly the
    top-K of the best-per-id prefix; the k-th-best threshold is monotone
    non-decreasing, so a rejected offer can never belong to the final
    top-K.)

    Memory is ``O(k)``: a min-heap of the current members plus a
    member index; replaced entries are lazily invalidated and the heap
    is compacted when it exceeds ``2k``.

    NaN scores are dropped (``nan_policy="drop"``, counted in
    :attr:`nan_dropped`) or rejected (``nan_policy="raise"``); a NaN can
    never enter the selection.  Duplicate compound ids keep their best
    score, so re-offering a compound (e.g. a retried shard) can never
    double-count it.
    """

    def __init__(self, k: int, nan_policy: str = "drop") -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if nan_policy not in ("drop", "raise"):
            raise ValueError(f"unknown nan_policy '{nan_policy}'")
        self.k = int(k)
        self.nan_policy = nan_policy
        self.offers = 0
        self.nan_dropped = 0
        self._heap: list[_HeapItem] = []
        self._members: dict[str, _HeapItem] = {}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._members)

    def _better(self, score: float, compound_id: str, item: _HeapItem) -> bool:
        """Is ``(score, compound_id)`` better than ``item`` under the total order?"""
        if score != item.score:
            return score > item.score
        return compound_id < item.compound_id

    def _worst(self) -> _HeapItem:
        heap = self._heap
        while not heap[0].valid:
            heapq.heappop(heap)
        return heap[0]

    def _push(self, score: float, compound_id: str) -> None:
        item = _HeapItem(score, compound_id)
        self._members[compound_id] = item
        heapq.heappush(self._heap, item)
        if len(self._heap) > 2 * self.k + 8:
            self._heap = [entry for entry in self._heap if entry.valid]
            heapq.heapify(self._heap)

    def offer(self, compound_id: str, score: float) -> bool:
        """Offer one ``(compound_id, score)``; returns whether it was kept."""
        self.offers += 1
        score = float(score)
        if math.isnan(score):
            if self.nan_policy == "raise":
                raise ValueError(f"NaN score offered for compound '{compound_id}'")
            self.nan_dropped += 1
            return False
        if self.k == 0:
            return False
        current = self._members.get(compound_id)
        if current is not None:
            if score > current.score:
                current.valid = False
                self._push(score, compound_id)
                return True
            return False
        if len(self._members) < self.k:
            self._push(score, compound_id)
            return True
        worst = self._worst()
        if self._better(score, compound_id, worst):
            worst.valid = False
            del self._members[worst.compound_id]
            self._push(score, compound_id)
            return True
        return False

    # ------------------------------------------------------------------ #
    def threshold(self) -> float:
        """Score of the current k-th member (``-inf`` while not full)."""
        if self.k == 0:
            return math.inf
        if len(self._members) < self.k:
            return -math.inf
        return self._worst().score

    def ranking(self) -> list[TopKEntry]:
        """Members sorted best-first: ``(score desc, compound_id asc)``."""
        ordered = sorted(self._members.values(), key=lambda m: (-m.score, m.compound_id))
        return [TopKEntry(compound_id=m.compound_id, score=m.score) for m in ordered]


def topk_by_full_sort(offers: Sequence[tuple[str, float]], k: int) -> list[TopKEntry]:
    """Reference full-sort selection the bounded selector must match bit-for-bit.

    Dedupe to the best score per compound id (NaN dropped), sort by
    ``(score desc, compound_id asc)``, truncate to ``k``.
    """
    best: dict[str, float] = {}
    for compound_id, score in offers:
        score = float(score)
        if math.isnan(score):
            continue
        if compound_id not in best or score > best[compound_id]:
            best[compound_id] = score
    ordered = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return [TopKEntry(compound_id=cid, score=score) for cid, score in ordered[: int(k)]]


# --------------------------------------------------------------------------- #
# Stream configuration and results
# --------------------------------------------------------------------------- #
class StreamShardError(RuntimeError):
    """A shard exhausted its retry budget (or its body raised).

    When raised out of :meth:`StreamingScreen.run`, the engine attaches
    the progress it managed to persist before propagating —
    ``shards_executed`` / ``shards_restored`` / ``num_shards`` — so a
    caller (e.g. the campaign runtime's stage report) can record how far
    the stream got and what a resumed run will skip.
    """

    def __init__(self, shard_index: int, cause: BaseException | FaultEvent, attempts: int) -> None:
        super().__init__(f"shard {shard_index} failed after {attempts} attempts: {cause}")
        self.shard_index = shard_index
        self.cause = cause
        self.attempts = attempts
        self.shards_executed = 0
        self.shards_restored = 0
        self.num_shards = 0
        #: fold-level accounting at the moment of failure (covers every
        #: folded shard plus the failing one) — the runtime copies these
        #: into the kept StageReport so the streamed stage's fault
        #: history is observable even when it dies
        self.total_attempts = 0
        self.total_retries = 0
        self.faults: list[str] = []


@dataclass
class StreamConfig:
    """Execution policy of one streaming screen.

    ``shard_size`` and ``workers`` are pure throughput knobs: results
    are bit-identical across both (see the module docstring), which is
    why they never enter checkpoint keys.  ``fusion_batch_size`` *does*
    shape NN batch composition (within each compound's pose list) and is
    therefore part of the content key; ``0`` scores each compound's
    poses as a single batch.
    """

    shard_size: int = 64
    workers: int = 1
    #: accepts ``"thread"`` only: shards always run on the engine's
    #: ordered thread pool.  Kept so existing callers that spell the
    #: backend out still construct; nothing reads it.
    backend: str = "thread"
    top_k: int = 50
    fusion_batch_size: int = 0
    poses_per_compound: int = 4
    docking_mc_steps: int = 25
    docking_restarts: int = 2
    mmgbsa: bool = True
    mmgbsa_max_poses: int = 10
    seed: int = 2020
    library_name: str = "campaign"
    nan_policy: str = "drop"
    #: re-runs a shard whose attempt drew an injected ``FaultInjector``
    #: fault.  An exception raised by the shard body itself is not
    #: retried: shard bodies are deterministic, so it fails the shard on
    #: that attempt and goes straight to ``on_shard_failure``.  Never
    #: enters shard keys.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: ``"raise"`` stops the stream on retry exhaustion (completed shards
    #: keep their checkpoints); ``"skip"`` records the shard as failed
    #: and continues — the accounting invariant
    #: ``submitted == completed + failed`` holds either way
    on_shard_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.fusion_batch_size < 0:
            raise ValueError("fusion_batch_size must be non-negative (0 = per-compound)")
        if self.on_shard_failure not in ("raise", "skip"):
            raise ValueError(f"unknown on_shard_failure policy '{self.on_shard_failure}'")
        if self.backend != "thread":
            raise ValueError(
                f"unknown execution backend {self.backend!r}: shards run on threads only "
                "(the process backend was removed)"
            )


@dataclass
class ShardOutcome:
    """What one shard produced (or why it did not)."""

    index: int
    start: int
    stop: int
    status: str  # "executed" | "restored" | "failed"
    #: per-site ``[(compound_id, best_fusion_pk)]`` in shard compound order
    best_scores: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    #: per-site docked/rescored/scored records (shard-local)
    records: list[DockingRecord] = field(default_factory=list)
    num_compounds: int = 0
    attempts: int = 1
    faults: list[str] = field(default_factory=list)
    error: str = ""
    #: content key computed by the worker (checkpointed runs only), so
    #: the fold thread never re-materializes the shard to re-derive it
    checkpoint_key: str = ""


@dataclass
class StreamingScreenResult:
    """Folded output of one streaming screen."""

    top_k: dict[str, list[TopKEntry]]
    stats: dict[str, StreamingStats]
    num_compounds: int
    num_shards: int
    shards_executed: int
    shards_restored: int
    shards_failed: int
    failed_shards: list[int]
    total_attempts: int
    total_retries: int
    faults: list[str]
    duration_s: float
    #: True when the run stopped early (``stop_after_shards``)
    aborted: bool = False
    #: shard-local records merged in shard order — only with
    #: ``collect_records=True`` (campaign integration)
    records: list[DockingRecord] | None = None

    @property
    def shards_submitted(self) -> int:
        """Shards handed to the pool: completed (executed + restored) + failed."""
        return self.shards_executed + self.shards_restored + self.shards_failed

    def topk_arrays(self, site_name: str) -> tuple[np.ndarray, np.ndarray]:
        entries = self.top_k[site_name]
        return (
            np.array([e.compound_id for e in entries], dtype="U"),
            np.array([e.score for e in entries], dtype=np.float64),
        )

    def summary(self) -> dict[str, float]:
        return {
            "num_compounds": float(self.num_compounds),
            "num_shards": float(self.num_shards),
            "shards_executed": float(self.shards_executed),
            "shards_restored": float(self.shards_restored),
            "shards_failed": float(self.shards_failed),
            "total_retries": float(self.total_retries),
            "duration_s": self.duration_s,
        }


# --------------------------------------------------------------------------- #
# The streaming engine
# --------------------------------------------------------------------------- #
class StreamingScreen:
    """Shard-parallel streaming screen over a compound source.

    Parameters
    ----------
    model:
        Trained fusion model (``predict_batch``-capable, like the zoo in
        :mod:`repro.models.fusion`); it scores each compound's featurized
        poses.
    featurizer:
        Shared featurizer; its ``featurize_many`` turns each compound's
        poses into model samples.
    sites:
        Binding sites to screen against (processed in sorted-name order,
        exactly like :class:`~repro.docking.conveyorlc.CDT3Docking`).
    config:
        See :class:`StreamConfig`.
    checkpoints / checkpoint_salt:
        Optional :class:`~repro.runtime.checkpoint.CheckpointStore`;
        every folded shard is persisted under a content key mixing
        ``checkpoint_salt`` (the configuration digest) with the shard's
        compound ids, so a killed run resumes at shard granularity and a
        changed configuration can never restore stale shards.
    fault_injector:
        Optional fault source; each shard attempt passes through one
        draw, keyed by shard name and attempt number.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  When given,
        it is *activated* for the duration of :meth:`run`, so spans from
        nested components (docking kernels, featurization) land on the
        same tracer; when omitted, the process-wide
        active bundle is used (the zero-overhead null default unless an
        orchestrator activated one).  Telemetry is observation-only: it
        is deliberately not part of :class:`StreamConfig` and never
        enters shard checkpoint keys, and the golden suite pins the
        results bit-identical with it on or off.
    """

    def __init__(
        self,
        model: Module,
        featurizer: FeaturePipeline,
        sites: Mapping[str, BindingSite],
        config: StreamConfig | None = None,
        *,
        checkpoints: CheckpointStore | None = None,
        checkpoint_salt: str = "",
        fault_injector: FaultInjector | None = None,
        prep_factory: Callable[[], CDT2Ligand] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        config = config or StreamConfig()
        self.model = model
        self.featurizer = featurizer
        self.sites = dict(sorted(sites.items()))
        self.config = config
        self.checkpoints = checkpoints
        self.checkpoint_salt = str(checkpoint_salt)
        self.faults = fault_injector or FaultInjector(enabled=False)
        self.prep_factory = prep_factory or CDT2Ligand
        self.telemetry = telemetry
        self._last_run: dict | None = None
        self.receptors = CDT1Receptor().run(list(self.sites.values()))
        self._site_map = {name: receptor.site for name, receptor in self.receptors.items()}

    # ------------------------------------------------------------------ #
    # source access
    # ------------------------------------------------------------------ #
    @staticmethod
    def _source_len(source: Any) -> int:
        return len(source)

    @staticmethod
    def _source_slice(source: Any, start: int, stop: int) -> list[Molecule]:
        """Materialize one shard of molecules from a deck, list or lazy library."""
        generate_range = getattr(source, "generate_range", None)
        if generate_range is not None:
            return generate_range(start, stop)
        molecules = getattr(source, "molecules", source)
        return list(molecules[start:stop])

    # ------------------------------------------------------------------ #
    # shard keys
    # ------------------------------------------------------------------ #
    def shard_name(self, index: int) -> str:
        return f"stream-shard-{index:06d}"

    def shard_key(self, index: int, compound_ids: Sequence[str]) -> str:
        """Content key of one shard: caller salt + shard content + every
        :class:`StreamConfig` knob that shapes shard payloads.

        The config ingredients live in the key itself (not only in the
        caller-provided salt) so a direct user of the checkpointing API
        can never restore shards scored under a different seed, docking
        budget or fusion batch protocol.  The invariance knobs —
        ``shard_size``, ``workers``, ``top_k``, ``nan_policy`` — are
        deliberately absent: they cannot move a bit of any shard payload
        (module docstring), so retuning them keeps checkpoints warm.  Model and featurizer identity are the
        caller's to digest into ``checkpoint_salt`` (the campaign
        runtime mixes both via its stage ingredients).
        """
        cfg = self.config
        return checkpoint_key(
            self.shard_name(index),
            {
                "salt": self.checkpoint_salt,
                "compounds": tuple(compound_ids),
                "sites": tuple(self.sites),
                "seed": cfg.seed,
                "library": cfg.library_name,
                "poses_per_compound": cfg.poses_per_compound,
                "docking_mc_steps": cfg.docking_mc_steps,
                "docking_restarts": cfg.docking_restarts,
                "fusion_batch_size": cfg.fusion_batch_size,
                "mmgbsa": (cfg.mmgbsa, cfg.mmgbsa_max_poses),
            },
        )

    # ------------------------------------------------------------------ #
    # per-shard pipeline
    # ------------------------------------------------------------------ #
    def _score_poses(self, site: BindingSite, poses: list[DockingRecord]) -> None:
        """Fusion-score one compound's pose list in composition-stable batches."""
        complexes = [
            ProteinLigandComplex(site=site, ligand=r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
            for r in poses
        ]
        chunk = self.config.fusion_batch_size or len(complexes)
        samples = self.featurizer.featurize_many(complexes)
        for begin in range(0, len(samples), chunk):
            scores = self.model.predict_batch(samples[begin : begin + chunk])
            for record, score in zip(poses[begin : begin + chunk], scores):
                record.fusion_pk = float(score)

    def _execute_shard(self, index: int, start: int, stop: int, source: Any) -> ShardOutcome:
        cfg = self.config
        molecules = self._source_slice(source, start, stop)
        prepared = self.prep_factory().run(molecules, library=cfg.library_name)
        docking = CDT3Docking(
            num_poses=cfg.poses_per_compound,
            monte_carlo_steps=cfg.docking_mc_steps,
            restarts=cfg.docking_restarts,
            seed=derive_seed(cfg.seed, "docking"),
        )
        database = docking.run(self.receptors, prepared)
        if cfg.mmgbsa:
            CDT4Mmgbsa(
                max_poses=cfg.mmgbsa_max_poses,
                seed=derive_seed(cfg.seed, "mmgbsa"),
            ).run(database, self._site_map)

        best_scores: dict[str, list[tuple[str, float]]] = {name: [] for name in self.sites}
        records: list[DockingRecord] = []
        for site_name, site in self.sites.items():
            for prep in prepared:
                poses = database.poses(site_name, prep.compound_id)
                if not poses:
                    continue
                self._score_poses(site, poses)
                best = max(r.fusion_pk for r in poses)
                best_scores[site_name].append((prep.compound_id, best))
                records.extend(poses)
        return ShardOutcome(
            index=index,
            start=start,
            stop=stop,
            status="executed",
            best_scores=best_scores,
            records=records,
            num_compounds=len(molecules),
        )

    def _shard_compound_ids(self, source: Any, start: int, stop: int) -> tuple[str, ...]:
        """Compound ids of one shard, without materializing molecules when
        the source can name compounds by index (``StreamingLibrary``)."""
        compound_name = getattr(source, "compound_name", None)
        if compound_name is not None:
            return tuple(compound_name(index) for index in range(start, stop))
        return tuple(m.name for m in self._source_slice(source, start, stop))

    def _run_shard(self, index: int, start: int, stop: int, source: Any) -> ShardOutcome:
        """One shard with restore-from-checkpoint and fault-injected retries."""
        cfg = self.config
        key = ""
        if self.checkpoints is not None:
            key = self.shard_key(index, self._shard_compound_ids(source, start, stop))
            payload = self.checkpoints.load(self.shard_name(index), key)
            if payload is not None:
                return ShardOutcome(
                    index=index,
                    start=start,
                    stop=stop,
                    status="restored",
                    best_scores=payload["best_scores"],
                    records=payload["records"],
                    num_compounds=payload["num_compounds"],
                    attempts=0,
                    checkpoint_key=key,
                )
        attempt = 0
        faults: list[str] = []
        while True:
            attempt += 1
            fault = self.faults.check(self.shard_name(index), 1, attempt=attempt)
            if fault is None:
                try:
                    outcome = self._execute_shard(index, start, stop, source)
                except Exception as error:
                    outcome = ShardOutcome(
                        index=index, start=start, stop=stop, status="failed",
                        attempts=attempt, faults=faults, error=str(error),
                    )
                outcome.attempts = attempt
                outcome.faults = faults
                outcome.checkpoint_key = key
                return outcome
            faults.append(str(fault))
            if attempt > cfg.retry.max_retries:
                return ShardOutcome(
                    index=index, start=start, stop=stop, status="failed",
                    attempts=attempt, faults=faults, error=str(fault),
                )
            delay = cfg.retry.backoff_for(attempt)
            logger.info("fault %s; retrying shard %d (attempt %d)", fault.mode, index, attempt + 1)
            if delay > 0:
                time.sleep(delay)

    # ------------------------------------------------------------------ #
    # the streaming run
    # ------------------------------------------------------------------ #
    def run(
        self,
        source: Any,
        *,
        stop_after_shards: int | None = None,
        collect_records: bool = False,
    ) -> StreamingScreenResult:
        """Stream ``source`` through the pipeline and fold the results.

        Parameters
        ----------
        source:
            A materialized molecule sequence, a
            :class:`~repro.datasets.libraries.ScreeningDeck`, or a lazy
            :class:`~repro.datasets.libraries.StreamingLibrary`.
        stop_after_shards:
            Fold (and checkpoint) only the first N shards, then stop —
            simulating a killed run; the returned result is marked
            ``aborted``.  A later :meth:`run` with a checkpoint store
            resumes without rescoring those shards.
        collect_records:
            Retain per-pose docking records (with their fusion scores) in
            the result.
            This trades the bounded-memory guarantee for campaign
            integration, where downstream stages (cost function, assays)
            need the materialized database — only sensible for
            seed-sized decks.
        """
        cfg = self.config
        telemetry = self.telemetry if self.telemetry is not None else current_telemetry()
        scope = activate(self.telemetry) if self.telemetry is not None else nullcontext()
        tracer = telemetry.tracer
        registry = telemetry.registry
        shard_seconds = registry.histogram("stream.shard_s", min_value=1e-6, max_value=1e5, growth=1.05)
        count_executed = registry.counter("stream.shards_executed")
        count_restored = registry.counter("stream.shards_restored")
        count_failed = registry.counter("stream.shards_failed")
        count_retries = registry.counter("stream.shard_retries")
        count_compounds = registry.counter("stream.compounds")
        timer = Timer(tracer=tracer, stage="streamed_screen")
        started = time.perf_counter()
        scope.__enter__()
        run_span = tracer.span("streaming-screen", stage="streamed_screen")
        run_span.__enter__()
        startup_section = timer.section("startup")
        startup_section.__enter__()
        total = self._source_len(source)
        bounds = shard_bounds(total, cfg.shard_size)
        limit = len(bounds) if stop_after_shards is None else min(max(int(stop_after_shards), 0), len(bounds))
        run_span.set("num_shards", limit)

        top_k = {name: TopKSelector(cfg.top_k, nan_policy=cfg.nan_policy) for name in self.sites}
        stats = {name: StreamingStats() for name in self.sites}
        records: list[DockingRecord] | None = [] if collect_records else None

        executed = restored = failed = 0
        failed_shards: list[int] = []
        total_attempts = 0
        total_retries = 0
        fault_log: list[str] = []
        num_compounds = 0

        # Shards run on one ordered executor.  At most ``window`` shards
        # are submitted but not yet folded, which bounds buffered memory,
        # and the coordinator folds strictly in shard-index order.  It only
        # ever waits on the frontier shard's future, which is always
        # submitted, so the stream cannot deadlock.
        window = 2 * cfg.workers
        pending: deque[Future] = deque()
        upcoming = iter(range(limit))
        # per-thread busy seconds; each key is written by its own thread only
        busy: dict[str, float] = {}

        def run_on_worker(shard: int) -> ShardOutcome:
            start, stop = bounds[shard]
            shard_started = time.perf_counter()
            try:
                with tracer.span(self.shard_name(shard), stage="streamed_screen", parent=run_span) as span:
                    outcome = self._run_shard(shard, start, stop, source)
                    span.set("compounds", outcome.num_compounds)
                    span.set("attempts", outcome.attempts)
            except BaseException as error:  # defensive: _run_shard catches job errors
                outcome = ShardOutcome(index=shard, start=start, stop=stop, status="failed", error=str(error))
            shard_elapsed = time.perf_counter() - shard_started
            thread = threading.current_thread().name
            busy[thread] = busy.get(thread, 0.0) + shard_elapsed
            shard_seconds.observe(shard_elapsed)
            return outcome

        executor = ThreadPoolExecutor(
            max_workers=min(cfg.workers, max(limit, 1)), thread_name_prefix="stream-worker"
        )

        def submit_ahead() -> None:
            for shard in islice(upcoming, window - len(pending)):
                pending.append(executor.submit(run_on_worker, shard))

        submit_ahead()

        def fold(outcome: ShardOutcome) -> None:
            nonlocal executed, restored, failed, num_compounds, total_attempts, total_retries
            total_attempts += outcome.attempts
            # attempts beyond the first (a terminal fault that
            # exhausts the budget is not a retry)
            total_retries += max(outcome.attempts - 1, 0)
            count_retries.inc(max(outcome.attempts - 1, 0))
            fault_log.extend(outcome.faults)
            if outcome.status == "failed":
                failed += 1
                count_failed.inc()
                failed_shards.append(outcome.index)
                if cfg.on_shard_failure == "raise":
                    raise StreamShardError(outcome.index, RuntimeError(outcome.error), outcome.attempts)
                return
            if outcome.status == "restored":
                restored += 1
                count_restored.inc()
            else:
                executed += 1
                count_executed.inc()
                if self.checkpoints is not None:
                    try:
                        self.checkpoints.save(
                            self.shard_name(outcome.index),
                            outcome.checkpoint_key,
                            {
                                "best_scores": outcome.best_scores,
                                "records": outcome.records,
                                "num_compounds": outcome.num_compounds,
                            },
                        )
                    except Exception as error:
                        logger.warning("could not checkpoint shard %d: %s", outcome.index, error)
            num_compounds += outcome.num_compounds
            count_compounds.inc(outcome.num_compounds)
            for site_name, pairs in outcome.best_scores.items():
                for compound_id, score in pairs:
                    top_k[site_name].offer(compound_id, score)
                    stats[site_name].add(score)
            if records is not None:
                records.extend(outcome.records)

        startup_section.__exit__(None, None, None)
        try:
            for _ in range(limit):
                # the coordinating thread's own Table 7 accounting:
                # "evaluation" while it waits on shard computation,
                # "output" while it folds/checkpoints — disjoint sections,
                # so the phases sum to at most the stage's wall time
                with timer.section("evaluation"):
                    outcome = pending[0].result()
                    pending.popleft()
                    submit_ahead()
                with timer.section("output"):
                    fold(outcome)
        except BaseException as error:
            # durability on the failure path: drop queued shards, let
            # in-flight ones finish, then fold (and checkpoint) every
            # completed shard before propagating, so a resumed run only
            # redoes what genuinely never finished
            executor.shutdown(wait=True, cancel_futures=True)
            for future in pending:
                if future.cancelled():
                    continue
                outcome = future.result()
                if outcome.status != "failed":
                    try:
                        fold(outcome)
                    except Exception:  # pragma: no cover - best effort
                        pass
            if isinstance(error, StreamShardError):
                error.shards_executed = executed
                error.shards_restored = restored
                error.num_shards = len(bounds)
                error.total_attempts = total_attempts
                error.total_retries = total_retries
                error.faults = list(fault_log)
            raise
        finally:
            executor.shutdown(wait=True)
            run_span.__exit__(None, None, None)
            scope.__exit__(None, None, None)

        duration = time.perf_counter() - started
        result = StreamingScreenResult(
            top_k={name: selector.ranking() for name, selector in top_k.items()},
            stats=stats,
            num_compounds=num_compounds,
            num_shards=len(bounds),
            shards_executed=executed,
            shards_restored=restored,
            shards_failed=failed,
            failed_shards=failed_shards,
            total_attempts=total_attempts,
            total_retries=total_retries,
            faults=fault_log,
            duration_s=duration,
            aborted=limit < len(bounds),
            records=records,
        )
        self._last_run = {
            "timer": timer.as_dict(),
            "busy": {index: busy[thread] for index, thread in enumerate(sorted(busy))},
            "result": result,
            "duration_s": duration,
            "telemetry": telemetry,
        }
        return result

    # ------------------------------------------------------------------ #
    # run record
    # ------------------------------------------------------------------ #
    def run_record(self) -> dict:
        """Run-record document of the most recent completed :meth:`run`.

        One schema-valid document (see :mod:`repro.telemetry.runrecord`)
        carrying the streamed stage's startup/evaluation/output phase
        breakdown (Table 7, measured on the coordinating thread — the
        phases sum exactly to the stage's wall time), per-worker
        occupancy, the metrics-registry snapshot and
        the fold's retry/fault history.
        """
        if self._last_run is None:
            raise RuntimeError("run_record() requires a completed run()")
        info = self._last_run
        result: StreamingScreenResult = info["result"]
        telemetry: Telemetry = info["telemetry"]
        stage = stage_entry(
            "streamed_screen",
            "executed",
            info["duration_s"],
            info["timer"],
            attempts=result.total_attempts,
            retries=result.total_retries,
            faults=result.faults,
            extra=result.summary(),
        )
        return build_run_record(
            "streaming_screen",
            duration_s=info["duration_s"],
            stages=[stage],
            metrics=telemetry.snapshot(),
            workers=worker_occupancy(info["busy"], info["duration_s"]),
            trace={"num_spans": len(telemetry.tracer)},
            faults=result.faults,
        )
