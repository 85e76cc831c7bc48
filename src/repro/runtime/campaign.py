"""The fault-tolerant campaign runtime.

:class:`CampaignRuntime` decomposes the screening campaign into the
stage graph below, executes stages in order, checkpoints every completed
stage under a content key and restores completed stages on re-runs —
a killed campaign resumes from the last completed stage instead of
restarting, which is what makes days-long screening allotments under a
12-hour wall-time limit (and the paper's §4.3 fault rates) survivable.

::

    library ──> streamed_screen ──> cost_function ──> assays

``streamed_screen`` runs ligand prep, docking, MM/GBSA and fusion
scoring through the shard-streamed engine (:mod:`repro.screening.stream`)
and collects every record.  Inside the stage, progress checkpoints and
retries at shard granularity: each shard passes through the runtime's
fault injector and :class:`~repro.runtime.stages.RetryPolicy`, and a
killed or failed stage resumes from its folded shards.

Stage keys chain: each key hashes the stage's own configuration
ingredients (seeds, library counts, docking knobs, the fusion model's
weight fingerprint, cost-function weights, ...) together with the keys
of its dependencies.  Changing the seed invalidates everything; swapping
the fusion model invalidates ``streamed_screen`` (its shard keys include
the model fingerprint) and its downstream stages, while ``library``
keeps restoring.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.protein import make_sarscov2_targets
from repro.datasets.assays import make_assay_panel, simulate_campaign_assays
from repro.datasets.libraries import build_screening_deck
from repro.docking.ampl import AMPLSurrogate
from repro.docking.conveyorlc import DockingDatabase
from repro.featurize.engine import FeaturePipeline
from repro.hpc.faults import FaultInjector
from repro.hpc.h5store import H5Store
from repro.nn.module import Module
from repro.runtime.checkpoint import CheckpointStore, checkpoint_key
from repro.runtime.stages import RetryPolicy, RuntimeReport, Stage, StageFailure, StageGraph, StageReport
from repro.screening.costfunction import CompoundCostFunction, CompoundScore
from repro.screening.job import JobResult
from repro.screening.output import write_job_output, write_topk
from repro.screening.pipeline import CampaignConfig, CampaignResult
from repro.serving.requests import model_fingerprint, site_digest
from repro.telemetry import Telemetry, activate, build_run_record, stage_entry
from repro.telemetry import current as current_telemetry
from repro.telemetry.spans import phase_totals_of
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

logger = get_logger("repro.runtime")

#: The campaign's stage graph: prep/dock/rescore/score run as one
#: shard-streamed stage (:mod:`repro.screening.stream`) whose *internal*
#: progress checkpoints at shard granularity through the same store.
CAMPAIGN_STAGES = StageGraph(
    [
        Stage("library", provides=("sites", "deck")),
        Stage(
            "streamed_screen",
            provides=("receptors", "database", "job_results", "topk", "stream_stats"),
            deps=("library",),
        ),
        Stage("cost_function", provides=("selections", "ampl_models"), deps=("streamed_screen",)),
        Stage("assays", provides=("assays", "structural_pk"), deps=("cost_function",)),
    ]
)


@dataclass
class RuntimeConfig:
    """Execution policy of the campaign runtime."""

    #: directory for stage checkpoints; ``None`` disables checkpointing
    #: (the thin ``ScreeningCampaign.run()`` facade default)
    checkpoint_dir: str | None = None
    #: restore completed stages from matching checkpoints (disable to
    #: force re-execution while still writing fresh checkpoints)
    resume: bool = True
    #: shard workers of the streamed screen
    max_workers: int = 4
    #: retry budget and backoff of every streamed shard
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: fault source for shard attempts; ``None`` means no injected faults
    fault_injector: FaultInjector | None = None


class CampaignRuntime:
    """Resumable, fault-tolerant execution of one screening campaign."""

    def __init__(
        self,
        model: Module,
        featurizer: FeaturePipeline,
        campaign: CampaignConfig | None = None,
        runtime: RuntimeConfig | None = None,
        cost_function: CompoundCostFunction | None = None,
        interaction_model: InteractionModel | None = None,
        checkpoints: CheckpointStore | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.model = model
        self.featurizer = featurizer
        self.campaign = campaign or CampaignConfig()
        self.runtime = runtime or RuntimeConfig()
        self.cost_function = cost_function or CompoundCostFunction()
        self.interaction_model = interaction_model or InteractionModel()
        self.campaign.validate()
        if checkpoints is not None:
            self.checkpoints: CheckpointStore | None = checkpoints
        elif self.runtime.checkpoint_dir is not None:
            self.checkpoints = CheckpointStore(self.runtime.checkpoint_dir)
        else:
            self.checkpoints = None
        self.stages = CAMPAIGN_STAGES
        self.report = RuntimeReport()
        #: how many times each stage actually executed over this
        #: runtime's lifetime (restores do not count) — the counters the
        #: kill/resume tests assert on
        self.execution_counts: dict[str, int] = {name: 0 for name in self.stages.names()}
        self._model_fp: str | None = None
        #: optional telemetry bundle; activated around :meth:`run` so
        #: nested components (docking kernels, featurization, the
        #: streamed screen) trace into the same tracer.  Observation
        #: only — never part of stage ingredients or checkpoint keys.
        self.telemetry = telemetry
        self._run_duration: float | None = None
        self._run_telemetry: Telemetry | None = None

    # ------------------------------------------------------------------ #
    def model_fp(self) -> str:
        """Fingerprint of the fusion model's weights (memoized)."""
        if self._model_fp is None:
            self._model_fp = model_fingerprint(self.model)
        return self._model_fp

    def _featurizer_digest(self) -> tuple:
        """Deterministic identity of the featurization that feeds the model.

        A changed grid resolution or graph cutoff changes model inputs
        (and therefore scores), so it must invalidate the streamed shards
        just like a model-weight swap does.  Cache settings do not change
        a feature bit, so they stay out of the digest (and out of every
        shard checkpoint key).
        """
        f = self.featurizer
        return (
            tuple(sorted(vars(f.voxelizer.config).items())),
            repr(f.graph_builder.config),
            f.augment,
            f.rotation_probability,
        )

    # ------------------------------------------------------------------ #
    def run(self, stop_after: str | None = None) -> CampaignResult | None:
        """Execute (or resume) the campaign.

        Parameters
        ----------
        stop_after:
            Stop once the named stage has completed and checkpointed —
            simulating a campaign killed mid-flight.  Returns ``None``
            in that case; a later :meth:`run` resumes from the
            checkpoints.

        Raises
        ------
        StageFailure
            When a shard exhausts its retry budget or a stage body
            raises.  Checkpoints of completed stages survive, so a
            re-run resumes; the failed stage's report (attempts,
            retries, faults) is preserved in :attr:`report`.
        """
        if stop_after is not None:
            self.stages.stage(stop_after)  # validate the name early
            if self.checkpoints is None:
                raise ValueError(
                    "stop_after requires a checkpoint store: without one the "
                    "completed stages would be silently discarded"
                )
        self.report = RuntimeReport()
        context: dict[str, Any] = {}
        keys: dict[str, str] = {}
        run_started = time.perf_counter()
        telemetry = self.telemetry if self.telemetry is not None else current_telemetry()
        scope = activate(self.telemetry) if self.telemetry is not None else nullcontext()
        tracer = telemetry.tracer
        try:
            with scope:
                for stage in self.stages:
                    key = self.stage_key(stage.name, keys)
                    keys[stage.name] = key
                    started = time.perf_counter()
                    span_index = len(tracer)
                    payload = None
                    with tracer.span(stage.name, stage=stage.name):
                        if self.checkpoints is not None and self.runtime.resume:
                            payload = self.checkpoints.load(stage.name, key)
                            if payload is not None and not set(stage.provides) <= set(payload):
                                # e.g. a checkpoint written before a stage grew a new
                                # artifact: treat as a miss, not a permanent failure
                                logger.warning(
                                    "checkpoint for '%s' lacks required artifacts; re-executing", stage.name
                                )
                                self.checkpoints.discard(stage.name)
                                payload = None
                        if payload is not None:
                            report = StageReport(name=stage.name, key=key, status="restored", attempts=0)
                        else:
                            report = StageReport(name=stage.name, key=key, status="executed")
                            try:
                                payload = getattr(self, f"_stage_{stage.name}")(context, report)
                                missing = set(stage.provides) - set(payload)
                                if missing:
                                    raise RuntimeError(f"stage payload missing artifacts {sorted(missing)}")
                            except BaseException as error:
                                # keep the attempt/retry/fault record of the failed stage
                                report.duration_s = time.perf_counter() - started
                                report.extra["phases"] = phase_totals_of(tracer.records()[span_index:])
                                self.report.stages.append(report)
                                if isinstance(error, Exception):
                                    raise StageFailure(stage.name, error) from error
                                raise  # KeyboardInterrupt and friends pass through untouched
                            self.execution_counts[stage.name] += 1
                            if self.checkpoints is not None:
                                try:
                                    self.checkpoints.save(stage.name, key, payload)
                                except Exception as error:
                                    # Checkpointing is a durability optimization: a full
                                    # disk or unpicklable payload must not kill a stage
                                    # that just executed successfully — the campaign
                                    # continues, this stage simply won't restore.
                                    logger.warning("could not checkpoint stage '%s': %s", stage.name, error)
                        context.update(payload)
                    report.duration_s = time.perf_counter() - started
                    # Table 7 phase attribution from the spans this stage's
                    # window emitted (the streamed screen's coordinator
                    # sections, ...)
                    report.extra["phases"] = phase_totals_of(tracer.records()[span_index:])
                    self.report.stages.append(report)
                    logger.info("stage %-14s %s in %.3fs", stage.name, report.status, report.duration_s)
                    if stop_after == stage.name:
                        return None
            return self._assemble_result(context)
        finally:
            self._run_duration = time.perf_counter() - run_started
            self._run_telemetry = telemetry

    # ------------------------------------------------------------------ #
    # run record
    # ------------------------------------------------------------------ #
    def run_record(self) -> dict:
        """Run-record document of the most recent :meth:`run`.

        One schema-valid document (see :mod:`repro.telemetry.runrecord`):
        per-stage wall time split into the paper's Table 7 phases
        (startup / evaluation / output, measured from real spans, with
        the unattributed remainder in ``other`` so the four always sum
        to the stage's duration), restore/attempt/retry accounting, the
        metrics-registry snapshot and the aggregated fault history.
        Works after successful, stopped (``stop_after``) and failed runs.
        """
        if self._run_duration is None:
            raise RuntimeError("run_record() requires a prior run()")
        telemetry = self._run_telemetry or Telemetry.disabled()
        stages = []
        for report in self.report.stages:
            extra = {k: v for k, v in report.extra.items() if k != "phases"}
            stages.append(
                stage_entry(
                    report.name,
                    report.status,
                    report.duration_s,
                    report.extra.get("phases"),
                    attempts=report.attempts,
                    retries=report.retries,
                    faults=report.faults,
                    extra=extra or None,
                )
            )
        faults = [fault for report in self.report.stages for fault in report.faults]
        return build_run_record(
            "campaign",
            duration_s=self._run_duration,
            stages=stages,
            metrics=telemetry.snapshot(),
            trace={"num_spans": len(telemetry.tracer)},
            faults=faults,
        )

    # ------------------------------------------------------------------ #
    # content keys
    # ------------------------------------------------------------------ #
    def stage_key(self, stage_name: str, upstream: dict[str, str] | None = None) -> str:
        """Content key of one stage given (or recomputing) upstream keys."""
        stage = self.stages.stage(stage_name)
        if upstream is None:
            upstream = {}
            for prior in self.stages:
                upstream[prior.name] = self.stage_key(prior.name, upstream)
                if prior.name == stage_name:
                    break
            return upstream[stage_name]
        dep_keys = [upstream[dep] for dep in stage.deps]
        return checkpoint_key(stage_name, self._stage_ingredients(stage_name), dep_keys)

    def _sites_ingredient(self) -> object:
        sites = self.campaign.sites
        if sites is None:
            return "sarscov2-default"
        return tuple(sorted((name, site_digest(site)) for name, site in sites.items()))

    def _stage_ingredients(self, stage_name: str) -> dict[str, object]:
        cfg = self.campaign
        if stage_name == "library":
            return {
                "seed": cfg.seed,
                "library_counts": tuple(sorted(cfg.library_counts.items())),
                "sites": self._sites_ingredient(),
            }
        if stage_name == "streamed_screen":
            ingredients = dict(self._stream_shard_ingredients())
            # top_k shapes the folded artifact but not shard payloads, so
            # it salts the stage key only — a resumed run with a different
            # K reuses every shard checkpoint and just re-folds
            ingredients["top_k"] = cfg.resolved_top_k()
            return ingredients
        if stage_name == "cost_function":
            weights = tuple(
                sorted((k, v) for k, v in vars(self.cost_function).items() if not k.startswith("_"))
            )
            return {"weights": weights, "compounds_tested_per_site": cfg.compounds_tested_per_site}
        if stage_name == "assays":
            return {
                "seed": cfg.seed,
                "biology_penalty_mean": cfg.biology_penalty_mean,
                "interaction_model": tuple(sorted(vars(self.interaction_model).items())),
            }
        raise KeyError(f"no ingredients defined for stage '{stage_name}'")

    def _stream_shard_ingredients(self) -> dict[str, object]:
        """Everything that shapes one streamed shard's payload.

        ``shard_size`` and worker count are deliberately absent: shard
        results are bit-identical across both, so retuning throughput
        must keep shard checkpoints warm.
        ``fusion_batch_size`` *is* included because NN batch composition
        moves ulps.  ``mmgbsa_subset_fraction`` and ``executor`` keep the
        values they had before those options were retired, so shard
        checkpoints written then still restore.
        """
        cfg = self.campaign
        return {
            "seed": cfg.seed,
            "sites": self._sites_ingredient(),
            "poses_per_compound": cfg.poses_per_compound,
            "monte_carlo_steps": cfg.docking_mc_steps,
            "restarts": cfg.docking_restarts,
            "mmgbsa_subset_fraction": 1.0,
            "model": self.model_fp(),
            "featurizer": self._featurizer_digest(),
            "executor": "batch",
            "fusion_batch_size": cfg.fusion_batch_size,
        }

    # ------------------------------------------------------------------ #
    # stage bodies
    # ------------------------------------------------------------------ #
    def _stage_library(self, context: dict, report: StageReport) -> dict:
        cfg = self.campaign
        sites = cfg.sites or make_sarscov2_targets(seed=derive_seed(cfg.seed, "targets"))
        deck = build_screening_deck(cfg.library_counts, seed=cfg.seed)
        return {"sites": sites, "deck": deck}

    def _stage_streamed_screen(self, context: dict, report: StageReport) -> dict:
        """Shard-streamed prep → dock → MM/GBSA → fusion with bounded memory.

        Shards checkpoint individually through the runtime's store (under
        a salt derived from :meth:`_stream_shard_ingredients`), so a
        campaign killed mid-stage resumes at shard granularity; once the
        stage completes, its own stage-level checkpoint carries the
        folded payload and the shard files are never consulted again.
        """
        # imported lazily: repro.screening.stream uses the runtime's
        # checkpoint store and retry policy, and this module is imported
        # by the runtime package __init__
        from repro.screening.stream import StreamConfig, StreamingScreen, StreamShardError

        cfg = self.campaign
        sites = context["sites"]
        deck = context["deck"]
        stream_config = StreamConfig(
            shard_size=cfg.shard_size,
            workers=self.runtime.max_workers,
            top_k=cfg.resolved_top_k(),
            fusion_batch_size=cfg.fusion_batch_size,
            poses_per_compound=cfg.poses_per_compound,
            docking_mc_steps=cfg.docking_mc_steps,
            docking_restarts=cfg.docking_restarts,
            mmgbsa=True,
            seed=cfg.seed,
            retry=self.runtime.retry,
        )
        salt = checkpoint_key("stream-shard-salt", self._stream_shard_ingredients())
        engine = StreamingScreen(
            self.model,
            self.featurizer,
            sites,
            stream_config,
            checkpoints=self.checkpoints,
            checkpoint_salt=salt,
            fault_injector=self.runtime.fault_injector,
        )
        try:
            result = engine.run(deck.molecules, collect_records=True)
        except StreamShardError as error:
            # the stage failed, but the shards folded before the failure
            # are checkpointed; preserve that progress and the fault
            # history in the (kept) failure report so operators and the
            # resume tests can see what a re-run will skip
            report.attempts = error.total_attempts
            report.retries = error.total_retries
            report.faults = list(error.faults)
            report.extra["stream"] = {
                "num_shards": float(error.num_shards),
                "shards_executed": float(error.shards_executed),
                "shards_restored": float(error.shards_restored),
            }
            raise

        # shards fold site by site, so a stable sort by site lays the
        # database out site-major in deck order — the layout of docking
        # the whole deck one site at a time, and independent of shard_size
        database = DockingDatabase()
        database.extend(sorted(result.records, key=lambda record: record.site_name))
        predictions: dict[str, dict[tuple[str, int], float]] = {name: {} for name in sites}
        for record in result.records:
            predictions[record.site_name][(record.compound_id, record.pose_id)] = record.fusion_pk
        job_results: list[JobResult] = []
        for site_name in sorted(sites):
            site_predictions = predictions[site_name]
            store = H5Store()
            keys = list(site_predictions)
            write_job_output(
                store,
                site_name,
                [cid for cid, _pid in keys],
                [pid for _cid, pid in keys],
                np.array([site_predictions[key] for key in keys], dtype=np.float64),
                job_name=f"{site_name}-stream",
            )
            ids, scores = result.topk_arrays(site_name)
            write_topk(store, site_name, list(ids), scores, stats=result.stats[site_name].as_dict())
            job_results.append(
                JobResult(
                    job_name=f"{site_name}-stream",
                    site_name=site_name,
                    predictions=dict(site_predictions),
                    store=store,
                )
            )
        report.attempts = result.total_attempts
        report.retries = result.total_retries
        report.faults = list(result.faults)
        report.extra["stream"] = result.summary()
        return {
            "receptors": engine.receptors,
            "database": database,
            "job_results": job_results,
            "topk": result.top_k,
            "stream_stats": {name: stats.as_dict() for name, stats in result.stats.items()},
        }

    def _stage_cost_function(self, context: dict, report: StageReport) -> dict:
        database = context["database"]
        sites = context["sites"]
        ampl_models = self._fit_ampl_models(database, sites)
        selections: dict[str, list[CompoundScore]] = {}
        for site_name in sites:
            selections[site_name] = self.cost_function.select_top(
                database, site_name, self.campaign.compounds_tested_per_site
            )
        return {"selections": selections, "ampl_models": ampl_models}

    def _stage_assays(self, context: dict, report: StageReport) -> dict:
        cfg = self.campaign
        database = context["database"]
        sites = context["sites"]
        structural_pk: dict[str, dict[str, float]] = {}
        tested: dict[str, list[tuple[str, float]]] = {}
        for site_name, scores in context["selections"].items():
            site = sites[site_name]
            structural_pk[site_name] = {}
            tested[site_name] = []
            for score in scores:
                best = database.best_pose(site_name, score.compound_id, by="vina")
                complex_ = ProteinLigandComplex(site, best.pose, complex_id=score.compound_id, pose_id=best.pose_id)
                latent = self.interaction_model.true_pk(complex_)
                structural_pk[site_name][score.compound_id] = latent
                tested[site_name].append((score.compound_id, latent))
        panel = make_assay_panel(
            sites, seed=derive_seed(cfg.seed, "assays"), biology_penalty_mean=cfg.biology_penalty_mean
        )
        assays = simulate_campaign_assays(panel, tested)
        return {"assays": assays, "structural_pk": structural_pk}

    # ------------------------------------------------------------------ #
    def _fit_ampl_models(self, database, sites) -> dict[str, AMPLSurrogate]:
        """Fit one AMPL surrogate per site on the MM/GBSA-rescored poses."""
        models: dict[str, AMPLSurrogate] = {}
        for site_name in sites:
            ligands, scores = [], []
            for compound_id in database.compounds(site_name):
                best = database.best_pose(site_name, compound_id, by="mmgbsa")
                if best is None or not np.isfinite(best.mmgbsa_score):
                    continue
                ligands.append(best.pose)
                scores.append(best.mmgbsa_score)
            if len(ligands) >= 3:
                models[site_name] = AMPLSurrogate(target=site_name).fit(ligands, np.array(scores))
        return models

    # ------------------------------------------------------------------ #
    def _assemble_result(self, context: dict[str, Any]) -> CampaignResult:
        job_results = context["job_results"]
        return CampaignResult(
            sites=context["sites"],
            database=context["database"],
            selections=context["selections"],
            assays=context["assays"],
            job_results=job_results,
            stores=[result.store for result in job_results],
            ampl_models=context["ampl_models"],
            structural_pk=context["structural_pk"],
            topk=context["topk"],
            stream_stats=context["stream_stats"],
        )
