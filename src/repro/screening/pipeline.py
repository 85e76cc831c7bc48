"""End-to-end SARS-CoV-2 screening campaign.

Chains every stage of the paper's §4-§5 pipeline on the synthetic
substrate: compound-library generation, ligand preparation, Vina docking
and MM/GBSA rescoring (ConveyorLC), Coherent Fusion scoring, the compound
cost function selecting candidates per binding site, and the simulated
experimental assays producing percent-inhibition values for the
retrospective analysis (Figures 5-7 and Table 8).

Execution is delegated to the fault-tolerant stage runtime
(:mod:`repro.runtime`), whose prep → dock → MM/GBSA → fusion work runs
through the shard-streamed engine (:mod:`repro.screening.stream`) with
every record collected.  :class:`ScreeningCampaign` is a thin facade
that drives a :class:`~repro.runtime.CampaignRuntime` without
checkpointing; campaigns that need kill/resume semantics or
fault-injected shard retries construct the runtime directly with a
checkpoint directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chem.complexes import InteractionModel
from repro.chem.protein import BindingSite
from repro.datasets.assays import CampaignAssayTable
from repro.docking.ampl import AMPLSurrogate
from repro.docking.conveyorlc import DockingDatabase
from repro.featurize.engine import FeaturePipeline
from repro.hpc.h5store import H5Store
from repro.nn.module import Module
from repro.screening.costfunction import CompoundCostFunction, CompoundScore
from repro.screening.job import JobResult
from repro.serving import ServingConfig


@dataclass
class CampaignConfig:
    """Configuration of a (scaled-down) screening campaign."""

    library_counts: dict[str, int] = field(default_factory=lambda: {"emolecules": 24, "enamine": 24})
    sites: dict[str, BindingSite] | None = None
    poses_per_compound: int = 4
    docking_mc_steps: int = 25
    docking_restarts: int = 2
    compounds_tested_per_site: int = 12
    biology_penalty_mean: float = 2.6
    seed: int = 2020
    #: route fusion scoring through the online ``repro.serving`` service
    #: (micro-batching + replica pool + result cache) instead of scoring
    #: each compound's poses directly in the shard workers
    use_serving: bool = False
    serving: ServingConfig = field(default_factory=ServingConfig)
    #: compounds per streamed shard — a pure throughput/memory knob:
    #: results are bit-identical for every shard size, so it never enters
    #: checkpoint keys
    shard_size: int = 64
    #: per-site top-K retained by the streaming engine's exact
    #: bounded-memory selector; ``0`` defaults to
    #: ``compounds_tested_per_site``
    top_k: int = 0
    #: fusion-scoring batch protocol: poses per NN batch *within* one
    #: compound (batches never span compounds, so the composition — and
    #: therefore every ulp — is shard-size- and worker-invariant); ``0``
    #: scores each compound's poses in one batch.  ``1`` scores one pose
    #: per batch, the protocol of the straight-line reference campaign in
    #: ``tests/campaign_oracle.py``.
    fusion_batch_size: int = 0

    def resolved_top_k(self) -> int:
        return self.top_k if self.top_k > 0 else self.compounds_tested_per_site

    def validate(self) -> None:
        """Reject configurations the streamed campaign cannot honour exactly."""
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.fusion_batch_size < 0:
            raise ValueError("fusion_batch_size must be non-negative")


@dataclass
class CampaignResult:
    """Everything the retrospective analysis needs."""

    sites: dict[str, BindingSite]
    database: DockingDatabase
    selections: dict[str, list[CompoundScore]]
    assays: CampaignAssayTable
    job_results: list[JobResult]
    stores: list[H5Store]
    ampl_models: dict[str, AMPLSurrogate]
    structural_pk: dict[str, dict[str, float]]  # site -> compound -> latent pK of best pose
    #: per-site exact top-K ranking (by best fusion pK) and streaming
    #: score statistics
    topk: dict
    stream_stats: dict

    def tested_compounds(self, site_name: str) -> list[str]:
        return [score.compound_id for score in self.selections.get(site_name, [])]

    def hit_rate(self, threshold: float = 33.0) -> float:
        return self.assays.hit_rate(threshold)

    def summary(self) -> dict[str, float]:
        return {
            "num_poses_scored": float(len(self.database)),
            "num_sites": float(len(self.selections)),
            "num_tested": float(sum(len(v) for v in self.selections.values())),
            "hit_rate_33pct": self.hit_rate(33.0),
        }


class ScreeningCampaign:
    """Run the full screening campaign with a trained fusion model."""

    def __init__(
        self,
        model: Module,
        featurizer: FeaturePipeline,
        config: CampaignConfig | None = None,
        cost_function: CompoundCostFunction | None = None,
        interaction_model: InteractionModel | None = None,
    ) -> None:
        self.model = model
        self.featurizer = featurizer
        self.config = config or CampaignConfig()
        self.cost_function = cost_function or CompoundCostFunction()
        self.interaction_model = interaction_model or InteractionModel()

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Execute every stage front to back (no checkpointing).

        The fusion-scoring route follows ``config.use_serving``; for
        resumable execution use :class:`repro.runtime.CampaignRuntime`
        with a checkpoint directory instead.
        """
        runtime = self.runtime()
        result = runtime.run()
        assert result is not None  # no stop_after: the run always completes
        return result

    def runtime(self, runtime_config=None, checkpoints=None):
        """Build the stage runtime this facade drives (see :mod:`repro.runtime`)."""
        # imported lazily: repro.runtime imports this module for the config
        # and result dataclasses
        from repro.runtime.campaign import CampaignRuntime, RuntimeConfig

        if runtime_config is None:
            # The facade streams shards serially: scores are
            # worker-count-invariant, but concurrent shards multiply
            # peak memory.
            runtime_config = RuntimeConfig(max_workers=1)
        return CampaignRuntime(
            model=self.model,
            featurizer=self.featurizer,
            campaign=self.config,
            runtime=runtime_config,
            cost_function=self.cost_function,
            interaction_model=self.interaction_model,
            checkpoints=checkpoints,
        )
