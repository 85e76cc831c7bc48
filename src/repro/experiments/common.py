"""Shared experiment scaffolding: dataset, featurizer, trained model zoo, campaign.

Building the synthetic PDBbind set and training the five models (3D-CNN,
SG-CNN, Late / Mid-level / Coherent Fusion) is the expensive part of most
experiments, so it is done once per scale and cached in-process; every
table/figure driver and benchmark reuses the same ``Workbench``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.chem.complexes import InteractionModel
from repro.datasets.pdbbind import PDBbindConfig, PDBbindDataset, generate_pdbbind
from repro.featurize.engine import FeaturePipeline
from repro.featurize.graph import GraphConfig
from repro.featurize.pipeline import FeaturizedComplex, predict_samples
from repro.featurize.voxelize import VoxelGridConfig
from repro.models.cnn3d import CNN3D
from repro.models.config import CNN3DConfig, CoherentFusionConfig, MidFusionConfig, SGCNNConfig
from repro.models.fusion import CoherentFusion, LateFusion, MidFusion
from repro.models.sgcnn import SGCNN
from repro.models.train import Trainer, TrainerConfig, TrainingHistory
from repro.screening.costfunction import CompoundCostFunction
from repro.screening.pipeline import CampaignConfig, CampaignResult, ScreeningCampaign
from repro.utils.logging import get_logger

logger = get_logger("repro.experiments")

#: Paper reference values (Table 6) used for side-by-side reporting.
PAPER_TABLE6 = {
    "Pafnucy": {"rmse": 1.42, "mae": 1.13, "r2": float("nan"), "pearson": 0.78, "spearman": float("nan")},
    "Mid-level Fusion": {"rmse": 1.38, "mae": 1.10, "r2": 0.596, "pearson": 0.778, "spearman": 0.757},
    "Late Fusion": {"rmse": 1.33, "mae": 1.07, "r2": 0.623, "pearson": 0.813, "spearman": 0.805},
    "Coherent Fusion": {"rmse": 1.30, "mae": 1.05, "r2": 0.640, "pearson": 0.807, "spearman": 0.802},
    "KDeep": {"rmse": 1.27, "mae": float("nan"), "r2": float("nan"), "pearson": 0.82, "spearman": 0.82},
}

#: Paper reference correlations on docked core-set poses (§3.4).
PAPER_DOCKED_CORRELATIONS = {"vina": 0.579, "mmgbsa": 0.591, "coherent_fusion": 0.745}


@dataclass
class WorkbenchScale:
    """Size knobs for a workbench."""

    n_general: int = 90
    n_refined: int = 45
    n_core: int = 24
    n_families: int = 14
    n_core_families: int = 4
    grid_dim: int = 12
    head_epochs: int = 30
    fusion_epochs: int = 18
    seed: int = 2019

    @staticmethod
    def tiny() -> "WorkbenchScale":
        """Smallest scale, for unit/integration tests."""
        return WorkbenchScale(
            n_general=24, n_refined=12, n_core=8, n_families=8, n_core_families=2,
            grid_dim=12, head_epochs=2, fusion_epochs=2,
        )

    @staticmethod
    def small() -> "WorkbenchScale":
        """Default benchmark scale (a few minutes of NumPy training)."""
        return WorkbenchScale()


@dataclass
class Workbench:
    """Dataset + featurizer + trained model zoo shared by the experiments."""

    scale: WorkbenchScale
    dataset: PDBbindDataset
    featurizer: FeaturePipeline
    train_samples: list[FeaturizedComplex]
    val_samples: list[FeaturizedComplex]
    core_samples: list[FeaturizedComplex]
    cnn3d: CNN3D
    sgcnn: SGCNN
    late_fusion: LateFusion
    mid_fusion: MidFusion
    coherent_fusion: CoherentFusion
    histories: dict[str, TrainingHistory] = field(default_factory=dict)
    interaction_model: InteractionModel = field(default_factory=InteractionModel)

    def models(self) -> dict[str, object]:
        """The model zoo keyed by the names used in Table 6."""
        return {
            "Mid-level Fusion": self.mid_fusion,
            "Late Fusion": self.late_fusion,
            "Coherent Fusion": self.coherent_fusion,
            "3D-CNN": self.cnn3d,
            "SG-CNN": self.sgcnn,
        }

    def predict(self, model, samples: list[FeaturizedComplex]) -> np.ndarray:
        """Predict pK for samples with any model of the zoo (dense layout, batches of 8)."""
        return predict_samples(model, samples, batch_size=8)


#: In-process caches of the expensive artefacts.  Guarded by per-cache
#: locks: the serving worker pool made concurrent callers possible, and a
#: lock held across the build also guarantees concurrent requests for the
#: same key build the artefact exactly once.
_WORKBENCH_CACHE: dict[tuple, Workbench] = {}
_WORKBENCH_LOCK = threading.RLock()
_CAMPAIGN_CACHE: dict[tuple, CampaignResult] = {}
_CAMPAIGN_LOCK = threading.RLock()


def build_workbench(scale: WorkbenchScale | str = "small", seed: int | None = None, cache: bool = True) -> Workbench:
    """Build (or fetch from cache) a workbench at the requested scale."""
    if isinstance(scale, str):
        scale = WorkbenchScale.tiny() if scale == "tiny" else WorkbenchScale.small()
    if seed is not None:
        scale.seed = int(seed)
    key = tuple(sorted(vars(scale).items()))
    with _WORKBENCH_LOCK:
        if cache and key in _WORKBENCH_CACHE:
            return _WORKBENCH_CACHE[key]
        workbench = _build_workbench(scale)
        if cache:
            _WORKBENCH_CACHE[key] = workbench
        return workbench


def _build_workbench(scale: WorkbenchScale) -> Workbench:
    logger.info("building workbench at scale %s", scale)
    config = PDBbindConfig(
        n_general=scale.n_general,
        n_refined=scale.n_refined,
        n_core=scale.n_core,
        n_families=scale.n_families,
        n_core_families=scale.n_core_families,
        seed=scale.seed,
    )
    dataset = generate_pdbbind(config)
    # the content-addressed feature cache serves repeat one-complex
    # featurizations: dataset passes, figure2 and online serving requests
    # (pose batches of the streamed screen bypass it)
    featurizer = FeaturePipeline(
        voxel_config=VoxelGridConfig(grid_dim=scale.grid_dim, channel_set="reduced"),
        graph_config=GraphConfig(),
        augment=True,
        seed=scale.seed,
        cache_capacity=2048,
    )
    train_entries, val_entries = dataset.train_val_split(rng=scale.seed)
    train_samples = dataset.featurize_entries(train_entries, featurizer, training=True)
    val_samples = dataset.featurize_entries(val_entries, featurizer)
    core_samples = dataset.featurize_entries(dataset.core, featurizer)

    histories: dict[str, TrainingHistory] = {}

    # -- individual heads ------------------------------------------------ #
    cnn_config = CNN3DConfig.scaled_down()
    cnn_config.grid_dim = scale.grid_dim
    cnn_config.in_channels = featurizer.voxelizer.config.num_channels
    cnn3d = CNN3D(cnn_config, seed=scale.seed)
    cnn_trainer = Trainer(
        cnn3d, train_samples, val_samples,
        TrainerConfig(epochs=scale.head_epochs, batch_size=cnn_config.batch_size,
                      learning_rate=cnn_config.learning_rate, optimizer=cnn_config.optimizer, seed=scale.seed),
    )
    histories["cnn3d"] = cnn_trainer.fit()

    sg_config = SGCNNConfig.scaled_down()
    sgcnn = SGCNN(sg_config, seed=scale.seed)
    sg_trainer = Trainer(
        sgcnn, train_samples, val_samples,
        TrainerConfig(epochs=scale.head_epochs, batch_size=sg_config.batch_size,
                      learning_rate=sg_config.learning_rate, optimizer=sg_config.optimizer, seed=scale.seed),
    )
    histories["sgcnn"] = sg_trainer.fit()

    # -- fusion variants -------------------------------------------------- #
    late = LateFusion(cnn3d, sgcnn).eval()  # zoo models stay in eval mode between fits

    mid_config = MidFusionConfig.scaled_down()
    mid = MidFusion(cnn3d, sgcnn, mid_config, seed=scale.seed)
    mid_trainer = Trainer(
        mid, train_samples, val_samples,
        TrainerConfig(epochs=scale.fusion_epochs, batch_size=mid_config.batch_size,
                      learning_rate=mid_config.learning_rate, optimizer=mid_config.optimizer, seed=scale.seed),
    )
    histories["mid_fusion"] = mid_trainer.fit()

    coherent_config = CoherentFusionConfig.scaled_down()
    coherent = CoherentFusion.from_pretrained(
        _clone_cnn3d(cnn3d, cnn_config, scale.seed), _clone_sgcnn(sgcnn, sg_config, scale.seed),
        coherent_config, seed=scale.seed,
    )
    coherent_trainer = Trainer(
        coherent, train_samples, val_samples,
        TrainerConfig(epochs=scale.fusion_epochs, batch_size=coherent_config.batch_size,
                      learning_rate=coherent_config.learning_rate, optimizer=coherent_config.optimizer, seed=scale.seed),
    )
    histories["coherent_fusion"] = coherent_trainer.fit()

    workbench = Workbench(
        scale=scale,
        dataset=dataset,
        featurizer=featurizer,
        train_samples=train_samples,
        val_samples=val_samples,
        core_samples=core_samples,
        cnn3d=cnn3d,
        sgcnn=sgcnn,
        late_fusion=late,
        mid_fusion=mid,
        coherent_fusion=coherent,
        histories=histories,
    )
    return workbench


def _clone_cnn3d(model: CNN3D, config: CNN3DConfig, seed: int) -> CNN3D:
    """A fresh 3D-CNN initialized with the pre-trained weights (Coherent Fusion fine-tunes its own copy)."""
    clone = CNN3D(config, seed=seed + 1)
    clone.load_state_dict(model.state_dict())
    return clone


def _clone_sgcnn(model: SGCNN, config: SGCNNConfig, seed: int) -> SGCNN:
    clone = SGCNN(config, seed=seed + 1)
    clone.load_state_dict(model.state_dict())
    return clone


def run_campaign(
    workbench: Workbench,
    library_counts: dict[str, int] | None = None,
    compounds_tested_per_site: int = 24,
    poses_per_compound: int = 3,
    seed: int = 2020,
    cache: bool = True,
    checkpoint_dir: str | None = None,
) -> CampaignResult:
    """Run (or fetch from cache) the SARS-CoV-2 screening campaign used by Figures 5-7 / Table 8.

    ``checkpoint_dir`` runs through the resumable stage runtime so a
    repeated call (same arguments, same directory) restores completed
    stages instead of recomputing them.
    """
    library_counts = library_counts or {"emolecules": 30, "enamine": 30, "zinc_world_approved": 12}
    key = (tuple(sorted(library_counts.items())), compounds_tested_per_site, poses_per_compound, seed,
           checkpoint_dir, tuple(sorted(vars(workbench.scale).items())))
    with _CAMPAIGN_LOCK:
        if cache and key in _CAMPAIGN_CACHE:
            return _CAMPAIGN_CACHE[key]
        config = CampaignConfig(
            library_counts=library_counts,
            poses_per_compound=poses_per_compound,
            compounds_tested_per_site=compounds_tested_per_site,
            seed=seed,
        )
        campaign = ScreeningCampaign(
            model=workbench.coherent_fusion,
            featurizer=workbench.featurizer,
            config=config,
            cost_function=CompoundCostFunction(),
            interaction_model=workbench.interaction_model,
        )
        if checkpoint_dir is not None:
            from repro.runtime import RuntimeConfig

            # max_workers=1 so checkpoint_dir only adds resumability — same
            # sequential resource profile as the direct facade path
            result = campaign.runtime(
                RuntimeConfig(checkpoint_dir=str(checkpoint_dir), max_workers=1)
            ).run()
        else:
            result = campaign.run()
        if cache:
            _CAMPAIGN_CACHE[key] = result
        return result
