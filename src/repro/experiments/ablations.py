"""Ablation experiments for the design choices DESIGN.md calls out.

These are not paper tables, but benches over the decisions the paper
motivates qualitatively:

* coherent backpropagation vs frozen heads (Mid-level Fusion);
* initializing Coherent Fusion from pre-trained heads vs from scratch
  (the paper found pre-training "led to a significant improvement");
* quintile sub-sampling vs plain random train/validation split;
* random rotational augmentation of the voxel grid on vs off;
* PB2 vs classic PBT vs random search at an equal trial budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.splits import coverage_by_bin, quintile_split, random_split
from repro.experiments.common import Workbench, _clone_cnn3d, _clone_sgcnn
from repro.featurize.pipeline import FeaturizedComplex, predict_samples
from repro.featurize.voxelize import random_axis_rotation
from repro.models.config import CNN3DConfig, CoherentFusionConfig, SGCNNConfig
from repro.models.fusion import CoherentFusion
from repro.models.cnn3d import CNN3D
from repro.models.sgcnn import SGCNN
from repro.models.train import Trainer, TrainerConfig
from repro.utils.rng import ensure_rng


@dataclass
class AblationResult:
    """A named pair of validation losses (variant vs baseline)."""

    name: str
    variant_loss: float
    baseline_loss: float

    @property
    def improvement(self) -> float:
        """Positive when the variant beats the baseline."""
        return self.baseline_loss - self.variant_loss


def pretrained_vs_scratch(workbench: Workbench, epochs: int = 3, seed: int = 3) -> AblationResult:
    """Coherent Fusion initialized from pre-trained heads vs trained from scratch."""
    config = CoherentFusionConfig.scaled_down()
    cnn_cfg = CNN3DConfig.scaled_down()
    cnn_cfg.grid_dim = workbench.scale.grid_dim
    cnn_cfg.in_channels = workbench.featurizer.voxelizer.config.num_channels
    sg_cfg = SGCNNConfig.scaled_down()

    pretrained = CoherentFusion.from_pretrained(
        _clone_cnn3d(workbench.cnn3d, cnn_cfg, seed), _clone_sgcnn(workbench.sgcnn, sg_cfg, seed), config, seed=seed
    )
    scratch = CoherentFusion(CNN3D(cnn_cfg, seed=seed + 5), SGCNN(sg_cfg, seed=seed + 5), config, seed=seed)

    losses = {}
    for name, model in (("pretrained", pretrained), ("scratch", scratch)):
        trainer = Trainer(
            model, workbench.train_samples, workbench.val_samples,
            TrainerConfig(epochs=epochs, batch_size=config.batch_size, learning_rate=config.learning_rate, seed=seed),
        )
        history = trainer.fit()
        losses[name] = history.best_val_loss
    return AblationResult("pretrained_vs_scratch", losses["pretrained"], losses["scratch"])


def quintile_vs_random_split(workbench: Workbench, seed: int = 5) -> dict[str, float]:
    """Label-range coverage of the validation set under the two split strategies.

    The quintile split guarantees every affinity quintile contributes to
    validation; the random split can leave bins uncovered, which is the
    failure mode the paper cites (Ellingson et al. 2020).
    """
    labels = np.array([e.experimental_pk for e in workbench.dataset.general + workbench.dataset.refined])
    _train_q, val_q = quintile_split(labels, val_fraction=0.1, rng=seed)
    _train_r, val_r = random_split(len(labels), val_fraction=0.1, rng=seed)
    coverage_q = coverage_by_bin(labels, val_q)
    coverage_r = coverage_by_bin(labels, val_r)
    return {
        "quintile_min_bin_coverage": float(coverage_q.min()),
        "random_min_bin_coverage": float(coverage_r.min()),
        "quintile_bins_covered": float((coverage_q > 0).sum()),
        "random_bins_covered": float((coverage_r > 0).sum()),
    }


def rotation_augmentation_effect(workbench: Workbench, epochs: int = 3, seed: int = 7) -> AblationResult:
    """3D-CNN trained with vs without random rotational augmentation."""
    cnn_cfg = CNN3DConfig.scaled_down()
    cnn_cfg.grid_dim = workbench.scale.grid_dim
    cnn_cfg.in_channels = workbench.featurizer.voxelizer.config.num_channels

    # re-featurize the training entries without augmentation for the baseline
    train_entries, val_entries = workbench.dataset.train_val_split(rng=workbench.scale.seed)
    featurizer_no_aug = type(workbench.featurizer)(
        voxel_config=workbench.featurizer.voxelizer.config,
        graph_config=workbench.featurizer.graph_builder.config,
        augment=False,
        seed=seed,
    )
    plain_train = workbench.dataset.featurize_entries(train_entries, featurizer_no_aug, training=True)

    losses = {}
    for name, samples in (("augmented", workbench.train_samples), ("plain", plain_train)):
        model = CNN3D(cnn_cfg, seed=seed)
        trainer = Trainer(
            model, samples, workbench.val_samples,
            TrainerConfig(epochs=epochs, batch_size=cnn_cfg.batch_size, learning_rate=cnn_cfg.learning_rate, seed=seed),
        )
        losses[name] = trainer.fit().best_val_loss
    return AblationResult("rotation_augmentation", losses["augmented"], losses["plain"])


def rotation_invariance_probe(workbench: Workbench, num_samples: int = 8, seed: int = 11) -> float:
    """Mean absolute prediction change of the 3D-CNN under random input rotations.

    A small value indicates the augmentation achieved its goal of
    discouraging rotation-dependent features.
    """
    rng = ensure_rng(seed)
    entries = workbench.dataset.core[:num_samples]
    deltas = []
    for entry in entries:
        base = workbench.featurizer.voxelizer.voxelize(entry.complex)
        rotated = workbench.featurizer.voxelizer.voxelize(
            entry.complex, rotation=random_axis_rotation(rng, probability=1.0)
        )
        graph = workbench.featurizer.graph_builder.build(entry.complex)
        samples = [
            FeaturizedComplex(voxel=base, graph=graph, target=np.nan, complex_id=entry.entry_id),
            FeaturizedComplex(voxel=rotated, graph=graph, target=np.nan, complex_id=entry.entry_id),
        ]
        predictions = predict_samples(workbench.cnn3d, samples, batch_size=2)
        deltas.append(abs(float(predictions[0] - predictions[1])))
    return float(np.mean(deltas))
