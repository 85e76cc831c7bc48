"""Binding-affinity models: 3D-CNN, SG-CNN and the three Fusion variants."""

from repro.models.config import (
    CNN3DConfig,
    CoherentFusionConfig,
    FusionConfig,
    MidFusionConfig,
    SGCNNConfig,
)
from repro.models.cnn3d import CNN3D
from repro.models.sgcnn import SGCNN
from repro.featurize.pipeline import BatchScoringMixin
from repro.models.fusion import CoherentFusion, FusionNetwork, LateFusion, MidFusion
from repro.models.train import (
    DistributedTrainer,
    DistributedTrainerConfig,
    TrainingHistory,
    Trainer,
    TrainerConfig,
)

__all__ = [
    "CNN3DConfig",
    "SGCNNConfig",
    "FusionConfig",
    "MidFusionConfig",
    "CoherentFusionConfig",
    "CNN3D",
    "SGCNN",
    "BatchScoringMixin",
    "FusionNetwork",
    "LateFusion",
    "MidFusion",
    "CoherentFusion",
    "DistributedTrainer",
    "DistributedTrainerConfig",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
]
