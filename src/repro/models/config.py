"""Hyper-parameter configurations for the model family.

The ``paper()`` constructors reproduce the final optimized values of the
paper's Tables 2-5; ``scaled_down()`` constructors shrink layer widths,
epochs and batch sizes so that the pure-NumPy implementation can be
trained inside tests and benchmarks.  Both variants share the exact same
architecture code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass
class CNN3DConfig:
    """3D-CNN hyper-parameters (paper Table 3)."""

    epochs: int = 75
    batch_size: int = 12
    learning_rate: float = 4.90e-5
    optimizer: str = "adam"
    activation: str = "relu"
    batch_norm: bool = False
    dense_nodes: int = 128
    conv_filters_1: int = 32
    conv_filters_2: int = 64
    conv_kernel_1: int = 5
    conv_kernel_2: int = 3
    residual_option_1: bool = False
    residual_option_2: bool = True
    dropout1: float = 0.25
    dropout2: float = 0.125
    dropout3: float = 0.0
    # input description (not searched by PB2; set by the featurizer)
    in_channels: int = 8
    grid_dim: int = 16

    @staticmethod
    def paper() -> "CNN3DConfig":
        """Final optimized configuration from Table 3."""
        return CNN3DConfig()

    @staticmethod
    def scaled_down() -> "CNN3DConfig":
        """A configuration small enough for NumPy training in CI."""
        return CNN3DConfig(
            epochs=20,
            batch_size=8,
            learning_rate=1e-3,
            dense_nodes=32,
            conv_filters_1=8,
            conv_filters_2=16,
            conv_kernel_1=3,
            conv_kernel_2=3,
            grid_dim=12,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SGCNNConfig:
    """SG-CNN hyper-parameters (paper Table 2)."""

    epochs: int = 213
    batch_size: int = 16
    learning_rate: float = 2.66e-3
    optimizer: str = "adam"
    activation: str = "relu"
    covalent_k: int = 6
    noncovalent_k: int = 3
    covalent_threshold: float = 2.24
    noncovalent_threshold: float = 5.22
    covalent_gather_width: int = 24
    noncovalent_gather_width: int = 128
    hidden_dim: int = 64
    node_feature_dim: int = 14

    @staticmethod
    def paper() -> "SGCNNConfig":
        """Final optimized configuration from Table 2."""
        return SGCNNConfig()

    @staticmethod
    def scaled_down() -> "SGCNNConfig":
        """A configuration small enough for NumPy training in CI."""
        return SGCNNConfig(
            epochs=30,
            batch_size=8,
            learning_rate=3e-3,
            covalent_k=2,
            noncovalent_k=2,
            covalent_gather_width=12,
            noncovalent_gather_width=24,
            hidden_dim=24,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FusionConfig:
    """Shared hyper-parameters of the Mid-level and Coherent Fusion models."""

    epochs: int = 64
    batch_size: int = 1
    learning_rate: float = 4.03e-4
    optimizer: str = "adam"
    activation: str = "selu"
    batch_norm: bool = False
    residual_fusion_layers: bool = True
    dropout1: float = 0.251
    dropout2: float = 0.125
    dropout3: float = 0.0
    num_fusion_layers: int = 5
    fusion_dense_nodes: int = 64
    model_specific_layers: bool = True
    pretrained: bool = True
    coherent: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MidFusionConfig(FusionConfig):
    """Mid-level Fusion hyper-parameters (paper Table 4): frozen heads."""

    coherent: bool = False

    @staticmethod
    def paper() -> "MidFusionConfig":
        return MidFusionConfig()

    @staticmethod
    def scaled_down() -> "MidFusionConfig":
        return MidFusionConfig(
            epochs=15,
            batch_size=8,
            learning_rate=1e-3,
            num_fusion_layers=3,
            fusion_dense_nodes=24,
        )


@dataclass
class CoherentFusionConfig(FusionConfig):
    """Coherent Fusion hyper-parameters (paper Table 5): end-to-end training."""

    epochs: int = 18
    batch_size: int = 48
    learning_rate: float = 1.08e-4
    residual_fusion_layers: bool = False
    dropout1: float = 0.386
    dropout2: float = 0.247
    dropout3: float = 0.055
    num_fusion_layers: int = 4
    model_specific_layers: bool = False
    pretrained: bool = True
    coherent: bool = True

    @staticmethod
    def paper() -> "CoherentFusionConfig":
        return CoherentFusionConfig()

    @staticmethod
    def scaled_down() -> "CoherentFusionConfig":
        return CoherentFusionConfig(
            epochs=15,
            batch_size=8,
            learning_rate=5e-4,
            num_fusion_layers=3,
            fusion_dense_nodes=24,
        )
