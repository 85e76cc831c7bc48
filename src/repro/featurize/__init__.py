"""Featurization of protein-ligand complexes for the two model heads.

The 3D-CNN consumes a voxelized representation of the complex (Gaussian
atom densities on a regular grid, separate ligand and pocket channels)
while the SG-CNN consumes a spatial graph with covalent and non-covalent
edge types.  Both featurizers follow the descriptions in the FAST paper
referenced by this work, scaled down by default so the NumPy models train
in CI time; the paper-scale settings remain available through the
configuration dataclasses.
"""

from repro.featurize.atom_features import (
    ATOM_FEATURE_DIM,
    AtomArrays,
    atom_arrays,
    feature_matrix_from_arrays,
)
from repro.featurize.voxelize import VoxelGridConfig, random_axis_rotation
from repro.featurize.graph import GraphConfig
from repro.featurize.pipeline import FeaturizedComplex, collate_complexes, predict_samples
from repro.featurize.cache import (
    FeatureCache,
    FeatureCacheStats,
    feature_key,
    featurizer_config_digest,
)
from repro.featurize.engine import (
    FeaturePipeline,
    VectorizedGraphBuilder,
    VectorizedVoxelizer,
)

__all__ = [
    "ATOM_FEATURE_DIM",
    "AtomArrays",
    "atom_arrays",
    "feature_matrix_from_arrays",
    "VoxelGridConfig",
    "random_axis_rotation",
    "GraphConfig",
    "FeaturizedComplex",
    "collate_complexes",
    "predict_samples",
    "FeatureCache",
    "FeatureCacheStats",
    "feature_key",
    "featurizer_config_digest",
    "FeaturePipeline",
    "VectorizedGraphBuilder",
    "VectorizedVoxelizer",
]
