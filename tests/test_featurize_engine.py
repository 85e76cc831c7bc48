"""Golden-equivalence suite for the vectorized featurization engine.

The vectorized voxelizer and graph featurizer must be *bit-identical*
(``np.array_equal``, no tolerances) to the scalar oracles in
``tests/featurize_oracle.py`` across channel sets, grid dimensions and
seeded rotation augmentation — the contract that let the engine replace
the per-atom loops without perturbing a single campaign score.
"""

import dataclasses

import numpy as np
import pytest

from repro.featurize.atom_features import atom_arrays, feature_matrix_from_arrays
from repro.featurize.engine import (
    FeaturePipeline,
    VectorizedGraphBuilder,
    VectorizedVoxelizer,
    _cap_neighbours_vectorized,
)
from repro.featurize.graph import GraphConfig, _row_normalize
from repro.featurize.pipeline import collate_complexes
from repro.featurize.voxelize import VoxelGridConfig, random_axis_rotation

from featurize_oracle import (
    ComplexFeaturizer,
    GraphBuilder,
    Voxelizer,
    _cap_neighbours,
    atom_feature_matrix,
)

GRID_DIMS = (8, 16, 24)
CHANNEL_SETS = ("reduced", "full")


def assert_graphs_identical(a: dict, b: dict) -> None:
    assert np.array_equal(a["node_features"], b["node_features"])
    assert np.array_equal(a["ligand_mask"], b["ligand_mask"])
    assert a["id"] == b["id"]
    for edge_type in ("covalent", "noncovalent"):
        assert np.array_equal(a["adjacency"][edge_type], b["adjacency"][edge_type])


def assert_samples_identical(a, b) -> None:
    assert np.array_equal(a.voxel, b.voxel)
    assert_graphs_identical(a.graph, b.graph)
    assert (a.target == b.target) or (np.isnan(a.target) and np.isnan(b.target))
    assert a.complex_id == b.complex_id
    assert a.pose_id == b.pose_id


class TestVoxelizerEquivalence:
    @pytest.mark.parametrize("grid_dim", GRID_DIMS)
    @pytest.mark.parametrize("channel_set", CHANNEL_SETS)
    def test_bit_identical_across_configs(self, pose_complexes, grid_dim, channel_set):
        config = VoxelGridConfig(grid_dim=grid_dim, channel_set=channel_set)
        scalar = Voxelizer(config)
        vectorized = VectorizedVoxelizer(config)
        for complex_ in pose_complexes:
            reference = scalar.voxelize(complex_)
            fast = vectorized.voxelize(complex_)
            assert fast.shape == reference.shape
            assert np.array_equal(reference, fast)

    @pytest.mark.parametrize("grid_dim", GRID_DIMS)
    def test_bit_identical_under_seeded_rotation(self, pose_complexes, grid_dim):
        config = VoxelGridConfig(grid_dim=grid_dim)
        scalar = Voxelizer(config)
        vectorized = VectorizedVoxelizer(config)
        rng = np.random.default_rng(17)
        for complex_ in pose_complexes:
            rotation = random_axis_rotation(rng, probability=1.0)
            assert np.array_equal(
                scalar.voxelize(complex_, rotation=rotation),
                vectorized.voxelize(complex_, rotation=rotation),
            )

    def test_non_standard_grid_geometry(self, pose_complexes):
        config = VoxelGridConfig(grid_dim=10, resolution=0.8, sigma_scale=0.9, cutoff_sigmas=1.5)
        scalar = Voxelizer(config)
        vectorized = VectorizedVoxelizer(config)
        for complex_ in pose_complexes:
            assert np.array_equal(scalar.voxelize(complex_), vectorized.voxelize(complex_))

    def test_atoms_outside_tiny_grid(self, pose_complexes):
        config = VoxelGridConfig(grid_dim=4, resolution=0.5)
        scalar = Voxelizer(config)
        vectorized = VectorizedVoxelizer(config)
        for complex_ in pose_complexes:
            assert np.array_equal(scalar.voxelize(complex_), vectorized.voxelize(complex_))

    def test_voxelize_many_matches_per_complex(self, pose_complexes):
        vectorized = VectorizedVoxelizer(VoxelGridConfig(grid_dim=12))
        stacked = vectorized.voxelize_many(pose_complexes)
        assert stacked.shape[0] == len(pose_complexes)
        for index, complex_ in enumerate(pose_complexes):
            assert np.array_equal(stacked[index], vectorized.voxelize(complex_))

    def test_voxelize_many_rotation_length_mismatch(self, pose_complexes):
        vectorized = VectorizedVoxelizer(VoxelGridConfig(grid_dim=8))
        with pytest.raises(ValueError):
            vectorized.voxelize_many(pose_complexes, rotations=[None])

    def test_invalid_grid_dim(self):
        with pytest.raises(ValueError):
            VectorizedVoxelizer(VoxelGridConfig(grid_dim=2))


class TestGraphBuilderEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            GraphConfig(),
            GraphConfig(pocket_shell=3.0),
            GraphConfig(covalent_k=1, noncovalent_k=1),
            GraphConfig(noncovalent_threshold=8.0, noncovalent_k=10),
            GraphConfig(covalent_threshold=1.0),
        ],
        ids=["default", "tight-shell", "k1", "wide", "short-covalent"],
    )
    def test_bit_identical_graphs(self, pose_complexes, config):
        scalar = GraphBuilder(config)
        vectorized = VectorizedGraphBuilder(config)
        for complex_ in pose_complexes:
            assert_graphs_identical(scalar.build(complex_), vectorized.build(complex_))

    def test_empty_ligand_raises(self, protease_site):
        from repro.chem.complexes import ProteinLigandComplex
        from repro.chem.molecule import Molecule

        empty = ProteinLigandComplex(protease_site, Molecule([], []), complex_id="empty")
        with pytest.raises(ValueError):
            VectorizedGraphBuilder().build(empty)

    def test_cap_neighbours_vectorized_matches_reference_with_ties(self):
        # exact ties (equal weights) are where tie-breaking must agree
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(2, 12))
            values = rng.choice([0.0, 0.25, 0.5, 0.5, 1.0], size=(n, n))
            values = np.maximum(values, values.T)
            np.fill_diagonal(values, 0.0)
            for k in (1, 2, 3, n):
                assert np.array_equal(
                    _cap_neighbours(values.copy(), k),
                    _cap_neighbours_vectorized(values.copy(), k),
                )

    def test_row_normalize_shared(self):
        matrix = np.array([[0.0, 2.0], [0.0, 0.0]])
        normalized = _row_normalize(matrix)
        assert np.array_equal(normalized, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestAtomArrayEquivalence:
    def test_feature_matrix_from_arrays_bit_identical(self, pose_complexes):
        for complex_ in pose_complexes:
            atoms = list(complex_.ligand.atoms) + list(complex_.site.atoms)
            flags = [True] * complex_.ligand.num_atoms + [False] * complex_.site.num_atoms
            reference = atom_feature_matrix(atoms, flags)
            arrays = atom_arrays(atoms)
            fast = feature_matrix_from_arrays(arrays, np.array(flags))
            assert np.array_equal(reference, fast)


class TestFeaturePipelineEquivalence:
    def test_inference_bit_identical(self, pose_complexes):
        scalar = ComplexFeaturizer(VoxelGridConfig(grid_dim=12))
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=12))
        reference = scalar.featurize_many(pose_complexes, targets=[1.0 * i for i in range(len(pose_complexes))])
        fast = engine.featurize_many(pose_complexes, targets=[1.0 * i for i in range(len(pose_complexes))])
        for a, b in zip(reference, fast):
            assert_samples_identical(a, b)
        # collated batches are identical too
        batch_a = collate_complexes(reference)
        batch_b = collate_complexes(fast)
        assert np.array_equal(batch_a["voxel"], batch_b["voxel"])
        assert np.array_equal(batch_a["target"], batch_b["target"])
        assert batch_a["ids"] == batch_b["ids"]

    def test_seeded_augmentation_stream_bit_identical(self, pose_complexes):
        scalar = ComplexFeaturizer(
            VoxelGridConfig(grid_dim=10), augment=True, rotation_probability=0.6, seed=23
        )
        engine = FeaturePipeline(
            VoxelGridConfig(grid_dim=10), augment=True, rotation_probability=0.6, seed=23
        )
        # several passes so the two RNG streams must stay aligned call after call
        for _ in range(3):
            reference = scalar.featurize_many(pose_complexes, training=True)
            fast = engine.featurize_many(pose_complexes, training=True)
            for a, b in zip(reference, fast):
                assert_samples_identical(a, b)

    def test_augmented_training_bypasses_cache(self, pose_complexes):
        engine = FeaturePipeline(
            VoxelGridConfig(grid_dim=8), augment=True, rotation_probability=1.0, seed=3
        )
        for complex_ in pose_complexes:
            engine.featurize(complex_, training=True)
        stats = engine.stats()
        assert stats.lookups == 0 and len(engine.cache) == 0
        # inference features of the same poses do populate the cache
        for complex_ in pose_complexes:
            engine.featurize(complex_, training=False)
        assert len(engine.cache) == len(pose_complexes)

    def test_cache_hits_serve_identical_features(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        cold = [engine.featurize(c) for c in pose_complexes]
        warm = [engine.featurize(c) for c in pose_complexes]
        stats = engine.stats()
        assert stats.misses == len(pose_complexes)
        assert stats.hits == len(pose_complexes)
        assert stats.ledger_closed
        for a, b in zip(cold, warm):
            assert_samples_identical(a, b)

    def test_featurize_computes_only_uncached_poses(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        for complex_ in pose_complexes[:2]:
            engine.featurize(complex_)
        for complex_ in pose_complexes:
            engine.featurize(complex_)
        stats = engine.stats()
        assert stats.misses == len(pose_complexes)
        assert stats.hits == 2
        assert len(engine.cache) == len(pose_complexes)

    def test_featurize_deduplicates_repeated_poses(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        repeated = list(pose_complexes) * 3
        served = [engine.featurize(c) for c in repeated]
        assert engine.stats().misses == len(pose_complexes)
        assert len(engine.cache) == len(pose_complexes)
        uncached = FeaturePipeline(VoxelGridConfig(grid_dim=8), cache_enabled=False)
        assert uncached.stats() is None
        for a, b in zip(served, [uncached.featurize(c) for c in repeated]):
            assert_samples_identical(a, b)

    def test_featurize_many_equals_featurize_and_leaves_cache_empty(self, pose_complexes):
        batch_engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        batch = batch_engine.featurize_many(pose_complexes)
        single = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        for a, b in zip(batch, [single.featurize(c) for c in pose_complexes]):
            assert_samples_identical(a, b)
        stats = batch_engine.stats()
        assert stats.lookups == 0 and len(batch_engine.cache) == 0

    def test_featurize_many_neither_reads_nor_reorders_a_warm_cache(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        warm = [engine.featurize(c) for c in reversed(pose_complexes[:2])]
        before = engine.stats()
        keys_before = [key for key, _ in engine.cache.items()]
        batch = engine.featurize_many(pose_complexes)
        assert engine.stats() == before
        assert [key for key, _ in engine.cache.items()] == keys_before
        for a, b in zip(reversed(warm), batch[:2]):
            assert_samples_identical(a, b)

    def test_featurize_many_draws_rotations_like_featurize(self, pose_complexes):
        def pipeline():
            return FeaturePipeline(
                VoxelGridConfig(grid_dim=8), augment=True, rotation_probability=0.5, seed=11
            )

        batch_engine, single_engine = pipeline(), pipeline()
        for _ in range(2):
            batch = batch_engine.featurize_many(pose_complexes, training=True)
            single = [single_engine.featurize(c, training=True) for c in pose_complexes]
            for a, b in zip(batch, single):
                assert_samples_identical(a, b)

    def test_featurize_many_rejects_mismatched_targets(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        with pytest.raises(ValueError, match="targets must match"):
            engine.featurize_many(pose_complexes, targets=[0.0])
        assert engine.stats().lookups == 0

    def test_cached_graph_id_restamped_per_request(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        original = pose_complexes[0]
        renamed = dataclasses.replace(original, complex_id="renamed")
        first = engine.featurize(original)
        second = engine.featurize(renamed)  # same content key, different id
        assert engine.stats().hits == 1
        assert first.graph["id"] == original.complex_id
        assert second.graph["id"] == "renamed"

    def test_from_featurizer_shares_configuration(self, pose_complexes):
        scalar = ComplexFeaturizer(
            VoxelGridConfig(grid_dim=10, channel_set="full"),
            GraphConfig(pocket_shell=4.0),
            augment=True,
            rotation_probability=0.25,
            seed=9,
        )
        engine = FeaturePipeline.from_featurizer(scalar, seed=9)
        assert engine.voxelizer.config == scalar.voxelizer.config
        assert engine.graph_builder.config == scalar.graph_builder.config
        assert engine.augment == scalar.augment
        assert engine.rotation_probability == scalar.rotation_probability
        a = scalar.featurize(pose_complexes[0], training=True)
        b = engine.featurize(pose_complexes[0], training=True)
        assert_samples_identical(a, b)

    def test_config_digest_separates_cache_keys(self, pose_complexes):
        small = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        large = FeaturePipeline(VoxelGridConfig(grid_dim=16))
        assert small.config_digest != large.config_digest
        assert small.key_for(pose_complexes[0]) != large.key_for(pose_complexes[0])
        # same config -> same key, regardless of pipeline instance
        twin = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        assert small.key_for(pose_complexes[0]) == twin.key_for(pose_complexes[0])
