"""Tests for voxelization, spatial-graph construction and the featurization pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.featurize.atom_features import (
    ATOM_FEATURE_DIM,
    atom_arrays,
    element_class,
    feature_matrix_from_arrays,
)
from repro.featurize.engine import FeaturePipeline, VectorizedGraphBuilder, VectorizedVoxelizer
from repro.featurize.graph import GraphConfig
from repro.featurize.pipeline import collate_complexes
from repro.featurize.voxelize import VoxelGridConfig, random_axis_rotation
from repro.chem.atom import Atom


class TestAtomFeatures:
    def test_vector_layout(self):
        atom = Atom("N", hydrophobic=False, hbond_donor=True, hbond_acceptor=True, partial_charge=-0.3)
        vec = feature_matrix_from_arrays(atom_arrays([atom]), is_ligand=True)[0]
        assert vec.shape == (ATOM_FEATURE_DIM,)
        assert vec[element_class(atom)] == 1.0
        assert vec[-1] == 1.0  # ligand flag
        pocket_vec = feature_matrix_from_arrays(atom_arrays([atom]), is_ligand=False)[0]
        assert pocket_vec[-1] == 0.0

    def test_halogen_class(self):
        assert element_class(Atom("Br")) == element_class(Atom("Cl"))
        assert element_class(Atom("Zn")) == element_class(Atom("Fe"))


class TestVoxelizer:
    def test_output_shape_and_positivity(self, example_complex):
        voxelizer = VectorizedVoxelizer(VoxelGridConfig(grid_dim=12))
        grid = voxelizer.voxelize(example_complex)
        assert grid.shape == (8, 12, 12, 12)
        assert grid.min() >= 0.0 or VoxelGridConfig().channel_set == "full"
        assert grid.sum() > 0.0

    def test_full_channel_set(self, example_complex):
        voxelizer = VectorizedVoxelizer(VoxelGridConfig(grid_dim=10, channel_set="full"))
        grid = voxelizer.voxelize(example_complex)
        assert grid.shape[0] == 18

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            VectorizedVoxelizer(VoxelGridConfig(grid_dim=2))
        with pytest.raises(ValueError):
            VoxelGridConfig(channel_set="weird").channels

    def test_rotation_preserves_total_density_approximately(self, example_complex):
        voxelizer = VectorizedVoxelizer(VoxelGridConfig(grid_dim=16, resolution=1.5))
        base = voxelizer.voxelize(example_complex).sum()
        rotated = voxelizer.voxelize(
            example_complex, rotation=random_axis_rotation(np.random.default_rng(0), probability=1.0)
        ).sum()
        assert rotated == pytest.approx(base, rel=0.15)

    def test_atom_outside_grid_ignored(self, example_complex):
        tiny = VectorizedVoxelizer(VoxelGridConfig(grid_dim=4, resolution=0.5))
        grid = tiny.voxelize(example_complex)
        assert np.isfinite(grid).all()

    def test_identity_rotation_matches_unrotated(self, example_complex):
        voxelizer = VectorizedVoxelizer(VoxelGridConfig(grid_dim=10))
        a = voxelizer.voxelize(example_complex)
        b = voxelizer.voxelize(example_complex, rotation=np.eye(3))
        np.testing.assert_allclose(a, b)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_random_axis_rotation_always_orthogonal(self, probability):
        rotation = random_axis_rotation(np.random.default_rng(3), probability)
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-10)


class TestGraphBuilder:
    def test_graph_structure(self, example_complex):
        builder = VectorizedGraphBuilder(GraphConfig())
        graph = builder.build(example_complex)
        n_lig = example_complex.ligand.num_atoms
        n_total = graph["node_features"].shape[0]
        assert n_total >= n_lig
        assert graph["ligand_mask"].sum() == n_lig
        assert graph["node_features"].shape[1] == ATOM_FEATURE_DIM
        for etype in ("covalent", "noncovalent"):
            adj = graph["adjacency"][etype]
            assert adj.shape == (n_total, n_total)
            assert np.all(adj >= 0)
            assert np.allclose(np.diag(adj), 0.0)

    def test_pocket_atoms_have_no_covalent_edges(self, example_complex):
        graph = VectorizedGraphBuilder().build(example_complex)
        n_lig = example_complex.ligand.num_atoms
        cov = graph["adjacency"]["covalent"]
        assert np.all(cov[n_lig:, :] == 0)
        assert np.all(cov[:, n_lig:] == 0)

    def test_row_normalization(self, example_complex):
        graph = VectorizedGraphBuilder().build(example_complex)
        for adj in graph["adjacency"].values():
            sums = adj.sum(axis=1)
            nonzero = sums > 0
            np.testing.assert_allclose(sums[nonzero], 1.0)

    def test_neighbour_cap(self, example_complex):
        tight = VectorizedGraphBuilder(GraphConfig(noncovalent_k=2))
        loose = VectorizedGraphBuilder(GraphConfig(noncovalent_k=8))
        edges_tight = (tight.build(example_complex)["adjacency"]["noncovalent"] > 0).sum()
        edges_loose = (loose.build(example_complex)["adjacency"]["noncovalent"] > 0).sum()
        assert edges_tight <= edges_loose

    def test_pocket_shell_filters_far_atoms(self, example_complex):
        small_shell = VectorizedGraphBuilder(GraphConfig(pocket_shell=2.0)).build(example_complex)
        big_shell = VectorizedGraphBuilder(GraphConfig(pocket_shell=10.0)).build(example_complex)
        assert small_shell["node_features"].shape[0] <= big_shell["node_features"].shape[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphConfig(covalent_threshold=-1.0)
        with pytest.raises(ValueError):
            GraphConfig(noncovalent_k=0)


class TestFeaturizerPipeline:
    def test_featurize_and_collate(self, example_complex):
        featurizer = FeaturePipeline(VoxelGridConfig(grid_dim=10))
        samples = featurizer.featurize_many([example_complex, example_complex], targets=[5.0, 6.0])
        batch = collate_complexes(samples)
        assert batch["voxel"].shape[0] == 2
        assert batch["graph"].num_graphs == 2
        np.testing.assert_allclose(batch["target"], [5.0, 6.0])
        assert batch["ids"] == ["testcomplex", "testcomplex"]

    def test_augmentation_only_during_training(self, example_complex):
        featurizer = FeaturePipeline(VoxelGridConfig(grid_dim=10), augment=True, rotation_probability=1.0, seed=5)
        eval_a = featurizer.featurize(example_complex, training=False).voxel
        eval_b = featurizer.featurize(example_complex, training=False).voxel
        np.testing.assert_allclose(eval_a, eval_b)
        train = featurizer.featurize(example_complex, training=True).voxel
        assert not np.allclose(train, eval_a)

    def test_graph_not_augmented(self, example_complex):
        featurizer = FeaturePipeline(VoxelGridConfig(grid_dim=10), augment=True, rotation_probability=1.0, seed=5)
        g1 = featurizer.featurize(example_complex, training=True).graph
        g2 = featurizer.featurize(example_complex, training=False).graph
        np.testing.assert_allclose(g1["node_features"], g2["node_features"])

    def test_target_length_mismatch(self, example_complex):
        featurizer = FeaturePipeline(VoxelGridConfig(grid_dim=10))
        with pytest.raises(ValueError):
            featurizer.featurize_many([example_complex], targets=[1.0, 2.0])

    def test_collate_empty_raises(self):
        with pytest.raises(ValueError):
            collate_complexes([])
