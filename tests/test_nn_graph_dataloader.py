"""Tests for graph layers (GraphBatch, GatedGraphConv, GraphGather)."""

import numpy as np
import pytest

from repro.nn.graph_layers import GatedGraphConv, GraphBatch, GraphGather
from repro.nn.tensor import Tensor


def make_graph(n_atoms=5, feature_dim=4, seed=0, ligand_atoms=3):
    rng = np.random.default_rng(seed)
    cov = np.zeros((n_atoms, n_atoms))
    for i in range(n_atoms - 1):
        cov[i, i + 1] = cov[i + 1, i] = 1.0
    noncov = (rng.random((n_atoms, n_atoms)) < 0.4).astype(float)
    np.fill_diagonal(noncov, 0.0)
    noncov = np.maximum(noncov, noncov.T)
    mask = np.zeros(n_atoms, dtype=bool)
    mask[:ligand_atoms] = True
    return {
        "node_features": rng.normal(size=(n_atoms, feature_dim)),
        "adjacency": {"covalent": cov, "noncovalent": noncov},
        "ligand_mask": mask,
        "id": f"g{seed}",
    }


class TestGraphBatch:
    def test_block_diagonal_stacking(self):
        batch = GraphBatch.from_graphs([make_graph(4, seed=1), make_graph(6, seed=2)])
        assert batch.num_nodes == 10
        assert batch.num_graphs == 2
        assert batch.adjacency["covalent"].shape == (10, 10)
        # no cross-graph edges
        assert np.all(batch.adjacency["covalent"][:4, 4:] == 0)
        assert np.all(batch.adjacency["noncovalent"][4:, :4] == 0)
        np.testing.assert_array_equal(batch.graph_index, [0] * 4 + [1] * 6)

    def test_membership_matrix(self):
        batch = GraphBatch.from_graphs([make_graph(3, seed=0), make_graph(2, seed=1)])
        membership = batch.membership_matrix()
        assert membership.shape == (2, 5)
        np.testing.assert_allclose(membership.sum(axis=0), 1.0)
        np.testing.assert_allclose(membership.sum(axis=1), [3.0, 2.0])

    def test_feature_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs([make_graph(3, feature_dim=4), make_graph(3, feature_dim=5)])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs([])

    def test_shape_validation(self):
        graph = make_graph(4)
        with pytest.raises(ValueError):
            GraphBatch(
                node_features=graph["node_features"],
                adjacency={"covalent": np.zeros((3, 3)), "noncovalent": np.zeros((4, 4))},
                graph_index=np.zeros(4, dtype=int),
                ligand_mask=np.ones(4, dtype=bool),
                num_graphs=1,
            )


class TestGraphLayers:
    def test_gated_conv_shapes_and_padding(self):
        batch = GraphBatch.from_graphs([make_graph(5, feature_dim=4, seed=3)])
        conv = GatedGraphConv(hidden_dim=8, num_steps=2, rng=0)
        out = conv(Tensor(batch.node_features), batch.adjacency)
        assert out.shape == (5, 8)

    def test_gated_conv_rejects_oversized_input(self):
        conv = GatedGraphConv(hidden_dim=4, num_steps=1, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((3, 6))), {"covalent": np.eye(3)})

    def test_isolated_graph_messages_zero_but_state_updates(self):
        batch = GraphBatch.from_graphs([make_graph(4, seed=5)])
        conv = GatedGraphConv(hidden_dim=4, num_steps=1, edge_types=("covalent",), rng=1)
        zero_adj = {"covalent": np.zeros((4, 4))}
        out = conv(Tensor(batch.node_features), zero_adj)
        assert np.isfinite(out.numpy()).all()

    def test_gather_pools_only_ligand_atoms(self):
        graph = make_graph(6, seed=7, ligand_atoms=2)
        batch = GraphBatch.from_graphs([graph])
        gather = GraphGather(node_dim=4, input_dim=4, gather_width=5, rng=2)
        h = Tensor(batch.node_features)
        pooled = gather(h, batch).numpy()
        assert pooled.shape == (1, 5)
        # zeroing the pocket atoms must not change the pooled value
        modified = graph.copy()
        modified["node_features"] = graph["node_features"].copy()
        modified["node_features"][2:] = 0.0
        batch2 = GraphBatch.from_graphs([modified])
        pooled2 = gather(Tensor(batch2.node_features), batch2).numpy()
        np.testing.assert_allclose(pooled, pooled2)

    def test_gradients_flow_through_graph_stack(self):
        batch = GraphBatch.from_graphs([make_graph(5, seed=9), make_graph(4, seed=10)])
        conv = GatedGraphConv(hidden_dim=6, num_steps=2, rng=3)
        gather = GraphGather(node_dim=6, input_dim=4, gather_width=4, rng=4)
        out = gather(conv(Tensor(batch.node_features), batch.adjacency), batch)
        (out * out).sum().backward()
        assert conv.w_z.grad is not None
        assert gather.i_weight.grad is not None
