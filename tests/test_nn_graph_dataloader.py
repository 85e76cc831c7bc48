"""Tests for graph layers (GraphBatch, GatedGraphConv, GraphGather) and the DataLoader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.dataloader import DataLoader
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


class TestDataLoader:
    def test_batching(self):
        batches = list(DataLoader(list(range(10)), batch_size=3, collate_fn=list))
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_shuffle_reproducible_and_covers_all(self):
        loader = DataLoader(list(range(20)), batch_size=5, collate_fn=list, shuffle=True, rng=3)
        seen = [x for batch in loader for x in batch]
        assert sorted(seen) == list(range(20))
        # the order is one rng.shuffle of arange(n): the draw trained weights depend on
        order = np.arange(20)
        np.random.default_rng(3).shuffle(order)
        assert seen == order.tolist()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DataLoader([1], batch_size=0, collate_fn=list)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ValueError):
            DataLoader([1, 2], batch_size=-3, collate_fn=list)

    def test_batch_larger_than_samples_yields_one_batch(self):
        assert list(DataLoader([4, 5, 6], batch_size=10, collate_fn=list)) == [[4, 5, 6]]

    def test_empty_samples_yield_nothing(self):
        assert list(DataLoader([], batch_size=4, collate_fn=list)) == []
        assert list(DataLoader([], batch_size=4, collate_fn=list, shuffle=True, rng=0)) == []

    def test_collate_fn_called_once_per_batch_in_order(self):
        calls = []
        samples = [{"x": float(i)} for i in range(7)]

        def collate(batch):
            calls.append([s["x"] for s in batch])
            return len(calls)

        assert list(DataLoader(samples, batch_size=3, collate_fn=collate)) == [1, 2, 3]
        assert calls == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0]]

    def test_collate_exception_propagates(self):
        def explode(batch):
            raise ValueError("bad batch")

        loader = DataLoader(list(range(12)), batch_size=3, collate_fn=explode)
        with pytest.raises(ValueError, match="bad batch"):
            list(loader)
        # a fresh iteration fails the same way
        with pytest.raises(ValueError, match="bad batch"):
            next(iter(loader))

    def test_any_indexable_sequence_is_accepted(self):
        expected = [[0, 1], [2, 3], [4]]
        assert list(DataLoader(tuple(range(5)), batch_size=2, collate_fn=list)) == expected
        batches = list(DataLoader(np.arange(5), batch_size=2, collate_fn=list))
        assert [[int(x) for x in batch] for batch in batches] == expected

    def test_unshuffled_loader_never_draws_from_the_rng(self):
        rng = np.random.default_rng(5)
        loader = DataLoader(list(range(9)), batch_size=4, collate_fn=list, shuffle=False, rng=rng)
        for _ in range(2):
            assert [x for batch in loader for x in batch] == list(range(9))
        # the shared generator is untouched, so later draws are unchanged
        assert rng.random() == np.random.default_rng(5).random()

    def test_seed_and_generator_give_the_same_order(self):
        by_seed = DataLoader(list(range(16)), batch_size=5, collate_fn=list, shuffle=True, rng=8)
        by_generator = DataLoader(
            list(range(16)), batch_size=5, collate_fn=list, shuffle=True, rng=np.random.default_rng(8)
        )
        assert list(by_seed) == list(by_generator)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_all_samples_delivered_exactly_once(self, n, batch_size):
        loader = DataLoader(list(range(n)), batch_size=batch_size, collate_fn=list, shuffle=True, rng=0)
        seen = [x for batch in loader for x in batch]
        assert sorted(seen) == list(range(n))

    def test_shared_rng_shuffle_reproducible_across_epochs(self):
        epochs = 3
        orders = []
        for _ in range(2):
            loader = DataLoader(list(range(15)), batch_size=4, collate_fn=list, shuffle=True, rng=21)
            orders.append([[int(x) for batch in loader for x in batch] for _ in range(epochs)])
        # same seed => the same sequence of per-epoch orders...
        assert orders[0] == orders[1]
        # ...while the shared rng advances, so consecutive epochs differ
        assert orders[0][0] != orders[0][1]
