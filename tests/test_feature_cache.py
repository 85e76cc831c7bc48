"""Hypothesis property tests for the content-addressed feature cache.

Three invariant families:

* the hit/miss ledger closes — every lookup is accounted for as exactly
  one hit or one miss, under arbitrary operation sequences;
* LRU eviction — the cache never exceeds capacity and evicts in exact
  least-recently-used order (checked against a reference model);
* serving equivalence — features served from the cache are identical to
  freshly computed ones, even after evictions forced recomputation.
"""

import dataclasses
import pickle
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.featurize.cache import (
    FeatureCache,
    entry_nbytes,
    feature_key,
    featurizer_config_digest,
)
from repro.featurize.engine import FeaturePipeline
from repro.featurize.graph import GraphConfig
from repro.featurize.voxelize import VoxelGridConfig

KEY_UNIVERSE = [f"key{i}" for i in range(12)]

#: an operation is ("get" | "put", key index)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, len(KEY_UNIVERSE) - 1)),
    max_size=120,
)


def payload_for(index: int) -> tuple:
    voxel = np.full((1, 2, 2, 2), float(index))
    graph = {"node_features": np.full((1, 3), float(index))}
    return voxel, graph


class LruModel:
    """Reference LRU implementation the real cache is checked against."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict[str, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str):
        if key in self.entries:
            self.entries.move_to_end(key)
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        return None

    def put(self, key: str, value: int) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1


class TestCacheLedgerProperties:
    @given(ops=ops_strategy, capacity=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_ledger_closes_and_matches_reference_model(self, ops, capacity):
        cache = FeatureCache(capacity)
        model = LruModel(capacity)
        for op, key_index in ops:
            key = KEY_UNIVERSE[key_index]
            if op == "get":
                entry = cache.get(key)
                expected = model.get(key)
                assert (entry is None) == (expected is None)
                if entry is not None:
                    assert float(entry[0][0, 0, 0, 0]) == float(expected)
            else:
                cache.put(key, *payload_for(key_index))
                model.put(key, key_index)
            # LRU bound holds after *every* operation, not just at the end
            assert len(cache) <= capacity

        stats = cache.stats()
        assert stats.ledger_closed
        assert stats.lookups == sum(1 for op, _ in ops if op == "get")
        assert stats.hits == model.hits
        assert stats.misses == model.misses
        assert stats.evictions == model.evictions
        assert stats.size == len(model.entries)
        # identical keys survive, in identical LRU-to-MRU order
        assert [k for k, _ in cache.items()] == list(model.entries)

    @given(indices=st.lists(st.integers(0, len(KEY_UNIVERSE) - 1), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_eviction_never_exceeds_capacity(self, indices):
        capacity = 3
        cache = FeatureCache(capacity)
        for index in indices:
            cache.put(KEY_UNIVERSE[index], *payload_for(index))
            assert len(cache) <= capacity
        stats = cache.stats()
        distinct = len(set(indices))
        assert stats.size == min(distinct, capacity)
        if indices:
            # the most recently inserted key is always resident
            assert KEY_UNIVERSE[indices[-1]] in cache

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FeatureCache(0)
        with pytest.raises(ValueError):
            FeatureCache(4, max_bytes=0)

    def test_hit_rate_and_clear(self):
        cache = FeatureCache(2)
        cache.put("a", *payload_for(0))
        assert cache.get("a") is not None
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().bytes == 0
        # counters survive a clear; the ledger still closes
        assert cache.stats().ledger_closed


class TestByteBudget:
    """Entries are full float64 tensors; the byte budget is what bounds RSS."""

    def test_entry_nbytes_counts_all_payload_tensors(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        sample = engine.featurize(pose_complexes[0])
        expected = (
            sample.voxel.nbytes
            + sample.graph["node_features"].nbytes
            + sample.graph["adjacency"]["covalent"].nbytes
            + sample.graph["adjacency"]["noncovalent"].nbytes
            + sample.graph["ligand_mask"].nbytes
        )
        assert entry_nbytes(sample.voxel, sample.graph) == expected
        assert engine.stats().bytes == expected

    @given(indices=st.lists(st.integers(0, len(KEY_UNIVERSE) - 1), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_byte_budget_enforced_after_every_put(self, indices):
        per_entry = entry_nbytes(*payload_for(0))
        budget = 3 * per_entry
        cache = FeatureCache(capacity=100, max_bytes=budget)
        for index in indices:
            cache.put(KEY_UNIVERSE[index], *payload_for(index))
            stats = cache.stats()
            assert stats.bytes <= budget
            assert stats.size <= 3
            assert stats.bytes == stats.size * per_entry
            # the most recent entry is always resident
            assert KEY_UNIVERSE[index] in cache

    def test_single_oversized_entry_stays_resident(self):
        per_entry = entry_nbytes(*payload_for(0))
        cache = FeatureCache(capacity=8, max_bytes=per_entry // 2)
        cache.put("big", *payload_for(1))
        assert "big" in cache and len(cache) == 1
        cache.put("other", *payload_for(2))  # evicts down to the newest entry
        assert "other" in cache and len(cache) == 1

    def test_refreshing_a_key_does_not_leak_bytes(self):
        cache = FeatureCache(capacity=4, max_bytes=None)
        per_entry = entry_nbytes(*payload_for(0))
        for _ in range(5):
            cache.put("a", *payload_for(0))
        assert cache.stats().bytes == per_entry

    def test_pipeline_byte_budget_bounds_memory(self, pose_complexes):
        engine = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        one_entry = entry_nbytes(
            engine.featurize(pose_complexes[0]).voxel, engine.featurize(pose_complexes[0]).graph
        )
        tiny = FeaturePipeline(VoxelGridConfig(grid_dim=8), cache_max_bytes=2 * one_entry)
        for complex_ in pose_complexes:
            tiny.featurize(complex_)
        stats = tiny.stats()
        assert stats.bytes <= 2 * one_entry
        assert stats.evictions >= len(pose_complexes) - 2


class TestPickleContracts:
    def test_feature_cache_ships_configuration_only(self):
        cache = FeatureCache(capacity=3, max_bytes=10**6)
        cache.put("key", np.zeros((2, 2)), {"node_features": np.ones(4)})
        assert cache.get("key") is not None
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.capacity == 3
        assert clone.max_bytes == 10**6
        # entries and the hit/miss ledger stay behind: each worker warms
        # its own cache against its own traffic
        assert len(clone) == 0
        assert clone.stats().lookups == 0
        clone.put("other", np.zeros(2), {"node_features": np.zeros(1)})
        assert "other" in clone


class TestCacheServedFeatureEquivalence:
    @given(picks=st.lists(st.integers(0, 5), min_size=1, max_size=12))
    @settings(max_examples=12, deadline=None)
    def test_cache_served_equals_fresh(self, picks, pose_complexes):
        cached = FeaturePipeline(VoxelGridConfig(grid_dim=8))
        fresh = FeaturePipeline(VoxelGridConfig(grid_dim=8), cache_enabled=False)
        for index in picks:
            complex_ = pose_complexes[index % len(pose_complexes)]
            a = cached.featurize(complex_)
            b = fresh.featurize(complex_)
            assert np.array_equal(a.voxel, b.voxel)
            assert np.array_equal(a.graph["node_features"], b.graph["node_features"])
            for edge_type in ("covalent", "noncovalent"):
                assert np.array_equal(
                    a.graph["adjacency"][edge_type], b.graph["adjacency"][edge_type]
                )
        stats = cached.stats()
        assert stats.ledger_closed
        assert stats.lookups == len(picks)

    @given(picks=st.lists(st.integers(0, 5), min_size=4, max_size=16))
    @settings(max_examples=8, deadline=None)
    def test_equivalence_survives_evictions(self, picks, pose_complexes):
        # capacity 2 forces constant eviction and recomputation
        tiny = FeaturePipeline(VoxelGridConfig(grid_dim=8), cache_capacity=2)
        fresh = FeaturePipeline(VoxelGridConfig(grid_dim=8), cache_enabled=False)
        for index in picks:
            complex_ = pose_complexes[index % len(pose_complexes)]
            a = tiny.featurize(complex_)
            b = fresh.featurize(complex_)
            assert np.array_equal(a.voxel, b.voxel)
            assert len(tiny.cache) <= 2
        assert tiny.stats().ledger_closed


class TestFeatureKeys:
    def test_key_depends_on_pose_site_and_config(self, pose_complexes):
        digest_a = featurizer_config_digest(VoxelGridConfig(grid_dim=8), GraphConfig())
        digest_b = featurizer_config_digest(VoxelGridConfig(grid_dim=16), GraphConfig())
        digest_c = featurizer_config_digest(VoxelGridConfig(grid_dim=8), GraphConfig(pocket_shell=4.0))
        assert len({digest_a, digest_b, digest_c}) == 3

        first, second = pose_complexes[0], pose_complexes[1]
        assert feature_key(first, digest_a) != feature_key(second, digest_a)
        assert feature_key(first, digest_a) != feature_key(first, digest_b)
        # deterministic: same inputs, same key
        assert feature_key(first, digest_a) == feature_key(first, digest_a)

    def test_pose_id_changes_key(self, pose_complexes):
        digest = featurizer_config_digest(VoxelGridConfig(grid_dim=8), GraphConfig())
        original = pose_complexes[0]
        other_pose = dataclasses.replace(original, pose_id=original.pose_id + 1)
        assert feature_key(original, digest) != feature_key(other_pose, digest)
