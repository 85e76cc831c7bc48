"""Tests for repro.utils (rng, timer, serialization, validation)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import derive_seed, ensure_rng, spawn_rng
from repro.utils.serialization import load_npz_dict, save_npz_dict
from repro.utils.timer import Timer, WallClock


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_derive_seed_in_range(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63

    def test_spawn_rng_reproducible_streams(self):
        a = spawn_rng(5, "stream").normal(size=4)
        b = spawn_rng(5, "stream").normal(size=4)
        c = spawn_rng(5, "other").normal(size=4)
        np.testing.assert_allclose(a, b)
        assert not np.allclose(a, c)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen
        assert isinstance(ensure_rng(3), np.random.Generator)


class TestTimer:
    def test_sections_accumulate(self):
        timer = Timer()
        with timer.section("a"):
            pass
        timer.add("a", 1.0)
        timer.add("b", 2.0)
        assert timer.sections["a"] >= 1.0
        assert timer.total() >= 3.0
        assert set(timer.as_dict()) == {"a", "b"}

    def test_wall_clock_advance(self):
        clock = WallClock()
        clock.advance(10.0, "step")
        clock.advance(5.0)
        assert clock.now == 15.0
        assert clock.history == [(10.0, "step")]

    def test_wall_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            WallClock().advance(-1.0)


class TestSerialization:
    def test_roundtrip_with_meta(self, tmp_path):
        data = {"a/b": np.arange(5.0), "c": np.ones((2, 3))}
        path = tmp_path / "store.npz"
        save_npz_dict(path, data, meta={"note": "hello", "n": 3})
        loaded, meta = load_npz_dict(path)
        np.testing.assert_allclose(loaded["a/b"], np.arange(5.0))
        np.testing.assert_allclose(loaded["c"], np.ones((2, 3)))
        assert meta == {"note": "hello", "n": 3}

    def test_roundtrip_without_meta(self, tmp_path):
        path = tmp_path / "plain"
        save_npz_dict(path, {"x": np.array([1.0])})
        loaded, meta = load_npz_dict(path)
        assert meta == {}
        assert loaded["x"][0] == 1.0
