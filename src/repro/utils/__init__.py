"""Shared utilities: seeded RNG helpers, logging, timing and serialization."""

from repro.utils.rng import RandomState, derive_seed, spawn_rng
from repro.utils.timer import Timer, WallClock
from repro.utils.logging import get_logger
from repro.utils.serialization import load_npz_dict, save_npz_dict

__all__ = [
    "RandomState",
    "derive_seed",
    "spawn_rng",
    "Timer",
    "WallClock",
    "get_logger",
    "save_npz_dict",
    "load_npz_dict",
]
