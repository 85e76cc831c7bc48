"""Shard boundaries for the streaming screening engine.

The paper cuts the full pose set into independent jobs of ~2 million
poses (≈200,000 compounds); the streamed screen cuts its library into
shards the same way, each one an independent unit of work and of
checkpointing.
"""

from __future__ import annotations

import operator


def shard_bounds(total: int, shard_size: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` index ranges cutting ``total`` items into shards.

    The streaming screening engine iterates a (possibly lazily
    generated) library through these bounds; concatenating the ranges in
    order reproduces ``range(total)`` exactly, so every compound belongs
    to exactly one shard regardless of ``shard_size`` (the shard-
    partitioning property tests pin this down).  Empty input yields no
    shards.
    """
    try:
        total = operator.index(total)
        shard_size = operator.index(shard_size)
    except TypeError:
        raise ValueError(f"total and shard_size must be integers, got {total!r}, {shard_size!r}") from None
    if total < 0:
        raise ValueError("total must be non-negative")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    return [(start, min(start + shard_size, total)) for start in range(0, total, shard_size)]

