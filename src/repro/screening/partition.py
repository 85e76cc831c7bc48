"""Work partitioning across jobs and MPI ranks.

The paper's screening formulation: the full pose set is cut into
independent jobs of ~2 million poses (≈200,000 compounds); within a job,
"we simply divide the set of compounds assigned to the job by the number
of ranks and assign each rank the subset with its index".
"""

from __future__ import annotations

import operator
from typing import Iterable, TypeVar

T = TypeVar("T")


def partition_evenly(items: Iterable[T], num_parts: int) -> list[list[T]]:
    """Split ``items`` into ``num_parts`` contiguous chunks of near-equal size.

    Sizes differ by at most one; empty chunks are produced when there are
    more parts than items (a rank with no work still participates in the
    collectives, as in the real MPI program), and empty input yields
    ``num_parts`` empty chunks.  ``num_parts`` must be a positive
    integer — a fractional rank count is always a caller bug, so it
    raises instead of silently truncating.
    """
    try:
        num_parts = operator.index(num_parts)
    except TypeError:
        raise ValueError(f"num_parts must be an integer, got {num_parts!r}") from None
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    items = list(items)
    n = len(items)
    base, extra = divmod(n, num_parts)
    chunks: list[list[T]] = []
    start = 0
    for part in range(num_parts):
        size = base + (1 if part < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


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

