"""Mini-batch iteration over in-memory samples for the scalar training loop."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.utils.rng import ensure_rng


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Parameters
    ----------
    samples:
        Already-materialized samples, indexed by position.
    batch_size:
        Number of samples per batch; the last batch may be smaller.
    collate_fn:
        Function combining a list of samples into a batch.
    shuffle:
        Shuffle sample order each epoch.
    rng:
        Seed or generator controlling the shuffle order; a shared
        generator advances across epochs.
    """

    def __init__(
        self,
        samples: Sequence,
        *,
        batch_size: int,
        collate_fn: Callable[[Sequence], object],
        shuffle: bool = False,
        rng=None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.samples = samples
        self.batch_size = int(batch_size)
        self.collate_fn = collate_fn
        self.shuffle = bool(shuffle)
        self._rng = ensure_rng(rng)

    def __iter__(self) -> Iterator:
        order = np.arange(len(self.samples))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            yield self.collate_fn([self.samples[int(i)] for i in order[start : start + self.batch_size]])
