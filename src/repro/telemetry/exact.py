"""Exact streaming float accumulation (Shewchuk expansions).

Home of :class:`ExactSum`, which previously lived in
:mod:`repro.screening.stream` (which now re-exports it).  Telemetry is
the natural bottom-of-the-stack owner: the mergeable streaming histogram
uses it so that summed totals — and therefore means — are *order
invariant*, which is what makes histogram merges exactly associative and
commutative in every observable.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ExactSum", "ExactVectorSum", "exact_vector_sum"]


class ExactSum:
    """Streaming exact float sum (Shewchuk expansion).

    Partial sums are maintained without rounding error, so the final
    :attr:`value` is the correctly-rounded sum of everything added — the
    same float for *any* accumulation order.  This is what makes the
    streaming statistics bit-identical across shard sizes and worker
    counts without buffering the stream.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, value: float) -> None:
        x = float(value)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        return math.fsum(self._partials)


class ExactVectorSum:
    """Elementwise exact float sum over equally-shaped arrays.

    The vector analogue of :class:`ExactSum`: every element of the result
    is the correctly-rounded sum of that element across all added arrays,
    for *any* accumulation order.  This is what makes the data-parallel
    trainer's gradient all-reduce invariant to how per-chunk gradient
    partials are distributed over ranks.

    Each :meth:`add` runs the Shewchuk expansion step elementwise (the
    magnitude-swap variant of two-sum, vectorized with ``np.where``), so
    the stored partials are per-element nonoverlapping components ordered
    by increasing magnitude.  Unlike the scalar version, exact zeros are
    kept in place to preserve rectangular storage: memory grows by one
    array per addend, which stays small for the intended use (tens of
    gradient partials per optimization step).
    """

    __slots__ = ("shape", "_partials")

    def __init__(self, shape: tuple[int, ...] | int) -> None:
        self.shape = (int(shape),) if isinstance(shape, int) else tuple(int(s) for s in shape)
        self._partials: list[np.ndarray] = []

    def add(self, array: np.ndarray) -> None:
        x = np.array(array, dtype=np.float64, copy=True)
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: expected {self.shape}, got {x.shape}")
        for i, y in enumerate(self._partials):
            swap = np.abs(x) < np.abs(y)
            big = np.where(swap, y, x)
            small = np.where(swap, x, y)
            hi = big + small
            lo = small - (hi - big)
            self._partials[i] = lo
            x = hi
        self._partials.append(x)

    @property
    def value(self) -> np.ndarray:
        """Correctly-rounded elementwise total (zeros when nothing was added).

        Mirrors ``math.fsum``'s final pass, vectorized: partials are
        summed from the largest down until a nonzero round-off appears,
        then the round-to-nearest-even tie between that round-off and the
        next nonzero partial below is resolved explicitly.  Correct
        rounding is what makes the value a canonical function of the
        exact total — and therefore identical for every accumulation
        order, which the naive left-to-right sum of partials is not.
        """
        if not self._partials:
            return np.zeros(self.shape, dtype=np.float64)
        hi = self._partials[-1].copy()
        lo = np.zeros(self.shape, dtype=np.float64)
        have_lo = np.zeros(self.shape, dtype=bool)
        lower_sign = np.zeros(self.shape, dtype=np.float64)
        seek_sign = np.zeros(self.shape, dtype=bool)
        for j in range(len(self._partials) - 2, -1, -1):
            y = self._partials[j]
            summing = ~have_lo
            s = np.where(summing, hi + y, hi)
            err = np.where(summing, y - (s - hi), 0.0)
            hi = s
            newly = summing & (err != 0.0)
            lo = np.where(newly, err, lo)
            have_lo |= newly
            # sign of the largest partial below each element's stopping point
            found = seek_sign & (y != 0.0)
            lower_sign = np.where(found, np.sign(y), lower_sign)
            seek_sign = (seek_sign & ~found) | newly
        # half-even tie correction, exactly as in fsum: apply only when
        # doubling the round-off is exact (a true half-way case) and the
        # partial below pushes in the same direction.
        y2 = 2.0 * lo
        x2 = hi + y2
        apply = have_lo & (lower_sign * lo > 0.0) & (y2 == (x2 - hi))
        return np.where(apply, x2, hi)


def exact_vector_sum(arrays: "list[np.ndarray] | tuple[np.ndarray, ...]") -> np.ndarray:
    """Correctly-rounded elementwise sum of equally-shaped float arrays."""
    arrays = list(arrays)
    if not arrays:
        raise ValueError("exact_vector_sum requires at least one array")
    acc = ExactVectorSum(np.asarray(arrays[0]).shape)
    for array in arrays:
        acc.add(array)
    return acc.value
