"""Test-side references for ``repro.screening``.

``topk_by_full_sort`` is the full-sort selection the bounded
:class:`~repro.screening.stream.TopKSelector` must match bit for bit;
``stats_array`` turns :class:`~repro.screening.stream.StreamingStats`
into one array for ``np.array_equal``; ``read_predictions`` and
``read_topk`` read back the layout :mod:`repro.screening.output` writes
(the program only writes it).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.hpc.h5store import H5Store
from repro.screening.stream import StreamingStats, TopKEntry


def topk_by_full_sort(offers: Sequence[tuple[str, float]], k: int) -> list[TopKEntry]:
    """Dedupe to the best score per compound id (NaN dropped), sort by
    ``(score desc, compound_id asc)``, truncate to ``k``."""
    best: dict[str, float] = {}
    for compound_id, score in offers:
        score = float(score)
        if math.isnan(score):
            continue
        if compound_id not in best or score > best[compound_id]:
            best[compound_id] = score
    ordered = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return [TopKEntry(compound_id=cid, score=score) for cid, score in ordered[: int(k)]]


def stats_array(stats: StreamingStats) -> np.ndarray:
    """``count, nan_count, min, max, mean, std`` as one float64 array."""
    return np.array(list(stats.as_dict().values()), dtype=np.float64)


def read_topk(store: H5Store, site_name: str) -> tuple[list[str], np.ndarray]:
    """One site's top-K table as ``(compound_ids, scores)``."""
    prefix = f"topk/{site_name}"
    ids = store.read(f"{prefix}/compound_ids")
    scores = store.read(f"{prefix}/score")
    return [str(cid) for cid in ids], np.asarray(scores, dtype=np.float64)


def read_predictions(store: H5Store, site_name: str) -> dict[tuple[str, int], float]:
    """Every job's predictions for a site, keyed by ``(compound_id, pose_id)``."""
    out: dict[tuple[str, int], float] = {}
    for base in _job_groups(store, f"dock/{site_name}"):
        ids = store.read(f"{base}/compound_ids")
        poses = store.read(f"{base}/pose_ids")
        for cid, pid, pred in zip(ids, poses, store.read(f"{base}/fusion_pk")):
            out[(str(cid), int(pid))] = float(pred)
    return out


def _job_groups(store: H5Store, prefix: str):
    """Every group below ``prefix`` holding a ``fusion_pk`` dataset, depth first."""
    for child in store.groups(prefix):
        path = f"{prefix}/{child}"
        if f"{path}/fusion_pk" in store:
            yield path
        yield from _job_groups(store, path)
