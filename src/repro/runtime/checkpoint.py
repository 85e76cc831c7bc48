"""Content-keyed stage checkpoints persisted through :class:`H5Store`.

Every stage of the campaign runtime is identified by a content key: a
hash of the stage name, the configuration ingredients that influence its
output (seeds, library counts, model weights, ...) and the keys of its
upstream stages.  A checkpoint is only ever restored when its stored key
matches the key recomputed from the current configuration, so stale
results — a different seed, a swapped model checkpoint, a changed cost
function — can never leak into a resumed campaign; they simply miss.

Payloads are arbitrary Python stage outputs (docking databases, job
results, assay tables), pickled and carried as a ``uint8`` dataset
inside an :class:`repro.hpc.h5store.H5Store`, one ``.npz`` container per
stage.  Only load checkpoint directories you (or your own campaign
runs) wrote: pickle is not a sandbox.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.hpc.h5store import H5Store
from repro.utils.logging import get_logger

logger = get_logger("repro.runtime")


def checkpoint_key(stage_name: str, ingredients: Mapping[str, object], dep_keys: Sequence[str] = ()) -> str:
    """Content key of one stage: name + config ingredients + upstream keys.

    ``ingredients`` values are hashed by ``repr``, so use stable,
    deterministic values (numbers, strings, sorted tuples, digests).
    """
    hasher = hashlib.sha256()
    hasher.update(stage_name.encode())
    for name in sorted(ingredients):
        hasher.update(f"|{name}={ingredients[name]!r}".encode())
    for dep_key in dep_keys:
        hasher.update(f"|dep:{dep_key}".encode())
    return hasher.hexdigest()


class CheckpointStore:
    """Stage-name -> (content key, payload) store, one H5Store file per stage.

    Parameters
    ----------
    directory:
        Where checkpoint ``.npz`` containers live.  ``None`` keeps
        checkpoints in memory only — useful for tests and for snapshot
        isolation without touching disk.
    """

    GROUP = "runtime/checkpoint"

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, tuple[str, bytes]] = {}

    # ------------------------------------------------------------------ #
    def _path(self, stage_name: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{stage_name}.npz"

    def save(self, stage_name: str, key: str, payload: Any) -> None:
        """Persist one stage's payload under its content key."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self.directory is None:
            self._memory[stage_name] = (key, blob)
            return
        store = H5Store()
        prefix = f"{self.GROUP}/{stage_name}"
        store.write(f"{prefix}/payload", np.frombuffer(blob, dtype=np.uint8))
        store.write_attr(prefix, "key", key)
        store.write_attr(prefix, "stage", stage_name)
        store.write_attr(prefix, "num_bytes", len(blob))
        # Write-then-rename so a kill mid-save can never leave a truncated
        # container at the final path (a leftover *.tmp.npz is ignored:
        # its attrs live under the real stage name, so stored_key misses).
        tmp_path = self.directory / f"{stage_name}.tmp.npz"
        store.save(tmp_path)
        os.replace(tmp_path, self._path(stage_name))

    def load(self, stage_name: str, key: str) -> Any | None:
        """Restore a payload; ``None`` on a missing, stale or corrupt checkpoint."""
        if self.directory is None:
            entry = self._memory.get(stage_name)
            if entry is None or entry[0] != key:
                return None
            return pickle.loads(entry[1])
        # Compare keys via the metadata-only path first: a stale or
        # missing checkpoint never pays for decompressing its payload.
        if self.stored_key(stage_name) != key:
            return None
        path = self._path(stage_name)
        prefix = f"{self.GROUP}/{stage_name}"
        try:
            store = H5Store.load(path)
            blob = store.read(f"{prefix}/payload").astype(np.uint8).tobytes()
            return pickle.loads(blob)
        except Exception as error:  # a broken checkpoint is a cache miss, not a crash
            logger.warning("discarding unreadable checkpoint %s: %s", path, error)
            return None

    # ------------------------------------------------------------------ #
    def stored_key(self, stage_name: str) -> str | None:
        """The content key a stage was checkpointed under, if any.

        Reads only the container's metadata member — the (potentially
        large) pickled payload dataset is never decompressed.
        """
        if self.directory is None:
            entry = self._memory.get(stage_name)
            return entry[0] if entry else None
        attrs = self._read_stage_attrs(stage_name)
        if attrs is None:
            return None
        key = attrs.get("key")
        return str(key) if key is not None else None

    def _read_stage_attrs(self, stage_name: str) -> dict | None:
        """Attributes of one checkpoint file without materializing its payload."""
        path = self._path(stage_name)
        if not path.exists():
            return None
        try:
            attrs = H5Store.peek_attrs(path)
        except Exception:
            return None
        return attrs.get(f"{self.GROUP}/{stage_name}", {})

    def discard(self, stage_name: str) -> None:
        """Drop one stage's checkpoint (no-op if absent)."""
        if self.directory is None:
            self._memory.pop(stage_name, None)
            return
        path = self._path(stage_name)
        if path.exists():
            path.unlink()

    def clear(self) -> None:
        if self.directory is None:
            self._memory.clear()
            return
        for path in self.directory.glob("*.npz"):
            path.unlink()
