"""HDF5-like hierarchical array store.

The scoring jobs in the paper write their identifiers and predictions to
HDF5 files whose layout mirrors ConveyorLC's CDT3Docking output so that
downstream pharmacokinetic/safety tooling can consume them unchanged.
``h5py`` is unavailable offline, so this module provides a small
hierarchical store with the subset of the HDF5 data model the pipeline
needs — groups, named datasets, attributes — backed by ``numpy.savez``
files on disk.
"""

from __future__ import annotations

import os

import numpy as np

from repro.utils.serialization import load_npz_dict, load_npz_meta, save_npz_dict


def _normalize(path: str) -> str:
    parts = [p for p in str(path).split("/") if p]
    if not parts:
        raise ValueError("dataset/group path must be non-empty")
    return "/".join(parts)


class H5Store:
    """A hierarchical mapping of ``"group/subgroup/dataset"`` paths to arrays."""

    def __init__(self) -> None:
        self._datasets: dict[str, np.ndarray] = {}
        self._attrs: dict[str, dict[str, float | int | str]] = {}

    # -- write ----------------------------------------------------------- #
    def write(self, path: str, array) -> None:
        """Write (or overwrite) a dataset at ``path``."""
        path = _normalize(path)
        value = np.asarray(array)
        if value.dtype.kind in ("U", "S"):
            value = value.astype("U")
        self._datasets[path] = value

    def write_attr(self, path: str, key: str, value: float | int | str) -> None:
        """Attach a scalar attribute to a dataset or group path."""
        self._attrs.setdefault(_normalize(path), {})[str(key)] = value

    # -- read ------------------------------------------------------------ #
    def read(self, path: str) -> np.ndarray:
        path = _normalize(path)
        try:
            return self._datasets[path]
        except KeyError as exc:
            raise KeyError(f"no dataset at '{path}'") from exc

    def attrs(self, path: str) -> dict[str, float | int | str]:
        return dict(self._attrs.get(_normalize(path), {}))

    def __contains__(self, path: str) -> bool:
        return _normalize(path) in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    def keys(self) -> list[str]:
        """All dataset paths in sorted order."""
        return sorted(self._datasets)

    def groups(self, prefix: str = "") -> list[str]:
        """Immediate child group names under ``prefix``."""
        prefix_norm = _normalize(prefix) + "/" if prefix else ""
        children = set()
        for key in self._datasets:
            if not key.startswith(prefix_norm):
                continue
            remainder = key[len(prefix_norm):]
            if "/" in remainder:
                children.add(remainder.split("/")[0])
        return sorted(children)

    # -- persistence ------------------------------------------------------ #
    def save(self, path: str | os.PathLike) -> None:
        """Persist the store to a ``.npz`` container.

        String datasets (compound/target identifiers) are carried in the
        JSON metadata block; numeric datasets go into the npz payload.
        """
        meta: dict = {"attrs": self._attrs, "string_data": {}}
        data = {}
        for key, value in self._datasets.items():
            if value.dtype.kind == "U":
                meta["string_data"][key] = {"shape": list(value.shape), "values": value.ravel().tolist()}
            else:
                data[key] = value
        save_npz_dict(path, data, meta=meta)

    @classmethod
    def peek_attrs(cls, path: str | os.PathLike) -> dict[str, dict[str, float | int | str]]:
        """Attribute tables of a saved store without loading dataset payloads.

        Returns the same ``path -> attrs`` mapping :meth:`attrs` serves,
        but reads only the container's metadata member — string datasets
        and numeric payloads stay untouched on disk.
        """
        meta = load_npz_meta(path)
        return {key: dict(value) for key, value in meta.get("attrs", {}).items()}

    @classmethod
    def load(cls, path: str | os.PathLike) -> "H5Store":
        """Load a store previously written with :meth:`save`."""
        data, meta = load_npz_dict(path)
        store = cls()
        for key, value in data.items():
            store._datasets[key] = value
        for key, record in meta.get("string_data", {}).items():
            array = np.array(record["values"], dtype="U")
            store._datasets[key] = array.reshape([int(s) for s in record["shape"]])
        store._attrs = {k: dict(v) for k, v in meta.get("attrs", {}).items()}
        return store
