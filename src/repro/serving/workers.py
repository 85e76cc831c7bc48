"""The ``ScoringBackend`` protocol and its ``repro.nn`` module adapter.

:class:`~repro.serving.service.ScoringService` scores batches on
``num_replicas`` threads, mirroring the paper's per-GPU model instances
at in-process scale.  Every replica thread calls the same backend
(safe: eval-mode forward passes are read-only and gradient recording is
per-thread).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.nn.module import Module
from repro.serving.requests import model_fingerprint


class ScoringBackend(Protocol):
    """Anything that can score a collated batch into per-sample pK values."""

    name: str

    def fingerprint(self) -> str:
        """Content fingerprint of the backend's model identity."""
        ...

    def score_batch(self, batch: dict) -> np.ndarray:
        """Score one collated batch; returns a ``(N,)`` float array."""
        ...


class ModuleBackend:
    """Wrap a model of the zoo (heads or fusion); scores through its ``predict_batch``."""

    def __init__(self, model: Module, name: str = "") -> None:
        self.model = model
        self.model.eval()
        self.name = name or type(model).__name__
        self._fingerprint: str | None = None

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = model_fingerprint(self.model)
        return self._fingerprint

    def score_batch(self, batch: dict) -> np.ndarray:
        return self.model.predict_batch(batch)
