"""AMPL MM/GBSA surrogate model.

Because MM/GBSA is too expensive to run on every screened compound, the
paper uses the ATOM Modeling PipeLine (AMPL) surrogate: a machine-learned
model trained per target to predict MM/GBSA scores from molecular
descriptors.  The reproduction implements the surrogate as ridge
regression over the descriptor vector of :mod:`repro.chem.descriptors`,
fitted per target against the MM/GBSA rescorer on a training sample of
docked complexes.
"""

from __future__ import annotations

import numpy as np

from repro.chem.descriptors import descriptor_vector
from repro.chem.molecule import Molecule


class AMPLSurrogate:
    """Per-target ridge-regression surrogate of MM/GBSA scores."""

    def __init__(self, target: str = "", alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError("ridge regularization alpha must be positive")
        self.target = target
        self.alpha = float(alpha)
        self.coefficients: np.ndarray | None = None
        self.intercept: float = 0.0
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self.coefficients is not None

    def fit(self, ligands: list[Molecule], mmgbsa_scores: np.ndarray) -> "AMPLSurrogate":
        """Fit the surrogate on ligands and their (expensive) MM/GBSA scores."""
        if len(ligands) != len(mmgbsa_scores):
            raise ValueError("ligands and scores must have matching lengths")
        if len(ligands) < 3:
            raise ValueError("need at least 3 training examples to fit the surrogate")
        features = np.array([descriptor_vector(mol) for mol in ligands])
        targets = np.asarray(mmgbsa_scores, dtype=np.float64)
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-9
        normalized = (features - self._feature_mean) / self._feature_std
        n_features = normalized.shape[1]
        gram = normalized.T @ normalized + self.alpha * np.eye(n_features)
        self.coefficients = np.linalg.solve(gram, normalized.T @ (targets - targets.mean()))
        self.intercept = float(targets.mean())
        return self

    def predict(self, ligand: Molecule) -> float:
        """Predicted MM/GBSA score (kcal/mol) for one ligand."""
        return float(self.predict_many([ligand])[0])

    def predict_many(self, ligands: list[Molecule]) -> np.ndarray:
        """Predicted MM/GBSA scores for a list of ligands."""
        if not self.is_fitted:
            raise RuntimeError("AMPLSurrogate.predict called before fit")
        features = np.array([descriptor_vector(mol) for mol in ligands])
        normalized = (features - self._feature_mean) / self._feature_std
        return normalized @ self.coefficients + self.intercept
