"""MM/GBSA-style re-scoring.

Molecular Mechanics / Generalized Born Surface Area rescoring combines a
force-field interaction energy with an implicit-solvent desolvation
correction. It is orders of magnitude more expensive than docking (about
10 minutes per pose per CPU core in the paper, ~0.067 poses/s/node) and
is therefore applied only to the best docking poses.  Its accuracy on the
paper's docked core set (Pearson ≈ 0.59) is only marginally better than
Vina's; the reproduction models this by using term weights closer to the
latent interaction model but retaining a significant systematic error.
"""

from __future__ import annotations

from repro.chem.complexes import InteractionModel
from repro.docking.scoring import KernelScoringMixin

#: §4.1: a single-point MM/GBSA evaluation takes ~10 minutes per pose per core;
#: a Lassen node manages about 0.067 poses per second.
MMGBSA_POSES_PER_SECOND_PER_NODE = 0.067
MMGBSA_SECONDS_PER_POSE_PER_CORE = 600.0


class MMGBSARescorer(KernelScoringMixin):
    """MM/GBSA-like binding free-energy estimate (kcal/mol, negative = better)."""

    name = "mmgbsa"
    error_label = "mmgbsa-error"

    def __init__(self, noise_scale: float = 1.25, seed: int = 13) -> None:
        self.noise_scale = float(noise_scale)
        self.seed = int(seed)
        self._interactions = InteractionModel()
        self._error_cache: dict[tuple[str, int], float] = {}
        # MM term weights: include electrostatics (unlike Vina) and a
        # desolvation penalty proportional to buried polar contacts.
        self.w_vdw = -0.40
        self.w_elec = -0.90
        self.w_hbond = -1.10
        self.w_hydrophobic = -0.35
        self.w_repulsion = 1.20
        self.w_desolvation = 0.55

    # ------------------------------------------------------------------ #
    def _weighted_terms(self, terms):
        """MM/GBSA weighting of (scalar or batched) interaction terms."""
        desolvation = terms.hbond * 0.4 + (1.0 - terms.buried_fraction) * 2.0
        raw = (
            self.w_vdw * terms.shape
            + self.w_elec * terms.electrostatic
            + self.w_hbond * terms.hbond
            + self.w_hydrophobic * terms.hydrophobic
            + self.w_repulsion * terms.repulsion * 0.4
            + self.w_desolvation * desolvation
        )
        return raw / (1.0 + 0.02 * terms.ligand_heavy_atoms)
