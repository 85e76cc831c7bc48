"""AutoDock-Vina-style empirical scoring function.

The real Vina scoring function is a weighted sum of two steric gaussians,
a repulsion term, hydrophobic and hydrogen-bond terms over atom pairs,
divided by a rotatable-bond entropy factor (Trott & Olson 2010).  This
reproduction computes the same functional form over the synthetic
complexes.  Because the weights differ from the latent interaction model
(no electrostatics, different saturation, a known size bias) and a small
deterministic per-complex error is added, Vina predictions correlate with
— but deviate from — ground truth, matching the ~0.58 Pearson correlation
the paper measures on docked PDBbind core poses.
"""

from __future__ import annotations

from repro.chem.complexes import InteractionModel
from repro.docking.scoring import KernelScoringMixin

#: Throughput reference from §4.1: one Lassen node (40 cores, 4 hardware
#: threads each, 8 MC runs per compound) docks about 10 poses per second.
VINA_POSES_PER_SECOND_PER_NODE = 10.0
#: About one minute per compound per CPU core.
VINA_SECONDS_PER_COMPOUND_PER_CORE = 60.0


class VinaScorer(KernelScoringMixin):
    """Empirical docking score (kcal/mol; more negative is better).

    Parameters
    ----------
    noise_scale:
        Magnitude of the deterministic per-complex scoring error (pK
        units after conversion), representing scoring-function error
        rather than stochastic noise — the same complex always receives
        the same score.
    size_bias:
        Strength of the well-known Vina bias towards larger ligands.
    seed:
        Seed mixed into the deterministic error term.
    """

    name = "vina"
    error_label = "vina-error"

    def __init__(self, noise_scale: float = 1.35, size_bias: float = 0.035, seed: int = 7) -> None:
        self.noise_scale = float(noise_scale)
        self.size_bias = float(size_bias)
        self.seed = int(seed)
        self._interactions = InteractionModel()
        self._error_cache: dict[tuple[str, int], float] = {}
        # Vina-like term weights (relative magnitudes follow the published
        # scoring function; absolute scale tuned to land in kcal/mol range).
        self.w_gauss = -0.045
        self.w_repulsion = 0.85
        self.w_hydrophobic = -0.045
        self.w_hbond = -0.90
        self.w_rotor = 0.12

    # ------------------------------------------------------------------ #
    def _weighted_terms(self, terms):
        """Vina weighting of (scalar or batched) interaction terms."""
        raw = (
            self.w_gauss * terms.shape * 2.2
            + self.w_repulsion * terms.repulsion * 0.35
            + self.w_hydrophobic * terms.hydrophobic * 2.0
            + self.w_hbond * terms.hbond
        )
        # rotatable-bond entropy denominator, as in Vina
        raw = raw / (1.0 + self.w_rotor * terms.rotatable_bonds)
        # size bias: larger ligands receive systematically better scores
        return raw - self.size_bias * terms.ligand_heavy_atoms
