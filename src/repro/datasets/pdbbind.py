"""Synthetic PDBbind-2019-like structure-affinity dataset.

The real PDBbind-2019 provides ~17k crystal structures with measured
binding affinities, stratified into ``general``, ``refined`` and ``core``
subsets.  The synthetic analogue reproduces the structure of the dataset
and the properties the evaluation depends on:

* every entry is a crystal-pose complex whose *latent* affinity comes from
  the interaction model and whose *experimental label* adds measurement
  noise (larger for ``general``, which includes IC50-only data, than for
  ``refined``);
* ``refined`` applies the paper's filters: ligand MW <= 1000 Da, Ki/Kd
  measurement available, crystal resolution < 2.5 A;
* ``core`` entries are drawn from protein (pocket) families never used by
  the general/refined strata, reproducing the sequence-clustering
  hold-out that makes the core set a meaningful generalization test;
* the training/validation split uses quintile sub-sampling with 10 % per
  stratum withdrawn, as in §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.prep import LigandPrepPipeline
from repro.chem.protein import BindingSite, PocketFamily, generate_binding_site
from repro.datasets.splits import quintile_split
from repro.docking.engine import PoseGenerator
from repro.docking.poses import MaximizePkScorer
from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import FeaturizedComplex
from repro.utils.rng import derive_seed, ensure_rng


@dataclass
class PDBbindEntry:
    """One synthetic PDBbind entry (a crystal-pose complex with a label)."""

    entry_id: str
    complex: ProteinLigandComplex
    true_pk: float
    experimental_pk: float
    subset: str
    measurement: str
    resolution: float
    family_id: int
    ligand_mw: float

    @property
    def site(self) -> BindingSite:
        return self.complex.site


@dataclass
class PDBbindConfig:
    """Size and noise parameters of the synthetic dataset.

    Defaults are scaled down by roughly 50x relative to the real
    PDBbind-2019 counts (15,631 train / 1,731 validation / 290 core) so
    that NumPy training remains tractable; the proportions are preserved.
    """

    n_general: int = 220
    n_refined: int = 110
    n_core: int = 30
    n_families: int = 24
    n_core_families: int = 6
    label_noise_general: float = 0.85
    label_noise_refined: float = 0.40
    label_noise_core: float = 0.35
    refined_mw_limit: float = 1000.0
    refined_resolution_limit: float = 2.5
    pose_search_steps: int = 30
    pose_search_restarts: int = 2
    seed: int = 2019
    ligand_profile: GeneratorProfile = field(default_factory=GeneratorProfile)


class PDBbindDataset:
    """Container for the generated entries with split / featurization helpers."""

    def __init__(self, entries: list[PDBbindEntry], config: PDBbindConfig) -> None:
        self.entries = list(entries)
        self.config = config

    # -- subsets -------------------------------------------------------- #
    @property
    def general(self) -> list[PDBbindEntry]:
        return [e for e in self.entries if e.subset == "general"]

    @property
    def refined(self) -> list[PDBbindEntry]:
        return [e for e in self.entries if e.subset == "refined"]

    @property
    def core(self) -> list[PDBbindEntry]:
        return [e for e in self.entries if e.subset == "core"]

    def __len__(self) -> int:
        return len(self.entries)

    # -- splits --------------------------------------------------------- #
    def train_val_split(self, val_fraction: float = 0.10, rng=None) -> tuple[list[PDBbindEntry], list[PDBbindEntry]]:
        """Quintile sub-sampling split of general+refined, done per stratum as in the paper."""
        rng = ensure_rng(rng if rng is not None else self.config.seed)
        train: list[PDBbindEntry] = []
        val: list[PDBbindEntry] = []
        for stratum in (self.general, self.refined):
            if not stratum:
                continue
            labels = np.array([e.experimental_pk for e in stratum])
            train_idx, val_idx = quintile_split(labels, val_fraction=val_fraction, rng=rng)
            train.extend(stratum[i] for i in train_idx)
            val.extend(stratum[i] for i in val_idx)
        return train, val

    # -- featurization --------------------------------------------------- #
    @staticmethod
    def featurize_entries(
        entries: list[PDBbindEntry],
        featurizer: FeaturePipeline,
        training: bool = False,
    ) -> list[FeaturizedComplex]:
        """Featurize entries into model-ready samples labelled with experimental pK."""
        return [
            featurizer.featurize(entry.complex, target=entry.experimental_pk, training=training)
            for entry in entries
        ]


# --------------------------------------------------------------------------- #
# Generation
# --------------------------------------------------------------------------- #
_MEASUREMENTS_REFINED = ("Ki", "Kd")
_MEASUREMENTS_GENERAL = ("Ki", "Kd", "IC50")


def generate_pdbbind(
    config: PDBbindConfig | None = None,
    interaction_model: InteractionModel | None = None,
) -> PDBbindDataset:
    """Generate the synthetic PDBbind dataset described by ``config``."""
    config = config or PDBbindConfig()
    interaction_model = interaction_model or InteractionModel()
    rng = ensure_rng(config.seed)

    families = [PocketFamily.random(family_id=i, rng=rng) for i in range(config.n_families)]
    if config.n_core_families >= config.n_families:
        raise ValueError("n_core_families must be smaller than n_families")
    core_families = families[: config.n_core_families]
    train_families = families[config.n_core_families:]

    generator = MoleculeGenerator(config.ligand_profile, seed=derive_seed(config.seed, "ligands"))
    prep = LigandPrepPipeline(minimize=False, seed=derive_seed(config.seed, "prep"))
    scorer = MaximizePkScorer(interaction_model)

    entries: list[PDBbindEntry] = []
    specs = (
        [("general", train_families, config.label_noise_general, _MEASUREMENTS_GENERAL)] * config.n_general
        + [("refined", train_families, config.label_noise_refined, _MEASUREMENTS_REFINED)] * config.n_refined
        + [("core", core_families, config.label_noise_core, _MEASUREMENTS_REFINED)] * config.n_core
    )
    for index, (subset, family_pool, noise, measurements) in enumerate(specs):
        entry_rng = ensure_rng(derive_seed(config.seed, "entry", index))
        family = family_pool[int(entry_rng.integers(0, len(family_pool)))]
        site = generate_binding_site(
            family, rng=entry_rng, name=f"fam{family.family_id}-site{index}", target=f"family-{family.family_id}"
        )
        ligand = None
        while ligand is None:
            candidate = generator.generate(name=f"pdb{index:05d}")
            prepared = prep.process(candidate, library="pdbbind", compound_id=f"pdb{index:05d}")
            if prepared is None:
                continue
            mw = prepared.descriptors["molecular_weight"]
            if subset in ("refined", "core") and mw > config.refined_mw_limit:
                continue
            ligand = prepared.molecule

        pose_generator = PoseGenerator(
            scorer,
            num_poses=1,
            monte_carlo_steps=config.pose_search_steps,
            restarts=config.pose_search_restarts,
            seed=derive_seed(config.seed, "crystal-pose", index),
        )
        poses = pose_generator.dock(site, ligand, complex_id=f"pdb{index:05d}")
        crystal = poses[0].complex
        true_pk = interaction_model.true_pk(crystal)
        experimental_pk = float(np.clip(true_pk + entry_rng.normal(scale=noise), 0.0, 14.0))

        if subset in ("refined", "core"):
            resolution = float(entry_rng.uniform(1.2, config.refined_resolution_limit - 0.05))
        else:
            resolution = float(entry_rng.uniform(1.5, 3.6))
        measurement = str(entry_rng.choice(measurements))

        entries.append(
            PDBbindEntry(
                entry_id=f"pdb{index:05d}",
                complex=crystal,
                true_pk=float(true_pk),
                experimental_pk=experimental_pk,
                subset=subset,
                measurement=measurement,
                resolution=resolution,
                family_id=family.family_id,
                ligand_mw=float(ligand.molecular_weight()),
            )
        )
    return PDBbindDataset(entries, config)
