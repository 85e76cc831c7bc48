"""ConveyorLC: the four-stage parallel docking / rescoring pipeline.

ConveyorLC (Zhang et al.) is the physics-based screening tool chain the
paper relies on.  Its four programs are reproduced as four pipeline
stages operating on the synthetic chemistry substrate:

* ``CDT1Receptor`` — receptor (binding-site) preparation;
* ``CDT2Ligand``   — ligand preparation (wraps
  :class:`repro.chem.prep.LigandPrepPipeline`);
* ``CDT3Docking``  — Vina-style docking keeping up to 10 poses per
  compound and site;
* ``CDT4Mmgbsa``   — MM/GBSA rescoring of the best docking poses for a
  subset of compounds (MM/GBSA is orders of magnitude more expensive, so
  only a fraction is rescored, exactly as described in §3.1).

The :class:`DockingDatabase` output format (site / compound / pose keyed
records) is what the streamed screen's per-site Fusion results mirror
when writing their HDF5-like output, "for interpretation with existing tools".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.chem.molecule import Molecule
from repro.chem.prep import LigandPrepPipeline, PreparedLigand
from repro.chem.protein import BindingSite
from repro.docking.engine import check_search_parameters, dock_many
from repro.docking.mmgbsa import MMGBSARescorer
from repro.docking.vina import VinaScorer
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass
class ReceptorRecord:
    """A prepared receptor: the binding site plus its docking box."""

    site: BindingSite
    box_center: np.ndarray
    box_size: float

    @property
    def name(self) -> str:
        return self.site.name


@dataclass
class DockingRecord:
    """One docked pose of one compound in one binding site."""

    site_name: str
    compound_id: str
    pose_id: int
    vina_score: float
    pose: Molecule
    mmgbsa_score: float = float("nan")
    fusion_pk: float = float("nan")
    rmsd_to_reference: float = float("nan")
    metadata: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.site_name, self.compound_id, self.pose_id)


class DockingDatabase:
    """In-memory store of docking records, keyed by site and compound."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str, int], DockingRecord] = {}

    # -- mutation ------------------------------------------------------- #
    def add(self, record: DockingRecord) -> None:
        self._records[record.key] = record

    def extend(self, records: Iterable[DockingRecord]) -> None:
        for record in records:
            self.add(record)

    # -- queries -------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())

    def records(self) -> list[DockingRecord]:
        return list(self._records.values())

    def sites(self) -> list[str]:
        return sorted({k[0] for k in self._records})

    def compounds(self, site_name: str | None = None) -> list[str]:
        return sorted(
            {k[1] for k in self._records if site_name is None or k[0] == site_name}
        )

    def poses(self, site_name: str, compound_id: str) -> list[DockingRecord]:
        out = [
            r
            for (s, c, _p), r in self._records.items()
            if s == site_name and c == compound_id
        ]
        return sorted(out, key=lambda r: r.pose_id)

    def best_pose(self, site_name: str, compound_id: str, by: str = "vina") -> DockingRecord | None:
        """Best pose of a compound under the requested score.

        ``by`` is one of ``"vina"``, ``"mmgbsa"`` (both minimized) or
        ``"fusion"`` (maximized pK), matching the per-compound aggregation
        of §5.2.
        """
        poses = self.poses(site_name, compound_id)
        if not poses:
            return None
        if by == "vina":
            return min(poses, key=lambda r: r.vina_score)
        if by == "mmgbsa":
            scored = [r for r in poses if np.isfinite(r.mmgbsa_score)]
            return min(scored, key=lambda r: r.mmgbsa_score) if scored else None
        if by == "fusion":
            scored = [r for r in poses if np.isfinite(r.fusion_pk)]
            return max(scored, key=lambda r: r.fusion_pk) if scored else None
        raise ValueError(f"unknown score '{by}'")


# --------------------------------------------------------------------------- #
# Pipeline stages
# --------------------------------------------------------------------------- #
class CDT1Receptor:
    """Stage 1: receptor preparation (docking box definition, sanity checks)."""

    def run(self, sites: Sequence[BindingSite]) -> dict[str, ReceptorRecord]:
        receptors: dict[str, ReceptorRecord] = {}
        for site in sites:
            if site.num_atoms == 0:
                raise ValueError(f"binding site '{site.name}' has no pocket atoms")
            coords = site.coordinates()
            box_size = float(2.0 * (np.linalg.norm(coords, axis=1).max() + 2.0))
            receptors[site.name] = ReceptorRecord(site=site, box_center=site.center, box_size=box_size)
        return receptors


class CDT2Ligand:
    """Stage 2: ligand preparation."""

    def __init__(self, prep: LigandPrepPipeline | None = None) -> None:
        self.prep = prep or LigandPrepPipeline()

    def run(self, molecules: Sequence[Molecule], library: str = "") -> list[PreparedLigand]:
        return self.prep.process_many(molecules, library=library)


class CDT3Docking:
    """Stage 3: Vina-style docking producing up to ``num_poses`` poses per pair.

    Each site's compounds dock through :func:`repro.docking.engine.dock_many`.
    """

    def __init__(
        self,
        scorer: VinaScorer | None = None,
        num_poses: int = 10,
        monte_carlo_steps: int = 40,
        restarts: int = 3,
        seed: int = 0,
    ) -> None:
        check_search_parameters(num_poses, monte_carlo_steps, restarts)
        self.scorer = scorer or VinaScorer()
        self.num_poses = int(num_poses)
        self.monte_carlo_steps = int(monte_carlo_steps)
        self.restarts = int(restarts)
        self.seed = int(seed)

    def run(
        self,
        receptors: dict[str, ReceptorRecord],
        ligands: Sequence[PreparedLigand],
        references: dict[tuple[str, str], Molecule] | None = None,
    ) -> DockingDatabase:
        """Dock every prepared ligand into every receptor."""
        database = DockingDatabase()
        references = references or {}
        for site_name, receptor in sorted(receptors.items()):
            pairs = [(ligand.compound_id, ligand.molecule) for ligand in ligands]
            site_references = {
                compound_id: references[(site_name, compound_id)]
                for compound_id, _ in pairs
                if (site_name, compound_id) in references
            }
            results = dock_many(
                receptor.site,
                pairs,
                scorer=self.scorer,
                seed=self.seed,
                num_poses=self.num_poses,
                monte_carlo_steps=self.monte_carlo_steps,
                restarts=self.restarts,
                site_name=site_name,
                references=site_references,
            )
            for compound_id, poses in results.items():
                for pose in poses:
                    database.add(
                        DockingRecord(
                            site_name=site_name,
                            compound_id=compound_id,
                            pose_id=pose.pose_id,
                            vina_score=pose.score,
                            pose=pose.complex.ligand,
                            rmsd_to_reference=pose.rmsd_to_reference,
                        )
                    )
        return database


class CDT4Mmgbsa:
    """Stage 4: MM/GBSA rescoring of the best docking poses.

    Only ``subset_fraction`` of the compounds are rescored (MM/GBSA is
    ~150x slower than docking), and at most ``max_poses`` poses per
    compound, mirroring ConveyorLC's down-selection behaviour.
    """

    def __init__(
        self,
        rescorer: MMGBSARescorer | None = None,
        max_poses: int = 10,
        subset_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < subset_fraction <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        self.rescorer = rescorer or MMGBSARescorer()
        self.max_poses = int(max_poses)
        self.subset_fraction = float(subset_fraction)
        self.seed = int(seed)

    def run(self, database: DockingDatabase, sites: dict[str, BindingSite]) -> DockingDatabase:
        rng = ensure_rng(self.seed)
        for site_name in database.sites():
            compounds = database.compounds(site_name)
            if self.subset_fraction < 1.0:
                keep = max(1, int(round(self.subset_fraction * len(compounds))))
                compounds = list(rng.choice(compounds, size=keep, replace=False))
            site = sites[site_name]
            # one site-level batch through the shared kernel: the rescored
            # poses of every selected compound go end to end in one row
            records: list[DockingRecord] = []
            for compound_id in compounds:
                poses = database.poses(site_name, compound_id)
                records.extend(sorted(poses, key=lambda r: r.vina_score)[: self.max_poses])
            if not records:
                continue
            scores = self.rescorer.score_many([_record_to_complex(site, record) for record in records])
            for record, score in zip(records, scores):
                record.mmgbsa_score = float(score)
        return database


def _record_to_complex(site: BindingSite, record: DockingRecord):
    from repro.chem.complexes import ProteinLigandComplex

    return ProteinLigandComplex(
        site=site, ligand=record.pose, complex_id=record.compound_id, pose_id=record.pose_id
    )
