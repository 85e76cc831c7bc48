"""Ligand preparation pipeline.

Mirrors the preparation chain of §4 of the paper: SMILES / SDF records
are imported, salts and metal-containing ligands are removed, protonation
states are set to the dominant form at pH 7, 3-D structures are generated
and energetically minimized, descriptors are calculated, and structures
are exported in the formats the docking stage consumes (SDF-like and
PDBQT-like text records standing in for the MOE → antechamber/GAFF →
Open Babel conversions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.chem.conformer import embed_3d, minimize_conformer
from repro.chem.descriptors import compute_descriptors
from repro.chem.forcefield import ForceField
from repro.chem.molecule import Bond, Molecule
from repro.chem.smiles import to_smiles
from repro.utils.rng import ensure_rng


@dataclass
class PreparedLigand:
    """Output record of the preparation pipeline for one compound."""

    molecule: Molecule
    smiles: str
    descriptors: dict[str, float]
    source_library: str = ""
    compound_id: str = ""
    net_charge: int = 0
    minimized_energy: float = 0.0
    notes: list[str] = field(default_factory=list)


@dataclass
class PrepStats:
    """Bookkeeping for a preparation run."""

    input_count: int = 0
    prepared: int = 0
    rejected_metal: int = 0
    salt_stripped: int = 0
    failed: int = 0


class LigandPrepPipeline:
    """Prepare raw molecules for docking and scoring.

    Parameters
    ----------
    minimize:
        Whether to run force-field minimization after 3-D embedding
        (disable for speed in very large screens; the docking stage
        re-optimizes poses anyway).
    seed:
        Seed for the conformer embedding.
    """

    def __init__(self, minimize: bool = True, seed: int | None = 0, forcefield: ForceField | None = None) -> None:
        self.minimize = bool(minimize)
        self._rng = ensure_rng(seed)
        self.forcefield = forcefield or ForceField()
        self.stats = PrepStats()

    # ------------------------------------------------------------------ #
    def process(self, molecule: Molecule, library: str = "", compound_id: str = "") -> PreparedLigand | None:
        """Prepare one molecule; returns ``None`` if the compound is rejected."""
        self.stats.input_count += 1
        notes: list[str] = []
        working = molecule.copy()

        working, stripped = self.strip_salts(working)
        if stripped:
            self.stats.salt_stripped += 1
            notes.append("salt stripped")
        if working is None or working.num_atoms == 0:
            self.stats.failed += 1
            return None
        if any(a.is_metal for a in working.atoms):
            self.stats.rejected_metal += 1
            return None

        working = self.protonate(working)
        if not np.any(np.abs(working.coordinates) > 1e-9):
            working = embed_3d(working, self._rng)
        energy = 0.0
        if self.minimize:
            working, energy = minimize_conformer(working, self.forcefield, max_steps=25)
        working.assign_partial_charges()
        working.assign_pharmacophores()
        descriptors = compute_descriptors(working)
        prepared = PreparedLigand(
            molecule=working,
            smiles=to_smiles(working),
            descriptors=descriptors,
            source_library=library,
            compound_id=compound_id or working.name,
            net_charge=working.net_charge(),
            minimized_energy=float(energy),
            notes=notes,
        )
        self.stats.prepared += 1
        return prepared

    def process_many(self, molecules: Iterable[Molecule], library: str = "") -> list[PreparedLigand]:
        """Prepare every molecule in ``molecules``, dropping rejected compounds."""
        out: list[PreparedLigand] = []
        for index, molecule in enumerate(molecules):
            prepared = self.process(molecule, library=library, compound_id=molecule.name or f"{library}-{index}")
            if prepared is not None:
                out.append(prepared)
        return out

    # ------------------------------------------------------------------ #
    @staticmethod
    def strip_salts(molecule: Molecule) -> tuple[Molecule | None, bool]:
        """Keep only the largest covalently-connected component.

        Counter-ions and solvent fragments appear as small disconnected
        components; the largest component is retained (standard desalting
        behaviour). Returns ``(molecule, stripped_flag)``.
        """
        components = molecule.connected_components()
        if len(components) <= 1:
            return molecule, False
        largest = max(components, key=len)
        keep = sorted(largest)
        index_map = {old: new for new, old in enumerate(keep)}
        atoms = [molecule.atoms[i].copy() for i in keep]
        bonds = [
            Bond(index_map[b.i], index_map[b.j], b.order)
            for b in molecule.bonds
            if b.i in index_map and b.j in index_map
        ]
        return Molecule(atoms, bonds, name=molecule.name), True

    @staticmethod
    def protonate(molecule: Molecule, ph: float = 7.0) -> Molecule:
        """Assign formal charges for the dominant protonation state at ``ph``.

        Simplified rules: aliphatic amines (N bonded only to carbons, with
        spare valence) are protonated (+1); carboxylate-like oxygens
        (terminal O on a carbon that carries another oxygen) are
        deprotonated (-1). These rules produce the charge diversity the
        electrostatic interaction terms need.
        """
        out = molecule.copy()
        for atom in out.atoms:
            atom.formal_charge = 0
        multiply_bonded = {index for b in out.bonds if b.order > 1 for index in (b.i, b.j)}
        for atom in out.atoms:
            if atom.element == "N":
                neighbours = [out.atoms[i] for i in out.neighbors(atom.index)]
                if neighbours and all(n.element == "C" for n in neighbours) and len(neighbours) <= 3:
                    has_double = atom.index in multiply_bonded
                    if not has_double and ph <= 9.0:
                        atom.formal_charge = 1
            elif atom.element == "O" and out.degree(atom.index) == 1:
                carbon_index = out.neighbors(atom.index)[0]
                carbon = out.atoms[carbon_index]
                if carbon.element == "C":
                    sibling_oxygens = [
                        out.atoms[i]
                        for i in out.neighbors(carbon_index)
                        if i != atom.index and out.atoms[i].element == "O"
                    ]
                    if sibling_oxygens and ph >= 5.0:
                        atom.formal_charge = -1
        out.assign_partial_charges()
        return out

    # ------------------------------------------------------------------ #
    @staticmethod
    def to_sdf_text(ligand: PreparedLigand) -> str:
        """Minimal SDF-like text record (V2000 flavour) for a prepared ligand."""
        mol = ligand.molecule
        lines = [ligand.compound_id or mol.name, "  repro-prep", "", f"{mol.num_atoms:3d}{mol.num_bonds:3d}  0  0  0  0  0  0  0  0999 V2000"]
        for atom in mol.atoms:
            x, y, z = atom.position
            lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {atom.element:<3s} 0  0  0  0  0  0  0  0  0  0  0  0")
        for bond in mol.bonds:
            lines.append(f"{bond.i + 1:3d}{bond.j + 1:3d}{bond.order:3d}  0  0  0  0")
        lines.append("M  END")
        lines.append("$$$$")
        return "\n".join(lines)

    @staticmethod
    def to_pdbqt_text(ligand: PreparedLigand) -> str:
        """Minimal PDBQT-like text record (atoms + partial charges) for docking."""
        mol = ligand.molecule
        lines = [f"REMARK  Name = {ligand.compound_id or mol.name}"]
        for atom in mol.atoms:
            x, y, z = atom.position
            lines.append(
                f"ATOM  {atom.index + 1:5d}  {atom.element:<3s}LIG A   1    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00    {atom.partial_charge:7.3f} {atom.element}"
            )
        lines.append("TORSDOF %d" % mol.rotatable_bonds())
        return "\n".join(lines)
