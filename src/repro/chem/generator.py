"""Random drug-like molecule generation.

Compound libraries in the paper hold hundreds of millions of real
molecules; the reproduction synthesizes molecules with drug-like size,
composition and topology distributions so that every downstream stage
(preparation, docking, featurization, scoring, assay simulation) operates
on realistic inputs. Each library profile (ZINC world-approved, ChEMBL,
eMolecules, Enamine) tweaks the distributions slightly so library-level
statistics differ, mirroring §4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.atom import Atom
from repro.chem.conformer import embed_3d
from repro.chem.elements import ORGANIC_SUBSET, SALT_IONS, get_element
from repro.chem.molecule import Bond, Molecule
from repro.utils.rng import ensure_rng


@dataclass
class GeneratorProfile:
    """Distribution parameters for a compound-library generator.

    Attributes
    ----------
    heavy_atoms_mean / heavy_atoms_sd:
        Log-normal-ish distribution of heavy atom counts.
    heavy_atoms_min / heavy_atoms_max:
        Hard clamps on molecule size.
    ring_closure_rate:
        Expected number of ring-closing bonds per molecule.
    double_bond_fraction:
        Fraction of eligible bonds promoted to double bonds.
    element_frequencies:
        Sampling frequencies of heavy elements.
    salt_probability:
        Probability a generated record carries a counter-ion fragment
        (which the preparation pipeline must strip).
    metal_probability:
        Probability of generating a metal-containing ligand (which the
        preparation pipeline must reject).
    """

    heavy_atoms_mean: float = 24.0
    heavy_atoms_sd: float = 6.0
    heavy_atoms_min: int = 8
    heavy_atoms_max: int = 60
    ring_closure_rate: float = 2.2
    double_bond_fraction: float = 0.18
    element_frequencies: dict[str, float] = field(default_factory=lambda: dict(ORGANIC_SUBSET))
    salt_probability: float = 0.0
    metal_probability: float = 0.0


class MoleculeGenerator:
    """Generates random drug-like molecules with 3-D conformers.

    Parameters
    ----------
    profile:
        Library profile controlling size/composition distributions.
    seed:
        Seed (or generator) for reproducibility.
    embed:
        Whether to produce 3-D coordinates (disable for speed when only
        the 2-D topology is needed, e.g. descriptor-only workloads).
    """

    def __init__(self, profile: GeneratorProfile | None = None, seed=None, embed: bool = True) -> None:
        self.profile = profile or GeneratorProfile()
        self._rng = ensure_rng(seed)
        self.embed = bool(embed)

    # ------------------------------------------------------------------ #
    def generate(self, name: str = "") -> Molecule:
        """Generate a single molecule."""
        rng = self._rng
        profile = self.profile
        n_atoms = int(np.clip(round(rng.normal(profile.heavy_atoms_mean, profile.heavy_atoms_sd)),
                              profile.heavy_atoms_min, profile.heavy_atoms_max))
        elements = self._sample_elements(n_atoms, rng)
        atoms = [Atom(element=e, position=np.zeros(3)) for e in elements]
        molecule = Molecule(atoms, [], name=name)
        self._build_tree(molecule, rng)
        self._add_rings(molecule, rng)
        self._assign_bond_orders(molecule, rng)

        if rng.random() < profile.metal_probability:
            self._attach_metal(molecule, rng)
        if rng.random() < profile.salt_probability:
            molecule = self._add_salt(molecule, rng)

        if self.embed:
            molecule = embed_3d(molecule, rng)
        molecule.assign_partial_charges()
        molecule.assign_pharmacophores()
        return molecule

    def generate_many(self, count: int, prefix: str = "mol") -> list[Molecule]:
        """Generate ``count`` molecules named ``{prefix}-{index}``."""
        return [self.generate(name=f"{prefix}-{i}") for i in range(int(count))]

    # ------------------------------------------------------------------ #
    def _sample_elements(self, n_atoms: int, rng: np.random.Generator) -> list[str]:
        symbols = list(self.profile.element_frequencies)
        weights = np.array([self.profile.element_frequencies[s] for s in symbols], dtype=float)
        weights /= weights.sum()
        elements = list(rng.choice(symbols, size=n_atoms, p=weights))
        # guarantee a predominantly-carbon scaffold so that valences work out
        n_carbon_needed = max(0, int(0.5 * n_atoms) - elements.count("C"))
        replaceable = [i for i, e in enumerate(elements) if e != "C"]
        rng.shuffle(replaceable)
        for index in replaceable[:n_carbon_needed]:
            elements[index] = "C"
        return elements

    def _build_tree(self, molecule: Molecule, rng: np.random.Generator) -> None:
        """Connect atoms into a random spanning tree respecting valences."""
        max_valence = [get_element(atom.element).max_valence for atom in molecule.atoms]
        order = list(rng.permutation(molecule.num_atoms))
        # sort so high-valence atoms appear early and can host branches
        order.sort(key=lambda i: -max_valence[i])
        connected = [order[0]]
        for atom_index in order[1:]:
            candidates = [c for c in connected if molecule.degree(c) < max_valence[c]]
            if not candidates:
                candidates = connected  # fall back: exceed valence rather than disconnect
            weights = np.array([1.0 / (1 + molecule.degree(c)) for c in candidates])
            weights /= weights.sum()
            parent = candidates[int(rng.choice(len(candidates), p=weights))]
            molecule.add_bond(parent, atom_index, 1)
            connected.append(atom_index)

    def _add_rings(self, molecule: Molecule, rng: np.random.Generator) -> None:
        n_rings = rng.poisson(self.profile.ring_closure_rate)
        attempts = 0
        added = 0
        while added < n_rings and attempts < 50:
            attempts += 1
            i, j = rng.integers(0, molecule.num_atoms, size=2)
            if i == j:
                continue
            i, j = int(i), int(j)
            path_length = molecule.path_length(i, j)
            if path_length is None or not 4 <= path_length <= 6:  # favour 5- and 6-membered rings
                continue
            max_i = get_element(molecule.atoms[i].element).max_valence
            max_j = get_element(molecule.atoms[j].element).max_valence
            if molecule.degree(i) >= max_i or molecule.degree(j) >= max_j:
                continue
            try:
                molecule.add_bond(i, j, 1)
                added += 1
            except ValueError:
                continue

    def _assign_bond_orders(self, molecule: Molecule, rng: np.random.Generator) -> None:
        upgraded: list[Bond] = []
        used_atoms: set[int] = set()
        for bond in molecule.bonds:
            can_upgrade = (
                bond.i not in used_atoms
                and bond.j not in used_atoms
                and molecule.degree(bond.i) < get_element(molecule.atoms[bond.i].element).max_valence
                and molecule.degree(bond.j) < get_element(molecule.atoms[bond.j].element).max_valence
                and rng.random() < self.profile.double_bond_fraction
            )
            if can_upgrade:
                upgraded.append(Bond(bond.i, bond.j, 2))
                used_atoms.update((bond.i, bond.j))
            else:
                upgraded.append(bond)
        molecule.bonds = upgraded

    def _attach_metal(self, molecule: Molecule, rng: np.random.Generator) -> None:
        metal = str(rng.choice(["Zn", "Fe", "Mg"]))
        atom = Atom(element=metal, position=np.zeros(3), formal_charge=2)
        molecule.atoms.append(atom)
        atom.index = molecule.num_atoms - 1
        hetero = [a.index for a in molecule.atoms[:-1] if a.element in ("N", "O", "S")]
        anchor = int(rng.choice(hetero)) if hetero else 0
        molecule.add_bond(anchor, atom.index, 1)

    def _add_salt(self, molecule: Molecule, rng: np.random.Generator) -> Molecule:
        ion_symbol = str(rng.choice(list(SALT_IONS)))
        charge = -1 if ion_symbol == "Cl" else 1
        ion = Atom(element=ion_symbol, position=np.zeros(3), formal_charge=charge)
        atoms = [a.copy() for a in molecule.atoms] + [ion]
        return Molecule(atoms, molecule.bonds, name=molecule.name)
