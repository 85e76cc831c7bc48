"""Simplified molecular-mechanics force field.

Plays the role of the GAFF/ff14SB force fields used by the paper's AMBER
preparation and MM/GBSA rescoring stages.  Terms:

* harmonic bond stretch around a single reference length;
* Lennard-Jones 12-6 interactions between non-bonded atom pairs;
* Coulomb interactions between partial charges with a distance-dependent
  dielectric (a standard implicit-solvent shortcut).

Energies are in kcal/mol and forces in kcal/mol/Angstrom. The absolute
scale is not meant to be quantitative — only the relative ordering of
conformers and protein-ligand geometries matters for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.molecule import Molecule


@dataclass
class ForceFieldEnergy:
    """Decomposed force-field energy (kcal/mol)."""

    bond: float
    vdw: float
    electrostatic: float

    @property
    def total(self) -> float:
        return float(self.bond + self.vdw + self.electrostatic)


@dataclass(frozen=True)
class ForceFieldTopology:
    """Coordinate-independent arrays of one molecule, derived once.

    A conformer's energy depends on its coordinates only through these
    index and parameter arrays, so a minimisation builds them once and
    evaluates :meth:`ForceField.evaluate` on ``(n, 3)`` coordinate arrays.

    Attributes
    ----------
    bond_i / bond_j:
        Atom indices of each bond, in bond-list order.
    pair_i / pair_j:
        Non-bonded atom pairs ``i < j`` in row-major upper-triangle order.
    sigma / qq:
        Per-pair Lennard-Jones sigma and partial-charge product.
    scatter_index:
        Flat ``atom * 3 + axis`` targets of the force scatter, atoms in the
        order ``[i0, j0, i1, j1, ..., pair_i..., pair_j...]``.
    """

    num_atoms: int
    bond_i: np.ndarray
    bond_j: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    sigma: np.ndarray
    qq: np.ndarray
    scatter_index: np.ndarray

    @classmethod
    def from_molecule(cls, molecule: Molecule) -> "ForceFieldTopology":
        n = molecule.num_atoms
        bond_i = np.array([b.i for b in molecule.bonds], dtype=np.intp)
        bond_j = np.array([b.j for b in molecule.bonds], dtype=np.intp)
        bonded = np.zeros((n, n), dtype=bool)
        bonded[np.minimum(bond_i, bond_j), np.maximum(bond_i, bond_j)] = True
        pair_i, pair_j = np.triu_indices(n, k=1)
        nonbonded = ~bonded[pair_i, pair_j]
        pair_i, pair_j = pair_i[nonbonded], pair_j[nonbonded]
        radii = np.array([a.vdw_radius for a in molecule.atoms])
        charges = np.array([a.partial_charge for a in molecule.atoms])
        scatter_atoms = np.concatenate([np.column_stack([bond_i, bond_j]).reshape(-1), pair_i, pair_j])
        return cls(
            num_atoms=n,
            bond_i=bond_i,
            bond_j=bond_j,
            pair_i=pair_i,
            pair_j=pair_j,
            sigma=0.9 * (radii[pair_i] + radii[pair_j]) / 2.0,
            qq=charges[pair_i] * charges[pair_j],
            scatter_index=(3 * scatter_atoms[:, None] + np.arange(3)).reshape(-1),
        )


class ForceField:
    """Minimal intramolecular force field with analytic forces.

    :meth:`evaluate` is the kernel; every floating-point reduction in it
    keeps the order of the per-bond loop it replaced, so results are
    bit-identical to that loop (see ``docs/chem.md``).
    """

    def __init__(
        self,
        bond_k: float = 100.0,
        bond_r0: float = 1.5,
        lj_epsilon: float = 0.15,
        coulomb_constant: float = 332.06,
        dielectric: float = 8.0,
    ) -> None:
        self.bond_k = float(bond_k)
        self.bond_r0 = float(bond_r0)
        self.lj_epsilon = float(lj_epsilon)
        self.coulomb_constant = float(coulomb_constant)
        self.dielectric = float(dielectric)

    # ------------------------------------------------------------------ #
    def evaluate(
        self, topology: ForceFieldTopology, coords: np.ndarray, want_forces: bool = True
    ) -> tuple[ForceFieldEnergy, np.ndarray | None]:
        """Energy and (optionally) forces of ``(n, 3)`` coordinates ``coords``."""
        coords = np.asarray(coords, dtype=np.float64).reshape(topology.num_atoms, 3)
        delta = coords[topology.bond_i] - coords[topology.bond_j]
        # a row-wise dot (not norm(axis=-1)) reproduces np.linalg.norm of each vector
        r = np.sqrt((delta[:, None, :] @ delta[:, :, None]).reshape(-1)) + 1e-12
        diff = r - self.bond_r0
        bond_terms = self.bond_k * diff**2
        # cumsum adds left to right like the sequential loop; .sum() is pairwise
        bond_energy = float(np.cumsum(bond_terms)[-1]) if bond_terms.size else 0.0

        vdw_energy = 0.0
        elec_energy = 0.0
        pair_force = np.zeros((0, 3))
        if topology.pair_i.size:
            pair_delta = coords[topology.pair_i] - coords[topology.pair_j]
            # the same reduction as np.linalg.norm(pair_delta, axis=-1)
            r_pair = np.maximum(np.sqrt((pair_delta * pair_delta).sum(axis=-1)), 0.4)
            sr6 = (topology.sigma / r_pair) ** 6
            pair_vdw = 4.0 * self.lj_epsilon * (sr6**2 - sr6)
            vdw_energy = float(pair_vdw.sum())
            pair_elec = self.coulomb_constant * topology.qq / (self.dielectric * r_pair**2)
            elec_energy = float(pair_elec.sum())
            if want_forces:
                # dE/dr for both terms
                dvdw = 4.0 * self.lj_epsilon * (-12.0 * sr6**2 + 6.0 * sr6) / r_pair
                delec = -2.0 * self.coulomb_constant * topology.qq / (self.dielectric * r_pair**3)
                dtotal = dvdw + delec
                pair_force = -dtotal[:, None] * (pair_delta / r_pair[:, None])
        energy = ForceFieldEnergy(bond=bond_energy, vdw=vdw_energy, electrostatic=elec_energy)
        if not want_forces:
            return energy, None

        bond_force = (-2.0 * self.bond_k * diff)[:, None] * delta / r[:, None]
        # One ordered scatter (bond i, bond j, ..., then pair i's, pair j's):
        # bincount adds each bin's values in input order starting from zero,
        # which is the accumulation order of the loop it replaced.
        num_bonds, num_pairs = len(bond_force), len(pair_force)
        values = np.empty((2 * num_bonds + 2 * num_pairs, 3))
        values[0 : 2 * num_bonds : 2] = bond_force
        values[1 : 2 * num_bonds : 2] = -bond_force
        values[2 * num_bonds : 2 * num_bonds + num_pairs] = pair_force
        values[2 * num_bonds + num_pairs :] = -pair_force
        forces = np.bincount(topology.scatter_index, weights=values.reshape(-1), minlength=3 * topology.num_atoms)
        return energy, forces.reshape(topology.num_atoms, 3)
