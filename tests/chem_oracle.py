"""Scalar reference implementations of the array-native chemistry kernels.

These are the per-bond / per-candidate / per-atom loops that
``repro.chem`` ran before it derived each molecule's topology once. They
are kept here only as test oracles: the production kernels must match
them bit for bit (``np.array_equal``), including the RNG state they leave
behind.  The SMILES parser at the end is the round-trip oracle for
:func:`repro.chem.smiles.to_smiles`.
"""

from __future__ import annotations

import re

import networkx as nx
import numpy as np

from repro.chem.atom import Atom
from repro.chem.conformer import BOND_LENGTH
from repro.chem.elements import ELEMENTS
from repro.chem.forcefield import ForceField, ForceFieldEnergy
from repro.chem.molecule import Bond, Molecule
from repro.utils.rng import ensure_rng


def molecule_graph(molecule: Molecule) -> nx.Graph:
    """NetworkX graph of the covalent topology (nodes carry the element, edges the order)."""
    graph = nx.Graph()
    for atom in molecule.atoms:
        graph.add_node(atom.index, element=atom.element)
    for bond in molecule.bonds:
        graph.add_edge(bond.i, bond.j, order=bond.order)
    return graph


def reference_neighbors(molecule: Molecule, index: int) -> list[int]:
    """Scan every bond for those touching ``index``."""
    out = []
    for bond in molecule.bonds:
        if bond.i == index:
            out.append(bond.j)
        elif bond.j == index:
            out.append(bond.i)
    return sorted(out)


def reference_ring_bonds(molecule: Molecule) -> set[tuple[int, int]]:
    """Bonds on the networkx cycle basis of the covalent graph."""
    ring_bonds = set()
    for ring in nx.cycle_basis(molecule_graph(molecule)):
        cycle = list(ring) + [ring[0]]
        for a, b in zip(cycle[:-1], cycle[1:]):
            ring_bonds.add((min(a, b), max(a, b)))
    return ring_bonds


def reference_rotatable_bonds(molecule: Molecule) -> int:
    """Single, acyclic bonds between non-terminal atoms, via the networkx cycle basis."""
    ring_bonds = reference_ring_bonds(molecule)
    count = 0
    for bond in molecule.bonds:
        if bond.order != 1:
            continue
        if (min(bond.i, bond.j), max(bond.i, bond.j)) in ring_bonds:
            continue
        if len(reference_neighbors(molecule, bond.i)) > 1 and len(reference_neighbors(molecule, bond.j)) > 1:
            count += 1
    return count


def reference_compute(ff: ForceField, molecule: Molecule, want_forces: bool) -> tuple[ForceFieldEnergy, np.ndarray]:
    """Per-bond loop plus full-matrix non-bonded terms, rebuilt on every call."""
    coords = molecule.coordinates
    n = molecule.num_atoms
    forces = np.zeros((n, 3))
    bond_energy = 0.0
    bonded_pairs = set()
    for bond in molecule.bonds:
        i, j = bond.i, bond.j
        bonded_pairs.add((min(i, j), max(i, j)))
        delta = coords[i] - coords[j]
        r = np.linalg.norm(delta) + 1e-12
        diff = r - ff.bond_r0
        # square by multiplication: a float64 ``** 2`` can go through libm
        # ``pow``, which is not always correctly rounded
        bond_energy += ff.bond_k * (diff * diff)
        if want_forces:
            f = -2.0 * ff.bond_k * diff * delta / r
            forces[i] += f
            forces[j] -= f

    vdw_energy = 0.0
    elec_energy = 0.0
    if n > 1:
        radii = np.array([a.vdw_radius for a in molecule.atoms])
        charges = np.array([a.partial_charge for a in molecule.atoms])
        delta = coords[:, None, :] - coords[None, :, :]
        dist = np.linalg.norm(delta, axis=-1)
        iu, ju = np.triu_indices(n, k=1)
        mask = np.array([(a, b) not in bonded_pairs for a, b in zip(iu, ju)])
        iu, ju = iu[mask], ju[mask]
        if iu.size:
            r = np.maximum(dist[iu, ju], 0.4)
            sigma = 0.9 * (radii[iu] + radii[ju]) / 2.0
            sr6 = (sigma / r) ** 6
            pair_vdw = 4.0 * ff.lj_epsilon * (sr6**2 - sr6)
            vdw_energy = float(pair_vdw.sum())
            qq = charges[iu] * charges[ju]
            pair_elec = ff.coulomb_constant * qq / (ff.dielectric * r**2)
            elec_energy = float(pair_elec.sum())
            if want_forces:
                dvdw = 4.0 * ff.lj_epsilon * (-12.0 * sr6**2 + 6.0 * sr6) / r
                delec = -2.0 * ff.coulomb_constant * qq / (ff.dielectric * r**3)
                dtotal = dvdw + delec
                direction = (coords[iu] - coords[ju]) / r[:, None]
                pair_force = -dtotal[:, None] * direction
                np.add.at(forces, iu, pair_force)
                np.add.at(forces, ju, -pair_force)

    return ForceFieldEnergy(bond=float(bond_energy), vdw=vdw_energy, electrostatic=elec_energy), forces


def reference_minimize(molecule: Molecule, ff: ForceField, max_steps: int = 50,
                       step_size: float = 0.02, tolerance: float = 1e-3) -> tuple[Molecule, float]:
    """Steepest descent that re-derives everything from the Molecule each step."""
    out = molecule.copy()
    coords = out.coordinates
    energy, forces = reference_compute(ff, out, want_forces=True)
    energy = energy.total
    step = float(step_size)
    for _ in range(int(max_steps)):
        grad_norm = np.linalg.norm(forces)
        if grad_norm < tolerance:
            break
        trial = coords + step * forces / (grad_norm + 1e-12)
        out.set_coordinates(trial)
        new_energy, new_forces = reference_compute(ff, out, want_forces=True)
        new_energy = new_energy.total
        if new_energy < energy:
            coords, energy, forces = trial, new_energy, new_forces
            step *= 1.1
        else:
            out.set_coordinates(coords)
            step *= 0.5
            if step < 1e-5:
                break
    out.set_coordinates(coords)
    return out, float(energy)


def reference_best_direction(existing: np.ndarray, origin: np.ndarray, rng: np.random.Generator,
                             candidates: int = 12) -> np.ndarray:
    """Draw and score one candidate direction at a time."""
    best_dir = None
    best_score = -np.inf
    for _ in range(candidates):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction) + 1e-12
        candidate = origin + BOND_LENGTH * direction
        if existing.size:
            score = np.min(np.linalg.norm(existing - candidate, axis=1))
        else:
            score = 1.0
        if score > best_score:
            best_score = score
            best_dir = direction
    return best_dir


def reference_embed(molecule: Molecule, rng=None, bond_length: float = BOND_LENGTH) -> Molecule:
    """Breadth-first placement over networkx components and bond-scan neighbours."""
    rng = ensure_rng(rng)
    out = molecule.copy()
    if out.num_atoms == 0:
        return out
    coords = np.zeros((out.num_atoms, 3))
    placed = np.zeros(out.num_atoms, dtype=bool)
    component_offset = np.zeros(3)
    for component in (sorted(c) for c in nx.connected_components(molecule_graph(out))):
        root = component[0]
        coords[root] = component_offset
        placed[root] = True
        queue = [root]
        while queue:
            current = queue.pop(0)
            for neighbour in reference_neighbors(out, current):
                if placed[neighbour]:
                    continue
                direction = reference_best_direction(coords[placed], coords[current], rng)
                coords[neighbour] = coords[current] + bond_length * direction
                placed[neighbour] = True
                queue.append(neighbour)
        extent = np.abs(coords[placed]).max() if placed.any() else 0.0
        component_offset = component_offset + np.array([extent + 5.0, 0.0, 0.0])
    out.set_coordinates(coords)
    return out


def reference_formal_charges(molecule: Molecule, ph: float = 7.0) -> list[int]:
    """Protonation rules with the per-nitrogen scan over every bond."""
    out = molecule.copy()
    charges = [0] * out.num_atoms
    for atom in out.atoms:
        if atom.element == "N":
            neighbours = [out.atoms[i] for i in reference_neighbors(out, atom.index)]
            if neighbours and all(n.element == "C" for n in neighbours) and len(neighbours) <= 3:
                has_double = any(b.order > 1 for b in out.bonds if atom.index in (b.i, b.j))
                if not has_double and ph <= 9.0:
                    charges[atom.index] = 1
        elif atom.element == "O" and len(reference_neighbors(out, atom.index)) == 1:
            carbon_index = reference_neighbors(out, atom.index)[0]
            if out.atoms[carbon_index].element == "C":
                sibling_oxygens = [
                    i for i in reference_neighbors(out, carbon_index)
                    if i != atom.index and out.atoms[i].element == "O"
                ]
                if sibling_oxygens and ph >= 5.0:
                    charges[atom.index] = -1
    return charges


def reference_fraction_csp3(molecule: Molecule) -> float:
    """Fraction of carbons with only single bonds, scanning every bond per carbon."""
    carbons = [a for a in molecule.atoms if a.element == "C"]
    if not carbons:
        return 0.0
    sp3 = sum(1 for a in carbons if all(b.order == 1 for b in molecule.bonds if a.index in (b.i, b.j)))
    return sp3 / len(carbons)


_SYMBOL_BOND = {"=": 2, "#": 3}

_TOKEN_RE = re.compile(
    r"(\[[^\]]+\]|Cl|Br|C|N|O|S|P|F|I|=|#|\(|\)|%\d{2}|\d)"
)


def parse_smiles(smiles: str, name: str = "") -> Molecule:
    """Parse a string produced by :func:`repro.chem.smiles.to_smiles` back into a molecule.

    Coordinates are initialized to zero; call
    :func:`repro.chem.conformer.embed_3d` to generate a 3-D conformer.
    """
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    if not smiles:
        return Molecule(atoms, bonds, name=name)
    for fragment in smiles.split("."):
        _parse_fragment(fragment, atoms, bonds)
    return Molecule(atoms, bonds, name=name)


def _parse_fragment(fragment: str, atoms: list[Atom], bonds: list[Bond]) -> None:
    tokens = _TOKEN_RE.findall(fragment)
    if "".join(tokens) != fragment:
        raise ValueError(f"could not tokenize SMILES fragment: {fragment!r}")
    stack: list[int] = []
    previous: int | None = None
    pending_order = 1
    open_rings: dict[int, tuple[int, int]] = {}
    for token in tokens:
        if token == "(":
            if previous is None:
                raise ValueError("branch opened before any atom")
            stack.append(previous)
        elif token == ")":
            if not stack:
                raise ValueError("unbalanced parentheses in SMILES")
            previous = stack.pop()
        elif token in _SYMBOL_BOND:
            pending_order = _SYMBOL_BOND[token]
        elif token.isdigit() or token.startswith("%"):
            label = int(token[1:]) if token.startswith("%") else int(token)
            if previous is None:
                raise ValueError("ring closure before any atom")
            if label in open_rings:
                partner, order = open_rings.pop(label)
                bonds.append(Bond(partner, previous, max(order, pending_order)))
            else:
                open_rings[label] = (previous, pending_order)
            pending_order = 1
        else:
            atom = _parse_atom_token(token)
            atom_index = len(atoms)
            atoms.append(atom)
            if previous is not None:
                bonds.append(Bond(previous, atom_index, pending_order))
            previous = atom_index
            pending_order = 1
    if open_rings:
        raise ValueError(f"unclosed ring labels: {sorted(open_rings)}")
    if stack:
        raise ValueError("unbalanced parentheses in SMILES")


def _parse_atom_token(token: str) -> Atom:
    if token.startswith("["):
        body = token[1:-1]
        match = re.match(r"([A-Z][a-z]?)([+-]*\d*|\d*[+-]*)$", body)
        if not match:
            raise ValueError(f"cannot parse bracket atom {token!r}")
        symbol = match.group(1)
        charge_text = match.group(2)
        charge = 0
        if charge_text:
            if charge_text in ("+", "++"):
                charge = len(charge_text)
            elif charge_text in ("-", "--"):
                charge = -len(charge_text)
            elif charge_text.startswith("+"):
                charge = int(charge_text[1:] or 1)
            elif charge_text.startswith("-"):
                charge = -int(charge_text[1:] or 1)
        if symbol not in ELEMENTS:
            raise ValueError(f"unknown element in SMILES token {token!r}")
        return Atom(element=symbol, position=np.zeros(3), formal_charge=charge)
    if token not in ELEMENTS:
        raise ValueError(f"unknown element in SMILES token {token!r}")
    return Atom(element=token, position=np.zeros(3))
