"""Molecular graph with 3-D coordinates."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx
import numpy as np

from repro.chem.atom import Atom
from repro.chem.elements import get_element


@dataclass(frozen=True)
class Bond:
    """A covalent bond between atoms ``i`` and ``j`` with integer ``order``."""

    i: int
    j: int
    order: int = 1

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("a bond cannot connect an atom to itself")
        if self.order not in (1, 2, 3):
            raise ValueError(f"bond order must be 1, 2 or 3, got {self.order}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.order)


class Molecule:
    """A small molecule (or pocket fragment): atoms, bonds and coordinates.

    The class stores heavy atoms only (implicit hydrogens), which matches
    the feature extraction in the FAST pipeline where hydrogens are not
    voxelized and graph nodes are heavy atoms.
    """

    def __init__(self, atoms: Sequence[Atom], bonds: Iterable[Bond] = (), name: str = "") -> None:
        self.atoms: list[Atom] = [a.copy() for a in atoms]
        for index, atom in enumerate(self.atoms):
            atom.index = index
        self.name = name
        self.bonds = bonds

    # -------------------------------------------------------------- #
    # Topology index
    # -------------------------------------------------------------- #
    # ``_adjacency`` maps an atom index to its sorted bonded neighbours and
    # ``_bond_keys`` holds every bond as ``(min, max)``. Both are derived
    # from ``bonds`` and kept in step by ``add_bond`` and the ``bonds``
    # setter, so the bond list must not be mutated in place.
    @property
    def bonds(self) -> list[Bond]:
        """The covalent bonds; assign a new list to replace them all."""
        return self._bonds

    @bonds.setter
    def bonds(self, bonds: Iterable[Bond]) -> None:
        self._bonds: list[Bond] = []
        self._adjacency: dict[int, list[int]] = {}
        self._bond_keys: set[tuple[int, int]] = set()
        for bond in bonds:
            self._append_bond(bond)

    def add_bond(self, i: int, j: int, order: int = 1) -> None:
        """Add a bond, validating atom indices and duplicates."""
        self._append_bond(Bond(i, j, order))

    def _append_bond(self, bond: Bond) -> None:
        i, j = bond.i, bond.j
        n = len(self.atoms)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"bond ({i}, {j}) references atoms outside 0..{n - 1}")
        key = (min(i, j), max(i, j))
        if key in self._bond_keys:
            raise ValueError(f"duplicate bond between atoms {i} and {j}")
        self._bond_keys.add(key)
        self._bonds.append(bond)
        insort(self._adjacency.setdefault(i, []), j)
        insort(self._adjacency.setdefault(j, []), i)

    def copy(self) -> "Molecule":
        """Deep copy of the atoms; the immutable bonds are shared."""
        mol = Molecule.__new__(Molecule)
        mol.atoms = [a.copy() for a in self.atoms]
        for index, atom in enumerate(mol.atoms):
            atom.index = index
        mol.name = self.name
        mol._bonds = list(self._bonds)
        mol._adjacency = {index: list(neighbours) for index, neighbours in self._adjacency.items()}
        mol._bond_keys = set(self._bond_keys)
        return mol

    def __getstate__(self) -> dict:
        # The index is derived data: pickle the layout checkpoints have
        # always held (atoms, the bond list under ``bonds``, name) and
        # rebuild the index on load.
        rest = {k: v for k, v in self.__dict__.items() if k not in ("atoms", "_bonds", "_adjacency", "_bond_keys")}
        return {"atoms": self.atoms, "bonds": self._bonds, **rest}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update((k, v) for k, v in state.items() if k != "bonds")
        self.bonds = state["bonds"]

    # -------------------------------------------------------------- #
    # Basic properties
    # -------------------------------------------------------------- #
    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    @property
    def coordinates(self) -> np.ndarray:
        """``(num_atoms, 3)`` coordinate array (a copy)."""
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def set_coordinates(self, coords: np.ndarray) -> None:
        """Overwrite atom coordinates from an ``(num_atoms, 3)`` array."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.num_atoms, 3):
            raise ValueError(f"expected coordinates of shape ({self.num_atoms}, 3), got {coords.shape}")
        for atom, row in zip(self.atoms, coords):
            atom.position = row.copy()

    @property
    def elements(self) -> list[str]:
        return [a.element for a in self.atoms]

    def molecular_weight(self) -> float:
        """Sum of atomic masses in Daltons (heavy atoms only)."""
        return float(sum(a.mass for a in self.atoms))

    def formula(self) -> str:
        """Hill-ordered molecular formula of the heavy atoms."""
        counts: dict[str, int] = {}
        for atom in self.atoms:
            counts[atom.element] = counts.get(atom.element, 0) + 1
        parts = []
        for symbol in sorted(counts, key=lambda s: (s != "C", s)):
            count = counts[symbol]
            parts.append(symbol + (str(count) if count > 1 else ""))
        return "".join(parts)

    def centroid(self) -> np.ndarray:
        """Unweighted centroid of atom positions."""
        if not self.atoms:
            raise ValueError("molecule has no atoms")
        return self.coordinates.mean(axis=0)

    def radius_of_gyration(self) -> float:
        """Root-mean-square distance of atoms from the centroid."""
        coords = self.coordinates - self.centroid()
        return float(np.sqrt((coords**2).sum(axis=1).mean()))

    def net_charge(self) -> int:
        """Sum of formal charges."""
        return int(sum(a.formal_charge for a in self.atoms))

    # -------------------------------------------------------------- #
    # Graph views
    # -------------------------------------------------------------- #
    def to_graph(self) -> nx.Graph:
        """NetworkX graph of the covalent topology (nodes carry atom refs)."""
        graph = nx.Graph()
        for atom in self.atoms:
            graph.add_node(atom.index, element=atom.element)
        for bond in self.bonds:
            graph.add_edge(bond.i, bond.j, order=bond.order)
        return graph

    def neighbors(self, index: int) -> list[int]:
        """Sorted indices of atoms covalently bonded to ``index``."""
        return list(self._adjacency.get(index, ()))

    def degree(self, index: int) -> int:
        """Covalent degree of atom ``index``."""
        return len(self._adjacency.get(index, ()))

    def connected_components(self) -> list[list[int]]:
        """Connected components of the covalent graph as sorted index lists.

        Components are ordered by their lowest atom index.
        """
        seen = [False] * len(self.atoms)
        components = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            for current in component:
                for neighbour in self._adjacency.get(current, ()):
                    if not seen[neighbour]:
                        seen[neighbour] = True
                        component.append(neighbour)
            components.append(sorted(component))
        return components

    def path_length(self, source: int, target: int) -> int | None:
        """Bonds on a shortest path from ``source`` to ``target``; ``None`` if disconnected."""
        if source == target:
            return 0
        distance = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for current in frontier:
                for neighbour in self._adjacency.get(current, ()):
                    if neighbour in distance:
                        continue
                    if neighbour == target:
                        return distance[current] + 1
                    distance[neighbour] = distance[current] + 1
                    next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    def rings(self) -> list[list[int]]:
        """Smallest cycle basis of the covalent graph."""
        return [sorted(ring) for ring in nx.cycle_basis(self.to_graph())]

    def num_rings(self) -> int:
        """Number of independent rings (the size of any cycle basis)."""
        return len(self._bonds) - len(self.atoms) + len(self.connected_components())

    def ring_bonds(self) -> set[tuple[int, int]]:
        """``(min, max)`` keys of the bonds lying on a cycle.

        These are exactly the bonds that are not bridges, found with one
        iterative depth-first search over the adjacency index.
        """
        discovered = [-1] * len(self.atoms)
        low = [0] * len(self.atoms)
        bridges = set()
        clock = 0
        for root in range(len(self.atoms)):
            if discovered[root] != -1:
                continue
            discovered[root] = low[root] = clock
            clock += 1
            stack = [(root, -1, iter(self._adjacency.get(root, ())))]
            while stack:
                node, parent, pending = stack[-1]
                for neighbour in pending:
                    if discovered[neighbour] == -1:
                        discovered[neighbour] = low[neighbour] = clock
                        clock += 1
                        stack.append((neighbour, node, iter(self._adjacency.get(neighbour, ()))))
                        break
                    if neighbour != parent:  # bonds are unique, so the parent bond is the only one back
                        low[node] = min(low[node], discovered[neighbour])
                else:
                    stack.pop()
                    if parent != -1:
                        low[parent] = min(low[parent], low[node])
                        if low[node] > discovered[parent]:
                            bridges.add((min(parent, node), max(parent, node)))
        return self._bond_keys - bridges

    def rotatable_bonds(self) -> int:
        """Count single, acyclic bonds between non-terminal heavy atoms.

        This is the classic rotatable-bond definition used by docking
        codes to estimate the ligand's conformational entropy penalty.
        """
        ring_bonds = self.ring_bonds()
        count = 0
        for bond in self.bonds:
            if bond.order != 1:
                continue
            key = (min(bond.i, bond.j), max(bond.i, bond.j))
            if key in ring_bonds:
                continue
            if self.degree(bond.i) > 1 and self.degree(bond.j) > 1:
                count += 1
        return count

    # -------------------------------------------------------------- #
    # Geometry operations
    # -------------------------------------------------------------- #
    def translate(self, offset: np.ndarray) -> "Molecule":
        """Return a copy translated by ``offset``."""
        offset = np.asarray(offset, dtype=np.float64).reshape(3)
        out = self.copy()
        for atom in out.atoms:
            atom.position = atom.position + offset
        return out

    def rotate(self, rotation_matrix: np.ndarray, center: np.ndarray | None = None) -> "Molecule":
        """Return a copy rotated by ``rotation_matrix`` about ``center`` (default centroid)."""
        rotation_matrix = np.asarray(rotation_matrix, dtype=np.float64)
        if rotation_matrix.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        center = self.centroid() if center is None else np.asarray(center, dtype=np.float64)
        out = self.copy()
        for atom in out.atoms:
            atom.position = (rotation_matrix @ (atom.position - center)) + center
        return out

    def rmsd_to(self, other: "Molecule") -> float:
        """In-place (no alignment) heavy-atom RMSD to a molecule with identical atom order.

        Docking pose RMSD in the paper is computed against the crystal
        ligand without re-alignment, since poses share the receptor frame.
        """
        if other.num_atoms != self.num_atoms:
            raise ValueError("RMSD requires molecules with the same number of atoms")
        diff = self.coordinates - other.coordinates
        return float(np.sqrt((diff**2).sum(axis=1).mean()))

    # -------------------------------------------------------------- #
    # Annotation
    # -------------------------------------------------------------- #
    def assign_partial_charges(self) -> None:
        """Assign simple electronegativity-equalization partial charges.

        Stands in for the AM1-BCC charges produced by antechamber in the
        paper's preparation pipeline: each bond shifts charge from the
        less to the more electronegative atom.
        """
        charges = np.array([float(a.formal_charge) for a in self.atoms])
        for bond in self.bonds:
            ei = get_element(self.atoms[bond.i].element).electronegativity
            ej = get_element(self.atoms[bond.j].element).electronegativity
            shift = 0.08 * bond.order * (ej - ei)
            charges[bond.i] += shift
            charges[bond.j] -= shift
        for atom, q in zip(self.atoms, charges):
            atom.partial_charge = float(q)

    def assign_pharmacophores(self) -> None:
        """Set hydrophobic / H-bond donor / acceptor flags from local topology."""
        for atom in self.atoms:
            neighbors = [self.atoms[i] for i in self.neighbors(atom.index)]
            hetero_neighbors = sum(1 for n in neighbors if n.element not in ("C", "H"))
            if atom.element == "C":
                atom.hydrophobic = hetero_neighbors == 0
                atom.hbond_donor = False
                atom.hbond_acceptor = False
            elif atom.element in ("N", "O"):
                atom.hydrophobic = False
                atom.hbond_acceptor = True
                # a heteroatom with spare valence is treated as carrying an H donor
                atom.hbond_donor = self.degree(atom.index) < get_element(atom.element).max_valence
            elif atom.element == "S":
                atom.hydrophobic = True
                atom.hbond_acceptor = True
                atom.hbond_donor = False
            else:
                atom.hydrophobic = atom.is_halogen
                atom.hbond_donor = False
                atom.hbond_acceptor = atom.is_halogen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Molecule(name={self.name!r}, atoms={self.num_atoms}, bonds={self.num_bonds})"
