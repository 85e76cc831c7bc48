"""Atom representation shared by ligands and binding pockets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.elements import get_element


@dataclass
class Atom:
    """A single atom with position and physico-chemical annotations.

    Attributes
    ----------
    element:
        Chemical symbol (must exist in :data:`repro.chem.elements.ELEMENTS`).
    position:
        Cartesian coordinates in Angstroms, shape ``(3,)``.
    partial_charge:
        Assigned partial charge (AM1-BCC-like charges in the paper; here a
        simple electronegativity-difference model).
    formal_charge:
        Integer formal charge set by the protonation step.
    hydrophobic:
        Whether the atom contributes to hydrophobic contacts.
    hbond_donor / hbond_acceptor:
        Hydrogen-bond donor/acceptor flags.
    aromatic:
        Whether the atom is a member of an aromatic ring.
    index:
        Position of the atom within its parent molecule (set by Molecule).
    """

    element: str
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    partial_charge: float = 0.0
    formal_charge: int = 0
    hydrophobic: bool = False
    hbond_donor: bool = False
    hbond_acceptor: bool = False
    aromatic: bool = False
    index: int = -1

    def __post_init__(self) -> None:
        get_element(self.element)  # validate symbol
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)

    @property
    def vdw_radius(self) -> float:
        """Van der Waals radius of the atom's element."""
        return get_element(self.element).vdw_radius

    @property
    def mass(self) -> float:
        """Atomic mass of the atom's element."""
        return get_element(self.element).mass

    @property
    def is_metal(self) -> bool:
        """Whether the atom is a metal."""
        return get_element(self.element).is_metal

    @property
    def is_halogen(self) -> bool:
        """Whether the atom is a halogen."""
        return get_element(self.element).is_halogen

    def copy(self) -> "Atom":
        """Deep copy of the atom (its fields were validated on construction)."""
        atom = Atom.__new__(Atom)
        atom.__dict__.update(self.__dict__)
        atom.position = self.position.copy()
        return atom
