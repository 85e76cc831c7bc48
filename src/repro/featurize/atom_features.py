"""Per-atom features shared by the voxel and graph featurizers.

:class:`AtomArrays` / :func:`feature_matrix_from_arrays` feed
:mod:`repro.featurize.engine`: atom objects are read once into flat
NumPy arrays and every downstream quantity (one-hot encodings, channel
memberships, Gaussian widths) is computed by array operations.

Feature-matrix layout (one row per atom, :data:`ATOM_FEATURE_DIM`
columns):

==========================  =========
element one-hot             7
hydrophobic flag            1
H-bond donor flag           1
H-bond acceptor flag        1
aromatic flag               1
partial charge              1
formal charge               1
ligand flag (vs pocket)     1
==========================  =========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.chem.atom import Atom

#: Element classes used for one-hot encoding.
ELEMENT_CLASSES: tuple[str, ...] = ("C", "N", "O", "S", "P", "halogen", "other")

#: Number of per-atom feature columns (module docstring).
ATOM_FEATURE_DIM = len(ELEMENT_CLASSES) + 7


def element_class(atom: Atom) -> int:
    """Index of the atom's element class in :data:`ELEMENT_CLASSES`."""
    if atom.element in ELEMENT_CLASSES:
        return ELEMENT_CLASSES.index(atom.element)
    if atom.is_halogen:
        return ELEMENT_CLASSES.index("halogen")
    return ELEMENT_CLASSES.index("other")


@dataclass(frozen=True)
class AtomArrays:
    """Flat per-atom property arrays extracted in one pass over the atoms.

    Every field has length ``num_atoms``; boolean flags are stored as
    float64 0/1 so they can be used directly as channel weights and
    feature-matrix columns.
    """

    coords: np.ndarray  # (N, 3) float64
    elem_idx: np.ndarray  # index into ELEMENT_CLASSES
    is_halogen: np.ndarray  # bool
    hydrophobic: np.ndarray  # float64 0/1
    hbond_donor: np.ndarray  # float64 0/1
    hbond_acceptor: np.ndarray  # float64 0/1
    aromatic: np.ndarray  # float64 0/1
    partial_charge: np.ndarray  # float64
    formal_charge: np.ndarray  # float64
    vdw_radius: np.ndarray  # float64

    @property
    def num_atoms(self) -> int:
        return int(self.coords.shape[0])


def atom_arrays(atoms: Sequence[Atom]) -> AtomArrays:
    """Extract :class:`AtomArrays` from a list of atoms (single Python pass)."""
    n = len(atoms)
    coords = np.empty((n, 3), dtype=np.float64)
    elem_idx = np.empty(n, dtype=np.intp)
    halogen = np.empty(n, dtype=bool)
    flags = np.empty((n, 4), dtype=np.float64)  # hydrophobic, donor, acceptor, aromatic
    charges = np.empty((n, 2), dtype=np.float64)  # partial, formal
    vdw = np.empty(n, dtype=np.float64)
    for index, atom in enumerate(atoms):
        coords[index] = atom.position
        elem_idx[index] = element_class(atom)
        halogen[index] = atom.is_halogen
        flags[index, 0] = float(atom.hydrophobic)
        flags[index, 1] = float(atom.hbond_donor)
        flags[index, 2] = float(atom.hbond_acceptor)
        flags[index, 3] = float(atom.aromatic)
        charges[index, 0] = float(atom.partial_charge)
        charges[index, 1] = float(atom.formal_charge)
        vdw[index] = atom.vdw_radius
    return AtomArrays(
        coords=coords,
        elem_idx=elem_idx,
        is_halogen=halogen,
        hydrophobic=flags[:, 0].copy(),
        hbond_donor=flags[:, 1].copy(),
        hbond_acceptor=flags[:, 2].copy(),
        aromatic=flags[:, 3].copy(),
        partial_charge=charges[:, 0].copy(),
        formal_charge=charges[:, 1].copy(),
        vdw_radius=vdw,
    )


def feature_matrix_from_arrays(arrays: AtomArrays, is_ligand: bool | np.ndarray) -> np.ndarray:
    """Per-atom feature matrix ``(N, ATOM_FEATURE_DIM)`` (module docstring).

    ``is_ligand`` is either one flag for all atoms or a per-atom boolean
    array.  Every column is either an exact 0/1 one-hot or a copy of the
    atoms' float64 values.
    """
    n = arrays.num_atoms
    matrix = np.zeros((n, ATOM_FEATURE_DIM), dtype=np.float64)
    matrix[np.arange(n), arrays.elem_idx] = 1.0
    offset = len(ELEMENT_CLASSES)
    matrix[:, offset + 0] = arrays.hydrophobic
    matrix[:, offset + 1] = arrays.hbond_donor
    matrix[:, offset + 2] = arrays.hbond_acceptor
    matrix[:, offset + 3] = arrays.aromatic
    matrix[:, offset + 4] = arrays.partial_charge
    matrix[:, offset + 5] = arrays.formal_charge
    if isinstance(is_ligand, np.ndarray):
        matrix[:, offset + 6] = is_ligand.astype(np.float64)
    elif is_ligand:
        matrix[:, offset + 6] = 1.0
    return matrix


def site_arrays(site) -> tuple[AtomArrays, np.ndarray]:
    """Cached ``(AtomArrays, pocket feature matrix)`` for a binding site.

    Binding sites are rigid and shared across thousands of poses, so the
    extraction (the only per-atom Python work left in the vectorized
    path) runs once per site; the result is memoized on the site
    instance like :func:`repro.chem.digest.site_digest`.
    """
    cached = getattr(site, "_featurize_arrays", None)
    if cached is not None:
        return cached
    arrays = atom_arrays(site.atoms)
    features = feature_matrix_from_arrays(arrays, is_ligand=False)
    site._featurize_arrays = (arrays, features)
    return site._featurize_arrays
