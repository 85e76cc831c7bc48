"""3-D conformer embedding and light force-field minimization.

Stands in for the MOE "generate and energetically minimize 3D structures"
step of the paper's ligand preparation pipeline. The embedding is a
sequential distance-geometry heuristic (place each atom at bond length
from its tree parent while avoiding clashes with already-placed atoms)
followed by a few steepest-descent steps of the simplified force field.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.chem.forcefield import ForceField, ForceFieldTopology
from repro.chem.molecule import Molecule
from repro.utils.rng import ensure_rng

#: Reference covalent bond length used by the embedder (Angstroms).
BOND_LENGTH = 1.5


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    """Uniformly-distributed random 3-D rotation matrix (via QR of a Gaussian)."""
    matrix = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(matrix)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def embed_3d(molecule: Molecule, rng=None, bond_length: float = BOND_LENGTH) -> Molecule:
    """Return a copy of ``molecule`` with generated 3-D coordinates.

    Atoms are placed along a breadth-first traversal of the covalent
    graph: each atom sits at ``bond_length`` from its parent in the
    direction that maximizes the distance to already-placed atoms,
    producing extended, clash-free (if not physically exact) conformers.
    Disconnected components are offset from each other.
    """
    rng = ensure_rng(rng)
    out = molecule.copy()
    if out.num_atoms == 0:
        return out
    adjacency = [out.neighbors(index) for index in range(out.num_atoms)]
    coords = np.zeros((out.num_atoms, 3))
    placed = np.zeros(out.num_atoms, dtype=bool)

    component_offset = np.zeros(3)
    for component in out.connected_components():
        root = component[0]
        coords[root] = component_offset
        placed[root] = True
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for neighbour in adjacency[current]:
                if placed[neighbour]:
                    continue
                direction = _best_direction(coords[placed], coords[current], rng)
                coords[neighbour] = coords[current] + bond_length * direction
                placed[neighbour] = True
                queue.append(neighbour)
        # shift the next component well away from this one
        extent = np.abs(coords[placed]).max() if placed.any() else 0.0
        component_offset = component_offset + np.array([extent + 5.0, 0.0, 0.0])

    out.set_coordinates(coords)
    return out


def _best_direction(existing: np.ndarray, origin: np.ndarray, rng: np.random.Generator, candidates: int = 12) -> np.ndarray:
    """Pick, among random unit vectors, the one keeping the new atom farthest from existing atoms.

    One ``(candidates, 3)`` draw consumes the generator exactly like
    ``candidates`` draws of size 3, and ``argmax`` keeps the first of tied
    candidates, so the choice matches scoring them one at a time.
    """
    directions = rng.normal(size=(candidates, 3))
    # a row-wise dot (not norm(axis=-1)) reproduces np.linalg.norm of each vector
    lengths = np.sqrt((directions[:, None, :] @ directions[:, :, None]).reshape(-1))
    directions /= (lengths + 1e-12)[:, None]
    if not existing.size:
        return directions[0]
    points = origin + BOND_LENGTH * directions
    scores = np.linalg.norm(existing[None, :, :] - points[:, None, :], axis=-1).min(axis=1)
    return directions[int(np.argmax(scores))]


def minimize_conformer(
    molecule: Molecule,
    forcefield: ForceField | None = None,
    max_steps: int = 50,
    step_size: float = 0.02,
    tolerance: float = 1e-3,
) -> tuple[Molecule, float]:
    """Steepest-descent minimization of the conformer under ``forcefield``.

    Returns the relaxed molecule and its final force-field energy. The
    step size is adaptive: halved when a step increases the energy. The
    force-field topology is built once and the descent runs on coordinate
    arrays; atom positions are written once, at the end.
    """
    forcefield = forcefield or ForceField()
    out = molecule.copy()
    topology = ForceFieldTopology.from_molecule(out)
    coords = out.coordinates
    components, forces = forcefield.evaluate(topology, coords)
    energy = components.total
    step = float(step_size)
    for _ in range(int(max_steps)):
        grad_norm = np.linalg.norm(forces)
        if grad_norm < tolerance:
            break
        trial = coords + step * forces / (grad_norm + 1e-12)
        components, new_forces = forcefield.evaluate(topology, trial)
        if components.total < energy:
            coords, energy, forces = trial, components.total, new_forces
            step *= 1.1
        else:
            step *= 0.5
            if step < 1e-5:
                break
    out.set_coordinates(coords)
    return out, float(energy)
