"""Docking pose records, rigid-body move geometry and RMSD utilities.

The coordinate-level helpers :func:`initial_pose_coords` and
:func:`perturbed_coords` define the geometry (and the random-draw order)
of one Monte-Carlo move for :class:`repro.docking.engine.PoseGenerator`;
:class:`DockedPose` is what the docker returns, and
:class:`MaximizePkScorer` adapts the latent interaction model into a
minimizable docking score for the synthetic "crystal" poses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.conformer import random_rotation_matrix
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.utils.rng import ensure_rng


def rmsd(pose_a: Molecule, pose_b: Molecule) -> float:
    """Heavy-atom RMSD between two poses of the same molecule (no alignment)."""
    return pose_a.rmsd_to(pose_b)


def molecule_with_coordinates(template: Molecule, coords: np.ndarray) -> Molecule:
    """A copy of ``template`` carrying ``coords`` as its atom positions."""
    out = template.copy()
    out.set_coordinates(coords)
    return out


def initial_pose_coords(site: BindingSite, coords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Coordinates of a random initial placement near the pocket mouth.

    Draw order (rotation, then jitter) is part of the restart stream
    protocol (:mod:`repro.docking.engine`).
    """
    rotation = random_rotation_matrix(rng)
    centered = coords - coords.mean(axis=0)
    rotated = centered @ rotation.T
    depth_offset = np.array([0.0, 0.0, -0.45 * site.family.depth])
    jitter = rng.normal(scale=1.0, size=3)
    return rotated + (site.center + depth_offset + jitter)


def perturbed_coords(
    coords: np.ndarray, rng: np.random.Generator, step: int, total_steps: int
) -> np.ndarray:
    """One annealed rigid-body MC move whose magnitude shrinks with ``step``."""
    cooling = max(0.25, 1.0 - step / max(total_steps, 1))
    translation = rng.normal(scale=0.6 * cooling, size=3)
    angle = rng.normal(scale=0.35 * cooling)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis) + 1e-12
    rotation = _axis_angle_matrix(axis, angle)
    center = coords.mean(axis=0)
    return (coords - center) @ rotation.T + center + translation


def place_ligand_randomly(site: BindingSite, ligand: Molecule, rng=None) -> Molecule:
    """Place the ligand with random orientation near the pocket mouth."""
    rng = ensure_rng(rng)
    return molecule_with_coordinates(ligand, initial_pose_coords(site, ligand.coordinates, rng))


@dataclass
class DockedPose:
    """One docking pose with its scores and geometry."""

    complex: ProteinLigandComplex
    score: float
    pose_id: int
    rmsd_to_reference: float = float("nan")
    metadata: dict = field(default_factory=dict)


class MaximizePkScorer:
    """Adapter turning a pK-maximizing objective into a minimizable score.

    Used to construct the synthetic "crystal" poses: nature minimizes the
    true binding free energy, i.e. maximizes the latent pK.
    """

    def __init__(self, interaction_model) -> None:
        self.interaction_model = interaction_model

    def score(self, complex_: ProteinLigandComplex) -> float:
        return -self.interaction_model.true_pk(complex_)

    def make_batch_kernel(
        self, site: BindingSite, ligand: Molecule, complex_id: str = "", pose_id: int = 0
    ):
        """Batch-scoring kernel bound to one ``(site, ligand)`` pair."""
        terms_kernel = self.interaction_model.batch_kernel(site, ligand)

        def kernel(coords: np.ndarray) -> np.ndarray:
            return -self.interaction_model.pk_from_terms_batch(terms_kernel(coords))

        return kernel


_EYE3 = np.eye(3)


def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues formula)."""
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    # axis[:, None] * axis computes the same a_i * a_j products np.outer did
    return _EYE3 * c + s * cross + (1 - c) * (axis[:, None] * axis)
