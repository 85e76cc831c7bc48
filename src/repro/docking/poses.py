"""Docking pose records and rigid-body move geometry.

The coordinate-level helpers :func:`initial_pose_coords`,
:func:`rigid_moves` and :func:`apply_rigid_moves` define the geometry
(and the random-draw order) of the Monte-Carlo moves of
:class:`repro.docking.engine.PoseGenerator`, batched over chains;
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


def molecule_with_coordinates(template: Molecule, coords: np.ndarray) -> Molecule:
    """A copy of ``template`` carrying ``coords`` as its atom positions.

    The copy shares the template's memoized interaction arrays
    (:func:`repro.chem.complexes.ligand_interaction_arrays`): they hold
    topology and per-atom properties only, so rescoring a docked pose
    does not extract them again.
    """
    out = template.copy()
    out.set_coordinates(coords)
    arrays = getattr(template, "_interaction_arrays", None)
    if arrays is not None:
        out._interaction_arrays = arrays
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


#: Standard-normal draws of one Monte-Carlo move, in stream order:
#: translation (3), rotation angle (1), rotation axis (3).
MOVE_DRAWS = 7


def rigid_moves(draws: np.ndarray, step: int, total_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotations ``(K, 3, 3)`` and translations ``(K, 3)`` of ``K`` annealed MC moves.

    Row ``k`` of ``draws`` is chain ``k``'s ``rng.standard_normal(MOVE_DRAWS)``;
    the move magnitude shrinks with ``step``.  Scaling a standard normal as
    ``0.0 + scale * z`` is what ``rng.normal(scale=...)`` computes, so one
    7-draw call per chain equals separate translation, angle and axis
    draws bit for bit.
    """
    cooling = max(0.25, 1.0 - step / max(total_steps, 1))
    translations = 0.0 + (0.6 * cooling) * draws[:, :3]
    angles = 0.0 + (0.35 * cooling) * draws[:, 3]
    axes = 0.0 + 1.0 * draws[:, 4:]
    # a per-row dot is what np.linalg.norm computes for one vector; a
    # batched (axes * axes).sum(-1) differs in the last bit
    axes /= (np.sqrt([axis.dot(axis) for axis in axes]) + 1e-12)[:, None]
    return _axis_angle_matrices(axes, angles), translations


def apply_rigid_moves(coords: np.ndarray, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """Rotate ``K`` stacked poses ``(K, N, 3)`` about their centroids, then translate."""
    # the add.reduce and division np.mean makes, without its wrapper
    center = np.add.reduce(coords, axis=1, keepdims=True) / coords.shape[1]
    return np.matmul(coords - center, rotations.transpose(0, 2, 1)) + center + translations[:, None, :]


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

    def make_batch_kernel(self, site: BindingSite, ligands, complex_ids, pose_id: int = 0):
        """Batch-scoring kernel bound to one site and ``C`` ligands (``C * R`` scores per call).

        The latent model has no per-complex error, so ``complex_ids`` and
        ``pose_id`` do not change the scores.
        """
        terms_kernel = self.interaction_model.batch_kernel(site, ligands)

        def kernel(coords: np.ndarray) -> np.ndarray:
            return -self.interaction_model.pk_from_terms(terms_kernel(coords))

        return kernel


_EYE3 = np.eye(3)


def _axis_angle_matrices(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices about unit ``axes`` ``(K, 3)`` by ``angles`` ``(K,)`` (Rodrigues)."""
    x, y, z = axes.T
    cross = np.zeros((len(angles), 3, 3))
    cross[:, 0, 1], cross[:, 0, 2] = -z, y
    cross[:, 1, 0], cross[:, 1, 2] = z, -x
    cross[:, 2, 0], cross[:, 2, 1] = -y, x
    c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
    # axes[:, :, None] * axes[:, None, :] is each chain's np.outer(axis, axis)
    return _EYE3 * c + s * cross + (1 - c) * (axes[:, :, None] * axes[:, None, :])
