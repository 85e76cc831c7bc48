"""Scalar reference implementations of the docking and rescoring loops.

These are the per-pose loops that ``repro.docking`` ran before the
lockstep docker replaced them: every Monte-Carlo restart chain runs on
its own, draws and applies its own moves, every pose is scored through a fresh
:class:`~repro.chem.complexes.ProteinLigandComplex` and the scalar
``InteractionModel.compute_terms``, and clustering compares poses with
nested :func:`~repro.docking.poses.rmsd` calls.  They are kept here only
as test oracles: the production docker and rescorer must match them bit
for bit (``np.array_equal`` / ``==``).
"""

from __future__ import annotations

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.engine import PoseGenerator
from repro.docking.poses import (
    DockedPose,
    initial_pose_coords,
    molecule_with_coordinates,
    rmsd,
)


def perturbed_coords(
    coords: np.ndarray, rng: np.random.Generator, step: int, total_steps: int
) -> np.ndarray:
    """One annealed rigid-body MC move of one chain, drawn and applied on its own.

    The scalar form of ``rigid_moves`` + ``apply_rigid_moves``: three
    ``rng.normal`` calls (translation, angle, axis) and a ``(N, 3) @ (3, 3)``
    rotation about the centroid.
    """
    cooling = max(0.25, 1.0 - step / max(total_steps, 1))
    translation = rng.normal(scale=0.6 * cooling, size=3)
    angle = rng.normal(scale=0.35 * cooling)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis) + 1e-12
    rotation = _axis_angle_matrix(axis, angle)
    center = coords.mean(axis=0)
    return (coords - center) @ rotation.T + center + translation


def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues formula)."""
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    return np.eye(3) * c + s * cross + (1 - c) * np.outer(axis, axis)


class ScalarPoseGenerator(PoseGenerator):
    """One restart chain at a time, one scalar ``score()`` per pose.

    Shares the production constructor and restart streams; only the
    search and clustering loops differ.
    """

    def dock(
        self,
        site: BindingSite,
        ligand: Molecule,
        complex_id: str = "",
        reference: Molecule | None = None,
    ) -> list[DockedPose]:
        base_coords = ligand.coordinates
        candidates: list[tuple[float, np.ndarray]] = []
        for restart in range(self.restarts):
            rng = self.restart_rng(restart)
            coords = initial_pose_coords(site, base_coords, rng)
            current = self._score(site, ligand, coords, complex_id)
            best_coords, best_score = coords, current
            for step in range(self.monte_carlo_steps):
                proposal = perturbed_coords(coords, rng, step, self.monte_carlo_steps)
                proposal_score = self._score(site, ligand, proposal, complex_id)
                delta = proposal_score - current
                if delta < 0 or rng.random() < np.exp(-delta / self.temperature):
                    coords, current = proposal, proposal_score
                    if current < best_score:
                        best_coords, best_score = coords, current
            candidates.append((best_score, best_coords))
            # keep intermediate snapshots too, so clustering has material
            candidates.append((current, coords))

        candidates.sort(key=lambda item: item[0])
        selected: list[tuple[float, Molecule]] = []
        for score, coords in candidates:
            if len(selected) >= self.num_poses:
                break
            pose = molecule_with_coordinates(ligand, coords)
            if all(rmsd(pose, kept) >= self.min_pose_separation for _, kept in selected):
                selected.append((score, pose))

        poses: list[DockedPose] = []
        for pose_id, (score, pose) in enumerate(selected):
            complex_ = ProteinLigandComplex(site, pose, complex_id=complex_id, pose_id=pose_id)
            pose_rmsd = rmsd(pose, reference) if reference is not None else float("nan")
            poses.append(DockedPose(complex=complex_, score=float(score), pose_id=pose_id, rmsd_to_reference=pose_rmsd))
        return poses

    def _score(self, site: BindingSite, ligand: Molecule, coords: np.ndarray, complex_id: str) -> float:
        pose = molecule_with_coordinates(ligand, coords)
        return float(self.scorer.score(ProteinLigandComplex(site, pose, complex_id=complex_id)))


def reference_rescore(rescorer, poses, max_poses: int | None = None) -> list[float]:
    """Re-score docked poses with one scalar ``score()`` call each."""
    selected = poses if max_poses is None else poses[: int(max_poses)]
    return [rescorer.score(p.complex) for p in selected]

