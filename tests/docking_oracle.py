"""Scalar reference implementations of the pairwise terms, docking and rescoring.

``reference_terms`` is the one scalar evaluation of the latent
interaction model's pairwise terms: it reads per-atom properties from
Python ``Atom`` objects and builds every ``(N, M)`` pair array of one
complex from scratch.  ``src/`` evaluates the terms only through
``InteractionModel.batch_kernel``; every kernel, scorer, docker and
campaign comparison in the suite is made against this reference.

``reference_score`` / ``reference_pk`` map those terms to a scorer's
score or the latent pK, ``ScalarPoseGenerator`` is the per-pose docking
loop the lockstep docker replaced (every restart chain on its own, every
pose scored through a fresh :class:`~repro.chem.complexes.ProteinLigandComplex`,
clustering with nested :func:`rmsd` calls) and
``reference_rescore`` is the per-pose MM/GBSA loop.  They are test
oracles only: production must match them bit for bit
(``np.array_equal`` / ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.complexes import (
    _BURIAL_CONTACT,
    _ELECTROSTATIC_FLOOR,
    _GAUSS1_WIDTH,
    _GAUSS2_OFFSET,
    _GAUSS2_WEIGHT,
    _GAUSS2_WIDTH,
    _HBOND_RAMP,
    _HYDROPHOBIC_RAMP,
    PK_TO_KCAL,
    BatchedInteractionTerms,
    InteractionModel,
    ProteinLigandComplex,
    pair_distances,
)
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.engine import PoseGenerator
from repro.docking.poses import (
    DockedPose,
    MaximizePkScorer,
    initial_pose_coords,
    molecule_with_coordinates,
)


def rmsd(pose_a: Molecule, pose_b: Molecule) -> float:
    """Heavy-atom RMSD between two poses of the same molecule (no alignment).

    Docking pose RMSD in the paper is computed against the crystal ligand
    without re-alignment, since poses share the receptor frame.
    """
    if pose_a.num_atoms != pose_b.num_atoms:
        raise ValueError("RMSD requires molecules with the same number of atoms")
    diff = pose_a.coordinates - pose_b.coordinates
    return float(np.sqrt((diff**2).sum(axis=1).mean()))


@dataclass(frozen=True)
class InteractionTerms:
    """Raw interaction terms of one complex (all dimensionless counts/sums)."""

    shape: float
    repulsion: float
    hydrophobic: float
    hbond: float
    electrostatic: float
    buried_fraction: float
    rotatable_bonds: float
    ligand_heavy_atoms: float


def term_at(batch: BatchedInteractionTerms, index: int) -> InteractionTerms:
    """Scalar :class:`InteractionTerms` view of pose ``index`` of a batch."""
    return InteractionTerms(
        shape=float(batch.shape[index]),
        repulsion=float(batch.repulsion[index]),
        hydrophobic=float(batch.hydrophobic[index]),
        hbond=float(batch.hbond[index]),
        electrostatic=float(batch.electrostatic[index]),
        buried_fraction=float(batch.buried_fraction[index]),
        rotatable_bonds=float(batch.rotatable_bonds[index]),
        ligand_heavy_atoms=float(batch.ligand_heavy_atoms[index]),
    )


def reference_terms(model: InteractionModel, complex_: ProteinLigandComplex) -> InteractionTerms:
    """Raw pairwise interaction terms of one complex, one ``(N, M)`` array per term."""
    lig_coords = complex_.ligand_coordinates()
    pocket_coords = complex_.site.coordinates()
    if lig_coords.size == 0 or pocket_coords.size == 0:
        raise ValueError("complex must contain both ligand and pocket atoms")
    lig_atoms = complex_.ligand.atoms
    pocket_atoms = complex_.site.atoms

    dist = pair_distances(lig_coords[None], pocket_coords.T)[0]
    lig_radii = np.array([a.vdw_radius for a in lig_atoms])
    pocket_radii = np.array([a.vdw_radius for a in pocket_atoms])
    surface_dist = dist - (lig_radii[:, None] + pocket_radii[None, :])

    within = dist <= model.cutoff
    # shape complementarity: two Vina-style gaussians of the surface distance
    gauss1 = np.exp(-((surface_dist / _GAUSS1_WIDTH) ** 2))
    gauss2 = np.exp(-(((surface_dist - _GAUSS2_OFFSET) / _GAUSS2_WIDTH) ** 2))
    shape = float(((gauss1 + _GAUSS2_WEIGHT * gauss2) * within).sum())

    # steric clash: quadratic in surface overlap
    overlap = np.where(surface_dist < 0, surface_dist, 0.0)
    repulsion = float(((overlap**2) * within).sum())

    lig_hydro = np.array([a.hydrophobic for a in lig_atoms], dtype=float)
    pocket_hydro = np.array([a.hydrophobic for a in pocket_atoms], dtype=float)
    hydro_ramp = np.clip((_HYDROPHOBIC_RAMP - surface_dist) / _HYDROPHOBIC_RAMP, 0.0, 1.0)
    hydrophobic = float(((lig_hydro[:, None] * pocket_hydro[None, :]) * hydro_ramp * within).sum())

    lig_donor = np.array([a.hbond_donor for a in lig_atoms], dtype=float)
    lig_acceptor = np.array([a.hbond_acceptor for a in lig_atoms], dtype=float)
    pocket_donor = np.array([a.hbond_donor for a in pocket_atoms], dtype=float)
    pocket_acceptor = np.array([a.hbond_acceptor for a in pocket_atoms], dtype=float)
    hbond_pairs = (
        lig_donor[:, None] * pocket_acceptor[None, :] + lig_acceptor[:, None] * pocket_donor[None, :]
    )
    hbond_ramp = np.clip((_HBOND_RAMP - surface_dist) / _HBOND_RAMP, 0.0, 1.0)
    hbond = float((hbond_pairs * hbond_ramp * within).sum())

    lig_q = np.array([a.partial_charge for a in lig_atoms])
    pocket_q = np.array([a.partial_charge for a in pocket_atoms])
    electrostatic = float(
        ((-lig_q[:, None] * pocket_q[None, :]) / np.maximum(dist, _ELECTROSTATIC_FLOOR) * within).sum()
    )

    # fraction of ligand atoms buried in the pocket (any contact < 4.5 A)
    buried = float((dist.min(axis=1) < _BURIAL_CONTACT).mean())

    return InteractionTerms(
        shape=shape,
        repulsion=repulsion,
        hydrophobic=hydrophobic,
        hbond=hbond,
        electrostatic=electrostatic,
        buried_fraction=buried,
        rotatable_bonds=float(complex_.ligand.rotatable_bonds()),
        ligand_heavy_atoms=float(complex_.ligand.num_atoms),
    )


def reference_pk(model: InteractionModel, complex_: ProteinLigandComplex) -> float:
    """Latent pK of one complex from :func:`reference_terms`."""
    return float(model.pk_from_terms(reference_terms(model, complex_)))


def reference_score(scorer, complex_: ProteinLigandComplex) -> float:
    """One complex's score under a docking scorer, from :func:`reference_terms`.

    A Vina / MM/GBSA scorer weights the terms and adds its systematic
    error of ``(complex_id, pose_id)``; :class:`MaximizePkScorer` scores
    the negated latent pK.
    """
    if isinstance(scorer, MaximizePkScorer):
        return -reference_pk(scorer.interaction_model, complex_)
    raw = scorer._weighted_terms(reference_terms(scorer._interactions, complex_))
    raw += scorer._systematic_error_for(complex_.complex_id, complex_.pose_id) * PK_TO_KCAL
    return float(raw)


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
    """One restart chain at a time, one :func:`reference_score` per pose.

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
        return reference_score(self.scorer, ProteinLigandComplex(site, pose, complex_id=complex_id))


def reference_rescore(rescorer, poses, max_poses: int | None = None) -> list[float]:
    """Re-score docked poses with one :func:`reference_score` call each."""
    selected = poses if max_poses is None else poses[: int(max_poses)]
    return [reference_score(rescorer, p.complex) for p in selected]

