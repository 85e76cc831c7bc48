"""Docking engine: lockstep Monte-Carlo restarts on the pairwise kernel.

Docking is the campaign's dominant compute stage (§4.1: ~10 poses/s/node,
about one minute per compound per core).  :class:`PoseGenerator` performs
rigid-body Monte-Carlo search of a ligand inside a binding site under a
scoring function (Vina-style when producing docking data, the latent
interaction model when constructing the "crystal" poses of the synthetic
PDBbind set) and keeps up to 10 best poses per compound and site, as
ConveyorLC's CDT3Docking stage does:

* all restart chains run in lockstep — per MC step the docker perturbs,
  scores and Metropolis-accepts every chain at once, scoring the stacked
  ``(restarts, N, 3)`` pose tensor through one
  ``scorer.make_batch_kernel`` call (``InteractionModel.batch_kernel``
  underneath);
* :func:`select_pose_indices` clusters the candidates over one
  pairwise-RMSD matrix (:func:`pairwise_rmsd`);
* :func:`dock_many` docks a batch of ligands into one site, one compound
  after another, under per-compound seeds that match ``CDT3Docking``.

Random-stream protocol
----------------------
Each Monte-Carlo restart draws from its own ``numpy`` generator seeded
via ``derive_seed(base_seed, "mc-restart", restart_index)``.  Restart
chains are therefore statistically independent *and* reproducible
regardless of how many chains run, or in what order — chain ``r`` of a
width-``R`` run equals chain ``r`` of any wider run.  Within a chain the
draw order is fixed: placement rotation, placement jitter, then per step
translation → angle → axis, and a Metropolis uniform drawn *only* when
the proposal did not improve the score.  The per-pose scalar loop this
engine replaced is kept as a test oracle (``tests/docking_oracle.py``);
the two are bit-identical.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.poses import (
    DockedPose,
    initial_pose_coords,
    molecule_with_coordinates,
    perturbed_coords,
)
from repro.telemetry import current as current_telemetry
from repro.utils.rng import derive_seed


def pairwise_rmsd(coords: np.ndarray) -> np.ndarray:
    """``(M, M)`` heavy-atom RMSD matrix of ``M`` stacked poses ``(M, N, 3)``.

    One broadcast computation replaces ``M²`` nested
    :func:`repro.docking.poses.rmsd` calls; each entry reduces over the
    same contiguous per-pair layout as ``Molecule.rmsd_to``, so entries
    are bit-identical to it.
    """
    coords = np.asarray(coords, dtype=np.float64)
    diff = coords[:, None, :, :] - coords[None, :, :, :]
    return np.sqrt((diff**2).sum(axis=-1).mean(axis=-1))


def rmsd_to_reference(coords: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``(M,)`` RMSD of stacked poses ``(M, N, 3)`` to one reference pose."""
    diff = np.asarray(coords, dtype=np.float64) - np.asarray(reference, dtype=np.float64)
    return np.sqrt((diff**2).sum(axis=-1).mean(axis=-1))


def select_pose_indices(
    scores: Sequence[float],
    rmsd_matrix: np.ndarray,
    num_poses: int,
    min_separation: float,
) -> list[int]:
    """Greedy diverse-pose selection over a precomputed RMSD matrix.

    Candidates are visited in increasing-score order (stable for ties, so
    chain order breaks them exactly like ``list.sort``); a candidate is
    kept when it sits at least ``min_separation`` from every
    already-kept pose.  The output depends only on the ordered candidate
    list — not on how many Monte-Carlo chains produced it — which is the
    batch-width invariance the property tests pin down.
    """
    order = sorted(range(len(scores)), key=lambda index: scores[index])
    selected: list[int] = []
    for index in order:
        if len(selected) >= num_poses:
            break
        if all(rmsd_matrix[index, kept] >= min_separation for kept in selected):
            selected.append(index)
    return selected


def check_search_parameters(
    num_poses: int, monte_carlo_steps: int, restarts: int, temperature: float = 1.2
) -> None:
    """Reject a Monte-Carlo search configuration before any docking runs."""
    if num_poses <= 0:
        raise ValueError("num_poses must be positive")
    if restarts <= 0:
        raise ValueError("restarts must be positive")
    if monte_carlo_steps < 0:
        raise ValueError("monte_carlo_steps must be non-negative")
    if not temperature > 0:
        raise ValueError("temperature must be positive")


class PoseGenerator:
    """Lockstep Monte-Carlo rigid-body pose search.

    Parameters
    ----------
    scorer:
        Object exposing ``make_batch_kernel(site, ligand, complex_id=...)``
        that returns a closure scoring stacked ``(P, N, 3)`` poses, lower
        is better (kcal/mol-like) — ``VinaScorer``, ``MMGBSARescorer`` and
        ``MaximizePkScorer`` all do.
    num_poses:
        Number of distinct poses to retain (10 in ConveyorLC).
    monte_carlo_steps:
        Number of MC perturbation steps per restart.
    restarts:
        Number of independent random restarts (8 MC simulations per
        compound in the paper's Vina configuration).
    temperature:
        Metropolis acceptance temperature in score units (positive).
    min_pose_separation:
        Minimum heavy-atom RMSD between two retained poses.
    seed:
        Base seed of the per-restart streams (module docstring). An
        existing generator (or ``None``) contributes one integer draw
        (or OS entropy) as the base seed.
    """

    def __init__(
        self,
        scorer,
        num_poses: int = 10,
        monte_carlo_steps: int = 60,
        restarts: int = 4,
        temperature: float = 1.2,
        min_pose_separation: float = 0.75,
        seed=None,
    ) -> None:
        check_search_parameters(num_poses, monte_carlo_steps, restarts, temperature)
        if not callable(getattr(scorer, "make_batch_kernel", None)):
            raise TypeError(f"scorer {type(scorer).__name__} does not implement make_batch_kernel")
        self.scorer = scorer
        self.num_poses = int(num_poses)
        self.monte_carlo_steps = int(monte_carlo_steps)
        self.restarts = int(restarts)
        self.temperature = float(temperature)
        self.min_pose_separation = float(min_pose_separation)
        self.base_seed = _normalize_seed(seed)

    # ------------------------------------------------------------------ #
    def restart_rng(self, restart: int) -> np.random.Generator:
        """The independent random stream of one Monte-Carlo restart chain."""
        return np.random.default_rng(derive_seed(self.base_seed, "mc-restart", int(restart)))

    # ------------------------------------------------------------------ #
    def dock(
        self,
        site: BindingSite,
        ligand: Molecule,
        complex_id: str = "",
        reference: Molecule | None = None,
    ) -> list[DockedPose]:
        """Dock ``ligand`` into ``site`` and return up to ``num_poses`` poses.

        Poses are sorted by increasing score (best first). If ``reference``
        is given, each pose's RMSD to it is recorded (the paper filters
        core-set docking poses at RMSD < 1 A of the crystal pose).
        """
        # observation only: spans and counters never touch the restart RNG
        # streams, so tracing on/off cannot move a bit of any pose
        telemetry = current_telemetry()
        kernel_calls = self.monte_carlo_steps + 1
        with telemetry.tracer.span("mc-dock") as span:
            span.set("restarts", self.restarts)
            span.set("mc_steps", self.monte_carlo_steps)
            span.set("kernel_calls", kernel_calls)
            scores, coords = self.run_chains(site, ligand, complex_id)
        registry = telemetry.registry
        registry.counter("docking.compounds").inc()
        registry.counter("docking.kernel_calls").inc(kernel_calls)
        registry.counter("docking.poses_scored").inc(kernel_calls * self.restarts)
        rmsd_matrix = pairwise_rmsd(coords)
        selected = select_pose_indices(scores, rmsd_matrix, self.num_poses, self.min_pose_separation)
        if reference is not None:
            reference_rmsds = rmsd_to_reference(coords[selected], reference.coordinates)
        poses: list[DockedPose] = []
        for pose_id, index in enumerate(selected):
            pose = molecule_with_coordinates(ligand, coords[index])
            complex_ = ProteinLigandComplex(site, pose, complex_id=complex_id, pose_id=pose_id)
            pose_rmsd = float(reference_rmsds[pose_id]) if reference is not None else float("nan")
            poses.append(
                DockedPose(
                    complex=complex_,
                    score=float(scores[index]),
                    pose_id=pose_id,
                    rmsd_to_reference=pose_rmsd,
                )
            )
        return poses

    # ------------------------------------------------------------------ #
    def run_chains(
        self, site: BindingSite, ligand: Molecule, complex_id: str = ""
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run all restart chains in lockstep; return the candidate pool.

        Returns ``(scores, coords)`` of the ``2 × restarts`` clustering
        candidates in chain order — each chain contributes its best pose
        followed by its final pose.
        """
        # the kernel binds the (site, ligand) pair constants once for the
        # whole MC search — this is where the batched win lives
        kernel = self.scorer.make_batch_kernel(site, ligand, complex_id=complex_id)
        base_coords = ligand.coordinates
        rngs = [self.restart_rng(restart) for restart in range(self.restarts)]
        coords = np.stack([initial_pose_coords(site, base_coords, rng) for rng in rngs])
        current = kernel(coords)
        best_coords = coords.copy()
        best_scores = current.copy()
        proposals = np.empty_like(coords)
        for step in range(self.monte_carlo_steps):
            for index, rng in enumerate(rngs):
                proposals[index] = perturbed_coords(coords[index], rng, step, self.monte_carlo_steps)
            proposal_scores = kernel(proposals)
            deltas = proposal_scores - current
            # Metropolis acceptance stays per-chain: the uniform draw is
            # conditional on the proposal not improving, so consuming it
            # unconditionally would desynchronize the restart streams.
            for index, rng in enumerate(rngs):
                delta = float(deltas[index])
                if delta < 0 or rng.random() < np.exp(-delta / self.temperature):
                    coords[index] = proposals[index]
                    current[index] = proposal_scores[index]
                    if current[index] < best_scores[index]:
                        best_coords[index] = coords[index]
                        best_scores[index] = current[index]

        candidate_scores = np.empty(2 * self.restarts)
        candidate_coords = np.empty((2 * self.restarts,) + coords.shape[1:])
        for index in range(self.restarts):
            candidate_scores[2 * index] = best_scores[index]
            candidate_coords[2 * index] = best_coords[index]
            candidate_scores[2 * index + 1] = current[index]
            candidate_coords[2 * index + 1] = coords[index]
        return candidate_scores, candidate_coords


def dock_many(
    site: BindingSite,
    ligands: Sequence[tuple[str, Molecule]],
    *,
    scorer,
    seed: int,
    num_poses: int = 10,
    monte_carlo_steps: int = 60,
    restarts: int = 4,
    temperature: float = 1.2,
    min_pose_separation: float = 0.75,
    site_name: str | None = None,
    references: Mapping[str, Molecule] | None = None,
) -> dict[str, list[DockedPose]]:
    """Dock many ligands into one site, one compound after another.

    Parameters
    ----------
    ligands:
        ``(compound_id, molecule)`` pairs; the result maps each
        ``compound_id`` to its docked poses in input order.  Duplicate
        compound ids collapse to the last entry — the same later-wins
        outcome the per-record ``DockingDatabase.add`` has always
        produced (duplicates share a seed, so their poses are identical
        anyway).
    seed:
        Stage-level seed.  Each compound docks under
        ``derive_seed(seed, "dock", site_name, compound_id)`` — the exact
        derivation ``CDT3Docking`` has always used, so results are
        independent of batch composition.  Parallelism lives one level
        up, in the streamed screen's shard workers.
    references:
        Optional per-compound crystal poses for RMSD bookkeeping.
    """
    site_name = site.name if site_name is None else site_name
    references = references or {}
    results: dict[str, list[DockedPose]] = {}
    with current_telemetry().span("dock-many") as span:
        span.set("ligands", len(ligands))
        for compound_id, molecule in ligands:
            docker = PoseGenerator(
                scorer,
                num_poses=num_poses,
                monte_carlo_steps=monte_carlo_steps,
                restarts=restarts,
                temperature=temperature,
                min_pose_separation=min_pose_separation,
                seed=derive_seed(seed, "dock", site_name, compound_id),
            )
            results[compound_id] = docker.dock(
                site, molecule, complex_id=compound_id, reference=references.get(compound_id)
            )
    return results


def _normalize_seed(seed) -> int:
    """Normalize ``seed`` into the integer base seed of the restart streams."""
    if seed is None:
        return int(np.random.default_rng().integers(0, 2**63 - 1))
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    return int(seed)
