"""Docking engine: shard-wide lockstep Monte-Carlo search on the pairwise kernel.

Docking is the campaign's dominant compute stage (§4.1: ~10 poses/s/node,
about one minute per compound per core).  :class:`PoseGenerator` performs
rigid-body Monte-Carlo search of ligands inside a binding site under a
scoring function (Vina-style when producing docking data, the latent
interaction model when constructing the "crystal" poses of the synthetic
PDBbind set) and keeps up to 10 best poses per compound and site, as
ConveyorLC's CDT3Docking stage does:

* every compound × restart chain of a site runs in lockstep — per MC
  step the docker draws every chain's move, applies the moves per
  compound, scores all proposals through **one** fused
  ``scorer.make_batch_kernel`` call over the ``(restarts, ΣN, 3)`` pose
  tensor (the compounds' atoms end to end;
  ``InteractionModel.batch_kernel`` underneath) and Metropolis-accepts
  chain by chain;
* :func:`select_pose_indices` clusters each compound's candidates over
  one pairwise-RMSD matrix (:func:`pairwise_rmsd`);
* :func:`dock_many` docks a batch of ligands into one site as one
  lockstep (split by :func:`~repro.chem.complexes.kernel_groups` into
  groups of at most ``KERNEL_CHUNK_PAIRS`` pairs), under per-compound
  seeds that match ``CDT3Docking``; :meth:`PoseGenerator.dock` is its
  one-compound case.

Random-stream protocol
----------------------
Each Monte-Carlo restart draws from its own ``numpy`` generator seeded
via ``derive_seed(base_seed, "mc-restart", restart_index)``, with the
compound's own base seed.  Restart chains are therefore statistically
independent *and* reproducible regardless of how many chains or
compounds run, or in what order — chain ``r`` of a width-``R`` run
equals chain ``r`` of any wider run, and a compound's chains do not see
its companions.  Within a chain the draw order is fixed: placement
rotation, placement jitter, then per step the seven standard normals of
a move (translation → angle → axis), and a Metropolis uniform drawn
*only* when the proposal did not improve the score.  The per-pose scalar
loop this engine replaced is kept as a test oracle
(``tests/docking_oracle.py``); the two are bit-identical.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex, kernel_groups
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.poses import (
    MOVE_DRAWS,
    DockedPose,
    apply_rigid_moves,
    initial_pose_coords,
    molecule_with_coordinates,
    rigid_moves,
)
from repro.telemetry import current as current_telemetry
from repro.utils.rng import derive_seed


def pairwise_rmsd(coords: np.ndarray) -> np.ndarray:
    """``(M, M)`` heavy-atom RMSD matrix of ``M`` stacked poses ``(M, N, 3)``.

    One broadcast computation replaces ``M²`` nested per-pair RMSD
    calls; each entry reduces over the same contiguous per-pair layout as
    the scalar RMSD of two poses, so entries are bit-identical to it.
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
    """Lockstep Monte-Carlo rigid-body pose search over compounds × restarts.

    Parameters
    ----------
    scorer:
        Object exposing ``make_batch_kernel(site, ligands, complex_ids)``
        that returns a closure scoring a stacked ``(R, ΣN, 3)`` pose
        tensor of ``C`` ligands into ``C * R`` compound-major scores,
        lower is better (kcal/mol-like) — ``VinaScorer``,
        ``MMGBSARescorer`` and ``MaximizePkScorer`` all do.
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
    def restart_rng(self, restart: int, base_seed: int | None = None) -> np.random.Generator:
        """The independent random stream of one Monte-Carlo restart chain.

        ``base_seed`` defaults to the generator's own; a lockstep over
        several compounds passes each compound's seed.
        """
        base_seed = self.base_seed if base_seed is None else base_seed
        return np.random.default_rng(derive_seed(base_seed, "mc-restart", int(restart)))

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
        core-set docking poses at RMSD < 1 A of the crystal pose).  The
        one-compound case of :meth:`dock_lockstep`, under this generator's
        seed.
        """
        return self.dock_lockstep(site, [ligand], [complex_id], [self.base_seed], [reference])[0]

    def dock_lockstep(
        self,
        site: BindingSite,
        ligands: Sequence[Molecule],
        complex_ids: Sequence[str],
        seeds: Sequence[int],
        references: Sequence[Molecule | None],
    ) -> list[list[DockedPose]]:
        """Dock ``C`` compounds into ``site`` in one lockstep; poses per compound.

        Compound ``c`` docks under base seed ``seeds[c]`` and is scored
        as ``complex_ids[c]``; its poses equal a one-compound
        :meth:`dock` under that seed, whatever its companions.
        """
        # observation only: spans and counters never touch the restart RNG
        # streams, so tracing on/off cannot move a bit of any pose
        telemetry = current_telemetry()
        kernel_calls = self.monte_carlo_steps + 1
        with telemetry.tracer.span("mc-dock") as span:
            span.set("compounds", len(ligands))
            span.set("restarts", self.restarts)
            span.set("mc_steps", self.monte_carlo_steps)
            span.set("kernel_calls", kernel_calls)
            candidates = self.run_chains(site, ligands, complex_ids, seeds)
        registry = telemetry.registry
        registry.counter("docking.compounds").inc(len(ligands))
        registry.counter("docking.kernel_calls").inc(kernel_calls)
        registry.counter("docking.poses_scored").inc(kernel_calls * self.restarts * len(ligands))
        return [
            self._select_poses(site, ligand, complex_id, reference, scores, coords)
            for ligand, complex_id, reference, (scores, coords) in zip(
                ligands, complex_ids, references, candidates
            )
        ]

    def _select_poses(self, site, ligand, complex_id, reference, scores, coords) -> list[DockedPose]:
        """Cluster one compound's candidates into its best-first docked poses."""
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
        self,
        site: BindingSite,
        ligands: Sequence[Molecule],
        complex_ids: Sequence[str],
        seeds: Sequence[int],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Run every compound × restart chain in lockstep; return the candidate pools.

        Chain ``(c, r)`` is restart ``r`` of compound ``c``.  The chains'
        poses live in one ``(restarts, ΣN, 3)`` tensor (compound ``c`` in
        its own atom block), so each MC step is one fused kernel call.
        Returns, per compound, ``(scores, coords)`` of its
        ``2 × restarts`` clustering candidates in chain order — each
        chain contributes its best pose followed by its final pose.
        """
        # the kernel binds the pair constants of every (site, ligand) once
        # for the whole MC search; a zero-atom ligand or site fails here,
        # before any chain draws
        kernel = self.scorer.make_batch_kernel(site, ligands, complex_ids)
        restarts, steps = self.restarts, self.monte_carlo_steps
        sizes = [ligand.num_atoms for ligand in ligands]
        bounds = np.cumsum([0] + sizes).tolist()
        blocks = list(zip(bounds[:-1], bounds[1:]))
        rngs = [self.restart_rng(r, seed) for seed in seeds for r in range(restarts)]
        coords = np.empty((restarts, bounds[-1], 3))
        for index, (ligand, (start, stop)) in enumerate(zip(ligands, blocks)):
            base_coords = ligand.coordinates
            for r in range(restarts):
                rng = rngs[index * restarts + r]
                coords[r, start:stop] = initial_pose_coords(site, base_coords, rng)
        # chain index of every atom slot: indexing a per-chain flag array
        # with it masks whole chains of the pose tensor
        compound_of_atom = np.repeat(np.arange(len(sizes)), sizes)
        atom_chain = (np.arange(restarts)[:, None] + restarts * compound_of_atom)[:, :, None]
        current = kernel(coords)
        best_coords = coords.copy()
        best_scores = current.copy()
        draws = np.empty((len(rngs), MOVE_DRAWS))
        proposals = np.empty_like(coords)
        for step in range(steps):
            for index, rng in enumerate(rngs):
                rng.standard_normal(out=draws[index])
            rotations, translations = rigid_moves(draws, step, steps)
            for index, (start, stop) in enumerate(blocks):
                chains = slice(index * restarts, (index + 1) * restarts)
                proposals[:, start:stop] = apply_rigid_moves(
                    coords[:, start:stop], rotations[chains], translations[chains]
                )
            proposal_scores = kernel(proposals)
            deltas = proposal_scores - current
            # Metropolis acceptance: the uniform is drawn only for a
            # proposal that did not improve, chain by chain, so consuming
            # it unconditionally would desynchronize the restart streams
            accept = deltas < 0
            uphill = np.flatnonzero(~accept)
            if uphill.size:
                odds = np.exp(-deltas[uphill] / self.temperature)
                for index, odd in zip(uphill.tolist(), odds):
                    accept[index] = rngs[index].random() < odd
            current = np.where(accept, proposal_scores, current)
            improved = accept & (current < best_scores)
            best_scores = np.where(improved, current, best_scores)
            np.copyto(coords, proposals, where=accept[atom_chain])
            np.copyto(best_coords, proposals, where=improved[atom_chain])

        candidates = []
        for index, (start, stop) in enumerate(blocks):
            chains = slice(index * restarts, (index + 1) * restarts)
            scores = np.stack([best_scores[chains], current[chains]], axis=1).reshape(-1)
            pool = np.stack([best_coords[:, start:stop], coords[:, start:stop]], axis=1)
            candidates.append((scores, pool.reshape(2 * restarts, stop - start, 3)))
        return candidates


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
    """Dock many ligands into one site in lockstep.

    Parameters
    ----------
    ligands:
        ``(compound_id, molecule)`` pairs; the result maps each
        ``compound_id`` to its docked poses in input order.  Duplicate
        compound ids collapse to the last entry before docking — the
        same later-wins outcome the per-record ``DockingDatabase.add``
        has always produced.
    seed:
        Stage-level seed.  Each compound docks under
        ``derive_seed(seed, "dock", site_name, compound_id)`` — the exact
        derivation ``CDT3Docking`` has always used, so results are
        independent of batch composition.  All compounds step in one
        lockstep (:meth:`PoseGenerator.dock_lockstep`), split into groups
        of at most :data:`~repro.chem.complexes.KERNEL_CHUNK_PAIRS`
        pairs.  Parallelism lives one level up, in the streamed screen's
        shard workers.
    references:
        Optional per-compound crystal poses for RMSD bookkeeping.
    """
    docker = PoseGenerator(
        scorer,
        num_poses=num_poses,
        monte_carlo_steps=monte_carlo_steps,
        restarts=restarts,
        temperature=temperature,
        min_pose_separation=min_pose_separation,
        seed=seed,
    )
    site_name = site.name if site_name is None else site_name
    references = references or {}
    unique = dict(ligands)
    results: dict[str, list[DockedPose]] = {}
    with current_telemetry().span("dock-many") as span:
        span.set("ligands", len(ligands))
        for group in kernel_groups(list(unique.items()), restarts * site.num_atoms):
            ids = [compound_id for compound_id, _ in group]
            docked = docker.dock_lockstep(
                site,
                [molecule for _, molecule in group],
                ids,
                [derive_seed(seed, "dock", site_name, compound_id) for compound_id in ids],
                [references.get(compound_id) for compound_id in ids],
            )
            results.update(zip(ids, docked))
    return results


def _normalize_seed(seed) -> int:
    """Normalize ``seed`` into the integer base seed of the restart streams."""
    if seed is None:
        return int(np.random.default_rng().integers(0, 2**63 - 1))
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    return int(seed)
