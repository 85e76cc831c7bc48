"""Protein-ligand complexes and the latent interaction model.

The reproduction replaces experimentally measured binding affinities with
a *latent interaction model*: a deterministic, physically-motivated
function of the 3-D complex (shape complementarity, hydrophobic contacts,
hydrogen bonds, electrostatics, steric clashes and a conformational
entropy penalty) that defines the ground-truth pK of every synthetic
complex.  Every other affinity estimate in the system is an imperfect
view of this latent value:

* the *experimental label* used for training adds assay noise (larger for
  the PDBbind ``general`` stratum than for ``refined``);
* the Vina-like and MM/GBSA-like scorers recompute related but
  differently-weighted terms from (possibly perturbed) geometry, giving
  the systematic errors that physics scorers exhibit in the paper;
* the deep models must learn the mapping from the featurized structure.

This construction preserves the relationships the paper's evaluation
measures (ML > physics scoring on docked poses, noisier docking data,
target-dependent difficulty) without access to PDBbind itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite

#: RT ln(10) at 298 K in kcal/mol — converts pK to binding free energy.
PK_TO_KCAL = 1.364

# Pairwise-term constants.  In ``src/`` only the ``batch_kernel`` closure
# reads them: it is the one evaluation of the pairwise terms, which
# docking, rescoring and the latent pK all call.  The scalar reference in
# ``tests/docking_oracle.py`` imports the same values.
_GAUSS1_WIDTH = 0.8
_GAUSS2_OFFSET = 2.0
_GAUSS2_WIDTH = 2.5
_GAUSS2_WEIGHT = 0.4
_HYDROPHOBIC_RAMP = 1.8
_HBOND_RAMP = 0.9
_BURIAL_CONTACT = 4.5
_ELECTROSTATIC_FLOOR = 1.0


@dataclass
class ProteinLigandComplex:
    """A ligand posed inside a binding site.

    Attributes
    ----------
    site:
        The (rigid) binding site.
    ligand:
        The ligand molecule, with coordinates expressed in the site frame.
    complex_id:
        Identifier of the protein-ligand pair (e.g. the synthetic PDB code
        or the library compound id).
    pose_id:
        Index of the pose (0 for the crystal/native pose; docking produces
        up to 10 additional poses per compound and site, as in ConveyorLC).
    metadata:
        Free-form annotations (e.g. docking scores, RMSD to native).
    """

    site: BindingSite
    ligand: Molecule
    complex_id: str = ""
    pose_id: int = 0
    metadata: dict = field(default_factory=dict)

    def ligand_coordinates(self) -> np.ndarray:
        return self.ligand.coordinates


@dataclass(frozen=True)
class BatchedInteractionTerms:
    """Interaction terms of ``P`` poses; every field is a ``(P,)`` float64 array.

    Produced by :meth:`InteractionModel.batch_kernel` (and its one-ligand
    form :meth:`InteractionModel.compute_terms_batch`).  The fields are
    dimensionless counts and sums: shape complementarity, steric
    repulsion, hydrophobic and hydrogen-bond contacts, electrostatics,
    the buried fraction of ligand atoms, rotatable bonds and heavy atoms.
    """

    shape: np.ndarray
    repulsion: np.ndarray
    hydrophobic: np.ndarray
    hbond: np.ndarray
    electrostatic: np.ndarray
    buried_fraction: np.ndarray
    rotatable_bonds: np.ndarray
    ligand_heavy_atoms: np.ndarray


def ligand_interaction_arrays(ligand: Molecule):
    """Cached ``(AtomArrays, rotatable_bonds, heavy_atoms)`` for a ligand.

    Rigid-body docking changes only coordinates, so the per-atom property
    arrays and the topology-derived rotatable-bond count (a networkx
    cycle basis) are extracted once per molecule and memoized on the
    instance; every pose copy of a docked ligand shares them.  Callers
    must pass pose coordinates explicitly — the cached ``coords`` field
    reflects the molecule at extraction time and is never read by the
    kernel.
    """
    cached = getattr(ligand, "_interaction_arrays", None)
    if cached is None:
        from repro.featurize.atom_features import atom_arrays

        cached = (
            atom_arrays(ligand.atoms),
            float(ligand.rotatable_bonds()),
            float(ligand.num_atoms),
        )
        ligand._interaction_arrays = cached
    return cached


class InteractionModel:
    """Latent physics defining ground-truth binding affinity.

    Parameters are chosen so that random drug-like ligands docked into
    random pockets produce pK values roughly normally distributed over
    [2, 11] with a standard deviation near 1.8 — matching the dynamic
    range of PDBbind labels.
    """

    def __init__(
        self,
        cutoff: float = 6.0,
        shape_weight: float = 0.16,
        hydrophobic_weight: float = 0.65,
        hbond_weight: float = 1.7,
        electrostatic_weight: float = 0.6,
        repulsion_weight: float = 0.55,
        rotor_penalty: float = 0.35,
        burial_weight: float = 0.8,
        base_pk: float = 0.5,
    ) -> None:
        self.cutoff = float(cutoff)
        self.shape_weight = float(shape_weight)
        self.hydrophobic_weight = float(hydrophobic_weight)
        self.hbond_weight = float(hbond_weight)
        self.electrostatic_weight = float(electrostatic_weight)
        self.repulsion_weight = float(repulsion_weight)
        self.rotor_penalty = float(rotor_penalty)
        self.burial_weight = float(burial_weight)
        self.base_pk = float(base_pk)

    # ------------------------------------------------------------------ #
    # batched kernel
    # ------------------------------------------------------------------ #
    def compute_terms_batch(self, site, ligand: Molecule, coords) -> BatchedInteractionTerms:
        """Interaction terms of ``P`` rigid-body poses of one ligand.

        Parameters
        ----------
        site:
            The (rigid) binding site; its property arrays are extracted
            once and memoized on the instance (shared with the
            featurization engine's :func:`site_arrays` cache).
        ligand:
            Template molecule providing per-atom properties and topology;
            its own coordinates are ignored.
        coords:
            ``(P, num_atoms, 3)`` stacked pose coordinates (a single
            ``(num_atoms, 3)`` pose is promoted to ``P = 1``).

        The ``C = 1`` case of :meth:`batch_kernel`, with the pose tensor
        validated first.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 2:
            coords = coords[None, :, :]
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(f"expected pose coordinates of shape (P, N, 3), got {coords.shape}")
        if coords.shape[1] != ligand.num_atoms:
            raise ValueError(
                f"pose tensor has {coords.shape[1]} atoms but ligand has {ligand.num_atoms}"
            )
        return self.batch_kernel(site, [ligand])(coords)

    def batch_kernel(self, site, ligands: Sequence[Molecule]):
        """Pairwise-interaction kernel bound to one site and ``C`` ligands.

        The ligands' atoms are laid end to end along the ligand axis, so
        the returned closure maps a stacked ``(R, ΣN, 3)`` pose tensor —
        row ``r`` holds pose ``r`` of every ligand, ligand ``c`` in atoms
        ``offsets[c]:offsets[c + 1]`` — to :class:`BatchedInteractionTerms`
        of ``C * R`` poses in compound-major order (index ``c * R + r``).
        One ligand is the ``C = 1`` case of the same code.

        Every coordinate-independent quantity — pocket arrays, ligand
        property arrays, the vdW radii sums and the hydrophobic /
        hydrogen-bond / charge pair products, joined along the ligand
        axis — is computed once here; each call does only
        coordinate-dependent work, every elementwise step once over all
        ligands' pairs.  This is the hot path of the lockstep Monte-Carlo
        docker: one lockstep builds the kernel once and calls it per MC
        step for all of a site's compounds.
        """
        from repro.featurize.atom_features import site_arrays

        pocket = site_arrays(site)[0]
        per_ligand = [ligand_interaction_arrays(ligand) for ligand in ligands]
        if pocket.num_atoms == 0 or any(arrays.num_atoms == 0 for arrays, _, _ in per_ligand):
            raise ValueError("complex must contain both ligand and pocket atoms")

        def joined(field: str) -> np.ndarray:
            return np.concatenate([getattr(arrays, field) for arrays, _, _ in per_ligand])

        radii_flat = (joined("vdw_radius")[:, None] + pocket.vdw_radius).ravel()
        hydro_flat = (joined("hydrophobic")[:, None] * pocket.hydrophobic).ravel()
        hbond_flat = (
            joined("hbond_donor")[:, None] * pocket.hbond_acceptor
            + joined("hbond_acceptor")[:, None] * pocket.hbond_donor
        ).ravel()
        charge_flat = (-joined("partial_charge")[:, None] * pocket.partial_charge).ravel()
        rotatable = np.array([rot for _, rot, _ in per_ligand])
        heavy = np.array([count for _, _, count in per_ligand])
        pocket_xyz = np.ascontiguousarray(pocket.coords.T)
        sizes = np.array([arrays.num_atoms for arrays, _, _ in per_ligand])
        starts = np.cumsum(sizes) - sizes
        blocks = list(zip(starts.tolist(), np.cumsum(sizes).tolist()))
        cutoff = self.cutoff
        num_ligands, total_atoms, n_pocket = len(sizes), int(sizes.sum()), pocket.num_atoms
        pairs_per_pose = total_atoms * n_pocket
        # per-batch-width scratch buffers: the MC docker calls the kernel
        # once per step at a fixed width, so the full-size intermediates
        # are written in place instead of allocated per call
        scratch: dict[int, dict[str, np.ndarray]] = {}

        def buffers(num_poses: int) -> dict[str, np.ndarray]:
            buf = scratch.get(num_poses)
            if buf is None:
                pair_shape = (num_poses, total_atoms, n_pocket)
                buf = {
                    "dist": np.empty(pair_shape),
                    "component": np.empty(pair_shape),
                    "within": np.empty(pair_shape, dtype=bool),
                    "terms": np.empty((5,) + pair_shape),
                    "min_dist": np.empty((num_poses, total_atoms)),
                    "buried": np.empty((num_poses, total_atoms), dtype=bool),
                    "rotatable": np.repeat(rotatable, num_poses),
                    "heavy": np.repeat(heavy, num_poses),
                }
                scratch[num_poses] = buf
            return buf

        def kernel(coords: np.ndarray) -> BatchedInteractionTerms:
            num_poses = coords.shape[0]
            buf = buffers(num_poses)
            within, terms = buf["within"], buf["terms"]

            dist = pair_distances(coords, pocket_xyz, out=buf["dist"], scratch=buf["component"])
            np.less_equal(dist, cutoff, out=within)

            # Every term is a pairwise quantity times ``within``, so the
            # surface distances and the transcendental math run only on
            # the within-cutoff pairs; scattering into zeroed buffers
            # reproduces the zeros the scalar reference's ``* within``
            # writes elsewhere (up to the sign of zero, which no sum with a
            # nonzero term can see), and the per-ligand sums then reduce
            # the same contiguous rows.
            inside = np.nonzero(within.ravel())[0]
            pair_index = inside % pairs_per_pose
            d = dist.ravel()[inside]
            s = d - radii_flat[pair_index]
            terms[...] = 0.0
            flat = terms.reshape(5, -1)

            gauss1 = np.exp(-((s / _GAUSS1_WIDTH) ** 2))
            gauss2 = np.exp(-(((s - _GAUSS2_OFFSET) / _GAUSS2_WIDTH) ** 2))
            flat[0, inside] = gauss1 + _GAUSS2_WEIGHT * gauss2

            # minimum(x, 0) and the reference's where(x < 0, x, 0) agree
            # after squaring (only the sign of zero can differ)
            overlap = np.minimum(s, 0.0)
            flat[1, inside] = overlap**2

            hydro_ramp = np.clip((_HYDROPHOBIC_RAMP - s) / _HYDROPHOBIC_RAMP, 0.0, 1.0)
            flat[2, inside] = hydro_flat[pair_index] * hydro_ramp

            hbond_ramp = np.clip((_HBOND_RAMP - s) / _HBOND_RAMP, 0.0, 1.0)
            flat[3, inside] = hbond_flat[pair_index] * hbond_ramp

            flat[4, inside] = charge_flat[pair_index] / np.maximum(d, _ELECTROSTATIC_FLOOR)

            np.min(dist, axis=2, out=buf["min_dist"])
            np.less(buf["min_dist"], _BURIAL_CONTACT, out=buf["buried"])

            # Each ligand reduces its own (N_c * M) block of every pose:
            # the block is contiguous, so the row sum runs the same
            # pairwise-summation tree as one ligand's ``(N_c, M).sum()``.
            sums = np.empty((5, num_ligands, num_poses))
            for index, (start, stop) in enumerate(blocks):
                block = terms[:, :, start:stop, :].reshape(5 * num_poses, -1)
                sums[:, index, :] = block.sum(axis=1).reshape(5, num_poses)
            sums = sums.reshape(5, -1)
            # counts of 0/1 are exact in any order, so one segmented sum
            # divided by N_c equals each ligand's boolean mean
            buried = np.add.reduceat(buf["buried"], starts, axis=1, dtype=np.float64) / sizes

            return BatchedInteractionTerms(
                shape=sums[0],
                repulsion=sums[1],
                hydrophobic=sums[2],
                hbond=sums[3],
                electrostatic=sums[4],
                buried_fraction=buried.T.reshape(-1),
                rotatable_bonds=buf["rotatable"],
                ligand_heavy_atoms=buf["heavy"],
            )

        return kernel

    # ------------------------------------------------------------------ #
    def true_pk(self, complex_: ProteinLigandComplex) -> float:
        """Ground-truth binding affinity as pK = -log10(K)."""
        coords = complex_.ligand_coordinates()
        return float(self.true_pk_batch(complex_.site, complex_.ligand, coords)[0])

    def true_pk_batch(self, site, ligand: Molecule, coords) -> np.ndarray:
        """Batched :meth:`true_pk` over stacked pose coordinates ``(P, N, 3)``."""
        return self.pk_from_terms(self.compute_terms_batch(site, ligand, coords))

    def pk_from_terms(self, terms) -> np.ndarray:
        """Map interaction terms (scalar or ``(P,)`` arrays) to pK, elementwise.

        Favourable contact terms are normalized per ligand heavy atom
        (ligand-efficiency style) so that larger ligands do not reach
        unphysical affinities merely by touching more pocket atoms; the
        hydrogen-bond and electrostatic terms saturate smoothly.
        """
        heavy = np.maximum(terms.ligand_heavy_atoms, 6.0)
        shape_n = terms.shape / heavy
        repulsion_n = terms.repulsion / heavy
        hydrophobic_n = terms.hydrophobic / heavy
        hbond_n = terms.hbond / heavy
        favourable = (
            self.shape_weight * shape_n
            + self.hydrophobic_weight * hydrophobic_n
            + self.hbond_weight * 4.0 * np.tanh(hbond_n / 1.2)
            + self.electrostatic_weight * np.tanh(terms.electrostatic / 1.5)
        )
        unfavourable = (
            self.repulsion_weight * repulsion_n
            + self.rotor_penalty * np.log1p(terms.rotatable_bonds)
        )
        burial_bonus = self.burial_weight * terms.buried_fraction
        pk = self.base_pk + favourable + burial_bonus - unfavourable
        return np.clip(pk, 0.0, 14.0)


def pair_distances(
    coords: np.ndarray,
    pocket_xyz: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``(P, N, M)`` distances from stacked ``(P, N, 3)`` ligand atoms to ``M`` pocket atoms.

    ``pocket_xyz`` is the pocket's ``(3, M)`` component rows.  Component-major:
    three ``(P, N, M)`` subtractions, one per axis, instead of one
    ``(P, N, M, 3)`` difference tensor whose length-3 innermost axis
    dominated the kernel.  The squares are summed as ``(dx² + dy²) + dz²``
    before the ``sqrt``, one order for every caller
    (:meth:`InteractionModel.batch_kernel` and the scalar test reference).
    ``out`` and ``scratch`` are optional ``(P, N, M)`` buffers.
    """
    shape = coords.shape[:2] + pocket_xyz.shape[1:]
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    np.subtract(coords[:, :, 0, None], pocket_xyz[0], out=out)
    np.multiply(out, out, out=out)
    for axis in (1, 2):
        np.subtract(coords[:, :, axis, None], pocket_xyz[axis], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
    return np.sqrt(out, out=out)


#: Upper bound on the ligand-pocket pairs (rows × Σ ligand atoms × pocket
#: atoms) one :meth:`InteractionModel.batch_kernel` call scores: the
#: kernel keeps seven float64 planes of that size, so a call stays under
#: about 30 MB.  Ligands reduce independently, so splitting them into
#: groups never changes a bit.
KERNEL_CHUNK_PAIRS = 1 << 19


def kernel_groups(ligands: list, pairs_per_atom: int) -> list[list]:
    """Consecutive groups of ``(key, Molecule)`` pairs within :data:`KERNEL_CHUNK_PAIRS` pairs.

    ``pairs_per_atom`` is the pairs one ligand atom adds to a kernel call
    (rows × pocket atoms).  A ligand larger than the bound forms a group
    of its own.  The lockstep docker and the rescoring path share this
    rule.
    """
    groups: list[list] = []
    pairs = 0
    for item in ligands:
        size = item[1].num_atoms * pairs_per_atom
        if not groups or pairs + size > KERNEL_CHUNK_PAIRS:
            groups.append([])
            pairs = 0
        groups[-1].append(item)
        pairs += size
    return groups


#: A module-level default instance shared by dataset generation and scoring.
DEFAULT_INTERACTION_MODEL = InteractionModel()
