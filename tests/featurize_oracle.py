"""Scalar reference implementations of the featurizers.

These are the per-atom loops that ``repro.featurize`` ran before
:class:`repro.featurize.engine.FeaturePipeline` vectorized them: one
Python call per atom for the feature matrix, one Gaussian splat per atom
for the voxel grid, one neighbour-cap pass per adjacency row for the
graph.  They are kept here only as test oracles: the production
featurizers must match them bit for bit (``np.array_equal``), including
the seeded rotation-augmentation stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.chem.atom import Atom
from repro.chem.complexes import ProteinLigandComplex
from repro.featurize.atom_features import ATOM_FEATURE_DIM, ELEMENT_CLASSES, element_class
from repro.featurize.graph import GraphConfig, _row_normalize
from repro.featurize.pipeline import FeaturizedComplex
from repro.featurize.voxelize import VoxelGridConfig, random_axis_rotation
from repro.utils.rng import ensure_rng


def atom_feature_vector(atom: Atom, is_ligand: bool) -> np.ndarray:
    """Feature vector for one atom.

    Layout (length :data:`ATOM_FEATURE_DIM`):

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
    vec = np.zeros(ATOM_FEATURE_DIM)
    vec[element_class(atom)] = 1.0
    offset = len(ELEMENT_CLASSES)
    vec[offset + 0] = float(atom.hydrophobic)
    vec[offset + 1] = float(atom.hbond_donor)
    vec[offset + 2] = float(atom.hbond_acceptor)
    vec[offset + 3] = float(atom.aromatic)
    vec[offset + 4] = float(atom.partial_charge)
    vec[offset + 5] = float(atom.formal_charge)
    vec[offset + 6] = 1.0 if is_ligand else 0.0
    return vec


def atom_feature_matrix(atoms, is_ligand_flags) -> np.ndarray:
    """Stack feature vectors for a list of atoms."""
    return np.array(
        [atom_feature_vector(a, flag) for a, flag in zip(atoms, is_ligand_flags)], dtype=np.float64
    )


class Voxelizer:
    """Convert a :class:`ProteinLigandComplex` into a voxel grid tensor."""

    def __init__(self, config: VoxelGridConfig | None = None) -> None:
        self.config = config or VoxelGridConfig()
        dim = self.config.grid_dim
        if dim < 4:
            raise ValueError("grid_dim must be at least 4")
        # voxel centre coordinates along one axis, grid centred at origin
        half = self.config.extent / 2.0
        self._axis = (np.arange(dim) + 0.5) * self.config.resolution - half

    # ------------------------------------------------------------------ #
    def voxelize(
        self,
        complex_: ProteinLigandComplex,
        rotation: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the voxel tensor of shape ``(C, D, D, D)``.

        Parameters
        ----------
        complex_:
            The complex to voxelize; coordinates are interpreted in the
            binding-site frame, with the grid centred at the site centre.
        rotation:
            Optional 3x3 rotation applied to all coordinates about the
            grid centre (training-time augmentation).
        """
        cfg = self.config
        grid = np.zeros((cfg.num_channels, cfg.grid_dim, cfg.grid_dim, cfg.grid_dim))
        center = complex_.site.center
        for atoms, is_ligand in ((complex_.ligand.atoms, True), (complex_.site.atoms, False)):
            for atom in atoms:
                position = atom.position - center
                if rotation is not None:
                    position = rotation @ position
                self._splat(grid, atom, position, is_ligand)
        return grid

    # ------------------------------------------------------------------ #
    def _channel_indices(self, atom, is_ligand: bool) -> list[tuple[int, float]]:
        """Channels (index, weight) an atom contributes to."""
        cfg = self.config
        channels = cfg.channels
        out: list[tuple[int, float]] = []

        def add(name: str, weight: float = 1.0) -> None:
            out.append((channels.index(name), weight))

        if cfg.channel_set == "reduced":
            if is_ligand:
                if atom.element == "C":
                    add("lig_carbon")
                elif atom.element in ("N", "O"):
                    add("lig_polar")
                else:
                    add("lig_other")
                add("lig_occupancy")
            else:
                if atom.hydrophobic:
                    add("poc_hydrophobic")
                if atom.hbond_donor:
                    add("poc_donor")
                if atom.hbond_acceptor:
                    add("poc_acceptor")
                add("poc_occupancy")
        else:
            prefix = "lig" if is_ligand else "poc"
            if atom.element in ("C", "N", "O", "S"):
                add(f"{prefix}_{atom.element}")
            elif atom.is_halogen:
                add(f"{prefix}_halogen")
            if atom.hydrophobic:
                add(f"{prefix}_hydrophobic")
            if atom.hbond_donor:
                add(f"{prefix}_donor")
            if atom.hbond_acceptor:
                add(f"{prefix}_acceptor")
            add(f"{prefix}_charge", float(atom.partial_charge))
        return out

    def _splat(self, grid: np.ndarray, atom, position: np.ndarray, is_ligand: bool) -> None:
        cfg = self.config
        sigma = max(cfg.sigma_scale * atom.vdw_radius, 1e-3)
        cutoff = cfg.cutoff_sigmas * sigma
        # indices of voxels possibly within the cutoff along each axis
        los, his, axes = [], [], []
        for axis_coord in position:
            lo = np.searchsorted(self._axis, axis_coord - cutoff)
            hi = np.searchsorted(self._axis, axis_coord + cutoff)
            if lo >= len(self._axis) or hi <= 0:
                return  # atom entirely outside the grid
            los.append(lo)
            his.append(hi)
            axes.append(self._axis[lo:hi])
        dx = axes[0][:, None, None] - position[0]
        dy = axes[1][None, :, None] - position[1]
        dz = axes[2][None, None, :] - position[2]
        dist2 = dx**2 + dy**2 + dz**2
        density = np.exp(-dist2 / (2.0 * sigma**2))
        density[dist2 > cutoff**2] = 0.0
        for channel, weight in self._channel_indices(atom, is_ligand):
            grid[channel, los[0]:his[0], los[1]:his[1], los[2]:his[2]] += weight * density


class GraphBuilder:
    """Build SG-CNN input graphs from protein-ligand complexes."""

    def __init__(self, config: GraphConfig | None = None) -> None:
        self.config = config or GraphConfig()

    def build(self, complex_: ProteinLigandComplex) -> dict:
        """Return a graph dictionary consumable by :class:`repro.nn.GraphBatch`.

        Keys: ``node_features``, ``adjacency`` (covalent / noncovalent),
        ``ligand_mask``, ``id``.
        """
        cfg = self.config
        ligand = complex_.ligand
        lig_coords = ligand.coordinates
        pocket_atoms = complex_.site.atoms
        pocket_coords = complex_.site.coordinates()

        if lig_coords.size == 0:
            raise ValueError("cannot build a graph for an empty ligand")

        # pocket atoms within the interaction shell of any ligand atom
        if pocket_coords.size:
            dists = np.linalg.norm(pocket_coords[:, None, :] - lig_coords[None, :, :], axis=-1)
            keep = np.where(dists.min(axis=1) <= cfg.pocket_shell)[0]
        else:
            keep = np.array([], dtype=int)
        kept_pocket_atoms = [pocket_atoms[i] for i in keep]

        atoms = list(ligand.atoms) + kept_pocket_atoms
        is_ligand = [True] * ligand.num_atoms + [False] * len(kept_pocket_atoms)
        coords = np.vstack([lig_coords, pocket_coords[keep]]) if len(keep) else lig_coords
        n = len(atoms)

        node_features = atom_feature_matrix(atoms, is_ligand)
        all_dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        kernel = np.exp(-all_dist / cfg.distance_kernel_width)

        covalent = np.zeros((n, n))
        long_bond = max(cfg.covalent_threshold, 2.0)
        for bond in ligand.bonds:
            # bonds longer than the covalent threshold (after conformer noise)
            # are still chemically covalent, so the threshold only trims bonds
            # stretched far beyond a typical bond length.
            if all_dist[bond.i, bond.j] > long_bond:
                continue
            weight = kernel[bond.i, bond.j] * bond.order
            covalent[bond.i, bond.j] = weight
            covalent[bond.j, bond.i] = weight
        covalent = _cap_neighbours(covalent, cfg.covalent_k)

        noncovalent = np.where(all_dist <= cfg.noncovalent_threshold, kernel, 0.0)
        np.fill_diagonal(noncovalent, 0.0)
        # exclude pairs already covalently bonded
        noncovalent[covalent > 0] = 0.0
        noncovalent = _cap_neighbours(noncovalent, cfg.noncovalent_k)

        return {
            "node_features": node_features,
            "adjacency": {
                "covalent": _row_normalize(covalent),
                "noncovalent": _row_normalize(noncovalent),
            },
            "ligand_mask": np.array(is_ligand, dtype=bool),
            "id": complex_.complex_id or complex_.ligand.name,
        }


def _cap_neighbours(adjacency: np.ndarray, k: int) -> np.ndarray:
    """Keep only the ``k`` strongest entries per row (symmetrized afterwards).

    Ties are broken deterministically (stable sort, higher column index
    wins) so that the vectorized engine in
    :mod:`repro.featurize.engine`, which selects the same entries via a
    full-row stable argsort, is bit-identical to this reference even when
    two neighbours sit at exactly the same distance.
    """
    n = adjacency.shape[0]
    if n == 0 or k >= n:
        return adjacency
    capped = np.zeros_like(adjacency)
    for i in range(n):
        row = adjacency[i]
        nonzero = np.nonzero(row)[0]
        if nonzero.size == 0:
            continue
        if nonzero.size > k:
            top = nonzero[np.argsort(row[nonzero], kind="stable")[-k:]]
        else:
            top = nonzero
        capped[i, top] = row[top]
    # symmetrize: keep an edge if either endpoint selected it
    return np.maximum(capped, capped.T)


class ComplexFeaturizer:
    """Featurize complexes for both model heads.

    Parameters
    ----------
    voxel_config / graph_config:
        Configurations of the two featurizers.
    augment:
        Enable random rotational augmentation of the voxel representation
        (applied only when ``training=True`` is passed to
        :meth:`featurize`); the graph representation is rotation
        invariant and is never augmented, exactly as in the paper.
    rotation_probability:
        Per-axis rotation probability (10 % in the paper).
    seed:
        Seed of the augmentation stream.
    """

    def __init__(
        self,
        voxel_config: VoxelGridConfig | None = None,
        graph_config: GraphConfig | None = None,
        augment: bool = False,
        rotation_probability: float = 0.1,
        seed: int | None = 0,
    ) -> None:
        self.voxelizer = Voxelizer(voxel_config)
        self.graph_builder = GraphBuilder(graph_config)
        self.augment = bool(augment)
        self.rotation_probability = float(rotation_probability)
        self._rng = ensure_rng(seed)

    def featurize(
        self,
        complex_: ProteinLigandComplex,
        target: float = float("nan"),
        training: bool = False,
    ) -> FeaturizedComplex:
        """Featurize one complex into a :class:`FeaturizedComplex`."""
        rotation = None
        if self.augment and training:
            rotation = random_axis_rotation(self._rng, self.rotation_probability)
        voxel = self.voxelizer.voxelize(complex_, rotation=rotation)
        graph = self.graph_builder.build(complex_)
        return FeaturizedComplex(
            voxel=voxel,
            graph=graph,
            target=float(target),
            complex_id=complex_.complex_id,
            pose_id=complex_.pose_id,
            metadata=dict(complex_.metadata),
        )

    def featurize_many(
        self,
        complexes: Sequence[ProteinLigandComplex],
        targets: Sequence[float] | None = None,
        training: bool = False,
    ) -> list[FeaturizedComplex]:
        """Featurize a sequence of complexes (targets default to ``nan``)."""
        if targets is None:
            targets = [float("nan")] * len(complexes)
        if len(targets) != len(complexes):
            raise ValueError("targets must match complexes in length")
        return [self.featurize(c, t, training=training) for c, t in zip(complexes, targets)]
