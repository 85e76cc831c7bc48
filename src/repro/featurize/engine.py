"""Batched, vectorized featurization engine with a content-addressed cache.

This module is the path between docking output and fusion scoring.  It
computes the voxel grid and the spatial graph of a complex with
whole-array NumPy operations instead of one Python call per atom:

* :class:`VectorizedVoxelizer` gathers every atom's Gaussian density
  over a broadcast neighbourhood box of precomputed grid coordinates and
  scatter-adds all channels with ``np.bincount``;
* :class:`VectorizedGraphBuilder` builds node features, covalent and
  non-covalent adjacencies from flat atom arrays, with pocket-side
  extraction memoized per binding site;
* :class:`FeaturePipeline` fronts both and adds a content-addressed
  :class:`~repro.featurize.cache.FeatureCache` (key = pose + binding
  site + featurizer config, mirroring the serving result-cache design)
  to its one-complex entry point.

The per-atom reference loops these replaced are kept as test oracles
(``tests/featurize_oracle.py``), and ``tests/test_featurize_engine.py``
holds the engine **bit-identical** to them with ``np.array_equal``.
Why vectorization preserves every bit:

1. every elementwise float64 operation (subtract, square, exp, divide,
   multiply) produces the same bits regardless of array shape;
2. ``np.bincount`` accumulates weights in input order, so ordering the
   scatter entries by atom reproduces the per-atom loop's per-cell
   addition sequence exactly;
3. contributions the per-atom loop adds as ``±0.0`` (beyond the Gaussian
   cutoff, zero channel weights) never change stored bits, so the
   engine may skip or include them freely;
4. neighbour capping breaks ties with a stable sort, so full-row and
   compacted-row selections agree even for equidistant neighbours.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.featurize.atom_features import (
    ELEMENT_CLASSES,
    AtomArrays,
    atom_arrays,
    feature_matrix_from_arrays,
    site_arrays,
)
from repro.featurize.cache import (
    FeatureCache,
    FeatureCacheStats,
    feature_key,
    featurizer_config_digest,
)
from repro.featurize.graph import GraphConfig, _row_normalize
from repro.featurize.pipeline import FeaturizedComplex
from repro.featurize.voxelize import VoxelGridConfig, random_axis_rotation
from repro.telemetry import current as current_telemetry
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------------- #
# Voxelization
# --------------------------------------------------------------------------- #
class VectorizedVoxelizer:
    """Splat a :class:`ProteinLigandComplex` into a ``(C, D, D, D)`` voxel grid."""

    def __init__(self, config: VoxelGridConfig | None = None) -> None:
        self.config = config or VoxelGridConfig()
        dim = self.config.grid_dim
        if dim < 4:
            raise ValueError("grid_dim must be at least 4")
        half = self.config.extent / 2.0
        # voxel centre coordinates along one axis, grid centred at origin
        self._axis = (np.arange(dim) + 0.5) * self.config.resolution - half
        # channels are laid out ligand-first in both channel sets
        self._n_lig_channels = sum(
            1 for name in self.config.channels if name.startswith("lig_")
        )
        self._zero_channel = np.zeros((1, dim, dim, dim))

    # ------------------------------------------------------------------ #
    def voxelize(
        self,
        complex_: ProteinLigandComplex,
        rotation: np.ndarray | None = None,
        lig_arrays: AtomArrays | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Voxel tensor of shape ``(C, D, D, D)``.

        Coordinates are interpreted in the binding-site frame, with the
        grid centred at the site centre; ``rotation`` (3x3) rotates every
        atom about the grid centre (training-time augmentation).
        Ligand and pocket channels are disjoint, and the pocket is rigid
        and shared by every pose docked into a site, so for unrotated
        grids the pocket channels are splatted once per (site, config)
        and reused; only the ligand atoms are splatted per pose.  Ligand
        and pocket atoms accumulate into different channels, so the
        split is bit-exact.  ``lig_arrays``
        lets callers that also build the graph share one ligand-array
        extraction; ``out`` (shape ``(C, D, D, D)``) receives the grid
        with no extra copy, which is how :meth:`voxelize_many` fills
        batch tensors directly.
        """
        lig = lig_arrays if lig_arrays is not None else atom_arrays(complex_.ligand.atoms)
        poc, _ = site_arrays(complex_.site)
        site = complex_.site
        if rotation is None:
            positions = lig.coords - site.center
            members = _channel_members(self.config, lig, np.ones(lig.num_atoms, dtype=bool))
            sums = self._channel_sums(positions, lig.vdw_radius, members)
            return self._assemble(
                sums[: self._n_lig_channels], self._pocket_block(site, poc), out=out
            )
        # rotated grids (training augmentation) rotate the pocket too, so
        # the cached pocket channels do not apply
        positions = np.concatenate([lig.coords, poc.coords], axis=0) - site.center
        if len(positions):
            # applied per atom with the exact matmul of the per-atom loop,
            # so rotated coordinates carry identical bits
            positions = np.array([rotation @ p for p in positions])
        is_ligand = np.zeros(lig.num_atoms + poc.num_atoms, dtype=bool)
        is_ligand[: lig.num_atoms] = True
        merged = _concat_arrays(lig, poc)
        members = _channel_members(self.config, merged, is_ligand)
        return self._assemble(
            self._channel_sums(positions, merged.vdw_radius, members), out=out
        )

    def voxelize_many(
        self,
        complexes: Sequence[ProteinLigandComplex],
        rotations: Sequence[np.ndarray | None] | None = None,
    ) -> np.ndarray:
        """Stacked voxel tensors ``(N, C, D, D, D)`` for a pose batch."""
        if rotations is None:
            rotations = [None] * len(complexes)
        if len(rotations) != len(complexes):
            raise ValueError("rotations must match complexes in length")
        cfg = self.config
        dim = cfg.grid_dim
        out = np.empty((len(complexes), cfg.num_channels, dim, dim, dim))
        for index, (complex_, rotation) in enumerate(zip(complexes, rotations)):
            # each grid is assembled straight into its batch slot — no
            # intermediate per-complex tensor plus stack copy
            self.voxelize(complex_, rotation=rotation, out=out[index])
        return out

    # ------------------------------------------------------------------ #
    def _pocket_block(self, site, poc: AtomArrays) -> np.ndarray:
        """Pocket-channel block ``(C_poc, D, D, D)``, memoized per (site, config).

        Read-only by convention; :meth:`_assemble` copies it into every
        output grid.  Memoized on the site instance (sites are rigid,
        like :func:`repro.chem.digest.site_digest`).
        """
        cfg = self.config
        cache_key = tuple(sorted(vars(cfg).items()))
        cache = getattr(site, "_voxel_pocket_blocks", None)
        if cache is None:
            cache = {}
            site._voxel_pocket_blocks = cache
        block = cache.get(cache_key)
        if block is None:
            positions = poc.coords - site.center
            members = _channel_members(cfg, poc, np.zeros(poc.num_atoms, dtype=bool))
            sums = self._channel_sums(positions, poc.vdw_radius, members)
            block = self._assemble(sums[self._n_lig_channels :])
            cache[cache_key] = block
        return block

    def _assemble(
        self,
        sums: list[np.ndarray | None],
        pocket_block: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stack per-channel flat sums (and an optional pocket block) into a grid.

        With ``out`` the channels are concatenated directly into the
        caller's buffer (e.g. one slot of a batch tensor).
        """
        dim = self.config.grid_dim
        flat = dim**3
        blocks = [
            self._zero_channel if s is None else s[:flat].reshape(1, dim, dim, dim)
            for s in sums
        ]
        if pocket_block is not None:
            blocks.append(pocket_block)
        if out is not None:
            return np.concatenate(blocks, axis=0, out=out)
        return np.concatenate(blocks, axis=0)

    def _channel_sums(
        self,
        positions: np.ndarray,
        vdw_radius: np.ndarray,
        members: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[np.ndarray | None]:
        """Per-channel flattened density sums (``None`` for empty channels).

        Every atom's Gaussian density is evaluated over a broadcast
        neighbourhood box and scatter-added per channel with one ordered
        ``np.bincount``, which reproduces the per-atom loop's per-cell
        accumulation (from a zero grid, in atom order) bit-for-bit.
        Returned arrays have length ``dim**3 + 1``: the final element is
        an overflow bucket for out-of-box entries that callers slice off.
        """
        cfg = self.config
        dim = cfg.grid_dim
        n = positions.shape[0]
        sums: list[np.ndarray | None] = [None] * len(members)
        if n == 0:
            return sums

        # per-atom Gaussian geometry (same float64 expressions as the per-atom loop)
        sigma = np.maximum(cfg.sigma_scale * vdw_radius, 1e-3)
        cutoff = cfg.cutoff_sigmas * sigma
        denom = 2.0 * sigma**2
        cutoff2 = cutoff**2

        # neighbourhood boxes: voxel index ranges possibly within the cutoff
        lo = np.searchsorted(self._axis, positions - cutoff[:, None])  # (n, 3)
        hi = np.searchsorted(self._axis, positions + cutoff[:, None])  # (n, 3)
        inside = (lo < dim).all(axis=1) & (hi > 0).all(axis=1)
        if not inside.any():
            return sums
        width = int((hi - lo)[inside].max())
        if width <= 0:
            return sums

        offsets = np.arange(width)
        idx = lo[:, None, :] + offsets[None, :, None]  # (n, K, 3)
        valid = (idx < hi[:, None, :]) & inside[:, None, None]
        idx = np.minimum(idx, dim - 1)  # clamp for safe gathers; masked below
        delta = self._axis[idx] - positions[:, None, :]  # (n, K, 3)

        dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
        dist2 = dx[:, :, None, None] ** 2 + dy[:, None, :, None] ** 2 + dz[:, None, None, :] ** 2
        density = np.exp(-dist2 / denom[:, None, None, None])
        density[dist2 > cutoff2[:, None, None, None]] = 0.0

        box_ok = (
            valid[..., 0][:, :, None, None]
            & valid[..., 1][:, None, :, None]
            & valid[..., 2][:, None, None, :]
        )
        cells = (idx[..., 0][:, :, None, None] * dim + idx[..., 1][:, None, :, None]) * dim + idx[
            ..., 2
        ][:, None, None, :]
        trash = dim**3  # out-of-box entries land in a discarded overflow bucket
        cells = np.where(box_ok, cells, trash)

        for channel, (atom_idx, weights) in enumerate(members):
            if atom_idx.size == 0:
                continue
            values = density[atom_idx] * weights[:, None, None, None]
            sums[channel] = np.bincount(
                cells[atom_idx].ravel(), weights=values.ravel(), minlength=trash + 1
            )
        return sums


def _concat_arrays(lig: AtomArrays, poc: AtomArrays) -> AtomArrays:
    """Concatenate ligand and pocket atom arrays (ligand first, like the per-atom loop)."""
    return AtomArrays(
        coords=np.concatenate([lig.coords, poc.coords], axis=0),
        elem_idx=np.concatenate([lig.elem_idx, poc.elem_idx]),
        is_halogen=np.concatenate([lig.is_halogen, poc.is_halogen]),
        hydrophobic=np.concatenate([lig.hydrophobic, poc.hydrophobic]),
        hbond_donor=np.concatenate([lig.hbond_donor, poc.hbond_donor]),
        hbond_acceptor=np.concatenate([lig.hbond_acceptor, poc.hbond_acceptor]),
        aromatic=np.concatenate([lig.aromatic, poc.aromatic]),
        partial_charge=np.concatenate([lig.partial_charge, poc.partial_charge]),
        formal_charge=np.concatenate([lig.formal_charge, poc.formal_charge]),
        vdw_radius=np.concatenate([lig.vdw_radius, poc.vdw_radius]),
    )


def _channel_members(
    config: VoxelGridConfig, arrays: AtomArrays, is_ligand: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-channel ``(atom indices, weights)`` in the channel order of ``config``.

    Atom indices stay in ascending order inside every channel, which is
    what keeps the scatter's per-cell accumulation order identical to the
    per-atom loop.  Zero-weight charge contributions are dropped: the
    per-atom loop adds them as ``±0.0``, which never changes stored bits.
    """
    e = arrays.elem_idx
    lig = is_ligand
    poc = ~is_ligand
    idx_c = ELEMENT_CLASSES.index("C")
    idx_n = ELEMENT_CLASSES.index("N")
    idx_o = ELEMENT_CLASSES.index("O")
    idx_s = ELEMENT_CLASSES.index("S")

    masks: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
    if config.channel_set == "reduced":
        polar = (e == idx_n) | (e == idx_o)
        masks["lig_carbon"] = (lig & (e == idx_c), None)
        masks["lig_polar"] = (lig & polar, None)
        masks["lig_other"] = (lig & ~((e == idx_c) | polar), None)
        masks["lig_occupancy"] = (lig, None)
        masks["poc_hydrophobic"] = (poc & (arrays.hydrophobic != 0.0), None)
        masks["poc_donor"] = (poc & (arrays.hbond_donor != 0.0), None)
        masks["poc_acceptor"] = (poc & (arrays.hbond_acceptor != 0.0), None)
        masks["poc_occupancy"] = (poc, None)
    elif config.channel_set == "full":
        for prefix, side in (("lig", lig), ("poc", poc)):
            for symbol, elem in (("C", idx_c), ("N", idx_n), ("O", idx_o), ("S", idx_s)):
                masks[f"{prefix}_{symbol}"] = (side & (e == elem), None)
            masks[f"{prefix}_halogen"] = (side & arrays.is_halogen, None)
            masks[f"{prefix}_hydrophobic"] = (side & (arrays.hydrophobic != 0.0), None)
            masks[f"{prefix}_donor"] = (side & (arrays.hbond_donor != 0.0), None)
            masks[f"{prefix}_acceptor"] = (side & (arrays.hbond_acceptor != 0.0), None)
            masks[f"{prefix}_charge"] = (side & (arrays.partial_charge != 0.0), arrays.partial_charge)
    else:
        raise ValueError(f"unknown channel_set '{config.channel_set}'")

    members: list[tuple[np.ndarray, np.ndarray]] = []
    for name in config.channels:
        mask, weight_source = masks[name]
        atom_idx = np.nonzero(mask)[0]
        if weight_source is None:
            weights = np.ones(atom_idx.size)
        else:
            weights = weight_source[atom_idx]
        members.append((atom_idx, weights))
    return members


# --------------------------------------------------------------------------- #
# Graph construction
# --------------------------------------------------------------------------- #
class VectorizedGraphBuilder:
    """Build SG-CNN input graphs from protein-ligand complexes."""

    def __init__(self, config: GraphConfig | None = None) -> None:
        self.config = config or GraphConfig()

    def build(
        self, complex_: ProteinLigandComplex, lig_arrays: AtomArrays | None = None
    ) -> dict:
        """Graph dictionary consumable by :class:`repro.nn.GraphBatch`.

        Keys: ``node_features``, ``adjacency`` (covalent / noncovalent),
        ``ligand_mask``, ``id``.
        """
        cfg = self.config
        ligand = complex_.ligand
        lig = lig_arrays if lig_arrays is not None else atom_arrays(ligand.atoms)
        poc, poc_features = site_arrays(complex_.site)
        lig_coords = lig.coords
        pocket_coords = poc.coords

        if lig_coords.size == 0:
            raise ValueError("cannot build a graph for an empty ligand")

        # pocket atoms within the interaction shell of any ligand atom
        if pocket_coords.size:
            dists = np.linalg.norm(pocket_coords[:, None, :] - lig_coords[None, :, :], axis=-1)
            keep = np.where(dists.min(axis=1) <= cfg.pocket_shell)[0]
        else:
            keep = np.array([], dtype=int)

        coords = np.vstack([lig_coords, pocket_coords[keep]]) if len(keep) else lig_coords
        n = coords.shape[0]
        node_features = np.concatenate(
            [feature_matrix_from_arrays(lig, is_ligand=True), poc_features[keep]], axis=0
        )
        is_ligand = np.zeros(n, dtype=bool)
        is_ligand[: lig.num_atoms] = True

        all_dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
        kernel = np.exp(-all_dist / cfg.distance_kernel_width)

        covalent = np.zeros((n, n))
        bonds = ligand.bonds
        if bonds:
            bond_i = np.fromiter((b.i for b in bonds), dtype=np.intp, count=len(bonds))
            bond_j = np.fromiter((b.j for b in bonds), dtype=np.intp, count=len(bonds))
            order = np.fromiter((b.order for b in bonds), dtype=np.float64, count=len(bonds))
            long_bond = max(cfg.covalent_threshold, 2.0)
            ok = all_dist[bond_i, bond_j] <= long_bond
            weight = kernel[bond_i, bond_j] * order
            covalent[bond_i[ok], bond_j[ok]] = weight[ok]
            covalent[bond_j[ok], bond_i[ok]] = weight[ok]
        covalent = _cap_neighbours_vectorized(covalent, cfg.covalent_k)

        noncovalent = np.where(all_dist <= cfg.noncovalent_threshold, kernel, 0.0)
        np.fill_diagonal(noncovalent, 0.0)
        noncovalent[covalent > 0] = 0.0
        noncovalent = _cap_neighbours_vectorized(noncovalent, cfg.noncovalent_k)

        return {
            "node_features": node_features,
            "adjacency": {
                "covalent": _row_normalize(covalent),
                "noncovalent": _row_normalize(noncovalent),
            },
            "ligand_mask": is_ligand,
            "id": complex_.complex_id or ligand.name,
        }


def _cap_neighbours_vectorized(adjacency: np.ndarray, k: int) -> np.ndarray:
    """Keep only the ``k`` strongest entries per row (symmetrized afterwards).

    A stable full-row argsort selects, per row, the ``min(k, nnz)``
    largest non-zero entries with ties resolved towards higher column
    indices — exactly the entries a per-row loop selects from its
    compacted rows (stability makes the two tie-break orders agree).
    """
    n = adjacency.shape[0]
    if n == 0 or k >= n:
        return adjacency
    order = np.argsort(adjacency, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")  # rank of each column in its row
    nonzero = adjacency != 0
    keep_counts = np.minimum(nonzero.sum(axis=1), k)
    keep = nonzero & (ranks >= n - keep_counts[:, None])
    capped = np.where(keep, adjacency, 0.0)
    # symmetrize: keep an edge if either endpoint selected it
    return np.maximum(capped, capped.T)


# --------------------------------------------------------------------------- #
# Pipeline facade
# --------------------------------------------------------------------------- #
class FeaturePipeline:
    """Featurize complexes for both model heads.

    The one featurizer every consumer uses (the streamed screen, the
    serving service, the campaign runtime).  ``voxelizer.config`` /
    ``graph_builder.config`` / ``augment`` / ``rotation_probability``
    are the attributes the runtime's checkpoint keys digest.

    Parameters
    ----------
    voxel_config / graph_config:
        Configurations of the two featurizers.
    augment:
        Enable random rotational augmentation of the voxel representation
        (applied only when ``training=True`` is passed); the graph
        representation is rotation invariant and is never augmented,
        exactly as in the paper.
    rotation_probability:
        Per-axis rotation probability (10 % in the paper).
    seed:
        Seed of the augmentation stream.

    On top of featurization it keeps a content-addressed
    :class:`FeatureCache` — key = pose + binding site + featurizer
    config — that :meth:`featurize` (one complex: serving requests,
    dataset passes) reads and fills.  :meth:`featurize_many` (the
    streamed screen's pose batches) never touches it, since every
    docked pose is new.  Lookups are also bypassed whenever a
    random rotation is drawn (``augment`` and ``training``), because
    augmented tensors are sample-unique by design.

    Cached tensors are shared between hits and must be treated as
    read-only; batch collation always copies them into fresh arrays.
    """

    def __init__(
        self,
        voxel_config: VoxelGridConfig | None = None,
        graph_config: GraphConfig | None = None,
        augment: bool = False,
        rotation_probability: float = 0.1,
        seed: int | None = 0,
        cache: FeatureCache | None = None,
        cache_capacity: int = 1024,
        cache_max_bytes: int | None = 1 << 30,
        cache_enabled: bool = True,
    ) -> None:
        self.voxelizer = VectorizedVoxelizer(voxel_config)
        self.graph_builder = VectorizedGraphBuilder(graph_config)
        self.augment = bool(augment)
        self.rotation_probability = float(rotation_probability)
        self._rng = ensure_rng(seed)
        if cache is not None:
            self.cache: FeatureCache | None = cache
        elif cache_enabled:
            # the default byte budget (1 GiB) is what actually bounds memory
            # at paper-scale grids, where one entry is tens of megabytes
            self.cache = FeatureCache(cache_capacity, max_bytes=cache_max_bytes)
        else:
            self.cache = None
        self._config_digest = featurizer_config_digest(
            self.voxelizer.config, self.graph_builder.config
        )

    @classmethod
    def from_featurizer(cls, featurizer, seed: int | None = 0, **kwargs) -> "FeaturePipeline":
        """Build a pipeline sharing another featurizer's configuration."""
        return cls(
            voxel_config=featurizer.voxelizer.config,
            graph_config=featurizer.graph_builder.config,
            augment=featurizer.augment,
            rotation_probability=featurizer.rotation_probability,
            seed=seed,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    def key_for(self, complex_: ProteinLigandComplex) -> str:
        """Content-addressed feature-cache key of one complex."""
        return feature_key(complex_, self._config_digest)

    @property
    def config_digest(self) -> str:
        """Digest of the (voxel, graph) configuration pair."""
        return self._config_digest

    # ------------------------------------------------------------------ #
    def featurize(
        self,
        complex_: ProteinLigandComplex,
        target: float = float("nan"),
        training: bool = False,
    ) -> FeaturizedComplex:
        """Featurize one complex into a :class:`FeaturizedComplex`.

        The cached entry point: an unrotated complex is looked up in (and
        added to) the feature cache.
        """
        voxel, graph = self._compute(complex_, self._rotation(training))
        return self._wrap(complex_, voxel, graph, target)

    def featurize_many(
        self,
        complexes: Sequence[ProteinLigandComplex],
        targets: Sequence[float] | None = None,
        training: bool = False,
    ) -> list[FeaturizedComplex]:
        """Featurize a pose batch (targets default to ``nan``).

        The uncached entry point: every pose is computed fresh and the
        feature cache is neither read nor filled, so a streamed screen's
        memory does not grow with the poses it has scored.  The features
        equal :meth:`featurize`'s bit for bit.
        """
        if targets is None:
            targets = [float("nan")] * len(complexes)
        if len(targets) != len(complexes):
            raise ValueError("targets must match complexes in length")
        with current_telemetry().span("featurize-many") as span:
            span.set("batch", len(complexes))
            # one rotation draw per complex, in order — the same RNG
            # consumption sequence as calling featurize() per complex
            return [
                self._wrap(c, *self._compute_fresh(c, self._rotation(training)), t)
                for c, t in zip(complexes, targets)
            ]

    # ------------------------------------------------------------------ #
    def stats(self) -> FeatureCacheStats | None:
        """Feature-cache counters (``None`` when the cache is disabled)."""
        return self.cache.stats() if self.cache is not None else None

    # ------------------------------------------------------------------ #
    def _rotation(self, training: bool) -> np.ndarray | None:
        """One augmentation draw when augmenting a training sample, else ``None``."""
        if self.augment and training:
            return random_axis_rotation(self._rng, self.rotation_probability)
        return None

    def _compute(
        self, complex_: ProteinLigandComplex, rotation: np.ndarray | None
    ) -> tuple[np.ndarray, dict]:
        if rotation is not None or self.cache is None:
            return self._compute_fresh(complex_, rotation)
        key = self.key_for(complex_)
        entry = self.cache.get(key)
        if entry is None:
            voxel, graph = self._compute_fresh(complex_, None)
            self.cache.put(key, voxel, graph)
            return voxel, graph
        return entry

    def _compute_fresh(
        self, complex_: ProteinLigandComplex, rotation: np.ndarray | None
    ) -> tuple[np.ndarray, dict]:
        # one ligand-array extraction shared by both featurizers
        lig = atom_arrays(complex_.ligand.atoms)
        voxel = self.voxelizer.voxelize(complex_, rotation=rotation, lig_arrays=lig)
        graph = self.graph_builder.build(complex_, lig_arrays=lig)
        return voxel, graph

    def _wrap(
        self, complex_: ProteinLigandComplex, voxel: np.ndarray, graph: dict, target: float
    ) -> FeaturizedComplex:
        # cache entries are keyed on content, not on the identifier the
        # caller attached to the pose: re-stamp the graph id per request
        graph = dict(graph)
        graph["id"] = complex_.complex_id or complex_.ligand.name
        return FeaturizedComplex(
            voxel=voxel,
            graph=graph,
            target=float(target),
            complex_id=complex_.complex_id,
            pose_id=complex_.pose_id,
            metadata=dict(complex_.metadata),
        )
