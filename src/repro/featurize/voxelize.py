"""Voxelization of protein-ligand complexes for the 3D-CNN head.

Atoms are splatted onto a cubic grid centred on the binding site using
Gaussian densities with width tied to the van der Waals radius.  Channels
separate ligand and pocket atoms and, within each, encode element class
and pharmacophore properties.  The voxelizer also implements the random
rotational augmentation described in §3.3.1 of the paper (each of X, Y,
Z rotated with 10 % probability during training).  This module holds
the grid configuration and the augmentation draw; the splatting itself
is :class:`repro.featurize.engine.VectorizedVoxelizer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Channel layouts. Each entry maps a channel name to a predicate over
#: (atom, is_ligand).
_REDUCED_LIGAND_CHANNELS = ("lig_carbon", "lig_polar", "lig_other", "lig_occupancy")
_REDUCED_POCKET_CHANNELS = ("poc_hydrophobic", "poc_donor", "poc_acceptor", "poc_occupancy")

_FULL_LIGAND_CHANNELS = (
    "lig_C", "lig_N", "lig_O", "lig_S", "lig_halogen",
    "lig_hydrophobic", "lig_donor", "lig_acceptor", "lig_charge",
)
_FULL_POCKET_CHANNELS = (
    "poc_C", "poc_N", "poc_O", "poc_S", "poc_halogen",
    "poc_hydrophobic", "poc_donor", "poc_acceptor", "poc_charge",
)


@dataclass(frozen=True)
class VoxelGridConfig:
    """Configuration of the voxel grid.

    Attributes
    ----------
    grid_dim:
        Number of voxels along each axis (the paper-scale FAST model uses
        48; the default here is 16 so NumPy training is tractable).
    resolution:
        Voxel edge length in Angstroms.
    channel_set:
        ``"reduced"`` (8 channels) or ``"full"`` (18 channels, close to the
        19-feature representation in FAST).
    sigma_scale:
        Gaussian width as a fraction of the atom van der Waals radius.
    cutoff_sigmas:
        Truncation radius of each atom's density in units of sigma.
    """

    grid_dim: int = 16
    resolution: float = 1.25
    channel_set: str = "reduced"
    sigma_scale: float = 0.6
    cutoff_sigmas: float = 2.5

    @property
    def channels(self) -> tuple[str, ...]:
        if self.channel_set == "reduced":
            return _REDUCED_LIGAND_CHANNELS + _REDUCED_POCKET_CHANNELS
        if self.channel_set == "full":
            return _FULL_LIGAND_CHANNELS + _FULL_POCKET_CHANNELS
        raise ValueError(f"unknown channel_set '{self.channel_set}'")

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def extent(self) -> float:
        """Physical edge length of the grid in Angstroms."""
        return self.grid_dim * self.resolution


def random_axis_rotation(rng: np.random.Generator, probability: float = 0.1) -> np.ndarray:
    """Random rotation used for training-time augmentation.

    Each of the X, Y and Z axes is rotated by an independent uniform angle
    with probability ``probability`` (10 % in the paper); the returned 3x3
    matrix composes the selected rotations.
    """
    matrix = np.eye(3)
    for axis in range(3):
        if rng.random() >= probability:
            continue
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.eye(3)
        other = [i for i in range(3) if i != axis]
        rotation[other[0], other[0]] = c
        rotation[other[0], other[1]] = -s
        rotation[other[1], other[0]] = s
        rotation[other[1], other[1]] = c
        matrix = rotation @ matrix
    return matrix
