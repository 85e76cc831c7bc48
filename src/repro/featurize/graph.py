"""Spatial-graph construction for the SG-CNN head.

Following PotentialNet / FAST, the graph contains the ligand atoms plus
the pocket atoms within an interaction shell of the ligand. Two edge
types are built:

* **covalent** edges follow the ligand's bond topology (pocket
  pseudo-atoms carry no covalent edges) and are additionally restricted
  to a distance threshold and a per-node neighbour cap ``K`` — the
  "Covalent Neighbor Threshold" / "Covalent K" hyper-parameters of
  Table 1;
* **non-covalent** edges connect any two atoms (ligand-ligand,
  ligand-pocket, pocket-pocket) within the non-covalent threshold,
  subject to the non-covalent ``K`` cap.

Adjacency entries are weighted by a smooth distance kernel so that closer
contacts pass larger messages, and rows are degree-normalized to keep the
gated propagation numerically stable.  This module holds the graph
configuration and the row normalization; the construction itself is
:class:`repro.featurize.engine.VectorizedGraphBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class GraphConfig:
    """Spatial-graph hyper-parameters (paper Table 1 / Table 2).

    Attributes
    ----------
    covalent_threshold:
        Maximum distance (Angstroms) for covalent edges; the optimized
        SG-CNN used 2.24 A.
    noncovalent_threshold:
        Maximum distance for non-covalent edges; the optimized SG-CNN
        used 5.22 A.
    covalent_k / noncovalent_k:
        Maximum neighbours kept per node and edge type (3 and 6 in the
        optimized SG-CNN — note the paper reports covalent K 6 /
        non-covalent K 3).
    pocket_shell:
        Pocket atoms farther than this from every ligand atom are dropped
        from the graph.
    distance_kernel_width:
        Width of the exponential distance weighting of adjacency entries.
    """

    covalent_threshold: float = 2.24
    noncovalent_threshold: float = 5.22
    covalent_k: int = 6
    noncovalent_k: int = 3
    pocket_shell: float = 6.0
    distance_kernel_width: float = 2.5

    def __post_init__(self) -> None:
        if self.covalent_threshold <= 0 or self.noncovalent_threshold <= 0:
            raise ValueError("distance thresholds must be positive")
        if self.covalent_k <= 0 or self.noncovalent_k <= 0:
            raise ValueError("neighbour caps must be positive")


def _row_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Normalize rows to unit sum (rows without edges stay zero)."""
    row_sums = adjacency.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, adjacency / row_sums, 0.0)
    return normalized
