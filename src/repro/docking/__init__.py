"""Physics-based screening substrate (the ConveyorLC tool chain).

Implements the four-stage ConveyorLC pipeline the paper uses for its
physics-based screening and for generating docked poses of the PDBbind
core set: receptor preparation, ligand preparation, Vina-style docking
and MM/GBSA rescoring — plus the AMPL machine-learned MM/GBSA surrogate
used in the retrospective analysis.  All scorers are imperfect estimators
of the latent interaction model in :mod:`repro.chem.complexes`, with
error characteristics and computational costs mirroring the paper.
"""

from repro.docking.vina import VinaScorer
from repro.docking.poses import DockedPose
from repro.docking.engine import PoseGenerator, dock_many, pairwise_rmsd, select_pose_indices
from repro.docking.mmgbsa import MMGBSARescorer
from repro.docking.ampl import AMPLSurrogate
from repro.docking.conveyorlc import (
    CDT1Receptor,
    CDT2Ligand,
    CDT3Docking,
    CDT4Mmgbsa,
    DockingDatabase,
    DockingRecord,
)

__all__ = [
    "VinaScorer",
    "MMGBSARescorer",
    "AMPLSurrogate",
    "DockedPose",
    "PoseGenerator",
    "dock_many",
    "pairwise_rmsd",
    "select_pose_indices",
    "CDT1Receptor",
    "CDT2Ligand",
    "CDT3Docking",
    "CDT4Mmgbsa",
    "DockingDatabase",
    "DockingRecord",
]
