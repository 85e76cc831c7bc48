"""Chemistry substrate: molecules, proteins, complexes and ligand preparation.

The paper's pipeline consumes real chemical structure files (SDF / PDB /
PDBQT, prepared with MOE, AMBER antechamber and Open Babel) that are not
available offline, so this sub-package implements a self-contained
synthetic chemistry universe: drug-like molecule generation, a simplified
SMILES-like string representation, 3-D conformer embedding and force-field
minimization, molecular descriptors, binding-pocket models for the four
SARS-CoV-2 target sites, and the latent interaction model that defines
ground-truth binding affinity for every protein-ligand complex.
"""

from repro.chem.elements import ELEMENTS, Element
from repro.chem.atom import Atom
from repro.chem.molecule import Bond, Molecule
from repro.chem.smiles import to_smiles
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.conformer import embed_3d, minimize_conformer
from repro.chem.forcefield import ForceField, ForceFieldEnergy, ForceFieldTopology
from repro.chem.descriptors import compute_descriptors
from repro.chem.protein import (
    BindingSite,
    PocketFamily,
    generate_binding_site,
    make_sarscov2_targets,
)
from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.prep import LigandPrepPipeline, PreparedLigand

__all__ = [
    "GeneratorProfile",
    "make_sarscov2_targets",
    "ELEMENTS",
    "Element",
    "Atom",
    "Bond",
    "Molecule",
    "to_smiles",
    "MoleculeGenerator",
    "embed_3d",
    "minimize_conformer",
    "ForceField",
    "ForceFieldEnergy",
    "ForceFieldTopology",
    "compute_descriptors",
    "BindingSite",
    "PocketFamily",
    "generate_binding_site",
    "ProteinLigandComplex",
    "InteractionModel",
    "LigandPrepPipeline",
    "PreparedLigand",
]
