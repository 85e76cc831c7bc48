"""Shared fixtures for the test suite.

The expensive fixtures (synthetic PDBbind data, trained model workbench,
screening campaign) are session-scoped and built at the smallest useful
scale so the full suite stays fast while still exercising every stage of
the pipeline end to end.
"""

from __future__ import annotations

# ``import repro`` pins BLAS to one thread (the numerics' reference
# environment); it only takes effect before numpy's first import
import repro  # noqa: F401  isort: skip

import numpy as np
import pytest

from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.prep import LigandPrepPipeline
from repro.chem.protein import make_sarscov2_targets
from repro.datasets.pdbbind import PDBbindConfig, generate_pdbbind
from repro.experiments.common import build_workbench, run_campaign


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def molecules():
    """A handful of generated drug-like molecules with 3-D coordinates."""
    generator = MoleculeGenerator(GeneratorProfile(), seed=7)
    return generator.generate_many(6, prefix="testmol")


@pytest.fixture(scope="session")
def prepared_ligands(molecules):
    pipeline = LigandPrepPipeline(minimize=False, seed=3)
    return pipeline.process_many(molecules, library="tests")


@pytest.fixture(scope="session")
def sarscov2_sites():
    return make_sarscov2_targets(seed=2020)


@pytest.fixture(scope="session")
def protease_site(sarscov2_sites):
    return sarscov2_sites["protease1"]


@pytest.fixture(scope="session")
def example_complex(protease_site, prepared_ligands):
    ligand = prepared_ligands[0].molecule
    ligand = ligand.translate(-ligand.centroid() + np.array([0.0, 0.0, -2.0]))
    return ProteinLigandComplex(protease_site, ligand, complex_id="testcomplex", pose_id=0)


@pytest.fixture(scope="session")
def pose_complexes(protease_site, prepared_ligands):
    """Several distinct poses in one site, for the featurization-engine tests."""
    complexes = []
    for index, prepared in enumerate(prepared_ligands):
        ligand = prepared.molecule
        offset = np.array([0.4 * index - 1.0, 0.3 * (index % 3) - 0.3, -2.0 + 0.5 * index])
        ligand = ligand.translate(-ligand.centroid() + offset)
        complexes.append(
            ProteinLigandComplex(protease_site, ligand, complex_id=f"pose{index}", pose_id=index)
        )
    return complexes


@pytest.fixture(scope="session")
def interaction_model():
    return InteractionModel()


@pytest.fixture(scope="session")
def tiny_pdbbind():
    """A very small synthetic PDBbind dataset."""
    config = PDBbindConfig(
        n_general=16, n_refined=8, n_core=6, n_families=6, n_core_families=2,
        pose_search_steps=15, pose_search_restarts=1, seed=11,
    )
    return generate_pdbbind(config)


@pytest.fixture(scope="session")
def workbench():
    """Tiny trained workbench shared by the model/experiment integration tests."""
    return build_workbench("tiny")


@pytest.fixture(scope="session")
def campaign(workbench):
    """A very small end-to-end screening campaign."""
    return run_campaign(
        workbench,
        library_counts={"emolecules": 8, "zinc_world_approved": 4},
        compounds_tested_per_site=6,
        poses_per_compound=2,
        seed=99,
    )


@pytest.fixture()
def checkpoint_dir(tmp_path):
    """Per-test directory for the runtime's H5Store-backed stage checkpoints."""
    path = tmp_path / "checkpoints"
    path.mkdir()
    return path


@pytest.fixture()
def checkpoint_store(checkpoint_dir):
    """A disk-backed CheckpointStore rooted in a fresh tmp directory."""
    from repro.runtime import CheckpointStore

    return CheckpointStore(checkpoint_dir)
