"""Tests for the Vina scorer, pose generation, MM/GBSA, the AMPL surrogate and the ConveyorLC stages."""

import dataclasses

import numpy as np
import pytest

from repro.chem.complexes import PK_TO_KCAL, InteractionModel, ProteinLigandComplex
from repro.docking.ampl import AMPLSurrogate
from repro.docking.conveyorlc import (
    CDT1Receptor,
    CDT2Ligand,
    CDT3Docking,
    CDT4Mmgbsa,
    DockingDatabase,
    DockingRecord,
)
from repro.docking.mmgbsa import MMGBSARescorer
from repro.docking.engine import PoseGenerator
from repro.docking.poses import initial_pose_coords, molecule_with_coordinates
from repro.docking.vina import VinaScorer

from docking_oracle import reference_score, rmsd


class TestVinaScorer:
    def test_score_finite_and_deterministic(self, example_complex):
        vina = VinaScorer()
        s1, s2 = vina.score(example_complex), vina.score(example_complex)
        assert s1 == s2
        assert np.isfinite(s1)

    def test_score_matches_scalar_reference(self, example_complex):
        vina = VinaScorer()
        assert vina.score(example_complex) == reference_score(vina, example_complex)

    def test_better_score_for_bound_pose(self, example_complex):
        vina = VinaScorer(noise_scale=0.0)
        far = dataclasses.replace(example_complex, ligand=example_complex.ligand.translate([0, 0, 50.0]))
        assert vina.score(example_complex) < vina.score(far)


class TestMMGBSA:
    def test_rescoring_more_accurate_than_vina_on_average(self, tiny_pdbbind):
        """MM/GBSA (lower systematic error) should correlate at least as well as Vina with the latent pK."""
        vina, mmgbsa = VinaScorer(), MMGBSARescorer()
        model = InteractionModel()
        complexes = [entry.complex for entry in tiny_pdbbind.entries]
        true = [model.true_pk(c) for c in complexes]
        v = -vina.score_many(complexes) / PK_TO_KCAL
        m = -mmgbsa.score_many(complexes) / PK_TO_KCAL
        corr_v = np.corrcoef(true, v)[0, 1]
        corr_m = np.corrcoef(true, m)[0, 1]
        assert np.isfinite(corr_v) and np.isfinite(corr_m)
        assert corr_m > 0.1  # MM/GBSA tracks the latent physics


def random_pose(site, ligand, seed):
    """The ligand at a random initial placement near the pocket mouth."""
    coords = initial_pose_coords(site, ligand.coordinates, np.random.default_rng(seed))
    return molecule_with_coordinates(ligand, coords)


class TestPoseGeneration:
    def test_initial_placement_inside_pocket(self, protease_site, prepared_ligands):
        ligand = prepared_ligands[0].molecule
        pose = random_pose(protease_site, ligand, seed=0)
        assert np.linalg.norm(pose.centroid() - protease_site.center) < protease_site.radius + 5.0

    def test_dock_returns_sorted_distinct_poses(self, protease_site, prepared_ligands):
        generator = PoseGenerator(VinaScorer(), num_poses=4, monte_carlo_steps=15, restarts=2, seed=1)
        poses = generator.dock(protease_site, prepared_ligands[0].molecule, complex_id="c0")
        assert 1 <= len(poses) <= 4
        scores = [p.score for p in poses]
        assert scores == sorted(scores)
        for a in poses:
            for b in poses:
                if a.pose_id != b.pose_id:
                    assert rmsd(a.complex.ligand, b.complex.ligand) >= generator.min_pose_separation

    def test_docking_improves_over_random_placement(self, protease_site, prepared_ligands):
        scorer = VinaScorer(noise_scale=0.0)
        ligand = prepared_ligands[1].molecule
        placed = random_pose(protease_site, ligand, seed=5)
        random_score = scorer.score(ProteinLigandComplex(protease_site, placed, "c"))
        generator = PoseGenerator(scorer, num_poses=1, monte_carlo_steps=30, restarts=2, seed=2)
        best = generator.dock(protease_site, ligand, complex_id="c")[0]
        assert best.score <= random_score

    def test_rmsd_to_reference_recorded(self, protease_site, prepared_ligands):
        ligand = prepared_ligands[0].molecule
        generator = PoseGenerator(VinaScorer(), num_poses=2, monte_carlo_steps=10, restarts=1, seed=3)
        reference = random_pose(protease_site, ligand, seed=9)
        poses = generator.dock(protease_site, ligand, complex_id="c", reference=reference)
        assert all(np.isfinite(p.rmsd_to_reference) for p in poses)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoseGenerator(VinaScorer(), num_poses=0)


class TestAMPLSurrogate:
    def test_fit_predict_correlates_with_targets(self, molecules):
        mmgbsa = MMGBSARescorer()
        # build synthetic targets from descriptors to guarantee learnability
        from repro.chem.descriptors import descriptor_vector

        targets = np.array([descriptor_vector(m)[0] * -0.01 - 5.0 for m in molecules])
        surrogate = AMPLSurrogate(target="protease1", alpha=0.1).fit(molecules, targets)
        predictions = surrogate.predict_many(molecules)
        assert np.corrcoef(predictions, targets)[0, 1] > 0.9
        assert isinstance(surrogate.predict(molecules[0]), float)

    def test_fit_validation(self, molecules):
        with pytest.raises(ValueError):
            AMPLSurrogate().fit(molecules[:2], np.zeros(2))
        with pytest.raises(ValueError):
            AMPLSurrogate().fit(molecules, np.zeros(2))
        with pytest.raises(RuntimeError):
            AMPLSurrogate().predict(molecules[0])
        with pytest.raises(ValueError):
            AMPLSurrogate(alpha=0.0)


class TestDockingDatabase:
    def _record(self, site="s", compound="c", pose=0, vina=-5.0, pose_mol=None):
        return DockingRecord(site_name=site, compound_id=compound, pose_id=pose, vina_score=vina, pose=pose_mol)

    def test_add_query_best(self, prepared_ligands):
        mol = prepared_ligands[0].molecule
        db = DockingDatabase()
        db.add(self._record(pose=0, vina=-5.0, pose_mol=mol))
        db.add(self._record(pose=1, vina=-7.0, pose_mol=mol))
        db.add(self._record(compound="d", pose=0, vina=-2.0, pose_mol=mol))
        assert len(db) == 3
        assert db.compounds("s") == ["c", "d"]
        assert db.best_pose("s", "c", by="vina").pose_id == 1
        assert db.best_pose("s", "c", by="mmgbsa") is None
        record = db.best_pose("s", "c", by="vina")
        record.fusion_pk = 8.0
        assert db.best_pose("s", "c", by="fusion").pose_id == 1
        with pytest.raises(ValueError):
            db.best_pose("s", "c", by="unknown")


class TestConveyorLC:
    def test_full_pipeline(self, sarscov2_sites, molecules):
        receptors = CDT1Receptor().run([sarscov2_sites["spike1"]])
        ligands = CDT2Ligand().run(molecules[:3], library="test")
        docking = CDT3Docking(num_poses=2, monte_carlo_steps=8, restarts=1, seed=0)
        mmgbsa = CDT4Mmgbsa(max_poses=2, subset_fraction=1.0)
        database = docking.run(receptors, ligands)
        mmgbsa.run(database, {name: record.site for name, record in receptors.items()})
        assert database.sites() == ["spike1"]
        assert len(database.compounds("spike1")) >= 2
        # every rescored record has a finite MM/GBSA score
        rescored = [r for r in database if np.isfinite(r.mmgbsa_score)]
        assert len(rescored) > 0

    def test_receptor_stage_validation(self):
        from repro.chem.protein import BindingSite, PocketFamily

        empty = BindingSite(name="empty", target="t", atoms=[], family=PocketFamily(1))
        with pytest.raises(ValueError):
            CDT1Receptor().run([empty])

    def test_ligand_stage_uses_prep(self, molecules):
        stage = CDT2Ligand()
        prepared = stage.run(molecules[:2], library="lib")
        assert len(prepared) <= 2

    def test_mmgbsa_subset_fraction_validation(self):
        with pytest.raises(ValueError):
            CDT4Mmgbsa(subset_fraction=0.0)
