"""Tests for binding sites, the SARS-CoV-2 targets and the latent interaction model."""

import dataclasses

import numpy as np
import pytest

from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.protein import (
    PocketFamily,
    SARS_COV_2_FAMILIES,
    generate_binding_site,
    make_sarscov2_targets,
)

from docking_oracle import reference_terms, term_at


class TestBindingSites:
    def test_family_sampling_bounds(self):
        family = PocketFamily.random(3, rng=0)
        assert 40 <= family.num_atoms_mean <= 90
        assert 5.5 <= family.radius <= 10.0

    def test_generate_binding_site_geometry(self):
        family = PocketFamily(family_id=1, radius=7.0, depth=5.0, num_atoms_mean=50)
        site = generate_binding_site(family, rng=0, name="s", target="t")
        coords = site.coordinates()
        assert site.num_atoms >= 12
        # pocket atoms sit below the opening plane (cavity opens towards +z)
        assert np.median(coords[:, 2]) < 0.0
        assert site.radius == 7.0
        assert np.allclose(site.center, 0.0)

    def test_site_copy_is_deep(self):
        site = generate_binding_site(PocketFamily.random(1, rng=1), rng=1)
        clone = site.copy()
        clone.atoms[0].position[0] += 10.0
        assert site.atoms[0].position[0] != clone.atoms[0].position[0]

    def test_sarscov2_targets(self):
        sites = make_sarscov2_targets(seed=7)
        assert set(sites) == {"protease1", "protease2", "spike1", "spike2"}
        # protease pockets are larger than spike pockets, as in the paper
        assert sites["protease1"].num_atoms > sites["spike1"].num_atoms
        assert SARS_COV_2_FAMILIES["protease1"].radius > SARS_COV_2_FAMILIES["spike2"].radius
        assert {site.target for site in sites.values()} == {"Mpro", "spike"}
        assert sites["protease1"].target == sites["protease2"].target == "Mpro"

    def test_reproducible_with_seed(self):
        a = make_sarscov2_targets(seed=3)["spike1"].coordinates()
        b = make_sarscov2_targets(seed=3)["spike1"].coordinates()
        np.testing.assert_allclose(a, b)


class TestInteractionModel:
    def test_terms_nonnegative_and_finite(self, example_complex, interaction_model):
        ligand = example_complex.ligand
        terms = interaction_model.compute_terms_batch(example_complex.site, ligand, ligand.coordinates)
        assert term_at(terms, 0) == reference_terms(interaction_model, example_complex)
        assert terms.shape[0] >= 0
        assert terms.repulsion[0] >= 0
        assert terms.hydrophobic[0] >= 0
        assert terms.hbond[0] >= 0
        assert 0.0 <= terms.buried_fraction[0] <= 1.0
        assert all(np.isfinite(value) for value in dataclasses.astuple(term_at(terms, 0)))

    def test_pk_bounds(self, example_complex, interaction_model):
        pk = interaction_model.true_pk(example_complex)
        assert 0.0 <= pk <= 14.0

    def test_pk_decreases_when_ligand_pulled_out(self, example_complex, interaction_model):
        near = interaction_model.true_pk(example_complex)
        far_ligand = example_complex.ligand.translate(np.array([0.0, 0.0, 40.0]))
        far_complex = dataclasses.replace(example_complex, ligand=far_ligand)
        far = interaction_model.true_pk(far_complex)
        assert far < near

    def test_clash_penalty(self, example_complex, interaction_model):
        # compress the ligand onto a single pocket atom position -> huge clash
        pocket_atom = example_complex.site.atoms[0].position
        squashed = example_complex.ligand.copy()
        squashed.set_coordinates(np.tile(pocket_atom, (squashed.num_atoms, 1)) + 0.05 * np.random.default_rng(0).normal(size=(squashed.num_atoms, 3)))
        clashed = interaction_model.true_pk(dataclasses.replace(example_complex, ligand=squashed))
        assert clashed < interaction_model.true_pk(example_complex)

    def test_deterministic(self, example_complex, interaction_model):
        assert interaction_model.true_pk(example_complex) == interaction_model.true_pk(example_complex)

    def test_empty_complex_raises(self, protease_site, interaction_model):
        from repro.chem.molecule import Molecule

        with pytest.raises(ValueError):
            interaction_model.true_pk(ProteinLigandComplex(protease_site, Molecule([], []), "x"))
