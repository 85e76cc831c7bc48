"""Tests for the SMILES dialect, the molecule generator and the prep pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from chem_oracle import molecule_graph, parse_smiles

from repro.chem.atom import Atom
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.molecule import Bond, Molecule
from repro.chem.prep import LigandPrepPipeline
from repro.chem.smiles import canonical_ranks, to_smiles


def graphs_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Cheap isomorphism check adequate for round-trip testing."""
    import networkx as nx

    ga, gb = molecule_graph(a), molecule_graph(b)
    return nx.is_isomorphic(
        ga, gb, node_match=lambda x, y: x["element"] == y["element"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )


class TestSmiles:
    def test_simple_chain(self):
        mol = Molecule([Atom("C"), Atom("C"), Atom("O")], [Bond(0, 1), Bond(1, 2, 2)])
        smiles = to_smiles(mol)
        parsed = parse_smiles(smiles)
        assert parsed.num_atoms == 3
        assert sorted(b.order for b in parsed.bonds) == [1, 2]

    def test_ring_roundtrip(self):
        atoms = [Atom("C") for _ in range(6)]
        bonds = [Bond(i, (i + 1) % 6) for i in range(6)]
        mol = Molecule(atoms, bonds)
        parsed = parse_smiles(to_smiles(mol))
        assert parsed.num_bonds == 6
        assert parsed.num_rings() == 1
        assert graphs_isomorphic(mol, parsed)

    def test_charged_and_bracket_atoms(self):
        mol = Molecule([Atom("N", formal_charge=1), Atom("C"), Atom("O", formal_charge=-1)], [Bond(0, 1), Bond(1, 2)])
        smiles = to_smiles(mol)
        assert "[N+]" in smiles and "[O-]" in smiles
        parsed = parse_smiles(smiles)
        assert parsed.net_charge() == 0

    def test_disconnected_salt(self):
        mol = Molecule([Atom("C"), Atom("C"), Atom("Na", formal_charge=1)], [Bond(0, 1)])
        smiles = to_smiles(mol)
        assert "." in smiles
        parsed = parse_smiles(smiles)
        assert len(parsed.connected_components()) == 2

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_smiles("C(C")
        with pytest.raises(ValueError):
            parse_smiles("C1CC")  # unclosed ring
        with pytest.raises(ValueError):
            parse_smiles("C$")

    def test_canonical_ranks_symmetry(self):
        # a symmetric molecule: both terminal carbons get the same rank
        mol = Molecule([Atom("C"), Atom("O"), Atom("C")], [Bond(0, 1), Bond(1, 2)])
        ranks = canonical_ranks(mol)
        assert ranks[0] == ranks[2]
        assert ranks[1] != ranks[0]

    def test_equivalent_graphs_same_string(self):
        mol1 = Molecule([Atom("C"), Atom("N"), Atom("C")], [Bond(0, 1), Bond(1, 2)])
        mol2 = Molecule([Atom("C"), Atom("C"), Atom("N")], [Bond(2, 0), Bond(2, 1)])
        assert to_smiles(mol1) == to_smiles(mol2)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generated_molecules_roundtrip(self, seed):
        generator = MoleculeGenerator(GeneratorProfile(heavy_atoms_mean=16, heavy_atoms_sd=4), seed=seed, embed=False)
        mol = generator.generate()
        parsed = parse_smiles(to_smiles(mol))
        assert parsed.num_atoms == mol.num_atoms
        assert parsed.num_bonds == mol.num_bonds
        assert graphs_isomorphic(mol, parsed)


class TestGenerator:
    def test_sizes_respect_profile(self):
        profile = GeneratorProfile(heavy_atoms_mean=20, heavy_atoms_sd=3, heavy_atoms_min=10, heavy_atoms_max=30)
        generator = MoleculeGenerator(profile, seed=1, embed=False)
        sizes = [generator.generate().num_atoms for _ in range(20)]
        assert all(10 <= s <= 30 for s in sizes)
        assert 14 <= np.mean(sizes) <= 26

    def test_connected_drug_like_molecules(self):
        generator = MoleculeGenerator(seed=2)
        for mol in generator.generate_many(5):
            assert len(mol.connected_components()) == 1
            assert np.isfinite(mol.coordinates).all()
            # carbon-dominated composition
            assert sum(1 for a in mol.atoms if a.element == "C") >= 0.4 * mol.num_atoms

    def test_salts_and_metals_appear_at_configured_rate(self):
        profile = GeneratorProfile(salt_probability=1.0, metal_probability=0.0)
        generator = MoleculeGenerator(profile, seed=3, embed=False)
        mol = generator.generate()
        assert len(mol.connected_components()) == 2

    def test_determinism_with_seed(self):
        a = MoleculeGenerator(seed=9, embed=False).generate()
        b = MoleculeGenerator(seed=9, embed=False).generate()
        assert to_smiles(a) == to_smiles(b)


class TestPrepPipeline:
    def test_strip_salts_keeps_largest_component(self):
        mol = Molecule([Atom("C"), Atom("C"), Atom("C"), Atom("Cl", formal_charge=-1)], [Bond(0, 1), Bond(1, 2)])
        stripped, flag = LigandPrepPipeline.strip_salts(mol)
        assert flag and stripped.num_atoms == 3

    def test_metal_ligands_rejected(self):
        pipeline = LigandPrepPipeline(minimize=False)
        mol = Molecule([Atom("C"), Atom("N"), Atom("Zn")], [Bond(0, 1), Bond(1, 2)])
        assert pipeline.process(mol) is None
        assert pipeline.stats.rejected_metal == 1

    def test_protonation_rules(self):
        # an aliphatic amine nitrogen becomes positively charged at pH 7
        amine = Molecule([Atom("C"), Atom("N")], [Bond(0, 1)])
        protonated = LigandPrepPipeline.protonate(amine)
        assert protonated.atoms[1].formal_charge == 1
        # a carboxylate-like oxygen becomes negative
        acid = Molecule([Atom("C"), Atom("C"), Atom("O"), Atom("O")], [Bond(0, 1), Bond(1, 2, 2), Bond(1, 3)])
        deprotonated = LigandPrepPipeline.protonate(acid)
        charges = [a.formal_charge for a in deprotonated.atoms]
        assert -1 in charges

    def test_process_generates_coordinates_and_descriptors(self, molecules):
        pipeline = LigandPrepPipeline(minimize=True, seed=0)
        prepared = pipeline.process(molecules[0], library="lib", compound_id="cmp-1")
        assert prepared is not None
        assert prepared.compound_id == "cmp-1"
        assert prepared.smiles
        assert prepared.descriptors["molecular_weight"] > 0
        assert np.isfinite(prepared.molecule.coordinates).all()

    def test_stats_accumulate(self, molecules):
        pipeline = LigandPrepPipeline(minimize=False, seed=1)
        prepared = pipeline.process_many(molecules, library="x")
        assert pipeline.stats.input_count == len(molecules)
        assert pipeline.stats.prepared == len(prepared)
