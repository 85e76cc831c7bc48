"""Tests for elements, atoms, molecules, conformers, force field and descriptors."""

import copy
import copyreg
import io
import pickle

import networkx as nx
import numpy as np
import pytest
from chem_oracle import reference_neighbors

from repro.chem.atom import Atom
from repro.chem.conformer import embed_3d, minimize_conformer, random_rotation_matrix
from repro.chem.descriptors import compute_descriptors, descriptor_vector, lipinski_violations, DESCRIPTOR_NAMES
from repro.chem.elements import ELEMENTS, get_element
from repro.chem.forcefield import ForceField
from repro.chem.molecule import Bond, Molecule


def linear_molecule(symbols="CCCO"):
    atoms = [Atom(element=s, position=[i * 1.5, 0.0, 0.0]) for i, s in enumerate(symbols)]
    bonds = [Bond(i, i + 1) for i in range(len(symbols) - 1)]
    return Molecule(atoms, bonds, name="linear")


def ring_molecule(size=6):
    atoms = [Atom(element="C", position=[np.cos(2 * np.pi * i / size), np.sin(2 * np.pi * i / size), 0.0]) for i in range(size)]
    bonds = [Bond(i, (i + 1) % size) for i in range(size)]
    return Molecule(atoms, bonds, name="ring")


class TestElementsAndAtoms:
    def test_element_lookup(self):
        carbon = get_element("C")
        assert carbon.atomic_number == 6
        assert "Cl" in ELEMENTS and ELEMENTS["Cl"].is_halogen
        assert ELEMENTS["Zn"].is_metal
        with pytest.raises(KeyError):
            get_element("Xx")

    def test_atom_validation_and_properties(self):
        atom = Atom(element="N", position=[1, 2, 3])
        assert atom.position.shape == (3,)
        assert atom.vdw_radius == ELEMENTS["N"].vdw_radius
        assert not atom.is_metal
        with pytest.raises(KeyError):
            Atom(element="Qq")

    def test_atom_copy_and_distance(self):
        a = Atom("C", [0, 0, 0])
        b = Atom("C", [3, 4, 0])
        assert a.distance_to(b) == pytest.approx(5.0)
        c = a.copy()
        c.position[0] = 9.0
        assert a.position[0] == 0.0


class TestMoleculeTopology:
    def test_basic_counts_and_formula(self):
        mol = linear_molecule("CCNO")
        assert mol.num_atoms == 4
        assert mol.num_bonds == 3
        assert mol.formula() == "C2NO"
        assert mol.molecular_weight() == pytest.approx(2 * 12.011 + 14.007 + 15.999)

    def test_bond_validation(self):
        mol = linear_molecule("CC")
        with pytest.raises(ValueError):
            mol.add_bond(0, 1)  # duplicate
        with pytest.raises(IndexError):
            mol.add_bond(0, 5)
        with pytest.raises(ValueError):
            Bond(1, 1)
        with pytest.raises(ValueError):
            Bond(0, 1, order=4)

    def test_neighbors_degree_components(self):
        mol = linear_molecule("CCC")
        assert mol.neighbors(1) == [0, 2]
        assert mol.degree(0) == 1
        assert mol.connected_components() == [[0, 1, 2]]

    def test_rings_and_rotatable_bonds(self):
        ring = ring_molecule(6)
        assert ring.num_rings() == 1
        assert ring.rotatable_bonds() == 0  # all bonds in a ring
        chain = linear_molecule("CCCCC")
        # terminal bonds do not count
        assert chain.rotatable_bonds() == 2

    def test_geometry_operations(self):
        mol = linear_molecule()
        moved = mol.translate([1.0, 0.0, 0.0])
        assert moved.centroid()[0] == pytest.approx(mol.centroid()[0] + 1.0)
        rotation = random_rotation_matrix(np.random.default_rng(0))
        rotated = mol.rotate(rotation)
        # rotation preserves pairwise distances
        assert rotated.rmsd_to(rotated) == 0.0
        d_before = np.linalg.norm(mol.coordinates[0] - mol.coordinates[-1])
        d_after = np.linalg.norm(rotated.coordinates[0] - rotated.coordinates[-1])
        assert d_after == pytest.approx(d_before)

    def test_rmsd_requires_same_size(self):
        with pytest.raises(ValueError):
            linear_molecule("CC").rmsd_to(linear_molecule("CCC"))

    def test_set_coordinates_validation(self):
        mol = linear_molecule("CC")
        with pytest.raises(ValueError):
            mol.set_coordinates(np.zeros((3, 3)))

    def test_charges_and_pharmacophores(self):
        mol = linear_molecule("CCNO")
        mol.assign_partial_charges()
        charges = [a.partial_charge for a in mol.atoms]
        assert abs(sum(charges)) < 1e-9  # neutral molecule stays neutral
        mol.assign_pharmacophores()
        nitrogen = mol.atoms[2]
        assert nitrogen.hbond_acceptor


def _old_layout_pickle(state: dict) -> bytes:
    """Pickle bytes of a Molecule whose bond list lived in ``__dict__["bonds"]``."""
    molecule = Molecule.__new__(Molecule)

    class OldLayoutPickler(pickle.Pickler):
        def reducer_override(self, obj):
            # what object.__reduce_ex__ returned before Molecule had __getstate__
            return (copyreg.__newobj__, (Molecule,), state) if obj is molecule else NotImplemented

    buffer = io.BytesIO()
    OldLayoutPickler(buffer).dump(molecule)
    return buffer.getvalue()


class TestTopologyIndex:
    """The adjacency index and bond-key set stay in step with ``bonds``."""

    def test_bonds_reassignment_rebuilds_index(self):
        mol = linear_molecule("CCCC")
        mol.bonds = [Bond(0, 1, 2), Bond(1, 2), Bond(2, 3)]  # as _assign_bond_orders does
        assert [b.order for b in mol.bonds] == [2, 1, 1]
        assert mol.neighbors(1) == [0, 2] and mol.degree(3) == 1
        mol.bonds = [Bond(0, 1), Bond(1, 2)]
        assert mol.neighbors(3) == [] and mol.degree(2) == 1
        mol.add_bond(3, 2)  # the dropped bond is no longer a duplicate
        assert mol.neighbors(2) == [1, 3]
        with pytest.raises(ValueError):
            mol.bonds = [Bond(0, 1), Bond(1, 0)]

    def test_atom_append_then_add_bond(self):
        mol = linear_molecule("CCO")
        metal = Atom(element="Zn", formal_charge=2)
        mol.atoms.append(metal)  # as _attach_metal does
        metal.index = mol.num_atoms - 1
        assert mol.neighbors(3) == [] and mol.connected_components() == [[0, 1, 2], [3]]
        mol.add_bond(2, 3)
        assert mol.neighbors(3) == [2] and mol.degree(2) == 2
        assert mol.connected_components() == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("first, second", [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))])
    def test_duplicate_bond_in_either_orientation(self, first, second):
        mol = Molecule([Atom("C"), Atom("C")])
        mol.add_bond(*first)
        with pytest.raises(ValueError):
            mol.add_bond(*second)
        assert mol.num_bonds == 1 and mol.degree(0) == 1

    def test_neighbors_are_sorted(self):
        mol = Molecule([Atom("C") for _ in range(5)], [Bond(2, 4), Bond(2, 0), Bond(3, 2), Bond(1, 2)])
        assert mol.neighbors(2) == [0, 1, 3, 4]
        assert all(mol.neighbors(i) == reference_neighbors(mol, i) for i in range(5))
        assert mol.neighbors(99) == []

    def test_copy_is_independent(self):
        source = linear_molecule("CCCO")
        twin = source.copy()
        twin.add_bond(0, 3)
        twin.atoms[0].position[0] = 42.0
        assert source.num_bonds == 3 and source.neighbors(0) == [1]
        assert twin.neighbors(0) == [1, 3] and source.atoms[0].position[0] == 0.0
        source.bonds = [Bond(0, 1)]
        assert twin.num_bonds == 4 and twin.neighbors(2) == [1, 3]
        assert [a.index for a in twin.atoms] == [0, 1, 2, 3]

    def test_path_length_and_components_match_networkx(self, molecules):
        for mol in molecules + [linear_molecule("CCO"), Molecule([Atom("C"), Atom("C"), Atom("Na")], [Bond(0, 1)])]:
            graph = mol.to_graph()
            assert mol.connected_components() == [sorted(c) for c in nx.connected_components(graph)]
            for i in range(mol.num_atoms):
                for j in range(mol.num_atoms):
                    if nx.has_path(graph, i, j):
                        assert mol.path_length(i, j) == nx.shortest_path_length(graph, i, j)
                    else:
                        assert mol.path_length(i, j) is None

    def test_pickle_round_trip_rebuilds_index(self, molecules):
        mol = molecules[0]
        state = mol.__getstate__()
        assert set(state) >= {"atoms", "bonds", "name"}
        assert "_adjacency" not in state and "_bond_keys" not in state
        loaded = pickle.loads(pickle.dumps(mol))
        assert [b.as_tuple() for b in loaded.bonds] == [b.as_tuple() for b in mol.bonds]
        assert np.array_equal(loaded.coordinates, mol.coordinates)
        assert all(loaded.neighbors(i) == mol.neighbors(i) for i in range(mol.num_atoms))
        with pytest.raises(ValueError):
            loaded.add_bond(mol.bonds[0].j, mol.bonds[0].i)
        assert copy.deepcopy(mol).neighbors(0) == mol.neighbors(0)

    def test_old_layout_state_loads(self):
        atoms = [Atom("C", [0.0, 0.0, 0.0]), Atom("C", [1.5, 0.0, 0.0]), Atom("O", [3.0, 0.0, 0.0])]
        for index, atom in enumerate(atoms):
            atom.index = index
        state = {"atoms": atoms, "bonds": [Bond(0, 1), Bond(2, 1, 2)], "name": "old"}
        old_bytes = _old_layout_pickle(state)
        loaded = pickle.loads(old_bytes)
        assert isinstance(loaded, Molecule) and loaded.name == "old"
        assert loaded.neighbors(1) == [0, 2] and loaded.degree(2) == 1
        assert [b.as_tuple() for b in loaded.bonds] == [(0, 1, 1), (2, 1, 2)]
        with pytest.raises(ValueError):
            loaded.add_bond(1, 2)
        # the index is not pickled: a Molecule pickles to the old layout's bytes
        assert pickle.dumps(loaded) == old_bytes


class TestConformerAndForceField:
    def test_embed_3d_respects_bond_lengths(self):
        mol = linear_molecule("CCCCCC")
        embedded = embed_3d(mol, rng=0)
        for bond in embedded.bonds:
            d = np.linalg.norm(embedded.atoms[bond.i].position - embedded.atoms[bond.j].position)
            assert d == pytest.approx(1.5, abs=1e-6)
        # no severe clashes between non-bonded atoms
        coords = embedded.coordinates
        dists = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        np.fill_diagonal(dists, 10.0)
        assert dists.min() > 0.8

    def test_embed_3d_separates_components(self):
        atoms = [Atom("C"), Atom("C"), Atom("Na")]
        mol = Molecule(atoms, [Bond(0, 1)])
        embedded = embed_3d(mol, rng=1)
        assert np.linalg.norm(embedded.atoms[2].position - embedded.atoms[0].position) > 3.0

    def test_minimization_does_not_increase_energy(self):
        mol = embed_3d(linear_molecule("CCCCC"), rng=2)
        ff = ForceField()
        before = ff.energy_components(mol).total
        relaxed, after = minimize_conformer(mol, ff, max_steps=20)
        assert after <= before + 1e-9
        assert relaxed.num_atoms == mol.num_atoms

    def test_forcefield_forces_are_negative_gradient(self):
        mol = embed_3d(linear_molecule("CCC"), rng=3)
        ff = ForceField()
        energy, forces = ff.energy_and_forces(mol)
        eps = 1e-6
        coords = mol.coordinates
        numeric = np.zeros_like(coords)
        for i in range(coords.shape[0]):
            for k in range(3):
                for sign, store in ((1, "up"), (-1, "down")):
                    trial = coords.copy()
                    trial[i, k] += sign * eps
                    mol.set_coordinates(trial)
                    if sign == 1:
                        up = ff.energy_components(mol).total
                    else:
                        down = ff.energy_components(mol).total
                numeric[i, k] = -(up - down) / (2 * eps)
        mol.set_coordinates(coords)
        np.testing.assert_allclose(forces, numeric, atol=1e-3, rtol=1e-3)

    def test_rotation_matrix_is_orthogonal(self):
        rotation = random_rotation_matrix(np.random.default_rng(5))
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(rotation) == pytest.approx(1.0)


class TestDescriptors:
    def test_descriptor_keys_and_vector_order(self, molecules):
        descriptors = compute_descriptors(molecules[0])
        assert set(DESCRIPTOR_NAMES) <= set(descriptors)
        vector = descriptor_vector(molecules[0])
        assert vector.shape == (len(DESCRIPTOR_NAMES),)
        assert np.isfinite(vector).all()

    def test_qed_like_bounded(self, molecules):
        for mol in molecules:
            q = compute_descriptors(mol)["qed_like"]
            assert 0.0 <= q <= 1.0

    def test_lipinski_violations(self):
        assert lipinski_violations({"molecular_weight": 900, "logp": 7, "hbd": 6, "hba": 12}) == 4
        assert lipinski_violations({"molecular_weight": 300, "logp": 2, "hbd": 1, "hba": 4}) == 0
