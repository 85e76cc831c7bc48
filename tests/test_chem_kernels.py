"""The array-native chemistry kernels against their scalar oracles.

Every comparison is ``np.array_equal`` (or ``==`` on floats): the force
field, minimiser, embedder, neighbour index, ring bonds, protonation
and the ``fraction_csp3`` descriptor must reproduce the loops in
``chem_oracle`` bit for bit, on generated molecules from every library
profile and on the degenerate shapes a library can produce.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chem_oracle import (
    molecule_graph,
    reference_compute,
    reference_embed,
    reference_formal_charges,
    reference_fraction_csp3,
    reference_minimize,
    reference_neighbors,
    reference_ring_bonds,
    reference_rotatable_bonds,
)
from repro.chem.atom import Atom
from repro.chem.conformer import embed_3d, minimize_conformer
from repro.chem.descriptors import compute_descriptors
from repro.chem.forcefield import ForceField, ForceFieldTopology
from repro.chem.molecule import Bond, Molecule
from repro.chem.prep import LigandPrepPipeline
from repro.datasets import make_streaming_library

LIBRARIES = ("enamine", "chembl", "emolecules", "zinc_world_approved")


def _charged(atoms, bonds, seed=0):
    """An embedded molecule with partial charges, as the force field sees it."""
    molecule = embed_3d(Molecule(atoms, bonds, name="edge"), rng=seed)
    molecule.assign_partial_charges()
    return molecule


def _fixed_cases():
    c = lambda: Atom("C")  # noqa: E731
    cases = {
        "one_atom": _charged([c()], []),
        "two_bonded": _charged([c(), Atom("O")], [Bond(0, 1)]),
        "no_bonds": _charged([c(), Atom("N"), Atom("O"), c()], []),
        "salt": _charged(
            [c(), c(), Atom("N"), c(), Atom("Na", formal_charge=1)],
            [Bond(0, 1), Bond(1, 2, 2), Bond(2, 3)],
        ),
        "metal": _charged(
            [c(), Atom("O"), c(), Atom("S"), Atom("Zn", formal_charge=2)],
            [Bond(0, 1), Bond(1, 2), Bond(2, 3), Bond(1, 4)],
        ),
    }
    # one compound per profile, whatever hypothesis happens to draw
    for library in LIBRARIES:
        cases[library] = make_streaming_library(library, 4, seed=5).compound(3)
    return cases


FIXED_CASES = _fixed_cases()


def assert_kernels_match_oracle(molecule: Molecule, seed: int) -> None:
    ff = ForceField()
    topology = ForceFieldTopology.from_molecule(molecule)
    energy, _ = reference_compute(ff, molecule, want_forces=False)
    assert ff.evaluate(topology, molecule.coordinates, want_forces=False)[0] == energy
    reference_energy, reference_forces = reference_compute(ff, molecule, want_forces=True)
    energy, forces = ff.evaluate(topology, molecule.coordinates)
    assert energy.total == reference_energy.total
    assert np.array_equal(forces, reference_forces)

    relaxed, relaxed_energy = minimize_conformer(molecule, ff, max_steps=25)
    reference_relaxed, reference_relaxed_energy = reference_minimize(molecule, ff, max_steps=25)
    assert relaxed_energy == reference_relaxed_energy
    assert np.array_equal(relaxed.coordinates, reference_relaxed.coordinates)

    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    embedded = embed_3d(molecule, rng)
    reference_embedded = reference_embed(molecule, reference_rng)
    assert np.array_equal(embedded.coordinates, reference_embedded.coordinates)
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    for index in range(molecule.num_atoms):
        assert molecule.neighbors(index) == reference_neighbors(molecule, index)
    assert molecule.ring_bonds() == reference_ring_bonds(molecule)
    assert molecule.rotatable_bonds() == reference_rotatable_bonds(molecule)
    assert molecule.num_rings() == len(nx.cycle_basis(molecule_graph(molecule)))

    protonated = LigandPrepPipeline.protonate(molecule)
    formal = reference_formal_charges(molecule)
    assert [a.formal_charge for a in protonated.atoms] == formal
    reference_protonated = molecule.copy()
    for atom, charge in zip(reference_protonated.atoms, formal):
        atom.formal_charge = charge
    reference_protonated.assign_partial_charges()
    assert [a.partial_charge for a in protonated.atoms] == [a.partial_charge for a in reference_protonated.atoms]
    assert compute_descriptors(molecule)["fraction_csp3"] == reference_fraction_csp3(molecule)


@settings(max_examples=24, deadline=None)
@given(
    library=st.sampled_from(LIBRARIES),
    index=st.integers(min_value=0, max_value=9_999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(library="emolecules", index=4711, seed=4711)
def test_generated_molecules_match_oracle(library, index, seed):
    molecule = make_streaming_library(library, 10_000, seed=seed % 97).compound(index)
    assert_kernels_match_oracle(molecule, seed)


@pytest.mark.parametrize("name", sorted(FIXED_CASES))
def test_fixed_cases_match_oracle(name):
    assert_kernels_match_oracle(FIXED_CASES[name], seed=11)
