"""Molecular descriptors (the "selected MOE descriptors" of the paper's pipeline).

The descriptors are intentionally simple group-contribution estimates:
they only need to (a) characterize library property distributions, (b)
feed the AMPL MM/GBSA surrogate model, and (c) support drug-likeness
filters in the compound cost function.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule

#: Approximate atomic logP contributions (Crippen-style, heavily simplified).
_LOGP_CONTRIBUTION = {
    "C": 0.30,
    "N": -0.60,
    "O": -0.55,
    "S": 0.25,
    "P": -0.45,
    "F": 0.35,
    "Cl": 0.60,
    "Br": 0.75,
    "I": 0.90,
}

#: Approximate polar-surface-area contributions per heteroatom (Å^2).
_TPSA_CONTRIBUTION = {"N": 12.0, "O": 17.0, "S": 8.0, "P": 10.0}


def compute_descriptors(molecule: Molecule) -> dict[str, float]:
    """Compute a dictionary of 2-D descriptors for ``molecule``.

    Returns
    -------
    dict with keys:
        ``molecular_weight``, ``heavy_atoms``, ``logp``, ``tpsa``,
        ``hbd`` (donors), ``hba`` (acceptors), ``rotatable_bonds``,
        ``rings``, ``aromatic_atoms``, ``net_charge``,
        ``fraction_csp3`` (fraction of carbons with 4 single bonds),
        ``qed_like`` (a [0, 1] drug-likeness score combining the above).
    """
    molecule_copy = molecule
    hbd = sum(1 for a in molecule_copy.atoms if a.hbond_donor)
    hba = sum(1 for a in molecule_copy.atoms if a.hbond_acceptor)
    logp = float(sum(_LOGP_CONTRIBUTION.get(a.element, 0.0) for a in molecule_copy.atoms))
    # hydrophilic correction for charged atoms
    logp -= 0.8 * sum(abs(a.formal_charge) for a in molecule_copy.atoms)
    tpsa = float(sum(_TPSA_CONTRIBUTION.get(a.element, 0.0) for a in molecule_copy.atoms))
    carbons = [a for a in molecule_copy.atoms if a.element == "C"]
    if carbons:
        multiply_bonded = {index for b in molecule_copy.bonds if b.order != 1 for index in (b.i, b.j)}
        sp3 = sum(1 for a in carbons if a.index not in multiply_bonded)
        fraction_csp3 = sp3 / len(carbons)
    else:
        fraction_csp3 = 0.0

    descriptors = {
        "molecular_weight": molecule_copy.molecular_weight(),
        "heavy_atoms": float(molecule_copy.num_atoms),
        "logp": logp,
        "tpsa": tpsa,
        "hbd": float(hbd),
        "hba": float(hba),
        "rotatable_bonds": float(molecule_copy.rotatable_bonds()),
        "rings": float(molecule_copy.num_rings()),
        "aromatic_atoms": float(sum(1 for a in molecule_copy.atoms if a.aromatic)),
        "net_charge": float(molecule_copy.net_charge()),
        "fraction_csp3": float(fraction_csp3),
    }
    descriptors["qed_like"] = _qed_like(descriptors)
    return descriptors


def _qed_like(d: dict[str, float]) -> float:
    """A smooth [0, 1] drug-likeness score peaking at typical drug-like values."""

    def gaussian(value: float, mean: float, width: float) -> float:
        return float(np.exp(-0.5 * ((value - mean) / width) ** 2))

    parts = [
        gaussian(d["molecular_weight"], 350.0, 150.0),
        gaussian(d["logp"], 2.5, 2.0),
        gaussian(d["tpsa"], 80.0, 50.0),
        gaussian(d["hbd"], 2.0, 2.0),
        gaussian(d["hba"], 5.0, 3.0),
        gaussian(d["rotatable_bonds"], 5.0, 4.0),
    ]
    return float(np.prod(parts) ** (1.0 / len(parts)))


def lipinski_violations(descriptors: dict[str, float]) -> int:
    """Count violations of Lipinski's rule of five for a descriptor dict."""
    violations = 0
    if descriptors["molecular_weight"] > 500:
        violations += 1
    if descriptors["logp"] > 5:
        violations += 1
    if descriptors["hbd"] > 5:
        violations += 1
    if descriptors["hba"] > 10:
        violations += 1
    return violations


DESCRIPTOR_NAMES: tuple[str, ...] = (
    "molecular_weight",
    "heavy_atoms",
    "logp",
    "tpsa",
    "hbd",
    "hba",
    "rotatable_bonds",
    "rings",
    "aromatic_atoms",
    "net_charge",
    "fraction_csp3",
    "qed_like",
)


def descriptor_vector(molecule: Molecule) -> np.ndarray:
    """Return descriptors as a fixed-order vector (used by the AMPL surrogate)."""
    descriptors = compute_descriptors(molecule)
    return np.array([descriptors[name] for name in DESCRIPTOR_NAMES], dtype=np.float64)
