"""Binding-pocket models for protein targets.

The paper screens against four structure-derived binding sites: two
conformations of the SARS-CoV-2 main protease active site (protease1 —
PDB 6LU7 — and protease2) and two sites on the spike protein receptor
binding domain (spike1, spike2).  Offline we cannot parse the real PDB
structures, so each binding site is represented by a rigid cloud of
pocket pseudo-atoms lining a roughly hemispherical cavity, parameterized
by a :class:`PocketFamily` that controls the site's size, depth,
hydrophobicity, hydrogen-bonding capacity and charge character.

The same machinery generates the diverse pocket population of the
synthetic PDBbind dataset: every protein family in that dataset is a
:class:`PocketFamily`, and the "core set" hold-out uses families never
seen in training — reproducing the clustering-based split of the real
PDBbind core set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.atom import Atom
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class PocketFamily:
    """Parameters describing a family of related binding pockets.

    Attributes
    ----------
    family_id:
        Integer identifier (protein-sequence cluster analogue).
    num_atoms_mean:
        Mean number of pocket pseudo-atoms.
    radius:
        Pocket opening radius in Angstroms.
    depth:
        Pocket depth in Angstroms.
    hydrophobic_fraction:
        Fraction of pocket atoms flagged hydrophobic.
    donor_fraction / acceptor_fraction:
        Fractions of pocket atoms that donate / accept hydrogen bonds.
    charge_scale:
        Standard deviation of pocket partial charges.
    """

    family_id: int
    num_atoms_mean: float = 60.0
    radius: float = 8.0
    depth: float = 6.0
    hydrophobic_fraction: float = 0.45
    donor_fraction: float = 0.2
    acceptor_fraction: float = 0.25
    charge_scale: float = 0.25

    @staticmethod
    def random(family_id: int, rng=None) -> "PocketFamily":
        """Sample a random family (used to populate the synthetic PDBbind)."""
        rng = ensure_rng(rng)
        return PocketFamily(
            family_id=family_id,
            num_atoms_mean=float(rng.uniform(40, 90)),
            radius=float(rng.uniform(5.5, 10.0)),
            depth=float(rng.uniform(4.0, 8.0)),
            hydrophobic_fraction=float(rng.uniform(0.25, 0.65)),
            donor_fraction=float(rng.uniform(0.10, 0.30)),
            acceptor_fraction=float(rng.uniform(0.15, 0.35)),
            charge_scale=float(rng.uniform(0.1, 0.4)),
        )


@dataclass
class BindingSite:
    """A rigid binding pocket: named site of a target protein.

    Attributes
    ----------
    name:
        Site name (e.g. ``"protease1"``).
    target:
        Parent protein name (e.g. ``"Mpro"``).
    atoms:
        Pocket pseudo-atoms (positions in the site frame; the pocket
        cavity is centred at the origin and opens towards +z).
    family:
        The :class:`PocketFamily` the site was drawn from.
    """

    name: str
    target: str
    atoms: list[Atom]
    family: PocketFamily
    metadata: dict = field(default_factory=dict)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def center(self) -> np.ndarray:
        """Geometric centre of the cavity (the docking box centre)."""
        return np.zeros(3)

    @property
    def radius(self) -> float:
        return self.family.radius

    def coordinates(self) -> np.ndarray:
        """``(num_atoms, 3)`` array of pocket atom positions."""
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def copy(self) -> "BindingSite":
        return BindingSite(
            name=self.name,
            target=self.target,
            atoms=[a.copy() for a in self.atoms],
            family=self.family,
            metadata=dict(self.metadata),
        )


_POCKET_ELEMENTS = ("C", "N", "O", "S")


def generate_binding_site(
    family: PocketFamily,
    rng=None,
    name: str = "site",
    target: str = "protein",
) -> BindingSite:
    """Generate a binding site from a pocket family.

    Pocket pseudo-atoms are placed on the inside of a hemispherical bowl
    of the family's radius and depth (plus positional jitter), so every
    site of a family shares its gross shape while individual sites
    differ — the analogue of homologous proteins sharing a fold.
    """
    rng = ensure_rng(rng)
    n_atoms = max(12, int(rng.normal(family.num_atoms_mean, family.num_atoms_mean * 0.1)))
    atoms: list[Atom] = []
    for _ in range(n_atoms):
        # sample a point on the lower hemisphere of an ellipsoidal bowl
        phi = rng.uniform(0, 2 * np.pi)
        costheta = rng.uniform(-1.0, -0.05)  # below the opening plane
        sintheta = np.sqrt(1 - costheta**2)
        radial = family.radius * rng.uniform(0.85, 1.1)
        position = np.array(
            [
                radial * sintheta * np.cos(phi),
                radial * sintheta * np.sin(phi),
                family.depth * costheta,
            ]
        )
        position += rng.normal(scale=0.4, size=3)
        roll = rng.random()
        if roll < family.hydrophobic_fraction:
            element, hydrophobic, donor, acceptor = "C", True, False, False
        elif roll < family.hydrophobic_fraction + family.donor_fraction:
            element, hydrophobic, donor, acceptor = "N", False, True, False
        elif roll < family.hydrophobic_fraction + family.donor_fraction + family.acceptor_fraction:
            element, hydrophobic, donor, acceptor = "O", False, False, True
        else:
            element = str(rng.choice(_POCKET_ELEMENTS))
            hydrophobic, donor, acceptor = element == "C", False, element in ("O", "N")
        atoms.append(
            Atom(
                element=element,
                position=position,
                partial_charge=float(rng.normal(scale=family.charge_scale)),
                hydrophobic=hydrophobic,
                hbond_donor=donor,
                hbond_acceptor=acceptor,
            )
        )
    return BindingSite(name=name, target=target, atoms=atoms, family=family)


#: Families for the four SARS-CoV-2 sites. Protease pockets are larger and
#: deeper than the shallow spike RBD sites, as discussed in §5.3 of the paper.
SARS_COV_2_FAMILIES: dict[str, PocketFamily] = {
    "protease1": PocketFamily(
        family_id=9001, num_atoms_mean=80, radius=9.5, depth=7.5,
        hydrophobic_fraction=0.40, donor_fraction=0.22, acceptor_fraction=0.28, charge_scale=0.30,
    ),
    "protease2": PocketFamily(
        family_id=9002, num_atoms_mean=76, radius=9.0, depth=7.0,
        hydrophobic_fraction=0.45, donor_fraction=0.20, acceptor_fraction=0.25, charge_scale=0.28,
    ),
    "spike1": PocketFamily(
        family_id=9003, num_atoms_mean=42, radius=6.0, depth=4.5,
        hydrophobic_fraction=0.55, donor_fraction=0.15, acceptor_fraction=0.20, charge_scale=0.20,
    ),
    "spike2": PocketFamily(
        family_id=9004, num_atoms_mean=40, radius=5.5, depth=4.0,
        hydrophobic_fraction=0.50, donor_fraction=0.18, acceptor_fraction=0.22, charge_scale=0.22,
    ),
}

#: Protein each SARS-CoV-2 site belongs to.
SARS_COV_2_SITE_TARGETS = {
    "protease1": "Mpro",
    "protease2": "Mpro",
    "spike1": "spike",
    "spike2": "spike",
}


def make_sarscov2_targets(seed: int = 2020) -> dict[str, BindingSite]:
    """Create the four SARS-CoV-2 binding sites used in the screening campaign."""
    rng = ensure_rng(seed)
    sites: dict[str, BindingSite] = {}
    for name, family in SARS_COV_2_FAMILIES.items():
        sites[name] = generate_binding_site(
            family, rng=rng, name=name, target=SARS_COV_2_SITE_TARGETS[name]
        )
    return sites
