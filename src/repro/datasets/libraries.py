"""Synthetic compound libraries mirroring the paper's screening decks.

§4 of the paper draws from four public libraries: a ZINC-derived
"world-approved 2018" drug set, 1.5 M ChEMBL compounds, 18 M eMolecules
compounds and the remainder (most of the >500 M) from Enamine's
synthetically-feasible drug-like space.  Each synthetic library here has
its own size scale, naming convention and property profile so that
library-level statistics differ in the same qualitative ways (approved
drugs are smaller and more polar; Enamine compounds are more numerous
and more uniform).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chem.elements import ORGANIC_SUBSET
from repro.chem.generator import GeneratorProfile, MoleculeGenerator
from repro.chem.molecule import Molecule
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class CompoundLibrary:
    """A named compound library with a generation profile.

    Attributes
    ----------
    name:
        Library key (``zinc_world_approved``, ``chembl``, ``emolecules``,
        ``enamine``).
    full_size:
        Nominal size of the real library (reported for bookkeeping and
        used to scale the screening campaign model).
    profile:
        Property distribution of generated compounds.
    id_prefix:
        Prefix of generated compound identifiers.
    input_format:
        ``"smiles"`` or ``"sdf"`` — the form the real library is
        distributed in (§4: SMILES for eMolecules/Enamine, 2-D SDF for
        ZINC/ChEMBL).
    """

    name: str
    full_size: int
    profile: GeneratorProfile
    id_prefix: str
    input_format: str = "smiles"

    def generator(self, seed: int = 0) -> MoleculeGenerator:
        """Return a molecule generator for this library."""
        return MoleculeGenerator(self.profile, seed=derive_seed(seed, "library", self.name))

    def generate(self, count: int, seed: int = 0) -> list[Molecule]:
        """Generate ``count`` compounds with library-specific identifiers."""
        generator = self.generator(seed)
        molecules = []
        for index in range(int(count)):
            molecule = generator.generate(name=f"{self.id_prefix}-{index + 1:08d}")
            molecules.append(molecule)
        return molecules


def _profile(**kwargs) -> GeneratorProfile:
    return GeneratorProfile(**kwargs)


LIBRARY_PROFILES: dict[str, CompoundLibrary] = {
    "zinc_world_approved": CompoundLibrary(
        name="zinc_world_approved",
        full_size=6_000,
        profile=_profile(
            heavy_atoms_mean=22.0, heavy_atoms_sd=6.0, ring_closure_rate=2.5,
            double_bond_fraction=0.22, salt_probability=0.25, metal_probability=0.03,
        ),
        id_prefix="ZINC",
        input_format="sdf",
    ),
    "chembl": CompoundLibrary(
        name="chembl",
        full_size=1_500_000,
        profile=_profile(
            heavy_atoms_mean=26.0, heavy_atoms_sd=7.0, ring_closure_rate=2.6,
            double_bond_fraction=0.20, salt_probability=0.15, metal_probability=0.01,
        ),
        id_prefix="CHEMBL",
        input_format="sdf",
    ),
    "emolecules": CompoundLibrary(
        name="emolecules",
        full_size=18_000_000,
        profile=_profile(
            heavy_atoms_mean=24.0, heavy_atoms_sd=6.5, ring_closure_rate=2.2,
            double_bond_fraction=0.18, salt_probability=0.08, metal_probability=0.005,
        ),
        id_prefix="EMOL",
        input_format="smiles",
    ),
    "enamine": CompoundLibrary(
        name="enamine",
        full_size=480_000_000,
        profile=_profile(
            heavy_atoms_mean=23.0, heavy_atoms_sd=4.5, ring_closure_rate=2.0,
            double_bond_fraction=0.16, salt_probability=0.02, metal_probability=0.0,
            element_frequencies=dict(ORGANIC_SUBSET),
        ),
        id_prefix="ENAM",
        input_format="smiles",
    ),
}

#: Total nominal size of the four libraries (the paper's "over 500 million").
TOTAL_LIBRARY_SIZE = sum(lib.full_size for lib in LIBRARY_PROFILES.values())


@dataclass(frozen=True)
class StreamingLibrary:
    """A lazily-generated mega-library for the streaming screening engine.

    :meth:`CompoundLibrary.generate` draws compounds from one sequential
    RNG stream, so compound ``i`` depends on every compound before it —
    fine for materialized decks, fatal for shard-parallel streaming
    (shard boundaries would change every molecule).  A
    ``StreamingLibrary`` instead derives an independent seed per
    compound *index*, so ``compound(i)`` is a pure function of
    ``(library, seed, i)``: any shard partitioning, any worker
    interleaving and any resume point generates bit-identical molecules,
    and nothing is held in memory until a shard asks for its slice.

    Sized to millions of compounds, iterating it costs O(shard) memory;
    ``len()`` is the only thing that scales with ``size``.
    """

    library: CompoundLibrary
    size: int
    seed: int = 0
    id_prefix: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("size must be non-negative")

    @property
    def prefix(self) -> str:
        return self.id_prefix or f"{self.library.id_prefix}S"

    def __len__(self) -> int:
        return int(self.size)

    def compound_name(self, index: int) -> str:
        return f"{self.prefix}-{index + 1:09d}"

    def compound(self, index: int) -> Molecule:
        """Generate compound ``index`` from its own derived seed."""
        if not 0 <= index < self.size:
            raise IndexError(f"compound index {index} out of range [0, {self.size})")
        generator = MoleculeGenerator(
            self.library.profile,
            seed=derive_seed(self.seed, "stream", self.library.name, int(index)),
        )
        return generator.generate(name=self.compound_name(index))

    def generate_range(self, start: int, stop: int) -> list[Molecule]:
        """Materialize one shard ``[start, stop)`` — the streaming engine's slice hook."""
        start = max(int(start), 0)
        stop = min(int(stop), self.size)
        return [self.compound(index) for index in range(start, stop)]


def make_streaming_library(
    name: str = "enamine", size: int = 1_000_000, seed: int = 0
) -> StreamingLibrary:
    """A :class:`StreamingLibrary` over one of the named library profiles."""
    if name not in LIBRARY_PROFILES:
        raise KeyError(f"unknown library '{name}'; options: {sorted(LIBRARY_PROFILES)}")
    return StreamingLibrary(library=LIBRARY_PROFILES[name], size=int(size), seed=int(seed))


@dataclass
class ScreeningDeck:
    """A concrete, generated subset of the libraries used by a campaign."""

    molecules: list[Molecule]
    library_of: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.molecules)


def build_screening_deck(counts: dict[str, int], seed: int = 0) -> ScreeningDeck:
    """Generate a screening deck with ``counts`` compounds per library.

    Example
    -------
    >>> deck = build_screening_deck({"emolecules": 5, "enamine": 5}, seed=1)
    >>> len(deck)
    10
    """
    molecules: list[Molecule] = []
    library_of: dict[str, str] = {}
    for library_name, count in counts.items():
        if library_name not in LIBRARY_PROFILES:
            raise KeyError(f"unknown library '{library_name}'; options: {sorted(LIBRARY_PROFILES)}")
        library = LIBRARY_PROFILES[library_name]
        for molecule in library.generate(count, seed=seed):
            molecules.append(molecule)
            library_of[molecule.name] = library_name
    return ScreeningDeck(molecules=molecules, library_of=library_of)
