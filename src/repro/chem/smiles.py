"""A simplified SMILES-like linear notation for molecular graphs.

The compound libraries screened in the paper are distributed as SMILES
strings (eMolecules, Enamine) or 2-D SDF records (ZINC, ChEMBL).  The
reproduction needs a compact, deterministic text identifier for every
generated molecule, so a restricted SMILES dialect is implemented here:

* element symbols from the organic subset (``C N O S P F Cl Br I``) are
  written bare; any other element or a charged atom is written in
  brackets, e.g. ``[N+]`` or ``[Na+]``;
* ``=`` and ``#`` mark double and triple bonds;
* parentheses open/close branches;
* single digits (and ``%nn`` for two-digit labels) close rings;
* no aromaticity, stereochemistry or explicit hydrogens.

The canonical atom ordering uses a Morgan-style iterative refinement,
so equivalent graphs serialize identically.  The tests parse every
string back (``tests/chem_oracle.py``) and check that it round-trips to
an isomorphic graph.
"""

from __future__ import annotations

from repro.chem.atom import Atom
from repro.chem.elements import ELEMENTS
from repro.chem.molecule import Molecule

_ORGANIC_SUBSET = ("Cl", "Br", "C", "N", "O", "S", "P", "F", "I")
_BOND_SYMBOL = {1: "", 2: "=", 3: "#"}


def canonical_ranks(molecule: Molecule) -> list[int]:
    """Return a canonical rank per atom via Morgan-style refinement.

    Initial invariants combine element and degree; ranks are refined by
    hashing sorted neighbour ranks until stable. Ties are broken by atom
    index, which is sufficient for deterministic serialization.
    """
    invariants = [
        (ELEMENTS[a.element].atomic_number, molecule.degree(a.index), a.formal_charge)
        for a in molecule.atoms
    ]
    ranks = _ranks_from_keys(invariants)
    for _ in range(molecule.num_atoms):
        keys = []
        for atom in molecule.atoms:
            neighbour_ranks = tuple(sorted(ranks[j] for j in molecule.neighbors(atom.index)))
            keys.append((ranks[atom.index], neighbour_ranks))
        new_ranks = _ranks_from_keys(keys)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def _ranks_from_keys(keys: list) -> list[int]:
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    ranks = [0] * len(keys)
    rank = 0
    for position, index in enumerate(order):
        if position > 0 and keys[order[position - 1]] != keys[index]:
            rank = position
        ranks[index] = rank
    return ranks


def _atom_token(atom: Atom) -> str:
    needs_brackets = atom.element not in _ORGANIC_SUBSET or atom.formal_charge != 0
    if not needs_brackets:
        return atom.element
    charge = ""
    if atom.formal_charge > 0:
        charge = "+" * atom.formal_charge if atom.formal_charge <= 2 else f"+{atom.formal_charge}"
    elif atom.formal_charge < 0:
        charge = "-" * (-atom.formal_charge) if atom.formal_charge >= -2 else f"-{-atom.formal_charge}"
    return f"[{atom.element}{charge}]"


def to_smiles(molecule: Molecule) -> str:
    """Serialize ``molecule`` to the restricted SMILES dialect.

    Disconnected components are joined with ``"."`` as in standard SMILES
    (used to represent salts before the preparation pipeline strips them).
    """
    if molecule.num_atoms == 0:
        return ""
    ranks = canonical_ranks(molecule)
    bond_order = {}
    adjacency: dict[int, list[int]] = {i: [] for i in range(molecule.num_atoms)}
    for bond in molecule.bonds:
        adjacency[bond.i].append(bond.j)
        adjacency[bond.j].append(bond.i)
        bond_order[(min(bond.i, bond.j), max(bond.i, bond.j))] = bond.order
    for neighbours in adjacency.values():
        neighbours.sort(key=lambda j: (ranks[j], j))

    pieces: list[str] = []
    globally_visited: set[int] = set()

    def classify_edges(root: int) -> tuple[dict[int, list[int]], dict[tuple[int, int], int]]:
        """DFS pass: split edges into tree children and labelled ring closures."""
        visited: set[int] = set()
        children: dict[int, list[int]] = {i: [] for i in adjacency}
        tree_edges: set[tuple[int, int]] = set()
        ring_edges: dict[tuple[int, int], int] = {}
        next_label = [1]

        def dfs(u: int, parent: int | None) -> None:
            visited.add(u)
            for v in adjacency[u]:
                if v == parent:
                    continue
                edge = (min(u, v), max(u, v))
                if v in visited:
                    if edge not in tree_edges and edge not in ring_edges:
                        ring_edges[edge] = next_label[0]
                        next_label[0] += 1
                else:
                    children[u].append(v)
                    tree_edges.add(edge)
                    dfs(v, u)

        dfs(root, None)
        return children, ring_edges

    def render(root: int) -> str:
        children, ring_edges = classify_edges(root)

        def walk(atom_index: int) -> str:
            globally_visited.add(atom_index)
            token = _atom_token(molecule.atoms[atom_index])
            closures = ""
            for edge, label in sorted(ring_edges.items(), key=lambda kv: kv[1]):
                if atom_index in edge:
                    closures += _BOND_SYMBOL[bond_order[edge]] + _ring_token(label)
            rendered = []
            for neighbour in children[atom_index]:
                edge = (min(atom_index, neighbour), max(atom_index, neighbour))
                rendered.append(_BOND_SYMBOL[bond_order[edge]] + walk(neighbour))
            out = token + closures
            if not rendered:
                return out
            *branches, last = rendered
            return out + "".join(f"({b})" for b in branches) + last

        return walk(root)

    for component in molecule.connected_components():
        root = min(component, key=lambda i: (ranks[i], i))
        if root not in globally_visited:
            pieces.append(render(root))
    return ".".join(pieces)


def _ring_token(label: int) -> str:
    return str(label) if label < 10 else f"%{label:02d}"
