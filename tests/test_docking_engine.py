"""Golden-equivalence suite for the docking engine.

The scalar ``ScalarPoseGenerator`` oracle (``tests/docking_oracle.py``:
per-pose ``reference_terms`` on Python Atom objects) is the golden
reference; the batched kernel and the lockstep ``PoseGenerator`` must
reproduce it **bit-identically** — ``np.array_equal`` / ``==`` on every
pose coordinate, score and RMSD, no tolerances — across restart counts,
ligand sizes, scorers and the with/without-reference paths.  Hypothesis
property tests pin down the clustering function's batch-width
invariance.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pickle

import repro.chem.complexes as complexes_module
from repro.chem.complexes import InteractionModel, ProteinLigandComplex, pair_distances
from repro.chem.molecule import Molecule
from repro.chem.protein import BindingSite
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking, CDT4Mmgbsa
from repro.docking.engine import PoseGenerator, dock_many, pairwise_rmsd, select_pose_indices
from repro.docking.mmgbsa import MMGBSARescorer
from repro.docking.poses import MaximizePkScorer, molecule_with_coordinates
from repro.docking.vina import VinaScorer
from repro.telemetry import Telemetry, activate
from repro.utils.rng import derive_seed

from docking_oracle import (
    ScalarPoseGenerator,
    reference_pk,
    reference_rescore,
    reference_score,
    reference_terms,
    rmsd,
    term_at,
)


def _posed(ligand, site, offset=(0.0, 0.0, -2.0)):
    return ligand.translate(-ligand.centroid() + site.center + np.asarray(offset))


def _mixed_site_complexes(sarscov2_sites, prepared_ligands):
    """Complexes over two sites, of ligands of different sizes and several pose ids."""
    sites = [sarscov2_sites["protease1"], sarscov2_sites["spike1"]]
    complexes = []
    for index, (prepared, site) in enumerate(itertools.product(prepared_ligands, sites)):
        complexes.append(
            ProteinLigandComplex(
                site,
                _posed(prepared.molecule, site, offset=(0.1 * index, 0.0, -2.0)),
                complex_id=f"cmp{index}",
                pose_id=index % 3,
            )
        )
    assert len({c.ligand.num_atoms for c in complexes}) > 1
    return complexes


def _assert_poses_identical(scalar_poses, batched_poses):
    assert len(scalar_poses) == len(batched_poses)
    for a, b in zip(scalar_poses, batched_poses):
        assert a.pose_id == b.pose_id
        assert a.score == b.score
        assert np.array_equal(a.complex.ligand.coordinates, b.complex.ligand.coordinates)
        if np.isnan(a.rmsd_to_reference):
            assert np.isnan(b.rmsd_to_reference)
        else:
            assert a.rmsd_to_reference == b.rmsd_to_reference


# --------------------------------------------------------------------------- #
# kernel equivalence
# --------------------------------------------------------------------------- #
class TestBatchedKernel:
    def test_terms_bit_identical_to_scalar(self, protease_site, prepared_ligands, interaction_model):
        for prepared in prepared_ligands[:3]:
            ligand = _posed(prepared.molecule, protease_site)
            coords = np.stack([ligand.coordinates + 0.17 * i for i in range(4)])
            batch = interaction_model.compute_terms_batch(protease_site, ligand, coords)
            assert batch.shape.shape == (4,)
            for i in range(4):
                pose = molecule_with_coordinates(ligand, coords[i])
                scalar = reference_terms(
                    interaction_model, ProteinLigandComplex(protease_site, pose, complex_id="k")
                )
                assert scalar == term_at(batch, i)

    def test_terms_identical_when_no_pairs_within_cutoff(self, protease_site, prepared_ligands, interaction_model):
        """A pose far outside the pocket exercises the empty-scatter path."""
        ligand = _posed(prepared_ligands[0].molecule, protease_site)
        far = ligand.coordinates + np.array([120.0, 0.0, 0.0])
        batch = interaction_model.compute_terms_batch(protease_site, ligand, far[None])
        scalar = reference_terms(
            interaction_model, ProteinLigandComplex(protease_site, molecule_with_coordinates(ligand, far))
        )
        assert scalar == term_at(batch, 0)

    def test_true_pk_batch_matches_scalar(self, protease_site, prepared_ligands, interaction_model):
        ligand = _posed(prepared_ligands[1].molecule, protease_site)
        coords = np.stack([ligand.coordinates - 0.21 * i for i in range(3)])
        batch = interaction_model.true_pk_batch(protease_site, ligand, coords)
        for i in range(3):
            complex_ = ProteinLigandComplex(protease_site, molecule_with_coordinates(ligand, coords[i]))
            assert reference_pk(interaction_model, complex_) == batch[i]
            assert interaction_model.true_pk(complex_) == batch[i]

    def test_single_pose_promotion_and_validation(self, protease_site, prepared_ligands, interaction_model):
        ligand = _posed(prepared_ligands[0].molecule, protease_site)
        single = interaction_model.compute_terms_batch(protease_site, ligand, ligand.coordinates)
        assert single.shape.shape == (1,)
        with pytest.raises(ValueError):
            interaction_model.compute_terms_batch(protease_site, ligand, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            interaction_model.compute_terms_batch(
                protease_site, ligand, np.zeros((1, ligand.num_atoms + 1, 3))
            )


    def test_fused_kernel_equals_one_kernel_per_ligand(self, protease_site, prepared_ligands, interaction_model):
        """Ligands laid end to end score as they do alone: each reduces its
        own contiguous block, so companions never move a bit."""
        ligands = [_posed(p.molecule, protease_site) for p in prepared_ligands[:4]]
        assert len({ligand.num_atoms for ligand in ligands}) > 1
        restarts = 3
        per_ligand = [
            np.stack([ligand.coordinates + 0.13 * r * (i + 1) for r in range(restarts)])
            for i, ligand in enumerate(ligands)
        ]
        fused = interaction_model.batch_kernel(protease_site, ligands)(np.concatenate(per_ligand, axis=1))
        assert fused.shape.shape == (restarts * len(ligands),)
        for index, (ligand, coords) in enumerate(zip(ligands, per_ligand)):
            alone = interaction_model.batch_kernel(protease_site, [ligand])(coords)
            for r in range(restarts):
                assert term_at(fused, index * restarts + r) == term_at(alone, r)

    def test_pair_distances_match_linalg_norm(self):
        """The component-major helper keeps the distances the scalar
        ``np.linalg.norm(deltas, axis=-1)`` gave before it was routed
        through the helper."""
        rng = np.random.default_rng(7)
        coords = rng.normal(scale=6.0, size=(3, 11, 3))
        pocket = rng.normal(scale=6.0, size=(17, 3))
        expected = np.linalg.norm(coords[:, :, None, :] - pocket[None, None], axis=-1)
        assert np.array_equal(pair_distances(coords, pocket.T), expected)
        out, scratch = np.empty((3, 11, 17)), np.empty((3, 11, 17))
        assert pair_distances(coords, pocket.T, out=out, scratch=scratch) is out
        assert np.array_equal(out, expected)


class TestBatchedScorers:
    @pytest.mark.parametrize("scorer_factory", [VinaScorer, MMGBSARescorer])
    def test_score_batch_bit_identical(self, scorer_factory, protease_site, prepared_ligands):
        scorer = scorer_factory()
        ligand = _posed(prepared_ligands[0].molecule, protease_site)
        coords = np.stack([ligand.coordinates + 0.29 * i for i in range(5)])
        batch = scorer.score_batch(protease_site, ligand, coords, complex_id="c7", pose_id=2)
        complexes = [
            ProteinLigandComplex(
                protease_site, molecule_with_coordinates(ligand, coords[i]), complex_id="c7", pose_id=2
            )
            for i in range(5)
        ]
        assert np.array_equal(batch, np.array([reference_score(scorer, c) for c in complexes]))
        assert np.array_equal(batch, np.array([scorer.score(c) for c in complexes]))

    @pytest.mark.parametrize("scorer_factory", [VinaScorer, MMGBSARescorer])
    def test_score_many_matches_per_complex_score_exactly(
        self, scorer_factory, sarscov2_sites, prepared_ligands
    ):
        """One ``score_many`` call over two sites, ligands of different
        sizes and several pose ids equals the scalar reference per complex
        (and ``score()``), in input order."""
        scorer = scorer_factory()
        complexes = _mixed_site_complexes(sarscov2_sites, prepared_ligands)
        many = scorer.score_many(complexes)
        assert np.array_equal(many, np.array([reference_score(scorer, c) for c in complexes]))
        assert np.array_equal(many, np.array([scorer.score(c) for c in complexes]))
        assert scorer.score_many([]).shape == (0,)

    @pytest.mark.parametrize("scorer_factory", [VinaScorer, MMGBSARescorer])
    def test_score_many_chunked_groups_bit_identical(
        self, monkeypatch, scorer_factory, sarscov2_sites, prepared_ligands
    ):
        """Capping the pairs of one kernel call splits each site's row
        mid-site (the campaign-scale memory bound); every ligand reduces
        its own block, so no bit moves."""
        complexes = _mixed_site_complexes(sarscov2_sites, prepared_ligands)
        expected = np.array([reference_score(scorer_factory(), c) for c in complexes])
        largest = max(c.ligand.num_atoms for c in complexes)
        pocket = max(c.site.num_atoms for c in complexes)
        monkeypatch.setattr(complexes_module, "KERNEL_CHUNK_PAIRS", 2 * largest * pocket)
        scorer = scorer_factory()
        calls = []
        original = scorer._interactions.batch_kernel

        def counting(site, ligands):
            calls.append(len(ligands))
            return original(site, ligands)

        monkeypatch.setattr(scorer._interactions, "batch_kernel", counting)
        chunked = scorer.score_many(complexes)
        assert sum(calls) == len(complexes) and len(calls) > 2  # more than one call per site
        assert np.array_equal(chunked, expected)

    def test_rescore_matches_scalar_reference(self, protease_site, prepared_ligands):
        generator = PoseGenerator(VinaScorer(), num_poses=4, monte_carlo_steps=8, restarts=2, seed=3)
        poses = generator.dock(protease_site, prepared_ligands[0].molecule, complex_id="c")
        rescorer = MMGBSARescorer()
        assert list(rescorer.score_many([p.complex for p in poses])) == reference_rescore(rescorer, poses)

    def test_systematic_error_memoized(self, example_complex):
        vina = VinaScorer()
        first = vina.score(example_complex)
        assert (example_complex.complex_id, example_complex.pose_id) in vina._error_cache
        assert vina.score(example_complex) == first


# --------------------------------------------------------------------------- #
# docker equivalence
# --------------------------------------------------------------------------- #
class TestDockerGoldenEquivalence:
    @pytest.mark.parametrize("restarts", [1, 4, 8])
    def test_bit_identical_across_restarts(self, restarts, protease_site, prepared_ligands):
        scorer = VinaScorer()
        kwargs = dict(num_poses=6, monte_carlo_steps=10, restarts=restarts, seed=11)
        ligand = prepared_ligands[0].molecule
        scalar = ScalarPoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
        batched = PoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
        _assert_poses_identical(scalar, batched)

    def test_bit_identical_across_ligand_sizes(self, protease_site, prepared_ligands):
        scorer = VinaScorer()
        kwargs = dict(num_poses=4, monte_carlo_steps=8, restarts=3, seed=5)
        sizes = set()
        for prepared in prepared_ligands:
            ligand = prepared.molecule
            sizes.add(ligand.num_atoms)
            scalar = ScalarPoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
            batched = PoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
            _assert_poses_identical(scalar, batched)
        assert len(sizes) > 1, "fixture should cover multiple ligand sizes"

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_bit_identical_with_and_without_reference(
        self, with_reference, protease_site, prepared_ligands
    ):
        scorer = VinaScorer()
        ligand = prepared_ligands[1].molecule
        reference = _posed(ligand, protease_site) if with_reference else None
        kwargs = dict(num_poses=5, monte_carlo_steps=12, restarts=2, seed=17)
        scalar = ScalarPoseGenerator(scorer, **kwargs).dock(
            protease_site, ligand, complex_id="c", reference=reference
        )
        batched = PoseGenerator(scorer, **kwargs).dock(
            protease_site, ligand, complex_id="c", reference=reference
        )
        _assert_poses_identical(scalar, batched)
        if with_reference:
            assert all(np.isfinite(p.rmsd_to_reference) for p in batched)

    @pytest.mark.parametrize(
        "scorer_factory",
        [VinaScorer, MMGBSARescorer, lambda: MaximizePkScorer(InteractionModel())],
    )
    def test_bit_identical_across_scorers(self, scorer_factory, protease_site, prepared_ligands):
        scorer = scorer_factory()
        kwargs = dict(num_poses=4, monte_carlo_steps=10, restarts=2, seed=23)
        ligand = prepared_ligands[2].molecule
        scalar = ScalarPoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
        batched = PoseGenerator(scorer, **kwargs).dock(protease_site, ligand, complex_id="c")
        _assert_poses_identical(scalar, batched)

    def test_restart_chains_independent_of_batch_width(self, protease_site, prepared_ligands):
        """Chain r of a width-R run equals chain r of any wider run: the
        per-restart stream protocol decouples trajectories from batch width."""
        scorer = VinaScorer()
        ligand = prepared_ligands[0].molecule
        chains = {}
        for restarts in (1, 2, 6):
            docker = PoseGenerator(
                scorer, num_poses=4, monte_carlo_steps=8, restarts=restarts, seed=13
            )
            chains[restarts] = docker.run_chains(protease_site, [ligand], ["c"], [docker.base_seed])[0]
        for narrow, wide in ((1, 2), (2, 6), (1, 6)):
            scores_n, coords_n = chains[narrow]
            scores_w, coords_w = chains[wide]
            assert np.array_equal(scores_n, scores_w[: len(scores_n)])
            assert np.array_equal(coords_n, coords_w[: len(coords_n)])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoseGenerator(VinaScorer(), num_poses=0)
        with pytest.raises(ValueError):
            PoseGenerator(VinaScorer(), restarts=0)
        with pytest.raises(ValueError):
            PoseGenerator(VinaScorer(), monte_carlo_steps=-1)
        # a non-positive temperature used to fail mid-search (0.0: division
        # by zero on the first uphill proposal) or accept every uphill move
        # silently (< 0); both are rejected at construction
        for temperature in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature must be positive"):
                PoseGenerator(VinaScorer(), temperature=temperature)

    def test_scorer_without_batch_kernel_rejected(self):
        """A scalar-only scorer fails at construction with a typed error,
        not with an AttributeError partway into the first dock."""

        class ScalarOnly:
            def score(self, complex_):
                return VinaScorer().score(complex_)

        with pytest.raises(TypeError, match="ScalarOnly does not implement make_batch_kernel"):
            PoseGenerator(ScalarOnly())


# --------------------------------------------------------------------------- #
# clustering properties
# --------------------------------------------------------------------------- #
def _reference_selection(scores, coords, num_poses, min_separation):
    """Nested-loop greedy selection mirroring the oracle docker's clustering."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    selected: list[int] = []
    for index in order:
        if len(selected) >= num_poses:
            break
        ok = True
        for kept in selected:
            diff = coords[index] - coords[kept]
            if float(np.sqrt((diff**2).sum(axis=1).mean())) < min_separation:
                ok = False
                break
        if ok:
            selected.append(index)
    return selected


@st.composite
def _candidate_sets(draw):
    num = draw(st.integers(min_value=1, max_value=10))
    atoms = draw(st.integers(min_value=2, max_value=6))
    # coarse integer-derived coordinates and few distinct score values force
    # both RMSD-threshold collisions and score ties (stable-order territory)
    coords = draw(
        st.lists(
            st.lists(
                st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3),
                min_size=atoms,
                max_size=atoms,
            ),
            min_size=num,
            max_size=num,
        )
    )
    scores = draw(st.lists(st.sampled_from([-3.0, -1.5, 0.0, 0.5]), min_size=num, max_size=num))
    return np.asarray(scores), np.asarray(coords, dtype=np.float64) * 0.4


class TestClusteringProperties:
    @given(_candidate_sets(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_matrix_selection_matches_nested_loop_reference(self, candidates, num_poses):
        scores, coords = candidates
        matrix = pairwise_rmsd(coords)
        fast = select_pose_indices(scores, matrix, num_poses, min_separation=0.75)
        assert fast == _reference_selection(scores, coords, num_poses, min_separation=0.75)

    @given(_candidate_sets(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_selection_invariant_to_batch_width(self, candidates, splits):
        """Computing the RMSD matrix over any candidate-order-preserving
        partition (then reassembling) never changes the selected poses —
        clustering depends only on the ordered candidate list."""
        scores, coords = candidates
        num = len(scores)
        matrix = pairwise_rmsd(coords)
        rebuilt = np.empty_like(matrix)
        bounds = np.linspace(0, num, splits + 1, dtype=int)
        for a_start, a_end in zip(bounds[:-1], bounds[1:]):
            for b_start, b_end in zip(bounds[:-1], bounds[1:]):
                if a_end > a_start and b_end > b_start:
                    block = coords[a_start:a_end][:, None] - coords[b_start:b_end][None, :]
                    rebuilt[a_start:a_end, b_start:b_end] = np.sqrt(
                        (block**2).sum(axis=-1).mean(axis=-1)
                    )
        assert np.array_equal(rebuilt, matrix)
        assert select_pose_indices(scores, rebuilt, 4, 0.75) == select_pose_indices(
            scores, matrix, 4, 0.75
        )

    def test_pairwise_rmsd_matches_molecule_rmsd(self, protease_site, prepared_ligands):
        ligand = prepared_ligands[0].molecule
        coords = np.stack([ligand.coordinates + 0.5 * i for i in range(4)])
        matrix = pairwise_rmsd(coords)
        for i in range(4):
            for j in range(4):
                a = molecule_with_coordinates(ligand, coords[i])
                b = molecule_with_coordinates(ligand, coords[j])
                assert matrix[i, j] == rmsd(a, b)


# --------------------------------------------------------------------------- #
# dock_many and the ConveyorLC / runtime wiring
# --------------------------------------------------------------------------- #
class TestDockMany:
    def test_matches_oracle_docker_per_compound(self, protease_site, prepared_ligands):
        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands[:4]]
        scorer = VinaScorer()
        kwargs = dict(num_poses=3, monte_carlo_steps=6, restarts=2)
        docked = dock_many(protease_site, pairs, scorer=scorer, seed=9, **kwargs)
        assert list(docked) == [cid for cid, _ in pairs]
        for compound_id, molecule in pairs:
            oracle = ScalarPoseGenerator(
                scorer, seed=derive_seed(9, "dock", protease_site.name, compound_id), **kwargs
            )
            expected = oracle.dock(protease_site, molecule, complex_id=compound_id)
            _assert_poses_identical(expected, docked[compound_id])

    def test_invariant_to_batch_composition(self, protease_site, prepared_ligands):
        """Per-compound seeds make a compound's poses independent of which
        other compounds share its call and in what order — the property the
        streamed screen's shard split relies on."""
        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands[:4]]
        kwargs = dict(scorer=VinaScorer(), seed=9, num_poses=3, monte_carlo_steps=6, restarts=2)
        whole = dock_many(protease_site, pairs, **kwargs)
        split = dock_many(protease_site, pairs[:1], **kwargs)
        split.update(dock_many(protease_site, pairs[:0:-1], **kwargs))
        assert list(split) == [pairs[0][0]] + [cid for cid, _ in pairs[:0:-1]]
        for compound_id, _ in pairs:
            _assert_poses_identical(whole[compound_id], split[compound_id])

    def test_duplicate_compound_ids_collapse_to_last(self, protease_site, prepared_ligands):
        first, second = prepared_ligands[0], prepared_ligands[1]
        kwargs = dict(scorer=VinaScorer(), seed=5, num_poses=2, monte_carlo_steps=5, restarts=1)
        docked = dock_many(
            protease_site,
            [("dup", first.molecule), (second.compound_id, second.molecule), ("dup", second.molecule)],
            **kwargs,
        )
        assert list(docked) == ["dup", second.compound_id]
        alone = dock_many(protease_site, [("dup", second.molecule)], **kwargs)
        _assert_poses_identical(alone["dup"], docked["dup"])

    def test_invalid_temperature_rejected_before_any_docking(self, protease_site, prepared_ligands):
        kernels = []

        class CountingVina(VinaScorer):
            def make_batch_kernel(self, *args, **kwargs):
                kernels.append(args)
                return super().make_batch_kernel(*args, **kwargs)

        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands[:2]]
        for temperature in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                dock_many(protease_site, pairs, scorer=CountingVina(), seed=1, temperature=temperature)
        assert kernels == []

    def test_references_recorded(self, protease_site, prepared_ligands):
        compound_id = prepared_ligands[0].compound_id
        ligand = prepared_ligands[0].molecule
        poses = dock_many(
            protease_site,
            [(compound_id, ligand)],
            scorer=VinaScorer(),
            seed=2,
            num_poses=2,
            monte_carlo_steps=5,
            restarts=1,
            references={compound_id: _posed(ligand, protease_site)},
        )[compound_id]
        assert all(np.isfinite(p.rmsd_to_reference) for p in poses)


    @given(
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=6),
        site_name=st.sampled_from(["protease1", "spike1"]),
        with_references=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_poses_do_not_depend_on_companions(
        self, sarscov2_sites, prepared_ligands, picks, site_name, with_references
    ):
        """Random subsets, orders, ligand sizes and duplicate ids: every
        compound of one lockstep equals the scalar oracle docking it alone."""
        site = sarscov2_sites[site_name]
        pairs = [(f"cmp{alias}", prepared_ligands[index].molecule) for index, alias in picks]
        last = {f"cmp{alias}": index for index, alias in picks}
        references = None
        if with_references:
            references = {cid: _posed(prepared_ligands[i].molecule, site) for cid, i in last.items()}
        docked = dock_many(site, pairs, scorer=VinaScorer(), seed=31, references=references, **_LOCKSTEP)
        assert list(docked) == list(last)
        for compound_id, index in last.items():
            expected = _oracle_poses(site, prepared_ligands, index, compound_id, with_references)
            _assert_poses_identical(expected, docked[compound_id])

    def test_kernel_calls_count_one_fused_call_per_step(self, sarscov2_sites, prepared_ligands):
        """One kernel per site and one fused call per MC step (plus the
        placement call), whatever the number of compounds."""
        kernels = []

        class CountingVina(VinaScorer):
            def make_batch_kernel(self, site, ligands, *args, **kwargs):
                kernels.append(len(ligands))
                return super().make_batch_kernel(site, ligands, *args, **kwargs)

        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands[:4]]
        steps, restarts = 5, 2
        bundle = Telemetry.disabled()
        with activate(bundle):
            for site_name in ("protease1", "spike1"):
                dock_many(
                    sarscov2_sites[site_name], pairs, scorer=CountingVina(), seed=3,
                    num_poses=2, monte_carlo_steps=steps, restarts=restarts,
                )
        counters = bundle.registry.snapshot()["counters"]
        assert kernels == [len(pairs), len(pairs)]
        assert counters["docking.kernel_calls"] == 2 * (steps + 1)
        assert counters["docking.compounds"] == 2 * len(pairs)
        assert counters["docking.poses_scored"] == 2 * len(pairs) * restarts * (steps + 1)

    def test_lockstep_groups_keep_bits(self, monkeypatch, protease_site, prepared_ligands):
        """Capping the pairs of one group splits the lockstep; compounds
        reduce independently, so the poses do not move."""
        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands]
        kwargs = dict(scorer=VinaScorer(), seed=8, num_poses=3, monte_carlo_steps=4, restarts=2)
        whole = dock_many(protease_site, pairs, **kwargs)
        largest = max(molecule.num_atoms for _, molecule in pairs)
        monkeypatch.setattr(complexes_module, "KERNEL_CHUNK_PAIRS", 2 * protease_site.num_atoms * largest)
        bundle = Telemetry.disabled()
        with activate(bundle):
            grouped = dock_many(protease_site, pairs, **kwargs)
        kernel_calls = bundle.registry.snapshot()["counters"]["docking.kernel_calls"]
        assert kernel_calls % 5 == 0 and kernel_calls // 5 == len(pairs)
        assert list(grouped) == list(whole)
        for compound_id in whole:
            _assert_poses_identical(whole[compound_id], grouped[compound_id])

    def test_empty_ligand_list_builds_no_kernel(self, protease_site):
        kernels = []

        class CountingVina(VinaScorer):
            def make_batch_kernel(self, *args, **kwargs):
                kernels.append(args)
                return super().make_batch_kernel(*args, **kwargs)

        assert dock_many(protease_site, [], scorer=CountingVina(), seed=1) == {}
        assert kernels == []

    def test_zero_atom_ligand_or_site_rejected(self, protease_site, prepared_ligands):
        ligand = prepared_ligands[0]
        kwargs = dict(scorer=VinaScorer(), seed=1, num_poses=2, monte_carlo_steps=2, restarts=1)
        match = "complex must contain both ligand and pocket atoms"
        with pytest.raises(ValueError, match=match):
            dock_many(protease_site, [(ligand.compound_id, ligand.molecule), ("empty", Molecule([]))], **kwargs)
        empty_site = BindingSite(name="empty", target="none", atoms=[], family=protease_site.family)
        with pytest.raises(ValueError, match=match):
            dock_many(empty_site, [(ligand.compound_id, ligand.molecule)], **kwargs)


_LOCKSTEP = dict(num_poses=3, monte_carlo_steps=4, restarts=2)
_ORACLE_CACHE: dict = {}


def _oracle_poses(site, prepared_ligands, index, compound_id, with_reference):
    """The scalar oracle's poses of one compound docked alone (memoized)."""
    key = (site.name, index, compound_id, with_reference)
    if key not in _ORACLE_CACHE:
        molecule = prepared_ligands[index].molecule
        oracle = ScalarPoseGenerator(
            VinaScorer(), seed=derive_seed(31, "dock", site.name, compound_id), **_LOCKSTEP
        )
        reference = _posed(molecule, site) if with_reference else None
        _ORACLE_CACHE[key] = oracle.dock(site, molecule, complex_id=compound_id, reference=reference)
    return _ORACLE_CACHE[key]


class TestPoseCopies:
    def test_docked_poses_share_the_template_arrays(self, monkeypatch, protease_site, prepared_ligands):
        """Rescoring docked poses reuses the ligand's memoized interaction
        arrays instead of extracting them from the atoms again."""
        import repro.featurize.atom_features as atom_features

        pairs = [(p.compound_id, p.molecule) for p in prepared_ligands[:3]]
        docked = dock_many(
            protease_site, pairs, scorer=VinaScorer(), seed=4, num_poses=3, monte_carlo_steps=3, restarts=2
        )
        extractions = []
        original = atom_features.atom_arrays
        monkeypatch.setattr(
            atom_features, "atom_arrays", lambda atoms: extractions.append(1) or original(atoms)
        )
        complexes = [pose.complex for poses in docked.values() for pose in poses]
        scores = MMGBSARescorer().score_many(complexes)
        assert extractions == []
        assert np.array_equal(scores, np.array([reference_score(MMGBSARescorer(), c) for c in complexes]))
        for compound_id, molecule in pairs:
            for pose in docked[compound_id]:
                assert pose.complex.ligand._interaction_arrays is molecule._interaction_arrays

    def test_pickled_pose_drops_the_derived_arrays(self, protease_site, prepared_ligands):
        """The arrays are derived data: a checkpointed pose pickles to the
        same bytes as a copy that never carried them."""
        ligand = prepared_ligands[0].molecule
        pose = dock_many(
            protease_site, [("c", ligand)], scorer=VinaScorer(), seed=4,
            num_poses=1, monte_carlo_steps=2, restarts=1,
        )["c"][0].complex.ligand
        assert hasattr(pose, "_interaction_arrays")
        bare = pose.copy()
        assert not hasattr(bare, "_interaction_arrays")
        assert pickle.dumps(pose) == pickle.dumps(bare)
        restored = pickle.loads(pickle.dumps(pose))
        assert not hasattr(restored, "_interaction_arrays")
        assert np.array_equal(restored.coordinates, pose.coordinates)


class TestConveyorEngineEquivalence:
    def test_cdt3_cdt4_engines_bit_identical(self, sarscov2_sites, molecules):
        """CDT3/CDT4 reproduce the oracle docker and the per-complex
        MM/GBSA loop on every record."""
        sites = [sarscov2_sites["protease1"], sarscov2_sites["spike1"]]
        receptors = CDT1Receptor().run(sites)
        ligands = CDT2Ligand().run(molecules[:3], library="t")
        site_map = {name: record.site for name, record in receptors.items()}
        docking = CDT3Docking(num_poses=3, monte_carlo_steps=6, restarts=2, seed=0)
        database = docking.run(receptors, ligands)
        mmgbsa = CDT4Mmgbsa(max_poses=2)
        mmgbsa.run(database, site_map)
        expected = []
        for site_name in sorted(site_map):
            for ligand in ligands:
                oracle = ScalarPoseGenerator(
                    docking.scorer,
                    num_poses=3,
                    monte_carlo_steps=6,
                    restarts=2,
                    seed=derive_seed(0, "dock", site_name, ligand.compound_id),
                )
                for rank, pose in enumerate(
                    oracle.dock(site_map[site_name], ligand.molecule, complex_id=ligand.compound_id)
                ):
                    rescored = rank < 2  # poses come best-first; max_poses=2
                    mmgbsa_score = reference_score(mmgbsa.rescorer, pose.complex) if rescored else float("nan")
                    expected.append((site_name, ligand.compound_id, pose, mmgbsa_score))
        records = database.records()
        assert len(records) == len(expected) > 0
        for record, (site_name, compound_id, pose, mmgbsa_score) in zip(records, expected):
            assert record.key == (site_name, compound_id, pose.pose_id)
            assert record.vina_score == pose.score
            assert np.array_equal(record.pose.coordinates, pose.complex.ligand.coordinates)
            if np.isnan(mmgbsa_score):
                assert np.isnan(record.mmgbsa_score)
            else:
                assert record.mmgbsa_score == mmgbsa_score

    def test_cdt3_records_invariant_to_ligand_split(self, sarscov2_sites, molecules):
        """Docking the ligands in two runs yields the records of one run."""
        receptors = CDT1Receptor().run([sarscov2_sites["protease1"]])
        ligands = CDT2Ligand().run(molecules[:3], library="t")
        docking = CDT3Docking(num_poses=2, monte_carlo_steps=5, restarts=2, seed=4)
        whole = docking.run(receptors, ligands).records()
        split = docking.run(receptors, ligands[:1]).records() + docking.run(receptors, ligands[1:]).records()
        assert len(whole) == len(split) > 0
        for a, b in zip(whole, split):
            assert a.key == b.key and a.vina_score == b.vina_score
            assert np.array_equal(a.pose.coordinates, b.pose.coordinates)

    def test_engine_validation(self):
        """Both stages reject a bad configuration at construction."""
        with pytest.raises(ValueError, match="num_poses must be positive"):
            CDT3Docking(num_poses=0)
        with pytest.raises(ValueError, match="restarts must be positive"):
            CDT3Docking(restarts=0)
        with pytest.raises(ValueError, match="monte_carlo_steps must be non-negative"):
            CDT3Docking(monte_carlo_steps=-1)
        for fraction in (0.0, 1.5):
            with pytest.raises(ValueError, match="subset_fraction"):
                CDT4Mmgbsa(subset_fraction=fraction)
