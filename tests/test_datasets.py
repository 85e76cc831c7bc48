"""Tests for splits, the synthetic PDBbind dataset, compound libraries and assays."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.assays import (
    ASSAY_CONCENTRATIONS_UM,
    InhibitionAssay,
    make_assay_panel,
    simulate_campaign_assays,
)
from repro.datasets.libraries import LIBRARY_PROFILES, TOTAL_LIBRARY_SIZE, build_screening_deck
from repro.datasets.pdbbind import PDBbindConfig, generate_pdbbind
from repro.datasets.splits import coverage_by_bin, quintile_split, random_split
from repro.featurize.engine import FeaturePipeline
from repro.featurize.voxelize import VoxelGridConfig


class TestSplits:
    def test_quintile_split_partitions(self):
        values = np.linspace(0, 10, 100)
        train, val = quintile_split(values, val_fraction=0.1, rng=0)
        assert len(train) + len(val) == 100
        assert len(np.intersect1d(train, val)) == 0
        assert 5 <= len(val) <= 20

    def test_quintile_split_covers_every_bin(self):
        values = np.concatenate([np.full(20, v) + np.random.default_rng(0).normal(scale=0.01, size=20) for v in range(5)])
        _train, val = quintile_split(values, val_fraction=0.1, rng=1)
        coverage = coverage_by_bin(values, val)
        assert np.all(coverage > 0)

    def test_random_split_shapes(self):
        train, val = random_split(50, 0.2, rng=2)
        assert len(val) == 10 and len(train) == 40

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            quintile_split(np.arange(10.0), val_fraction=0.0)
        with pytest.raises(ValueError):
            random_split(10, 1.5)
        with pytest.raises(ValueError):
            quintile_split(np.zeros((3, 3)))

    @given(
        st.lists(st.floats(min_value=0, max_value=12, allow_nan=False), min_size=10, max_size=80),
        st.floats(min_value=0.05, max_value=0.4),
    )
    @settings(max_examples=30, deadline=None)
    def test_quintile_split_properties(self, values, fraction):
        values = np.array(values)
        train, val = quintile_split(values, val_fraction=fraction, rng=3)
        assert len(train) + len(val) == len(values)
        assert len(set(train.tolist()) & set(val.tolist())) == 0
        assert len(val) >= 1


class TestPDBbind:
    def test_subset_sizes_and_filters(self, tiny_pdbbind):
        assert len(tiny_pdbbind.general) == 16
        assert len(tiny_pdbbind.refined) == 8
        assert len(tiny_pdbbind.core) == 6
        for entry in tiny_pdbbind.refined + tiny_pdbbind.core:
            assert entry.ligand_mw <= 1000.0
            assert entry.measurement in ("Ki", "Kd")
            assert entry.resolution < 2.5
        for entry in tiny_pdbbind.entries:
            assert 0.0 <= entry.experimental_pk <= 14.0
            assert 0.0 <= entry.true_pk <= 14.0

    def test_core_uses_heldout_families(self, tiny_pdbbind):
        core_families = {e.family_id for e in tiny_pdbbind.core}
        train_families = {e.family_id for e in tiny_pdbbind.general + tiny_pdbbind.refined}
        assert core_families.isdisjoint(train_families)

    def test_train_val_split_covers_strata(self, tiny_pdbbind):
        train, val = tiny_pdbbind.train_val_split(val_fraction=0.2, rng=0)
        assert len(train) + len(val) == len(tiny_pdbbind.general) + len(tiny_pdbbind.refined)
        assert all(e.subset in ("general", "refined") for e in train + val)
        assert len(val) >= 2

    def test_subset_sizes(self, tiny_pdbbind):
        assert len(tiny_pdbbind.general) == 16
        assert tiny_pdbbind.refined and tiny_pdbbind.core
        assert len(tiny_pdbbind) == len(tiny_pdbbind.general) + len(tiny_pdbbind.refined) + len(tiny_pdbbind.core)

    def test_featurize_entries(self, tiny_pdbbind):
        featurizer = FeaturePipeline(VoxelGridConfig(grid_dim=10))
        samples = tiny_pdbbind.featurize_entries(tiny_pdbbind.core[:3], featurizer)
        assert len(samples) == 3
        assert samples[0].target == pytest.approx(tiny_pdbbind.core[0].experimental_pk)

    def test_invalid_family_configuration(self):
        with pytest.raises(ValueError):
            generate_pdbbind(PDBbindConfig(n_general=2, n_refined=1, n_core=1, n_families=3, n_core_families=3))

    def test_generation_is_deterministic(self):
        config = PDBbindConfig(n_general=4, n_refined=2, n_core=2, n_families=4, n_core_families=1,
                               pose_search_steps=5, pose_search_restarts=1, seed=5)
        a = generate_pdbbind(config)
        b = generate_pdbbind(config)
        assert [e.experimental_pk for e in a.entries] == [e.experimental_pk for e in b.entries]


class TestLibraries:
    def test_profiles_exist_and_total_size(self):
        assert set(LIBRARY_PROFILES) == {"zinc_world_approved", "chembl", "emolecules", "enamine"}
        assert TOTAL_LIBRARY_SIZE > 400_000_000

    def test_deck_generation_and_ids(self):
        deck = build_screening_deck({"emolecules": 4, "enamine": 3}, seed=1)
        assert len(deck) == 7
        libraries = [deck.library_of[m.name] for m in deck.molecules]
        assert libraries == ["emolecules"] * 4 + ["enamine"] * 3
        prefixes = {"emolecules": "EMOL-", "enamine": "ENAM-"}
        assert all(m.name.startswith(prefixes[deck.library_of[m.name]]) for m in deck.molecules)

    def test_unknown_library_raises(self):
        with pytest.raises(KeyError):
            build_screening_deck({"pubchem": 3})

    def test_library_generation_reproducible(self):
        a = LIBRARY_PROFILES["chembl"].generate(2, seed=4)
        b = LIBRARY_PROFILES["chembl"].generate(2, seed=4)
        assert a[0].num_atoms == b[0].num_atoms


class TestAssays:
    def test_occupancy_monotone_in_affinity(self, protease_site):
        assay = InhibitionAssay(protease_site, concentration_um=100.0, seed=1)
        occupancies = [assay.occupancy(pk) for pk in (3.0, 5.0, 7.0, 9.0)]
        assert occupancies == sorted(occupancies)
        assert 0.0 <= occupancies[0] <= occupancies[-1] <= 1.0

    def test_measurements_bounded_and_deterministic(self, protease_site):
        assay = InhibitionAssay(protease_site, concentration_um=100.0, seed=2)
        r1 = assay.measure_pk("cmp-1", 8.0)
        r2 = assay.measure_pk("cmp-1", 8.0)
        assert r1.percent_inhibition == r2.percent_inhibition
        assert 0.0 <= r1.percent_inhibition <= 100.0

    def test_biology_penalty_decouples_structure(self, protease_site):
        assay = InhibitionAssay(protease_site, concentration_um=100.0, biology_penalty_mean=3.0, seed=3)
        strong_predictions = [assay.measure_pk(f"c{i}", 9.0).percent_inhibition for i in range(40)]
        # despite uniformly strong structural affinity, many compounds are inactive
        assert sum(1 for v in strong_predictions if v < 33.0) > 5

    def test_panel_concentrations(self, sarscov2_sites):
        panel = make_assay_panel(sarscov2_sites, seed=5)
        assert panel["protease1"].concentration_um == ASSAY_CONCENTRATIONS_UM["protease1"] == 100.0
        assert panel["spike1"].concentration_um == 10.0

    def test_simulate_campaign_assays(self, sarscov2_sites):
        panel = make_assay_panel(sarscov2_sites, seed=6)
        table = simulate_campaign_assays(panel, {"protease1": [("a", 7.0), ("b", 4.0)], "spike1": [("c", 8.0)]})
        assert len(table.results) == 3
        assert table.inhibition_of("protease1", "a") is not None
        assert table.inhibition_of("protease1", "zzz") is None
        assert 0.0 <= table.hit_rate(33.0) <= 1.0
        with pytest.raises(KeyError):
            simulate_campaign_assays(panel, {"unknown_site": []})

    def test_invalid_concentration(self, protease_site):
        with pytest.raises(ValueError):
            InhibitionAssay(protease_site, concentration_um=0.0)
