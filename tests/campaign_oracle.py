"""Straight-line reference composition of the screening campaign.

One whole-deck step after another, with no runtime, stage graph, shards
or workers: CDT1/CDT2 preparation, one CDT3 docking pass, one CDT4
MM/GBSA pass, then one pose per ``predict_batch`` call. It is a test
oracle: the streamed campaign must reproduce it bit for bit (``==`` on
every score) when it scores one pose per NN batch
(``fusion_batch_size=1``).

The selection and assay steps mirror ``CampaignRuntime``'s
``cost_function`` and ``assays`` stages, so the oracle yields everything
a campaign result's equality assertions need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.complexes import InteractionModel, ProteinLigandComplex
from repro.chem.protein import BindingSite
from repro.datasets.assays import CampaignAssayTable, make_assay_panel, simulate_campaign_assays
from repro.datasets.libraries import build_screening_deck
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking, CDT4Mmgbsa, DockingDatabase
from repro.featurize.pipeline import collate_complexes
from repro.screening.costfunction import CompoundCostFunction, CompoundScore
from repro.utils.rng import derive_seed


@dataclass
class ReferenceCampaign:
    database: DockingDatabase
    selections: dict[str, list[CompoundScore]]
    structural_pk: dict[str, dict[str, float]]
    assays: CampaignAssayTable


def reference_campaign(
    model,
    featurizer,
    sites: dict[str, BindingSite],
    library_counts: dict[str, int],
    poses_per_compound: int,
    docking_mc_steps: int,
    docking_restarts: int,
    compounds_tested_per_site: int,
    seed: int,
    biology_penalty_mean: float = 2.6,
    cost_function: CompoundCostFunction | None = None,
    interaction_model: InteractionModel | None = None,
) -> ReferenceCampaign:
    """Prep, dock, rescore and score the whole deck one step at a time."""
    cost_function = cost_function or CompoundCostFunction()
    interaction_model = interaction_model or InteractionModel()
    deck = build_screening_deck(library_counts, seed=seed)

    receptors = CDT1Receptor().run(list(sites.values()))
    ligands = CDT2Ligand().run(deck.molecules, library="campaign")
    database = CDT3Docking(
        num_poses=poses_per_compound,
        monte_carlo_steps=docking_mc_steps,
        restarts=docking_restarts,
        seed=derive_seed(seed, "docking"),
    ).run(receptors, ligands)
    database = CDT4Mmgbsa(seed=derive_seed(seed, "mmgbsa")).run(
        database, {name: receptor.site for name, receptor in receptors.items()}
    )

    for site_name, site in sites.items():
        records = [r for r in database.records() if r.site_name == site_name]
        samples = featurizer.featurize_many(
            [ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id) for r in records]
        )
        for record, sample in zip(records, samples):
            record.fusion_pk = float(model.predict_batch(collate_complexes([sample]))[0])

    selections = {
        site_name: cost_function.select_top(database, site_name, compounds_tested_per_site) for site_name in sites
    }
    structural_pk: dict[str, dict[str, float]] = {}
    tested: dict[str, list[tuple[str, float]]] = {}
    for site_name, scores in selections.items():
        structural_pk[site_name] = {}
        tested[site_name] = []
        for score in scores:
            best = database.best_pose(site_name, score.compound_id, by="vina")
            latent = interaction_model.true_pk(
                ProteinLigandComplex(sites[site_name], best.pose, complex_id=score.compound_id, pose_id=best.pose_id)
            )
            structural_pk[site_name][score.compound_id] = latent
            tested[site_name].append((score.compound_id, latent))
    panel = make_assay_panel(sites, seed=derive_seed(seed, "assays"), biology_penalty_mean=biology_penalty_mean)
    return ReferenceCampaign(database, selections, structural_pk, simulate_campaign_assays(panel, tested))
