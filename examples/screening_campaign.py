"""End-to-end SARS-CoV-2 virtual screening campaign (paper §4-§5 at toy scale).

The pipeline run here is the paper's, stage for stage:

1. compound libraries (synthetic eMolecules / Enamine / ZINC decks);
2. ConveyorLC: ligand prep, Vina-style docking, MM/GBSA rescoring;
3. Coherent Fusion scoring — steps 2 and 3 stream through the campaign
   in bounded compound shards, with per-site top-K and HDF5-like output;
4. a compound cost function selecting candidates per binding site;
5. simulated experimental assays (FRET at 100 µM for Mpro, pseudo-virus /
   BLI at 10 µM for spike) and the retrospective hit-rate analysis.

Run:  python examples/screening_campaign.py
Expected runtime: a few minutes (it trains the fusion model first).
"""

from __future__ import annotations

from repro.eval.reports import format_table
from repro.experiments.common import build_workbench
from repro.screening import CampaignConfig, CompoundCostFunction, ScreeningCampaign


def main() -> None:
    print("=== Training the Coherent Fusion model (tiny workbench) ===")
    workbench = build_workbench("tiny")
    print(f"trained on {len(workbench.train_samples)} complexes; "
          f"coherent fusion best val MSE {workbench.histories['coherent_fusion'].best_val_loss:.2f}")

    print("\n=== Running the screening campaign ===")
    config = CampaignConfig(
        library_counts={"emolecules": 16, "enamine": 12, "zinc_world_approved": 8},
        poses_per_compound=3,
        compounds_tested_per_site=10,
        seed=2020,
    )
    runtime = ScreeningCampaign(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        config=config,
        cost_function=CompoundCostFunction(),
    ).runtime()
    campaign = runtime.run()

    summary = campaign.summary()
    print(f"poses scored: {summary['num_poses_scored']:.0f}  "
          f"compounds tested: {summary['num_tested']:.0f}  "
          f"hit rate (>33% inhibition): {summary['hit_rate_33pct']:.1%}")

    print("\n=== Streamed screen: shards and per-site scoring output ===")
    shards = runtime.report.stage("streamed_screen").extra["stream"]
    print(f"  {shards['num_compounds']:.0f} compounds in {shards['num_shards']:.0f} shards "
          f"({shards['shards_executed']:.0f} executed, {shards['total_retries']:.0f} retries) "
          f"in {shards['duration_s']:.2f}s")
    for result in campaign.job_results:
        stats = campaign.stream_stats[result.site_name]
        print(f"  {result.job_name:22s} poses={result.num_poses:4d} compounds={stats['count']:.0f} "
              f"best-pose pK mean={stats['mean']:.2f} max={stats['max']:.2f}")

    print("\n=== Top selected compounds per target ===")
    for site_name, selection in campaign.selections.items():
        rows = []
        for score in selection[:5]:
            inhibition = campaign.assays.inhibition_of(site_name, score.compound_id)
            rows.append([score.compound_id, score.fusion_pk, score.vina_score, inhibition])
        print(format_table(
            ["compound", "Fusion pK", "Vina score", "% inhibition"],
            rows,
            title=f"{site_name} (assay at {campaign.assays.for_site(site_name)[0].concentration_um:.0f} uM)"
            if campaign.assays.for_site(site_name) else site_name,
        ))
        print()


if __name__ == "__main__":
    main()
