"""Fusion scoring of docked poses and the paper-scale job anatomy (§4.2-§4.3).

Scores a small docked deck through the campaign's route: each compound's
poses are featurized together with ``featurize_many`` and scored with one
``predict_batch`` call, as the streamed screen's shard workers do.  The
predictions are mirrored into an HDF5-like store whose layout follows
ConveyorLC's output.  The analytic throughput model then reports what a
4-node Horovod job of the paper (Figure 3) achieves at paper scale
(Table 7 / Figure 4), and the LSF-style scheduler shows the
fault-tolerant many-small-jobs strategy.

Run:  python examples/distributed_scoring.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import make_sarscov2_targets
from repro.datasets import build_screening_deck
from repro.docking import CDT1Receptor, CDT2Ligand, CDT3Docking
from repro.eval.reports import format_table, render_series
from repro.experiments.common import build_workbench
from repro.hpc import (
    FaultInjector,
    FusionThroughputModel,
    H5Store,
    Job,
    JobScheduler,
    JobState,
    SchedulerConfig,
    SimulatedCluster,
)
from repro.screening import figure4_series, table7_rows, write_job_output


def main() -> None:
    workbench = build_workbench("tiny")
    site = make_sarscov2_targets(seed=1)["protease1"]

    print("=== Docking a small deck against Mpro/protease1 (ConveyorLC stages 1-3) ===")
    deck = build_screening_deck({"emolecules": 10}, seed=3)
    receptors = CDT1Receptor().run([site])
    ligands = CDT2Ligand().run(deck.molecules, library="emolecules")
    database = CDT3Docking(num_poses=3, monte_carlo_steps=20, restarts=2, seed=0).run(receptors, ligands)
    records = database.records()
    print(f"docked {len(database.compounds('protease1'))} compounds -> {len(records)} poses")

    print("\n=== Fusion-scoring each compound's poses (the campaign's route) ===")
    start = time.perf_counter()
    for compound_id in database.compounds("protease1"):
        poses = database.poses("protease1", compound_id)
        samples = workbench.featurizer.featurize_many(
            [ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id) for r in poses]
        )
        for record, score in zip(poses, workbench.coherent_fusion.predict_batch(samples)):
            record.fusion_pk = float(score)
    print(f"poses scored: {len(records)} in {time.perf_counter() - start:.3f} s")
    store = H5Store()
    write_job_output(
        store,
        "protease1",
        [r.compound_id for r in records],
        [r.pose_id for r in records],
        np.array([r.fusion_pk for r in records]),
        job_name="demo-job",
    )
    stored = store.read("dock/protease1/demo-job/fusion_pk")
    first = (str(store.read("dock/protease1/demo-job/compound_ids")[0]), float(stored[0]))
    print(f"predictions mirrored to the HDF5-like store: {len(stored)} entries (example: {first})")

    print("\n=== Paper-scale throughput from the analytic model (Table 7) ===")
    rows = table7_rows(FusionThroughputModel())
    table = [[metric, rows["single_job"][metric], rows["peak"][metric]]
             for metric in ("avg_startup_minutes", "avg_evaluation_minutes", "avg_file_output_minutes",
                            "poses_per_second", "compounds_per_hour")]
    print(format_table(["metric", "single 4-node job", "peak (125 jobs / 500 nodes)"], table))

    print("\n=== Strong scaling of one job (Figure 4) ===")
    for batch, series in sorted(figure4_series(batch_sizes=(12, 56)).items()):
        print(render_series(f"batch size {batch}", [n for n, _ in series], [t for _, t in series],
                            "nodes", "run time (minutes)"))

    print("\n=== Fault-tolerant scheduling of a 12-job allotment ===")
    model = FusionThroughputModel()
    cluster = SimulatedCluster(num_nodes=48)
    scheduler = JobScheduler(cluster, SchedulerConfig(walltime_limit_seconds=12 * 3600), FaultInjector(seed=11))
    for index in range(12):
        scheduler.submit(Job(name=f"job{index}", num_nodes=4, duration_seconds=model.estimate().total_minutes * 60))
    scheduler.run()
    failures = [name for name, job in scheduler.jobs.items() if job.attempts > 1]
    completed = sum(state is JobState.COMPLETED for state in scheduler.states().values())
    print(f"completed {completed}/12 jobs; requeued after faults: {failures or 'none'}")
    print(f"campaign makespan: {scheduler.makespan() / 3600:.2f} simulated hours")


if __name__ == "__main__":
    main()
