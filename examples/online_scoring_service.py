"""Online scoring service: sustained traffic against a fusion model.

Demonstrates the ``repro.serving`` subsystem: a ``ScoringService`` is
started over the trained Coherent Fusion model with two model replicas,
a demand-driven micro-batcher and a content-addressed result cache.  A burst
of docked poses is scored request-by-request (online path), the same
traffic is replayed against the warm cache, admission control is pushed
until the service rejects with ``Overloaded``, and the latency /
throughput metrics are printed after each phase.

Run:  python examples/online_scoring_service.py
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import make_sarscov2_targets
from repro.datasets import build_screening_deck
from repro.docking import CDT1Receptor, CDT2Ligand, CDT3Docking
from repro.experiments.common import build_workbench
from repro.serving import Overloaded, ScoringService, ServingConfig


def print_snapshot(title: str, snap) -> None:
    print(f"--- {title} ---")
    print(f"  completed        : {snap.completed} requests ({snap.rejected} rejected)")
    print(f"  sustained rate   : {snap.requests_per_second:8.1f} requests/s")
    print(f"  latency p50/p99  : {snap.latency_p50_ms:6.2f} / {snap.latency_p99_ms:6.2f} ms")
    print(f"  queue wait p50   : {snap.queue_wait_p50_ms:6.2f} ms")
    print(f"  batch occupancy  : {snap.batch_occupancy:6.2f} (mean size {snap.mean_batch_size:.1f})")
    print(f"  cache hit rate   : {snap.cache_hit_rate:6.2%}")


def main() -> None:
    workbench = build_workbench("tiny")
    site = make_sarscov2_targets(seed=1)["protease1"]

    print("=== Docking a compound deck to generate online traffic ===")
    deck = build_screening_deck({"emolecules": 16}, seed=3)
    receptors = CDT1Receptor().run([site])
    ligands = CDT2Ligand().run(deck.molecules, library="emolecules")
    database = CDT3Docking(num_poses=3, monte_carlo_steps=20, restarts=2, seed=0).run(receptors, ligands)
    complexes = [
        ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
        for r in database.records()
    ]
    print(f"docked {len(complexes)} poses to serve as requests")

    config = ServingConfig(max_batch_size=8, num_replicas=2, queue_capacity=64)
    print(f"\n=== Cold pass: {len(complexes)} requests from 8 concurrent clients, {config.num_replicas} replicas ===")
    with ScoringService(model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config) as service:
        with ThreadPoolExecutor(max_workers=8) as clients:
            pending = list(clients.map(service.submit, complexes))
        responses = [p.result() for p in pending]
        print(f"first scores: {[round(r.score, 3) for r in responses[:4]]}")
        print(f"replica spread: {service.pool.completed_batches()} batches per replica")
        print_snapshot("cold metrics", service.snapshot())

        print("\n=== Warm pass: identical traffic, content-addressed cache ===")
        service.metrics.reset()
        warm = [service.submit(c).result() for c in complexes]
        assert all(r.cached for r in warm)
        print_snapshot("warm metrics", service.snapshot())

        print("\n=== Backpressure: flooding a tiny queue until Overloaded ===")
        service.metrics.reset()
        tiny = ScoringService(
            model=workbench.coherent_fusion,
            featurizer=workbench.featurizer,
            config=ServingConfig(max_batch_size=2, num_replicas=1, queue_capacity=2,
                                 cache_enabled=False),
        ).start()
        def flood(complex_) -> int:
            try:
                tiny.submit(complex_)
                return 0
            except Overloaded:
                return 1

        with ThreadPoolExecutor(max_workers=8) as clients:
            rejected = sum(clients.map(flood, complexes))
        tiny.drain()
        tiny.close()
        print(f"tiny service rejected {rejected}/{len(complexes)} requests with Overloaded")

    print("\ndone: service drained and closed cleanly")


if __name__ == "__main__":
    main()
