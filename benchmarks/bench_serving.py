"""Online serving throughput — requests/s and latency vs batch size and replicas.

The batch campaign's contract is poses/s (Table 7); the online serving
subsystem's contract is sustained requests/s and tail latency.  This
benchmark sweeps the two first-order knobs — micro-batch size and
replica count — over identical request traffic and records a JSON
artifact (``benchmarks/artifacts/serving_throughput.json``) so later
PRs have a perf trajectory to beat.  A second sweep drives the same
traffic through process-backend replicas (``ServingConfig(backend=
"process")``: one spawned model process per replica, scores bit-identical
to the thread rows) so the artifact tracks both execution backends.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import write_artifact
from repro.chem.complexes import ProteinLigandComplex
from repro.serving import ScoringService, ServingConfig
from repro.telemetry import MetricsRegistry

REPLICA_COUNTS = (1, 2, 4)
BATCH_SIZES = (2, 8)
NUM_CLIENTS = 8


def _request_traffic(campaign, limit: int = 48) -> list[ProteinLigandComplex]:
    site_name = campaign.database.sites()[0]
    site = campaign.sites[site_name]
    records = [r for r in campaign.database.records() if r.site_name == site_name][:limit]
    return [
        ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
        for r in records
    ]


def _drive(
    workbench,
    traffic,
    num_replicas: int,
    max_batch_size: int,
    registry: MetricsRegistry | None = None,
    backend: str = "thread",
) -> dict:
    config = ServingConfig(
        max_batch_size=max_batch_size,
        num_replicas=num_replicas,
        queue_capacity=max(len(traffic), max_batch_size),
        cache_enabled=False,  # measure raw scoring throughput, not cache hits
        backend=backend,
    )
    with ScoringService(
        model=workbench.coherent_fusion,
        featurizer=workbench.featurizer,
        config=config,
        registry=registry,
    ) as service:
        with ThreadPoolExecutor(max_workers=NUM_CLIENTS) as clients:
            pending = list(clients.map(service.submit, traffic))
        for handle in pending:
            handle.result(timeout=120.0)
        snap = service.snapshot()
    return {
        "num_replicas": num_replicas,
        "max_batch_size": max_batch_size,
        "backend": backend,
        "num_clients": NUM_CLIENTS,
        "num_requests": len(traffic),
        "requests_per_second": snap.requests_per_second,
        "requests_per_second_lifetime": snap.requests_per_second_lifetime,
        "latency_p50_ms": snap.latency_p50_ms,
        "latency_p99_ms": snap.latency_p99_ms,
        "mean_batch_size": snap.mean_batch_size,
        "batch_occupancy": snap.batch_occupancy,
    }


def test_serving_throughput_sweep(benchmark, workbench, campaign):
    """Sweep replicas x batch size; emit the JSON perf-trajectory record."""
    traffic = _request_traffic(campaign)
    registry = MetricsRegistry()

    def sweep() -> list[dict]:
        rows = []
        for num_replicas in REPLICA_COUNTS:
            for max_batch_size in BATCH_SIZES:
                rows.append(_drive(workbench, traffic, num_replicas, max_batch_size, registry))
        # process-backend replicas (one spawned model process each, weights
        # shipped once at startup): same traffic, largest batch size only —
        # the thread rows already map the batch-size axis
        for num_replicas in REPLICA_COUNTS:
            rows.append(
                _drive(
                    workbench, traffic, num_replicas, BATCH_SIZES[-1], registry,
                    backend="process",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_artifact(
        "serving_throughput.json",
        json.dumps({"rows": rows, "registry": registry.snapshot()}, indent=2),
    )

    assert {row["num_replicas"] for row in rows} >= set(REPLICA_COUNTS)
    for row in rows:
        assert row["requests_per_second"] > 0
        assert row["latency_p99_ms"] >= row["latency_p50_ms"]
    best = max(rows, key=lambda r: r["requests_per_second"])
    benchmark.extra_info["best_requests_per_second"] = best["requests_per_second"]
    benchmark.extra_info["best_config"] = f"replicas={best['num_replicas']} batch={best['max_batch_size']}"


def test_serving_warm_cache_repeat(benchmark, workbench, campaign):
    """A warm-cache replay serves identical traffic with hit-rate ~1."""
    traffic = _request_traffic(campaign, limit=24)
    config = ServingConfig(max_batch_size=8, num_replicas=2, queue_capacity=64)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=workbench.featurizer, config=config
    ) as service:
        cold = [service.submit(c).result(timeout=120.0) for c in traffic]
        service.metrics.reset()

        def warm_pass():
            return [service.submit(c).result(timeout=120.0) for c in traffic]

        warm = benchmark.pedantic(warm_pass, rounds=1, iterations=1)
        snap = service.snapshot()
    assert snap.cache_hit_rate >= 0.99
    assert [r.score for r in warm] == [r.score for r in cold]
    benchmark.extra_info["warm_requests_per_second"] = snap.requests_per_second
    benchmark.extra_info["cache_hit_rate"] = snap.cache_hit_rate
