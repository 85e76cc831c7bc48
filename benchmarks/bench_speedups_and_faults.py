"""§4.1-§4.3 — scorer cost comparison, job failure rates and fault-tolerant scheduling.

Regenerates: (a) the per-node cost comparison of Vina docking, MM/GBSA
rescoring and Fusion inference (10 poses/s, 0.067 poses/s, 2.7x / 403x
speedups); (b) the job-failure statistics by node count; (c) an LSF-style
scheduling simulation of a many-job screening campaign with fault
injection and requeueing, showing that small 4-node jobs lose little
throughput to failures.
"""

from benchmarks.conftest import write_artifact
from repro.eval.reports import format_table
from repro.hpc.cluster import SimulatedCluster
from repro.hpc.faults import FaultInjector
from repro.hpc.performance import FusionThroughputModel, ScorerCostModel
from repro.hpc.scheduler import Job, JobScheduler, JobState, SchedulerConfig
from repro.screening.throughput import speedup_summary


def test_scorer_speed_comparison(benchmark):
    model = FusionThroughputModel()
    costs = ScorerCostModel()

    def compute():
        return {
            "vina_poses_per_second_per_node": costs.vina_poses_per_second_per_node,
            "mmgbsa_poses_per_second_per_node": costs.mmgbsa_poses_per_second_per_node,
            "fusion_poses_per_second_per_node": model.estimate().poses_per_second / 4.0,
            **speedup_summary(model),
        }

    values = benchmark(compute)
    rows = [[k, v] for k, v in values.items()]
    write_artifact("speedups.txt", format_table(["metric", "value"], rows, title="§4.1/§4.2 scorer throughput comparison"))
    assert values["fusion_vs_vina"] > 2.0
    assert values["fusion_vs_mmgbsa"] > 300.0
    assert values["vina_poses_per_second_per_node"] == 10.0


def test_job_failure_rates_by_node_count(benchmark):
    def measure():
        rates = {}
        for nodes in (1, 2, 4, 8):
            injector = FaultInjector(seed=17)
            failures = sum(1 for i in range(400) if injector.check(f"job-{nodes}-{i}", nodes) is not None)
            rates[nodes] = failures / 400
        return rates

    rates = benchmark(measure)
    rows = [[n, f"{rates[n]:.1%}", {1: "2%", 2: "2%", 4: "3%", 8: "20%"}[n]] for n in (1, 2, 4, 8)]
    write_artifact("fault_rates.txt", format_table(["nodes per job", "measured failure rate", "paper"], rows,
                                                   title="§4.3 job failure rate vs nodes per job"))
    assert rates[8] > rates[4] > 0.0
    assert rates[8] > 0.10


def test_fault_tolerant_campaign_scheduling(benchmark):
    """Schedule a 125-job screening allotment (500 nodes) under fault injection."""
    model = FusionThroughputModel()
    job_minutes = model.estimate().total_minutes

    def simulate():
        cluster = SimulatedCluster(num_nodes=500)
        scheduler = JobScheduler(
            cluster,
            SchedulerConfig(walltime_limit_seconds=12 * 3600),
            FaultInjector(seed=3),
        )
        for index in range(125):
            scheduler.submit(Job(name=f"fusion-job-{index}", num_nodes=4, duration_seconds=job_minutes * 60, max_retries=3))
        scheduler.run()
        return scheduler

    scheduler = benchmark.pedantic(simulate, rounds=1, iterations=1)
    states = scheduler.states()
    completed = sum(1 for s in states.values() if s is JobState.COMPLETED)
    retried = sum(1 for j in scheduler.jobs.values() if j.attempts > 1)
    makespan_hours = scheduler.makespan() / 3600.0
    text = "\n".join([
        f"jobs submitted: 125 (4 nodes each, {job_minutes:.0f} min modelled duration)",
        f"jobs completed: {completed}",
        f"jobs requiring requeue after faults: {retried}",
        f"campaign makespan: {makespan_hours:.2f} h (single fault-free wave would be {job_minutes / 60:.2f} h)",
    ])
    write_artifact("fault_tolerant_scheduling.txt", text)
    assert completed == 125  # requeueing recovers every failed job
    # failures only add waves for the affected jobs; overall makespan stays below 3 fault-free waves
    assert makespan_hours < 3.2 * job_minutes / 60.0
