"""Table 7 — single-job and peak screening throughput.

Regenerates the throughput table from the analytic performance model and
records, next to the model's paper-scale job breakdown, the poses the
benchmark campaign's streamed screen actually scored per site.
"""

from benchmarks.conftest import write_artifact
from repro.experiments import table7
from repro.hpc.performance import FusionThroughputModel


def test_table7_modelled_throughput(benchmark):
    rows = benchmark(table7.run_table7)
    write_artifact("table7_throughput.txt", table7.render(rows))
    claims = table7.qualitative_claims(rows)
    assert all(claims.values()), claims
    benchmark.extra_info["poses_per_second_single"] = rows["single_job"]["poses_per_second"]
    benchmark.extra_info["poses_per_second_peak"] = rows["peak"]["poses_per_second"]
    benchmark.extra_info["speedup_vs_vina"] = rows["speedups"]["fusion_vs_vina"]
    benchmark.extra_info["speedup_vs_mmgbsa"] = rows["speedups"]["fusion_vs_mmgbsa"]


def test_table7_measured_job_breakdown(campaign):
    """Record the campaign's measured per-site pose counts next to the paper-scale model."""
    lines = ["Measured streamed screen of the benchmark campaign (not paper scale):"]
    for result in campaign.job_results:
        site_records = [r for r in campaign.database.records() if r.site_name == result.site_name]
        assert result.num_poses == len(site_records)
        lines.append(f"  {result.site_name:>12s}: {result.num_poses} poses")
    paper_scale = FusionThroughputModel().estimate(num_poses=2_000_000, num_nodes=4, batch_size_per_rank=56)
    lines.append("Modelled at paper scale (2M poses, 4 nodes, batch 56):")
    lines.append(f"  startup {paper_scale.startup_minutes:.1f} min, evaluation {paper_scale.evaluation_minutes:.1f} min, "
                 f"output {paper_scale.output_minutes:.1f} min, {paper_scale.poses_per_second:.0f} poses/s")
    write_artifact("table7_measured_job.txt", "\n".join(lines))
