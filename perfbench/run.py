"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` reports the end-to-end metrics of an untraced
run; ``--trace 1`` reports per-layer metrics from a traced run and
writes its Chrome trace and layer table under ``perfbench/out/traces``.
``--workload all`` runs every workload in its own process and prints a
table of every metric with its unit and sample count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON object ``{"detail": ...}`` with the environment, setup
times, latency sample counts and tail percentiles, correctness checks
and, for traced runs, the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("screen", "serve", "train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {REPO_ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin BLAS/OpenMP before numpy loads: program threads times BLAS
    # threads must not exceed the cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    from perfbench import harness, screen, serve, train

    module = {"screen": screen, "serve": serve, "train": train}[args.workload]
    outcome = harness.Outcome()
    # a traced run makes an untraced and a traced pass of half the work each
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_s = []
    state = None
    ticks = harness.cpu_ticks()
    try:
        for _ in range(1 if args.trace else harness.SETUP_REPEATS):
            if state is not None:
                module.teardown(state)
            state, elapsed = harness.timed(lambda: module.setup(args.workload, args.seed, seconds))
            setup_s.append(elapsed)
        (module.traced if args.trace else module.run)(args.workload, state, outcome)
    finally:
        if state is not None:
            module.teardown(state)
    if not args.trace:
        outcome.metric("setup_s", statistics.median(setup_s), "s")
        outcome.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
    outcome.detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=harness.environment(), cpu_steal_share=harness.steal_share(ticks, harness.cpu_ticks()),
        setup_s=setup_s, checks=outcome.checks,
    )
    for check, failures in outcome.checks.items():
        print(f"check {check}: {'ok' if not failures else 'FAILED'}")
        for failure in failures:
            print(f"  {failure}")
    print(json.dumps({"detail": outcome.detail}, default=str))
    print(json.dumps(outcome.result_line()))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"perfbench: workload {workload} failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        latency = detail.get("latency")
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
            samples = ""
            if name == "latency_p50_ms":
                samples = f"n={latency['samples']} ({latency['unit_of_work']})"
            elif name == "setup_s":
                samples = f"n={len(detail['setup_s'])}"
            rows.append((workload, name, metric["value"], metric["unit"], samples))
        if latency is not None:
            rows.append((workload, "latency_tail_ms", latency["tail"], "ms",
                         f"p{latency['tail_percentile']:g} of n={latency['samples']}, reported, not gated"))
        failed_checks = [name for name, failures in detail["checks"].items() if failures]
        rows.append((workload, "checks", "FAILED: " + ", ".join(failed_checks) if failed_checks else "all passed",
                     "", f"{result['failed']} of {result['attempted']} failed"))
    width = max(len(row[1]) for row in rows)
    for workload, name, value, unit, samples in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<12} {name:<{width}} {shown:>14} {unit:<6} {samples}")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
