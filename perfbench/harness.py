"""Shared plumbing of the benchmark workloads: statistics, environment,
the cached model workbench and the result record.

Nothing here starts a thread or touches the file system at import time.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Each run sets up its workload this many times and reports the median.
SETUP_REPEATS = 3

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "perfbench" / "out"


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    eligible = [p for p in TAIL_LADDER if count * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND]
    if not eligible:
        raise ValueError(f"{count} samples cannot give a tail with {TAIL_MIN_BEYOND} samples beyond it")
    return eligible[-1]


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def latency_summary(values_ms) -> dict:
    """p50 plus the tail percentile the sample count supports."""
    count = len(values_ms)
    tail = tail_percentile(count)
    return {
        "p50": percentile(values_ms, 50.0),
        "tail": percentile(values_ms, tail),
        "tail_percentile": tail,
        "samples": count,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode, or another build layout
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_threads": {name: value for name, value in os.environ.items() if name.endswith("_NUM_THREADS")},
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the machine so far, from ``/proc/stat``.

    On a shared virtual machine, time the hypervisor gives to other
    tenants shows up as steal and slows every timing in a run; the share
    is recorded next to the metrics so a slow run can be told apart from
    a slow program.  ``None`` where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


# --------------------------------------------------------------------------- #
# The model workbench, built once per source tree
# --------------------------------------------------------------------------- #
def source_digest() -> str:
    """Digest of every Python file under ``src/`` — the workbench cache key."""
    digest = hashlib.sha256()
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def workbench_path() -> Path:
    return OUT_DIR / f"workbench-{source_digest()}.pkl"


def load_workbench():
    """The tiny trained workbench, pickled under ``perfbench/out``.

    Training it takes a few seconds; the first run in a checkout builds
    it in a child process, so the build's memory never shows in the
    run's peak RSS, and later runs load it.  The key is a digest of
    ``src/``, so a code change can never load a stale model.
    """
    path = workbench_path()
    if not path.exists():
        build = f"import sys; sys.path[:0] = {[str(REPO_ROOT / 'src'), str(REPO_ROOT)]!r}; " \
            "from perfbench.harness import build_workbench_file; build_workbench_file()"
        subprocess.run([sys.executable, "-c", build], check=True, timeout=900)
    with open(path, "rb") as handle:
        return pickle.load(handle)


def build_workbench_file() -> None:
    from repro.experiments.common import build_workbench

    path = workbench_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    workbench = build_workbench("tiny", cache=False)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(workbench, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def new_featurizer(workbench):
    """A featurizer with the workbench's configuration and an empty cache
    (the feature cache pickles its configuration only)."""
    return copy.deepcopy(workbench.featurizer)


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run produced: metrics, counts, checks, details."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correctness check name -> list of failure messages (empty = passed)
    checks: dict[str, list[str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = (value, unit)

    def check(self, name: str, failures: list[str]) -> None:
        self.checks[name] = list(failures)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and not any(self.checks.values())

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }
