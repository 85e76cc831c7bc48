"""Shared fixtures for the benchmark harness.

Every benchmark regenerates a specific table or figure of the paper.  The
expensive artefacts (trained model zoo, screening campaign) are built once
per session at a scale controlled by the ``REPRO_BENCH_SCALE`` environment
variable (``small`` by default, ``tiny`` for a quick smoke run) and shared
across benchmarks.  Rendered tables are written to
``benchmarks/artifacts/`` so the regenerated rows can be inspected after a
run and compared against the paper.  The code that computes each table and
figure lives in ``src/repro/experiments/``, one module per paper artefact.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import build_workbench, run_campaign

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure so results survive the benchmark run."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def workbench(bench_scale):
    """Trained model zoo on the synthetic PDBbind dataset."""
    return build_workbench(bench_scale)


@pytest.fixture(scope="session")
def campaign(workbench, bench_scale):
    """A screening campaign sized for the retrospective analyses (Figures 5-7, Table 8)."""
    if bench_scale == "tiny":
        counts = {"emolecules": 10, "zinc_world_approved": 6}
        tested, poses = 8, 2
    else:
        counts = {"emolecules": 40, "enamine": 30, "zinc_world_approved": 20, "chembl": 10}
        tested, poses = 40, 3
    return run_campaign(
        workbench,
        library_counts=counts,
        compounds_tested_per_site=tested,
        poses_per_compound=poses,
        seed=2020,
    )
