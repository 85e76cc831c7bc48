"""End-to-end golden snapshot of a seeded mini-campaign's fusion scores.

The committed fixture (``tests/data/golden_fusion_scores.json``) pins the
Coherent Fusion scores of the first poses of the session mini-campaign.
The suite asserts the snapshot is reproduced *identically* through three
scoring routes:

* **direct** — the scalar oracle featurizer (``tests/featurize_oracle.py``)
  + the batched model entry point, one pose per batch;
* **engine-cached** — the vectorized ``FeaturePipeline``, scored cold
  and again fully cache-served;
* **serving-routed** — the online ``ScoringService`` submitting each
  pose as its own single-pose batch.

Identical means ``==`` on floats: any perturbation of featurization,
collation or forward-pass numerics fails this test.  The fixture holds
for the numerics' reference environment, BLAS on one thread, which
``import repro`` pins; the test first checks that the pin took effect.

Regenerating the fixture (only after an intentional numerical change):
``PYTHONPATH=src:tests python -c "import test_golden_snapshot as m; m.regenerate()"``
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro
from repro.chem.complexes import ProteinLigandComplex
from repro.featurize.engine import FeaturePipeline
from repro.serving import ScoringService, ServingConfig

from featurize_oracle import ComplexFeaturizer

FIXTURE_PATH = Path(__file__).parent / "data" / "golden_fusion_scores.json"
NUM_POSES = 6


def blas_pin_problem() -> str | None:
    """Why this process is not in the fixture's one-thread BLAS
    environment, or ``None`` when it is."""
    if repro.NUMPY_PRELOADED:
        return "numpy imported before repro, so the BLAS thread pin came too late"
    values = {name: os.environ.get(name) for name in repro.BLAS_THREAD_VARS}
    if any(value != "1" for value in values.values()):
        return f"BLAS not pinned to one thread: {values}"
    return None


def campaign_complexes(campaign) -> list[ProteinLigandComplex]:
    """The snapshot's poses: the first records of the campaign's first site."""
    site_name = sorted(campaign.database.sites())[0]
    site = campaign.sites[site_name]
    records = [r for r in campaign.database.records() if r.site_name == site_name][:NUM_POSES]
    assert len(records) == NUM_POSES, "mini-campaign produced fewer poses than the snapshot needs"
    return [
        ProteinLigandComplex(site, r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
        for r in records
    ]


def featurizer_configs(workbench):
    return workbench.featurizer.voxelizer.config, workbench.featurizer.graph_builder.config


def score_direct(workbench, complexes) -> list[float]:
    """Reference route: scalar oracle featurizer, one pose per model batch."""
    voxel_config, graph_config = featurizer_configs(workbench)
    scalar = ComplexFeaturizer(voxel_config, graph_config)
    model = workbench.coherent_fusion
    return [float(model.predict_batch([scalar.featurize(c)])[0]) for c in complexes]


def score_engine(workbench, complexes) -> tuple[list[float], list[float]]:
    """Engine route: vectorized pipeline, cold pass then fully cached pass."""
    voxel_config, graph_config = featurizer_configs(workbench)
    engine = FeaturePipeline(voxel_config, graph_config)
    model = workbench.coherent_fusion
    cold = [float(model.predict_batch([engine.featurize(c)])[0]) for c in complexes]
    cached = [float(model.predict_batch([engine.featurize(c)])[0]) for c in complexes]
    stats = engine.stats()
    assert stats.hits >= len(complexes), "second pass should be fully cache-served"
    return cold, cached


def score_serving(workbench, complexes) -> list[float]:
    """Serving route: ``max_batch_size=1`` makes every online batch one pose."""
    voxel_config, graph_config = featurizer_configs(workbench)
    config = ServingConfig(
        max_batch_size=1, num_replicas=1, queue_capacity=max(len(complexes), 8)
    )
    engine = FeaturePipeline(voxel_config, graph_config)
    with ScoringService(
        model=workbench.coherent_fusion, featurizer=engine, config=config
    ) as service:
        pending = [service.submit(c) for c in complexes]
        return [float(p.result(timeout=120.0).score) for p in pending]


class TestGoldenSnapshot:
    def test_fixture_reproduced_via_all_routes(self, workbench, campaign):
        problem = blas_pin_problem()
        assert problem is None, problem
        fixture = json.loads(FIXTURE_PATH.read_text())
        complexes = campaign_complexes(campaign)

        assert [c.complex_id for c in complexes] == [r["compound_id"] for r in fixture["poses"]]
        assert [c.pose_id for c in complexes] == [r["pose_id"] for r in fixture["poses"]]
        golden = [r["score"] for r in fixture["poses"]]

        direct = score_direct(workbench, complexes)
        cold, cached = score_engine(workbench, complexes)
        serving = score_serving(workbench, complexes)

        assert direct == golden, "direct route diverged from the committed snapshot"
        assert cold == golden, "engine route diverged from the committed snapshot"
        assert cached == golden, "cache-served features changed the scores"
        assert serving == golden, "serving route diverged from the committed snapshot"

    def test_routes_agree_in_process(self, workbench, campaign):
        # no fixture: the routes must agree with each other on this platform
        complexes = campaign_complexes(campaign)
        direct = score_direct(workbench, complexes)
        cold, cached = score_engine(workbench, complexes)
        serving = score_serving(workbench, complexes)

        assert cold == direct, "engine route diverged from the direct route"
        assert cached == direct, "cache-served features changed the scores"
        assert serving == direct, "serving route diverged from the direct route"

    def test_fixture_metadata_matches_session_campaign(self, workbench, campaign):
        fixture = json.loads(FIXTURE_PATH.read_text())
        assert fixture["campaign_seed"] == 99
        assert fixture["workbench_scale"] == "tiny"
        assert fixture["site"] == sorted(campaign.database.sites())[0]
        assert fixture["grid_dim"] == workbench.featurizer.voxelizer.config.grid_dim

    def test_snapshot_scores_are_finite_pk_values(self):
        fixture = json.loads(FIXTURE_PATH.read_text())
        for row in fixture["poses"]:
            assert -5.0 < row["score"] < 20.0


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rebuild the committed fixture after an intentional numerical change."""
    from repro.experiments.common import build_workbench, run_campaign

    problem = blas_pin_problem()
    if problem is not None:
        raise RuntimeError(f"refusing to regenerate the fixture: {problem}")
    workbench = build_workbench("tiny")
    campaign = run_campaign(
        workbench,
        library_counts={"emolecules": 8, "zinc_world_approved": 4},
        compounds_tested_per_site=6,
        poses_per_compound=2,
        seed=99,
    )
    complexes = campaign_complexes(campaign)
    scores = score_direct(workbench, complexes)
    fixture = {
        "description": "Coherent Fusion scores of the seeded mini-campaign's first poses",
        "campaign_seed": 99,
        "workbench_scale": "tiny",
        "site": sorted(campaign.database.sites())[0],
        "grid_dim": workbench.featurizer.voxelizer.config.grid_dim,
        "poses": [
            {"compound_id": c.complex_id, "pose_id": c.pose_id, "score": s}
            for c, s in zip(complexes, scores)
        ],
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(scores)} poses)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
