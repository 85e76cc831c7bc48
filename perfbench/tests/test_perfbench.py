"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at a tiny size through the command
line and check that every metric ``BENCHMARK.json`` names is emitted
with its unit; the other tests feed each correctness check a deliberately
corrupted result and require it to fail.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from perfbench import harness, screen, serve, tracing, train  # noqa: E402


def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload: str, trace: str) -> None:
    done = run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path: Path) -> None:
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli("--workload", "screen", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# --------------------------------------------------------------------------- #
# Correctness checks fail on corrupted results
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def screened():
    state = screen.setup("screen", seed=5, seconds=0.0)
    state.libraries = state.libraries[:1]
    rounds = screen.run_rounds(state)
    yield state, rounds
    screen.teardown(state)


def test_screen_checks_pass_on_true_result(screened) -> None:
    state, rounds = screened
    assert screen.check_topk_rescore(state, rounds) == []
    assert screen.check_checkpoint_restore(state, rounds) == []
    assert screen.check_accounting(rounds) == []


def test_tampered_topk_score_fails_rescore_and_restore(screened) -> None:
    state, rounds = screened
    tampered = copy.deepcopy(rounds)
    site = screen.SITES[0]
    entry = tampered[0].result.top_k[site][0]
    tampered[0].result.top_k[site][0] = type(entry)(entry.compound_id, math.nextafter(entry.score, math.inf))
    assert screen.check_topk_rescore(state, tampered)
    assert screen.check_checkpoint_restore(state, tampered)


def test_failed_shard_fails_accounting(screened) -> None:
    _, rounds = screened
    tampered = copy.deepcopy(rounds)
    tampered[0].result.shards_executed -= 1
    tampered[0].result.shards_failed += 1
    tampered[0].result.num_compounds -= screen.SHARD_SIZE
    assert len(screen.check_accounting(tampered)) == 2


@pytest.fixture(scope="module")
def served():
    state = serve.setup("serve", seed=5, seconds=1.5)
    phase, _, _ = serve.phase_run(state)
    return state, phase


def test_serve_checks_pass_on_true_result(served) -> None:
    state, phase = served
    outcome = harness.Outcome()
    serve.checks(state, phase, outcome)
    assert outcome.correct, outcome.checks


def test_dropped_request_fails_ledger(served) -> None:
    state, phase = served
    dropped = copy.copy(phase)
    dropped.completed -= 1
    outcome = harness.Outcome()
    serve.checks(state, dropped, outcome)
    assert outcome.checks["request_ledger"]


def test_perturbed_scores_fail_score_checks(served) -> None:
    state, phase = served
    fresh = next(i for i, r in enumerate(phase.responses) if r is not None and not r.cached)
    cached = next(i for i, r in enumerate(phase.responses) if r is not None and r.cached)
    responses = list(phase.responses)
    for index in (fresh, cached):
        responses[index] = copy.copy(responses[index])
        responses[index].score += 1e-6
    perturbed = copy.copy(phase)
    perturbed.responses = responses
    assert serve.check_fresh_scores(state, perturbed)
    assert serve.check_cached_scores(state, perturbed)


@pytest.fixture(scope="module")
def trained():
    state = train.setup("train", seed=5, seconds=0.0)
    return state, train.run_rounds(state, 1)


def test_train_checks_pass_on_true_result(trained) -> None:
    state, rounds = trained
    assert train.check_losses(rounds) == []
    assert train.check_rank_invariance(state, rounds) == []


def test_perturbed_loss_fails_train_checks(trained) -> None:
    state, rounds = trained
    perturbed = copy.deepcopy(rounds)
    perturbed[0].train_losses[0] = math.nextafter(perturbed[0].train_losses[0], 0.0)
    assert train.check_rank_invariance(state, perturbed)
    rising = copy.deepcopy(rounds)
    rising[0].train_losses[-1] = rising[0].train_losses[0] + 1.0
    assert train.check_losses(rising)
    rising[0].val_losses[0] = math.nan
    assert train.check_losses(rising)


# --------------------------------------------------------------------------- #
# Accounting and statistics
# --------------------------------------------------------------------------- #
def span(span_id, name, start, end, thread, parent=None):
    return SimpleNamespace(
        span_id=span_id, parent_id=parent, name=name, start_s=start, end_s=end,
        duration_s=end - start, thread_id=thread, thread_name=f"t{thread}", counters={},
    )


def test_layer_shares_add_up_to_wall_time() -> None:
    records = [
        span(1, "a", 1.0, 4.0, thread=1),
        span(2, "b", 2.0, 3.0, thread=1, parent=1),
        span(3, "c", 3.5, 6.0, thread=2),
    ]
    shares = tracing.account(records, 0.0, 8.0)
    # a alone 1-2 and 3-3.5, shared with c 3.5-4; b 2-3; c alone 4-6
    assert shares == pytest.approx({"other": 3.0, "a": 1.75, "b": 1.0, "c": 2.25})
    table = tracing.layer_table(records, 0.0, 8.0)
    assert table["balanced"]
    assert table["layers"]["a"]["self_thread_s"] == pytest.approx(2.0)


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        harness.tail_percentile(19)
