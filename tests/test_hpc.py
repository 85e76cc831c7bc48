"""Tests for the simulated HPC substrate: cluster, scheduler, MPI, Horovod, faults, performance, storage."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpc.cluster import LASSEN_NODE, SimulatedCluster
from repro.hpc.faults import FAILURE_MODES, FaultInjector
from repro.hpc.h5store import H5Store
from repro.hpc.horovod import HorovodContext
from repro.hpc.mpi import (
    CollectiveError,
    LocalCommunicator,
    RankContext,
    RankLostError,
    run_spmd,
    run_spmd_process,
)
from repro.hpc.performance import FusionThroughputModel, ScorerCostModel
from repro.hpc.scheduler import Job, JobScheduler, JobState, SchedulerConfig
from repro.utils.timer import WallClock


# Rank programs for the process-backed SPMD tests: module level, so the
# spawned workers can unpickle them by reference.
def _spmd_allgather_ranks(ctx):
    return ctx.allgather(ctx.rank, tag="ranks")


def _spmd_kill_rank_one(ctx):
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return ctx.allgather(ctx.rank, tag="ranks")


def _spmd_raise_rank_one(ctx):
    if ctx.rank == 1:
        raise ValueError("rank payload exploded")
    return ctx.allgather(ctx.rank, tag="ranks")


# One rank-kill case in a fresh interpreter: exit 0 iff RankLostError.
_KILL_CASE_SCRIPT = """
from repro.hpc.mpi import RankLostError, run_spmd_process
from test_hpc import _spmd_kill_rank_one

try:
    run_spmd_process(_spmd_kill_rank_one, 2, timeout=120.0)
except RankLostError:
    raise SystemExit(0)
raise SystemExit("run_spmd_process returned although rank 1 was killed")
"""


class TestCluster:
    def test_lassen_node_spec(self):
        assert LASSEN_NODE.cpu_cores == 44
        assert LASSEN_NODE.gpus_per_node == 4
        assert LASSEN_NODE.gpu.memory_gb == 16.0

    def test_allocation_lifecycle(self):
        cluster = SimulatedCluster(num_nodes=8)
        allocation = cluster.allocate("job1", 4)
        assert allocation.num_nodes == 4
        assert cluster.free_nodes == 4
        assert cluster.utilization() == 0.5
        with pytest.raises(RuntimeError):
            cluster.allocate("job2", 6)
        with pytest.raises(ValueError):
            cluster.allocate("job1", 1)
        cluster.release("job1")
        assert cluster.free_nodes == 8
        cluster.release("job1")  # idempotent

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SimulatedCluster(num_nodes=0)
        with pytest.raises(ValueError):
            SimulatedCluster(4).allocate("j", 0)


class TestScheduler:
    def test_jobs_queue_and_complete(self):
        cluster = SimulatedCluster(num_nodes=4)
        scheduler = JobScheduler(cluster, SchedulerConfig(walltime_limit_seconds=10_000))
        for i in range(5):
            scheduler.submit(Job(name=f"j{i}", num_nodes=2, duration_seconds=100))
        scheduler.run()
        assert all(state is JobState.COMPLETED for state in scheduler.states().values())
        # only two 2-node jobs fit at once -> at least three waves of 100 s
        assert scheduler.makespan() >= 300.0
        assert cluster.free_nodes == 4

    def test_walltime_timeout_and_requeue(self):
        cluster = SimulatedCluster(num_nodes=2)
        scheduler = JobScheduler(cluster, SchedulerConfig(walltime_limit_seconds=100))
        job = scheduler.submit(Job(name="long", num_nodes=1, duration_seconds=250, max_retries=5))
        scheduler.run()
        assert job.state is JobState.COMPLETED
        assert job.attempts == 3  # 100 + 100 + 50

    def test_fault_injection_and_retry(self):
        cluster = SimulatedCluster(num_nodes=8)
        injector = FaultInjector(failure_rates={8: 1.0}, seed=1)
        scheduler = JobScheduler(cluster, SchedulerConfig(), injector)
        job = scheduler.submit(Job(name="fragile", num_nodes=8, duration_seconds=10, max_retries=2))
        scheduler.run()
        # always fails: retries exhausted
        assert job.state is JobState.FAILED
        assert job.attempts == 3

    def test_payload_runs_on_completion(self):
        done = []
        cluster = SimulatedCluster(num_nodes=1)
        scheduler = JobScheduler(cluster)
        scheduler.submit(Job(name="p", num_nodes=1, duration_seconds=5, payload=lambda job: done.append(job.name)))
        scheduler.run()
        assert done == ["p"]

    def test_submission_validation(self):
        scheduler = JobScheduler(SimulatedCluster(2))
        scheduler.submit(Job(name="a", num_nodes=1, duration_seconds=1))
        with pytest.raises(ValueError):
            scheduler.submit(Job(name="a", num_nodes=1, duration_seconds=1))
        with pytest.raises(ValueError):
            scheduler.submit(Job(name="b", num_nodes=5, duration_seconds=1))
        with pytest.raises(ValueError):
            Job(name="c", num_nodes=0, duration_seconds=1)

    def test_priority_ordering(self):
        cluster = SimulatedCluster(num_nodes=1)
        clock = WallClock()
        scheduler = JobScheduler(cluster, clock=clock)
        low = scheduler.submit(Job(name="low", num_nodes=1, duration_seconds=10, priority=0))
        high = scheduler.submit(Job(name="high", num_nodes=1, duration_seconds=10, priority=5))
        scheduler.run()
        assert high.start_time <= low.start_time


class TestMPI:
    def test_collectives(self):
        def program(ctx: RankContext):
            gathered = ctx.allgather(ctx.rank)
            total = ctx.comm.allreduce_sum(ctx.rank, ctx.rank + 1.0)
            chunk = ctx.scatter([i * 10 for i in range(ctx.size)] if ctx.rank == 0 else None)
            broadcast = ctx.bcast({"v": 42} if ctx.rank == 2 else None, root=2)
            root_only = ctx.gather(ctx.rank * 2, root=1)
            return gathered, total, chunk, broadcast["v"], root_only

        results = run_spmd(program, 4)
        for rank, (gathered, total, chunk, bval, root_only) in enumerate(results):
            assert gathered == [0, 1, 2, 3]
            assert total == pytest.approx(10.0)
            assert chunk == rank * 10
            assert bval == 42
            if rank == 1:
                assert root_only == [0, 2, 4, 6]
            else:
                assert root_only is None

    def test_point_to_point(self):
        def program(ctx: RankContext):
            if ctx.rank == 0:
                ctx.send({"payload": 7}, dest=1)
                return None
            if ctx.rank == 1:
                return ctx.recv(source=0)["payload"]
            return None

        results = run_spmd(program, 2)
        assert results[1] == 7

    def test_failed_collective_raises_on_every_rank_and_stays_usable(self):
        """Regression: a raising combine used to leave its partial bucket in
        the collective buffer (so the next same-tag collective saw a full
        bucket prematurely) and raised on one rank only, deadlocking the
        rest at the barrier until timeout.  Now every rank raises the same
        descriptive CollectiveError and the communicator stays usable."""

        def program(ctx: RankContext):
            # wrong-length scatter list: combine raises on the closing rank
            with pytest.raises(CollectiveError, match="collective 'scatter' failed") as info:
                ctx.scatter([0, 1] if ctx.rank == 0 else None)
            assert "one element per rank" in str(info.value.__cause__)
            # same tag, correct payload: the cleared bucket and reusable
            # barrier make the retry succeed
            chunk = ctx.scatter([i * 10 for i in range(ctx.size)] if ctx.rank == 0 else None)
            gathered = ctx.allgather(chunk)
            return chunk, gathered

        results = run_spmd(program, 3)
        for rank, (chunk, gathered) in enumerate(results):
            assert chunk == rank * 10
            assert gathered == [0, 10, 20]

    def test_recv_timeout_names_endpoints_and_tag(self):
        """Regression: a starved recv used to surface as a bare queue.Empty
        with no hint of which endpoint pair starved."""
        comm = LocalCommunicator(2)
        with pytest.raises(TimeoutError, match=r"rank 0 to rank 1 \(tag=5\) within 0.01s"):
            comm.recv(source=0, dest=1, tag=5, timeout=0.01)

    def test_sequential_mode_without_collectives(self):
        results = run_spmd(lambda ctx: ctx.rank**2, 4, use_threads=False)
        assert results == [0, 1, 4, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalCommunicator(0)
        comm = LocalCommunicator(2)
        with pytest.raises(ValueError):
            comm.send(1, source=0, dest=5)


class TestHorovod:
    def test_rank_topology_and_broadcast(self, workbench):
        model = workbench.sgcnn

        def program(ctx: RankContext):
            hvd = HorovodContext(ctx, gpus_per_node=2)
            hvd.broadcast_parameters(model, root_rank=0)
            mean = hvd.allreduce_mean(float(ctx.rank))
            return hvd.rank(), hvd.local_rank(), hvd.node_index(), mean

        results = run_spmd(program, 4)
        assert [r[1] for r in results] == [0, 1, 0, 1]
        assert [r[2] for r in results] == [0, 0, 1, 1]
        assert all(r[3] == pytest.approx(1.5) for r in results)

    def test_invalid_gpus_per_node(self):
        comm = LocalCommunicator(1)
        with pytest.raises(ValueError):
            HorovodContext(RankContext(comm, 0), gpus_per_node=0)


class TestFaults:
    def test_failure_rates_match_paper_shape(self):
        injector = FaultInjector(seed=0)
        assert injector.failure_probability(1) == pytest.approx(0.02)
        assert injector.failure_probability(8) == pytest.approx(0.20)
        assert injector.failure_probability(4) < injector.failure_probability(8)
        # interpolation between known points
        assert 0.03 < injector.failure_probability(6) < 0.20
        assert injector.failure_probability(16) == pytest.approx(0.20)

    def test_deterministic_and_disabled(self):
        injector = FaultInjector(seed=3)
        a = injector.check("job", 8, attempt=0)
        b = FaultInjector(seed=3).check("job", 8, attempt=0)
        assert (a is None) == (b is None)
        disabled = FaultInjector(enabled=False)
        assert disabled.check("job", 8) is None

    def test_statistical_rate(self):
        injector = FaultInjector(seed=5)
        failures = sum(1 for i in range(500) if injector.check(f"job{i}", 8) is not None)
        assert 0.12 <= failures / 500 <= 0.30

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            FaultInjector(failure_rates={4: 1.5})

    @pytest.mark.parametrize("num_nodes", [1, 2, 8, 64])
    def test_uniform_rate_applies_at_every_node_count(self, num_nodes):
        assert FaultInjector.uniform(0.4).failure_probability(num_nodes) == pytest.approx(0.4)

    def test_failure_probability_interpolates_linearly(self):
        injector = FaultInjector(seed=0)
        # halfway between the 4-node (3 %) and 8-node (20 %) rates
        assert injector.failure_probability(6) == pytest.approx(0.115)
        assert injector.failure_probability(3) == pytest.approx(0.025)

    def test_certain_failure_draws_a_known_mode_and_strike_point(self):
        injector = FaultInjector.uniform(1.0, seed=9)
        events = [injector.check(f"job{i}", 1) for i in range(50)]
        assert all(event is not None for event in events)
        assert {event.mode for event in events} <= set(FAILURE_MODES)
        assert all(0.05 <= event.at_fraction <= 0.95 for event in events)
        assert injector.injected == events

    def test_zero_rate_never_fails(self):
        injector = FaultInjector.uniform(0.0, seed=9)
        assert all(injector.check(f"job{i}", 1) is None for i in range(200))
        assert injector.injected == []

    def test_each_attempt_draws_reproducibly(self):
        """A requeued job gets a fresh draw per attempt, and the same
        (seed, job, attempt) always draws the same fault."""
        draws = [
            [FaultInjector.uniform(0.5, seed=4).check("job", 1, attempt=a) for a in range(40)]
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        outcomes = {event is None for event in draws[0]}
        assert outcomes == {True, False}


class TestPerformanceModel:
    def test_table7_shape(self):
        model = FusionThroughputModel()
        single = model.estimate()
        assert single.startup_minutes == pytest.approx(20.0)
        assert 250 <= single.evaluation_minutes <= 310
        assert 4.5 <= single.total_hours <= 6.0
        assert 90 <= single.poses_per_second <= 130
        peak = model.peak_estimate()
        assert peak.poses_per_second > 100 * single.poses_per_second
        assert peak.compounds_per_hour > 1e6

    def test_speedups(self):
        model = FusionThroughputModel()
        assert 2.0 <= model.speedup_vs_vina() <= 3.5
        assert model.speedup_vs_mmgbsa() >= 300
        costs = ScorerCostModel()
        assert costs.mmgbsa_seconds(10) > costs.vina_seconds(10)

    def test_memory_model_limits_batch(self):
        model = FusionThroughputModel()
        assert model.max_batch_size() == 56
        with pytest.raises(ValueError):
            model.rank_rate(100)
        with pytest.raises(ValueError):
            model.rank_rate(0)

    def test_strong_scaling_monotone_with_diminishing_returns(self):
        model = FusionThroughputModel()
        times = [model.estimate(num_nodes=n).total_minutes for n in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)
        speedup_1_2 = times[0] / times[1]
        speedup_4_8 = times[2] / times[3]
        assert speedup_4_8 < speedup_1_2 < 2.0

    def test_batch_size_effect_is_small(self):
        model = FusionThroughputModel()
        t12 = model.estimate(batch_size_per_rank=12).total_minutes
        t56 = model.estimate(batch_size_per_rank=56).total_minutes
        assert 0 < t12 - t56 < 30

    def test_gpu_underutilized(self):
        model = FusionThroughputModel()
        assert model.gpu_utilization(56) < 0.6
        assert model.tflops(66) > 7000


class TestH5Store:
    def test_write_read_groups(self):
        store = H5Store()
        store.write("dock/protease1/job0/fusion_pk", np.arange(4.0))
        store.write("dock/protease1/job0/compound_ids", np.array(["a", "b", "c", "d"]))
        store.write_attr("dock/protease1/job0", "startup", 20.0)
        assert "dock/protease1/job0/fusion_pk" in store
        assert store.groups("dock") == ["protease1"]
        assert store.attrs("dock/protease1/job0")["startup"] == 20.0
        assert len(list(store.datasets_under("dock/protease1"))) == 2
        with pytest.raises(KeyError):
            store.read("nope")
        with pytest.raises(ValueError):
            store.write("", np.zeros(1))

    def test_save_load_roundtrip(self, tmp_path):
        store = H5Store()
        store.write("a/b", np.linspace(0, 1, 5))
        store.write("a/ids", np.array(["x", "yy", "zzz"]))
        store.write_attr("a", "note", "hello")
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = H5Store.load(path)
        np.testing.assert_allclose(loaded.read("a/b"), np.linspace(0, 1, 5))
        assert list(loaded.read("a/ids")) == ["x", "yy", "zzz"]
        assert loaded.attrs("a")["note"] == "hello"

    def test_merge(self):
        a, b = H5Store(), H5Store()
        a.write("x", np.zeros(2))
        b.write("y", np.ones(2))
        a.merge(b)
        assert len(a) == 2

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_arbitrary_arrays(self, values):
        import tempfile, os

        store = H5Store()
        store.write("data/values", np.array(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.npz")
            store.save(path)
            loaded = H5Store.load(path)
            np.testing.assert_allclose(loaded.read("data/values"), np.array(values), rtol=1e-6, atol=1e-6)


class TestBarrierTimeoutPlumbing:
    def test_communicator_accepts_and_validates_timeout(self):
        comm = LocalCommunicator(2, barrier_timeout=0.5)
        assert comm.barrier_timeout == 0.5
        with pytest.raises(ValueError, match="barrier_timeout"):
            LocalCommunicator(2, barrier_timeout=0.0)
        with pytest.raises(ValueError, match="barrier_timeout"):
            LocalCommunicator(2, barrier_timeout=-1.0)

    def test_run_spmd_plumbs_short_timeout_to_barriers(self):
        # rank 1 shows up a full second late: with the default 120 s
        # timeout this test would hang, with the plumbed 0.2 s it breaks
        # the barrier almost immediately
        def program(ctx):
            if ctx.rank == 1:
                time.sleep(1.0)
            ctx.barrier()
            return ctx.rank

        started = time.perf_counter()
        with pytest.raises(threading.BrokenBarrierError):
            run_spmd(program, 2, barrier_timeout=0.2)
        assert time.perf_counter() - started < 10.0


class TestProcessSpmdFaults:
    def test_happy_path_allgathers_across_processes(self):
        results = run_spmd_process(_spmd_allgather_ranks, 2, timeout=120.0)
        assert results == [[0, 1], [0, 1]]

    def test_killed_rank_raises_rank_lost_error(self):
        # a SIGKILL'd rank breaks the pool; the caller gets a descriptive
        # RankLostError promptly instead of starving until the timeout
        started = time.perf_counter()
        with pytest.raises(RankLostError, match="was lost during an SPMD step"):
            run_spmd_process(_spmd_kill_rank_one, 2, timeout=120.0)
        assert time.perf_counter() - started < 60.0

    def test_killed_rank_never_hangs_across_fresh_interpreters(self):
        """Regression: a rank killed before the executor's manager thread
        tracked its worker used to leave the survivor starving in a
        collective (about one run in two).  Each iteration runs in its own
        interpreter and process group, so a hang is a timeout here, not a
        stuck suite."""
        tests_dir = Path(__file__).resolve().parent
        path = [str(tests_dir.parent / "src"), str(tests_dir), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        for iteration in range(10):
            child = subprocess.Popen(
                [sys.executable, "-c", _KILL_CASE_SCRIPT],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
            try:
                _, stderr = child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)  # the child and its rank workers
                child.communicate()
                pytest.fail(f"iteration {iteration}: run_spmd_process hung after a rank was killed")
            assert child.returncode == 0, f"iteration {iteration}: {stderr[-2000:]}"

    def test_raising_rank_poisons_survivors_fast(self):
        with pytest.raises(RankLostError, match="ValueError: rank payload exploded"):
            run_spmd_process(_spmd_raise_rank_one, 2, timeout=120.0)

    def test_rank_lost_error_pickles_with_fields(self):
        error = RankLostError(3, 16, "worker process died (BrokenProcessPool)")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.rank, clone.size, clone.reason) == (3, 16, error.reason)
        assert "rank 3 of 16" in str(clone)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="positive"):
            run_spmd_process(_spmd_allgather_ranks, 0)
