"""Tests for the simulated HPC substrate: cluster, scheduler, MPI, Horovod, faults, performance, storage."""

import copy
import math
import threading
import time

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
    run_spmd,
)
from repro.hpc.performance import FusionThroughputModel, ScorerCostModel
from repro.hpc.scheduler import Job, JobScheduler, JobState, SchedulerConfig
from repro.nn.layers import Linear
from repro.utils.timer import WallClock


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
            broadcast = ctx.bcast({"v": 42} if ctx.rank == 2 else None, root=2)
            reduced = ctx.allreduce_exact([np.array([ctx.rank + 1.0])])
            return gathered, broadcast["v"], reduced

        for gathered, bval, reduced in run_spmd(program, 4):
            assert gathered == [0, 1, 2, 3]
            assert bval == 42
            assert np.array_equal(reduced, np.array([10.0]))

    @pytest.mark.parametrize(
        "failing, tag, cause",
        [
            # the root is no rank of the communicator: combine finds no value
            (lambda ctx: ctx.bcast("payload", root=7), "bcast", KeyError),
            # a rank id that does not sort with the others: combine cannot order the values
            (lambda ctx: ctx.comm.allgather("x" if ctx.rank == 1 else ctx.rank, ctx.rank), "allgather", TypeError),
            # partials of different shapes cannot be summed elementwise
            (lambda ctx: ctx.allreduce_exact([np.ones(ctx.rank + 1)]), "allreduce-exact:exact", ValueError),
        ],
        ids=["bcast", "allgather", "allreduce_exact"],
    )
    def test_failed_collective_raises_on_every_rank_and_stays_usable(self, failing, tag, cause):
        """A raising combine must not leave its partial bucket behind (the
        next same-tag collective would see a full bucket too early) or
        raise on one rank only (the rest would wait at the barrier until
        it times out): every rank raises the same CollectiveError, and
        the same collective then succeeds."""

        def program(ctx: RankContext):
            with pytest.raises(CollectiveError, match=f"collective '{tag}' failed") as info:
                failing(ctx)
            assert isinstance(info.value.__cause__, cause) and info.value.tag == tag
            return ctx.bcast(ctx.rank, root=1), ctx.allgather(ctx.rank), ctx.allreduce_exact([np.ones(2)])

        for broadcast, gathered, reduced in run_spmd(program, 3, barrier_timeout=30):
            assert (broadcast, gathered) == (1, [0, 1, 2])
            assert np.array_equal(reduced, np.full(2, 3.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalCommunicator(0)

    def test_surface_is_the_three_collectives(self):
        collectives = {"bcast", "allgather", "allreduce_exact"}
        assert {n for n in dir(LocalCommunicator) if not n.startswith("_")} == collectives | {"size"}
        assert {n for n in dir(RankContext) if not n.startswith("_")} == collectives | {"size"}

    def test_same_tag_collectives_stay_in_lockstep_over_many_rounds(self):
        def program(ctx: RankContext):
            return [
                (ctx.allgather(ctx.rank * round_), ctx.bcast(round_ if ctx.rank == 1 else None, root=1))
                for round_ in range(25)
            ]

        for per_round in run_spmd(program, 3):
            assert per_round == [([0, round_, 2 * round_], round_) for round_ in range(25)]

    def test_allgather_and_bcast_pass_objects_through_unchanged(self):
        payload = {"weights": np.arange(3.0), "tag": ("a", 1)}

        def program(ctx: RankContext):
            return ctx.bcast(payload if ctx.rank == 0 else None, root=0), ctx.allgather(payload)

        for received, gathered in run_spmd(program, 2):
            assert received is payload
            assert all(item is payload for item in gathered)


class TestHorovod:
    def test_broadcast_parameters_from_rank_zero(self, workbench):
        def program(ctx: RankContext):
            model = copy.deepcopy(workbench.sgcnn)
            # every non-root rank starts from different weights
            model.load_state_dict({key: value + ctx.rank for key, value in model.state_dict().items()})
            HorovodContext(ctx).broadcast_parameters(model, root_rank=0)
            return model.state_dict()

        root_state = workbench.sgcnn.state_dict()
        for state in run_spmd(program, 4):
            assert sorted(state) == sorted(root_state)
            for key, value in root_state.items():
                assert np.array_equal(state[key], value)

    def test_exact_allreduce(self):
        def program(ctx: RankContext):
            partials = [np.full(3, 0.1 * (ctx.rank + k)) for k in range(ctx.rank + 1)]
            return HorovodContext(ctx).allreduce_exact(partials)

        results = run_spmd(program, 3)
        everything = [np.full(3, 0.1 * (r + k)) for r in range(3) for k in range(r + 1)]
        for reduced in results:
            assert np.array_equal(reduced, results[0])
            assert np.array_equal(reduced, np.array([math.fsum(column) for column in zip(*everything)]))

    @pytest.mark.parametrize("world_size", [1, 2, 4])
    def test_exact_allreduce_does_not_depend_on_rank_count(self, world_size):
        # the same twelve gradient partials, dealt round-robin over 1, 2
        # and 4 ranks, reduce to the same correctly-rounded sum
        partials = [np.random.default_rng(k).normal(size=5) * 10.0 ** (k % 7 - 3) for k in range(12)]

        def program(ctx: RankContext):
            return HorovodContext(ctx).allreduce_exact(partials[ctx.rank :: world_size])

        expected = np.array([math.fsum(column) for column in zip(*partials)])
        for reduced in run_spmd(program, world_size):
            assert np.array_equal(reduced, expected)

    def test_surface_is_the_two_trainer_collectives(self):
        public = {name for name in dir(HorovodContext) if not name.startswith("_")}
        assert public == {"broadcast_parameters", "allreduce_exact"}

    def test_broadcast_parameters_from_non_zero_root(self):
        def program(ctx: RankContext):
            model = Linear(3, 2, rng=ctx.rank)  # different weights on every rank
            HorovodContext(ctx).broadcast_parameters(model, root_rank=2)
            return model.state_dict()

        states = run_spmd(program, 3)
        root_state = Linear(3, 2, rng=2).state_dict()
        assert not np.array_equal(Linear(3, 2, rng=0).weight.data, root_state["weight"])
        for state in states:
            assert sorted(state) == sorted(root_state)
            for key, value in root_state.items():
                assert np.array_equal(state[key], value)


class TestThreadSpmd:
    """``run_spmd`` over thread ranks: the one execution path of SPMD jobs."""

    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_allgather_and_exact_allreduce_at_every_size(self, size):
        def program(ctx: RankContext):
            assert ctx.size == size
            return ctx.allgather(ctx.rank * 10), ctx.allreduce_exact([np.array([ctx.rank, 0.5])])

        results = run_spmd(program, size)
        assert len(results) == size
        for gathered, reduced in results:
            assert gathered == [rank * 10 for rank in range(size)]
            assert np.array_equal(reduced, np.array([size * (size - 1) / 2, 0.5 * size]))

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_from_every_root(self, root):
        results = run_spmd(lambda ctx: ctx.bcast(("from", ctx.rank), root=root), 3)
        assert results == [("from", root)] * 3

    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_size_is_rejected(self, size):
        with pytest.raises(ValueError, match="communicator size must be positive"):
            run_spmd(lambda ctx: ctx.rank, size)

    def test_rank_exception_propagates_out_of_run_spmd(self):
        def program(ctx: RankContext):
            if ctx.rank == 2:
                raise KeyError("rank 2 failed")
            return ctx.rank

        with pytest.raises(KeyError, match="rank 2 failed"):
            run_spmd(program, 4)

    def test_raising_rank_fails_fast_past_peers_in_a_collective(self):
        # rank 0 blocks in the allgather rank 1 never reaches: the raise
        # aborts the barrier, so neither the 30 s barrier timeout nor
        # rank 0's BrokenBarrierError is what the caller sees
        def program(ctx: RankContext):
            if ctx.rank == 1:
                raise ValueError("rank 1 failed")
            return ctx.allgather(ctx.rank)

        started = time.perf_counter()
        with pytest.raises(ValueError, match="rank 1 failed"):
            run_spmd(program, 2, barrier_timeout=30)
        assert time.perf_counter() - started < 5.0

    @pytest.mark.parametrize(
        "collective",
        [
            lambda ctx: ctx.bcast("payload", root=0),
            lambda ctx: ctx.allgather(ctx.rank),
            lambda ctx: ctx.allreduce_exact([np.ones(2)]),
        ],
        ids=["bcast", "allgather", "allreduce_exact"],
    )
    def test_raising_root_wakes_peers_in_every_collective(self, collective):
        # the root raises before a collective its peers are blocked in:
        # none of them may wait out the 30 s barrier timeout
        def program(ctx: RankContext):
            if ctx.rank == 0:
                time.sleep(0.05)
                raise ValueError("root failed")
            return collective(ctx)

        started = time.perf_counter()
        with pytest.raises(ValueError, match="root failed"):
            run_spmd(program, 3, barrier_timeout=30)
        assert time.perf_counter() - started < 5.0

    def test_lowest_raising_rank_wins_when_several_raise(self):
        # rank 3 raises first and trips FIRST_EXCEPTION; rank 1 raises
        # later, and it is still rank 1's exception the caller sees
        def program(ctx: RankContext):
            if ctx.rank == 1:
                time.sleep(0.1)
                raise KeyError("rank 1 failed")
            if ctx.rank == 3:
                raise ValueError("rank 3 failed")
            return ctx.rank

        with pytest.raises(KeyError, match="rank 1 failed"):
            run_spmd(program, 4, barrier_timeout=30)

    def test_raised_error_is_the_rank_exception_not_a_peer_broken_barrier(self):
        # peers 0 and 2 break out of the allgather with BrokenBarrierError;
        # the error that propagates is rank 1's own, traceback and all
        def program(ctx: RankContext):
            if ctx.rank == 1:
                raise LookupError("rank 1 lost its shard")
            return ctx.allgather(ctx.rank)

        with pytest.raises(LookupError) as info:
            run_spmd(program, 3, barrier_timeout=30)
        assert not isinstance(info.value, threading.BrokenBarrierError)
        assert info.value.__traceback__ is not None

    def test_run_after_a_failed_run_starts_on_a_fresh_communicator(self):
        def failing(ctx: RankContext):
            if ctx.rank == 0:
                raise ValueError("first run failed")
            return ctx.allgather(ctx.rank)

        with pytest.raises(ValueError, match="first run failed"):
            run_spmd(failing, 2, barrier_timeout=30)
        assert run_spmd(lambda ctx: ctx.allgather(ctx.rank), 2, barrier_timeout=30) == [[0, 1], [0, 1]]

    def test_single_rank_runs_on_its_own_thread(self):
        # one path for every size: a 1-rank job is a thread rank too
        results = run_spmd(lambda ctx: (threading.get_ident(), ctx.size, ctx.allgather("only")), 1)
        ident, size, gathered = results[0]
        assert ident != threading.get_ident()
        assert (size, gathered) == (1, ["only"])

    def test_results_follow_rank_order_not_completion_order(self):
        def program(ctx: RankContext):
            time.sleep(0.02 * (ctx.size - ctx.rank))
            return f"rank-{ctx.rank}"

        assert run_spmd(program, 4) == ["rank-0", "rank-1", "rank-2", "rank-3"]

    def test_exact_allreduce_without_partials_fails_on_every_rank(self):
        def program(ctx: RankContext):
            with pytest.raises(CollectiveError, match="collective 'allreduce-exact:exact' failed") as info:
                ctx.allreduce_exact([])
            assert "at least one array" in str(info.value.__cause__)
            return ctx.allreduce_exact([np.ones(2)] if ctx.rank == 0 else [])

        for reduced in run_spmd(program, 3):
            assert np.array_equal(reduced, np.ones(2))


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
        assert 4.5 <= single.total_minutes / 60 <= 6.0
        assert 90 <= single.poses_per_second <= 130
        peak = model.peak_estimate()
        assert peak.poses_per_second > 100 * single.poses_per_second
        assert peak.compounds_per_hour > 1e6

    def test_speedups(self):
        model = FusionThroughputModel()
        assert 2.0 <= model.speedup_vs_vina() <= 3.5
        assert model.speedup_vs_mmgbsa() >= 300
        costs = ScorerCostModel()
        assert costs.mmgbsa_poses_per_second_per_node < costs.vina_poses_per_second_per_node

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


class TestH5Store:
    def test_write_read_groups(self):
        store = H5Store()
        store.write("dock/protease1/job0/fusion_pk", np.arange(4.0))
        store.write("dock/protease1/job0/compound_ids", np.array(["a", "b", "c", "d"]))
        store.write_attr("dock/protease1/job0", "startup", 20.0)
        assert "dock/protease1/job0/fusion_pk" in store
        assert store.groups("dock") == ["protease1"]
        assert store.attrs("dock/protease1/job0")["startup"] == 20.0
        assert store.groups("dock/protease1") == ["job0"] and len(store) == 2
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
            return ctx.allgather(ctx.rank)

        started = time.perf_counter()
        with pytest.raises(threading.BrokenBarrierError):
            run_spmd(program, 2, barrier_timeout=0.2)
        assert time.perf_counter() - started < 10.0
