"""The fault-injection harness and the recovery machinery it exercises.

Two layers.  First, :mod:`repro.faults` itself: spec validation, JSON
round-trips, the exactly-N cross-process firing tokens, activation
precedence, and each action's behavior.  Second (marked ``chaos``), the
:class:`~repro.engine.pool.WorkerPool` recovery paths the harness
exists to prove: a worker SIGKILLed mid-task, a hung worker caught by
the task deadline, a disk-full spill -- every one recovered with output,
counters and metrics byte-identical to a clean sequential run -- plus
the bounded-attempts ceiling, the per-job give-up (whole-group re-run in
process) with a pool that heals by itself afterwards, and the
orphan-scratch reaper.
"""

import errno
import multiprocessing
import os
import pickle
import time
from dataclasses import replace

import pytest

from repro import JobConf, Mapper, Reducer, faults
from repro.engine import ExecutionEngine
from repro.engine.pool import RetryPolicy
from repro.engine.service import reap_orphan_scratch
from repro.exceptions import (
    JobConfigError,
    JobExecutionError,
    TransientTaskError,
)
from repro.faults import Fault, FaultPlan, fault_point
from repro.mapreduce import (
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    shuffle,
)
from tests.conftest import metrics_without_wall


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("user", "mapped")
        ctx.emit(value % 7, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.increment("user", "reduced")
        ctx.emit(key, sum(values))


def in_memory_conf(n=400, **overrides):
    defaults = dict(
        name="mod-sum",
        mapper=ModMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i * 3) for i in range(n)])],
        num_reducers=3,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


def assert_identical(par, seq):
    assert par.outputs == seq.outputs
    assert metrics_without_wall(par) == metrics_without_wall(seq)
    assert par.counters.to_dict() == seq.counters.to_dict()


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.clear_plan()


@pytest.fixture
def engine():
    eng = ExecutionEngine(max_workers=2, reap_scratch=False)
    yield eng
    eng.shutdown()


def runner(engine, **policy):
    return ParallelJobRunner(num_workers=2, engine=engine,
                             retry_policy=RetryPolicy(**policy))


# -- the harness itself -------------------------------------------------------


class TestFaultSpecs:
    def test_unknown_action_rejected(self):
        with pytest.raises(JobConfigError, match="unknown fault action"):
            Fault("pool.map_task", "explode")

    def test_times_must_be_positive(self):
        with pytest.raises(JobConfigError, match="times"):
            Fault("pool.map_task", "kill", times=0)

    def test_match_is_subset_equality(self):
        fault = Fault("p", "transient", match={"task_index": 2, "attempt": 0})
        assert fault.matches({"task_index": 2, "attempt": 0, "job": "x"})
        assert not fault.matches({"task_index": 2, "attempt": 1})
        assert not fault.matches({})
        assert Fault("p", "transient").matches({"anything": "goes"})

    def test_plan_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [Fault("pool.map_task", "kill", match={"task_index": 1}),
             Fault("shuffle.spill", "disk_full", times=2)],
            token_dir=str(tmp_path), owner_pid=1234,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert [f.to_dict() for f in clone.faults] == \
            [f.to_dict() for f in plan.faults]
        assert clone.token_dir == plan.token_dir
        assert clone.owner_pid == 1234

    def test_token_claims_are_exactly_n(self, tmp_path):
        plan = FaultPlan([Fault("p", "transient", times=2)],
                         token_dir=str(tmp_path))
        assert plan.claim(0)
        assert plan.claim(0)
        assert not plan.claim(0)
        assert plan.fired(0) == 2
        # A second plan over the same token dir sees the spent tokens --
        # the cross-process property the worker retries rely on.
        other = FaultPlan.from_json(plan.to_json())
        assert not other.claim(0)
        assert other.fired(0) == 2

    def test_local_counts_without_token_dir(self):
        plan = FaultPlan([Fault("p", "transient", times=1)])
        assert plan.claim(0)
        assert not plan.claim(0)
        assert plan.fired(0) == 1

    def test_pickling_resets_local_counts_only(self, tmp_path):
        plan = FaultPlan([Fault("p", "transient", times=1)])
        assert plan.claim(0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fired(0) == 0  # per-process by design
        durable = FaultPlan([Fault("p", "transient")],
                            token_dir=str(tmp_path))
        assert durable.claim(0)
        assert pickle.loads(pickle.dumps(durable)).fired(0) == 1


class TestActivation:
    def test_no_plan_is_a_no_op(self):
        assert fault_point("pool.map_task", task_index=0) is None

    def test_install_precedes_env(self, monkeypatch):
        env_plan = FaultPlan([Fault("a", "transient")], owner_pid=1)
        monkeypatch.setenv(faults.ENV_VAR, env_plan.to_json())
        assert faults.current_plan().faults[0].point == "a"
        installed = FaultPlan([Fault("b", "transient")])
        faults.install_plan(installed)
        assert faults.current_plan() is installed
        faults.clear_plan()
        assert faults.current_plan().faults[0].point == "a"

    def test_activate_nests_and_restores(self):
        outer = FaultPlan([Fault("a", "transient")])
        inner = FaultPlan([Fault("b", "transient")])
        faults.install_plan(outer)
        with faults.activate(inner):
            assert faults.current_plan() is inner
            with faults.activate(None):  # None = no-op, not a clear
                assert faults.current_plan() is inner
        assert faults.current_plan() is outer

    def test_transient_action_raises_at_matching_point_only(self):
        faults.install_plan(FaultPlan(
            [Fault("here", "transient", match={"k": 1})], owner_pid=1,
        ))
        assert fault_point("elsewhere", k=1) is None
        assert fault_point("here", k=2) is None
        with pytest.raises(TransientTaskError, match="injected transient"):
            fault_point("here", k=1)
        assert fault_point("here", k=1) is None  # times=1: spent

    def test_disk_full_and_io_error_errnos(self):
        faults.install_plan(FaultPlan(
            [Fault("a", "disk_full"), Fault("b", "io_error")], owner_pid=1,
        ))
        with pytest.raises(OSError) as full:
            fault_point("a")
        assert full.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as io:
            fault_point("b")
        assert io.value.errno == errno.EIO

    def test_torn_write_truncates_then_raises(self, tmp_path):
        victim = tmp_path / "victim.json"
        victim.write_bytes(b"x" * 100)
        faults.install_plan(FaultPlan(
            [Fault("catalog.write", "torn_write")], owner_pid=1,
        ))
        with pytest.raises(OSError):
            fault_point("catalog.write", path=str(victim))
        assert victim.read_bytes() == b"x" * 50

    def test_caller_actions_returned_not_performed(self):
        faults.install_plan(FaultPlan(
            [Fault("service.send_frame", "drop_frame")], owner_pid=1,
        ))
        fault = fault_point("service.send_frame")
        assert fault is not None and fault.action == "drop_frame"

    def test_kill_never_fires_in_owner_process(self, tmp_path):
        # The owner-pid guard must skip *before* claiming, so the firing
        # stays available to a real worker.
        plan = FaultPlan([Fault("pool.map_task", "kill")],
                         token_dir=str(tmp_path))
        faults.install_plan(plan)
        assert fault_point("pool.map_task", task_index=0) is None
        assert plan.fired(0) == 0


class TestEnvKnobs:
    def test_retry_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_POOL_REBUILDS", "1")
        policy = RetryPolicy.from_env()
        assert policy.max_task_attempts == 5
        assert policy.task_timeout == 7.5
        assert policy.max_pool_rebuilds == 1

    def test_runner_defaults_to_the_env_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_ATTEMPTS", "5")
        assert ParallelJobRunner(num_workers=2).retry_policy == \
            RetryPolicy(max_task_attempts=5)

    def test_explicit_policy_overlays_the_env_with_replace(self, monkeypatch):
        # The one spelling: a RetryPolicy.  Overlaying the environment's
        # defaults is dataclasses.replace, not a second set of kwargs.
        monkeypatch.setenv("REPRO_TASK_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_POOL_REBUILDS", "1")
        policy = replace(RetryPolicy.from_env(), max_task_attempts=2,
                         task_timeout=3.0)
        r = ParallelJobRunner(num_workers=2, retry_policy=policy)
        assert r.retry_policy is policy
        assert (policy.max_task_attempts, policy.task_timeout,
                policy.max_pool_rebuilds) == (2, 3.0, 1)

    def test_policy_clamps_hold_for_every_constructor(self, monkeypatch):
        assert RetryPolicy(max_task_attempts=0).max_task_attempts == 1
        assert RetryPolicy(max_pool_rebuilds=-3).max_pool_rebuilds == 0
        assert replace(RetryPolicy(), max_task_attempts=-1) \
            .max_task_attempts == 1
        monkeypatch.setenv("REPRO_TASK_ATTEMPTS", "0.5")
        assert RetryPolicy.from_env().max_task_attempts == 1

    def test_quarantined_attempt_paths_never_collide(self, tmp_path):
        base = shuffle.run_path(str(tmp_path), "map", 3, 1)
        retry = shuffle.run_path(str(tmp_path), "map", 3, 1, attempt=2)
        assert base != retry
        assert retry.endswith("-a2.run")
        # attempt 0 keeps the legacy name: fault-free spills unchanged
        assert base == shuffle.run_path(str(tmp_path), "map", 3, 1, attempt=0)


# -- crash recovery -----------------------------------------------------------


@pytest.mark.chaos
class TestCrashRecovery:
    """Injected failures; byte-identical results are the acceptance bar."""

    def test_map_task_kill_recovers_byte_identical(self, engine, tmp_path):
        plan = FaultPlan(
            [Fault("pool.map_task", "kill",
                   match={"task_index": 2, "attempt": 0})],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        par = runner(engine).run(in_memory_conf())
        seq = LocalJobRunner().run(in_memory_conf())
        assert_identical(par, seq)
        assert plan.fired(0) == 1
        stats = engine.pool.stats()
        assert stats["tasks_retried"] >= 1
        assert stats["pool_rebuilds"] >= 1
        assert stats["jobs_degraded"] == 0

    def test_reduce_task_kill_recovers(self, engine, tmp_path):
        plan = FaultPlan(
            [Fault("pool.reduce_task", "kill",
                   match={"partition": 1, "attempt": 0})],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        par = runner(engine).run(in_memory_conf())
        assert_identical(par, LocalJobRunner().run(in_memory_conf()))
        assert plan.fired(0) == 1

    def test_worker_killed_mid_spill(self, engine, tmp_path):
        # SIGKILL inside the run writer: the attempt's partial run file is
        # quarantined by the attempt-suffixed path and the retry
        # re-spills; output, counters and metrics match a clean run.
        plan = FaultPlan(
            [Fault("shuffle.spill", "kill")], token_dir=str(tmp_path)
        )
        faults.install_plan(plan)
        par = runner(engine).run(in_memory_conf())
        assert_identical(par, LocalJobRunner().run(in_memory_conf()))
        assert plan.fired(0) == 1
        assert engine.pool.stats()["pool_rebuilds"] >= 1
        # Recovered jobs account spill bytes like clean ones (successful
        # attempts only).
        faults.clear_plan()
        clean = runner(engine).run(in_memory_conf())
        assert par.metrics.shuffle_bytes_spilled == \
            clean.metrics.shuffle_bytes_spilled > 0
        assert par.metrics.shuffle_bytes_merged == \
            clean.metrics.shuffle_bytes_merged > 0

    def test_hung_worker_killed_at_deadline(self, engine, tmp_path):
        plan = FaultPlan(
            [Fault("pool.map_task", "hang", seconds=60.0,
                   match={"task_index": 1, "attempt": 0})],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        par = runner(engine, task_timeout=1.5).run(in_memory_conf())
        assert_identical(par, LocalJobRunner().run(in_memory_conf()))
        assert plan.fired(0) == 1
        assert engine.pool.stats()["tasks_timed_out"] >= 1

    def test_disk_full_spill_retried_without_rebuild(self, engine, tmp_path):
        # A failed spill raises in the worker without killing it: the
        # task retries on the live pool, no respawn needed.
        plan = FaultPlan(
            [Fault("shuffle.spill", "disk_full", times=2)],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        par = runner(engine).run(in_memory_conf())
        assert_identical(par, LocalJobRunner().run(in_memory_conf()))
        assert plan.fired(0) == 2
        stats = engine.pool.stats()
        assert stats["tasks_retried"] >= 2
        assert stats["pool_rebuilds"] == 0

    def test_attempts_exhausted_surfaces_transient_error(self, engine,
                                                         tmp_path):
        # Same task transient-faulted as many times as the attempt
        # budget: recovery gives up, and the failure is typed as
        # infrastructure (TransientTaskError) for job-level retries.
        plan = FaultPlan(
            [Fault("pool.map_task", "transient",
                   match={"task_index": 0}, times=5)],
            token_dir=str(tmp_path),
        )
        faults.install_plan(plan)
        with pytest.raises(TransientTaskError, match="after 3 attempt"):
            runner(engine, max_task_attempts=3).run(in_memory_conf())

    def test_recovery_disabled_fails_fast(self, engine, tmp_path):
        faults.install_plan(FaultPlan(
            [Fault("pool.map_task", "kill", match={"task_index": 0})],
            token_dir=str(tmp_path),
        ))
        with pytest.raises(TransientTaskError, match="lost a worker"):
            runner(engine, enabled=False).run(in_memory_conf())

    def test_repeated_kills_rerun_the_group_in_process(self, engine,
                                                       tmp_path):
        # Every pooled attempt dies; past the rebuild budget the pool
        # gives up and the whole group is re-run by the sequential
        # dispatcher -- slower, never wrong.
        faults.install_plan(FaultPlan(
            [Fault("pool.map_task", "kill", times=10)],
            token_dir=str(tmp_path),
        ))
        par = runner(engine).run(in_memory_conf())
        assert_identical(par, LocalJobRunner().run(in_memory_conf()))
        stats = engine.pool.stats()
        assert stats["jobs_degraded"] == 1
        assert stats["pool_rebuilds"] == RetryPolicy().max_pool_rebuilds + 1

    def test_pool_heals_after_consecutive_broken_jobs(self, engine,
                                                      tmp_path):
        # Three consecutive jobs each lose a worker (the count at which
        # the old cross-job ring declared the pool unhealthy and routed
        # every later job inline, forever).  The bound is per job now:
        # the next clean job goes to the pool, with no reset hook.
        seq = LocalJobRunner().run(in_memory_conf())
        for i in range(3):
            plan = FaultPlan(
                [Fault("pool.map_task", "kill",
                       match={"task_index": 0, "attempt": 0})],
                token_dir=str(tmp_path / f"job{i}"),
            )
            faults.install_plan(plan)
            assert_identical(runner(engine).run(in_memory_conf()), seq)
            assert plan.fired(0) == 1
        faults.clear_plan()
        before = engine.pool.stats()
        assert before["pool_rebuilds"] >= 3
        assert_identical(runner(engine).run(in_memory_conf()), seq)
        after = engine.pool.stats()
        assert after["jobs_pooled"] == before["jobs_pooled"] + 1
        assert after["jobs_inline"] == before["jobs_inline"]
        assert after["jobs_degraded"] == 0


# -- the orphan-scratch reaper ------------------------------------------------


def _dead_pid():
    """A pid that certainly existed and certainly exited."""
    proc = multiprocessing.get_context("fork").Process(target=lambda: None)
    proc.start()
    pid = proc.pid
    proc.join()
    return pid


class TestOrphanReaper:
    def test_reaps_only_old_dirs_of_dead_owners(self, tmp_path):
        dead = _dead_pid()
        old = tmp_path / f"manimal-shuffle-{dead}-abc"
        young = tmp_path / f"manimal-session-{dead}-def"
        mine = tmp_path / f"manimal-shuffle-{os.getpid()}-ghi"
        unrelated = tmp_path / "someone-elses-tmpdir"
        for d in (old, young, mine, unrelated):
            d.mkdir()
            (d / "leftover.run").write_bytes(b"x")
        stale = time.time() - 3600
        os.utime(old, (stale, stale))
        os.utime(unrelated, (stale, stale))

        removed = reap_orphan_scratch(base_dir=str(tmp_path), min_age=300.0)

        assert removed == [str(old)]
        assert not old.exists()
        assert young.exists()    # too young: pid-reuse guard
        assert mine.exists()     # creator alive (it's us)
        assert unrelated.exists()  # name doesn't match the scratch stamp

    def test_engine_startup_reaps(self, tmp_path, monkeypatch):
        import tempfile as tempfile_mod

        monkeypatch.setattr(tempfile_mod, "tempdir", str(tmp_path))
        orphan = tmp_path / f"manimal-shuffle-{_dead_pid()}-leak"
        orphan.mkdir()
        stale = time.time() - 3600
        os.utime(orphan, (stale, stale))
        eng = ExecutionEngine(max_workers=1)
        try:
            assert str(orphan) in eng.reaped_scratch
            assert not orphan.exists()
        finally:
            eng.shutdown()

    def test_reaper_survives_missing_base(self, tmp_path):
        assert reap_orphan_scratch(base_dir=str(tmp_path / "nope")) == []
