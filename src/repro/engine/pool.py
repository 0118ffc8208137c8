"""Persistent, fork-aware worker pool with task-level fault recovery.

The pre-engine :class:`~repro.mapreduce.parallel.ParallelJobRunner`
constructed a ``ProcessPoolExecutor`` inside every ``run(conf)`` call and
tore it down at the end -- forking (and joining) a fresh set of workers
per job, which dominates the cost of small jobs.  This module moves the
pool behind the engine so workers are forked once and reused.  It only
ever does pools -- two paths that differ in how a worker finds its
:class:`_JobState` (and in their :class:`_PoolRef`), on one worker entry
(:func:`_run_task`):

* **pooled path** -- when the job state pickles, it is spilled once to
  ``<spill_dir>/jobstate.pkl`` and tasks are dispatched to the engine's
  long-lived pool with a ``(state file, job token)`` reference; each
  worker loads and caches the state per job, so the per-job cost is one
  pickle load per worker instead of a fork+teardown of the whole pool;
* **forked path** -- unpicklable jobs (closures, fluent stages that
  call a user-supplied callable, in-memory splits holding exotic
  objects) fall back to the original per-job pool whose workers *fork
  after* the job state is published in :data:`_JOB_STATE`, inheriting it
  through fork memory.

A group that would not fan out at all -- no fork support (e.g. Windows)
or an effective worker count of 1, see :func:`fan_out_width` -- never
comes here: the runner hands it to the sequential dispatcher,
:func:`~repro.mapreduce.runtime.run_tasks_in_process`, which is the only
code that executes tasks in the submitting process.

The unit of work is a **job group** -- N >= 1 jobs over one scan of
their shared inputs, a solo job being a group of one (see
:func:`~repro.mapreduce.runtime.run_job_group`): each map task runs once
for the whole group and spills one run per ``(member, partition)`` in
the one run format of :mod:`repro.mapreduce.shuffle`; each reduce task
merges and reduces one ``(member, partition)``.  Both paths execute
the shared :func:`~repro.mapreduce.runtime.execute_map_tasks` /
:func:`~repro.mapreduce.runtime.execute_reduce_partition` bodies and
produce byte-identical results; only scheduling differs.  In-flight
tasks on the shared pool are throttled to the job's requested worker
count, so ``parallelism=2`` keeps meaning "at most 2 of my tasks at
once" even when the engine pool is wider.

Fault tolerance (see ``docs/robustness.md``).  MapReduce's core promise
is that deterministic tasks can be transparently re-executed when
workers die, and this pool keeps it:

* **crash recovery** -- a worker lost mid-task (OOM kill, hard crash, an
  injected ``kill`` fault) breaks the ``ProcessPoolExecutor``; the pool
  is respawned and the unfinished tasks re-dispatched.  Attempts are
  charged per task (bounded by :class:`RetryPolicy.max_task_attempts`)
  using heartbeat files to tell *started* tasks -- which may have died
  with the worker -- from merely queued ones, which are requeued free;
* **quarantined spill output** -- every attempt writes its spill runs
  under attempt-suffixed names (:func:`~repro.mapreduce.shuffle.run_path`),
  so a killed attempt's partial files can never alias -- or be read in
  place of -- the retry's output.  Only paths returned by *successful*
  attempts reach the reduce phase;
* **deadlines** -- with :class:`RetryPolicy.task_timeout` set, a monitor
  checks each in-flight task's heartbeat; a task with no progress past
  the deadline gets its workers killed and is re-dispatched like a
  crash (charged an attempt, so a deterministic hang cannot loop);
* **bounded rebuilds** -- a pool that breaks more than
  :class:`RetryPolicy.max_pool_rebuilds` times within one job gives up
  on it (:class:`PoolGaveUp`); the runner re-runs the *whole group*
  through the sequential dispatcher -- redone work, identical bytes.
  The bound is per job, so the next job starts on a fresh pool: a pool
  that had a bad minute heals by itself;
* **transient task errors** -- tasks failing with
  :class:`~repro.exceptions.TransientTaskError` (disk-full spills,
  injected chaos) are re-dispatched with the same attempt bound;
  ordinary user-code failures (:class:`JobExecutionError`) stay fatal
  on first occurrence -- deterministic code that raised once will raise
  again.

Because each task contributes exactly one successful result and results
roll up by task index, recovery never changes output bytes, counters or
volume metrics -- a job that lost three workers returns exactly the
bytes of a clean sequential run.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.exceptions import JobExecutionError, TransientTaskError
from repro.mapreduce import shuffle
from repro.mapreduce.job import JobConf
from repro.mapreduce.runtime import (
    MapDeltas,
    MapTask,
    ReduceRow,
    execute_map_tasks,
    execute_reduce_partition,
)


def default_worker_count() -> int:
    """The documented default for ``parallelism=0`` / auto worker counts.

    One worker per CPU (``os.cpu_count()``; 2 when undetectable).  On a
    single-CPU host auto therefore resolves to 1 worker, which runs in
    process -- auto never oversubscribes the machine.
    """
    return os.cpu_count() or 2


#: Fork shares job state by memory inheritance; detected once per process
#: (the engine routes every runner through this single decision).
_FORK_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def fan_out_width(confs: Sequence[JobConf], tasks: Sequence[MapTask],
                  num_workers: int) -> int:
    """Worker processes one group would occupy; 1 = it does not fan out.

    Sized for the wider phase: a job with one unsplittable input can
    still fan its reduce partitions out across workers.  A width of 1
    (one task per phase, one requested worker, or a host without fork)
    means worker processes buy nothing, and the runner dispatches the
    group with :func:`~repro.mapreduce.runtime.run_tasks_in_process`
    instead of coming to the pool.
    """
    if _FORK_CONTEXT is None:
        return 1
    widest_phase = max(
        1, len(tasks), sum(conf.num_reducers for conf in confs)
    )
    return min(num_workers, widest_phase)


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class RetryPolicy:
    """How hard one job tries to survive worker failures.

    The defaults (environment-overridable) give every parallel job crash
    recovery with bounded attempts and no deadline; tests and services
    tighten them per runner.  ``enabled=False`` restores the pre-recovery
    semantics -- first worker loss fails the job -- and is the off arm of
    the ``resilience_fault_free_overhead`` gate row, which prices the
    machinery.
    """

    #: master switch; False = fail the job on the first worker loss.
    enabled: bool = True
    #: total dispatches one task may consume before the job fails.
    max_task_attempts: int = 3
    #: seconds a *started* task may run without finishing before its
    #: workers are killed and it is re-dispatched; None = no deadline.
    task_timeout: Optional[float] = None
    #: pool respawns tolerated within one job before the pool gives up
    #: and the whole group is re-run in process.
    max_pool_rebuilds: int = 2
    #: monitor wake-up interval while tasks are in flight.
    monitor_interval: float = 0.05

    def __post_init__(self) -> None:
        # Every task gets at least one dispatch; a negative rebuild
        # budget means the same as none.
        self.max_task_attempts = max(1, int(self.max_task_attempts))
        self.max_pool_rebuilds = max(0, int(self.max_pool_rebuilds))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Defaults, overridden by ``REPRO_TASK_ATTEMPTS`` /
        ``REPRO_TASK_TIMEOUT`` / ``REPRO_POOL_REBUILDS`` when set."""
        fields: Dict[str, Any] = {
            "task_timeout": _env_float("REPRO_TASK_TIMEOUT"),
        }
        attempts = _env_float("REPRO_TASK_ATTEMPTS")
        if attempts is not None:
            fields["max_task_attempts"] = attempts
        rebuilds = _env_float("REPRO_POOL_REBUILDS")
        if rebuilds is not None:
            fields["max_pool_rebuilds"] = rebuilds
        return cls(**fields)


@dataclass
class _JobState:
    """Per-run state workers reach through a state file or fork memory."""

    #: the job group's members (a solo job is a group of one)
    confs: List[JobConf]
    #: the group's map tasks, in deterministic enumeration order
    tasks: List[MapTask]
    spill_dir: str
    #: fault-injection plan captured at submit time; travels to workers
    #: with the state so chaos tests hold over both scheduling paths.
    faults: Optional[faults.FaultPlan]
    #: workers write per-task heartbeat files (the crash/deadline
    #: monitor's progress signal); off when recovery is disabled.
    heartbeats: bool

    @property
    def name(self) -> str:
        """The group's label in errors and fault contexts."""
        return "+".join(conf.name for conf in self.confs)


# -- heartbeats ---------------------------------------------------------------


def heartbeat_path(spill_dir: str, phase: str, label: str,
                   attempt: int) -> str:
    """The progress-marker file one task attempt touches at start."""
    return os.path.join(spill_dir, f"hb-{phase}-{label}-a{attempt}")


def _reduce_label(member: int, partition: int) -> str:
    """A reduce task's name in heartbeat files and error messages."""
    return f"{member}.{partition}"


def _touch_heartbeat(state: _JobState, phase: str, label: str,
                     attempt: int) -> None:
    if not state.heartbeats:
        return
    try:
        with open(heartbeat_path(state.spill_dir, phase, label, attempt),
                  "wb"):
            pass
    except OSError:
        pass  # heartbeat loss degrades monitoring, never the task


# -- shared task bodies ------------------------------------------------------


def run_map_task(
    state: _JobState, task_index: int, attempt: int
) -> Tuple[int, Dict[Tuple[int, int], str], List[Tuple[Any, Any]]]:
    """Run map task ``task_index`` once for the whole group and spill.

    Returns ``(task_index, runs, deltas)``: the spilled run path per
    non-empty ``(member, partition)`` and each member's ``(metrics,
    counters)``.  Reducing members spill *decorated* sorted runs --
    ``(sort_key, key, value)`` rows decorated from the task's key and
    value columns, ordered by one index-permutation sort
    (:func:`~repro.mapreduce.shuffle.sort_decorated_run`) -- so the
    sort key computed here is the one the merge heap and the reducer's
    grouping reuse.  Map-only members spill plain pairs (their output is
    never sorted).

    ``attempt`` namespaces this execution's heartbeat and spill files:
    a retried task writes fresh run files instead of racing a killed
    sibling's partial output (quarantine), and the returned run paths
    are the only ones the reduce phase ever reads.
    """
    tags, split = state.tasks[task_index]
    _touch_heartbeat(state, "map", str(task_index), attempt)
    with faults.activate(state.faults):
        faults.fault_point(
            "pool.map_task", task_index=task_index, attempt=attempt,
            job=state.name,
        )
        results = execute_map_tasks(state.confs, tags, split)
        runs: Dict[Tuple[int, int], str] = {}
        for member, task in enumerate(results):
            reducing = state.confs[member].reducer is not None
            spilled_bytes = 0
            for part, (keys, values) in enumerate(task.columns):
                if not keys:
                    continue
                path = shuffle.run_path(state.spill_dir, f"map{member}",
                                        task_index, part, attempt=attempt)
                rows = (shuffle.sort_decorated_run(
                    shuffle.decorate_columns(keys, values)) if reducing
                    else list(zip(keys, values)))
                runs[member, part] = shuffle.write_run(path, rows)
                spilled_bytes += os.path.getsize(path)
            task.metrics.shuffle_bytes_spilled += spilled_bytes
    return task_index, runs, [(t.metrics, t.counters) for t in results]


def run_reduce_task(
    state: _JobState, member: int, partition: int, run_paths: List[str],
    attempt: int,
) -> Tuple[int, int, str, Any, Any]:
    """Merge one member partition's runs, reduce them, spill the output.

    The merged stream is reduced a spill frame's worth of rows at a
    time, so the task holds one frame per run plus one chunk and the
    group still open.
    """
    conf = state.confs[member]
    _touch_heartbeat(
        state, "reduce", _reduce_label(member, partition), attempt
    )
    with faults.activate(state.faults):
        faults.fault_point(
            "pool.reduce_task", member=member, partition=partition,
            attempt=attempt, job=state.name,
        )
        merged_bytes = sum(os.path.getsize(p) for p in run_paths)
        if conf.reducer is not None:
            merged: Any = shuffle.merge_decorated_runs(run_paths)
            reduced = execute_reduce_partition(
                conf, merged, presorted=True, decorated=True
            )
        else:
            merged = shuffle.merge_runs(run_paths, sorted_runs=False)
            reduced = execute_reduce_partition(conf, merged, presorted=True)
        reduced.metrics.shuffle_bytes_merged += merged_bytes
        out_path = shuffle.write_run(
            shuffle.run_path(state.spill_dir, "out", member, partition,
                             attempt=attempt),
            reduced.outputs,
        )
    return member, partition, out_path, reduced.metrics, reduced.counters


def partition_runs(
    map_results: Sequence[Tuple]
) -> List[Tuple[Tuple[int, int], List[str]]]:
    """Reduce-task inputs: (member, partition) -> run paths in map-task
    order."""
    by_partition: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
    for task_index, runs, _deltas in map_results:
        for key, path in runs.items():
            by_partition.setdefault(key, []).append((task_index, path))
    return [
        (key, [path for _i, path in sorted(entries)])
        for key, entries in sorted(by_partition.items())
    ]


# -- the worker entry: one function, two ways to find the job state ---------

#: Forked path: set by the submitting process immediately before workers
#: fork, cleared after the run; forked workers read it instead of
#: unpickling the job.
_JOB_STATE: Optional[_JobState] = None

#: Serializes the _JOB_STATE window across threads of one process.
_STATE_LOCK = threading.Lock()

#: Pooled path: worker-side cache of unpickled job states, keyed by job
#: token.  Small: concurrent jobs on one pool are rare, and states die
#: with their jobs.
_WORKER_STATES: Dict[str, _JobState] = {}
_WORKER_STATE_CAP = 4

#: How a worker finds its :class:`_JobState`: ``(state file, job token)``
#: on the pooled path, ``None`` (inherited :data:`_JOB_STATE`) on the
#: forked path.
StateRef = Optional[Tuple[str, str]]


def _load_state(state_path: str, token: str) -> _JobState:
    state = _WORKER_STATES.get(token)
    if state is None:
        with open(state_path, "rb") as f:
            state = pickle.load(f)
        while len(_WORKER_STATES) >= _WORKER_STATE_CAP:
            _WORKER_STATES.pop(next(iter(_WORKER_STATES)))
        _WORKER_STATES[token] = state
    return state


def _run_task(state_ref: StateRef, phase: str, args: Tuple, attempt: int):
    """The one worker entry: resolve the job state, run the task body."""
    if state_ref is None:
        state = _JOB_STATE
        assert state is not None, "worker has no inherited job state"
    else:
        state = _load_state(*state_ref)
    body = run_map_task if phase == "map" else run_reduce_task
    return body(state, *args, attempt)


# -- recovery plumbing --------------------------------------------------------


class PoolGaveUp(Exception):
    """The pool broke past ``max_pool_rebuilds`` within one group.

    Not a job failure: the runner catches it and re-runs the whole group
    with :func:`~repro.mapreduce.runtime.run_tasks_in_process`.
    """


@dataclass
class _Task:
    """One task's dispatch bookkeeping across attempts."""

    #: map task index, or a reduce task's (member, partition)
    key: Any
    phase: str
    #: the task's name in heartbeat files and error messages
    label: str
    #: the task body's arguments between the state and the attempt
    args: Tuple
    attempts: int = 0
    #: heartbeat path of the attempt currently in flight
    hb: Optional[str] = None

    def started(self) -> bool:
        """Did the in-flight attempt reach its task body?"""
        return self.hb is not None and os.path.exists(self.hb)

    def started_at(self) -> Optional[float]:
        if self.hb is None:
            return None
        try:
            return os.path.getmtime(self.hb)
        except OSError:
            return None


class _PoolRef:
    """One job's handle on an executor, with bounded respawning.

    Two concrete strategies subclass this: the shared persistent pool
    (checked out of the owning :class:`WorkerPool`) and the per-job
    forked pool.  ``broken`` gates submission between a failure being
    detected (or workers being killed on deadline) and the rebuild.
    """

    def __init__(self, owner: "WorkerPool", n_workers: int,
                 policy: RetryPolicy, state_ref: StateRef):
        self._owner = owner
        self._n_workers = n_workers
        self._policy = policy
        #: what this executor's workers are handed to find the job state
        self.state_ref = state_ref
        self._pool: Optional[ProcessPoolExecutor] = None
        self.rebuilds = 0
        self.broken = False

    def get(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._create()
            self.broken = False
        return self._pool

    def mark_broken(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            self._discard(pool)
        self.broken = True

    def rebuild(self) -> None:
        """Account one respawn; raises :class:`PoolGaveUp` past the
        policy bound (the *next* :meth:`get` forks the new workers)."""
        self.rebuilds += 1
        self._owner.bump("pool_rebuilds")
        if self.rebuilds > self._policy.max_pool_rebuilds:
            self._owner.bump("jobs_degraded")
            raise PoolGaveUp()
        self.broken = False

    def kill_workers(self) -> None:
        """SIGKILL the current executor's processes (deadline enforcement).

        ``ProcessPoolExecutor`` has no public per-task cancellation; the
        recovery loop treats the resulting broken pool exactly like a
        crash, so hung and dead workers share one code path.
        """
        pool = self._pool
        if pool is None:
            return
        self.broken = True
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 -- already-dead processes
                pass

    # -- strategy hooks -------------------------------------------------------

    def _create(self) -> ProcessPoolExecutor:
        raise NotImplementedError

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError


class _SharedPoolRef(_PoolRef):
    """Checkout of the engine's persistent pool for one job."""

    def _create(self) -> ProcessPoolExecutor:
        return self._owner._acquire_pool(self._n_workers)

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        self._owner._discard_pool(pool)
        self._owner._release_pool()

    def release(self) -> None:
        if self._pool is not None:
            self._owner._release_pool()
            self._pool = None


class _ForkedPoolRef(_PoolRef):
    """Per-job pool whose workers inherit :data:`_JOB_STATE` via fork."""

    def _create(self) -> ProcessPoolExecutor:
        # Workers fork lazily at first submit; the caller holds
        # _STATE_LOCK with _JOB_STATE published, so respawned workers
        # inherit the same job state as the originals.
        return ProcessPoolExecutor(
            max_workers=self._n_workers, mp_context=_FORK_CONTEXT
        )

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        pool.shutdown(wait=False)

    def release(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class WorkerPool:
    """A persistent process pool executing map/reduce tasks for many jobs.

    Owned by an :class:`~repro.engine.service.ExecutionEngine`; runners
    are thin strategies that call :meth:`run_group` for the groups that
    fan out.  The underlying ``ProcessPoolExecutor`` is created
    lazily on the first pooled job, sized ``max(max_workers, requested)``,
    and reused until :meth:`shutdown` (or process exit).  Thread-safe:
    concurrent jobs share the pool, each throttled to its own worker
    count.

    Worker crashes, hung tasks and transient task errors are recovered
    per task under the job's :class:`RetryPolicy` -- see the module
    docstring for the ladder.
    """

    def __init__(self, max_workers: Optional[int] = None):
        #: upper bound the persistent pool is first sized to; individual
        #: jobs may request fewer (throttled) or more (the pool grows
        #: when no other job is running on it)
        self.max_workers = max_workers or default_worker_count()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        #: jobs currently dispatching on self._pool; growth/replacement
        #: only happens at zero, so a pool is never shut down under a job
        self._active_jobs = 0
        #: re-entrant so overlapping shutdown paths (engine drain, atexit)
        #: can never deadlock against themselves
        self._lock = threading.RLock()
        self._token_seq = itertools.count()
        #: scheduling-path counters, exposed via ``stats()``;
        #: ``jobs_inline`` counts groups a parallel runner routed in
        #: process instead of here (see :func:`fan_out_width`)
        self.jobs_pooled = 0
        self.jobs_forked = 0
        self.jobs_inline = 0
        self.pools_created = 0
        #: recovery counters (never folded into JobMetrics: recovered
        #: jobs must report metrics identical to clean runs)
        self.tasks_retried = 0
        self.tasks_timed_out = 0
        self.pool_rebuilds = 0
        #: groups re-run in process after the pool gave up on them
        self.jobs_degraded = 0
        #: shuffle data-plane volume (successful attempts only): bytes
        #: of spill-run files written by map tasks / read back by
        #: reduce-side merges, across every job this pool executed
        self.shuffle_bytes_spilled = 0
        self.shuffle_bytes_merged = 0
        #: shared-scan savings across every group booked on this pool
        #: (see :mod:`repro.batch.multiscan`): groups run, member
        #: scans not performed, and the stored bytes those scans would
        #: have read
        self.shared_scan_groups = 0
        self.scans_saved = 0
        self.shared_bytes_saved = 0

    # -- lifecycle -----------------------------------------------------------

    def _acquire_pool(self, n_workers: int) -> ProcessPoolExecutor:
        """Check out the shared pool for one job (``_release_pool`` after).

        Creates the pool on first use; an undersized pool is replaced
        only while no other job holds it -- a concurrent job simply runs
        on the current (narrower) pool rather than having it shut down
        mid-dispatch.
        """
        with self._lock:
            if self._pool is None or (
                self._pool_size < n_workers and self._active_jobs == 0
            ):
                old = self._pool
                size = max(n_workers, self.max_workers)
                self._pool = ProcessPoolExecutor(
                    max_workers=size, mp_context=_FORK_CONTEXT
                )
                self._pool_size = size
                self.pools_created += 1
                if old is not None:
                    old.shutdown(wait=False)
            self._active_jobs += 1
            return self._pool

    def _release_pool(self) -> None:
        with self._lock:
            self._active_jobs -= 1

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next job forks a fresh one.

        Identity-checked: if another job already replaced the shared
        pool, the (healthy) replacement is left untouched.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
                self._pool_size = 0
        pool.shutdown(wait=False)

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
                self._pool_size = 0

    def stats(self) -> Dict[str, int]:
        return {
            "jobs_pooled": self.jobs_pooled,
            "jobs_forked": self.jobs_forked,
            "jobs_inline": self.jobs_inline,
            "pools_created": self.pools_created,
            "tasks_retried": self.tasks_retried,
            "tasks_timed_out": self.tasks_timed_out,
            "pool_rebuilds": self.pool_rebuilds,
            "jobs_degraded": self.jobs_degraded,
            "shuffle_bytes_spilled": self.shuffle_bytes_spilled,
            "shuffle_bytes_merged": self.shuffle_bytes_merged,
            "shared_scan_groups": self.shared_scan_groups,
            "scans_saved": self.scans_saved,
            "shared_bytes_saved": self.shared_bytes_saved,
        }

    def bump(self, counter: str, by: int = 1) -> None:
        """Add to a ``stats()`` counter.

        Under the lock because jobs run on this pool from several
        threads at once (the query service's in-flight window) and
        ``+=`` on an attribute is not atomic.
        """
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def record_shared_scan(self, group_size: int, bytes_saved: int) -> None:
        """Account one completed shared scan group of ``group_size`` members."""
        with self._lock:
            self.shared_scan_groups += 1
            self.scans_saved += group_size - 1
            self.shared_bytes_saved += bytes_saved

    # -- job execution -------------------------------------------------------

    def run_group(
        self, confs: Sequence[JobConf], tasks: List[MapTask],
        n_workers: int, policy: RetryPolicy,
    ) -> Tuple[List[MapDeltas], List[ReduceRow]]:
        """The pool dispatcher: execute one job group's tasks on
        ``n_workers`` worker processes (its :func:`fan_out_width`, > 1)
        through a spill-based shuffle.

        A :data:`~repro.mapreduce.runtime.Dispatcher` but for the extra
        arguments: map deltas come back in task order and reduce rows in
        ``(member, partition)`` order, whatever order workers finished
        in.  Raises :class:`PoolGaveUp` when the pool broke past the
        policy's rebuild budget; the caller re-runs the group in process.
        """
        # The pid stamp lets the engine's orphan reaper attribute a
        # leftover spill dir to its (possibly dead) creating process.
        spill_dir = tempfile.mkdtemp(prefix=f"manimal-shuffle-{os.getpid()}-")
        state = _JobState(
            confs=list(confs),
            tasks=tasks,
            spill_dir=spill_dir,
            # Captured at submit time so the plan rides the pickled state
            # into long-lived pool workers (env-only propagation would
            # miss workers forked before the plan existed).
            faults=faults.current_plan(),
            heartbeats=policy.enabled,
        )
        try:
            blob = self._pickle_state(state)
            if blob is None:
                self.bump("jobs_forked")
                map_results, reduce_results = self._run_forked(
                    state, n_workers, policy
                )
            else:
                self.bump("jobs_pooled")
                map_results, reduce_results = self._run_pooled(
                    state, blob, n_workers, policy
                )
            # Completion order is the pool's business; task order and
            # (member, partition) order are the driver's contract.
            map_results.sort(key=itemgetter(0))
            reduce_results.sort(key=itemgetter(0, 1))
            map_deltas = [deltas for _index, _runs, deltas in map_results]
            reduce_rows = [
                (member, part, shuffle.read_run(out_path), metrics, counters)
                for member, part, out_path, metrics, counters
                in reduce_results
            ]
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)
        with self._lock:
            # Data-plane observability (only successful attempts report
            # results, so recovered jobs account like clean ones).
            for deltas in map_deltas:
                for metrics, _counters in deltas:
                    self.shuffle_bytes_spilled += metrics.shuffle_bytes_spilled
            for row in reduce_rows:
                self.shuffle_bytes_merged += row[3].shuffle_bytes_merged
        return map_deltas, reduce_rows

    @staticmethod
    def _pickle_state(state: _JobState) -> Optional[bytes]:
        try:
            return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Closures, fluent stages calling user code, exotic split
            # payloads: the forked path inherits them through fork memory.
            return None

    # -- forked path -----------------------------------------------------------

    def _run_forked(self, state: _JobState, n_workers: int,
                    policy: RetryPolicy) -> Tuple[List, List]:
        """Per-job pool; workers fork after the state is published."""
        global _JOB_STATE
        # The state lock serializes concurrent forked jobs in one process:
        # workers fork lazily at first submit, so a second job rebinding
        # _JOB_STATE mid-run would be inherited by the first job's
        # workers.  Each job still fans out internally; picklable jobs
        # take the pooled path and do not contend here.
        with _STATE_LOCK:
            ref = _ForkedPoolRef(self, n_workers, policy, state_ref=None)
            try:
                _JOB_STATE = state
                return self._run_phases(ref, state, n_workers, policy)
            finally:
                ref.release()
                _JOB_STATE = None

    # -- pooled path -----------------------------------------------------------

    def _run_pooled(self, state: _JobState, blob: bytes, n_workers: int,
                    policy: RetryPolicy) -> Tuple[List, List]:
        """Dispatch to the persistent pool via a spilled state file."""
        state_path = os.path.join(state.spill_dir, "jobstate.pkl")
        with open(state_path, "wb") as f:
            f.write(blob)
        token = f"{os.getpid()}-{next(self._token_seq)}"
        ref = _SharedPoolRef(self, n_workers, policy,
                             state_ref=(state_path, token))
        try:
            return self._run_phases(ref, state, n_workers, policy)
        finally:
            ref.release()

    # -- phase execution with recovery -----------------------------------------

    def _run_phases(self, ref: _PoolRef, state: _JobState, n_workers: int,
                    policy: RetryPolicy) -> Tuple[List, List]:
        """Both phases on ``ref``, wrapped into the job's error contract."""
        try:
            map_tasks = [
                _Task(key=i, phase="map", label=str(i), args=(i,))
                for i in range(len(state.tasks))
            ]
            map_results = list(self._execute_tasks(
                ref, map_tasks, n_workers, policy, state
            ).values())
            reduce_tasks = [
                _Task(
                    key=(member, part), phase="reduce",
                    label=_reduce_label(member, part),
                    args=(member, part, paths),
                )
                for (member, part), paths in partition_runs(map_results)
            ]
            reduce_results = list(self._execute_tasks(
                ref, reduce_tasks, n_workers, policy, state
            ).values())
        except (JobExecutionError, PoolGaveUp):
            # User-code failures keep their type, and giving up is not a
            # failure at all: the runner re-runs the group in process.
            raise
        except BrokenProcessPool as exc:
            # Recovery disabled: a worker died without a Python-level
            # traceback (OOM kill, hard crash).  Transient: the failure
            # is the infrastructure's, not the job's.
            raise TransientTaskError(
                f"parallel job {state.name!r} lost a worker "
                f"process: {exc}"
            ) from exc
        except Exception as exc:
            # A task failed with an ordinary error (e.g. disk full while
            # spilling): the job fails but the pool is healthy -- other
            # jobs keep running on it.
            raise JobExecutionError(
                f"parallel job {state.name!r} task failed: {exc}"
            ) from exc
        return map_results, reduce_results

    def _execute_tasks(self, ref: _PoolRef, tasks: List[_Task], limit: int,
                       policy: RetryPolicy,
                       state: _JobState) -> Dict[Any, Any]:
        """Run one phase's tasks on ``ref`` with crash/deadline recovery.

        The in-flight cap is what makes a job's worker count meaningful
        on a shared pool: two concurrent jobs with ``parallelism=2`` each
        occupy at most 2 workers apiece, regardless of pool width.

        Returns ``{task.key: result}`` with exactly one successful result
        per task -- however many attempts it took -- so the caller's
        deterministic rollup is untouched by recovery.  A fatal failure
        (user code, exhausted attempts) stops every task keyed after it
        -- queued ones are dropped, unstarted ones cancelled -- while
        the tasks keyed before it run on, since one of them may fail
        too; the phase then raises the lowest-keyed failure, the task
        the sequential runner would have failed on.  It raises only
        after this job's in-flight tasks are cancelled or drained, so a
        failed job never leaves orphan tasks running on the shared pool
        (or writing into a spill dir the runner is about to delete).
        """
        results: Dict[Any, Any] = {}
        queue = deque(tasks)
        inflight: Dict[Future, _Task] = {}
        #: the lowest-keyed fatal failure so far, as ``[(key, exception)]``
        failed: List[Tuple[Any, BaseException]] = []

        def submit_ready() -> None:
            while queue and len(inflight) < limit and not ref.broken:
                task = queue.popleft()
                attempt = task.attempts
                task.hb = heartbeat_path(
                    state.spill_dir, task.phase, task.label, attempt
                )
                task.attempts += 1
                try:
                    inflight[ref.get().submit(
                        _run_task, ref.state_ref, task.phase, task.args,
                        attempt,
                    )] = task
                except BrokenProcessPool:
                    # The pool died between jobs/batches; uncharge (the
                    # attempt never left this process) and recover below.
                    task.attempts -= 1
                    queue.appendleft(task)
                    ref.mark_broken()
                    return

        def stopped(task: _Task) -> bool:
            """Whether a failure keyed before ``task`` stopped it."""
            return bool(failed) and failed[0][0] < task.key

        def fail(task: _Task, exc: BaseException) -> None:
            if stopped(task):
                return
            failed[:] = [(task.key, exc)]
            kept = [other for other in queue if not stopped(other)]
            queue.clear()
            queue.extend(kept)
            for future, other in list(inflight.items()):
                if stopped(other) and future.cancel():
                    del inflight[future]

        def fail_fast(exc: BaseException) -> None:
            for future in inflight:
                future.cancel()
            drained, _ = wait(list(inflight), timeout=10.0)
            for future in drained:
                if not future.cancelled():
                    future.exception()  # retrieve, don't warn
            raise exc

        def requeue_after_break(task: _Task) -> None:
            if not task.started():
                # Never reached its task body: the crash was a sibling's.
                # Requeue free of charge.
                task.attempts -= 1
            elif not policy.enabled or (
                task.attempts >= policy.max_task_attempts
            ):
                fail(task, TransientTaskError(
                    f"{task.phase} task {task.label} of job "
                    f"{state.name!r} lost its worker after "
                    f"{task.attempts} attempt(s); giving up"
                ))
                return
            else:
                self.bump("tasks_retried")
            if not stopped(task):
                queue.append(task)

        submit_ready()
        while queue or inflight:
            if failed and not any(
                    other.key < failed[0][0]
                    for other in itertools.chain(queue, inflight.values())):
                fail_fast(failed[0][1])  # nothing keyed before it is left
            if ref.broken and not inflight:
                if not policy.enabled:
                    raise BrokenProcessPool("worker pool broke")
                # Past the rebuild budget this raises PoolGaveUp, with
                # nothing of this job left in flight.
                ref.rebuild()
                submit_ready()
                continue
            timeout = None
            if policy.task_timeout is not None or ref.broken:
                timeout = policy.monitor_interval
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            pool_broke = False
            for future in done:
                task = inflight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    pool_broke = True
                    requeue_after_break(task)
                    continue
                except TransientTaskError as exc:
                    if not policy.enabled or (
                        task.attempts >= policy.max_task_attempts
                    ):
                        fail(task, TransientTaskError(
                            f"{task.phase} task {task.label} of job "
                            f"{state.name!r} failed after "
                            f"{task.attempts} attempt(s): {exc}"
                        ))
                    elif not stopped(task):
                        self.bump("tasks_retried")
                        queue.append(task)
                    continue
                except BaseException as exc:  # noqa: BLE001 -- re-raised
                    fail(task, exc)
                    continue
                results[task.key] = result
                if task.hb is not None:
                    try:
                        os.remove(task.hb)
                    except OSError:
                        pass
            if pool_broke:
                # Every sibling still in flight is (about to be) broken
                # too; drain them all before respawning, so no orphan of
                # the dead pool outlives it.
                drained, _ = wait(list(inflight), timeout=10.0)
                for future in drained:
                    task = inflight.pop(future)
                    if not future.cancelled():
                        future.exception()
                    requeue_after_break(task)
                for future in list(inflight):
                    task = inflight.pop(future)
                    future.cancel()
                    requeue_after_break(task)
                ref.mark_broken()
                continue
            if (policy.task_timeout is not None and inflight
                    and not ref.broken):
                now = time.time()
                hung = [
                    task for task in inflight.values()
                    if task.started()
                    and now - (task.started_at() or now)
                    > policy.task_timeout
                ]
                if hung:
                    # No per-task kill exists on ProcessPoolExecutor;
                    # killing the workers converts the hang into the
                    # (recoverable) crash path above.  Only the hung
                    # tasks keep their attempt charge -- un-started
                    # siblings are refunded on requeue.
                    self.bump("tasks_timed_out", len(hung))
                    ref.kill_workers()
                    continue
            submit_ready()
        if failed:
            raise failed[0][1]
        return results
