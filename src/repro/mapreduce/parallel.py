"""Multi-worker job runner: process-parallel map/reduce, identical bytes.

:class:`ParallelJobRunner` executes the same map-shuffle-reduce sequence
as the sequential :class:`~repro.mapreduce.runtime.LocalJobRunner` --
both call the one job driver,
:func:`~repro.mapreduce.runtime.run_job_group` -- but hands the driver a
*dispatcher* that fans tasks out across worker processes.  Scheduling
lives in the engine's persistent :class:`~repro.engine.pool.WorkerPool`
(shared across jobs, so small repeated submissions stop paying a pool
fork+teardown each):

1. **map fan-out** -- every input split becomes a map task; each worker
   runs the shared :func:`~repro.mapreduce.runtime.execute_map_tasks`
   (one pass for every member of the job group), partitions each
   member's output with its hash partitioner, and spills sorted
   per-``(member, partition)`` runs to temporary files
   (:mod:`repro.mapreduce.shuffle`);
2. **reduce claim** -- each non-empty ``(member, partition)`` is
   submitted as a task; whichever worker claims it k-way merges the
   partition's runs (in map-task order, stable) and runs the shared
   :func:`~repro.mapreduce.runtime.execute_reduce_partition` over the
   merged stream;
3. **deterministic rollup** -- the dispatcher hands worker metric/counter
   deltas back in task order and reduce outputs in partition order, and
   the driver folds them exactly as it folds the sequential
   dispatcher's, so each :class:`~repro.mapreduce.job.JobResult` --
   output pairs, their order, counters, and every volume metric except
   ``wall_seconds`` -- is byte-identical to a sequential run.

Picklable jobs ride the engine's long-lived pool; jobs whose state
cannot pickle (closures, fluent stages that call user code, exotic
split payloads) fall back to a per-job pool whose workers fork *after* the
job state is published, inheriting it through fork memory -- so those
keep working unchanged.  See :mod:`repro.engine.pool` for the two pool
paths.

A group that would not fan out -- fork is unavailable, one worker was
requested, or its widest phase is a single task
(:func:`~repro.engine.pool.fan_out_width`) -- is not sent to the pool at
all: the dispatcher hands it to the sequential
:func:`~repro.mapreduce.runtime.run_tasks_in_process`, the same function
:class:`LocalJobRunner` dispatches with.  So does a group the pool gave
up on (it broke past ``RetryPolicy.max_pool_rebuilds``): the whole group
is re-run in process, identical bytes for redone work.

One semantic caveat, documented in ``docs/execution-model.md``: a mapper
*instance* that accumulates state across map tasks sees per-worker copies
here, not one shared object.  Mapper classes (fresh instance per task,
Hadoop semantics) behave identically under both runners.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.pool import (
    PoolGaveUp,
    RetryPolicy,
    WorkerPool,
    default_worker_count,
    fan_out_width,
)
from repro.exceptions import JobConfigError
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.runtime import (
    LocalJobRunner,
    MapDeltas,
    MapTask,
    ReduceRow,
    run_job_group,
    run_tasks_in_process,
)


class ParallelJobRunner:
    """Runs jobs across worker processes via a spill-based shuffle.

    Drop-in replacement for :class:`LocalJobRunner`: same ``run(conf)``
    contract, byte-identical outputs, truthful merged metrics.
    ``num_workers`` is the per-job worker cap; ``None`` or ``0`` means
    auto-detect (one worker per CPU --
    :func:`~repro.engine.pool.default_worker_count`).  Scheduling runs on
    the engine's shared persistent pool; pass ``engine`` to pin a
    specific :class:`~repro.engine.service.ExecutionEngine`.

    Fault tolerance is governed by a
    :class:`~repro.engine.pool.RetryPolicy`: by default
    (``RetryPolicy.from_env()``) the runner recovers crashed workers and
    retries transient task failures with bounded attempts; a policy's
    ``task_timeout`` adds a per-task deadline enforced by heartbeat
    progress checks.  Pass ``retry_policy`` to set your own
    (``dataclasses.replace(RetryPolicy.from_env(), ...)`` keeps the
    environment's defaults for the rest).  Recovery never changes
    results -- see ``docs/robustness.md``.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 splits_per_input: int = 10,
                 engine: Optional[Any] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        if num_workers is not None and num_workers < 0:
            raise JobConfigError("num_workers must be >= 0 (0 = auto)")
        #: worker process count; None/0 resolve to one per CPU
        self.num_workers = num_workers or default_worker_count()
        #: target number of splits (map tasks) per input source
        self.splits_per_input = splits_per_input
        self._engine = engine
        #: fault-recovery policy for every job this runner executes
        self.retry_policy = retry_policy or RetryPolicy.from_env()

    @property
    def _pool(self) -> WorkerPool:
        if self._engine is None:
            from repro.engine.service import get_engine

            self._engine = get_engine()
        return self._engine.pool

    def run(self, conf: JobConf) -> JobResult:
        return self.run_group([conf])[0]

    def run_group(self, confs: Sequence[JobConf]) -> List[JobResult]:
        """Run jobs sharing their inputs as one pass; one result each."""
        return run_job_group(confs, self._dispatch, self.splits_per_input)

    def _dispatch(
        self, confs: Sequence[JobConf], tasks: List[MapTask]
    ) -> Tuple[List[MapDeltas], List[ReduceRow]]:
        """Worker processes when the group fans out, else in process."""
        n_workers = fan_out_width(confs, tasks, self.num_workers)
        if n_workers > 1:
            try:
                return self._pool.run_group(
                    confs, tasks, n_workers, self.retry_policy
                )
            except PoolGaveUp:
                # Counted (``jobs_degraded``) where it was raised.  Tasks
                # are deterministic and nothing rolled up yet, so the
                # re-run below returns the bytes the pool would have.
                pass
        else:
            self._pool.bump("jobs_inline")
        return run_tasks_in_process(confs, tasks)


def resolve_runner(knob: Any = None, conf: Optional[JobConf] = None,
                   default: Any = None, engine: Optional[Any] = None) -> Any:
    """Turn a runner knob into a runner instance.

    The knob is accepted uniformly by :func:`~repro.mapreduce.run_job`,
    :meth:`Manimal.submit <repro.core.manimal.Manimal.submit>`,
    :meth:`ManimalPipeline.submit <repro.core.pipeline.ManimalPipeline.submit>`
    and the fluent ``Session``/``Dataset`` actions:

    * ``None``       -- honor ``conf.parallelism`` when set (>1 builds a
      :class:`ParallelJobRunner` with that many workers, 1 forces
      sequential execution, 0 auto-detects the CPU count), else
      ``default`` (ultimately the sequential shared runner);
    * ``int`` *n*    -- *n* workers (1 = sequential, 0 = auto-detect);
    * ``"local"`` / ``"parallel"`` -- runner by name;
    * an object with ``run(conf)`` -- returned unchanged.

    ``engine`` pins any runner *constructed here* to a specific
    :class:`~repro.engine.service.ExecutionEngine` (its worker pool,
    health ledger and retry counters) instead of the process-wide one --
    a system created over a private engine must not run its jobs, or
    charge its failures, on the global pool.  Pre-built runner instances
    (``default`` or a runner knob) are returned as configured.
    """
    if knob is None:
        if conf is not None and conf.parallelism is not None:
            # parallelism=1 is an explicit request for sequential
            # execution, overriding even a parallel default runner.
            if conf.parallelism == 1:
                return LocalJobRunner()
            return ParallelJobRunner(num_workers=conf.parallelism,
                                     engine=engine)
        if default is not None:
            return default
        from repro.mapreduce.runtime import DEFAULT_RUNNER

        return DEFAULT_RUNNER
    if isinstance(knob, bool):
        raise JobConfigError(f"invalid runner knob {knob!r}")
    if isinstance(knob, int):
        if knob < 0:
            raise JobConfigError("parallelism must be >= 0 (0 = auto)")
        return ParallelJobRunner(num_workers=knob, engine=engine) \
            if knob != 1 else LocalJobRunner()
    if isinstance(knob, str):
        if knob == "local":
            return LocalJobRunner()
        if knob == "parallel":
            return ParallelJobRunner(engine=engine)
        raise JobConfigError(
            f"unknown runner {knob!r}; expected 'local' or 'parallel'"
        )
    if hasattr(knob, "run"):
        return knob
    raise JobConfigError(
        f"invalid runner knob {knob!r}; pass a worker count, 'local', "
        "'parallel', or a runner instance"
    )
