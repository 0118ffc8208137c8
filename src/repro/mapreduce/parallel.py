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
keep working unchanged.  Where fork is unavailable the runner degrades
to running its tasks inline (still through the spill-based shuffle, so
results are unchanged).  See :mod:`repro.engine.pool` for the three
paths.

One semantic caveat, documented in ``docs/execution-model.md``: a mapper
*instance* that accumulates state across map tasks sees per-worker copies
here, not one shared object.  Mapper classes (fresh instance per task,
Hadoop semantics) behave identically under both runners.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import replace
from operator import itemgetter
from typing import Any, List, Optional, Sequence, Tuple

from repro import faults
from repro.engine.pool import (
    RetryPolicy,
    WorkerPool,
    _JobState,
    default_worker_count,
)
from repro.exceptions import JobConfigError
from repro.mapreduce import shuffle
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.runtime import (
    LocalJobRunner,
    MapDeltas,
    MapTask,
    ReduceRow,
    run_job_group,
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
    :class:`~repro.engine.pool.RetryPolicy`: by default the runner
    recovers crashed workers and retries transient task failures
    (bounded attempts, environment-overridable); ``task_timeout`` adds a
    per-task deadline enforced by heartbeat progress checks.  Pass
    ``retry_policy`` to override wholesale, or the individual knobs to
    tweak the env-derived defaults.  Recovery never changes results --
    see ``docs/robustness.md``.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 splits_per_input: int = 10,
                 engine: Optional[Any] = None,
                 task_timeout: Optional[float] = None,
                 max_task_attempts: Optional[int] = None,
                 max_pool_rebuilds: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        if num_workers is not None and num_workers < 0:
            raise JobConfigError("num_workers must be >= 0 (0 = auto)")
        #: worker process count; None/0 resolve to one per CPU
        self.num_workers = num_workers or default_worker_count()
        #: target number of splits (map tasks) per input source
        self.splits_per_input = splits_per_input
        self._engine = engine
        # Overrides land on a copy: the caller's policy object may be
        # shared with other runners.
        overrides = {}
        if task_timeout is not None:
            overrides["task_timeout"] = task_timeout
        if max_task_attempts is not None:
            overrides["max_task_attempts"] = max(1, max_task_attempts)
        if max_pool_rebuilds is not None:
            overrides["max_pool_rebuilds"] = max(0, max_pool_rebuilds)
        #: fault-recovery policy for every job this runner executes
        self.retry_policy = replace(
            retry_policy or RetryPolicy.from_env(), **overrides
        )

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
        """The pool dispatcher: worker processes, spill-based shuffle."""
        # Runtime import: repro.batch imports repro.mapreduce (job,
        # formats, runtime), which would cycle back through this module
        # at import time.
        from repro.batch import shuffleblocks

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
            # Same submit-time capture for the typed-shuffle decision.
            shuffle_specs=[shuffleblocks.active_spec(c) for c in confs],
        )
        try:
            map_results, reduce_results = self._pool.run_job(
                state, self.num_workers, policy=self.retry_policy
            )
            # Completion order is the pool's business; task order and
            # (member, partition) order are the driver's contract.
            map_results.sort(key=itemgetter(0))
            reduce_results.sort(key=itemgetter(0, 1))
            return (
                [deltas for _index, _runs, deltas in map_results],
                [
                    (member, part, shuffle.read_run(out_path), metrics,
                     counters)
                    for member, part, out_path, metrics, counters
                    in reduce_results
                ],
            )
        finally:
            shutil.rmtree(spill_dir, ignore_errors=True)


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
