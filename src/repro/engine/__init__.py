"""The engine layer: one reusable execution service behind every submit.

Before this package existed, each layer of the system paid its own setup
cost on every call: :class:`~repro.mapreduce.parallel.ParallelJobRunner`
built and tore down a process pool per job and the analyzer re-walked
identical mapper bytecode on each submission.  The engine centralizes that
machinery so it is paid once and reused:

* :class:`~repro.engine.service.ExecutionEngine` -- the facade a
  :class:`~repro.core.manimal.Manimal` (and therefore every ``Session``)
  acquires; owns the pieces below and exposes cached ``analyze``/``plan``;
* :class:`~repro.engine.pool.WorkerPool` -- a persistent, fork-aware
  worker-process pool shared by all parallel jobs of one engine;
* :mod:`repro.engine.cache` -- fingerprint-keyed memoization of analyzer
  results and catalog applicability (planning) decisions.

``get_engine()`` returns the process-wide shared engine; construct
:class:`ExecutionEngine` directly for an isolated one (benchmarks do, to
measure cold-start against reuse).
"""

from repro.engine.pool import WorkerPool, default_worker_count
from repro.engine.service import ExecutionEngine, get_engine, set_engine

__all__ = [
    "ExecutionEngine",
    "WorkerPool",
    "default_worker_count",
    "get_engine",
    "set_engine",
]
