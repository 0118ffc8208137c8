"""The :class:`ExecutionEngine`: one execution service behind every submit.

A Manimal deployment is a long-lived service (the paper's analyzer
"examines newly-submitted code" as it arrives; the optimizer consults a
persistent catalog; the fabric runs job after job).  The engine is the
process-local embodiment of that service: it owns the persistent
:class:`~repro.engine.pool.WorkerPool` and the analyzer/planner caches,
so that every :class:`~repro.core.manimal.Manimal` (and every fluent
``Session``) reuses one set of machinery instead of rebuilding it per
call.

By default all systems share the process-wide engine from
:func:`get_engine`; pass ``engine=ExecutionEngine()`` to ``Manimal`` or
``Session`` for an isolated one (benchmarks do, to compare cold-start
against reuse).
"""

from __future__ import annotations

import atexit
import os
import re
import shutil
import tempfile
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.engine.cache import (
    MemoCache,
    analysis_fingerprint,
    udf_fingerprint,
)
from repro.engine.pool import WorkerPool
from repro.storage.columnar import column_cache_stats

#: Attribute stashed on cached JobAnalysis objects so the plan cache can
#: reuse the already-computed fingerprint (hint-provided analyses lack
#: it and plan uncached).
_FP_ATTR = "_engine_fingerprint"

#: Scratch directories this package creates, stamped with the creating
#: pid: ``manimal-shuffle-<pid>-...`` spill dirs and
#: ``manimal-session-<pid>-...`` session workdirs.
_SCRATCH_RE = re.compile(r"^manimal-(?:shuffle|session)-(\d+)-")

#: A scratch dir whose creator is dead is reaped only once it is also
#: older than this, guarding against pid reuse racing a fresh dir.
_SCRATCH_MIN_AGE = 300.0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists, just not ours
    return True


def reap_orphan_scratch(base_dir: Optional[str] = None,
                        min_age: float = _SCRATCH_MIN_AGE) -> List[str]:
    """Delete scratch dirs whose creating process died without cleanup.

    A crashed run (worker kill, SIGKILL mid-job, power loss) leaks its
    spill/session directory under the system temp dir; a long-lived
    service accumulating those would eventually fill the disk.  On engine
    startup we scan ``base_dir`` (default: ``tempfile.gettempdir()``) for
    pid-stamped scratch dirs and remove each whose pid is no longer alive
    *and* whose mtime is older than ``min_age`` seconds -- the age check
    keeps a just-created dir safe even if its pid number was recycled.
    Returns the removed paths (for tests and logs); reaping is
    best-effort and never raises.
    """
    base = base_dir or tempfile.gettempdir()
    removed: List[str] = []
    try:
        entries = os.listdir(base)
    except OSError:
        return removed
    now = time.time()
    for name in entries:
        match = _SCRATCH_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(base, name)
        try:
            if now - os.path.getmtime(path) < min_age:
                continue
            shutil.rmtree(path, ignore_errors=True)
        except OSError:
            continue
        if not os.path.exists(path):
            removed.append(path)
    return removed


class ExecutionEngine:
    """Shared execution machinery: the worker pool and the caches."""

    def __init__(self, max_workers: Optional[int] = None,
                 analysis_cache_size: int = 256,
                 plan_cache_size: int = 256,
                 reap_scratch: bool = True):
        self.pool = WorkerPool(max_workers)
        #: orphan scratch dirs removed at startup (see reap_orphan_scratch)
        self.reaped_scratch: List[str] = []
        if reap_scratch:
            self.reaped_scratch = reap_orphan_scratch()
        self.analysis_cache = MemoCache(maxsize=analysis_cache_size)
        self.plan_cache = MemoCache(maxsize=plan_cache_size)
        # Re-entrant: shutdown() may be reached again from inside a
        # shutdown already in progress (server drain + atexit hook).
        self._lock = threading.RLock()
        self._shutting_down = False

    # -- cached analysis ------------------------------------------------------

    def analyze(self, analyzer: Any, conf: Any) -> Any:
        """Memoized ``analyzer.analyze_job(conf)``.

        Keyed by the code-object fingerprint of the job's mappers and
        reducer, the folded instance members, the knowledge-base version,
        and each input's :func:`~repro.storage.input_identity` (see
        :mod:`repro.engine.cache`).  Unfingerprintable jobs run straight
        through the analyzer, uncached.
        """
        fp = analysis_fingerprint(analyzer, conf)
        if fp is None:
            return analyzer.analyze_job(conf)
        cached = self.analysis_cache.get(fp)
        if cached is not None:
            if cached.job_name != conf.name:
                # Analyses are name-agnostic; fix up the label only.
                cached = replace(cached, job_name=conf.name)
                setattr(cached, _FP_ATTR, fp)
            return cached
        analysis = analyzer.analyze_job(conf)
        setattr(analysis, _FP_ATTR, fp)
        self.analysis_cache.put(fp, analysis)
        return analysis

    def analyze_udf(self, kb: Any, fn: Callable, arity: int) -> Any:
        """Memoized :func:`~repro.core.analyzer.udf.analyze_udf`.

        Shares the analysis cache: a fluent query is lowered once per
        builder call and once per run, and a service sees the same UDF
        shapes over and over, so a repeated shape must cost a lookup.
        Keyed by :func:`~repro.engine.cache.udf_fingerprint`;
        unfingerprintable callables are analyzed every time.
        """
        # The analyzer imports the fabric this package sits under.
        from repro.core.analyzer.udf import analyze_udf

        fp = udf_fingerprint(kb, fn, arity)
        if fp is None:
            return analyze_udf(fn, arity, kb)
        verdict = self.analysis_cache.get(fp)
        if verdict is None:
            verdict = analyze_udf(fn, arity, kb)
            self.analysis_cache.put(fp, verdict)
        return verdict

    # -- cached planning ------------------------------------------------------

    def plan(self, optimizer: Any, conf: Any, analysis: Any) -> Any:
        """Memoized ``optimizer.plan(conf, analysis)``.

        Applicability of catalog indexes to a program depends only on the
        analysis (which already embeds each source file's
        :func:`~repro.storage.input_identity`, the same identity the
        planner admits index entries by) and the catalog contents, so
        the key is the analysis fingerprint plus the catalog's *instance
        token* (unique per Catalog object -- systems on different
        catalogs, or on different views of one directory, never alias)
        and its *generation* -- a
        counter bumped on register/remove/evict but not on LRU touches.
        Cache hits still record index usage (``catalog.touch_many``),
        keeping eviction accounting identical to uncached planning; the
        catalog holds that usage in memory until its next registry write
        (at once under a space budget), so a hit does no file I/O.
        Analyses without a fingerprint (hint-provided, or
        unfingerprintable jobs) plan uncached.
        """
        fp = getattr(analysis, _FP_ATTR, None)
        catalog = optimizer.catalog
        generation = getattr(catalog, "generation", None)
        token = getattr(catalog, "instance_token", None)
        if fp is None or generation is None or token is None:
            return optimizer.plan(conf, analysis)
        key = (
            fp, type(optimizer).__qualname__, token, generation,
            conf.num_reducers, conf.parallelism,
        )
        cached = self.plan_cache.get(key)
        if cached is not None:
            used = [
                plan.entry.index_id for plan in cached.plans
                if plan.entry is not None
            ]
            if used:
                catalog.touch_many(used)
            if cached.job_name != conf.name:
                cached = replace(cached, job_name=conf.name)
            return cached
        descriptor = optimizer.plan(conf, analysis)
        self.plan_cache.put(key, descriptor)
        return descriptor

    # -- lifecycle ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The pool's counters, the analysis and plan caches', and this
        process's decoded-column cache's (pool workers keep their own)."""
        return {
            "pool": self.pool.stats(),
            "analysis_cache": self.analysis_cache.stats(),
            "plan_cache": self.plan_cache.stats(),
            "column_cache": column_cache_stats(),
        }

    def clear_caches(self) -> None:
        self.analysis_cache.clear()
        self.plan_cache.clear()

    def shutdown(self) -> None:
        """Release the worker processes.

        Idempotent and re-entrant: the engine is shut down from several
        independent paths -- a query server's drain, the ``atexit`` hook
        registered by :func:`get_engine`, explicit benchmark teardown --
        and those paths can overlap (atexit firing while a drain is mid
        shutdown).  A call that finds another shutdown already in
        progress returns immediately instead of deadlocking or
        double-releasing; a call that finds everything already released
        is a no-op.  The engine stays usable afterwards: the worker pool
        is rebuilt lazily on the next job.
        """
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        try:
            self.pool.shutdown()
        finally:
            with self._lock:
                self._shutting_down = False


# -- the process-wide shared engine ------------------------------------------

_DEFAULT_ENGINE: Optional[ExecutionEngine] = None
_DEFAULT_LOCK = threading.Lock()


def get_engine() -> ExecutionEngine:
    """The process-wide engine every system shares by default."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = ExecutionEngine()
            atexit.register(_DEFAULT_ENGINE.shutdown)
        return _DEFAULT_ENGINE


def set_engine(engine: Optional[ExecutionEngine]) -> None:
    """Replace the shared engine (tests; pass None to reset lazily)."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        _DEFAULT_ENGINE = engine
