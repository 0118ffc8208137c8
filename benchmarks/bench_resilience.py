#!/usr/bin/env python
"""Tracked resilience benchmark: recovery cost and fault-free overhead.

Companion to ``bench_parallel_runner.py`` (raw speedup) and
``bench_engine.py`` (pool reuse): this harness guards the *fault
tolerance* layer added to the worker pool -- crash recovery, task
deadlines, and the fault-injection switchboard of :mod:`repro.faults`.
Tracked in ``BENCH_resilience.json`` at the repository root; CI runs it
at a reduced scale.

Workloads:

* **fault_free_overhead** -- the same pooled job A/B'd with recovery
  enabled (heartbeats + retry bookkeeping) and disabled
  (``RetryPolicy(enabled=False)``, the pre-recovery fail-fast fabric).
  The acceptance gate (``--max-overhead``, tracked at <5%) bounds what
  the machinery costs a job that never fails -- recovery must be
  effectively free until the moment it is needed.  Min-of-repeats on
  both arms keeps the comparison noise-resistant.
* **recovery_wall** -- a clean parallel run versus the same job
  surviving one injected worker SIGKILL *and* one injected hang cut
  short by the task deadline.  Reports the recovery premium in wall
  seconds; the gate is correctness, not speed: the faulted run's
  outputs, counters and metrics (minus wall) must be byte-identical to
  the sequential reference.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py          # full run
    PYTHONPATH=src python benchmarks/bench_resilience.py --scale 0.4 \
        --max-overhead 0.25                                       # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

from repro import JobConf, Mapper, Reducer, faults
from repro.engine import ExecutionEngine
from repro.engine.pool import RetryPolicy
from repro.faults import Fault, FaultPlan
from repro.mapreduce import InMemoryInput, LocalJobRunner, ParallelJobRunner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_resilience.json")

#: Baseline shape at --scale 1.0.
BASE_SIZES = {
    "records": 60_000,
    "repeats": 5,
}

#: Injected hangs are cut short by this per-task deadline (seconds).
TASK_TIMEOUT = 1.0


class RollupMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("bench", "mapped")
        ctx.emit(value % 101, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def make_job(records: int) -> JobConf:
    return JobConf(
        name="resilience-rollup",
        mapper=RollupMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i * 7) for i in range(records)])],
        num_reducers=4,
    )


def _wall(runner: Any, job: JobConf):
    start = time.perf_counter()
    result = runner.run(job)
    return time.perf_counter() - start, result


def _metrics_without_wall(result: Any) -> Dict[str, Any]:
    d = result.metrics.to_dict()
    # Scheduling-path observables: the sequential reference shuffles
    # through memory, so wall clocks and physical spill bytes exist only
    # on the parallel side of the comparison.
    for name in ("wall_seconds", "shuffle_bytes_spilled",
                 "shuffle_bytes_merged"):
        d.pop(name)
    return d


def _assert_identical(got: Any, want: Any, label: str) -> None:
    assert got.outputs == want.outputs, f"{label}: outputs diverged"
    assert _metrics_without_wall(got) == _metrics_without_wall(want), (
        f"{label}: metrics diverged"
    )
    assert got.counters.to_dict() == want.counters.to_dict(), (
        f"{label}: counters diverged"
    )


# -- workload 1: fault-free overhead ------------------------------------------


def bench_fault_free_overhead(engine: ExecutionEngine, job: JobConf,
                              reference: Any, repeats: int) -> Dict[str, Any]:
    """A/B the recovery machinery on a job that never fails."""
    runner_on = ParallelJobRunner(num_workers=2, engine=engine,
                                  retry_policy=RetryPolicy())
    runner_off = ParallelJobRunner(num_workers=2, engine=engine,
                                   retry_policy=RetryPolicy(enabled=False))
    # Warm both arms: pool spin-up and job-state caching out of the bill.
    runner_off.run(job)
    runner_on.run(job)

    walls: Dict[str, list] = {"enabled": [], "disabled": []}
    for _ in range(repeats):
        for label, runner in (("disabled", runner_off),
                              ("enabled", runner_on)):
            wall, result = _wall(runner, job)
            _assert_identical(result, reference,
                              f"fault-free ({label})")
            walls[label].append(wall)

    best_on = min(walls["enabled"])
    best_off = min(walls["disabled"])
    overhead = best_on / best_off - 1.0
    return {
        "repeats": repeats,
        "enabled_wall_seconds": [round(w, 4) for w in walls["enabled"]],
        "disabled_wall_seconds": [round(w, 4) for w in walls["disabled"]],
        "best_enabled_seconds": round(best_on, 4),
        "best_disabled_seconds": round(best_off, 4),
        "overhead_fraction": round(overhead, 4),
        "byte_identical": True,  # _assert_identical would have raised
    }


# -- workload 2: recovery wall-clock ------------------------------------------


def bench_recovery_wall(engine: ExecutionEngine, job: JobConf,
                        reference: Any, workdir: str) -> Dict[str, Any]:
    """One SIGKILLed worker + one hung worker versus a clean run."""
    runner = ParallelJobRunner(
        num_workers=2, engine=engine,
        retry_policy=replace(RetryPolicy.from_env(),
                             task_timeout=TASK_TIMEOUT),
    )
    clean_wall, clean = _wall(runner, job)
    _assert_identical(clean, reference, "recovery (clean run)")

    stats_before = engine.pool.stats()
    plan = FaultPlan(
        [
            Fault("pool.map_task", "kill",
                  match={"task_index": 0, "attempt": 0}),
            Fault("pool.map_task", "hang", seconds=60.0,
                  match={"task_index": 1, "attempt": 0}),
        ],
        token_dir=os.path.join(workdir, "fault-tokens"),
    )
    faults.install_plan(plan)
    try:
        faulted_wall, faulted = _wall(runner, job)
    finally:
        faults.clear_plan()
    _assert_identical(faulted, reference, "recovery (faulted run)")
    assert plan.fired(0) == 1, "the worker kill never fired"
    stats_after = engine.pool.stats()

    return {
        "clean_wall_seconds": round(clean_wall, 4),
        "faulted_wall_seconds": round(faulted_wall, 4),
        "recovery_premium_seconds": round(faulted_wall - clean_wall, 4),
        "task_timeout_seconds": TASK_TIMEOUT,
        "kills_fired": plan.fired(0),
        "hangs_fired": plan.fired(1),
        "tasks_retried": (stats_after["tasks_retried"]
                          - stats_before["tasks_retried"]),
        "tasks_timed_out": (stats_after["tasks_timed_out"]
                            - stats_before["tasks_timed_out"]),
        "pool_rebuilds": (stats_after["pool_rebuilds"]
                          - stats_before["pool_rebuilds"]),
        "byte_identical": True,
    }


# -- harness -----------------------------------------------------------------


def run_suite(scale: float) -> Dict[str, Any]:
    records = max(2_000, int(BASE_SIZES["records"] * scale))
    repeats = max(2, int(BASE_SIZES["repeats"] * scale))
    report: Dict[str, Any] = {
        "benchmark": "resilience",
        "scale": scale,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    job = make_job(records)
    reference = LocalJobRunner().run(job)
    engine = ExecutionEngine(max_workers=2, reap_scratch=False)
    try:
        with tempfile.TemporaryDirectory(
                prefix="bench-resilience-") as workdir:
            report["workloads"]["fault_free_overhead"] = (
                bench_fault_free_overhead(engine, job, reference, repeats)
            )
            report["workloads"]["recovery_wall"] = (
                bench_recovery_wall(engine, job, reference, workdir)
            )
    finally:
        engine.shutdown()

    overhead = report["workloads"]["fault_free_overhead"]
    recovery = report["workloads"]["recovery_wall"]
    report["summary"] = {
        "fault_free_overhead_fraction": overhead["overhead_fraction"],
        "recovery_premium_seconds": recovery["recovery_premium_seconds"],
        "faults_survived": recovery["kills_fired"] + recovery["hangs_fired"],
        "byte_identical": (overhead["byte_identical"]
                           and recovery["byte_identical"]),
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = tracked baseline)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if the fault-free overhead fraction "
                             "exceeds this (tracked at 0.05)")
    args = parser.parse_args(argv)

    report = run_suite(args.scale)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    summary = report["summary"]
    print(f"wrote {args.output}")
    print(f"  fault-free overhead    "
          f"{summary['fault_free_overhead_fraction'] * 100:.2f}%")
    print(f"  recovery premium       "
          f"{summary['recovery_premium_seconds']}s")
    print(f"  faults survived        {summary['faults_survived']}")
    print(f"  byte identical         {summary['byte_identical']}")

    if args.max_overhead is not None:
        failures = []
        overhead = summary["fault_free_overhead_fraction"]
        if overhead > args.max_overhead:
            failures.append(
                f"fault-free overhead {overhead:.4f} exceeds "
                f"{args.max_overhead}"
            )
        if not summary["byte_identical"]:
            failures.append("recovered outputs were not byte-identical")
        if summary["faults_survived"] < 2:
            failures.append("injected faults did not all fire")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"OK: fault-free overhead {overhead:.4f} <= "
              f"{args.max_overhead}, recovery byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
