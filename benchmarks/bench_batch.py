#!/usr/bin/env python
"""Tracked batch-execution benchmark: vectorized vs record-at-a-time.

Measures the fluent hot path served by :mod:`repro.batch` -- columnar
block decode, compiled predicate kernels, hash pre-aggregation --
against the same queries forced down the record path
(``Session(vectorize=False)``).  Both paths promise byte-identical
output; this harness asserts that on every run (sequential, parallel
and DAG schedulers) before it reports a single number, so the speedup
series in ``BENCH_batch.json`` can never drift away from correctness.

Workloads:

* **projection scan** -- selective filter + two-column projection over a
  wide 10-field table: the record path decodes 10 fields per row and
  allocates a record; the batch path decodes 3 columns block-at-a-time.
* **aggregation** -- filter + ``group_by`` with integer sum/min/max:
  eligible for hash pre-aggregation, so the batch path also collapses
  the shuffle to one partial per group per task.
* **udf translated** -- the projection scan with its predicate written
  as a plain ``lambda``: UDF translation proves it equal to the ``col()``
  spelling, so it must ride the kernels like one (every map task
  batched, same gate).
* **udf opaque control** -- the same scan with a predicate the analyzer
  cannot see into (it calls ``zlib.crc32``): must fall back to the
  record path (no batched task, speedup ~1.0 by construction; tracked so
  fallback overhead stays invisible).

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py                 # full run
    PYTHONPATH=src python benchmarks/bench_batch.py --scale 0.1 \
        --min-speedup 1.5                                           # CI smoke

Exit status is non-zero when ``--min-speedup`` is given and the *worst*
gated speedup falls below it, or the opaque control's speedup is not
~1.0 (it reaches the gate itself, or its inverse does).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
import zlib
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.api.expressions import col, lit
from repro.api.session import Session
from repro.service.payload import serialize_rows
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Field, FieldType, Record, Schema

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_batch.json")

#: Rows in the wide table at --scale 1.0.
BASE_ROWS = 50_000

#: The workloads the --min-speedup gate covers.
GATED_WORKLOADS = ("projection_scan", "aggregation_preagg",
                   "udf_translated")

#: The fallback control: must never batch, must stay ~1.0x.
CONTROL_WORKLOAD = "udf_opaque_control"

WIDE = Schema("WideRow", [
    Field("c0", FieldType.INT),
    Field("c1", FieldType.INT),
    Field("c2", FieldType.INT),
    Field("c3", FieldType.INT),
    Field("c4", FieldType.LONG),
    Field("c5", FieldType.LONG),
    Field("name", FieldType.STRING),
    Field("tag", FieldType.STRING),
    Field("score", FieldType.DOUBLE),
    Field("flag", FieldType.BOOL),
])
KEY = Schema("WideKey", [Field("id", FieldType.LONG)])


def generate_wide(path: str, n_rows: int, seed: int = 7) -> str:
    rng = random.Random(seed)
    with RecordFileWriter(path, KEY, WIDE, block_size=65536) as writer:
        for i in range(n_rows):
            writer.append(KEY.make(i), Record(WIDE, [
                rng.randrange(1000), rng.randrange(1000),
                rng.randrange(1000), rng.randrange(1000),
                rng.randrange(10**6), rng.randrange(10**6),
                f"name-{i}", f"t{i % 9}",
                rng.random() * 100.0, bool(i % 2),
            ]))
    return path


def projection_query(session: Session, path: str):
    return session.read(path).filter(col("c0") > lit(900)) \
        .select("name", "c0")


def aggregation_query(session: Session, path: str):
    return session.read(path).filter(col("c1") > lit(100)) \
        .group_by("c2").agg(total=("sum", "c3"), lo=("min", "c4"),
                            hi=("max", "c5"))


def udf_translated_query(session: Session, path: str):
    return session.read(path).filter(lambda v: v.c0 > 900) \
        .select("name", "c0")


def udf_opaque_query(session: Session, path: str):
    return session.read(path) \
        .filter(lambda v: zlib.crc32(v.name.encode()) % 10 == 0) \
        .select("name", "c0")


WORKLOADS: Dict[str, Callable[[Session, str], Any]] = {
    "projection_scan": projection_query,
    "aggregation_preagg": aggregation_query,
    "udf_translated": udf_translated_query,
    CONTROL_WORKLOAD: udf_opaque_query,
}


def _timed_run(session: Session, build, path: str, repeats: int,
               **run_kwargs) -> Tuple[Any, float]:
    """Best-of-N wall clock of the full run (lowering excluded via warmup)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = build(session, path).run(**run_kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def _stats(result, wall: float) -> Dict[str, Any]:
    metrics = [stage.outcome.result.metrics for stage in result.stages]
    return {
        "wall_seconds": round(wall, 4),
        "records_per_sec": (
            round(sum(m.map_input_records for m in metrics) / wall)
            if wall > 0 else None
        ),
        "map_input_records": sum(m.map_input_records for m in metrics),
        "fields_deserialized": sum(m.fields_deserialized for m in metrics),
        "shuffle_records": sum(m.shuffle_records for m in metrics),
        "batch_map_tasks": sum(m.batch_map_tasks for m in metrics),
        "map_tasks": sum(m.map_tasks for m in metrics),
    }


def run_workload(name: str, build, path: str, workdir: str,
                 repeats: int, expect_batch: bool) -> Dict[str, Any]:
    with Session(workdir=os.path.join(workdir, f"{name}-rec"),
                 vectorize=False) as record:
        record_result, record_wall = _timed_run(record, build, path, repeats)
        expected = serialize_rows(record_result.rows)
        if _stats(record_result, 1)["batch_map_tasks"]:
            raise AssertionError(f"{name}: reference session vectorized")
        if not record_result.rows:
            raise AssertionError(f"{name}: the query selects no row")

    with Session(workdir=os.path.join(workdir, f"{name}-vec")) as vect:
        batch_result, batch_wall = _timed_run(vect, build, path, repeats)
        if serialize_rows(batch_result.rows) != expected:
            raise AssertionError(f"{name}: batch output is not byte-identical")
        batch_stats = _stats(batch_result, 1)
        batch_tasks = batch_stats["batch_map_tasks"]
        if expect_batch and batch_tasks != batch_stats["map_tasks"]:
            raise AssertionError(
                f"{name}: only {batch_tasks} of {batch_stats['map_tasks']} "
                "map tasks took the batch path")
        if not expect_batch and batch_tasks:
            raise AssertionError(f"{name}: batch path engaged unexpectedly")

        # Determinism guard: the vectorized plan under the parallel and
        # DAG schedulers must reproduce the record path's bytes exactly.
        par = build(vect, path).run(parallelism=2)
        dag = build(vect, path).run(scheduler="dag")
        schedulers_identical = (
            serialize_rows(par.rows) == expected
            and serialize_rows(dag.rows) == expected
        )
        if not schedulers_identical:
            raise AssertionError(
                f"{name}: parallel/DAG output is not byte-identical"
            )

    speedup = record_wall / batch_wall if batch_wall > 0 else None
    return {
        "record_path": _stats(record_result, record_wall),
        "batch_path": _stats(batch_result, batch_wall),
        "wall_speedup": round(speedup, 2) if speedup else None,
        "byte_identical": True,
        "schedulers_byte_identical": schedulers_identical,
    }


def run_suite(scale: float, repeats: int) -> Dict[str, Any]:
    n_rows = max(512, int(BASE_ROWS * scale))
    report: Dict[str, Any] = {
        "benchmark": "batch",
        "scale": scale,
        "rows": n_rows,
        "repeats": repeats,
        "python": platform.python_version(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-batch-") as workdir:
        path = generate_wide(os.path.join(workdir, "wide.rf"), n_rows)
        for name, build in WORKLOADS.items():
            report["workloads"][name] = run_workload(
                name, build, path, workdir, repeats,
                expect_batch=name in GATED_WORKLOADS,
            )

    gated = {n: report["workloads"][n]["wall_speedup"]
             for n in GATED_WORKLOADS}
    report["summary"] = {
        "projection_speedup": gated["projection_scan"],
        "aggregation_speedup": gated["aggregation_preagg"],
        "udf_translated_speedup": gated["udf_translated"],
        "opaque_control_speedup":
            report["workloads"][CONTROL_WORKLOAD]["wall_speedup"],
        "min_gated_speedup": min(gated.values()),
        "all_byte_identical": all(
            w["byte_identical"] and w["schedulers_byte_identical"]
            for w in report["workloads"].values()
        ),
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (1.0 = tracked baseline)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per side; best wall-clock wins")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the worst gated workload's "
                             "record/batch wall ratio reaches this")
    args = parser.parse_args(argv)

    report = run_suite(args.scale, args.repeats)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"wrote {args.output}")
    for name, w in report["workloads"].items():
        print(
            f"  {name:24s} record {w['record_path']['wall_seconds']:8.3f}s"
            f"  batch {w['batch_path']['wall_seconds']:8.3f}s"
            f"  speedup {w['wall_speedup'] or 'n/a':>6}"
            f"  batch_tasks={w['batch_path']['batch_map_tasks']}"
        )

    if args.min_speedup is not None:
        got = report["summary"]["min_gated_speedup"]
        if got is None or got < args.min_speedup:
            print(
                f"FAIL: worst gated speedup {got} < "
                f"required {args.min_speedup}", file=sys.stderr,
            )
            return 1
        print(f"OK: worst gated speedup {got} >= {args.min_speedup}")
        control = report["summary"]["opaque_control_speedup"]
        if not 1 / args.min_speedup < control < args.min_speedup:
            print(
                f"FAIL: opaque control speedup {control} is not ~1.0 "
                f"(must stay inside 1/{args.min_speedup}..{args.min_speedup})",
                file=sys.stderr,
            )
            return 1
        print(f"OK: opaque control speedup {control} ~ 1.0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
