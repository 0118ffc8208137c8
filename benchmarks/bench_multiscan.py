#!/usr/bin/env python
"""Tracked shared-scan benchmark: N concurrent queries, one pass.

Measures the multi-query work sharing served by
:mod:`repro.batch.multiscan`: four distinct analyzer-described queries
over one hot wide table run through :meth:`Session.run_many` (one fused
pass decoding the union of their columns) against the same four queries
run solo back to back.  Sharing promises byte-identical per-query
output; this harness asserts that on every run -- against the solo
bytes under the sequential, parallel and DAG schedulers alike -- before
it reports a single number, so the speedup series in
``BENCH_multiscan.json`` can never drift away from correctness.

Workloads:

* **shared_scan_n4** -- four overlapping-column queries (two
  projections, one pre-aggregable group-by, one narrow projection) on
  one file: solo pays four boundary walks and four decode passes, the
  fused pass pays one walk and one union decode.  Gated.
* **parallel_shared_scan** -- the same comparison under the parallel
  runner (``parallelism=2``).  Wall-clock gains need spare cores, so
  hosts with fewer than 4 CPUs report the numbers without gating them
  (``wall_gate_applies``), mirroring the bench_engine convention.
* **fallback_control** -- the same four queries pointed at four
  *different* files: nothing groups (mixed inputs), ``run_many`` must
  cost what four solo runs cost (speedup ~1.0 by construction; tracked
  so the grouping probe stays invisible when it declines).

Beside the workloads, ``decode_cost`` times the block scan itself on
the hot file -- zero columns captured (the boundary walk every scan
pays per field) against all ten (walk + materialization) -- and reports
their ratio, the measurement ``multiscan.DECODE_WEIGHT`` models.

Usage::

    PYTHONPATH=src python benchmarks/bench_multiscan.py             # full run
    PYTHONPATH=src python benchmarks/bench_multiscan.py --scale 0.2 \
        --min-speedup 1.4                                           # CI smoke

Exit status is non-zero when ``--min-speedup`` is given and any gated
speedup falls below it.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.expressions import col, lit
from repro.api.session import Session
from repro.batch.columns import ScanPlan, iter_column_batches
from repro.service.payload import serialize_rows
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import Field, FieldType, Record, Schema

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_multiscan.json")

#: Rows in the hot table at --scale 1.0.
BASE_ROWS = 40_000

WIDE = Schema("HotRow", [
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
KEY = Schema("HotKey", [Field("id", FieldType.LONG)])


def generate_hot(path: str, n_rows: int, seed: int = 11) -> str:
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


# Four distinct dashboard-style queries over the same hot columns:
# selective predicates (small emit sets) over a shared working set of
# columns, so the fused union {c0, c1, c2, c4, c5, name} stays within
# every member's latency bound while the one-pass decode replaces four.
def _q_top(session: Session, path: str):
    return session.read(path).filter(col("c0") > lit(990)) \
        .select("name", "c1", "c4", "c0")


def _q_bottom(session: Session, path: str):
    return session.read(path).filter(col("c0") < lit(10)) \
        .select("name", "c1", "c5")


def _q_agg(session: Session, path: str):
    return session.read(path).filter(col("c1") > lit(950)) \
        .group_by("c2").agg(total=("sum", "c4"), lo=("min", "c5"))


def _q_narrow(session: Session, path: str):
    return session.read(path).filter(col("c4") < lit(20_000)) \
        .select("name", "c4", "c0")


QUERIES: List[Callable[[Session, str], Any]] = [
    _q_top, _q_bottom, _q_agg, _q_narrow,
]


def _shared_groups(result) -> int:
    return result.stages[0].outcome.result.metrics.shared_scan_groups


def _stage_metrics(result) -> List[Any]:
    return [stage.outcome.result.metrics for stage in result.stages]


def _timed_solo(session: Session, paths: Sequence[str], repeats: int,
                **run_kwargs) -> Tuple[List[Any], float]:
    """Best-of-N wall clock of running every query solo, back to back."""
    best = float("inf")
    results: List[Any] = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = [build(session, path).run(**run_kwargs)
                   for build, path in zip(QUERIES, paths)]
        best = min(best, time.perf_counter() - start)
    return results, best


def _timed_shared(session: Session, paths: Sequence[str], repeats: int,
                  **run_kwargs) -> Tuple[List[Any], float]:
    best = float("inf")
    results: List[Any] = []
    for _ in range(repeats):
        start = time.perf_counter()
        results = session.run_many(
            [build(session, path)
             for build, path in zip(QUERIES, paths)],
            **run_kwargs,
        )
        best = min(best, time.perf_counter() - start)
    return results, best


def _side_stats(results: Sequence[Any], wall: float) -> Dict[str, Any]:
    metrics = [m for result in results for m in _stage_metrics(result)]
    stored = sum(m.map_input_stored_bytes for m in metrics)
    saved = sum(m.shared_bytes_saved for m in metrics)
    return {
        "wall_seconds": round(wall, 4),
        "map_input_records": sum(m.map_input_records for m in metrics),
        "fields_deserialized": sum(m.fields_deserialized for m in metrics),
        # every query is *charged* its full pass for solo parity; the
        # physical read subtracts the passes sharing skipped
        "stored_bytes_charged": stored,
        "stored_bytes_read": stored - saved,
        "shared_bytes_saved": saved,
        "scans_saved": sum(m.scans_saved for m in metrics),
        "shared_scan_groups": sum(m.shared_scan_groups for m in metrics),
    }


def _assert_identical(name: str, expected: Sequence[bytes],
                      results: Sequence[Any], what: str) -> None:
    got = [serialize_rows(r.rows) for r in results]
    if got != list(expected):
        raise AssertionError(
            f"{name}: {what} output is not byte-identical to solo"
        )


def bench_shared(name: str, session: Session, paths: Sequence[str],
                 repeats: int, expect_group: bool,
                 **run_kwargs) -> Dict[str, Any]:
    solo_results, solo_wall = _timed_solo(
        session, paths, repeats, **run_kwargs
    )
    expected = [serialize_rows(r.rows) for r in solo_results]
    if any(_shared_groups(r) for r in solo_results):
        raise AssertionError(f"{name}: solo runs recorded shared groups")

    shared_results, shared_wall = _timed_shared(
        session, paths, repeats, **run_kwargs
    )
    _assert_identical(name, expected, shared_results, "shared")
    grouped = sum(1 for r in shared_results if _shared_groups(r))
    if expect_group and grouped != len(QUERIES):
        raise AssertionError(
            f"{name}: only {grouped}/{len(QUERIES)} queries fused"
        )
    if not expect_group and grouped:
        raise AssertionError(f"{name}: queries fused unexpectedly")

    # Determinism guard: the fused plan under the parallel and DAG
    # schedulers must reproduce the solo bytes exactly.
    par, _ = _timed_shared(session, paths, 1, parallelism=2)
    _assert_identical(name, expected, par, "parallel shared")
    dag, _ = _timed_shared(session, paths, 1, scheduler="dag")
    _assert_identical(name, expected, dag, "DAG shared")

    speedup = solo_wall / shared_wall if shared_wall > 0 else None
    return {
        "queries": len(QUERIES),
        "solo": _side_stats(solo_results, solo_wall),
        "shared": _side_stats(shared_results, shared_wall),
        "wall_speedup": round(speedup, 2) if speedup else None,
        "byte_identical": True,
        "schedulers_byte_identical": True,
    }


def measure_decode_cost(path: str, repeats: int = 9) -> Dict[str, float]:
    """Per-field walk and capture cost of the block scan over ``path``.

    ``walk`` is the best-of-``repeats`` scan capturing nothing, divided
    by the fields walked per row (key + value); ``capture`` is what
    capturing every value column adds, per captured field.  Their ratio
    is the measured counterpart of ``multiscan.DECODE_WEIGHT``.
    """
    def scan(capture: List[str]) -> Tuple[float, int]:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            with RecordFileReader(path) as reader:
                plan = ScanPlan(reader.key_schema, reader.value_schema,
                                capture, decode_keys=False)
                rows = sum(b.n_rows for b in
                           iter_column_batches(reader, None, plan))
            best = min(best, time.perf_counter() - start)
        return best, rows

    names = WIDE.field_names()
    walk_s, rows = scan([])
    full_s, _rows = scan(names)
    walk = walk_s / (rows * (len(KEY.fields) + len(names)))
    capture = (full_s - walk_s) / (rows * len(names))
    return {
        "walk_ns_per_field": round(walk * 1e9, 1),
        "capture_ns_per_field": round(capture * 1e9, 1),
        "measured_decode_weight": round(capture / walk, 2),
    }


def run_suite(scale: float, repeats: int) -> Dict[str, Any]:
    n_rows = max(1024, int(BASE_ROWS * scale))
    cpus = os.cpu_count() or 1
    report: Dict[str, Any] = {
        "benchmark": "multiscan",
        "scale": scale,
        "rows": n_rows,
        "repeats": repeats,
        "python": platform.python_version(),
        "cpus": cpus,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-multiscan-") as workdir:
        hot = generate_hot(os.path.join(workdir, "hot.rf"), n_rows)
        report["decode_cost"] = measure_decode_cost(hot)
        with Session(workdir=os.path.join(workdir, "s")) as session:
            report["workloads"]["shared_scan_n4"] = bench_shared(
                "shared_scan_n4", session, [hot] * len(QUERIES),
                repeats, expect_group=True,
            )

            parallel = bench_shared(
                "parallel_shared_scan", session, [hot] * len(QUERIES),
                repeats, expect_group=True, parallelism=2,
            )
            # Concurrent workers need spare cores for the wall numbers
            # to mean anything; smaller hosts report, not gate.
            parallel["wall_gate_applies"] = cpus >= 4
            report["workloads"]["parallel_shared_scan"] = parallel

            # distinct files: the grouping probe must decline for free
            copies = [
                generate_hot(
                    os.path.join(workdir, f"copy{i}.rf"), n_rows, seed=i
                )
                for i in range(len(QUERIES))
            ]
            report["workloads"]["fallback_control"] = bench_shared(
                "fallback_control", session, copies, repeats,
                expect_group=False,
            )

    shared = report["workloads"]["shared_scan_n4"]
    parallel = report["workloads"]["parallel_shared_scan"]
    control = report["workloads"]["fallback_control"]
    gated = [shared["wall_speedup"]]
    if parallel["wall_gate_applies"]:
        gated.append(parallel["wall_speedup"])
    report["summary"] = {
        "shared_speedup": shared["wall_speedup"],
        "parallel_shared_speedup": parallel["wall_speedup"],
        "fallback_control_speedup": control["wall_speedup"],
        "scans_saved": shared["shared"]["scans_saved"],
        "shared_bytes_saved": shared["shared"]["shared_bytes_saved"],
        "min_gated_speedup": min(gated),
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
                        help="fail unless every gated shared/solo wall "
                             "ratio reaches this (the parallel gate "
                             "self-skips below 4 CPUs)")
    args = parser.parse_args(argv)

    report = run_suite(args.scale, args.repeats)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"wrote {args.output}")
    for name, w in report["workloads"].items():
        gate = ""
        if name == "parallel_shared_scan" and not w["wall_gate_applies"]:
            gate = "  (wall gate skipped: <4 CPUs)"
        print(
            f"  {name:22s} solo {w['solo']['wall_seconds']:8.3f}s"
            f"  shared {w['shared']['wall_seconds']:8.3f}s"
            f"  speedup {w['wall_speedup'] or 'n/a':>6}"
            f"  scans_saved={w['shared']['scans_saved']}{gate}"
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
