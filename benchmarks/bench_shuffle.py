#!/usr/bin/env python
"""Tracked shuffle data-plane benchmark: typed blocks vs pickle runs.

Measures the columnar shuffle path of :mod:`repro.batch.shuffleblocks`
-- typed spill blocks, streaming block merge, vectorized reduce-side
fold -- against the same shuffle-heavy ``group_by`` workloads forced
down the legacy pickle-frame spill path.  Both formats promise
byte-identical reduce output; this harness asserts that on every run
before it reports a single number, and additionally asserts that a
fluent ``group_by`` returns byte-identical rows across the sequential,
parallel and DAG schedulers with the typed path on and off.

The gated workloads time the data plane itself -- run spill, run merge,
partition reduce, via the exact functions the worker pool dispatches to
(:func:`spill_typed_run` / ``write_run`` on the map side,
:func:`merge_typed_chunks` / ``merge_decorated_runs`` +
:func:`~repro.mapreduce.runtime.execute_reduce_partition` on the reduce
side) -- so the number tracks what this subsystem changed, without
pool fork/IPC noise:

* **groupby sum fold** -- int keys, int values, vectorized sum fold.
* **groupby count fold** -- count-only spec: the merge never decodes a
  value payload at all (``need_values=False``).
* **groupby string generic** -- string keys, user reducer: no fold, but
  typed blocks still replace per-pair pickling and sort-key decoration.
* **fallback control** (ungated) -- a poison pair per run defeats the
  codecs, so every run takes the per-run pickle fallback; tracked so
  the rejected encode attempt stays a near-free detour (~1.0x), never
  a cliff.

Usage::

    PYTHONPATH=src python benchmarks/bench_shuffle.py               # full run
    PYTHONPATH=src python benchmarks/bench_shuffle.py --scale 0.15 \
        --min-speedup 1.4                                           # CI smoke

Exit status is non-zero when ``--min-speedup`` is given and the *worst*
gated workload's pickle/typed wall ratio falls below it.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.api.expressions import col, lit
from repro.api.session import Session
from repro.batch.shuffleblocks import ShuffleBlockSpec
from repro.mapreduce import InMemoryInput, JobConf, Mapper, Reducer
from repro.mapreduce import shuffle
from repro.mapreduce.runtime import execute_reduce_partition
from repro.batch import shuffleblocks
from repro.service.payload import serialize_rows
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Field, FieldType, Record, Schema

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_shuffle.json")

#: Shuffled pairs per partition at --scale 1.0, split across map runs.
BASE_PAIRS = 240_000
RUNS_PER_PARTITION = 8
DISTINCT_KEYS = 200

#: The workloads the --min-speedup gate covers.
GATED_WORKLOADS = (
    "groupby_sum_fold", "groupby_count_fold", "groupby_string_generic",
)

#: Rows for the end-to-end scheduler-identity section.
E2E_ROWS = 20_000


class IdentityMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(1 for _ in values))


def _conf(reducer) -> JobConf:
    # The data-plane harness enters at the reduce chokepoint, so the
    # conf only needs a reducer; mapper/inputs are structural.
    return JobConf(name="bench-shuffle", mapper=IdentityMapper,
                   reducer=reducer, inputs=[InMemoryInput([(0, 0)])])


def _int_runs(n_pairs: int, seed: int) -> List[List[Tuple[Any, Any]]]:
    rng = random.Random(seed)
    per_run = n_pairs // RUNS_PER_PARTITION
    return [
        [(rng.randrange(DISTINCT_KEYS), rng.randrange(10**6))
         for _ in range(per_run)]
        for _ in range(RUNS_PER_PARTITION)
    ]


def _string_runs(n_pairs: int, seed: int) -> List[List[Tuple[Any, Any]]]:
    rng = random.Random(seed)
    per_run = n_pairs // RUNS_PER_PARTITION
    return [
        [(f"user-{rng.randrange(DISTINCT_KEYS):05d}", rng.randrange(10**6))
         for _ in range(per_run)]
        for _ in range(RUNS_PER_PARTITION)
    ]


def _poison(runs: List[List[Tuple[Any, Any]]]) -> List[List[Tuple[Any, Any]]]:
    # One float key per run defeats the int order encoding, forcing the
    # per-run pickle fallback at the spill chokepoint.
    return [run + [(0.5, 0)] for run in runs]


def _pickle_plane(runs, conf, workdir) -> Tuple[List[Tuple], int]:
    """Spill+merge+reduce one partition via the legacy pickle format."""
    paths = []
    for i, run in enumerate(runs):
        path = os.path.join(workdir, f"pickle-{i}.run")
        shuffle.write_run(
            path, shuffle.sort_decorated_run(shuffle.decorate_pairs(run))
        )
        paths.append(path)
    spill_bytes = sum(os.path.getsize(p) for p in paths)
    merged = shuffle.merge_decorated_runs(paths)
    reduced = execute_reduce_partition(
        conf, merged, presorted=True, decorated=True
    )
    return reduced.outputs, spill_bytes


def _typed_plane(runs, conf, spec, workdir) -> Tuple[List[Tuple], int]:
    """The same partition via typed blocks (pool dispatch mirrored)."""
    paths = []
    fallbacks = 0
    for i, run in enumerate(runs):
        path = os.path.join(workdir, f"typed-{i}.run")
        written = shuffleblocks.spill_typed_run(path, run, spec)
        if written is None:
            fallbacks += 1
            written = shuffle.write_run(
                path,
                shuffle.sort_decorated_run(shuffle.decorate_pairs(run)),
            )
        paths.append(written)
    spill_bytes = sum(os.path.getsize(p) for p in paths)
    if all(shuffleblocks.is_typed_run(p) for p in paths):
        chunks = shuffleblocks.merge_typed_chunks(
            paths, spec, need_values=not spec.count_only
        )
        reduced = execute_reduce_partition(
            conf, chunks, presorted=True, shuffle_spec=spec
        )
    else:
        merged = shuffleblocks.merge_mixed_runs(paths, spec)
        reduced = execute_reduce_partition(
            conf, merged, presorted=True, decorated=True
        )
    return reduced.outputs, spill_bytes, fallbacks


def _best_of(fn: Callable[[], Any], repeats: int) -> Tuple[Any, float]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def run_plane_workload(name: str, runs, spec: ShuffleBlockSpec, reducer,
                       workdir: str, repeats: int,
                       expect_fallbacks: int) -> Dict[str, Any]:
    conf = _conf(reducer)
    n_pairs = sum(len(run) for run in runs)
    subdir = os.path.join(workdir, name)
    os.makedirs(subdir, exist_ok=True)

    (pkl_out, pkl_bytes), pkl_wall = _best_of(
        lambda: _pickle_plane(runs, conf, subdir), repeats)
    (typ_out, typ_bytes, fallbacks), typ_wall = _best_of(
        lambda: _typed_plane(runs, conf, spec, subdir), repeats)

    if pickle.dumps(pkl_out) != pickle.dumps(typ_out):
        raise AssertionError(f"{name}: typed output is not byte-identical")
    if fallbacks != expect_fallbacks:
        raise AssertionError(
            f"{name}: {fallbacks} pickle fallbacks, expected "
            f"{expect_fallbacks}"
        )

    speedup = pkl_wall / typ_wall if typ_wall > 0 else None
    return {
        "pairs": n_pairs,
        "groups": len(typ_out),
        "pickle_path": {
            "wall_seconds": round(pkl_wall, 4),
            "spill_bytes": pkl_bytes,
            "pairs_per_sec": round(n_pairs / pkl_wall) if pkl_wall else None,
        },
        "typed_path": {
            "wall_seconds": round(typ_wall, 4),
            "spill_bytes": typ_bytes,
            "pairs_per_sec": round(n_pairs / typ_wall) if typ_wall else None,
            "pickle_fallback_runs": fallbacks,
        },
        "wall_speedup": round(speedup, 2) if speedup else None,
        "spill_bytes_ratio": (
            round(pkl_bytes / typ_bytes, 2) if typ_bytes else None
        ),
        "byte_identical": True,
    }


# -- end-to-end scheduler identity -------------------------------------------

E2E_SCHEMA = Schema("Visit", [
    Field("ip", FieldType.STRING),
    Field("bucket", FieldType.INT),
    Field("revenue", FieldType.INT),
    Field("latency", FieldType.LONG),
])
E2E_KEY = Schema("VisitKey", [Field("id", FieldType.LONG)])


def _generate_e2e(path: str, n_rows: int, seed: int = 11) -> str:
    rng = random.Random(seed)
    with RecordFileWriter(path, E2E_KEY, E2E_SCHEMA, block_size=65536) as w:
        for i in range(n_rows):
            w.append(E2E_KEY.make(i), Record(E2E_SCHEMA, [
                f"ip-{rng.randrange(500):04d}", rng.randrange(1000),
                rng.randrange(10_000), rng.randrange(10**6),
            ]))
    return path


def _typed_plane_off():
    """Force described stages down the pickle spill format (the B arm).

    ``active_spec`` is resolved once per job in the submitting process
    and its answer rides the job state into the workers, so patching it
    here is complete -- no worker ever consults it.
    """
    return mock.patch.object(shuffleblocks, "active_spec", return_value=None)


def _e2e_query(session: Session, path: str):
    return session.read(path).filter(col("bucket") > lit(50)) \
        .group_by("ip").agg(total=("sum", "revenue"),
                            lo=("min", "latency"), hi=("max", "latency"))


def run_e2e_identity(workdir: str, n_rows: int,
                     repeats: int) -> Dict[str, Any]:
    """Fluent group_by: byte-identical rows on all three schedulers and
    on the pickle plane, plus an ungated end-to-end wall comparison.

    Identity runs on the production (vectorized) session.  The wall
    A/B runs with ``vectorize=False``: hash pre-aggregation collapses
    the shuffle to one partial per group per task, so the vectorized
    query is *not* shuffle-heavy and the spill format barely registers;
    on the record path every filtered row crosses the shuffle and the
    end-to-end win is the data-plane win diluted by shared scan costs.
    """
    path = _generate_e2e(os.path.join(workdir, "visits.rf"), n_rows)

    def timed(session, **run_kwargs):
        best = float("inf")
        rows = None
        for _ in range(repeats):
            start = time.perf_counter()
            rows = serialize_rows(
                _e2e_query(session, path).run(**run_kwargs).rows)
            best = min(best, time.perf_counter() - start)
        return rows, best

    with Session(workdir=os.path.join(workdir, "e2e")) as session:
        plan = _e2e_query(session, path).explain()
        if "typed shuffle" not in plan:
            raise AssertionError("e2e: analyzer did not attach a typed "
                                 "shuffle spec:\n" + plan)
        par_rows, _ = timed(session, parallelism=2)
        seq_rows, _ = timed(session)
        dag_rows, _ = timed(session, scheduler="dag")
        with _typed_plane_off():
            off_rows, _ = timed(session, parallelism=2)
        identical = par_rows == seq_rows == dag_rows == off_rows
        if not identical:
            raise AssertionError(
                "e2e: rows differ across schedulers or spill formats")

    with Session(workdir=os.path.join(workdir, "e2e-rec"),
                 vectorize=False) as record:
        typed_rows, typed_wall = timed(record, parallelism=2)
        with _typed_plane_off():
            legacy_rows, legacy_wall = timed(record, parallelism=2)
        if not (typed_rows == legacy_rows == par_rows):
            raise AssertionError("e2e: record-path rows diverged")

    return {
        "rows": n_rows,
        "schedulers_byte_identical": identical,
        "pickle_plane_byte_identical": identical,
        "typed_wall_seconds": round(typed_wall, 4),
        "pickle_wall_seconds": round(legacy_wall, 4),
        "end_to_end_speedup": (
            round(legacy_wall / typed_wall, 2) if typed_wall else None
        ),
    }


def run_suite(scale: float, repeats: int) -> Dict[str, Any]:
    n_pairs = max(
        RUNS_PER_PARTITION * 64, int(BASE_PAIRS * scale)
    )
    report: Dict[str, Any] = {
        "benchmark": "shuffle",
        "scale": scale,
        "pairs": n_pairs,
        "runs_per_partition": RUNS_PER_PARTITION,
        "distinct_keys": DISTINCT_KEYS,
        "repeats": repeats,
        "python": platform.python_version(),
        "workloads": {},
    }
    int_sum = ShuffleBlockSpec(
        FieldType.INT, (FieldType.INT,), False, ("sum",))
    int_count = ShuffleBlockSpec(
        FieldType.INT, (FieldType.INT,), False, ("count",))
    str_generic = ShuffleBlockSpec(
        FieldType.STRING, (FieldType.INT,), False, None)

    with tempfile.TemporaryDirectory(prefix="bench-shuffle-") as workdir:
        runs = _int_runs(n_pairs, seed=7)
        sruns = _string_runs(n_pairs, seed=7)
        cases = [
            ("groupby_sum_fold", runs, int_sum, SumReducer, 0),
            ("groupby_count_fold", runs, int_count, CountReducer, 0),
            ("groupby_string_generic", sruns, str_generic, SumReducer, 0),
            ("fallback_control", _poison(runs), int_sum, SumReducer,
             RUNS_PER_PARTITION),
        ]
        for name, case_runs, spec, reducer, expect_fb in cases:
            report["workloads"][name] = run_plane_workload(
                name, case_runs, spec, reducer, workdir, repeats, expect_fb)
        report["end_to_end"] = run_e2e_identity(
            workdir, max(1000, int(E2E_ROWS * scale)), repeats)

    gated = {n: report["workloads"][n]["wall_speedup"]
             for n in GATED_WORKLOADS}
    report["summary"] = {
        **{f"{name}_speedup": value for name, value in gated.items()},
        "min_gated_speedup": min(gated.values()),
        "all_byte_identical": (
            all(w["byte_identical"]
                for w in report["workloads"].values())
            and report["end_to_end"]["schedulers_byte_identical"]
            and report["end_to_end"]["pickle_plane_byte_identical"]
        ),
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="pair-count scale factor (1.0 = tracked "
                             "baseline)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per side; best wall-clock wins")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the worst gated workload's "
                             "pickle/typed wall ratio reaches this")
    args = parser.parse_args(argv)

    report = run_suite(args.scale, args.repeats)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"wrote {args.output}")
    for name, w in report["workloads"].items():
        print(
            f"  {name:24s} pickle {w['pickle_path']['wall_seconds']:8.3f}s"
            f"  typed {w['typed_path']['wall_seconds']:8.3f}s"
            f"  speedup {w['wall_speedup'] or 'n/a':>6}"
            f"  spill ratio {w['spill_bytes_ratio']}x"
        )
    e2e = report["end_to_end"]
    print(
        f"  {'end_to_end (fluent)':24s} pickle {e2e['pickle_wall_seconds']:8.3f}s"
        f"  typed {e2e['typed_wall_seconds']:8.3f}s"
        f"  speedup {e2e['end_to_end_speedup'] or 'n/a':>6}"
        f"  schedulers identical: {e2e['schedulers_byte_identical']}"
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
