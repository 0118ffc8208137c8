"""The gate table: each feature against the switch its old script used.

One section per retired ``benchmarks/bench_*.py``; :data:`GATES` at the
bottom is the table ``--list`` prints and ``docs/performance.md`` maps.
Datasets are the suite's seeded tables (``bench.table``); row counts are
the retired scripts' ``--scale 1`` sizes.
"""

from __future__ import annotations

import math
import os
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Sequence

from benchmarks.gates.harness import SEED, Bench, Gate, Probe
from benchmarks.suite.datasets import RANK_MAX
from repro import JobConf, Mapper, Reducer, Session, col, faults
from repro.batch.columns import ScanPlan, iter_column_batches
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.engine import ExecutionEngine
from repro.engine.pool import RetryPolicy
from repro.faults import Fault, FaultPlan
from repro.mapreduce import (
    ColumnarFileInput,
    DeltaFileInput,
    DictionaryFileInput,
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    RecordFileInput,
)
from repro.mapreduce.keyspace import estimate_size, sort_key
from repro.mapreduce.runtime import run_job
from repro.service import QueryServer, connect, serialize_rows
from repro.storage.blockscan import ReadShape, block_scanner
from repro.storage.columnar import ColumnarFileWriter, copy_columns
from repro.storage.columnfile import copy_records
from repro.storage.delta import DeltaFileWriter
from repro.storage.dictionary import DictionaryFileWriter
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import _encode_fields, build_records
from repro.workloads.pavlo import (
    benchmark1 as b1,
    benchmark2 as b2,
    benchmark3 as b3,
    benchmark4 as b4,
)

#: the runs every fluent row repeats beside the sequential one
SCHEDULERS: Sequence[Dict[str, Any]] = ({"parallelism": 2},)


def payload(result: Any) -> bytes:
    return serialize_rows(result.rows)


def payloads(results: Sequence[Any]) -> List[bytes]:
    return [serialize_rows(result.rows) for result in results]


def total(results: Any, name: str) -> int:
    """A job metric summed over every stage of one or several results."""
    if not isinstance(results, (list, tuple)):
        results = [results]
    return sum(getattr(stage.outcome.result.metrics, name)
               for result in results for stage in result.stages)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def rank_pairs(bench: Bench, n: int) -> List[tuple]:
    """``(row id, pageRank)`` pairs of the rankings table, for in-memory jobs."""
    return [(key, values[1]) for key, values in bench.table("rankings", n)[0].rows]


# -- bench_batch.py: Session(vectorize=False) -------------------------------------

EVENTS_ROWS = 50_000


def _q_projection(session: Session, path: str) -> Any:
    return session.read(path).filter(col("score") > 9000).select("user", "score")


def _q_preagg(session: Session, path: str) -> Any:
    return session.read(path).filter(col("latency") > 200).group_by("path") \
        .agg(total=("sum", "score"), lo=("min", "bytes"), hi=("max", "ts"))


def _q_count(session: Session, path: str) -> Any:
    return session.read(path).filter(col("latency") > 200).group_by("path") \
        .agg(n=("count", None))


def _q_avg(session: Session, path: str) -> Any:
    return session.read(path).filter(col("latency") > 200).group_by("path") \
        .agg(mean=("avg", "score"))


def _q_multi(session: Session, path: str) -> Any:
    return session.read(path).filter(col("latency") > 200).group_by("path") \
        .agg(n=("count", None), total=("sum", "bytes"), hi=("max", "ts"))


def _q_udf_translated(session: Session, path: str) -> Any:
    return session.read(path).filter(lambda v: v.score > 9000) \
        .select("user", "score")


def _q_udf_opaque(session: Session, path: str) -> Any:
    return session.read(path) \
        .filter(lambda v: zlib.crc32(v.user.encode()) % 10 == 0) \
        .select("user", "score")


def batch_row(query: Callable[[Session, str], Any], expect_batch: bool,
              folds: bool = False) -> Callable[[Bench], Probe]:
    """``folds``: the query pre-aggregates, so it must ship fewer pairs."""
    def build(bench: Bench) -> Probe:
        path = bench.table("events", EVENTS_ROWS)[1]
        on = bench.keep(Session(workdir=bench.dir("vec")))
        off = bench.keep(Session(workdir=bench.dir("rec"), vectorize=False))
        reference, served = query(off, path).run(), query(on, path).run()
        tasks, batched = total(served, "map_tasks"), total(served, "batch_map_tasks")
        shuffled = {arm: total(result, "shuffle_records")
                    for arm, result in (("on", served), ("off", reference))}
        folded = ({"shuffle_records_on < shuffle_records_off":
                   shuffled["on"] < shuffled["off"]} if folds else {})
        return Probe(
            on=lambda: query(on, path).run(),
            off=lambda: query(off, path).run(),
            payload=payload,
            checks={
                "query_selects_rows": bool(reference.rows),
                "off_arm_never_batched": total(reference, "batch_map_tasks") == 0,
                ("every_map_task_batched" if expect_batch else "no_task_batched"):
                    batched == (tasks if expect_batch else 0),
                "schedulers_identical": all(
                    payload(query(on, path).run(**kwargs)) == payload(reference)
                    for kwargs in SCHEDULERS),
                **folded,
            },
            counters={"map_tasks": tasks, "batch_map_tasks": batched,
                      "rows": len(reference.rows),
                      "fields_deserialized_on": total(served, "fields_deserialized"),
                      "fields_deserialized_off": total(reference, "fields_deserialized"),
                      "shuffle_records_on": shuffled["on"],
                      "shuffle_records_off": shuffled["off"]},
        )
    return build


# -- the record path: the reference decode over the same blocks --------------------


def _codec_sources(bench: Bench) -> List[Any]:
    """The suite's ``uservisits`` as a record, a delta and a dictionary file."""
    table, path = _visits(bench, 12_000)
    schema, work = table.value_schema, bench.dir("codecs")
    delta = os.path.join(work, "uservisits.df")
    coded = os.path.join(work, "uservisits.dx")
    for writer in (DeltaFileWriter(delta, table.key_schema, schema,
                                   schema.numeric_field_names()),
                   DictionaryFileWriter(coded, table.key_schema, schema,
                                        "destURL")):
        with writer:
            for key, value in table.records():
                writer.append(key, value)
    return [RecordFileInput(path), DeltaFileInput(delta),
            DictionaryFileInput(coded)]


def record_path_scan(bench: Bench) -> Probe:
    """Every split of each codec drained through ``InputSource.open`` (on)
    against the container's reference decode over the same blocks, sized
    with ``estimate_size`` (off): pairs, ``logical_bytes`` and ``fields``
    per split."""
    sources = _codec_sources(bench)

    def split_readers() -> List[tuple]:
        out = []
        for source in sources:
            for split in source.splits(10):
                reader = source.open(split)
                out.append((list(reader), reader.logical_bytes, reader.fields))
        return out

    def reference() -> List[tuple]:
        out = []
        for source in sources:
            for split in source.splits(10):
                pairs: List[tuple] = []
                with source.reader_class(source.path) as reader:
                    for block, n_records in reader.iter_block_payloads(
                            split.payload):
                        pairs += reader.decode_block(block, n_records)
                out.append((pairs,
                            sum(estimate_size(k) + estimate_size(v)
                                for k, v in pairs),
                            sum(len(v.schema.fields) for _k, v in pairs)))
        return out

    rows = sum(len(pairs) for pairs, _logical, _fields in split_readers())
    return Probe(
        on=split_readers, off=reference,
        checks={"every_codec_scanned":
                rows == len(sources) * len(_visits(bench, 12_000)[0])},
        counters={"codecs": [source.label for source in sources],
                  "rows": rows},
    )


def record_path_write(bench: Bench) -> Probe:
    """The ``uservisits`` table written as a record file, then copied into
    a projection, a delta and a dictionary file (on: the compiled
    encoders -- every append, and ``copy_records``' column copies, as
    ingest and index builds run them) against the same four files built
    by the reference walk (off: ``Schema.encode``'s per-field walk and the
    codecs' reference steps, one append at a time, over the same
    scans).  Payload: the four files' bytes."""
    table, _path = _visits(bench, 12_000)
    schema, key_schema = table.value_schema, table.key_schema
    projected = schema.project(["sourceIP", "visitDate", "adRevenue"])
    pairs = list(table.records())
    work = bench.dir("writes")
    source = os.path.join(work, "uservisits.rf")
    copies = [  # (file, writer class, codec argument, stored fields)
        ("uservisits.proj", RecordFileWriter, (), projected),
        ("uservisits.df", DeltaFileWriter, (schema.numeric_field_names(),),
         schema),
        ("uservisits.dx", DictionaryFileWriter, ("destURL",), schema),
    ]
    paths = [source] + [os.path.join(work, name) for name, *_ in copies]

    def compiled() -> List[str]:
        with RecordFileWriter(source, key_schema, schema) as writer:
            for key, value in pairs:
                writer.append(key, value)
        with RecordFileReader(source) as reader:
            for name, writer_class, extras, stored in copies:
                with writer_class(os.path.join(work, name), key_schema,
                                  stored, *extras) as writer:
                    copy_records(reader, writer,
                                 None if stored is schema else stored)
        return paths

    def walk(record: Any) -> bytes:
        return _encode_fields(record.schema.fields, record.as_tuple())

    def walked() -> List[str]:
        with RecordFileWriter(source, key_schema, schema) as writer:
            for key, value in pairs:
                writer.append_raw(walk(key), walk(value))
        with RecordFileReader(source) as reader:
            for name, writer_class, extras, stored in copies:
                scanner = block_scanner(
                    key_schema, schema,
                    {f: i for i, f in enumerate(stored.field_names())}, True)
                with writer_class(os.path.join(work, name), key_schema,
                                  stored, *extras) as writer:
                    codec = writer._codec
                    value_bytes = {"uservisits.df": codec._reference_delta,
                                   "uservisits.dx": codec._reference_dictionary
                                   }.get(name, walk)
                    for block, n in reader.iter_block_payloads():
                        columns, keys, _ = scanner.scan(reader, block, n)
                        for key, value in zip(
                                keys, build_records(stored, columns, n)):
                            writer.append_raw(walk(key), value_bytes(value))
        return paths

    def contents(written: List[str]) -> List[bytes]:
        out = []
        for path in written:
            with open(path, "rb") as f:
                out.append(f.read())
        return out

    return Probe(
        on=compiled, off=walked, payload=contents,
        counters={"rows": len(pairs),
                  "files": [os.path.basename(path) for path in paths]},
    )


# -- the columnar catalog copy: a column capture against the row-major scan --------

#: the service's fresh-literal read: two of the ``events`` table's ten
#: columns, no key
CAPTURE = ReadShape(False, ("bytes", "user"))
CAPTURE_ROWS = 12_000
#: each arm drains back to back until it lasts at least this long, so a
#: smoke-scale table is timed well above the pacer's and clock's grain
CAPTURE_ARM_S = 0.020


def columnar_capture(bench: Bench) -> Probe:
    """``CAPTURE`` drained from a columnar copy of the ``events`` table
    (on: the two columns' segments decoded, the other eight passed over)
    against the same two-column projection read from its row-major
    record file (off: the compiled scan walks all ten fields of every
    record to capture two).  Payload: the captured rows, which must be
    identical.  Each arm drains its source as many times back to back
    as the faster one needs to last :data:`CAPTURE_ARM_S`."""
    table, path = bench.table("events", CAPTURE_ROWS)
    copy = os.path.join(bench.dir("columnar"), "events.col")
    with RecordFileReader(path) as reader, ColumnarFileWriter(
            copy, reader.key_schema, reader.value_schema) as writer:
        copy_columns(reader, writer)
    columnar = ColumnarFileInput(copy).with_shape(CAPTURE)
    row_major = RecordFileInput(path).with_shape(CAPTURE)

    def drain(source: Any) -> List[tuple]:
        return [value.as_tuple() for split in source.splits(10)
                for _key, value in source.open(split)]

    drain(columnar)  # warm: the scanner's source is loaded
    start = time.perf_counter()
    drain(columnar)
    drains = math.ceil(CAPTURE_ARM_S / (time.perf_counter() - start))

    def drains_of(source: Any) -> List[tuple]:
        for _ in range(drains - 1):
            drain(source)
        return drain(source)

    return Probe(
        on=lambda: drains_of(columnar), off=lambda: drains_of(row_major),
        checks={"two_of_ten_columns": len(CAPTURE.fields) == 2
                and len(table.value_schema.fields) == 10},
        counters={"rows": len(table), "drains": drains,
                  "stored_bytes_ratio": round(
                      os.path.getsize(copy) / os.path.getsize(path), 3)},
    )


# -- bench_engine.py: a fresh engine per job / sequential stages / cleared caches ---


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value % 10, value)


def pool_reuse(bench: Bench) -> Probe:
    pairs = rank_pairs(bench, 2_000)
    confs = [
        JobConf(name=f"small-{i}", mapper=ModMapper, reducer=SumReducer,
                inputs=[InMemoryInput(pairs)], num_reducers=4)
        for i in range(bench.scaled(15, least=4))
    ]
    shared = ExecutionEngine()
    bench.stack.callback(shared.shutdown)
    runner = ParallelJobRunner(num_workers=2, engine=shared)

    def per_job_pools() -> List[Any]:
        outputs = []
        for conf in confs:
            engine = ExecutionEngine()
            try:
                outputs.append(ParallelJobRunner(
                    num_workers=2, engine=engine).run(conf).outputs)
            finally:
                engine.shutdown()
        return outputs

    def warm() -> List[Any]:
        return [runner.run(conf).outputs for conf in confs]

    sequential = [LocalJobRunner().run(conf).outputs for conf in confs]
    return Probe(
        on=warm, off=per_job_pools,
        checks={"pooled_equals_sequential": warm() == sequential},
        counters={"jobs": len(confs), "records_per_job": len(pairs),
                  "pools_created_by_shared_engine":
                      shared.pool.stats()["pools_created"]},
    )


class HeadMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.pageURL, value.pageRank)


def cached_analysis(bench: Bench) -> Probe:
    conf = JobConf(name="scan", mapper=HeadMapper, reducer=SumReducer,
                   inputs=[RecordFileInput(bench.table("rankings", 500)[1])])
    engine = ExecutionEngine()
    bench.stack.callback(engine.shutdown)
    system = Manimal(bench.dir("analysis"), engine=engine)
    submissions = bench.scaled(25, least=5)

    def analyze(clear: bool) -> str:
        for _ in range(submissions):
            analysis = system.analyze(conf)
            if clear:
                engine.clear_caches()
        return analysis.inputs[0].summary()

    analyze(clear=False)
    return Probe(
        on=lambda: analyze(clear=False), off=lambda: analyze(clear=True),
        checks={"resubmissions_hit_the_cache":
                engine.analysis_cache.stats()["hits"] >= submissions - 1},
        counters={"submissions": submissions},
    )


# -- bench_hotpath.py: the same job on the plain eager scan ---------------------------


class DateWindowRevenueMapper(Mapper):
    """Pavlo-style selection scan: 3 of UserVisits' 9 fields are live."""

    def __init__(self, date_lo: int, date_hi: int):
        self.date_lo, self.date_hi = date_lo, date_hi

    def map(self, key, value, ctx):
        if value.visitDate >= self.date_lo and value.visitDate <= self.date_hi:
            ctx.emit(value.sourceIP, value.adRevenue)


def _visits(bench: Bench, n: int) -> tuple:
    return bench.table("uservisits", n, 1_000)


def _date_window(bench: Bench, n: int, share: float) -> tuple:
    """The visitDate bounds of the first ``share`` of the (date-ordered) log."""
    rows = _visits(bench, n)[0].rows
    return rows[0][1][2], rows[int(len(rows) * share)][1][2]


def _job_b1(bench: Bench) -> JobConf:
    return b1.make_job(bench.table("rankings", 30_000)[1],
                       threshold=b1.threshold_for_selectivity(RANK_MAX, 0.02))


def _job_b3(bench: Bench) -> JobConf:
    return b3.make_join_job(bench.table("rankings", 6_000)[1],
                            _visits(bench, 12_000)[1],
                            *_date_window(bench, 12_000, 0.01))


def _job_selscan(bench: Bench) -> JobConf:
    return JobConf(
        name="uservisits-projection-scan",
        mapper=DateWindowRevenueMapper(*_date_window(bench, 24_000, 0.02)),
        reducer=SumReducer, combiner=SumReducer,
        inputs=[RecordFileInput(_visits(bench, 24_000)[1])])


def _job_capture(bench: Bench) -> JobConf:
    """B2's map() over plain UserVisits: it reads 2 of the 9 value fields
    and never its key, and no index serves it -- what the record path
    captures is all that differs between the arms."""
    return b2.make_job(_visits(bench, 24_000)[1])


def classic_row(make_job: Callable[[Bench], JobConf],
                allowed: Any = None, expect: Any = None
                ) -> Callable[[Bench], Probe]:
    """Brute force vs Manimal-optimized on the sequential runner."""
    def build(bench: Bench) -> Probe:
        job = make_job(bench)
        system = Manimal(bench.dir("catalog"))
        system.build_indexes(job, allowed_kinds=allowed)
        descriptor = system.plan(job)
        kinds = descriptor.optimizations()

        def optimized(runner: Any = None) -> Any:
            return system.execute(job, descriptor,
                                  runner=runner or LocalJobRunner())

        brute, served = run_job(job, runner=LocalJobRunner()), optimized()
        return Probe(
            on=optimized, off=lambda: run_job(job, runner=LocalJobRunner()),
            # plan-independent order: index scans reorder rows
            payload=lambda result: sorted(
                result.outputs,
                key=lambda kv: (sort_key(kv[0]), sort_key(kv[1]))),
            checks={"planner_chose_expected_kinds":
                    expect is None or kinds == expect,
                    "parallel_byte_identical":
                    optimized(runner=2).outputs == served.outputs},
            counters={"optimizations": kinds,
                      "output_records": len(brute.outputs),
                      "records_skipped": served.metrics.records_skipped,
                      "fields_deserialized_ratio": round(
                          served.metrics.fields_deserialized
                          / max(1, brute.metrics.fields_deserialized), 4)},
        )
    return build


# -- bench_multiscan.py: solo runs back to back -------------------------------------

HOT_ROWS = 40_000


def _q_top(session: Session, path: str) -> Any:
    return session.read(path).filter(col("score") > 9900) \
        .select("user", "latency", "bytes", "score")


def _q_bottom(session: Session, path: str) -> Any:
    return session.read(path).filter(col("score") < 100) \
        .select("user", "latency", "ts")


def _q_agg(session: Session, path: str) -> Any:
    return session.read(path).filter(col("latency") > 1900) \
        .group_by("shard").agg(total=("sum", "bytes"), lo=("min", "ts"))


def _q_narrow(session: Session, path: str) -> Any:
    return session.read(path).filter(col("bytes") < 20_000) \
        .select("user", "bytes", "score")


#: four dashboard-style queries whose union {score, latency, bytes, ts,
#: user, shard} stays within every member's latency bound
QUERIES = (_q_top, _q_bottom, _q_agg, _q_narrow)


def shared_row(one_file: bool, **run_kwargs: Any) -> Callable[[Bench], Probe]:
    def build(bench: Bench) -> Probe:
        paths = [bench.table("events", HOT_ROWS,
                             seed=SEED if one_file else SEED + 1 + i)[1]
                 for i in range(len(QUERIES))]
        session = bench.keep(Session(workdir=bench.dir("shared")))

        def datasets() -> List[Any]:
            return [q(session, path) for q, path in zip(QUERIES, paths)]

        def solo() -> List[Any]:
            return [ds.run(**run_kwargs) for ds in datasets()]

        def fused(**kwargs: Any) -> List[Any]:
            return session.run_many(datasets(), **(kwargs or run_kwargs))

        alone, together = solo(), fused()
        grouped = sum(1 for r in together if total(r, "shared_scan_groups"))
        return Probe(
            on=fused, off=solo, payload=payloads,
            checks={
                "solo_runs_record_no_group":
                    total(alone, "shared_scan_groups") == 0,
                ("every_query_fused" if one_file else "no_query_fused"):
                    grouped == (len(QUERIES) if one_file else 0),
                "schedulers_identical": all(
                    payloads(fused(**kwargs)) == payloads(alone)
                    for kwargs in SCHEDULERS),
            },
            counters={"scans_saved": total(together, "scans_saved"),
                      "shared_bytes_saved": total(together, "shared_bytes_saved"),
                      "stored_bytes_charged":
                          total(together, "map_input_stored_bytes")},
        )
    return build


def decode_cost(bench: Bench) -> Probe:
    """The block scan capturing nothing (the walk every scan pays per
    field) against capturing all ten columns: with ``ratio`` = all/none,
    ``multiscan.DECODE_WEIGHT`` models ``(ratio - 1) * 11 / 10`` (eleven
    fields walked per row, ten of them captured)."""
    table, path = bench.table("events", HOT_ROWS)

    def scan(capture: List[str]) -> int:
        with RecordFileReader(path) as reader:
            plan = ScanPlan(reader.key_schema, reader.value_schema, capture,
                            decode_keys=False)
            return sum(b.n_rows for b in iter_column_batches(reader, None, plan))

    names = table.value_schema.field_names()
    return Probe(on=lambda: scan([]), off=lambda: scan(names),
                 checks={"every_row_scanned": scan([]) == len(table)},
                 counters={"fields_walked": len(names) + 1,
                           "fields_captured": len(names)})


# -- bench_pruning.py: the unpartitioned file -----------------------------------------


def pruned_scan(bench: Bench) -> Probe:
    flat = bench.table("rankings", 60_000)[1]
    session = bench.keep(Session(workdir=bench.dir("pruning")))
    parts = os.path.join(bench.dir("parts"), "rankings.parts")
    session.read(flat).write(parts, partition_by="pageRank", num_partitions=16)
    threshold = int(RANK_MAX * 0.98)  # ~2% of uniform ranks: ~1/16 partitions

    def query(path: str) -> Any:
        return session.read(path).filter(col("pageRank") > threshold) \
            .select("pageURL", "pageRank")

    def canonical(result: Any) -> bytes:  # partitioning reorders rows
        return serialize_rows(result.sorted_rows())

    full, pruned = query(flat).run(), query(parts).run()
    scanned, dropped = (total(pruned, "partitions_scanned"),
                        total(pruned, "partitions_pruned"))
    return Probe(
        on=lambda: query(parts).run(), off=lambda: query(flat).run(),
        payload=canonical,
        checks={"partitions_pruned": dropped > 0,
                "schedulers_identical": all(
                    canonical(query(parts).run(**kwargs)) == canonical(full)
                    for kwargs in SCHEDULERS)},
        counters={"partitions_scanned": scanned, "partitions_pruned": dropped,
                  "matching_rows": len(full.rows),
                  "bytes_ratio": round(
                      total(full, "map_input_stored_bytes")
                      / max(1, total(pruned, "map_input_stored_bytes")), 2)},
    )


# -- bench_resilience.py: RetryPolicy(enabled=False) / an injected fault plan ----------

#: injected hangs are cut short by this per-task deadline (seconds)
TASK_TIMEOUT = 1.0


class RollupMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("bench", "mapped")
        ctx.emit(value % 101, value)


def _observable(result: Any) -> tuple:
    """Outputs, counters and every metric but the scheduling-path ones
    (wall clock and physical spill bytes exist on the parallel side only)."""
    metrics = result.metrics.to_dict()
    for name in ("wall_seconds", "shuffle_bytes_spilled", "shuffle_bytes_merged"):
        metrics.pop(name)
    return result.outputs, metrics, result.counters.to_dict()


def _pooled_rollup(bench: Bench) -> tuple:
    job = JobConf(name="resilience-rollup", mapper=RollupMapper,
                  reducer=SumReducer, num_reducers=4,
                  inputs=[InMemoryInput(rank_pairs(bench, 60_000))])
    engine = ExecutionEngine(max_workers=2, reap_scratch=False)
    bench.stack.callback(engine.shutdown)
    return job, engine, _observable(LocalJobRunner().run(job))


def fault_free_overhead(bench: Bench) -> Probe:
    job, engine, sequential = _pooled_rollup(bench)
    enabled = ParallelJobRunner(num_workers=2, engine=engine,
                                retry_policy=RetryPolicy())
    disabled = ParallelJobRunner(num_workers=2, engine=engine,
                                 retry_policy=RetryPolicy(enabled=False))
    return Probe(
        on=lambda: enabled.run(job), off=lambda: disabled.run(job),
        payload=_observable,
        checks={"equals_sequential_reference":
                _observable(disabled.run(job)) == sequential},
    )


def recovery(bench: Bench) -> Probe:
    """A clean run (on) against the same job surviving one SIGKILLed and
    one hung worker (off): the ratio is the recovery premium."""
    job, engine, sequential = _pooled_rollup(bench)
    runner = ParallelJobRunner(
        num_workers=2, engine=engine,
        retry_policy=RetryPolicy(task_timeout=TASK_TIMEOUT))
    plans: List[FaultPlan] = []

    def faulted() -> Any:
        # the hang is on an earlier task than the kill, so it has always
        # started by the time the kill's pool rebuild sweeps it away
        plans.append(FaultPlan(
            [Fault("pool.map_task", "kill",
                   match={"task_index": 2, "attempt": 0}),
             Fault("pool.map_task", "hang", seconds=60.0,
                   match={"task_index": 0, "attempt": 0})],
            token_dir=bench.dir("fault-tokens")))
        faults.install_plan(plans[-1])
        try:
            return runner.run(job)
        finally:
            faults.clear_plan()

    before = engine.pool.stats()
    survived = _observable(faulted())
    after = engine.pool.stats()
    return Probe(
        on=lambda: runner.run(job), off=faulted, payload=_observable,
        checks={"equals_sequential_reference": survived == sequential,
                "kill_fired_once": plans[0].fired(0) == 1,
                "faults_survived": plans[0].fired(0) + plans[0].fired(1) == 2},
        counters={name: after[name] - before[name] for name in
                  ("tasks_retried", "tasks_timed_out", "pool_rebuilds")},
    )


# -- bench_service.py: result_cache_bytes=0 / an idle server ----------------------------

#: the distinct questions the dashboard clients rotate through
THRESHOLDS = (9000, 9500, 9900)


def _chain(session_like: Any, src: str, threshold: int) -> Any:
    return session_like.read(src).filter(col("pageRank") > threshold) \
        .select("pageURL", "pageRank")


def _server(bench: Bench, cache: bool, **kwargs: Any) -> QueryServer:
    """Not started yet: entering it (``with`` / ``bench.keep``) does."""
    return QueryServer(bench.dir("root"), engine=ExecutionEngine(),
                       result_cache_bytes=None if cache else 0, **kwargs)


def _in_threads(target: Callable[[int], None], n: int) -> None:
    errors: List[BaseException] = []

    def guarded(idx: int) -> None:
        try:
            target(idx)
        except BaseException as exc:  # surfaced below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise AssertionError(f"client failed: {errors[0]!r}")


def result_cache(bench: Bench) -> Probe:
    """N clients of one tenant re-submitting a few distinct queries."""
    src = bench.table("rankings", 4_000)[1]
    clients, per_client = bench.scaled(6, least=2), bench.scaled(12, least=4)
    servers = {cache: bench.keep(_server(
        bench, cache, max_in_flight=2, max_queue_depth=64))
        for cache in (True, False)}

    def drive(cache: bool) -> Dict[int, bytes]:
        host, port = servers[cache].address
        served: Dict[int, bytes] = {}

        def client(idx: int) -> None:
            with connect(host, port, tenant="dash") as remote:
                for q in range(per_client):
                    threshold = THRESHOLDS[(idx + q) % len(THRESHOLDS)]
                    served[threshold] = _chain(
                        remote, src, threshold).collect_bytes()[0]

        _in_threads(client, clients)
        return served

    with Session(catalog_dir=bench.dir("ident")) as local:
        expected = {t: serialize_rows(_chain(local, src, t).collect())
                    for t in THRESHOLDS}
    return Probe(
        on=lambda: drive(True), off=lambda: drive(False),
        checks={"served_equals_in_process": drive(True) == expected},
        counters={"queries": clients * per_client,
                  "cache_hits": servers[True].results.stats()["hits"]},
    )


def fair_scheduling(bench: Bench) -> Probe:
    """Light tenants behind one tenant's deep backlog (on) against the
    same light tenants on the idle server (off)."""
    src = bench.table("rankings", 4_000)[1]
    backlog = bench.scaled(10, least=10)  # full depth under --smoke too
    tenants, queries = bench.scaled(3, least=2), bench.scaled(3, least=2)
    # cache off so every submission competes for the pool; one in-flight
    # slot makes the round-robin dispatch order observable
    server = bench.keep(_server(bench, cache=False, max_in_flight=1,
                                max_queue_depth=max(64, backlog + 8)))
    host, port = server.address
    heavy = bench.keep(connect(host, port, tenant="heavy"))
    # connected up front: a small backlog drains in about the time a
    # client takes to connect
    remotes = [bench.keep(connect(host, port, tenant=f"light{idx}"))
               for idx in range(tenants)]
    pending: List[int] = []

    def heavy_pending() -> int:
        in_flight = server.scheduler.stats()["in_flight"]
        return server.scheduler.backlog("heavy") + (1 if in_flight else 0)

    def lights(flood: bool) -> Dict[str, List[bytes]]:
        served: Dict[str, List[bytes]] = {}
        for i in range(backlog if flood else 0):
            heavy.submit(_chain(heavy, src, 9000 + i % 90))

        def light(idx: int) -> None:
            remote = remotes[idx]
            rows = [_chain(remote, src, 9900).collect_bytes()[0]]
            # sampled as this light's first answer arrives: once every
            # light has finished, a small backlog has long drained
            pending.append(heavy_pending())
            served[f"light{idx}"] = rows + [
                _chain(remote, src, 9900 - q).collect_bytes()[0]
                for q in range(1, queries)]

        _in_threads(light, tenants)
        return served

    def backlog_drained() -> None:
        while True:
            stats = server.scheduler.stats()
            if not stats["backlog"] and not stats["in_flight"]:
                return
            time.sleep(0.002)

    served = lights(flood=True)
    most_pending = max(pending)
    backlog_drained()
    stats = server.scheduler.stats()
    return Probe(
        on=lambda: lights(flood=True), off=lambda: lights(flood=False),
        settle=backlog_drained,
        checks={"zero_starvation":
                len(served) == tenants and stats["failed"] == 0,
                "lights_served_while_backlog_pending": most_pending > 0},
        counters={"heavy_pending_when_lights_served": most_pending,
                  "dispatched_by_tenant": stats["dispatched_by_tenant"]},
    )


# -- bench_parallel_runner.py: the sequential runner -------------------------------------


def parallel_runner(bench: Bench) -> Probe:
    job = b2.make_job(_visits(bench, 24_000)[1])

    def observable(result: Any) -> tuple:
        return result.outputs, result.counters.to_dict()

    sequential = observable(LocalJobRunner().run(job))
    return Probe(
        on=lambda: ParallelJobRunner(num_workers=4).run(job),
        off=lambda: LocalJobRunner().run(job), payload=observable,
        checks={"identical_at_every_worker_count": all(
            observable(ParallelJobRunner(num_workers=n).run(job)) == sequential
            for n in (1, 2))},
    )


# -- the table ------------------------------------------------------------------------------

_PROJECTION = [cat.KIND_PROJECTION]

GATES = (
    Gate("batch_projection_scan", "bench_batch.py projection_scan",
         batch_row(_q_projection, True), ("speedup", 1.5)),
    Gate("batch_aggregation_preagg", "bench_batch.py aggregation_preagg",
         batch_row(_q_preagg, True, folds=True), ("speedup", 1.5)),
    Gate("batch_aggregation_count", None,
         batch_row(_q_count, True, folds=True), ("speedup", 1.5)),
    Gate("batch_aggregation_avg", None,
         batch_row(_q_avg, True, folds=True), ("speedup", 1.5)),
    Gate("batch_aggregation_multi", None,
         batch_row(_q_multi, True, folds=True), ("speedup", 1.5)),
    Gate("batch_udf_translated", "bench_batch.py udf_translated",
         batch_row(_q_udf_translated, True), ("speedup", 1.5)),
    Gate("udf_opaque_control", "bench_batch.py udf_opaque_control",
         batch_row(_q_udf_opaque, False), ("control", 0.25)),
    Gate("record_path_scan", None, record_path_scan, ("speedup", 2.0)),
    Gate("record_path_write", None, record_path_write, ("speedup", 2.0)),
    Gate("columnar_capture", None, columnar_capture, ("speedup", 2.0)),
    Gate("engine_pool_reuse", "bench_engine.py repeated_small_jobs",
         pool_reuse, ("speedup", 1.15)),
    Gate("engine_cached_analysis", "bench_engine.py cached_analysis",
         cached_analysis),
    Gate("hotpath_projection_scan", "bench_hotpath.py uservisits_projection_scan",
         classic_row(_job_selscan, _PROJECTION, _PROJECTION), ("speedup", 1.4)),
    Gate("hotpath_b1_selection", "bench_hotpath.py b1_selection",
         classic_row(_job_b1, [cat.KIND_SELECTION], [cat.KIND_SELECTION])),
    Gate("hotpath_b2_aggregation", "bench_hotpath.py b2_aggregation_projection",
         classic_row(lambda bench: b2.make_job(_visits(bench, 24_000)[1]),
                     _PROJECTION, _PROJECTION)),
    Gate("hotpath_b3_join", "bench_hotpath.py b3_join", classic_row(_job_b3)),
    Gate("record_path_capture", None, classic_row(_job_capture, [], []),
         ("speedup", 1.25)),
    Gate("hotpath_b4_udf_control", "bench_hotpath.py b4_udf_aggregation",
         classic_row(lambda bench: b4.make_job(
             bench.table("documents", 2_500, 1_000)[1]), expect=[])),
    Gate("multiscan_shared_n4", "bench_multiscan.py shared_scan_n4",
         shared_row(one_file=True), ("speedup", 1.4)),
    Gate("multiscan_parallel_shared", "bench_multiscan.py parallel_shared_scan",
         shared_row(one_file=True, parallelism=2), ("speedup", 1.4), min_cpus=4),
    Gate("multiscan_fallback_control", "bench_multiscan.py fallback_control",
         shared_row(one_file=False), ("control", 0.25)),
    Gate("multiscan_decode_cost", "bench_multiscan.py decode_cost", decode_cost),
    Gate("pruning_selective_scan", "bench_pruning.py pavlo_b1_selective",
         pruned_scan, ("speedup", 1.5), min_cpus=4),
    Gate("resilience_fault_free_overhead",
         "bench_resilience.py fault_free_overhead",
         fault_free_overhead, ("overhead", 0.25)),
    Gate("resilience_recovery", "bench_resilience.py recovery_wall",
         recovery),
    Gate("service_result_cache", "bench_service.py repeat_heavy_throughput",
         result_cache, ("speedup", 1.5)),
    Gate("service_fair_scheduling", "bench_service.py fair_scheduling",
         fair_scheduling),
    Gate("parallel_runner_b2", "bench_parallel_runner.py",
         parallel_runner, ("speedup", 1.5), min_cpus=4),
)
