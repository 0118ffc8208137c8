"""Per-layer metrics: span roll-ups, public counters and layer probes.

A metric name starts with the module it measures.  Three sources:

* **spans** of the traced window (mean duration per call of one layer
  function);
* **public counters** -- ``JobMetrics`` of the first untraced cycle (the
  same ops for the same seed, so counts repeat exactly), ``engine.stats()``
  and the service ``stats`` op as deltas around the windows;
* **probes** -- one layer function called directly on the workload's own
  files, outside any op.

A workload that never reaches a layer reports 0 for it: that *is* the
bypass evidence the README's prediction table relies on.
"""

from __future__ import annotations

import os
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import JobConf, PAPER_CLUSTER, col, run_job
from repro.batch.columns import ScanPlan, iter_column_batches
from repro.batch.kernels import compile_predicates
from repro.core.analyzer import ManimalAnalyzer
from repro.mapreduce.formats import InMemoryInput
from repro.mapreduce.metrics import JobMetrics
from repro.storage import (
    BTree,
    BTreeBuilder,
    DeltaFileWriter,
    DictionaryFileWriter,
    FieldDecodeCounter,
    RecordFileReader,
    build_projection,
)
from repro.storage.orderkeys import encode_key
from repro.storage.partitioned import sidecar_path, write_partitioned_dataset

from benchmarks.suite import programs
from benchmarks.suite.calibrate import Pacer
from benchmarks.suite.datasets import Table
from benchmarks.suite.trace import Tracer
from benchmarks.suite.workloads import PARTITIONS, Workload

REPEATS = 3


def _timed(fn: Callable[[], Any], repeats: int = REPEATS) -> float:
    """Median reference seconds of ``fn`` over ``repeats`` calls."""
    pacer = Pacer()
    return median(pacer.timed(fn) for _ in range(repeats))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- probes ---------------------------------------------------------------------------


def storage_probes(path: str, table: Table, int_col: str, str_col: str,
                   out: str) -> Dict[str, float]:
    """Each storage format written and read once over the workload's file."""
    n = len(table)
    plain = os.path.getsize(path)
    m: Dict[str, float] = {}

    def eager() -> None:
        with RecordFileReader(path) as reader:
            for _pair in reader.iter_records():
                pass

    def lazy() -> None:
        with RecordFileReader(path) as reader:
            for _key, value in reader.iter_records(
                    lazy_values=True, lazy_keys=True,
                    field_counter=FieldDecodeCounter()):
                getattr(value, int_col)
                getattr(value, str_col)

    m["storage.scan_records_per_s"] = n / _timed(eager)
    m["storage.lazy_scan_records_per_s"] = n / _timed(lazy)
    m["storage.write_records_per_s"] = n / _timed(
        lambda: table.write(os.path.join(out, "plain.rf")))

    parts = os.path.join(out, "parts")
    m["storage.partition_write_records_per_s"] = n / _timed(
        lambda: write_partitioned_dataset(
            parts, table.key_schema, table.value_schema, table.records(),
            PARTITIONS, partition_by=int_col))
    m["storage.sidecar_bytes"] = float(os.path.getsize(sidecar_path(parts)))

    ftype = table.value_schema.field(int_col).ftype
    column = table.idx[int_col]
    tree_path = os.path.join(out, "probe.btree")
    stats: List[Any] = []

    def build_tree() -> None:
        builder = BTreeBuilder(tree_path)
        encode = table.value_schema.encode
        entries = sorted(
            (encode_key(ftype, values[column]), encode(record))
            for (_key, values), (_k, record)
            in zip(table.rows, table.records())
        )
        for key, value in entries:
            builder.add(key, value)
        stats.append(builder.finish())

    m["storage.btree_build_records_per_s"] = n / _timed(build_tree)
    m["storage.btree_pages_per_kentry"] = (
        stats[-1].n_pages / (stats[-1].n_entries / 1000.0))
    m["storage.btree_bytes_ratio"] = stats[-1].file_size / plain
    values = sorted(values[column] for _key, values in table.rows)
    lo = encode_key(ftype, values[n // 2])
    hi = encode_key(ftype, values[n // 2 + n // 50])

    def lookup() -> None:
        with BTree(tree_path) as tree:
            for _entry in tree.scan(lo, hi):
                pass

    m["storage.btree_lookup_s"] = _timed(lookup, repeats=15)

    projected = os.path.join(out, "probe.proj")
    build_projection(path, projected, [int_col, str_col])
    m["storage.projection_bytes_ratio"] = os.path.getsize(projected) / plain
    numeric = table.value_schema.numeric_field_names()
    for name, writer in (
        ("delta", lambda p: DeltaFileWriter(
            p, table.key_schema, table.value_schema, numeric)),
        ("dictionary", lambda p: DictionaryFileWriter(
            p, table.key_schema, table.value_schema, str_col)),
    ):
        target = os.path.join(out, f"probe.{name}")
        with writer(target) as w:
            for key, value in table.records():
                w.append(key, value)
        m[f"storage.{name}_bytes_ratio"] = os.path.getsize(target) / plain
    return m


def batch_probes(path: str, table: Table, int_col: str, str_col: str
                 ) -> Dict[str, float]:
    """Column decode and one compiled predicate kernel over the file."""
    batches: List[Any] = []

    def decode() -> None:
        batches.clear()
        with RecordFileReader(path) as reader:
            plan = ScanPlan(reader.key_schema, reader.value_schema,
                            [int_col, str_col], decode_keys=False)
            batches.extend(iter_column_batches(reader, None, plan))

    m = {"batch.column_decode_s": _timed(decode)}
    predicates = [col(int_col) > 10, col(int_col) <= 10 ** 9]
    m["batch.kernel_compile_s"] = _timed(
        lambda: compile_predicates(predicates), repeats=15)
    kernel = compile_predicates(predicates)
    rows = sum(batch.n_rows for batch in batches)

    def select() -> None:
        for batch in batches:
            kernel.select(batch.n_rows, batch.column)

    m["batch.kernel_rows_per_s"] = rows / _timed(select)
    return m


def pool_probe() -> float:
    """Wall of a one-record job through the engine's persistent pool."""
    conf = JobConf(name="pool-probe", mapper=programs.IdentityMapper,
                   reducer=None, inputs=[InMemoryInput([(1, 1)])])
    run_job(conf, runner=2)         # forks the pool if it is not up yet
    return _timed(lambda: run_job(conf, runner=2))


def analyzer_probes(confs: Sequence[JobConf]) -> Dict[str, float]:
    """Cold static analysis per program, and Table 1 recall."""
    if not confs:
        return {"core.analyzer.analyze_s": 0.0,
                "core.analyzer.detected_share": 0.0}
    seconds: List[float] = []
    found = wanted = 0
    for conf in confs:
        analysis: List[Any] = []
        seconds.append(_timed(lambda: analysis.append(
            ManimalAnalyzer().analyze_job(conf))))
        truth = programs.GROUND_TRUTH.get(conf.name)
        if truth is None:
            continue
        inputs = analysis[-1].inputs
        focus = next((ia for ia in inputs if ia.input_tag == "uservisits"),
                     inputs[0])
        found += sum(1 for kind in truth if focus.has(kind))
        wanted += len(truth)
    return {"core.analyzer.analyze_s": sum(seconds) / len(seconds),
            "core.analyzer.detected_share": _ratio(found, wanted)}


# -- roll-up ----------------------------------------------------------------------------

_SPAN_MEANS = {
    "mapreduce.map_task_s": "mapreduce.map_task",
    "mapreduce.reduce_task_s": "mapreduce.reduce_task",
    "mapreduce.spill_write_s": "mapreduce.spill_write",
    "mapreduce.merge_s": "mapreduce.merge",
    "batch.map_task_s": "batch.map_task",
    "batch.typed_spill_s": "batch.typed_spill",
    "batch.typed_merge_s": "batch.typed_merge",
    "batch.typed_reduce_s": "batch.typed_reduce",
    "batch.shared_plan_s": "batch.shared_plan",
    "core.optimizer.plan_s": "core.optimizer.plan",
    "api.lower_s": "api.lower",
}

_INDEX_KINDS = ("selection", "projection", "delta", "dictionary")


def _span_metrics(tracer: Tracer) -> Dict[str, float]:
    m = {metric: tracer.mean(span) for metric, span in _SPAN_MEANS.items()}
    m["mapreduce.map_self_s"] = max(
        0.0, tracer.mean("mapreduce.map_task")
        - tracer.mean("storage.split_scan"))
    typed = tracer.named("batch.typed_spill")
    accepted = sum(1 for span in typed if span.counts["typed"])
    # a declined typed spill shows up again as the pickle spill of the run
    runs = (len(typed) + len(tracer.named("mapreduce.spill_write"))
            - (len(typed) - accepted))
    m["batch.typed_run_share"] = _ratio(accepted, runs)
    lowered = tracer.named("api.lower")
    m["api.stages_per_query"] = _ratio(
        sum(span.counts["stages"] for span in lowered), len(lowered))
    for kind in _INDEX_KINDS:
        builds = [
            span.duration
            for span in tracer.named("core.optimizer.index_build")
            if len(span.counts["kinds"]) == 1
            and span.counts["kinds"][0].split("+")[0] == kind
        ]
        m[f"core.optimizer.index_build_s.{kind}"] = _ratio(sum(builds),
                                                           len(builds))
    return m


def _count_metrics(records: Sequence[Any]) -> Dict[str, float]:
    """Public ``JobMetrics`` of the first untraced cycle, summed."""
    total = JobMetrics()
    simulated = 0.0
    addressed = sum(record.rows for record in records if record.job_metrics())
    for record in records:
        for job in record.job_metrics():
            total.merge(job)
            simulated += PAPER_CLUSTER.simulate(job).total_s
    return {
        "storage.fields_deserialized_per_record": _ratio(
            total.fields_deserialized, total.map_input_records),
        "mapreduce.shuffle_records": float(total.shuffle_records),
        "mapreduce.shuffle_bytes": float(total.shuffle_bytes),
        "mapreduce.shuffle_bytes_spilled": float(total.shuffle_bytes_spilled),
        "mapreduce.shuffle_bytes_merged": float(total.shuffle_bytes_merged),
        "mapreduce.map_output_records": float(total.map_output_records),
        "mapreduce.reduce_groups": float(total.reduce_groups),
        # rows the plans kept away from map(), of the rows addressed; the
        # program's own ``records_skipped`` does not count B+Tree ranges
        "mapreduce.records_skipped_share": max(0.0, _ratio(
            addressed - total.map_input_records, addressed)),
        "mapreduce.simulated_cluster_s": simulated,
        "batch.batch_map_task_share": _ratio(total.batch_map_tasks,
                                             total.map_tasks),
        "batch.shared_scan_groups": float(total.shared_scan_groups),
        "batch.scans_saved": float(total.scans_saved),
        "batch.shared_bytes_saved": float(total.shared_bytes_saved),
        "core.optimizer.partitions_pruned_share": _ratio(
            total.partitions_pruned,
            total.partitions_pruned + total.partitions_scanned),
    }


def _optimized_share(records: Sequence[Any]) -> float:
    flags = [
        outcome.optimized
        for record in records if record.outcome is not None
        for outcome in (record.outcome.members or [record.outcome])
        if outcome.optimized is not None
    ]
    return _ratio(sum(flags), len(flags))


def _hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hits"] - before["hits"]
    return _ratio(hits, hits + after["misses"] - before["misses"])


def _engine_metrics(before: Optional[Dict[str, Any]],
                    after: Optional[Dict[str, Any]], cycles: int
                    ) -> Dict[str, float]:
    """``engine.stats()`` deltas around the untraced cycles."""
    pool_keys = ("jobs_pooled", "jobs_forked", "jobs_inline",
                 "pools_created", "tasks_retried", "pool_rebuilds")
    if before is None or after is None:
        m = {f"engine.{key}": 0.0 for key in pool_keys}
        m["engine.analysis_cache_hit_ratio"] = 0.0
        m["engine.plan_cache_hit_ratio"] = 0.0
        return m
    m = {
        f"engine.{key}": (after["pool"][key] - before["pool"][key]) / cycles
        for key in pool_keys
    }
    m["engine.analysis_cache_hit_ratio"] = _hit_ratio(
        before["analysis_cache"], after["analysis_cache"])
    m["engine.plan_cache_hit_ratio"] = _hit_ratio(
        before["plan_cache"], after["plan_cache"])
    return m


def _service_metrics(wl: Workload, before: Optional[Dict[str, Any]],
                     after: Optional[Dict[str, Any]],
                     traced: Sequence[Any]) -> Dict[str, float]:
    names = ("roundtrip_floor_s", "hit_latency_p50_s", "miss_latency_p50_s",
             "write_latency_p50_s", "cache_hit_ratio", "cache_evictions",
             "cache_bytes", "rejected_share", "expired", "jobs_retried",
             "dispatched_share_min_tenant", "invalidated_repeat_miss_share")
    if before is None or after is None:
        return {f"service.{name}": 0.0 for name in names}

    def p50(samples: List[float]) -> float:
        return median(samples) if samples else 0.0

    done = [r for r in traced if r.outcome is not None]
    # every write is followed, on the same connection, by a repeat of a
    # query it invalidated: that repeat must not come from the cache
    repeats = []
    for caller in range(wl.callers):
        own = [r for r in done if r.caller == caller]
        repeats += [after.outcome.cached for write, after in zip(own, own[1:])
                    if write.op.kind.startswith("write")]
    cache0, cache1 = before["result_cache"], after["result_cache"]
    sched0, sched1 = before["scheduler"], after["scheduler"]
    dispatched = [
        count - sched0["dispatched_by_tenant"].get(tenant, 0)
        for tenant, count in sched1["dispatched_by_tenant"].items()
    ]
    session = wl.sessions[0]
    return {
        "service.roundtrip_floor_s": _timed(session.catalog, repeats=51),
        "service.hit_latency_p50_s": p50(
            [r.seconds for r in done if r.outcome.cached is True]),
        "service.miss_latency_p50_s": p50(
            [r.seconds for r in done if r.outcome.cached is False]),
        "service.write_latency_p50_s": p50(
            [r.seconds for r in done if r.op.kind.startswith("write")]),
        "service.cache_hit_ratio": _hit_ratio(cache0, cache1),
        "service.cache_evictions": float(
            cache1["evictions"] - cache0["evictions"]),
        "service.cache_bytes": float(cache1["bytes"]),
        "service.rejected_share": _ratio(
            sched1["rejected"] - sched0["rejected"],
            sched1["submitted"] - sched0["submitted"]),
        "service.expired": float(sched1["expired"] - sched0["expired"]),
        "service.jobs_retried": float(
            after["resilience"]["jobs_retried"]
            - before["resilience"]["jobs_retried"]),
        "service.dispatched_share_min_tenant": _ratio(
            min(dispatched), sum(dispatched)),
        "service.invalidated_repeat_miss_share": _ratio(
            sum(1 for cached in repeats if cached is False), len(repeats)),
    }


def roll_up(wl: Workload, baseline: Any, traced: Any, tracer: Tracer,
            counters: Sequence[Dict[str, Any]], failed_share: float,
            probe_dir: str) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``counters`` are :meth:`Workload.counters` snapshots taken before the
    untraced cycles, between the two windows, and after the traced one.
    """
    before, between, after = counters
    os.makedirs(probe_dir)
    path, table, int_col, str_col = wl.probe_target()
    m = storage_probes(path, table, int_col, str_col, probe_dir)
    m.update(batch_probes(path, table, int_col, str_col))
    m.update(analyzer_probes(wl.programs()))
    m.update(_span_metrics(tracer))
    first_cycle = [r for r in baseline.records if r.cycle == 0]
    m.update(_count_metrics(first_cycle))
    cycles = len({(r.caller, r.cycle) for r in baseline.records})
    m.update(_engine_metrics(before["engine"], between["engine"], cycles))
    m.update(_service_metrics(wl, before["service"], after["service"],
                              traced.records))
    m["engine.pool_job_overhead_s"] = pool_probe()
    m["core.optimizer.optimized_op_share"] = _optimized_share(
        baseline.records)
    m["core.optimizer.catalog_bytes"] = float(wl.catalog_bytes())

    def seconds_per_op(window: Any) -> float:
        return _ratio(sum(r.wall for r in window.records),
                      sum(r.weight for r in window.records))

    m["trace_overhead_share"] = _ratio(seconds_per_op(traced),
                                       seconds_per_op(baseline))
    m["failed_ops_share"] = failed_share
    return m
