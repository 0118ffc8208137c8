"""Staged entry points: the one-shot calls, taken apart at layer boundaries.

The traced pass drives each operation through the public *stage*
functions instead of ``Manimal.submit`` / ``Dataset.run`` /
``RemoteDataset.collect`` -- analyze, plan, one ``execute_map_task`` per
split, one ``execute_reduce_partition`` per partition (the loop of
``LocalJobRunner.run``), ``Session.lower``, ``RemoteSession.submit`` +
``fetch`` -- with a span around every call and the public counts of the
call attached to its span.  Results are identical to the one-shot paths,
so the oracle checks them the same way.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, List, Optional, Tuple

from repro.batch import shuffleblocks
from repro.mapreduce import shuffle
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.runtime import (
    execute_map_task,
    execute_reduce_partition,
    write_job_output,
)
from repro.service import deserialize_rows
from repro.service.protocol import decode_bytes

from benchmarks.suite.trace import Tracer

Pairs = List[Tuple[Any, Any]]

#: the sequential runner's default split target
SPLITS_PER_INPUT = 10


def _scan_split(tracer: Tracer, split: Any) -> None:
    """Storage probe of one split: open it and drain the reader."""
    with tracer.span("storage.split_scan") as span:
        reader = split.source.open(split)
        n = 0
        for _pair in reader:
            n += 1
        span.counts["records"] = n


def run_job(tracer: Tracer, conf: Any, spill_dir: Optional[str] = None
            ) -> Tuple[Pairs, JobMetrics]:
    """``LocalJobRunner.run`` with a span per task.

    With ``spill_dir`` the shuffle goes through run files the way the
    parallel runner's workers do it (typed blocks when the stage has a
    shuffle spec, pickle frames otherwise), one span per spill and merge.
    """
    metrics = JobMetrics()
    memory: List[Pairs] = [[] for _ in range(conf.num_reducers)]
    runs: List[List[str]] = [[] for _ in range(conf.num_reducers)]
    spec = shuffleblocks.active_spec(conf) if spill_dir else None
    n_tasks = 0
    for source in conf.inputs:
        counts = getattr(source, "partition_counts", None)
        if counts is not None:
            scanned, pruned = counts()
            metrics.partitions_scanned += scanned
            metrics.partitions_pruned += pruned
        for split in source.splits(SPLITS_PER_INPUT):
            with tracer.span("map_task") as span:
                task = execute_map_task(conf, source.tag, split)
            # which path served the task is only known once it has run
            batched = task.metrics.batch_map_tasks > 0
            span.name = "batch.map_task" if batched else "mapreduce.map_task"
            span.counts.update(records=task.metrics.map_input_records,
                               emitted=task.metrics.map_output_records)
            if not batched:
                _scan_split(tracer, split)
            metrics.merge(task.metrics)
            for part, pairs in enumerate(task.partitions):
                if not pairs:
                    continue
                if spill_dir is None:
                    memory[part].extend(pairs)
                else:
                    runs[part].append(_spill(
                        tracer, conf, spec, pairs,
                        shuffle.run_path(spill_dir, "map", n_tasks, part),
                        metrics,
                    ))
            n_tasks += 1
    metrics.map_tasks = n_tasks

    outputs: Pairs = []
    for part in range(conf.num_reducers):
        if spill_dir is None:
            if not memory[part]:
                continue
            with tracer.span("mapreduce.reduce_task"):
                reduced = execute_reduce_partition(conf, memory[part])
        else:
            if not runs[part]:
                continue
            reduced = _merge_and_reduce(tracer, conf, spec, runs[part],
                                        metrics)
        metrics.merge(reduced.metrics)
        outputs.extend(reduced.outputs)
    if conf.output_path is not None:
        write_job_output(conf, outputs)
    return outputs, metrics


def _spill(tracer: Tracer, conf: Any, spec: Any, pairs: Pairs, path: str,
           metrics: JobMetrics) -> str:
    written = None
    if conf.reducer is None:
        with tracer.span("mapreduce.spill_write", pairs=len(pairs)):
            written = shuffle.write_run(path, pairs)
    else:
        if spec is not None:
            with tracer.span("batch.typed_spill", pairs=len(pairs)) as span:
                written = shuffleblocks.spill_typed_run(path, pairs, spec)
                span.counts["typed"] = written is not None
        if written is None:
            with tracer.span("mapreduce.spill_write", pairs=len(pairs)):
                written = shuffle.write_run(
                    path,
                    shuffle.sort_decorated_run(shuffle.decorate_pairs(pairs)),
                )
    metrics.shuffle_bytes_spilled += os.path.getsize(written)
    return written


def _merge_and_reduce(tracer: Tracer, conf: Any, spec: Any,
                      paths: List[str], metrics: JobMetrics) -> Any:
    metrics.shuffle_bytes_merged += sum(os.path.getsize(p) for p in paths)
    if conf.reducer is None:
        with tracer.span("mapreduce.merge"):
            merged: Any = list(shuffle.merge_runs(paths, sorted_runs=False))
        with tracer.span("mapreduce.reduce_task"):
            return execute_reduce_partition(conf, merged, presorted=True)
    if spec is not None and all(shuffleblocks.is_typed_run(p) for p in paths):
        # Merge and fold are one streaming pass in the program; the merge
        # is drained first here so each gets its own span.
        with tracer.span("batch.typed_merge"):
            chunks = list(shuffleblocks.merge_typed_chunks(
                paths, spec, need_values=not spec.count_only))
        with tracer.span("batch.typed_reduce"):
            return execute_reduce_partition(
                conf, chunks, presorted=True, shuffle_spec=spec)
    with tracer.span("mapreduce.merge"):
        if spec is not None and any(shuffleblocks.is_typed_run(p)
                                    for p in paths):
            merged = list(shuffleblocks.merge_mixed_runs(paths, spec))
        else:
            merged = list(shuffle.merge_decorated_runs(paths))
    with tracer.span("mapreduce.reduce_task"):
        return execute_reduce_partition(
            conf, merged, presorted=True, decorated=True)


def submit(tracer: Tracer, system: Any, conf: Any,
           analysis: Optional[Any] = None, spill_root: Optional[str] = None
           ) -> Tuple[Pairs, JobMetrics, Any]:
    """``Manimal.submit`` in stages: analyze -> plan -> tasks.

    Returns ``(outputs, metrics, descriptor)``.  ``analysis`` carries the
    fluent lowering's hints (Appendix A), which skip the analyzer.
    """
    if analysis is None:
        with tracer.span("engine.analyze"):
            analysis = system.analyze(conf)
    with tracer.span("core.optimizer.plan"):
        descriptor = system.plan(conf, analysis)
    chosen = conf.with_inputs(descriptor.chosen_inputs())
    chosen.shuffle_filter = descriptor.shuffle_filter
    if spill_root is None:
        outputs, metrics = run_job(tracer, chosen)
    else:
        with tempfile.TemporaryDirectory(dir=spill_root) as spill_dir:
            outputs, metrics = run_job(tracer, chosen, spill_dir)
    return outputs, metrics, descriptor


def run_dataset(tracer: Tracer, session: Any, dataset: Any,
                spill_root: Optional[str] = None
                ) -> Tuple[Pairs, List[JobMetrics], bool]:
    """``Dataset.run`` in stages: lower, then each stage via :func:`submit`.

    Returns ``(rows, per-stage metrics, optimized)``.
    """
    with tracer.span("api.lower") as span:
        plan = session.lower(dataset)
        span.counts["stages"] = len(plan.stages)
    outputs: Pairs = []
    all_metrics: List[JobMetrics] = []
    optimized = False
    for stage in plan.stages:
        outputs, metrics, descriptor = submit(
            tracer, session.system, stage.conf, analysis=stage.hints,
            spill_root=spill_root,
        )
        all_metrics.append(metrics)
        optimized = optimized or descriptor.optimized
    return outputs, all_metrics, optimized


def collect_remote(tracer: Tracer, session: Any, dataset: Any
                   ) -> Tuple[Pairs, bool]:
    """``RemoteDataset.collect`` in stages; returns ``(rows, cached)``."""
    with tracer.span("service.submit") as span:
        submitted = session.submit(dataset)
        span.counts["cached"] = bool(submitted.get("cached"))
    with tracer.span("service.fetch"):
        payload = None
        while payload is None:
            response = session.call({
                "op": "fetch", "job_id": submitted["job_id"], "timeout": 60.0,
            })
            payload = response.get("payload")
    with tracer.span("service.decode"):
        rows = deserialize_rows(decode_bytes(payload))
    return rows, bool(submitted.get("cached"))
