"""The job driver and the sequential runner: map -> combine -> shuffle -> reduce.

This is the execution fabric of the reproduction.  It "retains the standard
map-shuffle-reduce sequence and is almost identical to standard MapReduce"
(paper Section 2): input sources produce splits, each split becomes a map
task with its own mapper instance and context, an optional combiner folds
each task's output, a hash partitioner routes pairs to reduce partitions,
each partition is sorted and grouped by key, and reducers emit the final
output.

That sequence is written once, for a **job group** -- N >= 1 jobs over
one scan of their shared inputs; a solo job is a group of one:

* :func:`execute_map_tasks` / :func:`execute_reduce_partition` are the
  task bodies (:func:`execute_map_task` is the one-member spelling);
* :func:`run_job_group` is the driver: it enumerates the group's splits,
  hands the tasks to a *dispatcher*, and rolls every member's metrics,
  counters and outputs up in task-then-partition order.  Every runner
  and every shared-scan group reaches this one rollup;
* :func:`run_tasks_in_process` is the sequential dispatcher -- every
  task in this process, one at a time, shuffling through memory -- and
  the *only* code that executes tasks in the submitting process.
  :class:`LocalJobRunner` (here) always dispatches with it, which is the
  reference semantics: determinism makes the experiments and the
  property tests trustworthy;
* :class:`~repro.mapreduce.parallel.ParallelJobRunner` dispatches onto
  the engine's worker pool through a spill-based shuffle -- one on-disk
  run format for every reducing stage, :mod:`repro.mapreduce.shuffle` --
  when a group fans out, and with the same :func:`run_tasks_in_process`
  when it does not (or when the pool gave up on it); either way it is
  byte-identical to this runner by construction (see
  ``docs/execution-model.md``).

Cluster-scale parallelism is still *modeled* separately by
:mod:`repro.mapreduce.cost` from the byte/record metrics collected here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import JobExecutionError
from repro.mapreduce.api import Context
from repro.mapreduce.counters import FRAMEWORK_GROUP, Counters
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.keyspace import estimate_size, sort_key
from repro.mapreduce.metrics import JobMetrics
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Record, Schema

#: Decorated-stream accessors (see :mod:`repro.mapreduce.shuffle`): the
#: hot loops sort and group by a sort key computed once per pair.
_SKEY = itemgetter(0)


def _collect_yielded(ctx: Context, result: Any, where: str) -> None:
    """Fold a generator-style user function's yielded pairs into the context.

    ``map``/``reduce`` may return an iterable of ``(key, value)`` pairs
    instead of calling ``ctx.emit``; both styles may be mixed freely (the
    yielded pairs land after any explicit emits of the same invocation).
    """
    if result is None:
        return
    try:
        pairs = iter(result)
    except TypeError:
        raise JobExecutionError(
            f"{where} returned non-iterable {type(result).__name__}; "
            "return None or an iterable of (key, value) pairs"
        ) from None
    for pair in pairs:
        # A 2-char string unpacks "successfully" into two 1-char strings,
        # so a `return (key, value)` mistake (one pair instead of an
        # iterable of pairs) could silently corrupt output.  Fail loudly.
        if isinstance(pair, (str, bytes)):
            raise JobExecutionError(
                f"{where} yielded the string {pair!r}; expected a "
                "(key, value) pair -- return an iterable of pairs, not a "
                "single pair"
            )
        try:
            key, value = pair
        except (TypeError, ValueError):
            raise JobExecutionError(
                f"{where} yielded {pair!r}; expected a (key, value) pair"
            ) from None
        ctx.emit(key, value)


# -- task-level execution (shared by both runners) ---------------------------


@dataclass
class MapTaskResult:
    """One map task's partitioned output plus its metric/counter deltas."""

    #: post-combine, post-filter pairs routed to each reduce partition
    partitions: List[List[Tuple[Any, Any]]]
    metrics: JobMetrics = field(default_factory=JobMetrics)
    counters: Counters = field(default_factory=Counters)


@dataclass
class ReduceTaskResult:
    """One reduce partition's output plus its metric/counter deltas."""

    outputs: List[Tuple[Any, Any]]
    metrics: JobMetrics = field(default_factory=JobMetrics)
    counters: Counters = field(default_factory=Counters)


def execute_map_task(
    conf: JobConf, tag: Optional[str], split: Any
) -> MapTaskResult:
    """Run one map task of one job: :func:`execute_map_tasks`, N = 1."""
    return execute_map_tasks([conf], [tag], split)[0]


def execute_map_tasks(
    confs: Sequence[JobConf], tags: Sequence[Optional[str]], split: Any
) -> List[MapTaskResult]:
    """Run one map task for every job of a group sharing ``split``.

    Returns one :class:`MapTaskResult` per member, aligned with
    ``confs`` (``tags[i]`` is member *i*'s input tag).  Pure with respect
    to shared job state -- all accounting lands in the returned results,
    so the sequential dispatcher can fold them in task order while the
    parallel one executes the same function inside worker processes.

    Members lowered with a vectorized spec for their input tag (see
    :class:`~repro.mapreduce.job.JobConf.batch_specs`) are served
    together by the batch executor -- one block pass for all of them --
    when the concrete split supports it; it produces the same
    :class:`MapTaskResult` bytes through the shared
    :func:`_finish_map_task` tail, and declines (``None``) any member
    whose split/input shape is outside its reach.  Declined members, and
    members with no spec, each run their own record-at-a-time mapper
    over the split (:func:`_run_record_map_task`).
    """
    specs = [conf.batch_specs.get(tag) for conf, tag in zip(confs, tags)]
    results: Sequence[Optional[MapTaskResult]] = [None] * len(confs)
    if any(spec is not None for spec in specs):
        from repro.batch.executor import run_batch_map_task

        results = run_batch_map_task(confs, specs, split)
    return [
        result if result is not None
        else _run_record_map_task(conf, tag, split)
        for conf, tag, result in zip(confs, tags, results)
    ]


def _run_record_map_task(
    conf: JobConf, tag: Optional[str], split: Any
) -> MapTaskResult:
    """The record path: one ``map()`` call per input pair."""
    out = MapTaskResult(
        partitions=[[] for _ in range(conf.num_reducers)]
    )
    metrics, counters = out.metrics, out.counters

    mapper = conf.make_mapper(tag)
    ctx = Context(input_tag=tag)
    reader = split.source.open(split)
    try:
        mapper.setup(ctx)
        map_fn = mapper.map
        for key, value in reader:
            result = map_fn(key, value, ctx)
            if result is not None:
                _collect_yielded(ctx, result, "map()")
        mapper.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"map task failed in job {conf.name!r}: {exc}"
        ) from exc

    metrics.map_input_records += reader.records
    metrics.map_input_stored_bytes += reader.stored_bytes
    metrics.map_input_logical_bytes += reader.logical_bytes
    metrics.records_skipped += reader.skipped
    counters.merge(ctx.counters)
    _finish_map_task(conf, out, ctx.emitted)
    # Harvested last: on lazy-decoding inputs the size accounting and
    # combiner in the shared tail may materialize further fields of
    # emitted records, and that decode work must be charged to this
    # task, not lost.
    metrics.fields_deserialized += reader.fields_decoded
    return out


def _finish_map_task(
    conf: JobConf, out: MapTaskResult, emitted: List[Tuple[Any, Any]]
) -> None:
    """The map task's output tail: size, combine, filter, partition.

    Shared verbatim between the record path above and the vectorized
    batch executor (:mod:`repro.batch.executor`): however the ``emitted``
    pairs were produced, they go through identical combining, shuffle
    filtering, partition routing and byte accounting, which is what makes
    the two paths' task results interchangeable.
    """
    metrics = out.metrics
    metrics.map_output_records += len(emitted)

    # Described-aggregate stages (an ``aggregate`` batch spec) shuffle a
    # small set of group keys repeated across many pairs: one memo entry
    # per distinct key -- ``[estimate_size, partition once routed]`` --
    # so sizing and stable_hash each run once per distinct key, not once
    # per pair.  Both are pure functions of the key, and both runners
    # share this tail, so sequential/parallel identity is untouched.
    memo: Optional[dict] = None
    if any(spec.kind == "aggregate" for spec in conf.batch_specs.values()):
        memo = {}

    def sized_rows(pairs: List[Tuple[Any, Any]]) -> List[Tuple[Any, ...]]:
        if memo is None:
            return [
                (key, value, estimate_size(key), estimate_size(value))
                for key, value in pairs
            ]
        rows = []
        for key, value in pairs:
            try:
                key_size = memo[key][0]
            except KeyError:
                key_size = estimate_size(key)
                memo[key] = [key_size, None]
            except TypeError:
                # Unhashable key from a lying UDF schema: size and route
                # it the slow way.
                key_size = estimate_size(key)
            rows.append((key, value, key_size, estimate_size(value)))
        return rows

    # One estimate_size pass per pair, shared between map-output and
    # shuffle accounting: without a combiner the emitted pairs *are* the
    # shuffle stream, so each key/value is sized exactly once and the
    # (key, value, key_size, value_size) rows flow through the
    # filter/partition chain without being rebuilt as plain pairs.
    if conf.combiner is not None and emitted:
        map_output_bytes = 0
        for key, value in emitted:
            map_output_bytes += estimate_size(key) + estimate_size(value)
        metrics.map_output_bytes += map_output_bytes
        sized = sized_rows(_run_combiner(conf, emitted, out.counters))
    else:
        sized = sized_rows(emitted)
        map_output_bytes = 0
        for row in sized:
            map_output_bytes += row[2] + row[3]
        metrics.map_output_bytes += map_output_bytes

    if conf.shuffle_filter is not None and sized:
        # Appendix E: delete map outputs whose group the reducer
        # provably ignores, before they cost shuffle/sort work.
        keep = conf.shuffle_filter
        kept = [row for row in sized if keep(row[0])]
        metrics.shuffle_records_skipped += len(sized) - len(kept)
        sized = kept

    partition = conf.partitioner.partition
    n_reducers = conf.num_reducers
    partitions = out.partitions
    shuffle_bytes = 0
    shuffle_key_bytes = 0
    if memo is not None:
        for key, value, key_size, value_size in sized:
            try:
                entry = memo[key]
            except TypeError:
                entry = [key_size, None]
            part = entry[1]
            if part is None:
                part = entry[1] = partition(key, n_reducers)
            partitions[part].append((key, value))
            shuffle_key_bytes += key_size
            shuffle_bytes += key_size + value_size
    else:
        for key, value, key_size, value_size in sized:
            partitions[partition(key, n_reducers)].append((key, value))
            shuffle_key_bytes += key_size
            shuffle_bytes += key_size + value_size
    metrics.shuffle_records += len(sized)
    metrics.shuffle_key_bytes += shuffle_key_bytes
    metrics.shuffle_bytes += shuffle_bytes


def _run_combiner(
    conf: JobConf,
    pairs: List[Tuple[Any, Any]],
    counters: Counters,
) -> List[Tuple[Any, Any]]:
    combiner = conf.make_combiner()
    assert combiner is not None
    ctx = Context()
    # Decorate-sort-group: sort_key runs once per pair; the stable sort
    # and the groupby both read the precomputed decoration, and equal keys
    # keep emit order without raw keys ever being compared.
    decorated = [(sort_key(key), key, value) for key, value in pairs]
    decorated.sort(key=_SKEY)
    try:
        combiner.setup(ctx)
        reduce_fn = combiner.reduce
        for _skey, group in groupby(decorated, key=_SKEY):
            rows = list(group)
            result = reduce_fn(rows[0][1], [row[2] for row in rows], ctx)
            if result is not None:
                _collect_yielded(ctx, result, "combine()")
        combiner.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"combiner failed in job {conf.name!r}: {exc}"
        ) from exc
    counters.merge(ctx.counters)
    return ctx.emitted


def execute_reduce_partition(
    conf: JobConf,
    pairs: Iterable[Tuple[Any, ...]],
    presorted: bool = False,
    decorated: bool = False,
) -> ReduceTaskResult:
    """Run the reduce side of one partition.

    ``pairs`` is the partition's shuffle stream.  With ``presorted=False``
    (sequential runner) it is plain (key, value) pairs, decorated with
    their sort key (computed once per pair) and stable-sorted here; with
    ``presorted=True`` (parallel runner) the caller already merged sorted
    spill runs and the stream is consumed as-is -- ``decorated=True``
    marks a stream of ``(sort_key, key, value)`` rows as spilled by the
    parallel shuffle, so no sort key is ever recomputed.  Map-only jobs
    pass records through untouched, preserving arrival order.
    """
    out = ReduceTaskResult(outputs=[])
    metrics = out.metrics

    reducer = conf.make_reducer()
    if reducer is None:
        # Map-only job: shuffle output is the job output.
        if decorated:
            pairs = [(key, value) for _skey, key, value in pairs]
        out.outputs = list(pairs)
        metrics.reduce_output_records += len(out.outputs)
        for key, value in out.outputs:
            metrics.reduce_output_bytes += (
                estimate_size(key) + estimate_size(value)
            )
        return out

    ctx = Context()
    if decorated:
        stream: Iterable[Tuple[Any, Any, Any]] = pairs
    elif presorted:
        stream = ((sort_key(key), key, value) for key, value in pairs)
    else:
        rows = [(sort_key(key), key, value) for key, value in pairs]
        rows.sort(key=_SKEY)
        stream = rows
    try:
        reducer.setup(ctx)
        reduce_fn = reducer.reduce
        for _skey, group in groupby(stream, key=_SKEY):
            rows = list(group)
            metrics.reduce_groups += 1
            metrics.reduce_input_records += len(rows)
            result = reduce_fn(rows[0][1], [row[2] for row in rows], ctx)
            if result is not None:
                _collect_yielded(ctx, result, "reduce()")
        reducer.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"reduce task failed in job {conf.name!r}: {exc}"
        ) from exc
    out.counters.merge(ctx.counters)
    out.outputs = ctx.emitted
    metrics.reduce_output_records += len(ctx.emitted)
    reduce_output_bytes = 0
    for key, value in ctx.emitted:
        reduce_output_bytes += estimate_size(key) + estimate_size(value)
    metrics.reduce_output_bytes += reduce_output_bytes
    return out


def _account_partitions(source: Any, metrics: JobMetrics) -> None:
    """Fold a partitioned input's scanned/pruned counts into job metrics."""
    counts = getattr(source, "partition_counts", None)
    if counts is None:
        return
    scanned, pruned = counts()
    metrics.partitions_scanned += scanned
    metrics.partitions_pruned += pruned


def write_job_output(conf: JobConf, outputs: List[Tuple[Any, Any]]) -> None:
    """Write final pairs to ``conf.output_path`` as a record file."""
    key_schema = conf.output_key_schema
    value_schema = conf.output_value_schema
    if key_schema is None or value_schema is None:
        raise JobExecutionError(
            f"job {conf.name!r} sets output_path but not output schemas"
        )
    with RecordFileWriter(conf.output_path, key_schema, value_schema) as w:
        for key, value in outputs:
            w.append(_coerce(key, key_schema), _coerce(value, value_schema))


#: One map task of a job group: ``(per-member input tags, split)``.
MapTask = Tuple[List[Optional[str]], Any]

#: One map task's per-member ``(metrics, counters)`` deltas.
MapDeltas = List[Tuple[JobMetrics, Counters]]

#: One reduce partition's ``(member, partition, outputs, metrics,
#: counters)``.
ReduceRow = Tuple[int, int, List[Tuple[Any, Any]], JobMetrics, Counters]

#: A dispatcher executes a group's tasks: given the members and their
#: map tasks it returns every task's :data:`MapDeltas` in task order and
#: a :data:`ReduceRow` per non-empty reduce partition in ``(member,
#: partition)`` order.
Dispatcher = Callable[
    [Sequence[JobConf], List[MapTask]],
    Tuple[List[MapDeltas], List[ReduceRow]],
]


def run_tasks_in_process(
    confs: Sequence[JobConf], tasks: List[MapTask]
) -> Tuple[List[MapDeltas], List[ReduceRow]]:
    """The sequential dispatcher: one task at a time, shuffle in memory.

    Every in-process execution goes through here: the sequential runner
    always, the parallel runner for groups that do not fan out and for
    groups its pool gave up on.
    """
    partitions: List[List[List[Tuple[Any, Any]]]] = [
        [[] for _ in range(conf.num_reducers)] for conf in confs
    ]
    map_deltas: List[MapDeltas] = []
    for tags, split in tasks:
        results = execute_map_tasks(confs, tags, split)
        map_deltas.append([(r.metrics, r.counters) for r in results])
        for member_partitions, result in zip(partitions, results):
            for part, pairs in enumerate(result.partitions):
                member_partitions[part].extend(pairs)
    reduced: List[ReduceRow] = []
    for member, conf in enumerate(confs):
        for part, pairs in enumerate(partitions[member]):
            if not pairs:
                continue
            out = execute_reduce_partition(conf, pairs)
            reduced.append(
                (member, part, out.outputs, out.metrics, out.counters)
            )
    return map_deltas, reduced


def run_job_group(
    confs: Sequence[JobConf], dispatch: Dispatcher, splits_per_input: int
) -> List[JobResult]:
    """The job driver: run N >= 1 jobs over one scan of their inputs.

    The members must share their inputs -- input *k* of every member
    addresses the same storage -- so the splits are enumerated once,
    from the first member, and each map task runs once for the whole
    group (:func:`execute_map_tasks`).  ``dispatch`` decides *where*
    tasks run; this function alone decides how results come back
    together: per member, map deltas fold in task order, then reduce
    deltas and outputs in partition order -- the sequential accumulation
    order every runner is byte-identical to.  A solo job is the N = 1
    case, not a separate path.
    """
    start = time.perf_counter()
    results = [
        JobResult(job_name=conf.name, outputs=[], counters=Counters(),
                  metrics=JobMetrics())
        for conf in confs
    ]
    tasks: List[MapTask] = []
    for index, source in enumerate(confs[0].inputs):
        for conf, result in zip(confs, results):
            _account_partitions(conf.inputs[index], result.metrics)
        tags = [conf.inputs[index].tag for conf in confs]
        for split in source.splits(splits_per_input):
            tasks.append((tags, split))

    map_deltas, reduced = dispatch(confs, tasks)
    for deltas in map_deltas:
        for result, (metrics, counters) in zip(results, deltas):
            result.metrics.merge(metrics)
            result.counters.merge(counters)
    for result in results:
        result.metrics.map_tasks = len(tasks)
        result.counters.increment(FRAMEWORK_GROUP, "map_tasks", len(tasks))
    for member, _part, outputs, metrics, counters in reduced:
        result = results[member]
        result.metrics.merge(metrics)
        result.counters.merge(counters)
        result.outputs.extend(outputs)

    for conf, result in zip(confs, results):
        if conf.output_path is not None:
            write_job_output(conf, result.outputs)
        result.metrics.wall_seconds = time.perf_counter() - start
        result.counters.increment(
            FRAMEWORK_GROUP, "reduce_output_records", len(result.outputs)
        )
    return results


class LocalJobRunner:
    """Runs jobs sequentially in-process with full metric accounting.

    This is the reference execution fabric: one task at a time, one
    process, fully deterministic.  Swap in
    :class:`~repro.mapreduce.parallel.ParallelJobRunner` (or set
    ``JobConf.parallelism``) for multi-core execution with identical
    output bytes.
    """

    def __init__(self, splits_per_input: int = 10):
        #: target number of splits (map tasks) per input source
        self.splits_per_input = splits_per_input

    def run(self, conf: JobConf) -> JobResult:
        return self.run_group([conf])[0]

    def run_group(self, confs: Sequence[JobConf]) -> List[JobResult]:
        """Run jobs sharing their inputs as one pass; one result each."""
        return run_job_group(
            confs, run_tasks_in_process, self.splits_per_input
        )


def _coerce(value: Any, schema: Schema) -> Record:
    """Wrap a primitive into a one-field record when schemas expect it."""
    if isinstance(value, Record):
        return value
    if len(schema.fields) == 1:
        return schema.make(value)
    raise JobExecutionError(
        f"cannot coerce {type(value).__name__} into schema {schema.name!r}"
    )


#: Shared default runner.
DEFAULT_RUNNER = LocalJobRunner()


def run_job(conf: JobConf, runner: Optional[Any] = None) -> JobResult:
    """Run a job and return its :class:`~repro.mapreduce.job.JobResult`.

    This is the convenience entry point for running a
    :class:`~repro.mapreduce.job.JobConf` without going through the
    Manimal optimizer.

    ``runner`` accepts the same knob everywhere in the system does:

    * ``None`` -- use ``conf.parallelism`` if set (>1 selects a
      :class:`~repro.mapreduce.parallel.ParallelJobRunner` with that many
      workers, 1 forces sequential, 0 auto-detects the CPU count), else
      the sequential :data:`DEFAULT_RUNNER`;
    * an ``int`` -- worker count (1 means sequential, 0 means auto);
    * ``"local"`` / ``"parallel"`` -- runner by name;
    * any object with a ``run(conf)`` method -- used as-is.

    Output is byte-identical across all of these; see
    ``docs/execution-model.md`` for the determinism guarantees.
    """
    from repro.mapreduce.parallel import resolve_runner

    return resolve_runner(runner, conf=conf, default=DEFAULT_RUNNER).run(conf)
