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

The task bodies do the framework's own per-pair bookkeeping -- sizing,
partition routing, sort keys -- a *column* at a time through
:mod:`~repro.mapreduce.keyspace` (``pair_sizes``, ``stable_hashes``,
``sort_keys``), each exactly its per-item spelling, exceptions included.
The reduce loop (:func:`_reduce_groups`, behind every reduce partition
and every combiner) is a column at a time too: a partition is sorted as
one index permutation (``keyspace.sort_order``), its group boundaries
are found once over the sorted column, and each ``reduce()`` call gets
the group's first key and a slice of the value column -- or, for a
reducer the analyzer described as one emit of ``sum``/``min``/``max``
over its values, no call at all: the groups fold a column at a time.

Cluster-scale parallelism is still *modeled* separately by
:mod:`repro.mapreduce.cost` from the byte/record metrics collected here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import accumulate, compress
from operator import itemgetter, ne, sub
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import JobExecutionError
from repro.mapreduce.api import Context, Partitioner
from repro.mapreduce.counters import FRAMEWORK_GROUP, Counters
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.keyspace import pair_sizes, sort_order, stable_hashes
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.semijoin import KeySet, Semijoin
from repro.mapreduce.shuffle import decorated_chunks
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Record, Schema

#: A pair's key and value, for splitting a pair stream into columns.
_KEY = itemgetter(0)
_VALUE = itemgetter(1)


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
    metrics.fields_deserialized += reader.fields
    metrics.records_skipped += reader.skipped
    counters.merge(ctx.counters)
    _finish_map_task(conf, out, ctx.emitted)
    return out


def _finish_map_task(
    conf: JobConf, out: MapTaskResult, emitted: List[Tuple[Any, Any]],
    dropped: Optional[int] = None,
) -> None:
    """The map task's output tail: semijoin, size, combine, filter,
    partition.

    Shared verbatim between the record path above and the vectorized
    batch executor (:mod:`repro.batch.executor`): however the ``emitted``
    pairs were produced, they go through identical combining, shuffle
    filtering, partition routing and byte accounting, which is what makes
    the two paths' task results interchangeable.

    The bookkeeping runs a column at a time (:mod:`~repro.mapreduce.keyspace`):
    the emitted keys and values are sized once, and the shuffle stream
    is re-sized only when the combiner or the shuffle filter changed it
    (not when a described combiner's fold passed every pair through);
    the default partitioner routes the whole key column with one
    :func:`~repro.mapreduce.keyspace.stable_hashes` pass, where a user
    partitioner is called once per key.

    A resolved semijoin (:class:`~repro.mapreduce.semijoin.KeySet`)
    drops the pairs whose group cannot emit before anything is sized;
    ``dropped`` says the batch path already did, and how many it
    dropped.  They count as map output records, and as skipped.
    """
    metrics = out.metrics
    shuffle_filter = conf.shuffle_filter
    if isinstance(shuffle_filter, KeySet):
        if dropped is None:
            emitted, dropped = shuffle_filter.drop(emitted)
        shuffle_filter = shuffle_filter.inner
    metrics.map_output_records += len(emitted) + (dropped or 0)
    metrics.shuffle_records_skipped += dropped or 0
    pairs = emitted
    keys, values, (key_bytes, value_bytes) = _columns(pairs)
    metrics.map_output_bytes += key_bytes + value_bytes

    if conf.combiner is not None and pairs:
        pairs, passed = _run_combiner(conf, keys, values, out.counters)
        keys, values = list(map(_KEY, pairs)), list(map(_VALUE, pairs))
        if not passed:  # else the same pairs in key order: same sizes
            key_bytes, value_bytes = pair_sizes(keys, values)

    if shuffle_filter is not None and pairs:
        # Appendix E: delete map outputs whose group the reducer
        # provably ignores, before they cost shuffle/sort work.
        kept = list(map(shuffle_filter, keys))
        if not all(kept):
            pairs = list(compress(pairs, kept))
            metrics.shuffle_records_skipped += len(kept) - len(pairs)
            keys, values, (key_bytes, value_bytes) = _columns(pairs)

    n_reducers = conf.num_reducers
    partition = conf.partitioner.partition
    if getattr(partition, "__func__", None) is Partitioner.partition:
        parts: Iterable[int] = map(n_reducers.__rmod__, stable_hashes(keys))
    else:
        parts = [partition(key, n_reducers) for key in keys]
    appends = [part.append for part in out.partitions]
    for append, pair in zip(map(appends.__getitem__, parts), pairs):
        append(pair)
    metrics.shuffle_records += len(pairs)
    metrics.shuffle_key_bytes += key_bytes
    metrics.shuffle_bytes += key_bytes + value_bytes


def _columns(
    pairs: List[Tuple[Any, Any]]
) -> Tuple[List[Any], List[Any], Tuple[int, int]]:
    """A pair stream's key column, value column and their sizes."""
    keys = list(map(_KEY, pairs))
    values = list(map(_VALUE, pairs))
    return keys, values, pair_sizes(keys, values)


def _run_combiner(
    conf: JobConf,
    keys: List[Any],
    values: List[Any],
    counters: Counters,
) -> Tuple[List[Tuple[Any, Any]], bool]:
    """The combined pairs, and whether the combiner's fold passed every
    pair through as it was (see :func:`_reduce_groups`)."""
    combiner = conf.make_combiner()
    assert combiner is not None
    ctx = Context()
    chunk = _sorted_chunk(keys, values)
    try:
        combiner.setup(ctx)
        passed = _reduce_groups([chunk], combiner.reduce, ctx, "combine()",
                                conf.combiner_fold)[2]
        combiner.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"combiner failed in job {conf.name!r}: {exc}"
        ) from exc
    counters.merge(ctx.counters)
    return ctx.emitted, passed


#: Three aligned columns of a sorted stream: the column its groups are
#: found on (equal neighbours are one group), the keys and the values.
Chunk = Tuple[Sequence[Any], Sequence[Any], List[Any]]


def _sorted_chunk(keys: List[Any], values: List[Any]) -> Chunk:
    """A pair stream's columns stable-sorted by key, as one chunk.

    Sorted and grouped on the raw keys or on their sort keys, whichever
    :func:`~repro.mapreduce.keyspace.sort_order` chose; it raises, before
    any user code runs, for a key that cannot be shuffled.
    """
    order, column = sort_order(keys)
    sorted_keys = list(map(keys.__getitem__, order))
    column = (sorted_keys if column is keys
              else list(map(column.__getitem__, order)))
    return column, sorted_keys, list(map(values.__getitem__, order))


def _reduce_groups(
    chunks: Iterable[Chunk],
    reduce_fn: Callable[[Any, List[Any], Context], Any],
    ctx: Context,
    where: str,
    fold: Optional[Callable[[List[Any]], Any]] = None,
) -> Tuple[int, int, bool]:
    """The one reduce loop: ``reduce_fn`` once per group of a sorted stream.

    ``chunks`` is the stream in sort order, a :data:`Chunk` at a time.
    Each chunk's group boundaries are found once, by comparing its
    grouping column with itself shifted by one; each call gets the
    group's first key (in emit order) and a fresh list of its values.
    The last group of a chunk stays open until the next chunk shows
    whether it continues, so a group may span any number of chunks.

    A described reducer's ``fold`` (:attr:`JobConf.reducer_fold`: the
    builtin its whole ``reduce()`` emits over the values, with the
    group's key) replaces the calls: each group emits the pair that call
    would, computed a column at a time (:func:`_fold_groups`).
    Returns ``(groups, records, passed)``: ``passed`` says the fold
    emitted every pair of the stream as it was.
    """
    def call(key: Any, group: List[Any]) -> bool:
        if fold is not None:
            [value], same = _fold_groups(fold, group, [0, len(group)])
            ctx.emit(key, value)
            return same
        result = reduce_fn(key, group, ctx)
        if result is not None:
            _collect_yielded(ctx, result, where)
        return False

    groups = records = 0
    passed = fold is not None
    held: Optional[Tuple[Any, Any, List[Any]]] = None  # the open group
    for column, keys, values in chunks:
        n = len(column)
        if not n:
            continue
        records += n
        starts = [0, *compress(range(1, n), map(ne, column[1:], column))]
        if held is not None:
            mark, key, group = held
            if column[0] == mark:  # the open group continues here
                end = starts[1] if len(starts) > 1 else n
                group += values[:end]
                if end == n:
                    continue
                del starts[0]
            passed = call(key, group) and passed
        groups += len(starts)
        if fold is not None:  # the chunk's closed groups
            folded, same = _fold_groups(fold, values, starts)
            ctx.emitted.extend(zip(map(keys.__getitem__, starts[:-1]),
                                   folded))
            passed = passed and same
        else:
            for i, j in zip(starts, starts[1:]):  # call(), one frame fewer
                result = reduce_fn(keys[i], values[i:j], ctx)
                if result is not None:
                    _collect_yielded(ctx, result, where)
        last = starts[-1]
        held = column[last], keys[last], values[last:]
    if held is not None:
        passed = call(held[1], held[2]) and passed
    return groups, records, passed


#: the value types ``sum`` folds by prefix sums
_INT = {int}


def _fold_groups(fold: Callable[[List[Any]], Any], values: List[Any],
                 bounds: List[int]) -> Tuple[List[Any], bool]:
    """``fold(values[i:j])`` for each consecutive ``i, j`` of ``bounds``,
    and whether each group was one value ``fold`` returns as it is.

    That is every value for ``min``/``max``, but only an exact ``int``
    for ``sum`` (``sum([True])`` is ``1``, ``sum([-0.0])`` is ``0.0``);
    an all-``int`` column sums by prefix sums, whose differences are
    exact; anything else is one builtin call per group.
    """
    ints = fold is sum and set(map(type, values)) == _INT
    lo, hi = bounds[0], bounds[-1]
    if len(bounds) - 1 == hi - lo and (ints or fold is not sum or lo == hi):
        return values[lo:hi], True
    if ints:
        prefix = [0, *accumulate(values)]
        return list(map(sub, map(prefix.__getitem__, bounds[1:]),
                        map(prefix.__getitem__, bounds))), False
    return list(map(fold, map(values.__getitem__,
                              map(slice, bounds, bounds[1:])))), False


def execute_reduce_partition(
    conf: JobConf,
    pairs: Iterable[Tuple[Any, ...]],
    presorted: bool = False,
    decorated: bool = False,
) -> ReduceTaskResult:
    """Run the reduce side of one partition.

    ``pairs`` is the partition's shuffle stream.  Plain (key, value)
    pairs (the sequential runner's) are split into key and value columns
    and stable-sorted here as one chunk (:func:`_sorted_chunk`), whether
    or not the caller passes ``presorted=True``: a stable sort leaves a
    stream already in key order as it is.  ``decorated=True`` (the
    parallel runner's, with ``presorted=True``) marks a merged
    stream of ``(sort_key, key, value)`` rows from sorted spill runs,
    consumed lazily a chunk at a time
    (:func:`~repro.mapreduce.shuffle.decorated_chunks`) and grouped by
    the stored decorations, so no sort key is recomputed.  Map-only jobs
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
        metrics.reduce_output_bytes += sum(_columns(out.outputs)[2])
        return out

    ctx = Context()
    if decorated:
        chunks: Iterable[Chunk] = decorated_chunks(pairs)
    else:
        if not isinstance(pairs, list):
            pairs = list(pairs)
        chunks = [_sorted_chunk(list(map(_KEY, pairs)),
                                list(map(_VALUE, pairs)))]
    try:
        reducer.setup(ctx)
        groups, records, _passed = _reduce_groups(
            chunks, reducer.reduce, ctx, "reduce()", conf.reducer_fold)
        metrics.reduce_groups += groups
        metrics.reduce_input_records += records
        reducer.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"reduce task failed in job {conf.name!r}: {exc}"
        ) from exc
    out.counters.merge(ctx.counters)
    out.outputs = ctx.emitted
    metrics.reduce_output_records += len(ctx.emitted)
    metrics.reduce_output_bytes += sum(_columns(ctx.emitted)[2])
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
    case, not a separate path.  Between enumerating the splits and
    dispatching, it resolves each member's
    :class:`~repro.mapreduce.semijoin.Semijoin` into the build side's key
    set, so no dispatcher needs a barrier inside the job.
    """
    start = time.perf_counter()
    results = [
        JobResult(job_name=conf.name, outputs=[], counters=Counters(),
                  metrics=JobMetrics())
        for conf in confs
    ]
    tasks: List[MapTask] = []
    splits = []
    for index, source in enumerate(confs[0].inputs):
        for conf, result in zip(confs, results):
            _account_partitions(conf.inputs[index], result.metrics)
        tags = [conf.inputs[index].tag for conf in confs]
        splits.append(source.splits(splits_per_input))
        tasks.extend((tags, split) for split in splits[-1])

    # A semijoin's key set: its build side's keys, from a key-only pass
    # over the splits just enumerated, charged to the job.  It rides the
    # conf, so every dispatcher filters with the same set.
    confs = list(confs)
    for member, conf in enumerate(confs):
        semijoin = conf.shuffle_filter
        if not isinstance(semijoin, Semijoin):
            continue
        from repro.batch.executor import scan_keys

        scanned = scan_keys(semijoin.spec, splits[semijoin.build])
        if scanned is None:  # the job runs unfiltered
            confs[member] = replace(conf, shuffle_filter=semijoin.inner)
            continue
        members, stored_bytes, fields = scanned
        metrics = results[member].metrics
        metrics.map_input_stored_bytes += stored_bytes
        metrics.fields_deserialized += fields
        confs[member] = replace(
            conf, shuffle_filter=semijoin.resolve(members))

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
