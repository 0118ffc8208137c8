"""The vectorized map-task executor: one block pass, N >= 1 stage scans.

:func:`run_batch_map_task` is the batch path's single entry point, called
from :func:`repro.mapreduce.runtime.execute_map_tasks` when any member of
a job group carries a :class:`~repro.batch.spec.BatchStageSpec` for the
split's input tag.  A job group is the unit and a solo job is a group of
one: the task walks the split's recordfile blocks once, decodes the
**union** of the columns its members need once per block (for one
member, exactly that member's own decode plan), and hands every
:class:`~repro.batch.columns.ColumnBatch` to each member's
:class:`StageScan` -- the only implementation of the projection /
join-side / aggregate / pre-aggregation block loops.  Because that
chokepoint serves the sequential runner and the parallel runner's
workers alike, every runner -- and every shared-scan group
(:mod:`repro.batch.multiscan`) -- consumes batches through this one
implementation.

A member's result is ``None`` -- *do it the record way* -- whenever
:func:`batch_admission` declines its spec over the concrete split.  That
function is the only place "can this spec be served over this input" is
decided: the task calls it per member, shared-scan grouping
(:func:`repro.batch.multiscan.plan_shared_groups`) calls it per
candidate, and ``Session.explain`` prints its answer for the input the
optimizer planned.  The caller then runs *that member's* record-path
mapper over the split while the others still share the pass.  When a
member is served, its rows re-materialize as ordinary
``Record``/primitive pairs at the emit boundary and flow through its own
``_finish_map_task`` sizing/combining/filtering/partitioning tail, so
the task's output -- and therefore the job's output -- is byte-identical
to the record path, and to the member's solo run, by construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.batch.columns import (
    ColumnBatch,
    ScanPlan,
    build_scan_plan,
    iter_column_batches,
)
from repro.batch.kernels import PredicateKernel, compile_predicates
from repro.batch.spec import AGGREGATES, BatchStageSpec
from repro.exceptions import JobExecutionError, ReproError
from repro.mapreduce.formats import (
    PartitionedInput,
    ProjectedFileInput,
    RecordFileInput,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.runtime import MapTaskResult, _finish_map_task
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import Record


#: Inputs whose splits are block lists of an identity-codec record file.
#: Exact types on purpose: B+Tree index scans, delta/dictionary value
#: codecs (the scanner has their shapes -- the record path reads through
#: them -- but admitting them here would move planned stages), in-memory
#: pairs, or an unknown subclass with different split payloads are not
#: batch-scannable.
RECORD_BLOCK_INPUTS = (RecordFileInput, ProjectedFileInput, PartitionedInput)


def batch_admission(
    spec: Any, source: Any, reader: Optional[RecordFileReader] = None,
) -> Union[Tuple[ScanPlan, Optional[PredicateKernel]], str]:
    """Can ``spec`` be served vectorized over ``source``?

    Returns the member's ``(scan plan, compiled predicate kernel)``, or
    the reason it must take the record path.  ``reader`` is a map task's
    already-open reader on the split's file; planning callers omit it and
    the schemas come from the file header (the sidecar, for a partitioned
    dataset).
    """
    if type(source) not in RECORD_BLOCK_INPUTS:
        return "input is not a plain record-file scan"
    if not isinstance(spec, BatchStageSpec):
        return "stage is not analyzer-described"
    try:
        if reader is not None:
            schemas = reader.key_schema, reader.value_schema
        elif type(source) is PartitionedInput:
            info = source.info()
            schemas = info.key_schema, info.value_schema
        else:
            with RecordFileReader(source.path) as header:
                schemas = header.key_schema, header.value_schema
    except (OSError, ReproError):
        return "input file is unreadable"
    plan = build_scan_plan(*schemas, spec)
    if plan is None:
        return "opaque schema or missing needed column"
    try:
        kernel = compile_predicates(spec.predicates, spec.derived_exprs())
    except TypeError:
        return "predicate is not compilable"
    return plan, kernel


def task_preagg_decline(spec: BatchStageSpec, conf: JobConf
                        ) -> Optional[str]:
    """Why an admitted aggregate member's map tasks will not fold rows
    into per-group partials (``None``: they will): the lowering's
    verdict, unless a combiner -- which expects per-row values -- has
    been set on the stage since."""
    if conf.combiner is not None:
        return "a combiner expects per-row values"
    return spec.no_preagg


class StageScan:
    """One member's per-task execution state inside a batch map task.

    ``process`` holds the block loops -- kernel selection, emit
    materialization, the pre-aggregation fold in first-occurrence order
    -- and ``finish`` charges the member's solo-parity accounting and
    runs its own ``_finish_map_task`` tail.  Nothing here knows how many
    other members share the pass, which is what makes a member's task
    output equal its solo batch run by construction.
    """

    def __init__(self, conf: JobConf, spec: BatchStageSpec,
                 reader: RecordFileReader, plan: ScanPlan,
                 kernel: Optional[PredicateKernel]):
        self.conf = conf
        self.spec = spec
        #: this member's *own* decode plan: the columns it adds to the
        #: pass, and the honest ``fields_deserialized`` width (a member
        #: is never billed for columns other members forced in)
        self.plan = plan
        self.kernel = kernel
        if spec.derived is not None:
            self.derived_slots = {
                name: i for i, (name, _expr) in enumerate(spec.derived)
            }
        self.emitted: List[Tuple[Any, Any]] = []
        self.aggregate = spec.kind == "aggregate"
        if self.aggregate:
            aggs = spec.aggs or []
            # The shuffled value's slots, from each aggregate's declared
            # partial: (input column, literal), the literal None when
            # the slot carries the column's value.
            self.slots = [
                (column, literal)
                for op, column in aggs for literal in AGGREGATES[op].partial
            ]
            # The same merges the reducer applies, so partials here
            # reduce to the per-row bytes.
            self.merges = [
                AGGREGATES[op].pairwise
                for op, _ in aggs for _ in AGGREGATES[op].partial
            ]
            self.tally = [op for op, _ in aggs] == ["count"]
            self.preagg = task_preagg_decline(spec, conf) is None
            self.groups: dict = {}
        else:
            self.emit_schema = spec.out_value_schema or reader.value_schema
            self.emit_names = self.emit_schema.field_names()
            self.join_side = spec.kind == "join-side"

    def process(self, batch: ColumnBatch) -> None:
        """Run this member's stage over one decoded block."""
        spec = self.spec
        if self.kernel is not None:
            selected: Any = self.kernel.select(batch.n_rows, batch.column)
        else:
            selected = range(batch.n_rows)
        if spec.derived is not None:
            # The kernel already computed the derived record of every
            # passing row; the loops below run over those as a batch of
            # their own -- same loops, derived columns.
            passed, *cols = selected
            keys = batch.keys
            batch = ColumnBatch(
                len(passed), cols, self.derived_slots,
                None if keys is None else [keys[i] for i in passed], 0,
            )
            selected = range(batch.n_rows)
        append = self.emitted.append
        if self.aggregate:
            # aggregate stages: emit (group value, partial slots) rows
            group_col = batch.column(spec.group_column)
            groups = self.groups
            if self.preagg and self.tally:
                # A lone count: one C-level tally per block, merged in
                # first-occurrence order (see below).
                tally = Counter(map(group_col.__getitem__, selected))
                for group, n in tally.items():
                    accs = groups.get(group)
                    if accs is None:
                        groups[group] = [n]
                    else:
                        accs[0] += n
                return
            cols = [
                batch.column(column) if literal is None
                else [literal] * batch.n_rows
                for column, literal in self.slots
            ]
            if self.preagg:
                # Hash-fold into one partial per group per task, in
                # first-occurrence order -- exactly the representative
                # -key order the reducer's stable sort would have picked
                # from the raw rows.
                merges = self.merges
                for i in selected:
                    group = group_col[i]
                    accs = groups.get(group)
                    if accs is None:
                        groups[group] = [c[i] for c in cols]
                    else:
                        for j, merge in enumerate(merges):
                            accs[j] = merge(accs[j], cols[j][i])
            elif len(cols) == 1:
                col = cols[0]
                for i in selected:
                    append((group_col[i], col[i]))
            else:
                for i in selected:
                    append((group_col[i], tuple([c[i] for c in cols])))
            return
        # map / join-side stages: filter rows, emit (key, value) pairs
        emit_schema = self.emit_schema
        keys = batch.keys
        cols = [batch.column(name) for name in self.emit_names]
        if self.join_side:
            on_col = batch.column(spec.join_on)
            join_tag = spec.join_tag
            for i in selected:
                append((
                    on_col[i],
                    (join_tag, Record(emit_schema, [c[i] for c in cols])),
                ))
        else:
            for i in selected:
                append((keys[i], Record(emit_schema, [c[i] for c in cols])))

    def finish(self, n_rows: int, stored_bytes: int,
               logical_bytes: int) -> MapTaskResult:
        """Close the pass: flush partials, account, run the output tail.

        Solo-parity accounting: the member is charged the full pass it
        would have performed alone -- same records, same stored/logical
        bytes, and its *own* plan's decode width -- so its merged job
        metrics match its solo run on every volume field.
        """
        if self.aggregate and self.preagg:
            append = self.emitted.append
            for group, accs in self.groups.items():
                append((group, accs[0] if len(accs) == 1 else tuple(accs)))
        out = MapTaskResult(
            partitions=[[] for _ in range(self.conf.num_reducers)]
        )
        metrics = out.metrics
        metrics.map_input_records += n_rows
        metrics.map_input_stored_bytes += stored_bytes
        metrics.map_input_logical_bytes += logical_bytes
        # Decode accounting: the batch scan decodes exactly the captured
        # columns, once per row -- the record path's rule too (stored
        # width x records), over the columns it captures: all of them.
        metrics.fields_deserialized += self.plan.n_slots * n_rows
        metrics.batch_map_tasks += 1
        _finish_map_task(self.conf, out, self.emitted)
        return out


def _union_plan(reader: RecordFileReader,
                scans: Sequence[StageScan]) -> ScanPlan:
    """The pass's decode plan: every column any member needs, once.

    For a single member this is that member's own plan, slot for slot.
    """
    capture: List[str] = []
    for scan in scans:
        for name in scan.plan.slots:
            if name not in capture:
                capture.append(name)
    return ScanPlan(
        reader.key_schema, reader.value_schema, capture,
        decode_keys=any(scan.plan.decode_keys for scan in scans),
    )


def run_batch_map_task(
    confs: Sequence[JobConf],
    specs: Sequence[Optional[BatchStageSpec]],
    split: Any,
) -> List[Optional[MapTaskResult]]:
    """Serve one map task vectorized for every member it can.

    ``specs[i]`` is member *i*'s spec for the split's input (``None``
    when its stage is not analyzer-described).  Returns one entry per
    member, aligned: a :class:`MapTaskResult`, or ``None`` for a member
    that must run its record path.
    """
    source = split.source
    if type(source) not in RECORD_BLOCK_INPUTS:
        return [None] * len(confs)
    if type(source) is PartitionedInput:
        path, blocks = split.payload
    else:
        path, blocks = source.path, split.payload
    with RecordFileReader(path) as reader:
        scans: List[Optional[StageScan]] = []
        for conf, spec in zip(confs, specs):
            admitted = batch_admission(spec, source, reader)
            scans.append(
                None if isinstance(admitted, str)
                else StageScan(conf, spec, reader, *admitted)
            )
        live = [scan for scan in scans if scan is not None]
        if not live:
            return [None] * len(confs)
        n_rows = 0
        logical_bytes = 0
        try:
            for batch in iter_column_batches(
                reader, blocks, _union_plan(reader, live)
            ):
                n_rows += batch.n_rows
                logical_bytes += batch.logical_bytes
                for scan in live:
                    scan.process(batch)
        except Exception as exc:
            names = "+".join(scan.conf.name for scan in live)
            raise JobExecutionError(
                f"map task failed in job {names!r}: {exc}"
            ) from exc
        stored_bytes = reader.bytes_read
    return [
        None if scan is None
        else scan.finish(n_rows, stored_bytes, logical_bytes)
        for scan in scans
    ]
