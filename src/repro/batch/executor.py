"""The vectorized map-task executor: one block pass, N >= 1 stage scans.

:func:`run_batch_map_task` is the batch path's single entry point, called
from :func:`repro.mapreduce.runtime.execute_map_tasks` when any member of
a job group carries a :class:`~repro.batch.spec.BatchStageSpec` for the
split's input tag.  A job group is the unit and a solo job is a group of
one: the task walks the split's recordfile blocks once, decodes the
**union** of the columns its members need once per block (for one
member, exactly that member's own decode plan), and hands every
:class:`~repro.batch.columns.ColumnBatch` to each member's
:class:`StageScan` -- the one block loop, and the one pre-aggregation
fold, every spec runs through.  Because that
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
from itertools import compress
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.batch.columns import (
    ColumnBatch,
    ScanPlan,
    build_scan_plan,
    iter_column_batches,
)
from repro.batch.kernels import KEY_COLUMN, PredicateKernel, compile_predicates
from repro.batch.spec import AGGREGATES, COLUMN, CONST, RECORD, BatchStageSpec, part_source
from repro.exceptions import JobExecutionError, ReproError
from repro.mapreduce.formats import (
    ColumnarFileInput,
    IndexRows,
    PartitionedInput,
    RecordFileInput,
    SelectionIndexInput,
    shaped_schema,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.keyspace import sort_keys
from repro.mapreduce.runtime import MapTaskResult, _finish_map_task
from repro.mapreduce.semijoin import KeySet
from repro.storage.blockfile import BlockFileReader
from repro.storage.blockscan import ReadShape
from repro.storage.columnar import ColumnarFileReader
from repro.storage.serialization import build_records
from repro.symbolic import SConst, STuple


#: Inputs whose splits are block runs of a record file, or of a
#: columnar catalog copy -- a selection index's sorted one included --
#: whose blocks already are columns.  Exact types on purpose: the
#: row-major delta/dictionary files users write (the scanner has their
#: shapes -- the record path reads through them -- but admitting them
#: here would move planned stages), in-memory pairs, or an unknown
#: subclass with different split payloads are not batch-scannable.
RECORD_BLOCK_INPUTS = (RecordFileInput, ColumnarFileInput,
                       SelectionIndexInput, PartitionedInput)


def batch_admission(
    spec: Any, source: Any, reader: Optional[BlockFileReader] = None,
) -> Union[Tuple[ScanPlan, Optional[PredicateKernel]], str]:
    """Can ``spec`` be served vectorized over ``source``?

    Returns the member's ``(scan plan, compiled predicate kernel)``, or
    the reason it must take the record path.  ``reader`` is a map task's
    already-open reader on the split's file (or, for a file an earlier
    stage has yet to write, its schemas); planning callers omit it and
    the schemas come from the file header (the sidecar, for a partitioned
    dataset).
    """
    if type(source) not in RECORD_BLOCK_INPUTS:
        return "input is not a plain record-file scan"
    if not isinstance(spec, BatchStageSpec):
        return "stage is not analyzer-described"
    columnar = isinstance(source, ColumnarFileInput)
    try:
        if reader is not None:
            header = reader
        elif type(source) is PartitionedInput:
            header = source.info()
        else:
            header = source.reader_class(source.path)
            header.close()  # opening reads the header; nothing else is needed
    except (OSError, ReproError):
        return "input file is unreadable"
    if columnar and "dict" in header.codecs.values():
        return "input holds dictionary codes"
    plan = build_scan_plan(header.key_schema, header.value_schema, spec,
                           columnar)
    if plan is None:
        return "opaque schema or missing needed column"
    try:
        kernel = compile_predicates(spec.predicates, spec.kernel_exprs())
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

    ``process`` is the block loop -- kernel selection and derived
    values, the emitted parts gathered a column at a time, then either
    the pairs or the pre-aggregation fold in first-occurrence order --
    and ``finish`` charges the member's solo-parity accounting and runs
    its own ``_finish_map_task`` tail.  Nothing here knows how many
    other members share the pass, which is what makes a member's task
    output equal its solo batch run by construction.
    """

    def __init__(self, conf: JobConf, spec: BatchStageSpec,
                 reader: BlockFileReader, plan: ScanPlan,
                 kernel: Optional[PredicateKernel]):
        self.conf = conf
        self.spec = spec
        #: this member's *own* decode plan: the columns it adds to the
        #: pass, and the honest ``fields_deserialized`` width (a member
        #: is never billed for columns other members forced in)
        self.plan = plan
        self.kernel = kernel
        slots = {name: i for i, (name, _expr) in enumerate(spec.derived
                                                            or ())}
        # Each emitted part as (kind, constant or record schema, column
        # refs): (column name, slot of the derived value of that name);
        # the whole key is KEY_COLUMN, the whole scanned record the
        # record path's.
        self.sources: List[Tuple[str, Any, List[Tuple]]] = []
        for part in spec.emit_parts():
            kind, arg = part_source(part)
            scanned = kind == RECORD and arg is None
            if scanned:
                arg = shaped_schema(reader.stored_schema, spec.project_columns)
            names = (arg.field_names() if kind == RECORD
                     else [KEY_COLUMN if arg is None else arg]
                     if kind == COLUMN else [])
            self.sources.append((kind, arg, [
                (name, None if scanned else slots.get(name))
                for name in names]))
        self.tuple_value = isinstance(spec.emit[1], STuple)
        self.emitted: List[Tuple[Any, Any]] = []
        self.fold = (spec.fold is not None
                     and task_preagg_decline(spec, conf) is None)
        if self.fold:
            # The same merges the reducer applies, so partials here
            # reduce to the per-row bytes.
            self.merges = [AGGREGATES[op].pairwise for op in spec.fold
                           for _ in AGGREGATES[op].partial]
            self.tally = spec.fold == ["count"]
            self.groups: dict = {}
        #: a resolved semijoin's key set, applied to the key column before
        #: any record is gathered (a folding stage leaves it to the tail),
        #: and how many rows it dropped
        self.key_set = (conf.shuffle_filter
                        if isinstance(conf.shuffle_filter, KeySet)
                        and not self.fold else None)
        self.dropped = None if self.key_set is None else 0

    def process(self, batch: ColumnBatch) -> None:
        """Run this member's stage over one decoded block: the kernel
        selects the rows that emit and computes their derived values;
        columns, keys and records (built a block at a time) are gathered
        at the passing rows."""
        keys = batch.keys

        def scanned(name: str) -> Sequence[Any]:
            return keys if name == KEY_COLUMN else batch.column(name)

        passed: Optional[Sequence[int]] = None  # None: every row
        derived: Sequence[Sequence[Any]] = ()
        if self.kernel is not None:
            selected = self.kernel.select(batch.n_rows, scanned)
            if self.spec.derived is not None:
                rows, *derived = selected
            else:
                rows = selected
            if self.spec.predicates:
                passed = rows
        n = batch.n_rows if passed is None else len(passed)

        def gather(name: str, slot: Optional[int]) -> Sequence[Any]:
            if slot is not None:
                return derived[slot]
            values = scanned(name)
            return values if passed is None \
                else list(map(values.__getitem__, passed))

        def part(kind: str, arg: Any, refs: List[Tuple]) -> Sequence[Any]:
            if kind == CONST:
                return [arg] * n
            if kind == RECORD:
                return build_records(arg, [gather(*r) for r in refs], n)
            return gather(*refs[0])

        if self.key_set is not None and n:
            # The semijoin: rows whose group cannot emit go before their
            # records are built (derived values were computed above, so
            # one that raises still does).
            keep = self.key_set.mask(part(*self.sources[0]))
            if keep is not None and not all(keep):
                kept = list(compress(range(n), keep))
                self.dropped += n - len(kept)
                passed = kept if passed is None \
                    else list(map(passed.__getitem__, kept))
                derived = [list(map(column.__getitem__, kept))
                           for column in derived]
                n = len(kept)

        key_column, *values = [part(*source) for source in self.sources]
        if not self.fold:
            self.emitted.extend(zip(
                key_column,
                zip(*values) if self.tuple_value else values[0]))
            return
        # Hash-fold into one partial per group per task, in first-
        # occurrence order -- exactly the representative-key order the
        # reducer's stable sort would have picked from the raw rows.
        groups = self.groups
        if self.tally:
            # a lone count: one C-level tally per block
            for group, count in Counter(key_column).items():
                accs = groups.get(group)
                if accs is None:
                    groups[group] = [count]
                else:
                    accs[0] += count
            return
        merges = self.merges
        for group, partial in zip(key_column, zip(*values)):
            accs = groups.get(group)
            if accs is None:
                groups[group] = list(partial)
            else:
                for j, merge in enumerate(merges):
                    accs[j] = merge(accs[j], partial[j])

    def finish(self, n_rows: int, skipped: int, stored_bytes: int,
               logical_bytes: int) -> MapTaskResult:
        """Close the pass: flush partials, account, run the output tail.

        Solo-parity accounting: the member is charged the full pass it
        would have performed alone -- same records, same stored/logical
        bytes, and its *own* plan's decode width -- so its merged job
        metrics match its solo run on every volume field.
        """
        if self.fold:
            append = self.emitted.append
            for group, accs in self.groups.items():
                append((group, accs[0] if len(accs) == 1 else tuple(accs)))
        out = MapTaskResult(
            partitions=[[] for _ in range(self.conf.num_reducers)]
        )
        metrics = out.metrics
        metrics.map_input_records += n_rows
        metrics.records_skipped += skipped
        metrics.map_input_stored_bytes += stored_bytes
        metrics.map_input_logical_bytes += logical_bytes
        # Decode accounting: the batch scan decodes exactly the captured
        # columns, once per row -- the record path's rule too (captured
        # width x records), under which a record costs at least one
        # field, even with none captured.
        metrics.fields_deserialized += max(1, self.plan.n_slots) * n_rows
        metrics.batch_map_tasks += 1
        _finish_map_task(self.conf, out, self.emitted, self.dropped)
        return out


def _union_plan(reader: BlockFileReader, plans: Sequence[ScanPlan],
                rows: Optional[IndexRows]) -> ScanPlan:
    """The pass's decode plan: every column any member's plan needs,
    once, and what choosing a selection-index split's ``rows`` reads.

    For a single member of any other split this is that member's own
    plan, slot for slot.
    """
    shape = ReadShape(any(plan.decode_keys for plan in plans),
                      tuple(dict.fromkeys(name for plan in plans
                                          for name in plan.slots)))
    if rows is not None:
        shape = rows.widen(shape)
    return ScanPlan(
        reader.key_schema, reader.value_schema,
        reader.value_schema.field_names() if shape.fields is None
        else list(shape.fields),
        decode_keys=shape.decode_keys,
        columnar=isinstance(reader, ColumnarFileReader),
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
    reader, blocks, rows = source.split_blocks(split)
    with reader:
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
        n_rows = logical_bytes = skipped = 0
        try:
            for batch in iter_column_batches(
                reader, blocks,
                _union_plan(reader, [scan.plan for scan in live], rows), rows
            ):
                n_rows += batch.n_rows
                logical_bytes += batch.logical_bytes
                skipped += batch.skipped
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
        else scan.finish(n_rows, skipped, stored_bytes, logical_bytes)
        for scan in scans
    ]


def scan_keys(spec: BatchStageSpec, splits: Sequence[Any]
              ) -> Optional[Tuple[FrozenSet[Tuple], int, int]]:
    """A semijoin's key-only pass over its build side's ``splits``:
    ``spec``'s kernel predicates and its key column, no records, no emit.

    Returns the sort keys of every key the build side's map tasks emit,
    with the stored bytes and the fields the pass read -- or ``None``
    when a split is outside the batch path's reach or the pass raised:
    the job then runs unfiltered, and its own map task raises whatever
    the pass met.
    """
    _kind, name = part_source(spec.emit[0])
    key_spec = BatchStageSpec((spec.emit[0], SConst(None)),
                              predicates=spec.predicates)
    members: set = set()
    stored_bytes = fields = 0
    try:
        for split in splits:
            source = split.source
            if type(source) not in RECORD_BLOCK_INPUTS:
                return None
            reader, blocks, rows = source.split_blocks(split)
            with reader:
                admitted = batch_admission(key_spec, source, reader)
                if isinstance(admitted, str):
                    return None
                plan, kernel = admitted
                for batch in iter_column_batches(
                        reader, blocks, _union_plan(reader, [plan], rows),
                        rows):
                    column = batch.keys if name is None \
                        else batch.column(name)
                    if kernel is not None:
                        selected = kernel.select(
                            batch.n_rows, lambda col, b=batch: b.keys
                            if col == KEY_COLUMN else b.column(col))
                        column = list(map(column.__getitem__, selected))
                    members.update(sort_keys(column))
                    fields += max(1, plan.n_slots) * batch.n_rows
                stored_bytes += reader.bytes_read
    except Exception:  # noqa: BLE001 -- an optimization's boundary: the
        return None      # job runs unfiltered and its map task raises it
    return frozenset(members), stored_bytes, fields
