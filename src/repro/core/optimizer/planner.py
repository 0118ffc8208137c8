"""The Manimal optimizer: choosing an execution plan.

"The optimizer examines the descriptors, the user's input file, and the
catalog to choose the most efficient execution plan currently possible.
The resulting execution descriptor indicates to the final execution fabric
which index file to use, and which optimizations should be applied"
(paper Section 2.2).

Planning is rule-based, as in the paper ("solved with simple rule-based
heuristics ... a simple hard-coded ranking of applicable optimizations"):

1. selection+projection  (most work avoided: skip records AND bytes)
2. selection
3. projection+delta
4. projection
5. dictionary (direct operation)
6. delta

with the paper's one conflict rule built in -- selection is favored over
delta-compression, so the two never combine.

An index is only a candidate while its source still holds the bytes it
was built from: every entry carries the source's
:func:`~repro.storage.input_identity` at build time, and planning skips
(and reports) the ones the file on disk no longer matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.batch.executor import RECORD_BLOCK_INPUTS
from repro.batch.spec import AGGREGATES, COLUMN, part_source
from repro.core.analyzer.descriptors import InputAnalysis, JobAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.core.optimizer.pruning import (
    PruneResult,
    SelectionCompiler,
    prune_partitions,
)
from repro.exceptions import ReproError
from repro.mapreduce.formats import (
    BlockFileInput,
    ColumnarFileInput,
    InMemoryInput,
    InputSource,
    PartitionedInput,
    RecordFileInput,
    SelectionIndexInput,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.semijoin import Semijoin
from repro.storage import input_identity
from repro.storage.blockscan import FULL_READ, ReadShape
from repro.storage.columnar import CODECS, ColumnarFileReader

#: Optimization label for zone-map partition pruning (not an index kind:
#: it needs no catalog entry, only the dataset's statistics sidecar).
PARTITION_PRUNING = "partition-pruning"

#: Hard-coded applicability ranking (paper Section 2.2).
RANKING = (
    cat.KIND_SELECTION_PROJECTION,
    cat.KIND_SELECTION,
    cat.KIND_PROJECTION_DELTA,
    cat.KIND_PROJECTION,
    cat.KIND_DICTIONARY,
    cat.KIND_DELTA,
)


@dataclass
class InputPlan:
    """Plan for one input: which source actually feeds the map phase."""

    input_index: int
    original: InputSource
    chosen: InputSource
    entry: Optional[IndexEntry] = None
    optimizations: List[str] = field(default_factory=list)
    detail: str = ""
    #: the batch spec (the analyzer's, or a fluent stage's hint) the
    #: plan attaches for this input's tag (the executor re-checks it
    #: against each split) ...
    batch: Optional[Any] = None
    #: ... or why none is attached
    batch_decline: Optional[str] = None

    @property
    def optimized(self) -> bool:
        return self.entry is not None or bool(self.optimizations)

    def describe(self) -> str:
        if not self.optimized:
            line = (
                f"input[{self.input_index}]: unoptimized "
                f"{self.original.describe()}"
            )
            if self.detail:
                line += f" ({self.detail})"
            return line
        label = self.entry.kind if self.entry is not None \
            else "+".join(self.optimizations)
        return (
            f"input[{self.input_index}]: {label} via "
            f"{self.chosen.describe()} ({self.detail})"
        )


@dataclass
class ExecutionDescriptor:
    """The optimizer's output: per-input plans for the execution fabric."""

    job_name: str
    plans: List[InputPlan]
    #: Appendix E pre-shuffle group filter, when the reduce-side analysis
    #: found a key-only WHERE clause
    shuffle_filter: Optional[object] = None
    #: the semijoin the job runs as (:func:`plan_semijoin`) ...
    semijoin: Optional[Semijoin] = None
    #: ... or why it runs as a plain reduce-side join
    semijoin_decline: Optional[str] = None
    #: the fold ops of the analyzer's described reducer and combiner
    #: (:func:`~repro.core.analyzer.reduce_ext.describe_reducer`)
    reducer_fold: Optional[str] = None
    combiner_fold: Optional[str] = None

    @property
    def optimized(self) -> bool:
        return any(p.optimized for p in self.plans) or \
            self.shuffle_filter is not None or self.semijoin is not None

    def chosen_inputs(self) -> List[InputSource]:
        return [p.chosen for p in self.plans]

    def apply(self, conf: JobConf) -> JobConf:
        """Copy of ``conf`` as this plan executes it: the chosen inputs,
        their batch specs, this descriptor's shuffle-filter verdict --
        its semijoin, when it has one, around its Appendix E filter --
        and the merge builtins of its described reducer and combiner:
        the one way a batch spec, a semijoin or a reducer description
        reaches a job.

        The filter and the folds are always overwritten: ``with_inputs``
        copies the original's, so a descriptor without one must clear
        any stale one rather than leave the copy in place.
        """
        optimized = conf.with_inputs(self.chosen_inputs())
        optimized.shuffle_filter = self.shuffle_filter \
            if self.semijoin is None else self.semijoin
        optimized.reducer_fold, optimized.combiner_fold = (
            None if op is None else AGGREGATES[op].merge
            for op in (self.reducer_fold, self.combiner_fold))
        for plan in self.plans:
            if plan.batch is not None:
                optimized.batch_specs[plan.chosen.tag] = plan.batch
        return optimized

    def optimizations(self) -> List[str]:
        out: List[str] = []
        for plan in self.plans:
            out.extend(plan.optimizations)
        return out

    def describe(self) -> str:
        lines = [f"execution descriptor for job {self.job_name!r}:"]
        lines += [f"  {p.describe()}" for p in self.plans]
        if self.shuffle_filter is not None:
            lines.append(f"  pre-shuffle group filter: {self.shuffle_filter!r}")
        if self.semijoin is not None:
            lines.append("  semijoin: " + describe_semijoin(
                self.semijoin, self.chosen_inputs()))
        return "\n".join(lines)


def _input_label(index: int, source: InputSource) -> str:
    return f"input[{index}]" + ("" if source.tag is None
                                else f" {source.tag!r}")


def describe_semijoin(verdict: Union[Semijoin, str],
                      sources: Sequence[InputSource]) -> str:
    """``keys of <build> filter <the others>``, or ``declined (why)``."""
    if isinstance(verdict, str):
        return f"declined ({verdict})"
    probes = ", ".join(_input_label(i, source)
                       for i, source in enumerate(sources)
                       if i != verdict.build)
    return (f"keys of {_input_label(verdict.build, sources[verdict.build])} "
            f"filter {probes}")


def _planned_rows(source: InputSource) -> Optional[int]:
    """How many rows the planned splits of ``source`` hold, read from
    its block directories (``None``: not an input the key pass reads --
    only the batch path's block inputs and the planner's empty range)."""
    if type(source) is InMemoryInput and not source.pairs:
        return 0
    if type(source) not in RECORD_BLOCK_INPUTS:
        return None
    total = 0
    try:
        for split in source.splits(1):
            reader, blocks, _rows = source.split_blocks(split)
            reader.close()
            total += sum(block.n_records for block in blocks)
    except (OSError, ReproError):
        return None
    return total


def plan_semijoin(analysis: JobAnalysis, sources: Sequence[InputSource]
                  ) -> Union[Semijoin, str]:
    """The semijoin a job over planned inputs ``sources`` runs as, or
    why it runs without one.

    Of the inputs every emitting group holds a value from (the
    analyzer's proof), the build side is the one whose planned splits
    hold the fewest rows; its keys filter every other input.  It needs a
    batch spec that emits a scanned column -- or the input key -- as its
    key: the key pass reads that column without building a record.
    """
    required = analysis.required_inputs
    if required is None:
        return analysis.required_decline or "reducer not analyzed"
    rows = {index: _planned_rows(sources[index]) for index in required}
    sized = [index for index in required if rows[index] is not None]
    if not sized:
        return "no required input is a block scan the key pass reads"
    build = min(sized, key=rows.__getitem__)
    label = _input_label(build, sources[build])
    spec = analysis.inputs[build].batch_spec
    if spec is None:
        return f"build side {label} has no batch spec"
    kind, name = part_source(spec.emit[0])
    if kind != COLUMN or name in {derived for derived, _expr
                                  in spec.derived or ()}:
        return f"build side {label} emits a computed key"
    return Semijoin(build, spec, analysis.reduce_key_filter)


def _shaped(source: InputSource, ia: InputAnalysis) -> InputSource:
    """``source`` reading what the analyzer proved ``map()`` reads.

    Only the record path's block scans (block files, selection indexes
    among them, and partitions) honour a read shape; an in-memory input
    and every hinted (fluent) stage keep the full decode.  The shape is no
    optimization label: it flips neither ``optimized`` nor
    :meth:`ExecutionDescriptor.optimizations`.
    """
    if ia.read_shape is not None and isinstance(
            source, (BlockFileInput, PartitionedInput)):
        return source.with_shape(ia.read_shape)
    return source


def describe_read(source: InputSource, ia: InputAnalysis) -> str:
    """What the record path decodes of each record of planned input
    ``source`` for ``ia``'s map(): the ``decode:`` line of explain."""
    if not isinstance(source, (BlockFileInput, PartitionedInput)):
        return f"full ({source.describe()})"
    if isinstance(source, ColumnarFileInput):
        return _describe_columnar(source, ia.read_shape or FULL_READ)
    if ia.read_shape is None:
        return "full (fluent stage)"
    shape = ia.read_shape
    parts = [] if shape.decode_keys else ["key skipped"]
    if shape.fields is not None:
        width = len(ia.value_schema.fields)
        parts.append(f"{len(shape.fields)}/{width} value fields "
                     f"[{', '.join(shape.fields)}]")
    reasons = "; ".join(ia.read_notes)
    if not parts:
        return f"full ({reasons})"
    return "; ".join(parts) + (f" ({reasons})" if reasons else "")


def _describe_columnar(source: ColumnarFileInput, shape: ReadShape) -> str:
    """The ``decode:`` line of a catalog copy: the layout, the columns
    ``shape`` captures of those stored, and their codecs."""
    try:
        with ColumnarFileReader(source.path) as reader:
            stored = reader.stored_schema.field_names()
            codecs = reader.codecs
    except (OSError, ReproError):
        return f"columnar (unreadable: {source.describe()})"
    names = [name for name in stored
             if shape.fields is None or name in shape.fields]
    line = (f"columnar{'' if shape.decode_keys else ', key skipped'}; "
            f"{len(names)}/{len(stored)} columns [{', '.join(names)}]")
    coded = {codec: [name for name in names if codecs.get(name) == codec]
             for codec in CODECS}
    notes = "; ".join(f"{codec}: {', '.join(columns)}"
                      for codec, columns in coded.items() if columns)
    return line + (f" ({notes})" if notes else "")


class Optimizer:
    """Rule-based plan selection over the index catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def plan(self, conf: JobConf, analysis: JobAnalysis) -> ExecutionDescriptor:
        plans: List[InputPlan] = []
        tags = [source.tag for source in conf.inputs]
        for index, (source, ia) in enumerate(zip(conf.inputs, analysis.inputs)):
            plan = self._plan_input(index, source, ia)
            plan.chosen = _shaped(plan.chosen, ia)
            if ia.batch_spec is not None and tags.count(source.tag) > 1:
                # the runtime keys specs by input tag
                plan.batch_decline = (f"another input shares tag "
                                      f"{source.tag!r}")
            else:
                plan.batch, plan.batch_decline = (ia.batch_spec,
                                                  ia.batch_decline)
            plans.append(plan)
        # Record usage (feeds the space budget's LRU eviction) in one
        # registry transaction for the whole plan.
        used = [p.entry.index_id for p in plans if p.entry is not None]
        if used:
            self.catalog.touch_many(used)
        semijoin = plan_semijoin(analysis, [p.chosen for p in plans])
        return ExecutionDescriptor(
            job_name=conf.name,
            plans=plans,
            shuffle_filter=analysis.reduce_key_filter,
            semijoin=None if isinstance(semijoin, str) else semijoin,
            semijoin_decline=semijoin if isinstance(semijoin, str) else None,
            reducer_fold=analysis.reducer_fold,
            combiner_fold=analysis.combiner_fold,
        )

    def _plan_input(self, index: int, source: InputSource,
                    ia: InputAnalysis) -> InputPlan:
        unoptimized = InputPlan(
            input_index=index, original=source, chosen=source
        )
        # Partitioned datasets carry their own statistics sidecar; the
        # selection descriptor is compiled once and checked against each
        # partition's zone maps before anything is read.
        if isinstance(source, PartitionedInput):
            return self._plan_partitioned(index, source, ia)
        # Only plain record-file scans can be redirected at an index; jobs
        # already reading an optimized format pass through untouched.
        if type(source) is not RecordFileInput:
            unoptimized.detail = "input is not a plain record-file scan"
            return unoptimized
        fresh, stale, old = self._fresh_entries(source.path)
        if not (fresh or stale or old):
            unoptimized.detail = "no indexes in catalog for this input"
            return unoptimized
        chosen = self._choose(index, source, ia) if fresh else None
        if chosen is not None:
            return chosen
        unoptimized.detail = (
            f"stale: source rewritten since build ({stale} index(es) skipped)"
            if stale else
            "old format: " + "; ".join(
                f"{n} {what} skipped" for what, n in old.items())
            + "; build_indexes rebuilds them" if old else
            "no catalog index is applicable to this program"
        )
        return unoptimized

    def _fresh_entries(self, source_path: str
                       ) -> Tuple[List[IndexEntry], int, Dict[str, int]]:
        """The indexes built from the bytes ``source_path`` holds now; how
        many others were skipped because it was rewritten since; and, by
        what they held, how many because they are in a retired format."""
        entries = self.catalog.entries_for(source_path)
        identity = input_identity(source_path)
        fresh = [e for e in entries if e.built_from(identity)]
        old: Dict[str, int] = {}
        for entry in entries:
            what = cat.old_format(entry.index_path)
            if what is not None:
                old[what] = old.get(what, 0) + 1
        return fresh, len(entries) - len(fresh) - sum(old.values()), old

    def applicable_plans(self, index: int, source: RecordFileInput,
                         ia: InputAnalysis) -> List[InputPlan]:
        """Every applicable (index, input-format) plan, in ranking order.

        One :class:`SelectionCompiler` serves every candidate entry, so
        ``compile_selection`` runs at most once per indexed field no
        matter how many catalog entries share it.
        """
        compiled = SelectionCompiler(ia)
        plans: List[InputPlan] = []
        candidates, _stale, _old = self._fresh_entries(source.path)
        for kind in RANKING:
            for entry in candidates:
                if entry.kind != kind:
                    continue
                plan = self._try_apply(index, source, ia, entry, compiled)
                if plan is not None:
                    plans.append(plan)
        return plans

    def _choose(self, index: int, source: RecordFileInput,
                ia: InputAnalysis) -> Optional[InputPlan]:
        """Pick among applicable plans; the base class takes the
        hard-coded ranking's first hit (paper Section 2.2)."""
        plans = self.applicable_plans(index, source, ia)
        return plans[0] if plans else None

    # -- partition pruning -------------------------------------------------------

    def _plan_partitioned(self, index: int, source: PartitionedInput,
                          ia: InputAnalysis) -> InputPlan:
        """Prune a partitioned input's partitions against its zone maps."""
        compiled = SelectionCompiler(ia)
        result = prune_partitions(compiled, source.info())
        detail = result.detail()
        if result.pruned == 0:
            # Nothing to drop: pass the input through, but surface the
            # verdict so explain output always reports ``pruned k/n``.
            return InputPlan(
                input_index=index,
                original=source,
                chosen=source,
                detail=detail,
            )
        chosen = source.with_partitions(
            [p.file for p in result.kept], pruned_detail=detail
        )
        plan = InputPlan(
            input_index=index,
            original=source,
            chosen=chosen,
            optimizations=[PARTITION_PRUNING],
            detail=detail,
        )
        self._annotate_partition_plan(plan, source, ia, result)
        return plan

    def _annotate_partition_plan(self, plan: InputPlan,
                                 source: PartitionedInput, ia: InputAnalysis,
                                 result: PruneResult) -> None:
        """Hook for subclasses to enrich a pruning plan (cost estimates)."""

    # -- applicability ----------------------------------------------------------

    def _try_apply(self, index: int, source: RecordFileInput,
                   ia: InputAnalysis, entry: IndexEntry,
                   compiled: SelectionCompiler) -> Optional[InputPlan]:
        """The plan reading catalog copy ``entry`` for this input, if it
        applies.  A copy holds the source's records -- or the projected
        fields of them -- with re-coded columns: it serves a program that
        reads only fields it keeps, and that the analyzer proved may run
        on its dict column's codes.  A sorted copy (a selection index)
        also needs the selection compiled on its field."""
        if entry.value_fields is not None and (
                ia.projection is None or not set(
                    ia.projection.used_value_fields) <= set(entry.value_fields)):
            return None
        if entry.dict_field is not None and not any(
                d.field_name == entry.dict_field for d in ia.direct):
            return None
        if entry.kind in cat.COPY_KINDS:
            chosen: InputSource = ColumnarFileInput(entry.index_path,
                                                    tag=source.tag)
            detail = (f"kept fields {entry.value_fields}"
                      if entry.value_fields is not None else
                      f"direct operation on {entry.dict_field!r}"
                      if entry.dict_field is not None else
                      f"delta fields {entry.delta_fields}")
        else:
            selection = compiled.compile(entry.key_field)
            if selection is None:
                return None
            ranges = selection.key_ranges()
            if not ranges:
                # The formula is unsatisfiable: provably no record can ever
                # reach an emit, so the map phase reads nothing at all.
                chosen = InMemoryInput([], tag=source.tag)
                detail = "selection formula is unsatisfiable; empty input"
            else:
                chosen = SelectionIndexInput(entry.index_path, ranges,
                                             residual=selection.residual,
                                             tag=source.tag)
                detail = (f"B+Tree on {selection.field_name!r}, "
                          f"{len(ranges)} range(s) {selection.intervals}"
                          + ("; residual implied" if selection.exact else ""))
        return InputPlan(input_index=index, original=source, chosen=chosen,
                         entry=entry, optimizations=[entry.kind],
                         detail=detail)
