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
from typing import List, Optional, Tuple

from repro.core.analyzer.descriptors import InputAnalysis, JobAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.core.optimizer.pruning import (
    PruneResult,
    SelectionCompiler,
    prune_partitions,
)
from repro.mapreduce.formats import (
    DeltaFileInput,
    DictionaryFileInput,
    InMemoryInput,
    InputSource,
    PartitionedInput,
    ProjectedFileInput,
    RecordFileInput,
    SelectionIndexInput,
)
from repro.mapreduce.job import JobConf
from repro.storage import input_identity

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

    @property
    def optimized(self) -> bool:
        return any(p.optimized for p in self.plans) or \
            self.shuffle_filter is not None

    def chosen_inputs(self) -> List[InputSource]:
        return [p.chosen for p in self.plans]

    def apply(self, conf: JobConf) -> JobConf:
        """Copy of ``conf`` as this plan executes it: the chosen inputs
        and this descriptor's shuffle-filter verdict.

        The filter is always overwritten: ``with_inputs`` copies the
        original's, so a descriptor without one must clear any stale
        filter rather than leave the copy in place.
        """
        optimized = conf.with_inputs(self.chosen_inputs())
        optimized.shuffle_filter = self.shuffle_filter
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
        return "\n".join(lines)


class Optimizer:
    """Rule-based plan selection over the index catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def plan(self, conf: JobConf, analysis: JobAnalysis) -> ExecutionDescriptor:
        plans: List[InputPlan] = []
        for index, (source, ia) in enumerate(zip(conf.inputs, analysis.inputs)):
            plans.append(self._plan_input(index, source, ia))
        # Record usage (feeds the space budget's LRU eviction) in one
        # registry transaction for the whole plan.
        used = [p.entry.index_id for p in plans if p.entry is not None]
        if used:
            self.catalog.touch_many(used)
        return ExecutionDescriptor(
            job_name=conf.name,
            plans=plans,
            shuffle_filter=analysis.reduce_key_filter,
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
        fresh, stale = self._fresh_entries(source.path)
        if not fresh and not stale:
            unoptimized.detail = "no indexes in catalog for this input"
            return unoptimized
        chosen = self._choose(index, source, ia) if fresh else None
        if chosen is not None:
            return chosen
        unoptimized.detail = (
            f"stale: source rewritten since build ({stale} index(es) skipped)"
            if stale else "no catalog index is applicable to this program"
        )
        return unoptimized

    def _fresh_entries(self, source_path: str) -> Tuple[List[IndexEntry], int]:
        """The indexes built from the bytes ``source_path`` holds now, and
        how many others were skipped because it was rewritten since."""
        entries = self.catalog.entries_for(source_path)
        identity = input_identity(source_path)
        fresh = [e for e in entries if e.built_from(identity)]
        return fresh, len(entries) - len(fresh)

    def applicable_plans(self, index: int, source: RecordFileInput,
                         ia: InputAnalysis) -> List[InputPlan]:
        """Every applicable (index, input-format) plan, in ranking order.

        One :class:`SelectionCompiler` serves every candidate entry, so
        ``compile_selection`` runs at most once per indexed field no
        matter how many catalog entries share it.
        """
        compiled = SelectionCompiler(ia)
        plans: List[InputPlan] = []
        candidates, _stale = self._fresh_entries(source.path)
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
        kind = entry.kind
        if kind in (cat.KIND_SELECTION, cat.KIND_SELECTION_PROJECTION):
            return self._apply_selection(index, source, ia, entry, compiled)
        if kind in (cat.KIND_PROJECTION, cat.KIND_PROJECTION_DELTA):
            if ia.projection is None or entry.value_fields is None:
                return None
            needed = set(ia.projection.used_value_fields)
            if not needed <= set(entry.value_fields):
                return None
            chosen_cls = (
                ProjectedFileInput if kind == cat.KIND_PROJECTION
                else DeltaFileInput
            )
            chosen = chosen_cls(entry.index_path, tag=source.tag)
            return InputPlan(
                input_index=index,
                original=source,
                chosen=chosen,
                entry=entry,
                optimizations=[kind],
                detail=f"kept fields {entry.value_fields}",
            )
        if kind == cat.KIND_DICTIONARY:
            if not any(d.field_name == entry.dict_field for d in ia.direct):
                return None
            return InputPlan(
                input_index=index,
                original=source,
                chosen=DictionaryFileInput(entry.index_path, tag=source.tag),
                entry=entry,
                optimizations=[kind],
                detail=f"direct operation on {entry.dict_field!r}",
            )
        if kind == cat.KIND_DELTA:
            # Reading a delta file reconstructs identical records, so this
            # is behavior-preserving for any program over the same source.
            return InputPlan(
                input_index=index,
                original=source,
                chosen=DeltaFileInput(entry.index_path, tag=source.tag),
                entry=entry,
                optimizations=[kind],
                detail=f"delta fields {entry.delta_fields}",
            )
        return None

    def _apply_selection(self, index: int, source: RecordFileInput,
                         ia: InputAnalysis, entry: IndexEntry,
                         compiled: SelectionCompiler) -> Optional[InputPlan]:
        if not compiled.has_selection:
            return None
        if entry.kind == cat.KIND_SELECTION_PROJECTION:
            if ia.projection is None or entry.value_fields is None:
                return None
            needed = set(ia.projection.used_value_fields)
            if not needed <= set(entry.value_fields):
                return None
        plan = compiled.compile(entry.key_field)
        if plan is None:
            return None
        ranges = plan.key_ranges()
        optimizations = [entry.kind]
        if not ranges:
            # The formula is unsatisfiable: provably no record can ever
            # reach an emit, so the map phase reads nothing at all.
            chosen: InputSource = InMemoryInput([], tag=source.tag)
            detail = "selection formula is unsatisfiable; empty input"
        else:
            chosen = SelectionIndexInput(
                entry.index_path,
                ranges,
                residual=plan.residual(),
                tag=source.tag,
            )
            detail = (
                f"B+Tree on {plan.field_name!r}, "
                f"{len(ranges)} range(s) {plan.intervals}"
            )
        return InputPlan(
            input_index=index,
            original=source,
            chosen=chosen,
            entry=entry,
            optimizations=optimizations,
            detail=detail,
        )
