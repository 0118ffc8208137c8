"""Optimization descriptors -- the analyzer's output (paper Fig. 1).

"The resulting optimization descriptor list has, for each applicable
optimization, a label that identifies the optimization and
optimization-specific parameters."  Each descriptor class below is one such
label+parameters record; :class:`InputAnalysis` bundles the descriptors for
one (input, mapper) pair along with detected side effects and -- important
for the Table 1 reproduction -- the *reasons* analysis declined to emit a
descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.analyzer.conditions import SelectionFormula
from repro.storage.blockscan import ReadShape
from repro.storage.serialization import Schema

#: Optimization kind labels.
SELECT = "SELECT"
PROJECT = "PROJECT"
DELTA = "DELTA"
DIRECT = "DIRECT"


@dataclass
class SelectionDescriptor:
    """A detected selection: the DNF emit condition (paper's ``SELECT``)."""

    formula: SelectionFormula

    kind: str = SELECT

    def __repr__(self) -> str:
        return f"(SELECT, {self.formula!r})"


@dataclass
class ProjectionDescriptor:
    """A detected projection: which serialized fields the code never needs."""

    used_value_fields: List[str]
    unused_value_fields: List[str]
    used_key_fields: List[str]
    unused_key_fields: List[str]

    kind: str = PROJECT

    def __repr__(self) -> str:
        return (
            f"(PROJECT, keep={self.used_value_fields}, "
            f"drop={self.unused_value_fields})"
        )


@dataclass
class DeltaCompressionDescriptor:
    """Numeric value fields eligible for delta-compression."""

    fields: List[str]

    kind: str = DELTA

    def __repr__(self) -> str:
        return f"(DELTA, {self.fields})"


@dataclass
class DirectOperationDescriptor:
    """A string field usable in compressed (dictionary-coded) form.

    ``uses`` records how the mapper touches the field (e.g. ``emit-key``);
    the optimizer uses it to double-check plan applicability.
    """

    field_name: str
    uses: List[str]

    kind: str = DIRECT

    def __repr__(self) -> str:
        return f"(DIRECT, {self.field_name}, uses={self.uses})"


@dataclass
class SideEffect:
    """A detected (not optimized) side effect in the mapper body.

    "Manimal can currently detect, though not optimize, such side effects"
    (paper Section 2.2).
    """

    category: str  # print / file-io / counter / member-mutation / unknown-call
    lineno: int
    detail: str

    def __repr__(self) -> str:
        return f"SideEffect({self.category} @L{self.lineno}: {self.detail})"


@dataclass
class InputAnalysis:
    """Analyzer verdict for one (input source, mapper) pair."""

    input_index: int
    input_tag: Optional[str]
    mapper_name: str
    key_schema: Optional[Schema]
    value_schema: Optional[Schema]
    selection: Optional[SelectionDescriptor] = None
    projection: Optional[ProjectionDescriptor] = None
    delta: Optional[DeltaCompressionDescriptor] = None
    direct: List[DirectOperationDescriptor] = field(default_factory=list)
    side_effects: List[SideEffect] = field(default_factory=list)
    #: why each absent optimization is absent, keyed by kind label --
    #: the evidence trail behind every "Undetected"/"Not Present" cell
    notes: Dict[str, List[str]] = field(default_factory=dict)
    #: what the record path must build of each record for this map():
    #: set only by static analysis (``analyze_mapper``); ``None`` --
    #: hints -- decodes in full.  Not an optimization label: it never
    #: appears in :meth:`descriptors`.
    read_shape: Optional[ReadShape] = None
    #: why ``read_shape`` keeps the key or every value field
    read_notes: List[str] = field(default_factory=list)
    #: the ``emit`` :class:`~repro.batch.spec.BatchStageSpec` the batch
    #: executor may serve this map() with (static analysis only; the
    #: optimizer attaches it) ...
    batch_spec: Optional[Any] = None
    #: ... or why map() has none
    batch_decline: Optional[str] = None

    def descriptors(self) -> List[Any]:
        out: List[Any] = []
        if self.selection is not None:
            out.append(self.selection)
        if self.projection is not None:
            out.append(self.projection)
        if self.delta is not None:
            out.append(self.delta)
        out.extend(self.direct)
        return out

    def has(self, kind: str) -> bool:
        return any(d.kind == kind for d in self.descriptors())

    def note(self, kind: str, message: str) -> None:
        self.notes.setdefault(kind, []).append(message)

    def summary(self) -> str:
        found = ", ".join(repr(d) for d in self.descriptors()) or "none"
        return (
            f"input[{self.input_index}"
            f"{'/' + self.input_tag if self.input_tag else ''}] "
            f"mapper={self.mapper_name}: {found}"
        )


@dataclass
class JobAnalysis:
    """Analyzer verdict for a whole job (one entry per input source)."""

    job_name: str
    inputs: List[InputAnalysis]
    #: Appendix E: a pre-shuffle group filter derived from the reducer's
    #: WHERE-style conditions on its key, or None
    reduce_key_filter: Optional[Any] = None
    #: why the reduce-side analysis declined, when it did
    reduce_notes: List[str] = field(default_factory=list)
    #: the inputs a group must hold a value from before reduce() can
    #: emit (:func:`~repro.core.analyzer.reduce_ext.find_required_inputs`;
    #: static analysis only) ...
    required_inputs: Optional[Tuple[int, ...]] = None
    #: ... or why none are proved
    required_decline: Optional[str] = None
    #: the :data:`~repro.core.analyzer.reduce_ext.FOLD_OPS` op whose merge
    #: over a group's values the reducer's whole ``reduce()`` emits with
    #: the group's key
    #: (:func:`~repro.core.analyzer.reduce_ext.describe_reducer`) ...
    reducer_fold: Optional[str] = None
    #: ... or why the reducer is opaque (``None`` for a map-only job)
    reducer_decline: Optional[str] = None
    #: the combiner's description, the same way
    combiner_fold: Optional[str] = None
    combiner_decline: Optional[str] = None

    def descriptors(self) -> List[Any]:
        out: List[Any] = []
        for ia in self.inputs:
            out.extend(ia.descriptors())
        return out

    def has(self, kind: str) -> bool:
        return any(ia.has(kind) for ia in self.inputs)

    def summary(self) -> str:
        lines = [f"analysis of job {self.job_name!r}:"]
        lines += [f"  {ia.summary()}" for ia in self.inputs]
        return "\n".join(lines)
