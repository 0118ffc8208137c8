"""Logical plans and their lowering to optimizable MapReduce stages.

A :class:`~repro.api.dataset.Dataset` is a thin handle over a tree of
logical nodes defined here.  :func:`lower_plan` compiles that tree into a
chain of :class:`~repro.mapreduce.job.JobConf` stages:

* consecutive ``filter``/``select``/``map`` operations fuse into the map
  phase of the stage that consumes them (no extra jobs for pipelined ops);
* ``group_by().agg()`` closes a map+reduce stage;
* ``join`` closes a two-input stage with per-input tagged mappers (the
  Hadoop MultipleInputs shape the analyzer already understands);
* intermediate results are materialized as record files with full schema
  metadata, so downstream stages -- and Manimal's link detection in
  :class:`~repro.core.pipeline.ManimalPipeline` -- see transparent data.

Each fused segment is lowered in one pass over its ops, each against
the schema in effect where it stands.  Plain callables are not taken at
face value: each ``filter(fn)`` / ``map(fn)`` is first handed to the
analyzer's UDF translation (:mod:`repro.core.analyzer.udf`), and a
callable proven to be a pure expression over its record is *replaced*
by that column expression -- from there on it is indistinguishable from
one written with ``col()``.  A callable the analyzer declines stays in
place and runs as written.  The same pass gathers the hint evidence
(pushed-down predicates, used and visible columns, output schemas and
descriptions), reaches the batch verdict and renders the record-path
source lines.  Each stage input then has one ``(K, V)`` emit over the
record its segment ends with -- ``(key, record)`` for a map stage,
``(on, (tag, record))`` for a join side, ``(group, slots)`` for an
aggregate -- and one builder reads the mapper's ``ctx.emit`` line, the
:class:`~repro.batch.spec.BatchStageSpec`'s ``emit`` and the projection
hint's emitted columns from it.

Because the builder knows its own predicates and projected columns, every
stage also carries an exact :class:`~repro.core.analyzer.descriptors.JobAnalysis`
*hint* (paper Appendix A: layered tools "sidestep the analyzer and accept
optimization descriptions directly").  Manimal plans from the hints without
running static analysis; the hints use the same descriptor classes, so
catalog matching, index synthesis and planning are unchanged.

The synthesized mappers are still ordinary Python functions, loaded by
:func:`repro.codegen.load`, which keeps them *inspectable*: if a stage
is submitted without hints, ``inspect.getsource`` works and the static
analyzer re-derives the same selection/projection from the generated code.
"""

from __future__ import annotations

import functools
import itertools
import pickle
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import codegen
from repro.api.expressions import (
    NoExprForm,
    expr_from_symbolic,
    selection_formula,
)
from repro.batch.spec import (
    AGGREGATES,
    COLUMN,
    CONST,
    RECORD,
    WHOLE_KEY,
    WHOLE_VALUE,
    BatchStageSpec,
    SRecord,
    column_ref,
    emit_parts,
    part_source,
    preagg_decline,
)
from repro.core.analyzer.descriptors import (
    DeltaCompressionDescriptor,
    InputAnalysis,
    JobAnalysis,
    ProjectionDescriptor,
    SelectionDescriptor,
)
from repro.core.analyzer.purity import KnowledgeBase
from repro.core.analyzer.udf import (
    FILTER_ARITY,
    MAP_ARITY,
    UdfAnalysis,
    analyze_udf,
)
from repro.exceptions import JobConfigError
from repro.mapreduce.api import (
    Context,
    FunctionMapper,
    FunctionReducer,
    Reducer,
)
from repro.mapreduce.formats import PartitionedInput, RecordFileInput
from repro.mapreduce.job import JobConf
from repro.storage.partitioned import is_partitioned_dataset
from repro.storage.serialization import (
    Field,
    FieldType,
    Record,
    Schema,
    primitive_schema,
)
from repro.symbolic import SConst, STuple, SymExpr, has_literal_form, to_source

#: Name prefix of the synthesized projection helper (a bound
#: ``Schema.make``) spliced into generated mapper code.
PROJECT_HELPER_PREFIX = "_fluent_project"


class FluentKnowledgeBase(KnowledgeBase):
    """The default KB plus the synthesized projection helpers.

    ``Schema.make`` is deterministic record construction -- pure by the
    paper's definition -- but the analyzer's knowledge base cannot know
    that for an arbitrary global.  Lowered stage code only ever binds the
    ``_fluent_project*`` names to bound ``Schema.make`` methods, so a
    session analyzing its own synthesized mappers may treat them as pure;
    plain ``Manimal`` instances keep the stock KB.
    """

    def is_pure_function(self, name: str) -> bool:
        if name.startswith(PROJECT_HELPER_PREFIX):
            return True
        return super().is_pure_function(name)


#: Knowledge base for sessions (used when analyzing synthesized stages).
FLUENT_KB = FluentKnowledgeBase()


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: an operation over a column (column None for count)."""

    op: str
    column: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in AGGREGATES:
            raise JobConfigError(f"unknown aggregate op {self.op!r}")
        if self.op != "count" and self.column is None:
            raise JobConfigError(f"aggregate {self.op!r} needs a column")

    def describe(self) -> str:
        return f"{self.op}({self.column or '*'})"

    def result_type(self, source: Optional[FieldType]) -> Optional[FieldType]:
        if self.op == "count":
            return FieldType.LONG
        if source is None:
            return None
        if self.op == "avg":
            return FieldType.DOUBLE
        if self.op == "sum":
            return (
                FieldType.LONG if source.is_numeric else FieldType.DOUBLE
            )
        return source  # min / max preserve the column type


def count() -> AggSpec:
    """Count the records of each group."""
    return AggSpec("count")


def sum_of(column: str) -> AggSpec:
    """Sum a numeric column per group."""
    return AggSpec("sum", column)


def min_of(column: str) -> AggSpec:
    return AggSpec("min", column)


def max_of(column: str) -> AggSpec:
    return AggSpec("max", column)


def avg_of(column: str) -> AggSpec:
    """Arithmetic mean of a numeric column per group."""
    return AggSpec("avg", column)


# ---------------------------------------------------------------------------
# Logical nodes
# ---------------------------------------------------------------------------


class LogicalNode:
    """Base class of the Dataset expression tree."""


@dataclass(eq=False)
class ScanNode(LogicalNode):
    """Read a record file (leaf)."""

    path: str
    key_schema: Optional[Schema]
    value_schema: Optional[Schema]


@dataclass(eq=False)
class FilterNode(LogicalNode):
    child: LogicalNode
    #: a column expression -- a :class:`SymExpr` over value fields
    #: (optimizable) -- or a callable ``f(record)->bool``
    predicate: Any
    #: set by UDF translation: the callable an expression predicate was
    #: proven equal to ...
    label: Optional[str] = None
    #: ... or why a callable predicate stays opaque
    opaque: Optional[str] = None


@dataclass(eq=False)
class SelectNode(LogicalNode):
    child: LogicalNode
    columns: Tuple[str, ...]


@dataclass(eq=False)
class MapNode(LogicalNode):
    """Arbitrary record transform ``fn(key, value) -> (key, value)``."""

    child: LogicalNode
    fn: Callable[[Any, Any], Tuple[Any, Any]]
    key_schema: Optional[Schema] = None
    value_schema: Optional[Schema] = None
    #: set by UDF translation: why the transform stays opaque
    opaque: Optional[str] = None


@dataclass(eq=False)
class DeriveNode(LogicalNode):
    """A computed projection: ``(key, value_schema.make(*exprs))``.

    What a ``map(fn)`` becomes once UDF translation proves that is all
    ``fn`` does; never built by users directly.
    """

    child: LogicalNode
    #: one expression per field of ``value_schema``, over the columns of
    #: the record the op receives
    exprs: Tuple[SymExpr, ...]
    key_schema: Optional[Schema]
    value_schema: Schema
    #: the callable this was proven equal to
    label: str


@dataclass(eq=False)
class AggregateNode(LogicalNode):
    child: LogicalNode
    group_column: str
    aggs: Tuple[Tuple[str, AggSpec], ...]  # (output name, spec)


@dataclass(eq=False)
class JoinNode(LogicalNode):
    left: LogicalNode
    right: LogicalNode
    on: str


# ---------------------------------------------------------------------------
# Stage inputs and synthesized stage functions (loaded by repro.codegen)
# ---------------------------------------------------------------------------

def scan_input(path: str, tag: Optional[str] = None):
    """The input source scanning ``path``: partition-aware when it is one.

    Base scans over a partitioned dataset directory lower to
    :class:`~repro.mapreduce.formats.PartitionedInput`, so the planner
    can prune partitions against the stage's selection hints;
    intermediate stage files stay plain record files.
    """
    if is_partitioned_dataset(path):
        return PartitionedInput(path, tag=tag)
    return RecordFileInput(path, tag=tag)


class _ByValue:
    """Mixin: a synthesized stage adapter that pickles by value.

    The wrapped function is loaded from generated source by
    :func:`repro.codegen.load`, so pickle cannot find it by reference;
    ``(name, source, env)`` rebuilds it in the worker, through ``load``
    again, so its source stays inspectable there too.  That is what lets
    a fluent job's state reach the engine's persistent worker pool like a
    classic job's.  A stage that kept a user callable (``user_code``)
    refuses to pickle even when the callable itself pickles by reference:
    a long-lived worker would resolve the name in the module it forked
    with -- missing if defined since, stale if reloaded -- so such a job
    keeps the forked path, whose workers inherit the live object.
    """

    def __init__(self, name: str, source: str, env: Dict[str, Any],
                 user_code: bool = False):
        super().__init__(codegen.load(source, "stage", env)[name])
        self._stage = (name, source, env)
        self._user_code = user_code

    def __reduce__(self) -> Tuple[Any, ...]:
        if self._user_code:
            raise pickle.PicklingError(
                f"stage function {self._stage[0]!r} calls user code"
            )
        return (type(self), self._stage)


class _StageMapper(_ByValue, FunctionMapper):
    pass


class _StageReducer(_ByValue, FunctionReducer):
    pass


# ---------------------------------------------------------------------------
# UDF translation: proven callables become column expressions
# ---------------------------------------------------------------------------

def callable_label(fn: Any) -> str:
    """A callable's display name: qualified function name or instance type."""
    if isinstance(fn, functools.partial):
        return f"partial({callable_label(fn.func)})"
    return getattr(fn, "__qualname__", None) or type(fn).__qualname__


def _opaque_label(fn: Any, reason: Optional[str]) -> str:
    label = f"<python:{callable_label(fn)}>"
    return label if reason is None else f"{label} opaque: {reason}"


#: ``(callable, arity) -> verdict``; sessions pass the engine-memoized one.
UdfAnalyzer = Callable[[Callable, int], UdfAnalysis]


def _unknown_fields(exprs: Sequence[SymExpr],
                    schema: Optional[Schema]) -> Optional[str]:
    if schema is None:
        return "the input schema is unknown"
    names = sorted({name for expr in exprs for name in expr.value_columns()})
    missing = [name for name in names if not schema.has_field(name)]
    if missing:
        return (f"reads field(s) {missing} that schema {schema.name!r} "
                "lacks")
    # ``value.schema`` on a record is the Record's own attribute even
    # when a field is called that; a column expression would read the
    # field.
    shadowed = [name for name in names if hasattr(Record, name)]
    if shadowed:
        return f"field(s) {shadowed} are shadowed by Record attributes"
    return None


def _not_declared_schema(receiver: Any, declared: Optional[Schema],
                         n_values: int) -> Optional[str]:
    """Why ``receiver.make(<n_values>)`` is not a ``declared`` record."""
    if declared is None:
        return "map() declares no value_schema"
    if not isinstance(receiver, Schema) \
            or type(receiver).make is not Schema.make:
        return "make() is not called on a plain Schema"
    # A schema that crossed a wire (the query service replays op lists)
    # is equal by content, not identity; records are nominal either way.
    if receiver is not declared and (
        not declared.transparent
        or receiver.to_dict() != declared.to_dict()
    ):
        return (f"make() builds {receiver.name!r} records, not the "
                f"declared value_schema {declared.name!r}")
    if n_values != len(declared.fields):
        return (f"make() is given {n_values} value(s) for the "
                f"{len(declared.fields)} field(s) of {declared.name!r}")
    return None


def _column_exprs(syms: Sequence[SymExpr], schema: Optional[Schema]
                  ) -> Tuple[Tuple[SymExpr, ...], Optional[str]]:
    """``syms`` admitted as column expressions over ``schema``, or why
    not."""
    try:
        exprs = tuple(expr_from_symbolic(sym) for sym in syms)
    except NoExprForm as exc:
        return (), str(exc)
    return exprs, _unknown_fields(exprs, schema)


def _translate_filter(op: FilterNode, schema: Optional[Schema],
                      analyze: UdfAnalyzer) -> FilterNode:
    verdict = analyze(op.predicate, FILTER_ARITY)
    reason, exprs = verdict.reason, ()
    if reason is None:
        exprs, reason = _column_exprs([verdict.predicate], schema)
    if reason is None and not exprs[0].value_columns():
        reason = "the predicate reads no field of the record"
    if reason is not None:
        return FilterNode(op.child, op.predicate, opaque=reason)
    return FilterNode(op.child, exprs[0],
                      label=callable_label(op.predicate))


def _translate_map(op: MapNode, schema: Optional[Schema],
                   analyze: UdfAnalyzer) -> LogicalNode:
    verdict = analyze(op.fn, MAP_ARITY)
    reason, exprs = verdict.reason, ()
    if reason is None:
        exprs, reason = _column_exprs(verdict.fields, schema)
    if reason is None:
        reason = _not_declared_schema(
            verdict.make_receiver(op.fn), op.value_schema, len(exprs)
        )
    if reason is not None:
        return MapNode(op.child, op.fn, op.key_schema, op.value_schema,
                       opaque=reason)
    return DeriveNode(op.child, exprs, op.key_schema, op.value_schema,
                      callable_label(op.fn))


# ---------------------------------------------------------------------------
# One pass per fused segment: translate, describe, verdict, render
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    """The fused pipelined ops between two stage boundaries, after the one
    pass (:func:`_fuse_segment`) over them."""

    in_key_schema: Optional[Schema]
    in_value_schema: Optional[Schema]
    out_key_schema: Optional[Schema]
    out_value_schema: Optional[Schema]
    #: the ops as lowered: proven callables replaced by expressions
    ops: List[LogicalNode] = field(default_factory=list)
    #: column predicates pushed down to the scan (necessary emit conditions)
    pushdown: List[SymExpr] = field(default_factory=list)
    #: base-record columns the segment reads (None = unknown -> all)
    used: Optional[Set[str]] = None
    #: base-record columns still visible at segment end (None after map())
    visible: Optional[List[str]] = None
    descriptions: List[str] = field(default_factory=list)
    #: the batch verdict: the one computed map()'s values; how an emit
    #: names the record the segment ends with (a record of the output
    #: schema once a select or map() reshaped it); or why it declines
    derived: Optional[List[Tuple[str, SymExpr]]] = None
    record: SymExpr = WHOLE_VALUE
    decline: Optional[str] = None
    #: the record-path body: indented source lines, the names they bind,
    #: whether one of those is user code, and the pair in hand at the end
    body: List[str] = field(default_factory=list)
    env: Dict[str, Any] = field(default_factory=dict)
    user_code: bool = False
    indent: str = "    "
    key_var: str = "key"
    value_var: str = "value"

    def source(self, fn_name: str, emit: Tuple[SymExpr, SymExpr]
               ) -> Tuple[str, Dict[str, Any], bool]:
        """The stage mapper's ``(source, env, user_code)``: the body, then
        ``ctx.emit`` of ``emit`` over the pair in hand."""

        def render(part: SymExpr) -> str:
            if isinstance(part, STuple):
                return f"({', '.join(render(item) for item in part.items)})"
            kind, what = part_source(part)
            if kind == RECORD:
                return self.value_var
            if kind == CONST:
                return repr(what)
            return self.key_var if what is None else f"{self.value_var}.{what}"

        emit_line = f"ctx.emit({render(emit[0])}, {render(emit[1])})"
        lines = [f"def {fn_name}(key, value, ctx):", *self.body,
                 self.indent + emit_line]
        return "\n".join(lines) + "\n", self.env, self.user_code

    def hints(self, input_index: int, input_tag: Optional[str],
              mapper_name: str, emit: Tuple[SymExpr, SymExpr],
              batch: Union[BatchStageSpec, str]) -> InputAnalysis:
        """Exact optimization descriptors for one (input, synthesized
        mapper); ``batch`` is the input's batch spec, or why it has none.

        A base-record column is used when an op reads it or, while no
        ``map()`` has replaced the record, ``emit`` does (emitting the
        whole record reads every visible column).
        """
        declined = isinstance(batch, str)
        ia = InputAnalysis(
            input_index=input_index,
            input_tag=input_tag,
            mapper_name=mapper_name,
            key_schema=self.in_key_schema,
            value_schema=self.in_value_schema,
            batch_spec=None if declined else batch,
            batch_decline=batch if declined else None,
        )
        schema = self.in_value_schema
        if self.pushdown:
            ia.selection = SelectionDescriptor(
                formula=selection_formula(self.pushdown)
            )
        if self.used is not None:  # the scanned schema is transparent
            used = set(self.used)
            if self.visible is not None:
                for kind, what in map(part_source, emit_parts(emit)):
                    if kind == RECORD:
                        used |= set(self.visible)
                    elif kind == COLUMN and what is not None:
                        used.add(what)
            used &= set(schema.field_names())
            unused = [c for c in schema.field_names() if c not in used]
            if unused:
                ia.projection = ProjectionDescriptor(
                    used_value_fields=[
                        c for c in schema.field_names() if c in used
                    ],
                    unused_value_fields=unused,
                    used_key_fields=(
                        self.in_key_schema.field_names()
                        if self.in_key_schema is not None else []
                    ),
                    unused_key_fields=[],
                )
            numeric = schema.numeric_field_names()
            if numeric:
                ia.delta = DeltaCompressionDescriptor(fields=numeric)
        return ia


def _fuse_segment(ops: Sequence[LogicalNode],
                  key_schema: Optional[Schema],
                  value_schema: Optional[Schema],
                  analyze: UdfAnalyzer) -> _Segment:
    """One pass over a segment's ops, each handled against the schema in
    effect where it stands.

    A ``filter(fn)`` / ``map(fn)`` is first handed to UDF translation: a
    proven callable is replaced by its column expression (a translated
    ``map`` becomes a :class:`DeriveNode`) and is from then on an ordinary
    described op; a declined one stays in place with the reason attached
    (``explain`` shows it) and runs as written.  The op then adds its hint
    evidence (pushed-down predicates, used and visible columns, output
    schemas, description), its part of the batch verdict, and its
    record-path source lines -- with fresh variable names for every
    rebinding, since the analyzer resolves parameter names positionally
    and the generated code must never reassign ``key``/``value``.

    The batch verdict is the vectorization eligibility rule:
    column-expression filters and selects, then at most one computed
    projection (a translated ``map``, the spec's derived values) followed
    only by selects, over transparent key and value schemas.  An opaque
    ``map()`` or callable predicate, an opaque schema, or a filter *after*
    a computed projection (it reads derived columns, and the kernel
    evaluates a row's predicates before its derived values) all
    disqualify the segment -- the stage then runs record-at-a-time,
    unconditionally.  (A column the file lacks is the batch admission's
    decline, at run time.)
    """
    seg = _Segment(key_schema, value_schema, key_schema, value_schema)
    if value_schema is not None and value_schema.transparent:
        seg.visible, seg.used = value_schema.field_names(), set()
    if value_schema is None or key_schema is None \
            or not (value_schema.transparent and key_schema.transparent):
        seg.decline = "opaque or unknown schema"
    seen_map = reshaped = False
    fresh = itertools.count()

    def bind(prefix: str, obj: Any) -> str:
        name = f"{prefix}{next(fresh)}"
        seg.env[name] = obj
        return name

    def const(value: Any) -> str:
        # Inline what has a literal form -- readable source, and the
        # analyzer re-derives the formula from it -- and bind the rest
        # (inf, nan, Decimal, dates, ...) as the object itself.
        return repr(value) if has_literal_form(value) else bind("_k", value)

    def decline(reason: str) -> None:
        if seg.decline is None:
            seg.decline = reason

    def read_all_visible() -> None:
        if seg.visible is not None:
            seg.used |= set(seg.visible)

    def rebind_value(schema: Schema, args: str) -> None:
        # Build the new record directly.  The helper name is
        # knowledge-base-pure for sessions (FLUENT_KB), so the emitted
        # value stays functional and the analyzer can re-derive the
        # selection from the generated source.
        helper = bind(PROJECT_HELPER_PREFIX, schema.make)
        seg.value_var = f"v{next(fresh)}"
        seg.body.append(f"{seg.indent}{seg.value_var} = {helper}({args})")

    for op in ops:
        schema = seg.out_value_schema
        if isinstance(op, FilterNode) \
                and not isinstance(op.predicate, SymExpr):
            op = _translate_filter(op, schema, analyze)
        elif isinstance(op, MapNode):
            op = _translate_map(op, schema, analyze)
        seg.ops.append(op)
        if isinstance(op, FilterNode):
            if isinstance(op.predicate, SymExpr):
                if not seen_map:
                    # Column predicates before any opaque transform are
                    # necessary conditions over the scanned record: exact
                    # selection hints.  A callable filter in between only
                    # narrows further, which keeps them necessary.
                    seg.pushdown.append(op.predicate)
                if seg.used is not None:
                    seg.used |= op.predicate.value_columns()
                shown = to_source(op.predicate)
                if op.label is not None:
                    shown = f"<python:{op.label}> \u2261 {shown}"
                if seg.derived is not None:
                    decline("a filter after a computed map()")
                cond = to_source(op.predicate, seg.value_var, const)
            else:
                read_all_visible()
                shown = _opaque_label(op.predicate, op.opaque)
                decline("a callable filter is opaque")
                seg.user_code = True
                cond = f"{bind('_p', op.predicate)}({seg.value_var})"
            seg.descriptions.append(f"filter {shown}")
            seg.body.append(f"{seg.indent}if {cond}:")
            seg.indent += "    "
        elif isinstance(op, SelectNode):
            if schema is None:
                raise JobConfigError(
                    "select() needs schema metadata; supply "
                    "value_schema to the preceding map()"
                )
            seg.out_value_schema = schema.project(list(op.columns))
            if seg.visible is not None:
                seg.visible = [c for c in seg.visible if c in op.columns]
                # the generated mapper builds the selected record, so it
                # reads every selected column whatever the emit names
                read_all_visible()
            reshaped = True
            seg.descriptions.append(f"select [{', '.join(op.columns)}]")
            rebind_value(seg.out_value_schema, ", ".join(
                f"{seg.value_var}.{c}"
                for c in seg.out_value_schema.field_names()))
        else:  # a map(): opaque, or translated into a DeriveNode
            if isinstance(op, MapNode):
                read_all_visible()
                shown = _opaque_label(op.fn, op.opaque)
                decline("a map() is opaque")
                seg.user_code = True
                call = f"{bind('_m', op.fn)}({seg.key_var}, {seg.value_var})"
                pair = f"r{next(fresh)}"
                seg.key_var = f"k{next(fresh)}"
                seg.value_var = f"v{next(fresh)}"
                seg.body += [
                    f"{seg.indent}{pair} = {call}",
                    f"{seg.indent}{seg.key_var} = {pair}[0]",
                    f"{seg.indent}{seg.value_var} = {pair}[1]",
                ]
            else:
                if seg.used is not None:
                    for expr in op.exprs:
                        seg.used |= expr.value_columns()
                args = ", ".join(to_source(expr) for expr in op.exprs)
                shown = (f"<python:{op.label}> \u2261 "
                         f"(key, {op.value_schema.name}.make({args}))")
                if seg.derived is not None:
                    decline("more than one computed map()")
                seg.derived = list(zip(op.value_schema.field_names(),
                                       op.exprs))
                reshaped = True
                rebind_value(op.value_schema, ", ".join(
                    to_source(e, seg.value_var, const) for e in op.exprs))
            # the record is replaced: no base column is visible any more
            seen_map = True
            seg.visible = None
            seg.out_key_schema = op.key_schema
            seg.out_value_schema = op.value_schema
            seg.descriptions.append(f"map {shown}")
    if seg.decline is None and not seg.out_value_schema.transparent:
        seg.decline = "opaque or unknown schema"
    if reshaped and seg.decline is None:
        seg.record = SRecord(seg.out_value_schema)
    return seg


# ---------------------------------------------------------------------------
# Stage plans
# ---------------------------------------------------------------------------


@dataclass
class StagePlan:
    """One lowered MapReduce stage plus its hints and output metadata."""

    conf: JobConf
    hints: JobAnalysis
    kind: str  # "map" / "aggregate" / "join"
    descriptions: List[str]
    out_key_schema: Optional[Schema]
    out_value_schema: Optional[Schema]

    def describe(self) -> str:
        inputs = ", ".join(s.describe() for s in self.conf.inputs)
        ops = "; ".join(self.descriptions) or "(pass through)"
        return f"[{self.kind}] {self.conf.name} <- {inputs}\n    ops: {ops}"


@dataclass
class LoweredPlan:
    """The full stage chain a Dataset lowers to."""

    name: str
    stages: List[StagePlan]

    @property
    def final(self) -> StagePlan:
        return self.stages[-1]

    def confs(self) -> List[JobConf]:
        return [s.conf for s in self.stages]

    def hints(self) -> List[JobAnalysis]:
        return [s.hints for s in self.stages]

    def describe(self) -> str:
        lines = [f"lowered plan {self.name!r} ({len(self.stages)} stage(s)):"]
        for i, stage in enumerate(self.stages):
            lines.append(f"  stage {i}: {stage.describe()}")
        return "\n".join(lines)


@dataclass
class _Chain:
    """Lowering state: a scan point plus not-yet-materialized ops."""

    input_path: Optional[str]
    key_schema: Optional[Schema]
    value_schema: Optional[Schema]
    ops: List[LogicalNode] = field(default_factory=list)
    stages: List[StagePlan] = field(default_factory=list)


class _Lowering:
    """One lowering pass over a logical tree."""

    def __init__(self, name: str, scratch: Callable[[str], str],
                 num_reducers: int = 5, vectorize: bool = True,
                 analyze_udf: UdfAnalyzer = analyze_udf):
        self.name = name
        self.scratch = scratch
        self.num_reducers = num_reducers
        self.analyze_udf = analyze_udf
        #: describe stages whose map bodies are fully analyzer-described
        #: with a :class:`~repro.batch.spec.BatchStageSpec` in their
        #: hints, letting the runtime serve them vectorized.  ``False``
        #: pins every stage to the record path (the differential test
        #: harness's reference).
        self.vectorize = vectorize
        self._stage_seq = itertools.count()

    # -- tree walk -----------------------------------------------------------

    def lower(self, node: LogicalNode) -> LoweredPlan:
        chain = self._compile(node)
        if chain.ops or not chain.stages:
            stage = self._close_map_stage(chain)
            chain.stages.append(stage)
        else:
            # The terminal stage's output is consumed by nobody; drop the
            # scratch materialization (collect()/write() handle delivery).
            last = chain.stages[-1].conf
            last.output_path = None
            last.output_key_schema = None
            last.output_value_schema = None
        return LoweredPlan(name=self.name, stages=chain.stages)

    def _compile(self, node: LogicalNode) -> _Chain:
        if isinstance(node, ScanNode):
            return _Chain(node.path, node.key_schema, node.value_schema)
        if isinstance(node, (FilterNode, SelectNode, MapNode)):
            chain = self._compile(node.child)
            chain.ops.append(node)
            return chain
        if isinstance(node, AggregateNode):
            chain = self._compile(node.child)
            stage = self._close_agg_stage(chain, node)
            return _Chain(
                input_path=stage.conf.output_path,
                key_schema=stage.out_key_schema,
                value_schema=stage.out_value_schema,
                stages=chain.stages + [stage],
            )
        if isinstance(node, JoinNode):
            left = self._compile(node.left)
            right = self._compile(node.right)
            stage = self._close_join_stage(left, right, node)
            return _Chain(
                input_path=stage.conf.output_path,
                key_schema=stage.out_key_schema,
                value_schema=stage.out_value_schema,
                stages=left.stages + right.stages + [stage],
            )
        raise JobConfigError(f"cannot lower node {type(node).__name__}")

    # -- stage closers --------------------------------------------------------

    def _stage_name(self, kind: str) -> str:
        return f"{self.name}:s{next(self._stage_seq)}:{kind}"

    def _materialize(self, conf: JobConf, stage_name: str,
                     key_schema: Optional[Schema],
                     value_schema: Optional[Schema]) -> None:
        """Give a stage a scratch output file when its schemas are known.

        Unknown schemas leave ``output_path`` unset -- fine for a terminal
        stage (collect() delivers in memory); :meth:`_input_of` raises if a
        later stage then tries to consume the stage's output.
        """
        if key_schema is None or value_schema is None:
            return
        conf.output_path = self.scratch(stage_name.replace(":", "-"))
        conf.output_key_schema = key_schema
        conf.output_value_schema = value_schema

    @staticmethod
    def _input_of(chain: _Chain) -> str:
        if chain.input_path is None:
            producer = chain.stages[-1].conf.name if chain.stages else "?"
            raise JobConfigError(
                f"stage {producer!r} feeds a later stage but its output "
                "schemas are unknown; pass key_schema/value_schema to the "
                "preceding map()"
            )
        return chain.input_path

    def _segment(self, chain: _Chain) -> _Segment:
        """The chain's pending ops, through the one pass."""
        return _fuse_segment(chain.ops, chain.key_schema,
                             chain.value_schema, self.analyze_udf)

    def _input(self, chain: _Chain, seg: _Segment, index: int,
               tag: Optional[str], fn_name: str,
               emit: Tuple[SymExpr, SymExpr],
               fold: Optional[List[Tuple[str, Optional[FieldType]]]] = None
               ) -> Tuple[Any, _StageMapper, InputAnalysis]:
        """One stage input -- its scan, synthesized mapper and hints --
        read from its segment and its one ``(K, V)`` emit over the record
        the segment ends with; ``fold`` is an aggregate's ``(op, input
        type)`` list, whose partials ``V``'s slots are."""
        mapper = _StageMapper(fn_name, *seg.source(fn_name, emit))
        scan = scan_input(self._input_of(chain), tag=tag)
        batch = self._batch(seg, emit, fold)
        return scan, mapper, seg.hints(index, tag, fn_name, emit, batch)

    def _batch(self, seg: _Segment, emit: Tuple[SymExpr, SymExpr],
               fold: Optional[List[Tuple[str, Optional[FieldType]]]]
               ) -> Union[BatchStageSpec, str]:
        """The input's :class:`BatchStageSpec`, or why it has none."""
        if not seg.ops and emit[0] is WHOLE_KEY and emit[1] is WHOLE_VALUE:
            # A bare pass-through scan gains nothing from vectorization
            # (every field decodes either way).
            return "pass-through scan"
        if not self.vectorize:
            return "vectorize=False"
        if seg.decline is not None:
            return seg.decline
        # every filter precedes any map(), so the scan's pushed-down
        # predicates are all of them
        spec = BatchStageSpec(emit, list(seg.pushdown), seg.derived)
        if fold is not None:
            spec.fold = [op for op, _ftype in fold]
            spec.no_preagg = preagg_decline(
                fold, derived=seg.derived is not None)
        return spec

    def _close_map_stage(self, chain: _Chain) -> StagePlan:
        stage_name = self._stage_name("map")
        seg = self._segment(chain)
        fn_name = "_fluent_map"
        scan, mapper, hint = self._input(
            chain, seg, 0, None, fn_name, (WHOLE_KEY, seg.record))
        conf = JobConf(
            name=stage_name,
            mapper=mapper,
            reducer=None,
            inputs=[scan],
            num_reducers=self.num_reducers,
        )
        return StagePlan(
            conf=conf,
            hints=JobAnalysis(job_name=stage_name, inputs=[hint]),
            kind="map",
            descriptions=list(seg.descriptions) or ["scan"],
            out_key_schema=seg.out_key_schema,
            out_value_schema=seg.out_value_schema,
        )

    def _close_agg_stage(self, chain: _Chain,
                         node: AggregateNode) -> StagePlan:
        stage_name = self._stage_name("aggregate")
        seg = self._segment(chain)
        record_schema = seg.out_value_schema
        self._validate_agg_columns(node, record_schema, stage_name)

        names = [name for name, _ in node.aggs]
        specs = [spec for _, spec in node.aggs]
        # each aggregate's declared per-row partial, slots flattened
        slots = [
            column_ref(spec.column) if literal is None else SConst(literal)
            for spec in specs for literal in AGGREGATES[spec.op].partial
        ]
        fn_name = "_fluent_agg_map"
        scan, mapper, hint = self._input(
            chain, seg, 0, None, fn_name,
            (column_ref(node.group_column),
             slots[0] if len(slots) == 1 else STuple(slots)),
            fold=[(spec.op, self._column_type(record_schema, spec.column))
                  for spec in specs])

        out_key_schema = self._group_key_schema(node, record_schema)
        out_value_schema, reducer = self._agg_reducer(
            node, names, specs, record_schema, stage_name
        )
        conf = JobConf(
            name=stage_name,
            mapper=mapper,
            reducer=reducer,
            inputs=[scan],
            num_reducers=self.num_reducers,
        )
        self._materialize(conf, stage_name, out_key_schema, out_value_schema)
        agg_desc = ", ".join(
            f"{name}={spec.describe()}" for name, spec in node.aggs
        )
        descriptions = seg.descriptions + [
            f"group_by {node.group_column} agg {agg_desc}"
        ]
        return StagePlan(
            conf=conf,
            hints=JobAnalysis(job_name=stage_name, inputs=[hint]),
            kind="aggregate",
            descriptions=descriptions,
            out_key_schema=out_key_schema,
            out_value_schema=out_value_schema,
        )

    def _validate_agg_columns(self, node: AggregateNode,
                              schema: Optional[Schema],
                              stage_name: str) -> None:
        if schema is None or not schema.transparent:
            return
        missing = [
            c for c in [node.group_column]
            + [s.column for _, s in node.aggs if s.column is not None]
            if not schema.has_field(c)
        ]
        if missing:
            raise JobConfigError(
                f"stage {stage_name!r}: unknown group/aggregate column(s) "
                f"{missing} for schema {schema.name!r}"
            )

    def _group_key_schema(self, node: AggregateNode,
                          schema: Optional[Schema]) -> Optional[Schema]:
        if schema is None or not schema.has_field(node.group_column):
            return None
        ftype = schema.field(node.group_column).ftype
        return primitive_schema(f"{_camel(node.group_column)}Key", ftype)

    def _agg_reducer(self, node: AggregateNode, names: List[str],
                     specs: List[AggSpec], schema: Optional[Schema],
                     stage_name: str
                     ) -> Tuple[Optional[Schema], Reducer]:
        """The stage reducer, generated from the aggregate table: merge
        every shuffled slot, finish every aggregate, emit the value (or
        the output record of several)."""
        fn_name = "_fluent_agg_reduce"
        ftypes = [
            spec.result_type(self._column_type(schema, spec.column))
            for spec in specs
        ]
        n_slots = sum(len(AGGREGATES[spec.op].partial) for spec in specs)
        columns = (["values"] if n_slots == 1
                   else [f"c{i}" for i in range(n_slots)])
        slots = iter(columns)
        results = [
            agg.finish.format(*[
                f"{agg.merge.__name__}({next(slots)})" for _ in agg.partial
            ])
            for agg in (AGGREGATES[spec.op] for spec in specs)
        ]
        lines = [f"def {fn_name}(key, values, ctx):"]
        if n_slots > 1:
            lines.append(f"    {', '.join(columns)} = zip(*values)")
        if len(specs) == 1:
            # The output column carries the user's keyword name, exactly
            # like a field of the multi-aggregate record.
            out_schema = (
                Schema(f"{_camel(names[0])}Value",
                       [Field(names[0], ftypes[0])])
                if ftypes[0] is not None else None
            )
            result = results[0]
        elif all(t is not None for t in ftypes):
            out_schema = Schema(
                f"Agg_{_camel(node.group_column)}",
                [Field(n, t) for n, t in zip(names, ftypes)],
            )
            result = f"_agg_schema.make({', '.join(results)})"
        else:
            raise JobConfigError(
                f"stage {stage_name!r}: multi-aggregate output schema "
                "is unknown; supply value_schema to the preceding map()"
            )
        lines.append(f"    ctx.emit(key, {result})")
        return out_schema, _StageReducer(
            fn_name, "\n".join(lines) + "\n", {"_agg_schema": out_schema})

    @staticmethod
    def _column_type(schema: Optional[Schema],
                     column: Optional[str]) -> Optional[FieldType]:
        if schema is None or column is None or not schema.has_field(column):
            return None
        return schema.field(column).ftype

    def _close_join_stage(self, left: _Chain, right: _Chain,
                          node: JoinNode) -> StagePlan:
        stage_name = self._stage_name("join")
        lseg, rseg = self._segment(left), self._segment(right)
        lschema, rschema = lseg.out_value_schema, rseg.out_value_schema
        if lschema is None or rschema is None:
            raise JobConfigError(
                f"stage {stage_name!r}: join needs schema metadata on both "
                "sides; supply value_schema to any preceding map()"
            )
        for side, schema in (("left", lschema), ("right", rschema)):
            if not schema.has_field(node.on):
                raise JobConfigError(
                    f"stage {stage_name!r}: {side} side has no join column "
                    f"{node.on!r}"
                )

        merged_schema, left_fields, right_fields = _merge_schemas(
            lschema, rschema, node.on
        )
        (lscan, left_mapper, lhint), (rscan, right_mapper, rhint) = (
            self._input(chain, seg, index, tag, f"_fluent_join_{tag}",
                        (column_ref(node.on),
                         STuple([SConst(side), seg.record])))
            for index, (chain, seg, tag, side) in enumerate((
                (left, lseg, "left", "L"), (right, rseg, "right", "R")))
        )

        on_type = lschema.field(node.on).ftype
        out_key_schema = primitive_schema(f"{_camel(node.on)}Key", on_type)
        reducer = _JoinReducer(merged_schema, left_fields, right_fields)

        conf = JobConf(
            name=stage_name,
            mapper=left_mapper,
            reducer=reducer,
            inputs=[lscan, rscan],
            per_input_mappers={"left": left_mapper, "right": right_mapper},
            num_reducers=self.num_reducers,
        )
        self._materialize(conf, stage_name, out_key_schema, merged_schema)
        return StagePlan(
            conf=conf,
            hints=JobAnalysis(job_name=stage_name, inputs=[lhint, rhint]),
            kind="join",
            descriptions=(
                [f"left: {d}" for d in lseg.descriptions]
                + [f"right: {d}" for d in rseg.descriptions]
                + [f"inner join on {node.on}"]
            ),
            out_key_schema=out_key_schema,
            out_value_schema=merged_schema,
        )


class _JoinReducer(Reducer):
    """Inner-join reducer: pair the tagged sides of each key group."""

    def __init__(self, merged_schema: Schema, left_fields: Sequence[str],
                 right_fields: Sequence[str]):
        self.merged_schema = merged_schema
        self.left_fields = list(left_fields)
        self.right_fields = list(right_fields)

    def reduce(self, key: Any, values, ctx: Context) -> None:
        lefts: List[Any] = []
        rights: List[Any] = []
        for side, record in values:
            (lefts if side == "L" else rights).append(record)
        for lrec in lefts:
            for rrec in rights:
                merged = [getattr(lrec, f) for f in self.left_fields]
                merged += [getattr(rrec, f) for f in self.right_fields]
                ctx.emit(key, self.merged_schema.make(*merged))


def _merge_schemas(left: Schema, right: Schema,
                   on: str) -> Tuple[Schema, List[str], List[str]]:
    """Join output schema: left fields, then right fields minus the key.

    Right-side names colliding with an already-taken name get an ``_r``
    suffix; the returned field lists are *source* names per side, aligned
    with the merged schema's field order.
    """
    fields: List[Field] = list(left.fields)
    taken = {f.name for f in fields}
    left_names = [f.name for f in left.fields]
    right_names: List[str] = []
    for f in right.fields:
        if f.name == on:
            continue
        name = f.name
        while name in taken:
            name = f"{name}_r"
        taken.add(name)
        fields.append(Field(name, f.ftype))
        right_names.append(f.name)
    merged = Schema(f"{left.name}_join_{right.name}", fields)
    return merged, left_names, right_names


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in name.split("_")) or "Key"


def lower_plan(node: LogicalNode, name: str,
               scratch: Callable[[str], str],
               num_reducers: int = 5,
               vectorize: bool = True,
               analyze_udf: UdfAnalyzer = analyze_udf) -> LoweredPlan:
    """Compile a logical tree into its stage chain.

    ``analyze_udf`` decides which ``filter``/``map`` callables translate
    to column expressions; sessions pass their engine's memoized
    analyzer, the default analyzes afresh.
    """
    return _Lowering(
        name, scratch, num_reducers=num_reducers, vectorize=vectorize,
        analyze_udf=analyze_udf,
    ).lower(node)
