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

Plain callables are not taken at face value: before a fused segment is
analyzed, each ``filter(fn)`` / ``map(fn)`` is handed to the analyzer's
UDF translation (:mod:`repro.core.analyzer.udf`), and a callable proven
to be a pure expression over its record is *replaced* by that column
expression -- from there on it is indistinguishable from one written
with ``col()``.  A callable the analyzer declines stays in place and
runs as written.

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
    WHOLE_KEY,
    WHOLE_VALUE,
    BatchStageSpec,
    SRecord,
    column_ref,
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


def translate_udfs(ops: Sequence[LogicalNode],
                   value_schema: Optional[Schema],
                   analyze: UdfAnalyzer) -> List[LogicalNode]:
    """Replace each analyzer-proven callable of a segment by its expression.

    A translated ``filter(fn)`` becomes the same node over a column
    expression and a translated ``map(fn)`` a :class:`DeriveNode`; every
    later step of lowering -- synthesized source, selection and
    projection hints, batch specs, shared-scan eligibility -- then sees
    ordinary described ops.  Declined callables come back in place with
    the reason attached (``explain`` shows it) and run exactly as given.
    """
    out: List[LogicalNode] = []
    for op in ops:
        if isinstance(op, FilterNode) \
                and not isinstance(op.predicate, SymExpr):
            op = _translate_filter(
                op, _schema_after(out, value_schema), analyze)
        elif isinstance(op, MapNode):
            op = _translate_map(op, _schema_after(out, value_schema), analyze)
        out.append(op)
    return out


# ---------------------------------------------------------------------------
# Op-segment analysis: fused filter/select/map runs
# ---------------------------------------------------------------------------


@dataclass
class _Segment:
    """The fused pipelined ops between two stage boundaries, analyzed."""

    ops: List[LogicalNode]
    in_key_schema: Optional[Schema]
    in_value_schema: Optional[Schema]
    #: column predicates pushed down to the scan (necessary emit conditions)
    pushdown: List[SymExpr] = field(default_factory=list)
    #: base-record columns the segment reads (None = unknown -> all)
    used: Optional[Set[str]] = None
    #: base-record columns still visible at segment end (None after map())
    visible: Optional[List[str]] = None
    #: a map() -- opaque or translated -- replaced the scanned record
    seen_map: bool = False
    out_key_schema: Optional[Schema] = None
    out_value_schema: Optional[Schema] = None
    descriptions: List[str] = field(default_factory=list)


def _analyze_segment(ops: Sequence[LogicalNode],
                     key_schema: Optional[Schema],
                     value_schema: Optional[Schema]) -> _Segment:
    seg = _Segment(list(ops), key_schema, value_schema)
    schema_known = value_schema is not None and value_schema.transparent
    seg.visible = value_schema.field_names() if schema_known else None
    seg.used = set() if schema_known else None
    seg.out_key_schema = key_schema
    seg.out_value_schema = value_schema

    def mark_all_visible_used() -> None:
        if seg.used is not None and seg.visible is not None:
            seg.used |= set(seg.visible)

    for op in ops:
        if isinstance(op, FilterNode):
            if isinstance(op.predicate, SymExpr):
                if not seg.seen_map:
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
                seg.descriptions.append(f"filter {shown}")
            else:
                mark_all_visible_used()
                seg.descriptions.append(
                    f"filter {_opaque_label(op.predicate, op.opaque)}"
                )
        elif isinstance(op, SelectNode):
            if seg.visible is not None:
                seg.visible = [c for c in seg.visible if c in op.columns]
                # the generated mapper builds the selected record, so it
                # reads every selected column whatever the tail names
                mark_all_visible_used()
            if seg.out_value_schema is not None:
                seg.out_value_schema = seg.out_value_schema.project(
                    list(op.columns)
                )
            seg.descriptions.append(f"select [{', '.join(op.columns)}]")
        elif isinstance(op, MapNode):
            mark_all_visible_used()
            seg.seen_map = True
            seg.visible = None
            seg.out_key_schema = op.key_schema
            seg.out_value_schema = op.value_schema
            seg.descriptions.append(
                f"map {_opaque_label(op.fn, op.opaque)}"
            )
        elif isinstance(op, DeriveNode):
            if seg.used is not None:
                for expr in op.exprs:
                    seg.used |= expr.value_columns()
            seg.seen_map = True
            seg.visible = None
            seg.out_key_schema = op.key_schema
            seg.out_value_schema = op.value_schema
            args = ", ".join(to_source(expr) for expr in op.exprs)
            seg.descriptions.append(
                f"map <python:{op.label}> \u2261 "
                f"(key, {op.value_schema.name}.make({args}))"
            )
        else:  # pragma: no cover - lowering feeds only pipelined ops here
            raise JobConfigError(f"cannot fuse {type(op).__name__}")
    return seg


def _codegen_segment(seg: _Segment, fn_name: str,
                     tail: Callable[[str, str], List[str]]
                     ) -> Tuple[str, Dict[str, Any], bool]:
    """Generate mapper source applying the segment's ops, then ``tail``.

    ``tail(key_var, value_var)`` renders the emit line(s).  Fresh variable
    names are introduced for every rebinding -- the analyzer resolves
    parameter names positionally, so the generated code never reassigns
    ``key``/``value`` themselves.  Returns ``(source, env, user_code)``:
    the last says whether ``env`` holds a callable the user supplied.
    """
    env: Dict[str, Any] = {}
    user_code = False
    lines = [f"def {fn_name}(key, value, ctx):"]
    indent = "    "
    key_var, value_var = "key", "value"
    fresh = itertools.count()

    def const(value: Any) -> str:
        # Inline what has a literal form -- readable source, and the
        # analyzer re-derives the formula from it -- and bind the rest
        # (inf, nan, Decimal, dates, ...) as the object itself.
        if has_literal_form(value):
            return repr(value)
        cname = f"_k{next(fresh)}"
        env[cname] = value
        return cname

    for op in seg.ops:
        if isinstance(op, FilterNode):
            if isinstance(op.predicate, SymExpr):
                cond = to_source(op.predicate, value_var, const)
            else:
                pname = f"_p{next(fresh)}"
                env[pname] = op.predicate
                user_code = True
                cond = f"{pname}({value_var})"
            lines.append(f"{indent}if {cond}:")
            indent += "    "
        elif isinstance(op, (SelectNode, DeriveNode)):
            if isinstance(op, SelectNode):
                base = _schema_before(seg, op)
                if base is None or not base.transparent:
                    raise JobConfigError(
                        "select() needs schema metadata; supply "
                        "value_schema to the preceding map()"
                    )
                built = base.project(list(op.columns))
                args = ", ".join(
                    f"{value_var}.{c}" for c in built.field_names())
            else:
                built = op.value_schema
                args = ", ".join(
                    to_source(e, value_var, const) for e in op.exprs)
            # Build the new record directly.  The helper name is
            # knowledge-base-pure for sessions (FLUENT_KB), so the
            # emitted value stays functional and the analyzer can
            # re-derive the selection from the generated source.
            sname = f"{PROJECT_HELPER_PREFIX}{next(fresh)}"
            env[sname] = built.make
            new_value = f"v{next(fresh)}"
            lines.append(f"{indent}{new_value} = {sname}({args})")
            value_var = new_value
        elif isinstance(op, MapNode):
            mname = f"_m{next(fresh)}"
            env[mname] = op.fn
            user_code = True
            pair = f"r{next(fresh)}"
            new_key = f"k{next(fresh)}"
            new_value = f"v{next(fresh)}"
            lines.append(
                f"{indent}{pair} = {mname}({key_var}, {value_var})"
            )
            lines.append(f"{indent}{new_key} = {pair}[0]")
            lines.append(f"{indent}{new_value} = {pair}[1]")
            key_var, value_var = new_key, new_value

    for tail_line in tail(key_var, value_var):
        lines.append(indent + tail_line)
    return "\n".join(lines) + "\n", env, user_code


def _schema_after(ops: Sequence[LogicalNode],
                  schema: Optional[Schema]) -> Optional[Schema]:
    """The value schema once ``ops`` have run over ``schema`` records."""
    for op in ops:
        if isinstance(op, SelectNode) and schema is not None:
            schema = schema.project(list(op.columns))
        elif isinstance(op, (MapNode, DeriveNode)):
            schema = op.value_schema
    return schema


def _schema_before(seg: _Segment, op: LogicalNode) -> Optional[Schema]:
    """The value schema in effect just before ``op`` within the segment.

    Node identity (``is``) is deliberate: logical nodes hold column
    expressions whose ``==`` builds new expressions rather than comparing.
    """
    index = next(i for i, prior in enumerate(seg.ops) if prior is op)
    return _schema_after(seg.ops[:index], seg.in_value_schema)


# ---------------------------------------------------------------------------
# Hints
# ---------------------------------------------------------------------------


def _input_hints(seg: _Segment, input_index: int, input_tag: Optional[str],
                 mapper_name: str, emitted_columns: Optional[Set[str]],
                 batch: Union[BatchStageSpec, str]) -> InputAnalysis:
    """Exact optimization descriptors for one (input, synthesized mapper).

    ``emitted_columns`` are the base-record columns the stage tail reads
    (group/agg/join columns, or None meaning "everything still visible");
    ``batch`` is the stage's batch spec, or why it has none.
    """
    declined = isinstance(batch, str)
    ia = InputAnalysis(
        input_index=input_index,
        input_tag=input_tag,
        mapper_name=mapper_name,
        key_schema=seg.in_key_schema,
        value_schema=seg.in_value_schema,
        batch_spec=None if declined else batch,
        batch_decline=batch if declined else None,
    )
    schema = seg.in_value_schema
    if seg.pushdown:
        ia.selection = SelectionDescriptor(
            formula=selection_formula(seg.pushdown)
        )
    if schema is not None and schema.transparent and seg.used is not None:
        used = set(seg.used)
        if emitted_columns is not None:
            used |= emitted_columns
        elif seg.visible is not None:
            used |= set(seg.visible)
        used &= set(schema.field_names())
        unused = [c for c in schema.field_names() if c not in used]
        if unused:
            ia.projection = ProjectionDescriptor(
                used_value_fields=[
                    c for c in schema.field_names() if c in used
                ],
                unused_value_fields=unused,
                used_key_fields=(
                    seg.in_key_schema.field_names()
                    if seg.in_key_schema is not None else []
                ),
                unused_key_fields=[],
            )
        numeric = schema.numeric_field_names()
        if numeric:
            ia.delta = DeltaCompressionDescriptor(fields=numeric)
    return ia


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
        """The chain's pending ops, UDFs translated, analyzed."""
        ops = translate_udfs(chain.ops, chain.value_schema, self.analyze_udf)
        return _analyze_segment(ops, chain.key_schema, chain.value_schema)

    def _close_map_stage(self, chain: _Chain) -> StagePlan:
        stage_name = self._stage_name("map")
        seg = self._segment(chain)
        fn_name = "_fluent_map"
        mapper = _StageMapper(fn_name, *_codegen_segment(
            seg, fn_name, lambda k, v: [f"ctx.emit({k}, {v})"]
        ))
        conf = JobConf(
            name=stage_name,
            mapper=mapper,
            reducer=None,
            inputs=[scan_input(self._input_of(chain))],
            num_reducers=self.num_reducers,
        )
        # A bare pass-through scan gains nothing from vectorization (every
        # field decodes either way); only stages that actually filter or
        # project get a spec.
        batch = self._batch_spec(seg, lambda record: (
            WHOLE_KEY, record)) if seg.ops else "pass-through scan"
        hints = JobAnalysis(
            job_name=stage_name,
            inputs=[_input_hints(seg, 0, None, fn_name, None, batch)],
        )
        return StagePlan(
            conf=conf,
            hints=hints,
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

        # each aggregate's declared per-row partial, slots flattened: the
        # value the synthesized mapper and the batch spec emit
        slots = [
            column_ref(spec.column) if literal is None else SConst(literal)
            for spec in specs for literal in AGGREGATES[spec.op].partial
        ]

        def tail(key_var: str, value_var: str) -> List[str]:
            shown = [to_source(slot, value_var) for slot in slots]
            emitted = shown[0] if len(shown) == 1 else f"({', '.join(shown)})"
            return [f"ctx.emit({value_var}.{node.group_column}, {emitted})"]

        fn_name = "_fluent_agg_map"
        mapper = _StageMapper(fn_name, *_codegen_segment(seg, fn_name, tail))

        out_key_schema = self._group_key_schema(node, record_schema)
        out_value_schema, reducer = self._agg_reducer(
            node, names, specs, record_schema, stage_name
        )

        emitted_cols = {node.group_column} | {
            spec.column for spec in specs if spec.column is not None
        }
        conf = JobConf(
            name=stage_name,
            mapper=mapper,
            reducer=reducer,
            inputs=[scan_input(self._input_of(chain))],
            num_reducers=self.num_reducers,
        )
        self._materialize(conf, stage_name, out_key_schema, out_value_schema)
        batch = self._batch_spec(seg, lambda _record: (
            column_ref(node.group_column),
            slots[0] if len(slots) == 1 else STuple(slots)))
        if not isinstance(batch, str):
            batch.fold = [spec.op for spec in specs]
            batch.no_preagg = preagg_decline(
                [(spec.op, self._column_type(record_schema, spec.column))
                 for spec in specs], derived=batch.derived is not None)
        hints = JobAnalysis(
            job_name=stage_name,
            inputs=[
                _input_hints(
                    seg, 0, None, fn_name,
                    emitted_cols if not seg.seen_map else None, batch,
                )
            ],
        )
        agg_desc = ", ".join(
            f"{name}={spec.describe()}" for name, spec in node.aggs
        )
        descriptions = seg.descriptions + [
            f"group_by {node.group_column} agg {agg_desc}"
        ]
        return StagePlan(
            conf=conf,
            hints=hints,
            kind="aggregate",
            descriptions=descriptions,
            out_key_schema=out_key_schema,
            out_value_schema=out_value_schema,
        )

    def _batch_spec(self, seg: _Segment,
                    tail: Callable[[SymExpr], Tuple[SymExpr, SymExpr]]
                    ) -> Union[BatchStageSpec, str]:
        """The segment's :class:`BatchStageSpec` when it is fully
        analyzer-described, else why not; ``tail(record)`` is the
        stage's own emit over the record the segment ends with.

        This is the vectorization eligibility rule: column-expression
        filters and selects, then at most one computed projection (a
        translated ``map``, the spec's derived values) followed only by
        selects, over transparent key and value schemas.  An opaque
        ``map()`` or callable predicate, an opaque schema, or a filter
        *after* a computed projection (it reads derived columns, and the
        kernel evaluates a row's predicates before its derived values)
        all disqualify the segment -- the stage then runs
        record-at-a-time, unconditionally.  (A column the file lacks is
        the batch admission's decline, at run time.)
        """
        schema, key_schema = seg.in_value_schema, seg.in_key_schema
        if not self.vectorize:
            return "vectorize=False"
        if schema is None or key_schema is None \
                or not (schema.transparent and key_schema.transparent):
            return "opaque or unknown schema"
        derived: Optional[List[Tuple[str, SymExpr]]] = None
        reshaped = False
        for op in seg.ops:
            if isinstance(op, FilterNode):
                if not isinstance(op.predicate, SymExpr):
                    return "a callable filter is opaque"
                if derived is not None:
                    return "a filter after a computed map()"
            elif isinstance(op, DeriveNode):
                if derived is not None:
                    return "more than one computed map()"
                derived = list(zip(op.value_schema.field_names(), op.exprs))
            elif not isinstance(op, SelectNode):
                return "a map() is opaque"
            reshaped = reshaped or not isinstance(op, FilterNode)
        if not seg.out_value_schema.transparent:
            return "opaque or unknown schema"
        record = SRecord(seg.out_value_schema) if reshaped else WHOLE_VALUE
        # every filter precedes any map(), so the scan's pushed-down
        # predicates are all of them
        return BatchStageSpec(tail(record), list(seg.pushdown), derived)

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

        def side_tail(tag: str) -> Callable[[str, str], List[str]]:
            def tail(key_var: str, value_var: str) -> List[str]:
                return [
                    f"ctx.emit({value_var}.{node.on}, ({tag!r}, {value_var}))"
                ]
            return tail

        lfn, rfn = "_fluent_join_left", "_fluent_join_right"
        left_mapper = _StageMapper(
            lfn, *_codegen_segment(lseg, lfn, side_tail("L"))
        )
        right_mapper = _StageMapper(
            rfn, *_codegen_segment(rseg, rfn, side_tail("R"))
        )

        on_type = lschema.field(node.on).ftype
        out_key_schema = primitive_schema(f"{_camel(node.on)}Key", on_type)
        reducer = _JoinReducer(merged_schema, left_fields, right_fields)

        conf = JobConf(
            name=stage_name,
            mapper=left_mapper,
            reducer=reducer,
            inputs=[
                scan_input(self._input_of(left), tag="left"),
                scan_input(self._input_of(right), tag="right"),
            ],
            per_input_mappers={"left": left_mapper, "right": right_mapper},
            num_reducers=self.num_reducers,
        )
        self._materialize(conf, stage_name, out_key_schema, merged_schema)

        def side_batch(seg: _Segment, tag: str) -> Union[BatchStageSpec, str]:
            return self._batch_spec(seg, lambda record: (
                column_ref(node.on), STuple([SConst(tag), record])))

        lcols = set(lseg.visible or lschema.field_names()) | {node.on}
        rcols = set(rseg.visible or rschema.field_names()) | {node.on}
        hints = JobAnalysis(
            job_name=stage_name,
            inputs=[
                _input_hints(lseg, 0, "left", lfn,
                             lcols if not lseg.seen_map else None,
                             side_batch(lseg, "L")),
                _input_hints(rseg, 1, "right", rfn,
                             rcols if not rseg.seen_map else None,
                             side_batch(rseg, "R")),
            ],
        )
        return StagePlan(
            conf=conf,
            hints=hints,
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
