"""Batch specs: what a stage's map body does, declaratively.

When a map body is nothing but analyzer-described selection and
computation, the runtime can evaluate it a block at a time over decoded
column arrays instead of calling ``map()`` once per record.  A
:class:`BatchStageSpec` is that description, and it has one shape
whichever door built it:

* ``predicates`` -- a conjunction of pure column predicates, in order;
* ``derived`` -- named values computed for every row that passes, in
  order;
* ``emit`` -- one ``(K, V)`` pair per passing row.  ``K`` and ``V`` read
  scanned columns, or the derived values of those names (a derive that
  replaced the record is read through its field names); besides
  columns they may be the whole key, a constant, or a record of a given
  schema (:class:`SRecord`; the whole scanned record is ``$value``),
  and ``V`` may be a tuple of those;
* ``fold`` -- optionally, the :data:`AGGREGATES` ops whose partials the
  slots of ``V`` are, so map tasks may pre-aggregate per ``K``.

The fluent lowering (the api layer's ``plan`` module) describes a map
stage as ``(key, record)``, a join side as ``(on, (tag, record))`` and
an aggregate as ``(group, slots)`` with a ``fold``; a translated
``map`` is a derive.  The analyzer describes a classic ``map()``'s one
``ctx.emit(K, V)`` (:mod:`repro.core.analyzer.emitspec`), the parts it
computes becoming derived values.  Either way the spec rides the
stage's :class:`~repro.core.analyzer.descriptors.InputAnalysis` (the
lowering's hints, or the analysis), the optimizer attaches it to the
job (:meth:`~repro.core.optimizer.planner.ExecutionDescriptor.apply`),
and the one executor (:mod:`repro.batch.executor`) serves it.

A spec is a promise about semantics, not a command: the batch executor
re-checks it against the concrete input file at run time (source type,
schema transparency, column availability) and returns control to the
record-at-a-time path whenever anything does not hold.  Stages with
opaque UDFs (``map()`` / callable filters the analyzer could not
translate) or opaque schemas never get a spec in the first place.

A spec describes the map side only: whichever path produced them, a
stage's pairs shuffle through the one run format of
:mod:`repro.mapreduce.shuffle` and reduce through the stage's reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from repro.storage.serialization import FieldType, Schema
from repro.symbolic import ROLE_KEY, ROLE_VALUE, SConst, SParam, SParamField, STuple, SymExpr

_INTEGERS = frozenset({FieldType.INT, FieldType.LONG})


@dataclass(frozen=True)
class Aggregate:
    """One aggregate's (partial, merge, finish) triple.

    A map-side partial is legal for any aggregate that declares one: the
    mapper emits ``partial`` per row, any number of those fold into one
    partial per group with ``merge``, and the reducer -- which sees
    per-row partials or pre-aggregated ones alike -- merges what it gets
    and applies ``finish``.
    """

    #: the per-row partial, one shuffled slot per entry: ``None`` is the
    #: aggregate's input value, anything else that literal.  The slots of
    #: a stage's aggregates concatenate into one flat tuple.
    partial: Tuple[Optional[int], ...]
    #: folds one slot's values with one C-level builtin
    merge: Callable[[Iterable[Any]], Any]
    #: the reducer's result over the merged slots ``{0}``, ``{1}``, ...
    finish: str = "{0}"
    #: input types for which merging partials is byte-identical to the
    #: per-row reduce (``None``: any -- the input is never read).  Float
    #: ``+`` is not associative and NaN breaks ``min``/``max`` (per row,
    #: ``min`` over ``[1.0, nan, 0.5]`` is 0.5; merged from the partials
    #: ``1.0`` and ``nan`` it is 1.0), so ``DOUBLE`` stays per-row.
    exact: Optional[FrozenSet[FieldType]] = _INTEGERS

    @property
    def pairwise(self) -> Callable[[Any, Any], Any]:
        """``merge`` of two values, for folding row by row."""
        return add if self.merge is sum else self.merge

    def folds(self, ftype: Optional[FieldType]) -> bool:
        """Whether partials over ``ftype`` inputs merge byte-identically
        (and so whether map- and reduce-side folds may merge them)."""
        return self.exact is None or ftype in self.exact


#: The aggregate table: the synthesized mapper's emit, the generated
#: reducer and map-side hash pre-aggregation all read it.
AGGREGATES: Dict[str, Aggregate] = {
    "count": Aggregate((1,), sum, exact=None),
    "sum": Aggregate((None,), sum),
    "min": Aggregate((None,), min),
    "max": Aggregate((None,), max),
    "avg": Aggregate((None, 1), sum, "{0} / {1}"),
}


def preagg_decline(aggs: Iterable[Tuple[str, Optional[FieldType]]],
                   derived: bool) -> Optional[str]:
    """Why folding ``(op, input type)`` aggregates into map-side
    partials might change the output bytes; ``None`` when it cannot.

    Computed columns decline too: their declared type is the user's
    word, not the file codec's.
    """
    if derived:
        return "derived column"
    for op, ftype in aggs:
        if not AGGREGATES[op].folds(ftype):
            why = ("is order-sensitive" if ftype is FieldType.DOUBLE
                   else "has no exact partial")
            return f"{op} over {ftype.name} {why}"
    return None


def preagg_text(decline: Optional[str]) -> str:
    return "hash pre-agg" if decline is None else f"no pre-agg ({decline})"


class SRecord(SymExpr):
    """An emitted record of ``schema``, its fields read from the columns
    of the same names."""

    __slots__ = ("schema", "fields")

    def __init__(self, schema: Schema):
        self.schema = schema
        self.fields = tuple(SParamField(ROLE_VALUE, (name,))
                            for name in schema.field_names())

    def children(self) -> Tuple[SymExpr, ...]:
        return self.fields

    def __repr__(self) -> str:
        return f"{self.schema.name}({', '.join(self.schema.field_names())})"


def column_ref(name: str) -> SParamField:
    """An emit part reading column ``name``."""
    return SParamField(ROLE_VALUE, (name,))


#: emit parts: the whole key, and the whole scanned value record
WHOLE_KEY, WHOLE_VALUE = SParam(ROLE_KEY), SParam(ROLE_VALUE)


#: how the executor gathers an emitted part: a column's values, a
#: constant, or records built from columns
COLUMN, CONST, RECORD = "column", "const", "record"


def part_source(part: SymExpr) -> Optional[Tuple[str, Any]]:
    """``(COLUMN, name)`` for a column (name ``None``: the whole key),
    ``(CONST, value)`` or ``(RECORD, schema)`` (schema ``None``: the
    whole scanned record) -- or ``None`` for a part that has to be
    computed, which a spec holds as a derived value instead."""
    if isinstance(part, SParam):
        return (COLUMN, None) if part.role == ROLE_KEY else (RECORD, None)
    if isinstance(part, SParamField) and part.role == ROLE_VALUE \
            and len(part.path) == 1:
        return COLUMN, part.path[0]
    if isinstance(part, SConst):
        return CONST, part.value
    if isinstance(part, SRecord):
        return RECORD, part.schema
    return None


@dataclass(eq=False)
class BatchStageSpec:
    """One stage's map body, described for vectorized execution.

    Specs are built from the *declared* scan schema at lowering (or
    analysis) time; column names are re-resolved against the actual file
    schema when the task runs, so the spec stays valid when the planner
    redirects the stage at a projection file.
    """

    #: ``(K, V)``, emitted for each row passing ``predicates``; every
    #: part is gathered as :func:`part_source` says
    emit: Tuple[SymExpr, SymExpr]
    #: conjunction of pure column predicates, in user order
    predicates: List[SymExpr] = field(default_factory=list)
    #: ``(name, expression)`` pairs over the scanned columns, all
    #: evaluated, in order, for each row that passes ``predicates``; an
    #: emitted column of one of these names reads the derived value
    derived: Optional[List[Tuple[str, SymExpr]]] = None
    #: the value columns the scan captures (``None``: those the
    #: expressions read, every stored one when ``$value`` is emitted);
    #: a whole ``$value`` is the stored record narrowed to them
    project_columns: Optional[List[str]] = None
    #: the ``AGGREGATES`` ops whose partials ``V``'s slots are, in order
    #: (``None``: the stage does not aggregate)
    fold: Optional[List[str]] = None
    #: why map-side pre-aggregation of ``fold`` is off (``None``: on);
    #: decided where field types are known (:func:`preagg_decline`)
    no_preagg: Optional[str] = None

    def __post_init__(self) -> None:
        for part in self.emit_parts():
            if part_source(part) is None:
                raise TypeError(f"emit part {part!r} is computed; "
                                "derive it")

    def emit_parts(self) -> List[SymExpr]:
        """``K`` and the items of ``V``, in the order ``map()`` emits
        them."""
        key, value = self.emit
        return [key, *(value.items if isinstance(value, STuple)
                       else (value,))]

    def kernel_exprs(self) -> Optional[List[SymExpr]]:
        """What the stage's kernel computes for each passing row beside
        its predicates: the derived values (``None``: there are none)."""
        if self.derived is None:
            return None
        return [expr for _name, expr in self.derived]

    @cached_property
    def _reads(self) -> List[str]:
        """The scanned value columns the expressions read, in decode
        order: predicate and derived columns first, then emitted ones
        (worked out once: every map task's scan plan asks)."""
        derived = {name for name, _expr in self.derived or ()}
        names = [name for expr in self.predicates + (self.kernel_exprs()
                                                     or [])
                 for name in sorted(expr.value_columns())]
        names += [node.path[0] for part in self.emit_parts()
                  for node in part.walk()
                  if isinstance(node, SParamField) and node.role == ROLE_VALUE
                  and node.path[0] not in derived]
        return list(dict.fromkeys(names))

    def value_columns(self) -> List[str]:
        """Every scanned value column the stage's expressions read."""
        return sorted(self._reads)

    @cached_property
    def reads_keys(self) -> bool:
        """Whether the stage reads its input keys: an expression reads a
        key field, or the whole key is emitted."""
        return any(
            isinstance(node, (SParam, SParamField)) and node.role == ROLE_KEY
            for expr in self.predicates + (self.kernel_exprs() or [])
            + self.emit_parts()
            for node in expr.walk()
        )

    def needed_columns(self) -> Optional[List[str]]:
        """Value columns the batch executor must decode, in a stable order.

        ``None`` means every column of the file's schema.  Unless
        ``project_columns`` says, these are the columns the expressions
        read; the order only affects decode-plan layout, never output
        bytes.
        """
        if self.project_columns is not None:
            return list(self.project_columns)
        if any(isinstance(part, SParam) and part.role == ROLE_VALUE
               for part in self.emit_parts()):
            return None
        return list(self._reads)

    def describe(self) -> str:
        parts = []
        if self.predicates:
            parts.append(f"{len(self.predicates)} predicate(s)")
        if self.derived is not None:
            values = ", ".join(f"{name}={expr!r}"
                               for name, expr in self.derived)
            parts.append(f"derive [{values}]")
        if self.project_columns is not None:
            parts.append(f"capture [{', '.join(self.project_columns)}]")
        key, value = self.emit
        parts.append(f"emit ({key!r}, {value!r})")
        if self.fold is not None:
            parts.append(f"fold [{', '.join(self.fold)}]")
        return ", ".join(parts)
