"""Vectorization specs: what a lowered stage's map body does, declaratively.

The fluent lowering (the api layer's ``plan`` module) already knows each
stage's exact predicates, projected columns and aggregate list -- that
knowledge is what lets it hand Manimal Appendix-A hints.  A :class:`BatchStageSpec`
is the same knowledge packaged for the *executor*: when a stage's map
body is nothing but analyzer-described selection/projection/known
aggregates, the runtime can evaluate it batch-at-a-time over decoded
column arrays instead of calling the synthesized mapper once per record.

A spec is a promise about semantics, not a command: the batch executor
re-checks it against the concrete input file at run time (source type,
schema transparency, column availability) and returns control to the
record-at-a-time path whenever anything does not hold.  Stages with
opaque UDFs (``map()`` / callable filters the analyzer could not
translate) or opaque schemas never get a spec in the first place.

A spec describes the map side only: whichever path produced them, a
stage's pairs shuffle through the one run format of
:mod:`repro.mapreduce.shuffle` and reduce through its generated reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from repro.storage.serialization import FieldType, Schema
from repro.symbolic import SymExpr

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


@dataclass(eq=False)
class BatchStageSpec:
    """One stage's map body, described for vectorized execution.

    ``kind`` is ``'map'`` (emit ``(key, value)``), ``'aggregate'`` (emit
    ``(group value, agg inputs)``) or ``'join-side'`` (emit
    ``(join-key value, (tag, value))``).  Specs are built from the
    *declared* scan schema at lowering time; column names are re-resolved
    against the actual file schema when the task runs, so the spec stays
    valid when the planner redirects the stage at a projection file.
    """

    kind: str
    #: conjunction of pure column predicates, in user order
    predicates: List[SymExpr] = field(default_factory=list)
    #: final projected value columns (None = emit the input record as-is)
    project_columns: Optional[List[str]] = None
    #: schema of projected emits, as chained ``Schema.project`` derived it
    #: in the synthesized mapper; the ``derived`` record's own schema
    #: when nothing projects it further (None when the stage emits the
    #: scanned record as-is)
    out_value_schema: Optional[Schema] = None
    #: a computed projection (a translated ``map``): ``(field,
    #: expression)`` pairs over the scanned columns, all evaluated for
    #: each row that passes ``predicates``.  The stage then projects,
    #: groups, aggregates and joins on the *derived* record's fields.
    derived: Optional[List[Tuple[str, SymExpr]]] = None
    #: aggregate stages: the GROUP BY column and ordered (op, column) list
    group_column: Optional[str] = None
    aggs: Optional[List[Tuple[str, Optional[str]]]] = None
    #: why map-side hash pre-aggregation is off (``None``: on); decided
    #: at lowering, where field types are known (:func:`preagg_decline`)
    no_preagg: Optional[str] = "aggregate input types unknown"
    #: join stages: the equality column and this side's 'L'/'R' tag
    join_on: Optional[str] = None
    join_tag: Optional[str] = None

    def derived_exprs(self) -> Optional[List[SymExpr]]:
        if self.derived is None:
            return None
        return [expr for _name, expr in self.derived]

    def needed_columns(self) -> Optional[List[str]]:
        """Value columns the batch executor must decode, in a stable order.

        ``None`` means every column of the file's schema (pass-through
        emit).  Predicate columns come first, then emit columns; the
        order only affects decode-plan layout, never output bytes.
        """
        if self.derived is None and self.project_columns is None \
                and self.kind in ("map", "join-side"):
            return None
        needed: List[str] = []
        seen = set()

        def add(name: Optional[str]) -> None:
            if name is not None and name not in seen:
                seen.add(name)
                needed.append(name)

        for expr in self.predicates + (self.derived_exprs() or []):
            for name in sorted(expr.value_columns()):
                add(name)
        if self.derived is not None:
            # group/aggregate/join/emit columns name derived fields
            return needed
        if self.kind == "aggregate":
            add(self.group_column)
            for _op, column in self.aggs or []:
                add(column)
        else:
            if self.kind == "join-side":
                add(self.join_on)
            for name in self.project_columns or []:
                add(name)
        return needed

    def describe(self) -> str:
        parts = [self.kind]
        if self.predicates:
            parts.append(f"{len(self.predicates)} predicate(s)")
        if self.derived is not None:
            names = ", ".join(name for name, _expr in self.derived)
            parts.append(f"derive [{names}]")
        if self.project_columns is not None:
            parts.append(f"project [{', '.join(self.project_columns)}]")
        if self.kind == "aggregate":
            aggs = ", ".join(
                f"{op}({column or '*'})" for op, column in self.aggs or []
            )
            parts.append(f"group_by {self.group_column} agg {aggs}")
            parts.append(preagg_text(self.no_preagg))
        if self.kind == "join-side":
            parts.append(f"on {self.join_on} tag {self.join_tag}")
        return ", ".join(parts)
