"""Turning selection formulas into B+Tree scan plans.

The analyzer's :class:`SelectionFormula` is a DNF over arbitrary functional
conditions.  To exploit a B+Tree, the optimizer must find a *single indexed
field* and convert each disjunct's constraints on that field into a key
interval; everything else becomes a residual predicate re-checked per
record during the scan (cheap, and required for correctness whenever the
index cannot express the full formula).

Widening is always toward *more* records: a disjunct with no extractable
constraint on the chosen field widens to the full key range; overlapping
intervals merge.  Records admitted by widening but failing the residual
are skipped before ``map()`` is invoked -- the safety argument is the
formula's ``isFunc`` guarantee, established by the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.analyzer.conditions import (
    CMP_MIRROR,
    ROLE_VALUE,
    SCompare,
    SConst,
    SelectionFormula,
    SParamField,
)
from repro.mapreduce.formats import KeyRange
from repro.storage.orderkeys import encode_key, successor
from repro.storage.serialization import FieldType, Schema

#: Sentinel meaning "unbounded" in interval endpoints.
UNBOUNDED = None


@dataclass(frozen=True)
class Interval:
    """A (possibly open-ended) interval of field values."""

    lo: Any = UNBOUNDED
    hi: Any = UNBOUNDED
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def is_empty(self) -> bool:
        if self.lo is UNBOUNDED or self.hi is UNBOUNDED:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_inclusive and self.hi_inclusive)
        return False

    def intersect(self, other: "Interval") -> "Interval":
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not UNBOUNDED:
            if lo is UNBOUNDED or other.lo > lo:
                lo, lo_inc = other.lo, other.lo_inclusive
            elif other.lo == lo:
                lo_inc = lo_inc and other.lo_inclusive
        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not UNBOUNDED:
            if hi is UNBOUNDED or other.hi < hi:
                hi, hi_inc = other.hi, other.hi_inclusive
            elif other.hi == hi:
                hi_inc = hi_inc and other.hi_inclusive
        return Interval(lo, hi, lo_inc, hi_inc)

    def overlaps_or_touches(self, other: "Interval") -> bool:
        """Whether the union of two intervals is itself an interval."""
        a, b = (self, other)
        if a.lo is not UNBOUNDED and (
            b.hi is not UNBOUNDED
            and (a.lo > b.hi or (a.lo == b.hi and not (a.lo_inclusive or b.hi_inclusive)))
        ):
            return False
        if b.lo is not UNBOUNDED and (
            a.hi is not UNBOUNDED
            and (b.lo > a.hi or (b.lo == a.hi and not (b.lo_inclusive or a.hi_inclusive)))
        ):
            return False
        return True

    def union_hull(self, other: "Interval") -> "Interval":
        """Union of two overlapping intervals (callers check overlap)."""
        if self.lo is UNBOUNDED or other.lo is UNBOUNDED:
            lo, lo_inc = UNBOUNDED, True
        elif self.lo < other.lo:
            lo, lo_inc = self.lo, self.lo_inclusive
        elif other.lo < self.lo:
            lo, lo_inc = other.lo, other.lo_inclusive
        else:
            lo, lo_inc = self.lo, self.lo_inclusive or other.lo_inclusive
        if self.hi is UNBOUNDED or other.hi is UNBOUNDED:
            hi, hi_inc = UNBOUNDED, True
        elif self.hi > other.hi:
            hi, hi_inc = self.hi, self.hi_inclusive
        elif other.hi > self.hi:
            hi, hi_inc = other.hi, other.hi_inclusive
        else:
            hi, hi_inc = self.hi, self.hi_inclusive or other.hi_inclusive
        return Interval(lo, hi, lo_inc, hi_inc)

    def __repr__(self) -> str:
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        lo = "-inf" if self.lo is UNBOUNDED else repr(self.lo)
        hi = "+inf" if self.hi is UNBOUNDED else repr(self.hi)
        return f"{lo_b}{lo}, {hi}{hi_b}"


_OP_TO_INTERVAL = {
    ">": lambda c: Interval(lo=c, lo_inclusive=False),
    ">=": lambda c: Interval(lo=c, lo_inclusive=True),
    "<": lambda c: Interval(hi=c, hi_inclusive=False),
    "<=": lambda c: Interval(hi=c, hi_inclusive=True),
    "==": lambda c: Interval(lo=c, hi=c),
}


def _atom_interval(term, field_name: str) -> Optional[Interval]:
    """Interval contributed by one conjunct term, or None if inexpressible.

    Recognizes ``value.<field> OP const`` and the mirrored orientation.
    """
    if not isinstance(term, SCompare):
        return None
    left, right, op = term.left, term.right, term.op
    if (
        isinstance(right, SParamField)
        and right.role == ROLE_VALUE
        and right.path == (field_name,)
        and isinstance(left, SConst)
        and op in CMP_MIRROR
    ):
        left, right, op = right, left, CMP_MIRROR[op]
    if not (
        isinstance(left, SParamField)
        and left.role == ROLE_VALUE
        and left.path == (field_name,)
        and isinstance(right, SConst)
    ):
        return None
    builder = _OP_TO_INTERVAL.get(op)
    if builder is None:
        return None  # !=, in, is ... not interval-expressible
    return builder(right.value)


def merge_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Union a set of intervals into disjoint, sorted intervals."""
    todo = [iv for iv in intervals if not iv.is_empty()]
    if not todo:
        return []

    def sort_token(iv: Interval) -> Tuple:
        if iv.lo is UNBOUNDED:
            return (0, 0, 0)
        return (1, iv.lo, 0 if iv.lo_inclusive else 1)

    todo.sort(key=sort_token)
    out: List[Interval] = [todo[0]]
    for iv in todo[1:]:
        if out[-1].overlaps_or_touches(iv):
            out[-1] = out[-1].union_hull(iv)
        else:
            out.append(iv)
    return out


@dataclass
class IndexableSelection:
    """A selection formula compiled against one indexed field."""

    field_name: str
    field_type: FieldType
    intervals: List[Interval]
    formula: SelectionFormula
    #: True when the intervals alone imply the formula (single-field DNF);
    #: the residual is applied regardless, this is informational
    exact: bool

    def residual(self) -> Callable[[Any, Any], bool]:
        # the bound method, not a closure over it: it pickles, so an
        # index-served job still rides the persistent pool
        return self.formula.evaluate

    def key_ranges(self) -> List[KeyRange]:
        """Encode intervals as B+Tree scan ranges."""
        ranges: List[KeyRange] = []
        for iv in self.intervals:
            lo = None if iv.lo is UNBOUNDED else encode_key(self.field_type, iv.lo)
            hi = None if iv.hi is UNBOUNDED else encode_key(self.field_type, iv.hi)
            ranges.append(
                KeyRange(lo, hi, iv.lo_inclusive, iv.hi_inclusive)
            )
        return ranges

    def __repr__(self) -> str:
        ivs = ", ".join(repr(iv) for iv in self.intervals)
        return f"IndexableSelection({self.field_name}: {ivs}, exact={self.exact})"


def candidate_fields(formula: SelectionFormula, schema: Schema) -> List[str]:
    """Value fields referenced by the formula, in first-appearance order."""
    seen: List[str] = []
    for role, name in formula.field_refs():
        if role == ROLE_VALUE and name not in seen and schema.has_field(name):
            if schema.field(name).ftype.is_comparable:
                seen.append(name)
    return seen


def compile_selection(
    formula: SelectionFormula,
    schema: Schema,
    field_name: Optional[str] = None,
) -> Optional[IndexableSelection]:
    """Compile a formula against an index field (chosen or given).

    Returns None when no field yields a non-trivial set of intervals --
    i.e. when every disjunct would widen to the full range and the index
    could not skip anything.
    """
    fields = [field_name] if field_name else candidate_fields(formula, schema)
    best: Optional[IndexableSelection] = None
    for candidate in fields:
        if not schema.has_field(candidate):
            continue
        ftype = schema.field(candidate).ftype
        if not ftype.is_comparable:
            continue
        intervals: List[Interval] = []
        exact = True
        useful = False
        satisfiable_disjuncts = 0
        for disjunct in formula.disjuncts:
            acc = Interval()
            constrained = False
            for term in disjunct.terms:
                atom = _atom_interval(term, candidate)
                if atom is None:
                    exact = False
                    continue
                acc = acc.intersect(atom)
                constrained = True
            if len(disjunct.terms) > (1 if constrained else 0):
                exact = False
            if acc.is_empty():
                # This disjunct can never hold; it contributes no range.
                continue
            satisfiable_disjuncts += 1
            if constrained and (acc.lo is not UNBOUNDED or acc.hi is not UNBOUNDED):
                useful = True
            intervals.append(acc)
        if satisfiable_disjuncts == 0 and formula.disjuncts:
            # Every disjunct's constraints on this field contradict: the
            # formula is provably unsatisfiable and no record can emit.
            return IndexableSelection(
                field_name=candidate,
                field_type=ftype,
                intervals=[],
                formula=formula,
                exact=True,
            )
        if not useful:
            continue
        merged = merge_intervals(intervals)
        if any(
            iv.lo is UNBOUNDED and iv.hi is UNBOUNDED for iv in merged
        ):
            # Some disjunct widened to the full key range: the index scan
            # would read everything and save nothing.  Try another field.
            continue
        plan = IndexableSelection(
            field_name=candidate,
            field_type=ftype,
            intervals=merged,
            formula=formula,
            exact=exact and satisfiable_disjuncts == len(intervals),
        )
        if best is None:
            best = plan
        if field_name:
            return plan
    return best
