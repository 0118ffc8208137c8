"""Tests for interval extraction and selection-plan compilation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer.conditions import (
    ROLE_VALUE,
    Conjunct,
    SCompare,
    SConst,
    SelectionFormula,
    SNot,
    SParamField,
)
from repro.core.optimizer.predicates import (
    Interval,
    compile_selection,
    merge_intervals,
)
from tests.conftest import WEBPAGE


def atom(op, c, field="rank"):
    return SCompare(op, SParamField(ROLE_VALUE, (field,)), SConst(c))


def mirrored(op, c, field="rank"):
    return SCompare(op, SConst(c), SParamField(ROLE_VALUE, (field,)))


def formula(*conjuncts):
    return SelectionFormula([Conjunct(list(c)) for c in conjuncts])


class TestInterval:
    def test_intersect(self):
        a = Interval(lo=0, hi=10)
        b = Interval(lo=5, hi=20)
        c = a.intersect(b)
        assert (c.lo, c.hi) == (5, 10)

    def test_intersect_empty(self):
        assert Interval(lo=10).intersect(Interval(hi=5)).is_empty()

    def test_touching_exclusive_bounds_empty(self):
        c = Interval(lo=5, lo_inclusive=False).intersect(
            Interval(hi=5, hi_inclusive=True)
        )
        assert c.is_empty()

    def test_point_interval_not_empty(self):
        assert not Interval(lo=5, hi=5).is_empty()

    def test_union_hull(self):
        a = Interval(lo=0, hi=10)
        b = Interval(lo=5, hi=20)
        u = a.union_hull(b)
        assert (u.lo, u.hi) == (0, 20)


@st.composite
def intervals(draw):
    lo = draw(st.one_of(st.none(), st.integers(-50, 50)))
    hi = draw(st.one_of(st.none(), st.integers(-50, 50)))
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def _contains(iv, x):
    if iv.lo is not None:
        if x < iv.lo or (x == iv.lo and not iv.lo_inclusive):
            return False
    if iv.hi is not None:
        if x > iv.hi or (x == iv.hi and not iv.hi_inclusive):
            return False
    return True


class TestMergeIntervals:
    def test_disjoint_stay_separate(self):
        merged = merge_intervals([Interval(0, 5), Interval(10, 15)])
        assert len(merged) == 2

    def test_overlap_merges(self):
        merged = merge_intervals([Interval(0, 7), Interval(5, 15)])
        assert len(merged) == 1
        assert (merged[0].lo, merged[0].hi) == (0, 15)

    def test_empty_dropped(self):
        assert merge_intervals([Interval(10, 5)]) == []

    @given(ivs=st.lists(intervals(), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_union_semantics_preserved(self, ivs):
        merged = merge_intervals(ivs)
        # Merged intervals are disjoint and sorted.
        for a, b in zip(merged, merged[1:]):
            assert a.hi is not None and b.lo is not None
        for x in range(-60, 61):
            before = any(_contains(iv, x) for iv in ivs)
            after = any(_contains(iv, x) for iv in merged)
            assert before == after, x


class TestCompileSelection:
    def test_simple_gt(self):
        plan = compile_selection(formula([atom(">", 10)]), WEBPAGE)
        assert plan is not None and plan.field_name == "rank"
        assert len(plan.intervals) == 1
        assert plan.intervals[0].lo == 10 and not plan.intervals[0].lo_inclusive

    def test_mirrored_comparison(self):
        # 10 < value.rank  ==  value.rank > 10
        plan = compile_selection(formula([mirrored("<", 10)]), WEBPAGE)
        assert plan.intervals[0].lo == 10
        assert not plan.intervals[0].lo_inclusive

    def test_conjunctive_range(self):
        plan = compile_selection(
            formula([atom(">=", 10), atom("<=", 20)]), WEBPAGE
        )
        iv = plan.intervals[0]
        assert (iv.lo, iv.hi) == (10, 20)

    def test_disjuncts_merge_overlapping(self):
        plan = compile_selection(
            formula([atom(">", 10)], [atom(">", 5)]), WEBPAGE
        )
        assert len(plan.intervals) == 1
        assert plan.intervals[0].lo == 5

    def test_disjoint_disjuncts_two_ranges(self):
        plan = compile_selection(
            formula([atom("<", 0)], [atom(">", 10)]), WEBPAGE
        )
        assert len(plan.intervals) == 2

    def test_equality_point_range(self):
        plan = compile_selection(formula([atom("==", 7)]), WEBPAGE)
        iv = plan.intervals[0]
        assert iv.lo == iv.hi == 7 and iv.lo_inclusive and iv.hi_inclusive

    def test_unsatisfiable_disjunct_dropped(self):
        plan = compile_selection(
            formula([atom(">", 10), atom("<", 5)], [atom("==", 3)]), WEBPAGE
        )
        assert len(plan.intervals) == 1
        assert plan.intervals[0].lo == 3

    def test_fully_unsatisfiable_formula_empty_ranges(self):
        plan = compile_selection(
            formula([atom(">", 10), atom("<", 5)]), WEBPAGE
        )
        assert plan is not None
        assert plan.intervals == []
        assert plan.key_ranges() == []

    def test_unconstrained_disjunct_defeats_index(self):
        # Second disjunct has no rank constraint: full-range scan, useless.
        other = SCompare("==", SParamField(ROLE_VALUE, ("url",)), SConst("u"))
        plan = compile_selection(
            formula([atom(">", 10)], [other]), WEBPAGE, field_name="rank"
        )
        assert plan is None

    def test_string_field_indexable(self):
        plan = compile_selection(
            formula([atom(">=", "m", field="url")]), WEBPAGE
        )
        assert plan.field_name == "url"

    def test_residual_evaluates_formula(self):
        f = formula([atom(">", 10), atom("!=", 12)])
        plan = compile_selection(f, WEBPAGE)
        residual = plan.formula
        assert residual.evaluate("k", WEBPAGE.make("u", 11, "c"))
        assert not residual.evaluate("k", WEBPAGE.make("u", 12, "c"))
        assert residual.reads() == (False, ("rank",))

    def test_explicit_field_choice(self):
        f = formula([atom(">", 10), atom("==", "u", "url")])
        by_url = compile_selection(f, WEBPAGE, field_name="url")
        assert by_url is not None and by_url.field_name == "url"

    def test_key_ranges_encode_bounds(self):
        plan = compile_selection(formula([atom(">", 10), atom("<=", 20)]),
                                 WEBPAGE)
        ranges = plan.key_ranges()
        assert len(ranges) == 1
        assert ranges[0].lo is not None and not ranges[0].lo_inclusive
        assert ranges[0].hi is not None and ranges[0].hi_inclusive


class TestFloatConstantOnAnIntField:
    """``rank`` is INT: a finite float bounds the integers it admits."""

    @pytest.mark.parametrize("op", [">", ">=", "<", "<=", "=="])
    @pytest.mark.parametrize("c", [40.5, 41.0, -0.5, -1.0, 0.0])
    def test_integer_bounds(self, op, c):
        plan = compile_selection(formula([atom(op, c)]), WEBPAGE)
        admits = {x for x in range(-5, 50) if plan.formula.evaluate(
            "k", WEBPAGE.make("u", x, "c"))}
        assert {x for x in range(-5, 50)
                if any(_contains(iv, x) for iv in plan.intervals)} == admits
        assert all(type(bound) is int for iv in plan.intervals
                   for bound in (iv.lo, iv.hi) if bound is not None)
        assert len(plan.key_ranges()) == len(plan.intervals)
        assert not plan.exact  # the float atom stays in the residual

    def test_mirrored_and_negated(self):
        [iv] = compile_selection(formula([mirrored("<", 40.5)]),
                                 WEBPAGE).intervals
        assert (iv.lo, iv.lo_inclusive) == (40, False)
        negated = SNot(atom(">", 40.5))  # rank <= 40.5
        [iv] = compile_selection(formula([negated]), WEBPAGE).intervals
        assert (iv.hi, iv.hi_inclusive) == (40, True)

    def test_equality_with_a_fraction_admits_nothing(self):
        plan = compile_selection(formula([atom("==", 40.5)]), WEBPAGE)
        assert plan.intervals == [] and plan.key_ranges() == []

    @pytest.mark.parametrize("c", [1e30, float("inf"), float("nan")])
    def test_no_order_key_widens(self, c):
        assert compile_selection(formula([atom("<", c)]), WEBPAGE) is None
