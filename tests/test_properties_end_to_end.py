"""Deeper end-to-end property tests on the core correctness invariants.

These are the reproduction's strongest guarantees, stated as properties:

1. For a family of compound-predicate mappers and arbitrary data, the
   extracted selection formula is semantically identical to the mapper's
   own emit decision.
2. Submitting through Manimal (indexes and all) never changes job output.
3. The B+Tree scan plan (ranges + residual) admits exactly the records
   the formula admits.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.core.optimizer.predicates import compile_selection
from repro.mapreduce import JobConf, RecordFileInput, run_job
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import STRING_SCHEMA, FieldType
from tests.conftest import WEBPAGE, write_webpages

ANALYZER = ManimalAnalyzer()


class CompoundMapper(Mapper):
    """Two-field DNF: (lo <= rank <= hi and url startswith p) or rank == x."""

    def __init__(self, lo, hi, exact, prefix):
        self.lo = lo
        self.hi = hi
        self.exact = exact
        self.prefix = prefix

    def map(self, key, value, ctx):
        if (
            value.rank >= self.lo
            and value.rank <= self.hi
            and value.url.startswith(self.prefix)
        ) or value.rank == self.exact:
            ctx.emit(value.rank, value.url)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, len(list(values)))


compound_params = st.tuples(
    st.integers(min_value=0, max_value=50),   # lo
    st.integers(min_value=0, max_value=50),   # hi
    st.integers(min_value=0, max_value=50),   # exact
    st.sampled_from(["http://x/1", "http://x/2", "http://", "zzz"]),
)


class TestFormulaSemantics:
    @given(params=compound_params,
           rank=st.integers(min_value=0, max_value=50),
           url_suffix=st.integers(min_value=0, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_formula_equals_mapper_decision(self, params, rank, url_suffix):
        mapper = CompoundMapper(*params)
        record = WEBPAGE.make(f"http://x/{url_suffix}", rank, "c")
        ctx = Context()
        mapper.map("k", record, ctx)
        emitted = bool(ctx.emitted)

        result = ANALYZER.analyze_mapper(mapper, STRING_SCHEMA, WEBPAGE,
                                         reduce_leaks_key=True)
        assert result.selection is not None, result.notes
        assert result.selection.formula.evaluate("k", record) == emitted

    @given(params=compound_params,
           ranks=st.lists(st.integers(min_value=0, max_value=50),
                          min_size=1, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_scan_plan_admits_exactly_matching_records(self, params, ranks):
        """Ranges widen, residual narrows: net effect is exact."""
        mapper = CompoundMapper(*params)
        result = ANALYZER.analyze_mapper(mapper, STRING_SCHEMA, WEBPAGE,
                                         reduce_leaks_key=True)
        formula = result.selection.formula
        plan = compile_selection(formula, WEBPAGE, field_name="rank")
        if plan is None:
            return  # no usable single-field plan for this instance
        residual = plan.formula.evaluate
        for i, rank in enumerate(ranks):
            record = WEBPAGE.make(f"http://x/{i % 5}", rank, "c")
            in_range = any(
                _range_contains(r, rank) for r in plan.key_ranges()
            )
            admitted = in_range and residual("k", record)
            assert admitted == formula.evaluate("k", record)


def _range_contains(key_range, rank):
    raw = encode_key(FieldType.INT, rank)
    if key_range.lo is not None:
        if raw < key_range.lo or (raw == key_range.lo
                                  and not key_range.lo_inclusive):
            return False
    if key_range.hi is not None:
        if raw > key_range.hi or (raw == key_range.hi
                                  and not key_range.hi_inclusive):
            return False
    return True


class TestEndToEndEquivalence:
    @given(params=compound_params,
           ranks=st.lists(st.integers(min_value=0, max_value=50),
                          min_size=5, max_size=50))
    @settings(max_examples=10, deadline=None)
    def test_manimal_never_changes_output(self, params, ranks,
                                          tmp_path_factory):
        tmp = tmp_path_factory.mktemp("e2e")
        path = write_webpages(tmp / "w.rf", len(ranks),
                              rank_of=lambda i: ranks[i])
        job = JobConf(name="prop", mapper=CompoundMapper(*params),
                      reducer=CountReducer, inputs=[RecordFileInput(path)])
        baseline = run_job(job)
        system = Manimal(str(tmp / "cat"))
        outcome = system.submit(job, build_indexes=True)
        assert sorted(outcome.result.outputs) == sorted(baseline.outputs)
