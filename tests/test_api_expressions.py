"""Column-expression DSL: symbolic form, codegen source, evaluation."""

import pytest

from repro.api.expressions import col, lit, selection_formula
from repro.core.analyzer.conditions import (
    ROLE_VALUE,
    SArith,
    SCompare,
    SConst,
    SParamField,
)
from repro.core.optimizer.predicates import compile_selection
from repro.exceptions import JobConfigError
from tests.conftest import WEBPAGE


def _page(url="u", rank=10, content="c"):
    return WEBPAGE.make(url, rank, content)


class TestBuilding:
    def test_comparison_shapes(self):
        expr = col("rank") > 10
        sym = expr.to_symbolic()
        assert isinstance(sym, SCompare) and sym.op == ">"
        assert isinstance(sym.left, SParamField)
        assert sym.left.role == ROLE_VALUE and sym.left.path == ("rank",)
        assert isinstance(sym.right, SConst) and sym.right.value == 10

    def test_source_rendering(self):
        expr = (col("rank") >= 5) & ~(col("url") == "x")
        assert expr.to_source("value") == \
            "((value.rank >= 5) and (not (value.url == 'x')))"

    def test_columns(self):
        expr = (col("rank") > 1) | (col("content") != "")
        assert expr.columns() == frozenset({"rank", "content"})

    def test_arithmetic(self):
        expr = (col("rank") * 2 + 1) > 21
        assert expr.evaluate(_page(rank=11))
        assert not expr.evaluate(_page(rank=10))

    @pytest.mark.parametrize("expr, source, at_7", [
        (col("rank") // 2, "(value.rank // 2)", 3),
        (2 * col("rank"), "(2 * value.rank)", 14),
        (1 + col("rank"), "(1 + value.rank)", 8),
        (10 - col("rank"), "(10 - value.rank)", 3),
        (100 / col("rank"), "(100 / value.rank)", 100 / 7),
        (7 % col("rank"), "(7 % value.rank)", 0),
        (30 // col("rank"), "(30 // value.rank)", 4),
        (lit(30) // col("rank") % 3, "((30 // value.rank) % 3)", 1),
    ])
    def test_floordiv_and_reflected_operators_keep_written_order(
            self, expr, source, at_7):
        assert expr.to_source("value") == source
        assert expr.evaluate(_page(rank=7)) == at_7
        sym = expr.to_symbolic()
        assert type(sym) is SArith and sym.right is not None

    def test_truthiness_rejected(self):
        with pytest.raises(JobConfigError):
            bool(col("rank") > 1)

    def test_bad_column_name(self):
        with pytest.raises(JobConfigError):
            col("not a name")

    def test_and_with_non_expr_rejected(self):
        with pytest.raises(JobConfigError):
            (col("rank") > 1) & 5
        assert ((col("rank") > 1) & (lit(5) == 5)) is not None


class TestEvaluation:
    def test_evaluate(self):
        expr = (col("rank") > 5) & (col("url") == "u")
        assert expr.evaluate(_page(rank=6))
        assert not expr.evaluate(_page(rank=5))
        assert not expr.evaluate(_page(url="v", rank=6))


class TestSelectionFormula:
    def test_conjunction_dnf(self):
        formula = selection_formula([col("rank") > 5, col("rank") <= 9])
        assert len(formula.disjuncts) == 1
        assert formula.evaluate(None, _page(rank=7))
        assert not formula.evaluate(None, _page(rank=10))

    def test_disjunction_splits(self):
        formula = selection_formula([(col("rank") < 2) | (col("rank") > 8)])
        assert len(formula.disjuncts) == 2

    def test_compiles_to_intervals(self):
        formula = selection_formula([col("rank") > 5, col("rank") <= 9])
        plan = compile_selection(formula, WEBPAGE)
        assert plan is not None and plan.field_name == "rank"
        assert len(plan.intervals) == 1
        iv = plan.intervals[0]
        assert (iv.lo, iv.hi, iv.lo_inclusive, iv.hi_inclusive) == \
            (5, 9, False, True)

    def test_empty_rejected(self):
        with pytest.raises(JobConfigError):
            selection_formula([])
