"""Tests for symbolic resolution, isFunc, negation, and DNF normalization."""

import ast
import textwrap
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core.analyzer import lower_function
from repro.core.analyzer.conditions import (
    ROLE_VALUE,
    Conjunct,
    MemberEnv,
    SBool,
    SCompare,
    SConst,
    SelectionFormula,
    SNot,
    SOpaque,
    SParamField,
    SymbolicResolver,
    conjunction_dnf,
    negate,
    term_dnf,
)
from repro.core.analyzer.dataflow import ReachingDefinitions
from repro.core.analyzer.purity import DEFAULT_KB, EMPTY_KB
from repro.exceptions import AnalyzerError
from tests.conftest import WEBPAGE


def make_resolver(source, members=None, kb=DEFAULT_KB):
    tree = ast.parse(textwrap.dedent(source))
    lowered = lower_function(tree.body[0], is_method=True)
    rd = ReachingDefinitions(lowered.cfg)
    return lowered, SymbolicResolver(lowered, rd, kb, members or MemberEnv())


def resolve_emit_value(source, members=None, kb=DEFAULT_KB):
    lowered, resolver = make_resolver(source, members, kb)
    emit = lowered.emit_statements()[0]
    return resolver.resolve_at_stmt(emit, emit.value)


class TestResolution:
    def test_field_load_resolves_to_param_field(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, value.rank)
        """)
        assert isinstance(sym, SParamField)
        assert sym.role == ROLE_VALUE and sym.path == ("rank",)

    def test_alias_chain_resolves(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                v = value
                r = v.rank
                ctx.emit(key, r)
        """)
        assert isinstance(sym, SParamField) and sym.path == ("rank",)

    def test_arithmetic_over_fields(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, value.rank * 2 + 1)
        """)
        rec = WEBPAGE.make("u", 5, "c")
        assert sym.is_functional()
        assert sym.evaluate("k", rec) == 11

    def test_pure_method_call(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, value.url.startswith("http"))
        """)
        assert sym.is_functional()
        assert sym.evaluate("k", WEBPAGE.make("http://a", 1, "c")) is True
        assert sym.evaluate("k", WEBPAGE.make("ftp://a", 1, "c")) is False

    def test_unknown_method_is_opaque(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, value.url.frobnicate())
        """)
        assert not sym.is_functional()
        assert any("frobnicate" in r for r in sym.opaque_reasons())

    def test_kb_controls_purity(self):
        src = """
            def map(self, key, value, ctx):
                ctx.emit(key, value.url.lower())
        """
        assert resolve_emit_value(src).is_functional()
        assert not resolve_emit_value(src, kb=EMPTY_KB).is_functional()

    def test_own_method_call_opaque(self):
        """Pushing member dependence into a helper must not hide it."""
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, self.helper(value))
        """)
        assert not sym.is_functional()

    def test_context_read_opaque(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, ctx.input_tag)
        """)
        assert not sym.is_functional()

    def test_global_name_opaque(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                ctx.emit(key, SOME_GLOBAL)
        """)
        assert not sym.is_functional()

    def test_multiple_reaching_defs_opaque_but_tracks_fields(self):
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                if value.rank > 0:
                    x = value.url
                else:
                    x = value.content
                ctx.emit(key, x)
        """)
        assert not sym.is_functional()
        fields = {f for _, f in sym.field_refs()}
        assert fields == {"url", "content"}

    def test_loop_element_opaque(self):
        lowered, resolver = make_resolver("""
            def map(self, key, value, ctx):
                for w in value.content.split():
                    ctx.emit(w, 1)
        """)
        emit = lowered.emit_statements()[0]
        sym = resolver.resolve_at_stmt(emit, emit.key)
        assert not sym.is_functional()
        assert ("value", "content") in sym.field_refs()


class TestMemberEnv:
    SRC = """
        def map(self, key, value, ctx):
            ctx.emit(key, self.threshold)
    """

    def test_constant_member_folds(self):
        sym = resolve_emit_value(
            self.SRC, members=MemberEnv(values={"threshold": 42})
        )
        assert isinstance(sym, SConst) and sym.value == 42

    def test_mutated_member_opaque(self):
        sym = resolve_emit_value(
            self.SRC,
            members=MemberEnv(values={"threshold": 42},
                              mutated={"threshold"}),
        )
        assert not sym.is_functional()
        assert any("Fig. 2" in r for r in sym.opaque_reasons())

    def test_unknown_member_opaque(self):
        sym = resolve_emit_value(self.SRC, members=MemberEnv())
        assert not sym.is_functional()

    def test_intra_invocation_store_resolves(self):
        """self.x = value.rank; use of self.x resolves through the store."""
        sym = resolve_emit_value("""
            def map(self, key, value, ctx):
                self.x = value.rank
                ctx.emit(key, self.x)
        """, members=MemberEnv(mutated={"x"}))
        assert isinstance(sym, SParamField)
        assert sym.path == ("rank",)


class TestNegation:
    def test_comparison_inversion(self):
        # an equality flips; an ordering keeps its not, because a NaN
        # compares false both ways
        eq = SCompare("==", SParamField(ROLE_VALUE, ("rank",)), SConst(1))
        assert isinstance(negate(eq), SCompare) and negate(eq).op == "!="
        cmp_ = SCompare(">", SParamField(ROLE_VALUE, ("d",)), SConst(1.0))
        neg = negate(cmp_)
        assert isinstance(neg, SNot) and neg.operand is cmp_
        nan_row = SimpleNamespace(d=float("nan"))
        assert neg.evaluate(None, nan_row)
        assert not cmp_.negated().evaluate(None, nan_row)
        assert term_dnf(neg) == [[neg]]

    def test_double_negation(self):
        inner = SCompare("in", SConst(1), SConst((1, 2)))
        assert negate(negate(inner)) is inner or repr(
            negate(negate(inner))
        ) == repr(inner)

    def test_de_morgan(self):
        a = SCompare(">", SParamField(ROLE_VALUE, ("rank",)), SConst(1))
        b = SCompare("<", SParamField(ROLE_VALUE, ("rank",)), SConst(9))
        neg = negate(SBool("and", a, b))
        assert isinstance(neg, SBool) and neg.op == "or"
        rec_pass = WEBPAGE.make("u", 5, "c")
        assert neg.evaluate(None, rec_pass) == (not (5 > 1 and 5 < 9))

    @given(st.integers(min_value=-10, max_value=10))
    def test_negation_is_semantic_complement(self, rank):
        record = WEBPAGE.make("u", rank, "c")
        term = SBool(
            "and",
            SCompare(">", SParamField(ROLE_VALUE, ("rank",)), SConst(-3)),
            SCompare("<=", SParamField(ROLE_VALUE, ("rank",)), SConst(4)),
        )
        assert bool(term.evaluate(None, record)) != bool(
            negate(term).evaluate(None, record)
        )


class TestDNF:
    def _atom(self, op, c):
        return SCompare(op, SParamField(ROLE_VALUE, ("rank",)), SConst(c))

    def test_or_splits(self):
        t = SBool("or", self._atom(">", 5), self._atom("<", 0))
        assert len(term_dnf(t)) == 2

    def test_and_stays_single_disjunct(self):
        t = SBool("and", self._atom(">", 0), self._atom("<", 9))
        dnf = term_dnf(t)
        assert len(dnf) == 1 and len(dnf[0]) == 2

    def test_distribution(self):
        t = SBool(
            "and",
            SBool("or", self._atom("==", 1), self._atom("==", 2)),
            self._atom(">", 0),
        )
        dnf = term_dnf(t)
        assert len(dnf) == 2
        assert all(len(conj) == 2 for conj in dnf)

    def test_not_pushed_inward(self):
        t = SNot(SBool("or", self._atom(">", 5), self._atom("<", 0)))
        dnf = term_dnf(t)
        assert len(dnf) == 1 and len(dnf[0]) == 2

    @given(st.integers(min_value=-20, max_value=20))
    def test_dnf_preserves_semantics(self, rank):
        record = WEBPAGE.make("u", rank, "c")
        t = SBool(
            "and",
            SBool("or", self._atom(">", 10), self._atom("<", -10)),
            SNot(SBool("and", self._atom(">", 14), self._atom("<", 16))),
        )
        direct = bool(t.evaluate(None, record))
        dnf = conjunction_dnf([t])
        via_dnf = any(
            all(bool(term.evaluate(None, record)) for term in conj)
            for conj in dnf
        )
        assert direct == via_dnf


class TestFormula:
    def _formula(self):
        gt = SCompare(">", SParamField(ROLE_VALUE, ("rank",)), SConst(10))
        lt = SCompare("<", SParamField(ROLE_VALUE, ("rank",)), SConst(2))
        return SelectionFormula([Conjunct([gt]), Conjunct([lt])])

    def test_evaluate(self):
        f = self._formula()
        assert f.evaluate(None, WEBPAGE.make("u", 11, "c"))
        assert f.evaluate(None, WEBPAGE.make("u", 1, "c"))
        assert not f.evaluate(None, WEBPAGE.make("u", 5, "c"))

    def test_trivially_true_detection(self):
        f = SelectionFormula([Conjunct([])])
        assert f.is_trivially_true()
        assert not self._formula().is_trivially_true()

    def test_field_refs(self):
        assert set(self._formula().field_refs()) == {("value", "rank")}

    def test_opaque_cannot_evaluate(self):
        f = SelectionFormula([Conjunct([SOpaque("nope")])])
        assert not f.is_functional()
        with pytest.raises(AnalyzerError):
            f.evaluate(None, WEBPAGE.make("u", 1, "c"))
