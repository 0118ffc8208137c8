"""Tests for AST -> IR lowering and CFG construction."""

import ast
import textwrap

import pytest

from repro.core.analyzer import ir, lower_function
from repro.core.analyzer.cfg import CondJump, ExitTerm, Jump
from repro.core.analyzer.lowering import roles_from_args
from repro.exceptions import UnsupportedConstructError


def lower(source, is_method=True):
    tree = ast.parse(textwrap.dedent(source))
    fn = tree.body[0]
    return lower_function(fn, is_method=is_method)


class TestRoles:
    def test_method_roles(self):
        lowered = lower("""
            def map(self, k, v, c):
                c.emit(k, v)
        """)
        assert lowered.roles.self_name == "self"
        assert lowered.roles.key_name == "k"
        assert lowered.roles.value_name == "v"
        assert lowered.roles.ctx_name == "c"

    def test_function_roles(self):
        lowered = lower("""
            def map(k, v, c):
                c.emit(k, v)
        """, is_method=False)
        assert lowered.roles.self_name is None

    def test_wrong_arity_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            lower("def map(self, k, v): pass")

    def test_varargs_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            lower("def map(self, k, v, c, *rest): pass")


class TestEmitRecognition:
    def test_emit_becomes_emit_stmt(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                ctx.emit(key, 1)
        """)
        emits = lowered.emit_statements()
        assert len(emits) == 1
        assert isinstance(emits[0].key, ir.VarRef)
        assert isinstance(emits[0].value, ir.Const)

    def test_emit_on_other_receiver_is_not_emit(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                other = value
                other.emit(key, 1)
        """)
        assert lowered.emit_statements() == []

    def test_emit_wrong_arity_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            lower("""
                def map(self, key, value, ctx):
                    ctx.emit(key)
            """)

    def test_multiple_emits(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                if value.rank > 1:
                    ctx.emit(key, 1)
                else:
                    ctx.emit(key, 2)
        """)
        assert len(lowered.emit_statements()) == 2


class TestControlFlow:
    def test_if_creates_branch(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                if value.rank > 1:
                    ctx.emit(key, 1)
        """)
        cfg = lowered.cfg
        assert not cfg.has_cycle()
        conds = [
            b.terminator for b in cfg.blocks.values()
            if isinstance(b.terminator, CondJump)
        ]
        assert len(conds) == 1

    def test_while_creates_cycle(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                i = 0
                while i < 3:
                    i = i + 1
                ctx.emit(key, i)
        """)
        assert lowered.cfg.has_cycle()

    def test_for_creates_cycle_and_iter_element(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                for w in value.words:
                    ctx.emit(w, 1)
        """)
        assert lowered.cfg.has_cycle()
        assigns = [
            s for s in lowered.cfg.all_statements()
            if isinstance(s, ir.Assign) and isinstance(s.expr, ir.IterElement)
        ]
        assert len(assigns) == 1

    def test_return_ends_block(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                if value.rank < 0:
                    return
                ctx.emit(key, 1)
        """)
        exits = [
            b for b in lowered.cfg.blocks.values()
            if isinstance(b.terminator, ExitTerm)
        ]
        assert len(exits) >= 2

    def test_break_and_continue(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                for w in value.words:
                    if w == "stop":
                        break
                    if w == "skip":
                        continue
                    ctx.emit(w, 1)
        """)
        assert len(lowered.emit_statements()) == 1

    def test_dead_code_after_return_dropped(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                return
                ctx.emit(key, 1)
        """)
        assert lowered.emit_statements() == []


class TestExpressions:
    def test_three_address_form(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                x = value.rank * 2 + 1
                ctx.emit(key, x)
        """)
        for stmt in lowered.cfg.all_statements():
            if isinstance(stmt, ir.Assign) and isinstance(stmt.expr, ir.BinOp):
                assert isinstance(stmt.expr.left, (ir.Const, ir.VarRef))
                assert isinstance(stmt.expr.right, (ir.Const, ir.VarRef))

    def test_chained_comparison(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                if 1 < value.rank < 10:
                    ctx.emit(key, 1)
        """)
        assert len(lowered.emit_statements()) == 1

    def test_method_vs_module_call(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                a = value.url.startswith("http")
                b = re.match("x", value.url)
                ctx.emit(a, b)
        """)
        kinds = {}
        for stmt in lowered.cfg.all_statements():
            if isinstance(stmt, ir.Assign):
                kinds[type(stmt.expr).__name__] = True
        assert "MethodCall" in kinds
        assert "FuncCall" in kinds

    def test_augassign_on_member(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                self.count += 1
                ctx.emit(key, 1)
        """)
        attr_assigns = [
            s for s in lowered.cfg.all_statements()
            if isinstance(s, ir.AttrAssign)
        ]
        assert len(attr_assigns) == 1
        assert attr_assigns[0].attr == "count"

    def test_container_literals_become_constructor_calls(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                d = {}
                s = {1, 2}
                l = [1]
                ctx.emit(key, 1)
        """)
        funcs = {
            s.expr.func
            for s in lowered.cfg.all_statements()
            if isinstance(s, ir.Assign) and isinstance(s.expr, ir.FuncCall)
        }
        assert {"dict", "set", "list"} <= funcs

    def test_fstring_lowered_pure(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                ctx.emit(f"k-{value.rank}", 1)
        """)
        assert len(lowered.emit_statements()) == 1


class TestUnsupported:
    @pytest.mark.parametrize("body", [
        "with open('f') as f: pass",
        "raise ValueError('x')",
        "x = [i for i in value.items]",
        "x = lambda: 1",
        "yield key",
        "x, y = value.pair",
        "del key",
        "x = value.m(kw=1)",
    ])
    def test_rejected(self, body):
        with pytest.raises(UnsupportedConstructError):
            lower(f"""
                def map(self, key, value, ctx):
                    {body}
            """)

    def test_try_except_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            lower("""
                def map(self, key, value, ctx):
                    try:
                        ctx.emit(key, 1)
                    except Exception:
                        pass
            """)


class TestDot:
    def test_cfg_to_dot_renders(self):
        lowered = lower("""
            def map(self, key, value, ctx):
                if value.rank > 1:
                    ctx.emit(key, 1)
        """)
        dot = lowered.cfg.to_dot()
        assert dot.startswith("digraph")
        assert "fn_entry" in dot and "fn_exit" in dot


class TestUdfRole:
    """``lower_udf``: the same lowering with ``return <expr>`` as the result."""

    def _lower(self, source, key="k"):
        from repro.core.analyzer.lowering import ParamRoles, lower_udf

        node = ast.parse(textwrap.dedent(source)).body[0]
        if isinstance(node, ast.Expr):  # a bare lambda expression
            node = node.value
        return lower_udf(node, ParamRoles(None, key, "v", None))

    def test_def_returns_its_expression(self):
        lowered = self._lower("""
            def f(k, v):
                t = v.rank * 2
                return t > 10
        """)
        *body, ret = lowered.cfg.block(lowered.cfg.entry).stmts
        assert isinstance(ret, ir.Return) and isinstance(ret.expr, ir.BinOp)
        assert ret.expr.op == ">"
        assert any(isinstance(s, ir.Assign) and s.target == "t" for s in body)
        assert isinstance(
            lowered.cfg.block(lowered.cfg.entry).terminator, ExitTerm)

    def test_lambda_body_is_the_return(self):
        lowered = self._lower("lambda v: v.rank > 10", key=None)
        ret = lowered.cfg.block(lowered.cfg.entry).stmts[-1]
        assert isinstance(ret, ir.Return) and ret.expr.op == ">"
        assert lowered.name == "<lambda>"

    def test_no_context_means_no_emit_statement(self):
        lowered = self._lower("""
            def f(k, v):
                return v.emit(k, 1)
        """)
        assert lowered.emit_statements() == []

    def test_mapper_role_still_rejects_value_returns(self):
        with pytest.raises(UnsupportedConstructError, match="value-returning"):
            lower("""
                def map(self, k, v, c):
                    return k, v
            """)
