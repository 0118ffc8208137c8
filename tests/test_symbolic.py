"""One algebra, one renderer: the interpreter, the stage mapper and the
kernel agree on every admitted tree.

Seeded random :class:`~repro.symbolic.SymExpr` trees over the admitted
set -- including rows that raise (``% 0``, ``int > None``) and constants
with no literal form -- are evaluated three ways: the reference
interpreter (``SymExpr.evaluate``), the synthesized stage mapper the
lowering generates, and a compiled kernel over a one-row batch.  All
three must produce the same value or the same exception class.
"""

import json
import pickle
import random
from decimal import Decimal

import pytest

from repro import codegen
from repro.api.expressions import (
    Expr,
    NoExprForm,
    expr_from_dict,
    expr_from_symbolic,
)
from repro.api.plan import DeriveNode, _fuse_segment
from repro.batch.kernels import compile_predicates
from repro.batch.spec import (
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
)
from repro.core.analyzer.udf import analyze_udf
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema
from repro.symbolic import (
    ROLE_KEY,
    ROLE_VALUE,
    SArith,
    SBool,
    SCompare,
    SConst,
    SNot,
    SParam,
    SParamField,
    STuple,
    has_literal_form,
    to_source,
)

ROW = Schema("SymRow", [
    Field("a", FieldType.INT),
    Field("b", FieldType.INT),
    Field("s", FieldType.STRING),
])
OUT = Schema("SymOut", [Field("x", FieldType.LONG)])

ROWS = [ROW.make(a, b, s) for a, b, s in [
    (0, 3, "x"), (7, 0, ""), (-4, None, "ab"), (12, -5, "x"),
]]

CONSTANTS = [0, 1, -3, 2.5, "x", "", None, True, float("inf"),
             Decimal("2.5"), b"ab"]
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/", "//", "%")


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            return SParamField(ROLE_VALUE, (rng.choice("abs"),))
        return SConst(rng.choice(CONSTANTS))
    shape = rng.random()
    left = _random_tree(rng, depth - 1)
    if shape < 0.1:
        return SNot(left)
    right = _random_tree(rng, depth - 1)
    if shape < 0.4:
        return SCompare(rng.choice(CMP_OPS), left, right)
    if shape < 0.6:
        return SBool(rng.choice(("and", "or")), left, right)
    return SArith(rng.choice(ARITH_OPS), left, right)


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # the class is the observable
        return ("raised", type(exc).__name__)
    return (type(value).__name__, repr(value))


class _Emits:
    def __init__(self):
        self.pairs = []

    def emit(self, key, value):
        self.pairs.append((key, value))


def _stage_mapper(sym):
    """The function lowering synthesizes for ``map -> OUT.make(sym)``."""
    node = DeriveNode(None, (sym,), LONG_SCHEMA, OUT, "fn")
    seg = _fuse_segment([node], LONG_SCHEMA, ROW, analyze_udf)
    source, env, _user_code = seg.source("_fluent_map",
                                         (WHOLE_KEY, seg.record))
    return codegen.load(source, "stage", env)["_fluent_map"]


def _via_stage(mapper, record):
    ctx = _Emits()
    mapper(LONG_SCHEMA.make(1), record, ctx)
    [(_key, value)] = ctx.pairs
    return value.x


def _via_kernel(kernel, record):
    _rows, values = kernel.select(
        1, lambda name: [getattr(record, name)])
    return values[0]


TREES = [_random_tree(random.Random(seed), 4) for seed in range(300)]


class TestRendererParity:
    def test_interpreter_stage_mapper_and_kernel_agree(self):
        raised = bound = 0
        for sym in TREES:
            mapper = _stage_mapper(sym)
            kernel = compile_predicates([], [sym])
            if all(has_literal_form(node.value) for node in sym.walk()
                   if isinstance(node, SConst)):
                # what UDF translation admits comes back untouched
                assert expr_from_symbolic(sym) is sym
            else:  # lit() takes any object; the mapper binds it by name
                bound += 1
                with pytest.raises(NoExprForm, match="immutable scalar"):
                    expr_from_symbolic(sym)
            for record in ROWS:
                want = _outcome(lambda: sym.evaluate(None, record))
                shown = to_source(sym)
                assert _outcome(lambda: _via_stage(mapper, record)) == want, \
                    shown
                assert _outcome(lambda: _via_kernel(kernel, record)) == want, \
                    shown
                raised += want[0] == "raised"
        # the corpus exercises what it claims to
        assert raised > 100 and bound > 30

    def test_constants_without_a_literal_form_bind_in_the_stage_env(self):
        token = Decimal("2.5")
        sym = SCompare("<", SParamField(ROLE_VALUE, ("a",)), SConst(token))
        env = {}

        def const(value):
            env[f"_k{len(env)}"] = value
            return f"_k{len(env) - 1}"

        assert to_source(sym, "v", const) == "(v.a < _k0)"
        assert env == {"_k0": token} and env["_k0"] is token
        # display form: repr, never a binding
        assert to_source(sym) == "(value.a < Decimal('2.5'))"
        for value, inline in [(1, True), (-0.0, True), ("x", True),
                              (b"x", True), (None, True), (True, True),
                              (float("nan"), False), (float("-inf"), False),
                              (token, False), ((1, 2), False)]:
            assert has_literal_form(value) is inline


class TestWireForm:
    def test_random_trees_round_trip(self):
        for sym in TREES:
            data = Expr(sym).to_dict()
            # through real JSON, as the service ships it
            back = expr_from_dict(json.loads(json.dumps(data)))
            assert back.to_dict() == data
            for record in ROWS:
                assert _outcome(lambda: back.evaluate(record)) \
                    == _outcome(lambda: sym.evaluate(None, record))

    @pytest.mark.parametrize("data", [
        {"kind": "cmp", "op": "in", "left": {"kind": "lit", "value": 1},
         "right": {"kind": "lit", "value": 2}},
        {"kind": "arith", "op": "**", "left": {"kind": "lit", "value": 1},
         "right": {"kind": "lit", "value": 2}},
        {"kind": "bool", "op": "xor", "left": {"kind": "lit", "value": 1},
         "right": {"kind": "lit", "value": 2}},
        {"kind": "col", "name": "not a name"},
        {"kind": "cmp", "op": "<"},
        {"kind": "call"},
        "rank > 1",
    ])
    def test_malformed_frames_fail_the_request(self, data):
        from repro.exceptions import JobConfigError

        with pytest.raises(JobConfigError):
            expr_from_dict(data)


class TestSpecsCarryPlainNodes:
    def test_a_spec_with_symbolic_predicates_pickles(self):
        sym = TREES[0]
        spec = BatchStageSpec((SParam(ROLE_KEY), SRecord(OUT)),
                              predicates=[sym], derived=[("x", TREES[1])])
        clone = pickle.loads(pickle.dumps(spec))
        assert to_source(clone.predicates[0]) == to_source(sym)
        assert compile_predicates(clone.predicates,
                                  clone.kernel_exprs()).source \
            == compile_predicates(spec.predicates,
                                  spec.kernel_exprs()).source
        assert clone.needed_columns() == spec.needed_columns()


class TestOneEmitRendering:
    """One ``(K, V)`` emit: its parts, how each is gathered, and the
    ``ctx.emit`` line the stage mapper renders from it."""

    EMIT = (column_ref("s"),
            STuple([SConst("L"), WHOLE_KEY, WHOLE_VALUE, SRecord(ROW)]))

    def test_parts_flatten_the_value_tuple_in_emit_order(self):
        key, value = self.EMIT
        assert emit_parts(self.EMIT) == [key, *value.items]
        assert emit_parts((WHOLE_KEY, WHOLE_VALUE)) == [WHOLE_KEY,
                                                        WHOLE_VALUE]
        spec = BatchStageSpec(self.EMIT)
        assert spec.emit_parts() == emit_parts(self.EMIT)
        assert [part_source(p) for p in emit_parts(self.EMIT)] == [
            (COLUMN, "s"), (CONST, "L"), (COLUMN, None), (RECORD, None),
            (RECORD, ROW)]

    def test_a_computed_part_has_no_source(self):
        computed = SArith("+", SParamField(ROLE_VALUE, ("a",)), SConst(1))
        assert part_source(computed) is None
        with pytest.raises(TypeError):
            BatchStageSpec((WHOLE_KEY, computed))

    def test_the_mapper_emit_line_renders_every_part(self):
        seg = _fuse_segment([], LONG_SCHEMA, ROW, analyze_udf)
        source, _env, user_code = seg.source("_fluent_join_left", self.EMIT)
        assert source.splitlines()[-1] == \
            "    ctx.emit(value.s, ('L', key, value, value))"
        assert not user_code
        mapper = codegen.load(source, "stage", {})["_fluent_join_left"]
        ctx, record = _Emits(), ROWS[0]
        mapper(LONG_SCHEMA.make(9), record, ctx)
        [(key, value)] = ctx.pairs
        assert key == "x"
        assert value[0] == "L" and value[1].value == 9
        assert value[2] is record and value[3] is record
