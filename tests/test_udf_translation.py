"""UDF translation: what the analyzer proves, what it declines, and why.

One case per admitted callable shape, one per decline reason, the
evaluation-order trap, the admission check, and the engine's
verdict memo.  End-to-end equivalence of translated chains lives in
``test_batch_equivalence.py``.
"""

import functools
import importlib.util
import linecache
import zlib

import pytest

from repro.api.expressions import (
    Expr,
    NoExprForm,
    col,
    expr_from_symbolic,
    lit,
)
from repro.api.plan import callable_label
from repro.api.session import Session
from repro.core.analyzer import udf
from repro.core.analyzer.udf import FILTER_ARITY, MAP_ARITY, analyze_udf
from repro.engine.service import ExecutionEngine
from repro.storage.serialization import STRING_SCHEMA
from tests.conftest import WEBPAGE, write_webpages

LIMIT = 45


# -- admitted shapes -----------------------------------------------------------


def above(value):
    """Docstrings are not side effects."""
    return value.rank > 45


def above_with_local(value):
    doubled = value.rank * 2
    return doubled > 90


def above_default(value, limit=45):
    return value.rank > limit


def above_bound(limit, value):
    return value.rank > limit


class Above:
    def __init__(self, limit):
        self.limit = limit

    def __call__(self, value):
        return value.rank > self.limit


def closure_above(limit):
    return lambda value: value.rank > limit


def doubled(key, value):
    rank = value.rank * 2
    return key, WEBPAGE.make(value.url, rank, value.content)


class Doubler:
    def __init__(self, schema):
        self.schema = schema

    def __call__(self, key, value):
        return key, self.schema.make(value.url, value.rank * 2, value.content)


def _shown(sym):
    """An admitted tree in the ``col()`` spelling (``repr`` of the sugar)."""
    return repr(Expr(expr_from_symbolic(sym)))


def _predicate(fn):
    verdict = analyze_udf(fn, FILTER_ARITY)
    assert verdict.reason is None, verdict.reason
    return _shown(verdict.predicate)


class TestAdmittedShapes:
    @pytest.mark.parametrize("fn", [
        above,
        lambda v: v.rank > 45,
        above_default,
        functools.partial(above_bound, 45),
        functools.partial(above_default, limit=45),
        Above(45),
        closure_above(45),
    ], ids=["def", "lambda", "default", "partial", "partial-kw",
            "instance", "closure"])
    def test_filter_shapes_all_mean_the_col_spelling(self, fn):
        assert _predicate(fn) == repr(col("rank") > 45)

    def test_locals_inline_when_order_is_kept(self):
        assert _predicate(above_with_local) == repr(col("rank") * 2 > 90)

    def test_signed_constants_and_chained_comparisons(self):
        text = _predicate(lambda v: -5 < v.rank <= 40 and not v.rank == 7)
        assert text == repr(
            ((lit(-5) < col("rank")) & (col("rank") <= 40))
            & ~(col("rank") == 7)
        )

    @pytest.mark.parametrize("fn", [doubled, Doubler(WEBPAGE)],
                             ids=["global-schema", "member-schema"])
    def test_map_shape(self, fn):
        verdict = analyze_udf(fn, MAP_ARITY)
        assert verdict.reason is None, verdict.reason
        assert verdict.make_receiver(fn) is WEBPAGE
        assert [_shown(f) for f in verdict.fields] == [
            "value.url", "(value.rank * 2)", "value.content"]

    def test_labels(self):
        assert callable_label(above) == "above"
        assert callable_label(Above(1)) == "Above"
        assert callable_label(functools.partial(above_bound, 1)) \
            == "partial(above_bound)"


# -- the decline matrix ----------------------------------------------------------


class Mutating:
    def __init__(self, limit):
        self.limit = limit

    def raise_limit(self):
        self.limit += 1

    def __call__(self, value):
        return value.rank > self.limit


class WithProperty:
    @property
    def limit(self):
        return 45

    def __call__(self, value):
        return value.rank > self.limit


def prints(value):
    print(value.rank)
    return value.rank > 45


def reads_global(value):
    return value.rank > LIMIT


def unknown_call(value):
    return zlib.crc32(value.url.encode()) % 2 == 0


def loops(value):
    total = 0
    for ch in value.url:
        total += 1
    return total > 12


def branches(value):
    if value.rank > 45:
        return True
    return False


def generator_map(key, value):
    yield key, value


def order_trap(v):
    a = v.rank / v.rank
    return v.rank != 0 and a > 1


def unused_raising_local(v):
    a = v.rank / 0
    return v.rank > 1


def rewrites_key(key, value):
    return value.url, WEBPAGE.make(value.url, value.rank, value.content)


def returns_record(key, value):
    return key, value


def reassigns_param(value):
    value = value
    return value.rank > 1


def decorated(fn):
    @functools.wraps(fn)
    def wrapper(value):
        return fn(value)
    return wrapper


two_on_a_line = (lambda v: v.rank > 1, lambda v: v.rank > 2)


def _reason(fn, arity=FILTER_ARITY):
    verdict = analyze_udf(fn, arity)
    assert verdict.reason is not None
    assert verdict.predicate is None and verdict.fields is None
    return verdict.reason


class TestDeclineMatrix:
    @pytest.mark.parametrize("fn, arity, fragment", [
        (prints, 1, "side effect"),
        (reads_global, 1, "global name 'LIMIT'"),
        (unknown_call, 1, "zlib.crc32"),
        (loops, 1, "loop"),
        (branches, 1, "branching"),
        (generator_map, 2, "generator"),
        (Mutating(45), 1, "mutated"),
        (two_on_a_line[0], 1, "2 lambdas on source line"),
        (order_trap, 1, "order"),
        (unused_raising_local, 1, "order"),
        (rewrites_key, 2, "key is not passed through"),
        (returns_record, 2, "not a make() call"),
        (reassigns_param, 1, "reassigned"),
        (Above(45).__call__, 1, "bound method"),
        (len, 1, "builtin"),
        (lambda *vs: True, 1, "*args"),
        (lambda k, v: (k, v), 1, "unbound"),
        (above, 2, "takes 1 positional"),
        # functools.wraps must not trick the analyzer into reading the
        # wrapped function's source for the wrapper's code object
        (decorated(above), 1, "decorator's wrapper"),
    ], ids=lambda x: getattr(x, "__name__", None) or str(x)[:24])
    def test_declines_with_a_reason(self, fn, arity, fragment):
        assert fragment in _reason(fn, arity)

    def test_source_unavailable(self):
        namespace = {}
        exec("def ghost(value):\n    return value.rank > 45\n", namespace)
        assert "source unavailable" in _reason(namespace["ghost"])

    def test_stale_source_is_refused(self):
        """Source text that no longer matches the live bytecode."""
        filename = "<udf-translation-stale>"
        real = "def pred(value):\n    return value.rank > 45\n"
        namespace = {}
        exec(compile(real, filename, "exec"), namespace)
        edited = real.replace("45", "46")
        linecache.cache[filename] = (
            len(edited), None, edited.splitlines(keepends=True), filename)
        try:
            assert "live bytecode" in _reason(namespace["pred"])
            linecache.cache[filename] = (
                len(real), None, real.splitlines(keepends=True), filename)
            assert analyze_udf(namespace["pred"], 1).reason is None
        finally:
            del linecache.cache[filename]

    def test_one_parse_per_file(self, tmp_path, monkeypatch):
        """Two functions of one file are verified against one parse of
        it; the file edited is parsed again and no longer verifies."""
        path = tmp_path / "two_udfs.py"
        path.write_text("def first(value):\n    return value.rank > 1\n\n"
                        "def second(value):\n    return value.rank > 2\n")
        spec = importlib.util.spec_from_file_location("two_udfs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parses = []
        parse = udf._parsed_source
        monkeypatch.setattr(udf, "_parsed_source",
                            lambda source: parses.append(1) or parse(source))
        for fn in (module.first, module.second, module.first):
            assert not isinstance(udf.verified_definition(fn), str)
        assert len(parses) == 1
        path.write_text("def first(value):\n    return value.rank > 10\n")
        assert "live bytecode" in udf.verified_definition(module.first)
        assert len(parses) == 2

    @pytest.mark.parametrize("fn, fragment", [
        (lambda v: len(v.url) > 3, "len("),
        (lambda v: v.rank in (1, 2), "'in'"),
        (lambda v: v.rank ** 2 > 9, "'**'"),
        (lambda v: -v.rank < 0, "unary"),
        (lambda v: v, "no column form"),
        (closure_above([1]), "immutable scalar"),
        (closure_above(float("inf")), "immutable scalar"),
        (WithProperty(), "type property"),
    ], ids=["call", "in", "pow", "unary", "whole-record", "list", "inf",
            "property"])
    def test_resolved_but_outside_the_expr_algebra(self, fn, fragment):
        verdict = analyze_udf(fn, FILTER_ARITY)
        assert verdict.reason is None
        with pytest.raises(NoExprForm, match=None) as info:
            expr_from_symbolic(verdict.predicate)
        assert fragment in str(info.value)


class TestAdmission:
    def test_admitted_trees_come_back_as_the_same_nodes(self):
        exprs = [
            col("a") > 1,
            (col("a") % 13 != 0) & ~(col("b") <= lit(2.5)),
            (col("a") + col("b") * 2 - 1) / 3 == lit("x"),
            (col("flag") == lit(None)) | (col("s") >= lit(b"ab")),
        ]
        for expr in exprs:
            assert expr_from_symbolic(expr.to_symbolic()) is expr.to_symbolic()

    def test_only_the_spine_over_a_folded_sign_is_rebuilt(self):
        verdict = analyze_udf(
            lambda v: v.rank * 2 > 90 and v.rank > -5, FILTER_ARITY)
        sym = verdict.predicate
        back = expr_from_symbolic(sym)
        assert back is not sym and back.left is sym.left
        assert back.right.left is sym.right.left
        assert (back.right.right.value, type(back.right.right.value)) \
            == (-5, int)
        assert _shown(sym) == repr((col("rank") * 2 > 90) & (col("rank") > -5))


# -- lowering-side checks and the verdict in explain -----------------------------


@pytest.fixture()
def session(tmp_path):
    with Session(workdir=str(tmp_path / "work")) as s:
        yield s


@pytest.fixture()
def pages(tmp_path):
    return write_webpages(tmp_path / "pages.rf", 200)


class TestLowering:
    def test_unknown_field_declines(self, session, pages):
        text = session.read(pages).filter(lambda v: v.nope > 1).explain()
        assert "opaque: reads field(s) ['nope']" in text

    def test_field_projected_away_declines(self, session, pages):
        query = session.read(pages).select("url").filter(
            lambda v: v.rank > 1)
        assert "opaque: reads field(s) ['rank']" in query.explain()

    def test_make_on_another_schema_declines(self, session, pages):
        query = session.read(pages).map(
            lambda k, v: (k, STRING_SCHEMA.make(v.url)),
            key_schema=STRING_SCHEMA, value_schema=WEBPAGE)
        assert "not the declared value_schema 'WebPage'" in query.explain()

    def test_make_arity_declines(self, session, pages):
        query = session.read(pages).map(
            lambda k, v: (k, WEBPAGE.make(v.url, v.rank)),
            key_schema=STRING_SCHEMA, value_schema=WEBPAGE)
        assert "make() is given 2 value(s)" in query.explain()

    def test_undeclared_schema_declines(self, session, pages):
        query = session.read(pages).map(doubled)
        assert "declares no value_schema" in query.explain()

    def test_field_shadowed_by_a_record_attribute_declines(self, session,
                                                           tmp_path):
        from repro.storage.recordfile import RecordFileWriter
        from repro.storage.serialization import Field, FieldType, Schema

        shadow = Schema("Shadow", [Field("schema", FieldType.INT)])
        path = str(tmp_path / "shadow.rf")
        with RecordFileWriter(path, STRING_SCHEMA, shadow) as writer:
            writer.append(STRING_SCHEMA.make("k"), shadow.make(1))
        # value.schema is the Record's Schema, not the field: never equal
        query = session.read(path).filter(lambda v: v.schema == 1)
        assert "shadowed by Record attributes" in query.explain()
        assert query.collect() == []

    def test_slotted_instance_neither_translates_nor_breaks(self, session,
                                                            pages):
        class Slotted:
            __slots__ = ("limit",)

            def __init__(self, limit):
                self.limit = limit

            def __call__(self, value):
                return value.rank > self.limit

        query = session.read(pages).filter(Slotted(45))
        assert "opaque: " in query.explain()
        assert len(query.collect()) == len(
            session.read(pages).filter(col("rank") > 45).collect())

    def test_constant_predicate_declines(self, session, pages):
        query = session.read(pages).filter(lambda v: 1 < 2)
        assert "reads no field" in query.explain()

    def test_declined_callable_runs_as_written(self, session, pages):
        rows = session.read(pages).filter(unknown_call).collect()
        assert rows and all(
            zlib.crc32(v.url.encode()) % 2 == 0 for _k, v in rows)

    def test_translated_map_feeds_later_ops(self, session, pages):
        base = session.read(pages)
        mapped = base.map(doubled, key_schema=STRING_SCHEMA,
                          value_schema=WEBPAGE)
        assert "≡ (key, WebPage.make(" in mapped.explain()
        query = mapped.filter(col("rank") > 90).select("rank")
        assert sorted(v.rank for _k, v in query.collect()) == sorted(
            v.rank * 2 for _k, v in base.collect() if v.rank * 2 > 90)


# -- the verdict memo ------------------------------------------------------------


class TestVerdictCache:
    @pytest.fixture()
    def engine(self):
        engine = ExecutionEngine(reap_scratch=False)
        yield engine
        engine.shutdown()

    def test_fresh_instance_with_equal_members_hits(self, engine):
        from repro.core.analyzer.purity import DEFAULT_KB

        first = engine.analyze_udf(DEFAULT_KB, Above(45), FILTER_ARITY)
        assert engine.analysis_cache.stats()["misses"] == 1
        again = engine.analyze_udf(DEFAULT_KB, Above(45), FILTER_ARITY)
        assert again is first
        assert engine.analysis_cache.stats()["hits"] == 1

    def test_changed_member_misses(self, engine):
        from repro.core.analyzer.purity import DEFAULT_KB

        engine.analyze_udf(DEFAULT_KB, Above(45), FILTER_ARITY)
        other = engine.analyze_udf(DEFAULT_KB, Above(46), FILTER_ARITY)
        assert engine.analysis_cache.stats() == {
            "size": 2, "hits": 0, "misses": 2}
        assert _shown(other.predicate) \
            == repr(col("rank") > 46)

    @pytest.mark.parametrize("first, second", [
        (1, 1.0), (1, True), (0, False), (0.0, -0.0),
    ])
    def test_equal_constants_of_another_type_miss(self, engine, first,
                                                  second):
        """``1 == 1.0 == True`` and ``0.0 == -0.0`` hash alike, but the
        verdict folds the constant into the code that runs."""
        from repro.core.analyzer.purity import DEFAULT_KB

        for limit in (first, second):
            for fn in (closure_above(limit), Above(limit),
                       functools.partial(above_bound, limit)):
                verdict = engine.analyze_udf(DEFAULT_KB, fn, FILTER_ARITY)
                assert _shown(verdict.predicate) \
                    == repr(col("rank") > limit)
        assert engine.analysis_cache.stats()["hits"] == 0

    def test_equal_literals_of_another_type_miss(self, engine):
        from repro.core.analyzer.purity import DEFAULT_KB

        as_int = engine.analyze_udf(
            DEFAULT_KB, lambda v: v.rank > 1, FILTER_ARITY)
        as_float = engine.analyze_udf(
            DEFAULT_KB, lambda v: v.rank > 1.0, FILTER_ARITY)
        assert _shown(as_int.predicate) \
            == repr(col("rank") > 1)
        assert _shown(as_float.predicate) \
            == repr(col("rank") > 1.0)

    def test_int_then_float_capture_runs_its_own_arithmetic(self, session,
                                                            pages):
        """One session, same bytecode, captures equal but for their type:
        float arithmetic loses the +1 that int arithmetic keeps."""
        big = 2 ** 53 + 1

        def keeps_one(k):
            return lambda v: v.rank * k + big > big

        base = session.read(pages)
        ones = base.filter(col("rank") == 1).collect()
        assert ones
        for k, expected in ((1, ones), (1.0, []), (True, ones)):
            query = base.filter(col("rank") == 1).filter(keeps_one(k))
            assert f"≡ (((value.rank * {k!r}) + {big})" in query.explain()
            assert query.collect() == expected

    def test_edited_bytecode_misses(self, engine):
        from repro.core.analyzer.purity import DEFAULT_KB

        engine.analyze_udf(DEFAULT_KB, lambda v: v.rank > 45, FILTER_ARITY)
        engine.analyze_udf(DEFAULT_KB, lambda v: v.rank >= 45, FILTER_ARITY)
        assert engine.analysis_cache.stats()["misses"] == 2

    def test_arity_and_kb_are_part_of_the_key(self, engine):
        from repro.core.analyzer.purity import DEFAULT_KB, EMPTY_KB

        engine.analyze_udf(DEFAULT_KB, above, FILTER_ARITY)
        engine.analyze_udf(DEFAULT_KB, above, MAP_ARITY)
        engine.analyze_udf(EMPTY_KB, above, FILTER_ARITY)
        assert engine.analysis_cache.stats()["misses"] == 3

    def test_session_lowering_analyzes_each_shape_once(self, tmp_path):
        engine = ExecutionEngine(reap_scratch=False)
        try:
            path = write_webpages(tmp_path / "p.rf", 50)
            with Session(workdir=str(tmp_path / "w"), engine=engine) as s:
                for _ in range(3):
                    s.read(path).filter(Above(45)).group_by("rank") \
                        .count().collect()
            assert engine.analysis_cache.stats()["misses"] == 1
        finally:
            engine.shutdown()

    def test_rebound_global_schema_is_reread(self, session, pages,
                                             monkeypatch):
        """The make() receiver is a global: not in the fingerprint, so it
        must be re-read from the callable on every lowering."""
        declared = WEBPAGE
        query = session.read(pages).map(
            doubled, key_schema=STRING_SCHEMA, value_schema=declared)
        assert "≡" in query.explain()
        monkeypatch.setitem(doubled.__globals__, "WEBPAGE", STRING_SCHEMA)
        assert "opaque: make() builds 'StringValue'" in session.read(
            pages).map(doubled, key_schema=STRING_SCHEMA,
                       value_schema=declared).explain()


class TestSourceVerdictMemo:
    """A file's source is parsed once per code object and file identity:
    a verdict per captured value re-parses nothing, and an edited file is
    verified afresh."""

    SOURCE = ("def make(limit):\n"
              "    return lambda value: value.rank > limit\n")

    def test_captured_values_parse_once_and_an_edit_reverifies(
            self, tmp_path, monkeypatch):
        import ast
        import importlib.util
        import os

        from repro.core.analyzer import udf

        path = tmp_path / "udf_memo_module.py"
        path.write_text(self.SOURCE)
        spec = importlib.util.spec_from_file_location("udf_memo_module",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parsed = []
        real_parse = ast.parse
        monkeypatch.setattr(udf.ast, "parse",
                            lambda *a, **k: parsed.append(1)
                            or real_parse(*a, **k))

        first = analyze_udf(module.make(10), FILTER_ARITY)
        second = analyze_udf(module.make(20), FILTER_ARITY)
        assert first.reason is None and second.reason is None
        assert repr(first.predicate) != repr(second.predicate)
        assert len(parsed) == 1

        # one more line above the lambda: the live code's line no longer
        # holds it, so the next verdict re-parses and declines
        path.write_text("# edited\n" + self.SOURCE)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))
        assert "live bytecode" in analyze_udf(module.make(30),
                                              FILTER_ARITY).reason
        assert len(parsed) == 2
