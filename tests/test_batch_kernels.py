"""Unit tests for the batch-execution building blocks.

Covers the predicate kernels (operator semantics at type boundaries,
short-circuit order, literal binding), the columnar block scan (empty /
single-row / block-spanning batches, column capture), and the fallback
triggers that must route a stage back to the record-at-a-time path.
"""

import random

import pytest

from repro.api.expressions import col, lit
from repro.api.session import Session
from repro.batch.columns import build_scan_plan, iter_column_batches
from repro.batch.kernels import compile_predicates
from repro.batch.spec import BatchStageSpec
from repro.exceptions import JobExecutionError
from repro.service.payload import serialize_rows
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
    register_opaque_schema,
)
from repro.symbolic import (
    ROLE_KEY,
    ROLE_VALUE,
    SAttr,
    SCompare,
    SConst,
    SOpaque,
    SParamField,
)

VALUES = Schema("KernelValues", [
    Field("i", FieldType.INT),
    Field("d", FieldType.DOUBLE),
    Field("s", FieldType.STRING),
    Field("b", FieldType.BOOL),
    Field("raw", FieldType.BYTES),
])


def _select(predicates, **columns):
    kernel = compile_predicates(predicates)
    n = len(next(iter(columns.values())))
    return kernel.select(n, lambda name: columns[name])


# -- predicate kernels ---------------------------------------------------------


class TestKernelSemantics:
    def test_integer_comparisons_at_the_boundary(self):
        values = [9, 10, 11]
        assert _select([col("i") > lit(10)], i=values) == [2]
        assert _select([col("i") >= lit(10)], i=values) == [1, 2]
        assert _select([col("i") < lit(10)], i=values) == [0]
        assert _select([col("i") <= lit(10)], i=values) == [0, 1]
        assert _select([col("i") == lit(10)], i=values) == [1]
        assert _select([col("i") != lit(10)], i=values) == [0, 2]

    def test_float_and_negative_zero(self):
        values = [-0.0, 0.0, 0.5]
        # Python equality: -0.0 == 0.0, exactly like the record path
        assert _select([col("d") == lit(0.0)], d=values) == [0, 1]
        assert _select([col("d") > lit(0.0)], d=values) == [2]

    def test_string_and_bytes_ordering(self):
        assert _select([col("s") > lit("b")], s=["a", "b", "c"]) == [2]
        assert _select(
            [col("raw") >= lit(b"\x02")], raw=[b"\x01", b"\x02", b"\x03"]
        ) == [1, 2]

    def test_bool_equality(self):
        assert _select([col("b") == lit(True)], b=[True, False, True]) == [0, 2]

    def test_arithmetic_subexpressions(self):
        assert _select([col("i") * lit(2) + lit(1) > lit(5)], i=[1, 2, 3]) \
            == [2]

    def test_conjunction_short_circuits_in_chain_order(self):
        # the second predicate raises on row 0 (str > int); the first
        # filters row 0 out before it is ever evaluated -- same as the
        # record path's nested ifs
        predicates = [col("i") > lit(0), col("s") > lit(5)]
        with pytest.raises(TypeError):
            _select(list(reversed(predicates)), i=[0, 1], s=["x", 1])
        assert _select(predicates, i=[0, 1], s=["x", 7]) == [1]

    def test_literals_bind_as_objects_not_reprs(self):
        token = object()  # repr() of this can never round-trip
        assert _select([col("i") == lit(token)], i=[token, 0]) == [0]

    def test_empty_chain_compiles_to_none(self):
        assert compile_predicates([]) is None

    @pytest.mark.parametrize("node", [
        SOpaque("no built-in knowledge of function 'hash'",
                field_deps=[(ROLE_VALUE, "i")]),
        SAttr(col("i").to_symbolic(), "real"),
        SParamField(ROLE_KEY, ("i",)),
    ], ids=["opaque", "attr", "key-field"])
    def test_node_outside_the_operator_set_raises_typeerror(self, node):
        with pytest.raises(TypeError, match="no source form|not a value"):
            compile_predicates([node])
        # ... also when it hides under admitted operators
        with pytest.raises(TypeError):
            compile_predicates([SCompare(">", node, SConst(1))])

    def test_derived_values_ride_the_same_pass(self):
        kernel = compile_predicates(
            [col("i") > lit(1)], [col("i") * lit(2), col("s")])
        columns = {"i": [1, 2, 3], "s": ["a", "b", "c"]}
        assert kernel.select(3, columns.__getitem__) == (
            (1, 2), (4, 6), ("b", "c"))
        # nothing passes: still one (empty) sequence per output
        assert kernel.select(3, {"i": [0, 0, 0], "s": "xyz"}.__getitem__) \
            == ((), (), ())
        # no predicates: every row, derived
        every = compile_predicates([], [col("i") + lit(1)])
        assert every.select(2, {"i": [5, 6]}.__getitem__) == ((0, 1), (6, 7))

    def test_derived_values_evaluate_row_by_row(self):
        # row 0's derived value raises ZeroDivisionError, row 1's
        # predicate TypeError: row-major order reaches row 0's first
        kernel = compile_predicates(
            [col("s") > lit("a")], [lit(1) / col("i")])
        with pytest.raises(ZeroDivisionError):
            kernel.select(2, {"i": [0, 1], "s": ["b", 5]}.__getitem__)

    def test_kernel_cache_isolates_literals(self):
        # same source shape, different constants: both must see their own
        first = _select([col("i") > lit(5)], i=[4, 6])
        second = _select([col("i") > lit(100)], i=[4, 6])
        assert first == [1] and second == []


# -- the columnar block scan ---------------------------------------------------


def _write(path, rows, block_size=128):
    with RecordFileWriter(str(path), LONG_SCHEMA, VALUES,
                          block_size=block_size) as w:
        for i, row in enumerate(rows):
            w.append(LONG_SCHEMA.make(i), Record(VALUES, list(row)))
    return str(path)


def _rows(n):
    rng = random.Random(n)
    return [
        (rng.randrange(-40, 40), rng.uniform(-5, 5), f"s{i}",
         bool(i % 2), bytes([i % 256]))
        for i in range(n)
    ]


def _scan(path, spec):
    with RecordFileReader(path) as reader:
        plan = build_scan_plan(reader.key_schema, reader.value_schema, spec)
        assert plan is not None
        return list(iter_column_batches(reader, reader.blocks(), plan))


class TestColumnScan:
    def test_batches_span_block_boundaries(self, tmp_path):
        rows = _rows(200)
        path = _write(tmp_path / "f.rf", rows, block_size=128)
        with RecordFileReader(path) as r:
            n_blocks = len(r.blocks())
        assert n_blocks > 5  # the point of the test
        batches = _scan(path, BatchStageSpec(kind="map"))
        assert len(batches) == n_blocks
        assert sum(b.n_rows for b in batches) == len(rows)
        flat = [v for b in batches for v in b.column("i")]
        assert flat == [row[0] for row in rows]

    def test_empty_file_yields_no_batches(self, tmp_path):
        path = _write(tmp_path / "e.rf", [])
        assert _scan(path, BatchStageSpec(kind="map")) == []

    def test_single_row_batch(self, tmp_path):
        rows = _rows(1)
        path = _write(tmp_path / "one.rf", rows)
        [batch] = _scan(path, BatchStageSpec(kind="map"))
        assert batch.n_rows == 1
        assert batch.column("s") == ["s0"]
        assert batch.keys is not None and batch.keys[0].value == 0

    def test_only_needed_columns_are_captured(self, tmp_path):
        path = _write(tmp_path / "f.rf", _rows(50))
        spec = BatchStageSpec(kind="map", predicates=[(col("i") > lit(0)).to_symbolic()],
                              project_columns=["s"],
                              out_value_schema=VALUES.project(["s"]))
        assert spec.needed_columns() == ["i", "s"]
        batches = _scan(path, spec)
        assert all(
            set(batch._slots) == {"i", "s"} for batch in batches
        )
        with pytest.raises(KeyError):
            batches[0].column("d")

    def test_logical_bytes_match_reader_accounting(self, tmp_path):
        path = _write(tmp_path / "f.rf", _rows(80))
        batches = _scan(path, BatchStageSpec(kind="map"))
        from repro.mapreduce.keyspace import estimate_size

        with RecordFileReader(path) as r:
            expected = sum(
                estimate_size(k) + estimate_size(v) for k, v in r.iter_records()
            )
        assert sum(b.logical_bytes for b in batches) == expected

    def test_missing_column_defeats_the_scan_plan(self, tmp_path):
        path = _write(tmp_path / "f.rf", _rows(10))
        spec = BatchStageSpec(kind="map",
                              predicates=[(col("nope") > lit(0)).to_symbolic()],
                              project_columns=["s"],
                              out_value_schema=VALUES.project(["s"]))
        with RecordFileReader(path) as reader:
            assert build_scan_plan(
                reader.key_schema, reader.value_schema, spec
            ) is None


# -- fallback triggers and error parity ----------------------------------------


def _encode_blob(record):
    return f"{record.i}".encode()


def _decode_blob(schema, raw):
    return Record(schema, [int(raw)])


BLOB = register_opaque_schema(OpaqueSchema(
    "KernelBlob", [Field("i", FieldType.INT)],
    encoder=_encode_blob, decoder=_decode_blob,
))


class TestFallbackTriggers:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        return _write(tmp_path / "data.rf", _rows(60))

    @staticmethod
    def _batch_tasks(result):
        return sum(
            s.outcome.result.metrics.batch_map_tasks for s in result.stages
        )

    def _run(self, tmp_path, build, expect_batch):
        with Session(workdir=str(tmp_path / f"s{expect_batch}")) as session:
            result = build(session).run()
            tasks = self._batch_tasks(result)
            assert (tasks > 0) == expect_batch, result.plan.stages[0].descriptions
            return serialize_rows(result.rows)

    def test_expr_filter_vectorizes(self, tmp_path, dataset_path):
        self._run(tmp_path,
                  lambda s: s.read(dataset_path).filter(col("i") > lit(0)),
                  expect_batch=True)

    def test_callable_predicate_falls_back(self, tmp_path, dataset_path):
        self._run(tmp_path,
                  lambda s: s.read(dataset_path).filter(lambda v: v.i > 0),
                  expect_batch=False)

    def test_udf_map_falls_back(self, tmp_path, dataset_path):
        self._run(
            tmp_path,
            lambda s: s.read(dataset_path)
            .filter(col("i") > lit(0))
            .map(lambda k, v: (k, v), value_schema=VALUES),
            expect_batch=False,
        )

    def test_pure_scan_falls_back(self, tmp_path, dataset_path):
        # nothing to vectorize: every field decodes either way
        self._run(tmp_path, lambda s: s.read(dataset_path),
                  expect_batch=False)

    def test_opaque_schema_falls_back(self, tmp_path):
        path = str(tmp_path / "blob.rf")
        with RecordFileWriter(path, LONG_SCHEMA, BLOB) as w:
            for i in range(30):
                w.append(LONG_SCHEMA.make(i), Record(BLOB, [i]))
        self._run(tmp_path,
                  lambda s: s.read(path).filter(col("i") > lit(3)),
                  expect_batch=False)

    def test_comparison_with_none_matches_record_path(
            self, tmp_path, dataset_path):
        # int > None raises TypeError in Python; both paths must surface
        # it as the same JobExecutionError, not silently drop rows
        def build(session):
            return session.read(dataset_path).filter(col("i") > lit(None))

        errors = []
        for vectorize in (True, False):
            with Session(workdir=str(tmp_path / f"n{vectorize}"),
                         vectorize=vectorize) as session:
                with pytest.raises(JobExecutionError) as excinfo:
                    build(session).run()
                errors.append(str(excinfo.value))
        assert "TypeError" in errors[0] or "not supported" in errors[0]
        assert errors[0] == errors[1]

    def test_equality_with_none_selects_nothing_in_both_paths(
            self, tmp_path, dataset_path):
        def build(session):
            return session.read(dataset_path).filter(col("i") == lit(None))

        payloads = []
        for vectorize in (True, False):
            with Session(workdir=str(tmp_path / f"e{vectorize}"),
                         vectorize=vectorize) as session:
                payloads.append(serialize_rows(build(session).run().rows))
        assert payloads[0] == payloads[1]
        assert payloads[0] == serialize_rows([])

    def test_filter_selecting_nothing_matches(self, tmp_path, dataset_path):
        expected = self._run(
            tmp_path / "a",
            lambda s: s.read(dataset_path).filter(col("i") > lit(10**6)),
            expect_batch=True,
        )
        with Session(workdir=str(tmp_path / "ref"), vectorize=False) as ref:
            assert expected == serialize_rows(
                ref.read(dataset_path).filter(col("i") > lit(10**6))
                .run().rows
            )
