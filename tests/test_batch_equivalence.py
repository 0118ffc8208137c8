"""Differential/property harness for the vectorized batch path.

The batch executor (:mod:`repro.batch`) promises byte-identical output
to the record-at-a-time path.  This suite earns that claim the brutal
way: generate randomized schemas (every field type, opaque included) and
randomized filter/select/aggregate chains, run each chain through a
vectorized session and a ``vectorize=False`` reference session, and
compare the *serialized* result payloads -- the same byte codec the
query service caches -- under the sequential and parallel runners.
Chains built from analyzable pieces must additionally prove
the batch path actually ran (``batch_map_tasks > 0``); opaque-schema
chains must prove it did not.

The same harness covers UDF translation: randomized chains of plain
callables (lambda / def / ``__call__`` class / ``functools.partial``)
run translated -- on the batch path -- against the identical chain with
every callable behind :class:`Opaque`, a wrapper the translator provably
declines, which runs the user's own code on the record path.
"""

import functools
import os
import random
from decimal import Decimal

import pytest

from repro.api.expressions import col, lit
from repro.api.session import Session
from repro.exceptions import JobExecutionError
from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.service.payload import serialize_rows
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import (
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
    register_opaque_schema,
)

N_SCHEMAS = 9
CHAINS_PER_SCHEMA = 12  # 9 * 12 = 108 randomized transparent chains
N_ROWS = 120
BLOCK_SIZE = 384  # small enough that every file spans many blocks

NUMERIC = (FieldType.INT, FieldType.LONG, FieldType.DOUBLE)
ALL_TYPES = NUMERIC + (FieldType.BOOL, FieldType.STRING, FieldType.BYTES)


# -- randomized data -----------------------------------------------------------


def _random_value(rng, ftype):
    if ftype in (FieldType.INT, FieldType.LONG):
        return rng.randrange(-50, 50)
    if ftype is FieldType.DOUBLE:
        # -0.0 and NaN are carved out of the uniform draw rather than
        # drawn on their own, so the generator's stream -- and with it
        # every chain the golden corpus pins -- stays put.
        u = rng.uniform(-100.0, 100.0)
        value = rng.choice([0.0, 1.5, u])
        if value is u and int(abs(u) * 16) % 8 < 2:
            return -0.0 if int(abs(u) * 16) % 8 == 0 else float("nan")
        return value
    if ftype is FieldType.BOOL:
        return rng.random() < 0.5
    if ftype is FieldType.STRING:
        return "".join(rng.choice("abcÎ©æ—¥x") for _ in range(rng.randrange(0, 6)))
    return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 5)))


def _random_schema(rng, index):
    n = rng.randrange(2, 7)
    fields = [Field(f"c{i}", rng.choice(ALL_TYPES)) for i in range(n)]
    # guarantee at least one integer column so every schema can aggregate
    fields.append(Field("anchor", rng.choice((FieldType.INT, FieldType.LONG))))
    return Schema(f"Rand{index}", fields)


def _write_dataset(tmpdir, rng, schema, index):
    key_schema = Schema(f"RandKey{index}", [Field("id", FieldType.LONG)])
    path = os.path.join(tmpdir, f"rand{index}.rf")
    with RecordFileWriter(path, key_schema, schema,
                          block_size=BLOCK_SIZE) as writer:
        for i in range(N_ROWS):
            values = [_random_value(rng, f.ftype) for f in schema.fields]
            writer.append(key_schema.make(i), Record(schema, values))
    return path


# -- randomized chains ---------------------------------------------------------


def _random_predicate(rng, schema, visible):
    name = rng.choice(sorted(visible))
    ftype = schema.field(name).ftype
    column = col(name)
    if ftype in (FieldType.INT, FieldType.LONG):
        if rng.random() < 0.3:  # arithmetic sub-expressions vectorize too
            column = column * lit(rng.randrange(1, 4)) + lit(rng.randrange(-5, 5))
        threshold = rng.randrange(-60, 60)
    elif ftype is FieldType.DOUBLE:
        threshold = rng.uniform(-100.0, 100.0)
    elif ftype is FieldType.BOOL:
        return column == lit(rng.random() < 0.5)
    elif ftype is FieldType.STRING:
        threshold = _random_value(rng, ftype)
    else:
        threshold = _random_value(rng, FieldType.BYTES)
    op = rng.choice(["__gt__", "__lt__", "__ge__", "__le__", "__eq__", "__ne__"])
    return getattr(column, op)(lit(threshold))


def _random_chain(rng, dataset, schema):
    """Build a random filter/select[/aggregate] chain; returns (ds, describes)."""
    visible = [f.name for f in schema.fields]
    for _ in range(rng.randrange(0, 4)):
        dataset = dataset.filter(_random_predicate(rng, schema, visible))
    if rng.random() < 0.6:
        keep = rng.sample(visible, rng.randrange(1, len(visible) + 1))
        if "anchor" not in keep:
            keep.append("anchor")
        dataset = dataset.select(*keep)
        visible = keep
    if rng.random() < 0.4:
        group = rng.choice([
            c for c in visible
            if schema.field(c).ftype is not FieldType.BYTES
        ] or ["anchor"])
        aggs = {}
        candidates = [c for c in visible if schema.field(c).ftype in NUMERIC]
        for i in range(rng.randrange(1, 4)):
            op = rng.choice(["count", "sum", "min", "max", "avg"])
            if op == "count":
                aggs[f"a{i}"] = ("count", None)
            elif candidates:
                aggs[f"a{i}"] = (op, rng.choice(candidates))
            else:
                aggs[f"a{i}"] = ("count", None)
        dataset = dataset.group_by(group).agg(**aggs)
    return dataset


def _batch_tasks(result):
    return sum(
        stage.outcome.result.metrics.batch_map_tasks for stage in result.stages
    )


def _run_bytes(session, build, **kwargs):
    result = build(session).run(**kwargs)
    return serialize_rows(result.rows), result


# -- the harness ---------------------------------------------------------------


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch-diff")
    with Session(workdir=str(root / "vect"), vectorize=True) as vect, \
            Session(workdir=str(root / "ref"), vectorize=False) as ref:
        yield vect, ref


class TestRandomizedChains:
    def test_hundred_random_chains_byte_identical(self, sessions, tmp_path):
        vect, ref = sessions
        rng = random.Random(0xBA7C4)
        checked = vectorized = 0
        for schema_index in range(N_SCHEMAS):
            schema = _random_schema(rng, schema_index)
            path = _write_dataset(str(tmp_path), rng, schema, schema_index)
            for chain_index in range(CHAINS_PER_SCHEMA):
                seed = rng.randrange(2**32)

                # rebuilt from the same seed for every run, so all four
                # executions lower the exact same chain
                def build(session, _p=path, _s=schema, _seed=seed):
                    return _random_chain(
                        random.Random(_seed), session.read(_p), _s
                    )

                expected, ref_result = _run_bytes(ref, build)
                assert _batch_tasks(ref_result) == 0

                got_seq, vect_result = _run_bytes(vect, build)
                assert got_seq == expected, (
                    f"schema {schema_index} chain {chain_index}: sequential "
                    f"batch output diverged"
                )
                got_par, _ = _run_bytes(vect, build, parallelism=2)
                assert got_par == expected, (
                    f"schema {schema_index} chain {chain_index}: parallel "
                    f"batch output diverged"
                )

                checked += 1
                if _batch_tasks(vect_result):
                    vectorized += 1
                    self._assert_metric_parity(ref_result, vect_result)
        assert checked >= 100
        # The generator heavily favors analyzable chains; if the batch
        # path stopped engaging, the differential test would be vacuous.
        assert vectorized >= checked // 2

    @staticmethod
    def _assert_metric_parity(ref_result, vect_result):
        """I/O accounting must agree exactly, not just output bytes.

        Input-side metrics must always match.  Output/shuffle volumes
        may legitimately *shrink* on aggregate stages (hash
        pre-aggregation folds rows into per-task partials), so those are
        compared only on non-aggregate stages -- and a stage every map
        task pre-aggregated ships at most one partial per group per task.
        """
        plan_stages = vect_result.plan.stages
        for stage_plan, ref_stage, vect_stage in zip(
                plan_stages, ref_result.stages, vect_result.stages):
            rm = ref_stage.outcome.result.metrics
            vm = vect_stage.outcome.result.metrics
            assert vm.map_input_records == rm.map_input_records
            assert vm.map_input_stored_bytes == rm.map_input_stored_bytes
            assert vm.map_input_logical_bytes == rm.map_input_logical_bytes
            assert vm.reduce_output_records == rm.reduce_output_records
            if stage_plan.kind != "aggregate":
                assert vm.map_output_records == rm.map_output_records
                assert vm.shuffle_records == rm.shuffle_records
                assert vm.shuffle_bytes == rm.shuffle_bytes
            else:
                assert vm.map_output_records <= rm.map_output_records
                spec = stage_plan.conf.batch_specs.get(None)
                if spec is not None and spec.no_preagg is None \
                        and vm.batch_map_tasks == vm.map_tasks:
                    assert vm.shuffle_records <= \
                        vm.map_tasks * vm.reduce_groups


# -- the aggregate algebra: partials across tasks, and where it must not fold ---


SPREAD = Schema("Spread", [
    Field("g", FieldType.STRING),
    Field("x", FieldType.INT),
    Field("d", FieldType.DOUBLE),
])
SPREAD_KEY = Schema("SpreadKey", [Field("id", FieldType.LONG)])


def _write_rows(path, schema, values, block_size):
    with RecordFileWriter(path, SPREAD_KEY, schema,
                          block_size=block_size) as writer:
        for i, row in enumerate(values):
            writer.append(SPREAD_KEY.make(i), Record(schema, list(row)))
    return path


class TestAggregationAlgebra:
    SPLITS = 40

    @pytest.fixture(scope="class")
    def spread(self, tmp_path_factory):
        """Five groups over 2000 rows in ~100 blocks: with 40 splits,
        every group's partials come from many map tasks."""
        rng = random.Random(0xA16)
        path = str(tmp_path_factory.mktemp("spread") / "spread.rf")
        return _write_rows(path, SPREAD, [
            (rng.choice("abcde"), rng.randrange(-1000, 1000),
             _random_value(rng, FieldType.DOUBLE)) for _ in range(2000)
        ], block_size=256)

    @pytest.mark.parametrize("aggs, folds", [
        ({"n": ("count", None)}, True),
        ({"m": ("avg", "x")}, True),
        ({"n": ("count", None), "s": ("sum", "x"), "hi": ("max", "x")}, True),
        ({"lo": ("min", "x")}, True),
        ({"m": ("avg", "d"), "n": ("count", None)}, False),
    ], ids=["count", "avg", "count-sum-max", "min", "avg-double"])
    def test_partials_from_many_tasks_reduce_to_the_reference(
            self, tmp_path, spread, aggs, folds):
        def build(session):
            return session.read(spread).filter(col("x") > -900) \
                .group_by("g").agg(**aggs)

        work = str(tmp_path)
        with Session(workdir=work + "/ref", vectorize=False) as ref, \
                Session(workdir=work + "/seq", runner=LocalJobRunner(
                    splits_per_input=self.SPLITS)) as seq, \
                Session(workdir=work + "/par", runner=ParallelJobRunner(
                    num_workers=2, splits_per_input=self.SPLITS)) as par:
            expected, reference = _run_bytes(ref, build)
            per_row = reference.stages[0].outcome.result.metrics
            assert ("hash pre-agg" if folds else "no pre-agg (avg over "
                    "DOUBLE is order-sensitive)") in build(seq).explain()
            for label, session in (("sequential", seq), ("parallel", par)):
                got, result = _run_bytes(session, build)
                assert got == expected, label
                m = result.stages[0].outcome.result.metrics
                assert m.batch_map_tasks == m.map_tasks >= self.SPLITS // 2
                assert m.reduce_groups == 5
                if folds:
                    # at most one partial per group per task, and every
                    # group's partials came from more than ten tasks
                    assert 5 * 10 < m.shuffle_records <= 5 * m.map_tasks
                    assert m.shuffle_records < per_row.shuffle_records
                else:
                    assert m.shuffle_records == per_row.shuffle_records

    def test_min_over_double_is_not_preaggregated(self, sessions, tmp_path):
        """The NaN counterexample.  Per row, ``min`` over ``[1.0, 2.0,
        nan, 0.5]`` is 0.5; merging the two tasks' partials ``1.0`` and
        ``min(nan, 0.5) = nan`` gives 1.0.  The stage must stay per-row."""
        assert min(min(1.0, 2.0), min(float("nan"), 0.5)) == 1.0
        path = _write_rows(str(tmp_path / "nan.rf"), SPREAD, [
            ("g", 0, d) for d in (1.0, 2.0, float("nan"), 0.5)
        ], block_size=1)

        def build(session):
            return session.read(path).group_by("g").agg(lo=("min", "d"))

        _vect, ref = sessions
        expected, reference = _run_bytes(ref, build)
        assert reference.rows == [("g", 0.5)]
        with Session(workdir=str(tmp_path / "work"),
                     runner=LocalJobRunner(splits_per_input=2)) as vect:
            text = build(vect).explain()
            assert "no pre-agg (min over DOUBLE is order-sensitive)" in text
            got, result = _run_bytes(vect, build)
        assert got == expected
        m = result.stages[0].outcome.result.metrics
        assert m.batch_map_tasks == m.map_tasks == 2
        assert m.shuffle_records == 4


# -- one renderer: every literal form, every operator spelling -----------------


LITERALS = Schema("LiteralRows", [
    Field("rank", FieldType.INT),
    Field("score", FieldType.DOUBLE),
    Field("raw", FieldType.BYTES),
])


class TestLiteralFormsAndOperators:
    """The stage mapper and the kernel render one tree with one renderer:
    a constant with no literal form (``inf``, ``nan``, ``Decimal``) binds
    as the object on both paths, so the query cannot start failing when
    the planner swaps the batch scan for a B+Tree input."""

    @pytest.fixture(scope="class")
    def literal_rows(self, tmp_path_factory):
        key_schema = Schema("LiteralKey", [Field("id", FieldType.LONG)])
        path = str(tmp_path_factory.mktemp("literals") / "rows.rf")
        with RecordFileWriter(path, key_schema, LITERALS,
                              block_size=BLOCK_SIZE) as writer:
            for i in range(300):
                score = float("inf") if i % 7 == 0 else i / 2
                writer.append(key_schema.make(i),
                              LITERALS.make(i, score, bytes([i % 256])))
        return path

    @pytest.mark.parametrize("predicate, n_rows", [
        ((col("rank") > 250) & (col("score") < float("inf")), 42),
        ((col("rank") > 250) & (col("score") != float("nan")), 49),
        ((col("rank") > 250) & (col("score") == float("nan")), 0),
        ((col("rank") > 250) & (col("score") <= Decimal("130.5")), 9),
        ((col("rank") > 250) & (col("raw") >= lit(b"\x80")), 5),
        ((col("rank") > 250) & (col("rank") // 2 == 130), 2),
        ((col("rank") > 250)
         & (600 // (1 + col("rank")) + 2 * col("rank") - 10 - col("rank")
            < 250 + 7 % col("rank") + 100 / col("rank")), 15),
    ], ids=["inf", "nan-ne", "nan-eq", "decimal", "bytes", "floordiv",
            "reflected-arithmetic"])
    def test_same_rows_vectorized_record_and_indexed(
            self, sessions, literal_rows, tmp_path, predicate, n_rows):
        vect, ref = sessions

        def build(session):
            return session.read(literal_rows).filter(predicate)

        expected, ref_result = _run_bytes(ref, build)
        assert len(ref_result.rows) == n_rows
        assert _batch_tasks(ref_result) == 0
        got, vect_result = _run_bytes(vect, build)
        assert got == expected
        assert _batch_tasks(vect_result) > 0
        with Session(workdir=str(tmp_path / "work"),
                     catalog_dir=str(tmp_path / "catalog")) as indexed:
            got, result = _run_bytes(indexed, build, build_indexes=True)
            assert "btree-scan" in result.descriptor.describe()
            assert _batch_tasks(result) == 0  # B+Tree input: record path
        assert got == expected


# -- opaque schemas: the batch path must never engage --------------------------


def _encode_opaque(record):
    return f"{record.a}|{record.b}".encode("utf-8")


def _decode_opaque(schema, raw):
    a, b = raw.split(b"|", 1)
    return Record(schema, [int(a), b.decode("utf-8")])


OPAQUE = register_opaque_schema(OpaqueSchema(
    "BatchDiffOpaque",
    [Field("a", FieldType.INT), Field("b", FieldType.STRING)],
    encoder=_encode_opaque,
    decoder=_decode_opaque,
))


class TestOpaqueSchemasFallBack:
    @pytest.fixture()
    def opaque_path(self, tmp_path):
        key_schema = Schema("OpaqueKey", [Field("id", FieldType.LONG)])
        path = str(tmp_path / "opaque.rf")
        rng = random.Random(11)
        with RecordFileWriter(path, key_schema, OPAQUE,
                              block_size=BLOCK_SIZE) as writer:
            for i in range(N_ROWS):
                writer.append(key_schema.make(i),
                              Record(OPAQUE, [rng.randrange(-50, 50), f"s{i}"]))
        return path

    def test_opaque_chains_identical_and_never_vectorized(
            self, sessions, opaque_path):
        vect, ref = sessions
        builders = [
            lambda s: s.read(opaque_path).filter(col("a") > lit(0)),
            lambda s: s.read(opaque_path).filter(col("a") > lit(0))
            .group_by("b").agg(total=("sum", "a")),
            lambda s: s.read(opaque_path).group_by("a").agg(n=("count", None)),
        ]
        for build in builders:
            expected, ref_result = _run_bytes(ref, build)
            got, vect_result = _run_bytes(vect, build)
            assert got == expected
            # opaque serialization defeats the batch scan entirely
            assert _batch_tasks(vect_result) == 0
            assert _batch_tasks(ref_result) == 0


# -- UDF translation: translated chains vs the user's own code -------------------


class Opaque:
    """Hides a callable from the translator (``*args`` declines on sight),
    so the chain runs the wrapped user code record-at-a-time."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)


class AnchorAbove:
    def __init__(self, limit):
        self.limit = limit

    def __call__(self, value):
        return value.anchor > self.limit


def anchor_not_multiple(k, value):
    return value.anchor % k != 0


def c0_at_least(threshold):
    def pred(value):
        bound = threshold
        return value.c0 >= bound
    return pred


def _random_udf_filter(rng, schema):
    """One random predicate in a random callable shape, real source each."""
    shape = rng.randrange(4)
    if shape == 0:
        lo = rng.randrange(-40, 40)
        return lambda v: lo <= v.anchor and v.anchor * 2 - 1 < 70
    if shape == 1:
        return c0_at_least(_random_value(rng, schema.field("c0").ftype))
    if shape == 2:
        return AnchorAbove(rng.randrange(-45, 30))
    return functools.partial(anchor_not_multiple, rng.randrange(2, 9))


def _udf_out_schema(schema, index):
    return Schema(f"UdfOut{index}", [
        Field("bucket", FieldType.LONG),
        Field("twice", FieldType.LONG),
        Field("orig", schema.field("c0").ftype),
    ])


def _random_udf_chain(rng, session, path, schema, out, wrap):
    """filter / map / filter->map->group_by / join sides, UDFs via ``wrap``."""

    def bucketed(key, value):
        bucket = value.anchor % 5
        twice = value.anchor * 2 + 1
        return key, out.make(bucket, twice, value.c0)

    def filtered(dataset, lo, hi):
        for _ in range(rng.randrange(lo, hi)):
            dataset = dataset.filter(wrap(_random_udf_filter(rng, schema)))
        return dataset

    def mapped(dataset):
        return dataset.map(wrap(bucketed), value_schema=out)

    kind = rng.randrange(5)
    base = session.read(path)
    if kind == 0:
        return filtered(base, 1, 3).select("anchor", "c0")
    if kind == 1:
        return mapped(base)
    if kind == 2:
        return mapped(filtered(base, 1, 3)).group_by("bucket").agg(
            n=("count", None), s=("sum", "twice"), hi=("max", "twice"))
    if kind == 3:
        return filtered(base, 1, 3).group_by("anchor").agg(
            s=("sum", "anchor"), lo=("min", "anchor"))
    left = mapped(filtered(base, 1, 2).filter(col("anchor") > 25))
    right = mapped(filtered(session.read(path), 1, 2)).select(
        "bucket", "twice")
    return left.join(right, on="bucket")


def _counters(result):
    return [s.outcome.result.counters.to_dict() for s in result.stages]


def _opaque_everywhere(result):
    return all(
        ("<python:" not in d) or ("opaque: " in d)
        for stage in result.plan.stages for d in stage.descriptions
    )


class TestTranslatedUdfChains:
    def test_random_udf_chains_match_the_users_code(self, tmp_path):
        rng = random.Random(0x0DF5)
        checked = 0
        with Session(workdir=str(tmp_path / "udf")) as session:
            for schema_index in range(5):
                schema = _random_schema(rng, schema_index)
                path = _write_dataset(str(tmp_path), rng, schema,
                                      schema_index)
                out = _udf_out_schema(schema, schema_index)
                for chain_index in range(8):
                    seed = rng.randrange(2**32)

                    def build(wrap, _seed=seed, _p=path, _s=schema, _o=out):
                        return _random_udf_chain(
                            random.Random(_seed), session, _p, _s, _o, wrap)

                    where = f"schema {schema_index} chain {chain_index}"
                    reference = build(Opaque).run()
                    assert _opaque_everywhere(reference), where
                    assert _batch_tasks(reference) == 0, where
                    expected = serialize_rows(reference.rows)

                    translated = build(lambda fn: fn).run()
                    assert serialize_rows(translated.rows) == expected, where
                    assert _counters(translated) == _counters(reference)
                    # every map task of every stage rode the kernels
                    assert _batch_tasks(translated) == sum(
                        s.outcome.result.metrics.map_tasks
                        for s in translated.stages), where
                    TestRandomizedChains._assert_metric_parity(
                        reference, translated)
                    again = build(lambda fn: fn).run(parallelism=2)
                    assert serialize_rows(again.rows) == expected, where
                    assert _counters(again) == _counters(reference)
                    checked += 1
        assert checked == 40

    @pytest.fixture()
    def anchored(self, tmp_path):
        """anchor runs -3..36: exactly one row has anchor == 0."""
        schema = Schema("Anchored", [Field("anchor", FieldType.INT)])
        key_schema = Schema("AnchoredKey", [Field("id", FieldType.LONG)])
        path = str(tmp_path / "anchored.rf")
        with RecordFileWriter(path, key_schema, schema,
                              block_size=BLOCK_SIZE) as writer:
            for i in range(40):
                writer.append(key_schema.make(i), schema.make(i - 3))
        return path

    @pytest.mark.parametrize("predicate, cause", [
        (lambda v: 100 % v.anchor == 0, ZeroDivisionError),
        (functools.partial(anchor_not_multiple, 0), ZeroDivisionError),
        (AnchorAbove(None), TypeError),
    ], ids=["mod-zero-one-row", "mod-zero-every-row", "none-compare"])
    def test_raising_rows_raise_the_same_way(self, sessions, anchored,
                                             predicate, cause):
        vect, _ref = sessions
        failures = []
        for fn in (predicate, Opaque(predicate)):
            for kwargs in ({}, {"parallelism": 2}):
                query = vect.read(anchored).filter(fn).group_by(
                    "anchor").agg(n=("count", None))
                with pytest.raises(JobExecutionError) as info:
                    query.run(**kwargs)
                if not kwargs:  # the cause survives in-process only
                    assert type(info.value.__cause__) is cause
                failures.append(str(info.value).split(": ", 1)[1])
        assert len(set(failures)) == 1, failures

    def test_guarded_division_raises_in_neither(self, sessions, anchored):
        vect, _ref = sessions

        def guarded(v):
            return v.anchor != 0 and 100 % v.anchor == 0

        rows = vect.read(anchored).filter(guarded).collect()
        assert rows == vect.read(anchored).filter(Opaque(guarded)).collect()
        assert sorted(v.anchor for _k, v in rows) == [
            -2, -1, 1, 2, 4, 5, 10, 20, 25]


def _nan_aware(rows):
    """Rows as comparable text: ``nan != nan`` in list equality, but its
    ``repr`` is stable; sorted, since an index may reorder rows."""
    return sorted(repr(row) for row in rows)


class TestProjectionIndexedChains:
    def test_random_chains_read_the_same_through_a_projection_index(
            self, tmp_path):
        # A projection index keeps the columns the stage hints say its
        # generated mapper reads: a select before an aggregate builds
        # every selected column, so the index must keep the ones the
        # aggregate never names.  The record path (vectorize=False)
        # runs that mapper.
        from repro.core.optimizer.catalog import KIND_PROJECTION

        rng = random.Random(0xBA7C4)
        indexed = 0
        for schema_index in range(N_SCHEMAS):
            schema = _random_schema(rng, schema_index)
            path = _write_dataset(str(tmp_path), rng, schema, schema_index)
            workdir = str(tmp_path / f"work{schema_index}")
            with Session(workdir=workdir, vectorize=False) as session:
                for chain_index in range(CHAINS_PER_SCHEMA):
                    seed = rng.randrange(2**32)

                    def build(_seed=seed):
                        return _random_chain(random.Random(_seed),
                                             session.read(path), schema)

                    plain = build().run()
                    build().build_indexes(allowed_kinds=[KIND_PROJECTION])
                    served = build().run()
                    label = f"schema {schema_index} chain {chain_index}"
                    assert _nan_aware(served.rows) == _nan_aware(plain.rows), \
                        label
                    indexed += any(
                        stage.outcome.descriptor.optimized
                        for stage in served.stages)
        # the corpus is not vacuous: most chains have a column to drop
        assert indexed >= 48
