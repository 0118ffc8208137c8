"""Classic ``map()`` bodies on the batch path.

The analyzer turns its proof about an unmodified classic ``map()`` into
an ``emit`` :class:`~repro.batch.spec.BatchStageSpec`; the optimizer
attaches it, and the batch executor serves the map tasks from column
batches.  Pinned here:

* a seeded differential: every described mapper shape (predicate plus
  field emit, unconditional emit, whole-record emit, tuple value,
  key-reading, a guarded and an unguarded raising condition) and every
  declined one, over a record file, a columnar catalog copy and a
  partitioned dataset, on ``LocalJobRunner`` and ``ParallelJobRunner(2)``:
  ``Manimal.submit`` returns pickle-identical outputs (or the same
  error) as stock ``run_job`` over the source, and integer metrics equal
  to the record path over the same plan but for ``batch_map_tasks``;
* every decline's reason in ``explain_job``'s ``batch:`` line;
* the verdicts on B1--B4.
"""

import dataclasses
import math
import os
import pickle
import random

import pytest

from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.exceptions import JobExecutionError
from repro.explain import explain_job
from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.formats import (
    ColumnarFileInput,
    PartitionedInput,
    RecordFileInput,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.runtime import run_job
from repro.storage.partitioned import write_partitioned_dataset
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Field, FieldType, Schema

KEYS = Schema("ClassicKey", [
    Field("tag", FieldType.STRING),
    Field("seq", FieldType.LONG),
])
VALUES = Schema("ClassicValue", [
    Field("s", FieldType.STRING),
    Field("i", FieldType.INT),
    Field("d", FieldType.DOUBLE),
    Field("n", FieldType.LONG),
    Field("b", FieldType.BOOL),
    Field("t", FieldType.STRING),
])

# -- described shapes ---------------------------------------------------


class PredicateEmit(Mapper):
    """B1's shape: a conjunction over members, then a field emit."""

    def __init__(self, lo=-3):
        self.lo = lo

    def map(self, key, value, ctx):
        if value.i > self.lo:
            if value.d < 0.5:
                ctx.emit(value.t, value.n)


class UnconditionalEmit(Mapper):
    """B2's shape: every row emits two fields."""

    def map(self, key, value, ctx):
        ctx.emit(value.s, value.n)


class WholeRecordEmit(Mapper):
    """B3's shape, behind an early return on a NaN-able column."""

    def map(self, key, value, ctx: Context) -> None:
        if not value.d <= 0.25:
            return
        ctx.emit(value.t, value)


class TupleValue(Mapper):
    def map(self, key, value, ctx):
        doubled: int = value.i * 2
        ctx.emit(value.s, (doubled, value.d, value.t))


class KeyReading(Mapper):
    def map(self, key, value, ctx):
        if key.seq % 3 != 0:
            ctx.emit(key.tag, (value.i, key))


class GuardedDivision(Mapper):
    def map(self, key, value, ctx):
        if value.i == 0:
            return
        if value.n / value.i > 2:
            ctx.emit(value.t, value.n % value.i)


class RaisingCondition(Mapper):
    """Divides by a column holding zeros: the task fails on both paths."""

    def map(self, key, value, ctx):
        if value.n // value.i > 1:
            ctx.emit(value.t, 1)


# -- declined shapes ----------------------------------------------------


class Counting(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("classic", "seen")
        ctx.emit(value.t, value.i)


class MemberMutation(Mapper):
    def map(self, key, value, ctx):
        self.last = value.i
        ctx.emit(value.t, value.i)


class EmitInLoop(Mapper):
    def map(self, key, value, ctx):
        for word in value.s.split():
            ctx.emit(word, 1)


class TwoEmits(Mapper):
    def map(self, key, value, ctx):
        if value.b:
            ctx.emit(value.t, value.i)
        else:
            ctx.emit(value.s, value.i)


class MovedDivision(Mapper):
    """The division runs before its guard: inlining would move it."""

    def map(self, key, value, ctx):
        ratio = value.n / value.i
        if value.i != 0:
            ctx.emit(value.t, ratio)


class WithSetup(Mapper):
    def setup(self, ctx):
        pass

    def map(self, key, value, ctx):
        ctx.emit(value.t, value.i)


class NegativeLiteral(Mapper):
    """Unary minus in the source: ``-5`` and ``-value.n`` are unary
    arithmetic nodes, rendered ``(-x)`` in the kernel."""

    def map(self, key, value, ctx):
        if value.i > -5 and -value.n < 40:
            ctx.emit(value.t, value.i)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, len(list(values)))


#: (mapper, reducer, combiner, emit spec description or decline reason)
DESCRIBED = [
    (PredicateEmit(), SumReducer, None,
     "2 predicate(s), capture [i, d, n, t], emit ($value.t, $value.n)"),
    # pruned to the partitions whose zone maps admit i > 2
    (PredicateEmit(lo=2), SumReducer, None,
     "2 predicate(s), capture [i, d, n, t], emit ($value.t, $value.n)"),
    (UnconditionalEmit(), SumReducer, SumReducer,
     "capture [s, n], emit ($value.s, $value.n)"),
    (WholeRecordEmit(), CountReducer, None,
     "1 predicate(s), capture [s, i, d, n, b, t], emit ($value.t, $value)"),
    (TupleValue(), None, None,
     "derive [@0=($value.i * 2)], capture [s, i, d, t], "
     "emit ($value.s, ($value.@0, $value.d, $value.t))"),
    (KeyReading(), CountReducer, None,
     "1 predicate(s), derive [@0=$key.tag], capture [i], "
     "emit ($value.@0, ($value.i, $key))"),
    (GuardedDivision(), None, None,
     "2 predicate(s), derive [@0=($value.n % $value.i)], "
     "capture [i, n, t], emit ($value.t, $value.@0)"),
    (RaisingCondition(), None, None,
     "1 predicate(s), capture [i, n, t], emit ($value.t, 1)"),
    (NegativeLiteral(), SumReducer, None,
     "1 predicate(s), capture [i, n, t], emit ($value.t, $value.i)"),
]
DECLINED = [
    (Counting(), SumReducer, None, "side effect in map(): counter"),
    (MemberMutation(), SumReducer, None,
     "side effect in map(): member-mutation (self.last = ...)"),
    (EmitInLoop(), SumReducer, None, "a loop in map()"),
    (TwoEmits(), SumReducer, None, "2 emit() calls"),
    (MovedDivision(), None, None, "inlining local variables would change"),
    (WithSetup(), SumReducer, None,
     "setup()/cleanup() overridden (per-task state)"),
]
INPUTS = ["record", "columnar", "partitions"]
#: the copy kinds a columnar input is built as
COPY_KINDS = [cat.KIND_PROJECTION, cat.KIND_PROJECTION_DELTA, cat.KIND_DELTA]


def _rows(rng, n):
    doubles = [0.0, -0.0, 0.25, 0.5, -1.5, math.nan, math.inf, 1e-300]
    rows = []
    for seq in range(n):
        words = " ".join(rng.choice(["ab", "cd", "ef"])
                         for _ in range(rng.randrange(3)))
        rows.append((
            KEYS.make(rng.choice(["k1", "k2", "k3"]), seq),
            VALUES.make(words, rng.randrange(-5, 6),
                        rng.choice(doubles) if rng.random() < 0.5
                        else rng.uniform(-1, 1),
                        rng.randrange(-50, 50), rng.random() < 0.5,
                        rng.choice(["x", "y", "z", "w"]))))
    return rows


def _source(kind, root, rows):
    if kind == "partitions":
        write_partitioned_dataset(os.path.join(root, "parts"), KEYS, VALUES,
                                  rows, 3, partition_by="i", block_size=300)
        return PartitionedInput(os.path.join(root, "parts"))
    path = os.path.join(root, "src.rf")
    with RecordFileWriter(path, KEYS, VALUES, block_size=300) as writer:
        for key, value in rows:
            writer.append(key, value)
    return RecordFileInput(path)


def _int_metrics(metrics):
    return {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(JobMetrics)
            if isinstance(getattr(metrics, f.name), int)
            and f.name != "batch_map_tasks"}


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except JobExecutionError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def parallel():
    runner = ParallelJobRunner(2)
    yield runner


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("seed", [0xC1A5, 20261018])
def test_submit_equals_stock_run_job(tmp_path, parallel, kind, seed):
    rng = random.Random(seed)
    source = _source(kind, str(tmp_path), _rows(rng, 160))
    served = 0
    for number, (mapper, reducer, combiner, verdict) in enumerate(
            DESCRIBED + DECLINED):
        conf = JobConf(name=f"classic-{number}", mapper=mapper,
                       reducer=reducer, combiner=combiner, inputs=[source],
                       num_reducers=3)
        system = Manimal(str(tmp_path / f"catalog-{number}"))
        if kind == "columnar":
            if not system.build_indexes(conf, allowed_kinds=COPY_KINDS):
                continue
        for runner in (LocalJobRunner(), parallel):
            stock = _run(run_job, conf, runner=runner)
            outcome = _run(system.submit, conf, runner=runner)
            descriptor = system.plan(conf)
            [plan] = descriptor.plans
            if kind == "columnar":
                assert isinstance(plan.chosen, ColumnarFileInput)
            # the record path over the same plan: what the batch path
            # must equal, integer metric for integer metric
            twin = descriptor.apply(conf)
            twin.batch_specs.clear()
            record_path = _run(run_job, twin, runner=runner)
            if isinstance(stock, tuple):
                assert outcome == stock == record_path, mapper
                continue
            got = outcome.result
            assert pickle.dumps(got.outputs) == pickle.dumps(stock.outputs)
            assert pickle.dumps(got.outputs) == pickle.dumps(
                record_path.outputs)
            assert got.counters.to_dict() == record_path.counters.to_dict()
            assert _int_metrics(got.metrics) == _int_metrics(
                record_path.metrics)
            assert record_path.metrics.batch_map_tasks == 0
            if (mapper, reducer, combiner, verdict) in DECLINED:
                assert plan.batch is None
                assert got.metrics.batch_map_tasks == 0
            elif got.metrics.map_input_records:
                assert got.metrics.batch_map_tasks > 0
                served += 1
    assert served


@pytest.mark.parametrize("mapper,reducer,combiner,verdict",
                         DESCRIBED + DECLINED,
                         ids=lambda p: type(p).__name__
                         if isinstance(p, Mapper) else "")
def test_explain_prints_the_batch_verdict(tmp_path, mapper, reducer,
                                          combiner, verdict):
    rows = _rows(random.Random(7), 20)
    conf = JobConf(name="explained", mapper=mapper, reducer=reducer,
                   combiner=combiner,
                   inputs=[_source("record", str(tmp_path), rows)])
    text = explain_job(conf)
    [line] = [ln for ln in text.splitlines() if ln.startswith("  batch: ")]
    described = any(mapper is m for m, *_rest in DESCRIBED)
    if described:
        assert line == f"  batch: {verdict}"
    else:
        assert line.startswith(f"  batch: declined ({verdict}")


def test_a_selection_index_input_runs_on_the_batch_path(tmp_path):
    rows = _rows(random.Random(3), 200)
    conf = JobConf(name="indexed", mapper=PredicateEmit(lo=3),
                   reducer=SumReducer,
                   inputs=[_source("record", str(tmp_path), rows)])
    system = Manimal(str(tmp_path / "catalog"))
    system.build_indexes(conf, allowed_kinds=[cat.KIND_SELECTION])
    outcome = system.submit(conf)
    [plan] = outcome.descriptor.plans
    assert plan.entry is not None and plan.batch is not None
    assert outcome.result.metrics.batch_map_tasks > 0
    text = explain_job(conf, catalog_dir=str(tmp_path / "catalog"))
    assert ("  batch: 2 predicate(s), capture [i, d, n, t], "
            "emit ($value.t, $value.n)" in text.splitlines())
    assert pickle.dumps(outcome.result.outputs) == pickle.dumps(
        run_job(conf).outputs)
    twin = outcome.descriptor.apply(conf)
    twin.batch_specs.clear()
    record_path = run_job(twin)
    assert _int_metrics(outcome.result.metrics) == _int_metrics(
        record_path.metrics)


def test_the_verdict_is_cached_with_the_analysis(tmp_path):
    rows = _rows(random.Random(5), 20)
    conf = JobConf(name="cached", mapper=UnconditionalEmit(),
                   reducer=SumReducer,
                   inputs=[_source("record", str(tmp_path), rows)])
    system = Manimal(str(tmp_path / "catalog"))
    first = system.analyze(conf)
    assert first.inputs[0].batch_spec is not None
    assert system.analyze(conf) is first


def test_annotated_assignments_analyze_like_plain_ones():
    class Plain(Mapper):
        def map(self, key, value, ctx):
            scaled = value.i * 2
            ctx.emit(value.t, scaled)

    class Annotated(Mapper):
        def map(self, key, value, ctx):
            unused: int
            scaled: int = value.i * 2
            ctx.emit(value.t, scaled)

    analyzer = ManimalAnalyzer()
    plain, annotated = (analyzer.analyze_mapper(m(), KEYS, VALUES)
                        for m in (Plain, Annotated))
    for ia in (plain, annotated):
        ia.mapper_name = "M"
    assert repr(plain.descriptors()) == repr(annotated.descriptors())
    assert plain.notes == annotated.notes
    assert plain.read_shape == annotated.read_shape
    assert plain.batch_spec.describe() == annotated.batch_spec.describe()

    class PlainReducer(Reducer):
        def reduce(self, key, values, ctx):
            total = sum(values)
            if key != "skip":
                ctx.emit(key, total)

    class AnnotatedReducer(Reducer):
        def reduce(self, key, values, ctx):
            total: int = sum(values)
            if key != "skip":
                ctx.emit(key, total)

    from repro.core.analyzer.purity import DEFAULT_KB
    from repro.core.analyzer.reduce_ext import find_reduce_key_filter

    verdicts = [find_reduce_key_filter(r(), DEFAULT_KB)
                for r in (PlainReducer, AnnotatedReducer)]
    assert repr(verdicts[0]) == repr(verdicts[1])
    assert verdicts[0][0] is not None


def test_b1_to_b4_print_their_batch_verdicts(tmp_path):
    from repro.workloads.pavlo import (
        benchmark1 as b1,
        benchmark2 as b2,
        benchmark3 as b3,
        benchmark4 as b4,
    )

    def path(name):
        return str(tmp_path / name)

    b1.generate_input(path("r1.rf"), 200)
    b2.generate_input(path("uv.rf"), 300, n_urls=50)
    b3.generate_inputs(path("r3.rf"), path("uv3.rf"), 100, 300, n_urls=50)
    b4.generate_input(path("docs.rf"), 30, n_urls=50)
    jobs = [
        b1.make_job(path("r1.rf"), 9000),
        b2.make_job(path("uv.rf")),
        b3.make_join_job(path("r3.rf"), path("uv3.rf"),
                         *b3.date_window_for_selectivity(0.02)),
        b4.make_job(path("docs.rf")),
    ]
    system = Manimal(path("catalog"))
    verdicts = []
    for job in jobs:
        system.build_indexes(job)
        text = explain_job(job, catalog_dir=path("catalog"))
        verdicts.append([line for line in text.splitlines()
                         if line.startswith("  batch: ")])
        # an index scan reads in index order: compare as multisets
        outcome = system.submit(job)
        assert sorted(map(repr, outcome.result.outputs)) == sorted(
            map(repr, run_job(job).outputs))
    assert verdicts == [
        # B1: its selection index is a sorted copy of AbstractTuple
        # records, whose opaque encoding hides the columns
        ["  batch: declined (opaque schema or missing needed column)"],
        # B2: both fields from the projection+delta copy
        ["  batch: capture [sourceIP, adRevenue], "
         "emit ($value.sourceIP, $value.adRevenue)"],
        # B3: rankings whole from the delta copy; visits from its index
        ["  batch: capture [pageURL, pageRank, avgDuration], "
         "emit ($value.pageURL, $value)",
         "  batch: 1 predicate(s), capture [sourceIP, destURL, visitDate, "
         "adRevenue, userAgent, countryCode, languageCode, searchWord, "
         "duration], emit ($value.destURL, $value)"],
        # B4: the per-document dedupe table
        ["  batch: declined (side effect in map(): container-mutation "
         "(subscript store))"],
    ]
    # B4's annotated dedupe table lowers: it stays the selection
    # negative control for its real reason, and B3's join reducer gets
    # as far as its destructuring loop
    analysis = ManimalAnalyzer().analyze_job(jobs[3])
    [b4] = analysis.inputs
    assert b4.selection is None
    assert b4.notes["SELECT"] == [
        "control flow contains a loop on a path to emit(); selection "
        "analysis requires enumerable paths"]
    assert not b4.read_shape.decode_keys
    from benchmarks.suite.programs import InlinkMapper, JoinReducer

    from repro.core.analyzer.purity import DEFAULT_KB
    from repro.core.analyzer.reduce_ext import find_reduce_key_filter

    assert find_reduce_key_filter(JoinReducer(), DEFAULT_KB) == (
        None, ["reducer not analyzable: destructuring for-loop target"])
    suite_b4 = ManimalAnalyzer().analyze_mapper(InlinkMapper(), None, None)
    assert suite_b4.notes["SELECT"] == b4.notes["SELECT"]
