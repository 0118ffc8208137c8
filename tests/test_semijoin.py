"""A described reduce-side join runs as a semijoin, with the same bytes.

When the analyzer proves that ``reduce()`` emits only for a group holding
a value from some input, the optimizer picks the build side among those
inputs and every other input's pairs whose key the build side never
emits are dropped before the shuffle.  This differential runs seeded
two- and three-input joins through ``Manimal.submit`` over str, int and
float keys -- NaN, ``-0.0``/``0.0`` and ``1``/``1.0``/``True`` included,
which the shuffle groups as one key each -- and checks every run against
the same conf with the semijoin stripped (built here; it is no user
option): outputs and counters byte-identical, every metric identical
except the ones that measure what the semijoin saves.  In-process,
pooled and forked runs agree byte for byte, metrics included.

A refusal corpus pins why each non-join reducer is declined, and both
B3s (the benchmark suite's and ``workloads/pavlo``'s) are admitted.
"""

import dataclasses
import os
import random

import pytest

from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.engine import ExecutionEngine
from repro.explain import explain_job
from repro.mapreduce import (
    JobConf,
    LocalJobRunner,
    Mapper,
    ParallelJobRunner,
    ProjectedFileInput,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.mapreduce.semijoin import KeySet
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Schema,
)
from tests.conftest import metrics_without_wall

#: the metrics a semijoin changes: what crosses the shuffle, the groups
#: the reducer sees, and what the key pass reads
SEMIJOIN_METRICS = {
    "map_output_bytes", "shuffle_records", "shuffle_bytes",
    "shuffle_key_bytes", "shuffle_records_skipped", "reduce_groups",
    "reduce_input_records", "map_input_stored_bytes", "fields_deserialized",
}

#: key pools per key type: NaN, the signed zeros and the equal numbers
#: are one shuffle group each
KEYS = {
    FieldType.STRING: ["", "a", "b", "c", "d", "é", "ab", "z"],
    FieldType.INT: [-3, 0, 1, 2, 5, 8, 13, 1 << 40],
    FieldType.DOUBLE: [float("nan"), -0.0, 0.0, 1.0, 1.5, -2.25,
                       float("inf"), 7.0],
    FieldType.BOOL: [True, False],
}


def _schema(name, key_type):
    return Schema(name, [Field("k", key_type), Field("n", FieldType.INT),
                         Field("payload", FieldType.STRING)])


def _write(path, schema, rows):
    with RecordFileWriter(str(path), LONG_SCHEMA, schema,
                          block_size=256) as writer:
        for i, row in enumerate(rows):
            writer.append(LONG_SCHEMA.make(i), schema.make(*row))
    return str(path)


def _rows(rng, key_type, n, keys=None):
    keys = keys if keys is not None else KEYS[key_type]
    return [(rng.choice(keys), rng.randrange(10), f"p{rng.randrange(1000)}")
            for _ in range(n)]


class FloorMapper(Mapper):
    """The build side's shape: a predicate, then the whole record."""

    def __init__(self, floor=0):
        self.floor = floor

    def map(self, key, value, ctx):
        if value.n >= self.floor:
            ctx.emit(value.k, value)


class ForwardMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.k, value)


class PairJoin(Reducer):
    """An inner join of ``A`` values with everything else."""

    def reduce(self, key, values, ctx):
        lefts = []
        rights = []
        for value in values:
            if value.schema.name == "A":
                lefts.append(value.payload)
            else:
                rights.append((value.n, value.payload))
        for left in lefts:
            for n, right in rights:
                ctx.emit(key, (left, n, right))


class TripleJoin(Reducer):
    """Every input required: a three-way inner join."""

    def reduce(self, key, values, ctx):
        a = []
        b = []
        c = []
        for value in values:
            if value.schema.name == "A":
                a.append(value.payload)
            elif value.schema.name in ("B",):
                b.append(value.n)
            else:
                c.append(value)
        for x in a:
            for y in b:
                for z in c:
                    ctx.emit(key, (x, y, z.payload))


class StarJoin(Reducer):
    """``A`` joined with ``B`` and with ``C``: only ``A`` is required."""

    def reduce(self, key, values, ctx):
        a = []
        others = []
        for value in values:
            if value.schema.name != "A":
                others.append((value.n, value.payload))
            else:
                a.append(value.payload)
        for x in a:
            for n, payload in others:
                ctx.emit(x, (n, payload))


class OrOperandSemijoin(Reducer):
    """An ``or`` as a comparison operand: Python gives the operand, so
    ``(name or "")`` is the name and only ``A`` is required."""

    def reduce(self, key, values, ctx):
        a = []
        others = []
        for value in values:
            if (value.schema.name or "") == "A":
                a.append(value.n)
            else:
                others.append(value)
        for n in a:
            ctx.emit(key, n)


def _job(name, reducer, paths, mappers):
    tags = [f"t{i}" for i in range(len(paths))]
    return JobConf(
        name=name, mapper=ForwardMapper, reducer=reducer,
        inputs=[RecordFileInput(path, tag=tag)
                for path, tag in zip(paths, tags)],
        per_input_mappers=dict(zip(tags, mappers)), num_reducers=3,
    )


def _signature(result, allowed=()):
    """A job's outputs, counters and metrics, compared byte for byte."""
    metrics = {name: value for name, value
               in metrics_without_wall(result).items()
               if name not in allowed}
    return repr(result.outputs), repr(result.counters.to_dict()), metrics


def _cases(tmp_path, seed):
    """Seeded join jobs: ``(job, expected build input index)``."""
    rng = random.Random(seed)
    cases = []
    for key_type in (FieldType.STRING, FieldType.INT, FieldType.DOUBLE):
        a = _write(tmp_path / f"a-{key_type.name}.rf", _schema("A", key_type),
                   _rows(rng, key_type, rng.randrange(20, 40)))
        b = _write(tmp_path / f"b-{key_type.name}.rf", _schema("B", key_type),
                   _rows(rng, key_type, rng.randrange(150, 250)))
        floor = rng.randrange(3, 8)
        cases.append((_job(f"pair-{key_type.name}", PairJoin, [b, a],
                           [ForwardMapper, FloorMapper(floor)]), 1))
    # 1 == 1.0 == True and 0 == 0.0 == -0.0 == False across three inputs
    a = _write(tmp_path / "a-int.rf", _schema("A", FieldType.INT),
               _rows(rng, FieldType.INT, 60, keys=[0, 1, 2, 3]))
    b = _write(tmp_path / "b-double.rf", _schema("B", FieldType.DOUBLE),
               _rows(rng, FieldType.DOUBLE, 12,
                     keys=[0.0, -0.0, 1.0, 2.5, float("nan")]))
    c = _write(tmp_path / "c-bool.rf", _schema("C", FieldType.BOOL),
               _rows(rng, FieldType.BOOL, 90))
    cases.append((_job("triple-mixed", TripleJoin, [a, b, c],
                       [FloorMapper(2), ForwardMapper, ForwardMapper]), 1))
    # only A is required: groups 2 and 3 join A with C alone
    c = _write(tmp_path / "c-int.rf", _schema("C", FieldType.INT),
               _rows(rng, FieldType.INT, 30, keys=[2, 3, 5]))
    cases.append((_job("star-mixed", StarJoin, [c, a, b],
                       [ForwardMapper, FloorMapper(4), ForwardMapper]), 1))
    # the only required input is the larger one: a proof that takes
    # ``or`` for a bool would require both and build on the smaller
    small = _write(tmp_path / "b-small.rf", _schema("B", FieldType.STRING),
                   _rows(rng, FieldType.STRING, 15))
    large = _write(tmp_path / "a-large.rf", _schema("A", FieldType.STRING),
                   _rows(rng, FieldType.STRING, 60, keys=KEYS[
                       FieldType.STRING] + ["x", "y"]))
    cases.append((_job("or-operand", OrOperandSemijoin, [small, large],
                       [ForwardMapper, FloorMapper(3)]), 1))
    # an empty build side: every probe pair goes
    empty = _write(tmp_path / "a-empty.rf", _schema("A", FieldType.STRING), [])
    probe = _write(tmp_path / "b-probe.rf", _schema("B", FieldType.STRING),
                   _rows(rng, FieldType.STRING, 80))
    cases.append((_job("empty-build", PairJoin, [probe, empty],
                       [ForwardMapper, FloorMapper()]), 1))
    # a build side holding every probe key: nothing goes
    full = _write(tmp_path / "a-full.rf", _schema("A", FieldType.DOUBLE),
                  [(k, 5, f"f{i}") for i, k in
                   enumerate(KEYS[FieldType.DOUBLE])])
    probe = _write(tmp_path / "b-all.rf", _schema("B", FieldType.DOUBLE),
                   _rows(rng, FieldType.DOUBLE, 120))
    cases.append((_job("full-build", PairJoin, [probe, full],
                       [ForwardMapper, FloorMapper()]), 1))
    return cases


def _stripped(descriptor, conf):
    """``conf`` as ``descriptor`` runs it, without the semijoin."""
    return dataclasses.replace(descriptor, semijoin=None).apply(conf)


@pytest.mark.parametrize("seed", [7, 2011])
def test_semijoin_equals_the_plain_join(tmp_path, seed):
    system = Manimal(str(tmp_path / "catalog"))
    dropped = 0
    for conf, build in _cases(tmp_path, seed):
        outcome = system.submit(conf)
        semijoin = outcome.descriptor.semijoin
        assert semijoin is not None, outcome.descriptor.semijoin_decline
        assert semijoin.build == build, conf.name
        plain = run_job(_stripped(outcome.descriptor, conf))
        assert plain.metrics.shuffle_records_skipped == 0
        assert _signature(outcome.result, SEMIJOIN_METRICS) == \
            _signature(plain, SEMIJOIN_METRICS), conf.name
        result = outcome.result.metrics
        assert result.shuffle_records_skipped == \
            plain.metrics.shuffle_records - result.shuffle_records
        assert result.map_output_records == plain.metrics.map_output_records
        dropped += result.shuffle_records_skipped
        if conf.name == "empty-build":
            assert outcome.result.outputs == []
            assert result.shuffle_records == 0
        if conf.name == "full-build":
            assert result.shuffle_records_skipped == 0
        # the record path drops the same pairs the batch path does
        applied = outcome.descriptor.apply(conf)
        applied.batch_specs.clear()
        record = run_job(applied)
        assert record.metrics.batch_map_tasks == 0
        assert _signature(record, {"batch_map_tasks"}) == \
            _signature(outcome.result, {"batch_map_tasks"}), conf.name
    assert dropped > 0


def test_in_process_pooled_and_forked_runs_are_byte_identical(tmp_path):
    engine = ExecutionEngine()
    try:
        system = Manimal(str(tmp_path / "catalog"), engine=engine)
        for conf, _build in _cases(tmp_path, 99):
            descriptor = system.plan(conf)
            signatures = [_signature(LocalJobRunner().run(
                descriptor.apply(conf)))]
            runner = ParallelJobRunner(num_workers=2, engine=engine)
            before = engine.pool.stats()
            signatures.append(_signature(runner.run(descriptor.apply(conf))))
            forked = descriptor.apply(conf)
            # a local lambda cannot pickle: the job state takes the
            # forked path
            forked.params = {"unpicklable": lambda: None}
            signatures.append(_signature(runner.run(forked)))
            after = engine.pool.stats()
            assert after["jobs_pooled"] == before["jobs_pooled"] + 1
            assert after["jobs_forked"] == before["jobs_forked"] + 1
            assert signatures[1] == signatures[0], conf.name
            assert signatures[2] == signatures[0], conf.name
    finally:
        engine.shutdown()


def test_the_build_side_is_an_input_the_key_pass_reads(tmp_path):
    """A smaller user-written row-major input is not the build side: the
    key pass could not read it, so the explain would name a filter that
    never runs."""
    rng = random.Random(5)
    a = _write(tmp_path / "a.rf", _schema("A", FieldType.INT),
               _rows(rng, FieldType.INT, 20))
    b = _write(tmp_path / "b.rf", _schema("B", FieldType.INT),
               _rows(rng, FieldType.INT, 40))
    c = _write(tmp_path / "c.rf", _schema("C", FieldType.INT),
               _rows(rng, FieldType.INT, 90))
    conf = JobConf(
        name="projected-a", mapper=ForwardMapper, reducer=TripleJoin,
        inputs=[ProjectedFileInput(a, tag="t0"), RecordFileInput(b, tag="t1"),
                RecordFileInput(c, tag="t2")],
        per_input_mappers={"t0": FloorMapper(2), "t1": ForwardMapper,
                           "t2": ForwardMapper}, num_reducers=3)
    outcome = Manimal(str(tmp_path / "catalog")).submit(conf)
    assert outcome.descriptor.semijoin.build == 1
    assert "semijoin: keys of input[1] 't1' filter input[0] 't0', " \
        "input[2] 't2'" in explain_job(conf)
    plain = run_job(_stripped(outcome.descriptor, conf))
    assert outcome.result.metrics.shuffle_records_skipped > 0
    assert _signature(outcome.result, SEMIJOIN_METRICS) == \
        _signature(plain, SEMIJOIN_METRICS)
    # the row-major input alone required: nothing the key pass reads
    star = dataclasses.replace(conf, name="projected-star", reducer=StarJoin)
    outcome = Manimal(str(tmp_path / "catalog")).submit(star)
    assert outcome.descriptor.semijoin is None
    assert outcome.descriptor.semijoin_decline == \
        "no required input is a block scan the key pass reads"


def test_a_declined_key_pass_runs_the_plain_join(tmp_path, monkeypatch):
    """When the key pass cannot serve the build side, the job runs with
    its Appendix E filter alone: the plain join's bytes and metrics."""
    import repro.batch.executor as executor

    system = Manimal(str(tmp_path / "catalog"))
    conf, _build = _cases(tmp_path, 3)[0]
    descriptor = system.plan(conf)
    assert descriptor.semijoin is not None
    plain = run_job(_stripped(descriptor, conf))
    monkeypatch.setattr(executor, "scan_keys", lambda spec, splits: None)
    result = run_job(descriptor.apply(conf))
    assert result.metrics.shuffle_records_skipped == 0
    assert _signature(result) == _signature(plain)


def test_the_key_set_is_the_shuffles_group_equality():
    key_set = KeySet(frozenset({(1, 1), (1, float("inf"), 1), (2, "a"),
                                (1, 0.0)}))
    keys = [1, 1.0, True, float("nan"), -0.0, 0, False, "a", "b", 2, b"a"]
    assert key_set.mask(keys) == [True, True, True, True, True, True, True,
                                  True, False, False, False]
    # a key the shuffle cannot sort keeps every pair: the shuffle raises
    assert key_set.mask([1, {}]) is None


# -- what is proved, and what is declined ----------------------------------------


def _verdict(reducer, tmp_path, combiner=None):
    """The analyzer's semijoin verdict for a B3-shaped job."""
    from repro.workloads.pavlo import benchmark3 as b3

    rankings = str(tmp_path / "rankings.rf")
    uservisits = str(tmp_path / "uservisits.rf")
    if not os.path.exists(rankings):
        b3.generate_inputs(rankings, uservisits, 40, 200, n_urls=30)
    conf = b3.make_join_job(rankings, uservisits,
                            *b3.date_window_for_selectivity(0.1))
    conf.reducer = reducer
    conf.combiner = combiner
    analysis = ManimalAnalyzer().analyze_job(conf)
    return analysis.required_inputs or analysis.required_decline


class LeftOuterJoin(Reducer):
    def reduce(self, key, values, ctx):
        ranks = []
        visits = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
            else:
                visits.append((record.sourceIP, record.adRevenue))
        for rank in ranks:
            if not visits:
                ctx.emit(key, (rank, None))
            for source_ip, revenue in visits:
                ctx.emit(source_ip, (rank, revenue))


class CleanupEmitJoin(Reducer):
    def reduce(self, key, values, ctx):
        ranks = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
        for rank in ranks:
            ctx.emit(key, rank)

    def cleanup(self, ctx):
        ctx.emit("done", 1)


class CountingJoin(Reducer):
    def reduce(self, key, values, ctx):
        ctx.increment("user", "groups")
        ranks = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
        for rank in ranks:
            ctx.emit(key, rank)


class SelfStoringJoin(Reducer):
    def reduce(self, key, values, ctx):
        self.last = key
        ranks = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
        for rank in ranks:
            ctx.emit(key, rank)


class SizingJoin(Reducer):
    def reduce(self, key, values, ctx):
        ranks = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
        for rank in ranks:
            ctx.emit(key, (rank, len(values)))


class FieldTestJoin(Reducer):
    def reduce(self, key, values, ctx):
        ranks = []
        visits = []
        for record in values:
            if record.pageRank > 0:
                ranks.append(record.pageRank)
            else:
                visits.append(record.adRevenue)
        for rank in ranks:
            for revenue in visits:
                ctx.emit(key, (rank, revenue))


class MissingFieldJoin(Reducer):
    def reduce(self, key, values, ctx):
        ranks = []
        visits = []
        for record in values:
            if record.schema.name != "UserVisits":
                ranks.append(record.pageRank)
            else:
                visits.append((record.sourceIP, record.pageRank))
        for rank in ranks:
            for source_ip, other in visits:
                ctx.emit(source_ip, (rank, other))


REFUSALS = {
    "left-outer-join": (LeftOuterJoin, "collected list 'visits' is read "
                                       "outside a loop over it"),
    "cleanup-emit": (CleanupEmitJoin, "reducer emits from cleanup(); group "
                                      "output is not per-key decidable"),
    "counter": (CountingJoin, "reduce() uses counters (ctx.increment)"),
    "self-store": (SelfStoringJoin, "reduce() stores to self.last"),
    "len-values": (SizingJoin, "reduce() uses its values other than by one "
                               "loop over them"),
    "field-test": (FieldTestJoin, "a values-loop test reads more than the "
                                  "value's schema name"),
    "missing-field": (MissingFieldJoin, "input[1] 'uservisits' appends field "
                                        "'pageRank', which its UserVisits "
                                        "values lack"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_corpus(tmp_path, name):
    reducer, reason = REFUSALS[name]
    assert _verdict(reducer, tmp_path) == reason


def test_a_combiner_withdraws_the_proof(tmp_path):
    from repro.workloads.pavlo.benchmark3 import JoinReducer

    assert _verdict(JoinReducer, tmp_path, combiner=JoinReducer) == \
        "a combiner runs before the shuffle"


def test_both_b3s_are_admitted(tmp_path):
    from benchmarks.suite.programs import JoinReducer as SuiteJoin
    from repro.workloads.pavlo.benchmark3 import JoinReducer

    assert _verdict(JoinReducer, tmp_path) == (0, 1)
    assert _verdict(SuiteJoin, tmp_path) == (0, 1)


def test_explain_names_the_build_side_and_the_implied_residual(tmp_path):
    from repro.workloads.pavlo import benchmark3 as b3

    rankings = str(tmp_path / "rankings.rf")
    uservisits = str(tmp_path / "uservisits.rf")
    b3.generate_inputs(rankings, uservisits, 200, 2000, n_urls=100)
    conf = b3.make_join_job(rankings, uservisits,
                            *b3.date_window_for_selectivity(0.02))
    catalog = str(tmp_path / "catalog")
    Manimal(catalog).build_indexes(conf)
    text = explain_job(conf, catalog_dir=catalog)
    assert ("  semijoin: keys of input[1] 'uservisits' filter input[0] "
            "'rankings'") in text
    assert "; residual implied)" in text
