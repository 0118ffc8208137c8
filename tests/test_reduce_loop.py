"""The one reduce loop against the ``groupby`` loop it replaced.

A reduce partition and a combiner are grouped a column at a time: the
partition is stable-sorted as one index permutation (on the raw keys when
they are all ``str``, all ``int`` or all ``bytes``, on their sort keys
otherwise), the group boundaries are found once over the sorted column,
and a spilled, merged stream is grouped the same way a
``SPILL_CHUNK_PAIRS`` chunk at a time.  :func:`reference_reduce` and
:func:`reference_combine` below are the earlier spelling -- decorate
with ``sort_keys``, stable-sort on the decoration, ``itertools.groupby``
-- kept here as the oracle.

Seeded key columns (one-type, numerically mixed, NaN, signed zeros,
``None``, subclasses, ``bytearray``, tuples, records of two schemas;
empty, singleton, all-singleton and one-giant-group partitions) run
through reducers that emit, yield, do both, mutate their values list,
raise on one group and emit from ``setup`` / ``cleanup``.  Every path
-- the in-memory partition, the chunked decorated stream at several
chunk sizes, a presorted plain stream, the combiner -- must give the
oracle's output pickle bytes, counters and integer ``JobMetrics``, or
raise its exception type and message.
"""

import pickle
import random
from itertools import groupby
from operator import itemgetter

import pytest

from repro.engine import ExecutionEngine
from repro.exceptions import JobExecutionError
from repro.mapreduce import (
    IdentityMapper,
    InMemoryInput,
    JobConf,
    LocalJobRunner,
    Mapper,
    ParallelJobRunner,
    Reducer,
    shuffle,
)
from repro.mapreduce.api import Context
from repro.mapreduce.counters import Counters
from repro.mapreduce.keyspace import pair_sizes, sort_keys
from repro.mapreduce.runtime import (
    ReduceTaskResult,
    _collect_yielded,
    _run_combiner,
    execute_reduce_partition,
)
from repro.storage.serialization import Field, FieldType, Schema
from tests.conftest import metrics_without_wall

_SKEY = itemgetter(0)


def _decorated(pairs):
    """The oracle's stream: ``(sort_key, key, value)`` rows, stable-sorted
    on the decoration."""
    keys = [key for key, _value in pairs]
    rows = list(zip(sort_keys(keys), keys, [value for _k, value in pairs]))
    rows.sort(key=_SKEY)
    return rows


def _groupby_loop(rows, reduce_fn, ctx, where, metrics=None):
    for _skey, group in groupby(rows, key=_SKEY):
        rows_ = list(group)
        if metrics is not None:
            metrics.reduce_groups += 1
            metrics.reduce_input_records += len(rows_)
        result = reduce_fn(rows_[0][1], [row[2] for row in rows_], ctx)
        if result is not None:
            _collect_yielded(ctx, result, where)


def reference_reduce(conf, pairs):
    """The earlier ``execute_reduce_partition`` for a reducing job."""
    out = ReduceTaskResult(outputs=[])
    reducer = conf.make_reducer()
    ctx = Context()
    rows = _decorated(pairs)
    try:
        reducer.setup(ctx)
        _groupby_loop(rows, reducer.reduce, ctx, "reduce()", out.metrics)
        reducer.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"reduce task failed in job {conf.name!r}: {exc}"
        ) from exc
    out.counters.merge(ctx.counters)
    out.outputs = ctx.emitted
    out.metrics.reduce_output_records += len(ctx.emitted)
    out.metrics.reduce_output_bytes += sum(pair_sizes(
        [k for k, _v in ctx.emitted], [v for _k, v in ctx.emitted]))
    return out


def reference_combine(conf, keys, values, counters):
    """The earlier ``_run_combiner``."""
    combiner = conf.make_combiner()
    ctx = Context()
    rows = _decorated(list(zip(keys, values)))
    try:
        combiner.setup(ctx)
        _groupby_loop(rows, combiner.reduce, ctx, "combine()")
        combiner.cleanup(ctx)
    except Exception as exc:
        raise JobExecutionError(
            f"combiner failed in job {conf.name!r}: {exc}"
        ) from exc
    counters.merge(ctx.counters)
    return ctx.emitted


# -- key columns ---------------------------------------------------------------


class Tag(str):
    """A ``str`` subclass: not raw-ordered, sorted by its sort keys."""


SCHEMA_A = Schema("A", [Field("x", FieldType.INT), Field("s", FieldType.STRING)])
SCHEMA_B = Schema("B", [Field("x", FieldType.INT), Field("s", FieldType.STRING)])

NAN = float("nan")


def _records(rng):
    schema = rng.choice([SCHEMA_A, SCHEMA_B])
    return schema.make(rng.randrange(3), rng.choice(["p", "q"]))


#: key kind -> (rng -> one key from a small pool, so groups form)
KEY_KINDS = {
    "str": lambda rng: rng.choice(["", "a", "b", "ab", "é", "zz", "a\x00"]),
    "int": lambda rng: rng.choice([0, 1, -1, 7, 63, 64, -65, 1 << 40]),
    "int-past-int64": lambda rng: rng.choice(
        [1 << 63, -(1 << 63) - 1, 1 << 90, -(1 << 90), 5]),
    "bytes": lambda rng: rng.choice([b"", b"a", b"b", b"\xff", b"ab"]),
    "one-onefloat-true": lambda rng: rng.choice(
        [1, 1.0, True, 2, 2.0, 0, 0.0, False]),
    "bool": lambda rng: rng.choice([True, False]),
    "nan": lambda rng: rng.choice(
        [NAN, float("nan"), 1.5, float("inf"), float("-inf"), 1]),
    "signed-zero": lambda rng: rng.choice([0.0, -0.0, 0, False, 3.25]),
    "none": lambda rng: rng.choice([None, None, 1, "a"]),
    "str-subclass": lambda rng: rng.choice(["a", Tag("a"), "b", Tag("c")]),
    "bytes-bytearray": lambda rng: rng.choice(
        [b"a", bytearray(b"a"), b"b", bytearray(b"c")]),
    "tuple": lambda rng: rng.choice(
        [(1, "a"), (1, "b"), (1.0, "a"), (2,), ((1, 2), "x"), (NAN, "n")]),
    "record": _records,
    "str-int-bytes": lambda rng: rng.choice(["a", 1, b"a", "b", 2, b""]),
    "mixed": lambda rng: rng.choice([None, 3, "3", b"3", 2.5, (3,), True]),
}

#: group shape -> number of pairs drawn for a seed
SIZES = {"empty": 0, "singleton": 1, "small": 9, "large": 400}


def _pairs(kind, size, seed):
    rng = random.Random(f"{kind}/{size}/{seed}")
    draw = KEY_KINDS[kind]
    return [(draw(rng), rng.randrange(100)) for _ in range(SIZES[size])]


def _all_singleton(seed):
    rng = random.Random(seed)
    keys = {rng.randrange(-(1 << 70), 1 << 70) for _ in range(300)}
    return [(key, i) for i, key in enumerate(sorted(keys, key=str))]


def _one_giant(seed):
    return [("only", i) for i in range(1000 + seed)]


# -- reducers ------------------------------------------------------------------


class Emits(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, (len(values), values[0], values[-1]))
        ctx.increment("test", "groups")


class EmitsReprs(Reducer):
    """Sizable output for any key, ints past 64 bits included."""

    def reduce(self, key, values, ctx):
        ctx.emit(repr(key), repr(values))


class Yields(Reducer):
    def reduce(self, key, values, ctx):
        return [(key, sum(values)), (len(values), key)]


class EmitsAndYields(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, "first")
        yield key, list(values)


class Mutates(Reducer):
    def reduce(self, key, values, ctx):
        values.append(-1)
        values.reverse()
        ctx.emit(key, values)
        values.clear()


class RaisesOnGroupThree(Reducer):
    def setup(self, ctx):
        self.seen = 0

    def reduce(self, key, values, ctx):
        self.seen += 1
        if self.seen == 3:
            raise ValueError(f"group {self.seen} of {key!r}")
        ctx.emit(key, len(values))


class SetupCleanup(Reducer):
    def setup(self, ctx):
        ctx.emit("setup", 0)

    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))

    def cleanup(self, ctx):
        ctx.emit("cleanup", ctx.counters.to_dict())
        ctx.increment("test", "cleanups")


REDUCERS = [Emits, EmitsReprs, Yields, EmitsAndYields, Mutates, RaisesOnGroupThree,
            SetupCleanup]


def _conf(reducer):
    return JobConf(name="loop", mapper=IdentityMapper, reducer=reducer,
                   combiner=reducer, inputs=[InMemoryInput([(0, 0)])])


def _outcome(run):
    """What a run left: its bytes, counters and integer metrics -- or the
    exception, by type and message (its own and its cause's)."""
    try:
        result = run()
    except Exception as exc:
        cause = exc.__cause__
        return ("raised", type(exc), str(exc), type(cause), str(cause))
    if isinstance(result, ReduceTaskResult):
        metrics = {name: value for name, value
                   in result.metrics.to_dict().items()
                   if isinstance(value, int)}
        return ("ok", pickle.dumps(result.outputs),
                result.counters.to_dict(), metrics)
    return ("ok", pickle.dumps(result))


def _kind_cases(kind):
    """Every seeded partition of one key kind, by name."""
    if kind == "all-singleton":
        return {kind: _all_singleton(0)}
    if kind == "one-giant":
        return {kind: _one_giant(0)}
    return {f"{kind}-{size}-{seed}": _pairs(kind, size, seed)
            for size in SIZES
            for seed in range(3 if size == "large" else 1)}


KINDS = [*KEY_KINDS, "all-singleton", "one-giant"]
CASES = {name: pairs for kind in KINDS
         for name, pairs in _kind_cases(kind).items()}


def _each_run(kind):
    """(label, conf, pairs, oracle outcome) for every partition of
    ``kind`` under every reducer."""
    for name, pairs in _kind_cases(kind).items():
        for reducer in REDUCERS:
            conf = _conf(reducer)
            expected = _outcome(lambda: reference_reduce(conf, list(pairs)))
            yield f"{name} / {reducer.__name__}", conf, pairs, expected


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstTheGroupbyLoop:
    def test_in_memory_partition(self, kind):
        for label, conf, pairs, expected in _each_run(kind):
            assert _outcome(lambda: execute_reduce_partition(
                conf, list(pairs))) == expected, label

    def test_combiner(self, kind):
        for label, conf, pairs, _expected in _each_run(kind):
            keys = [key for key, _v in pairs]
            values = [value for _k, value in pairs]

            def run(combine):
                counters = Counters()
                emitted = combine(conf, list(keys), list(values), counters)
                return emitted, counters.to_dict()

            def combined(*args):
                return _run_combiner(*args)[0]  # the pairs, not `passed`

            assert _outcome(lambda: run(combined)) == \
                _outcome(lambda: run(reference_combine)), label

    def test_chunked_decorated_stream(self, kind, monkeypatch):
        """The pool's merged stream, grouped a chunk at a time: groups
        that straddle chunks reduce exactly as the whole partition does
        (and so does a presorted plain stream)."""
        for chunk in (1, 2, 3, 64):
            monkeypatch.setattr(shuffle, "SPILL_CHUNK_PAIRS", chunk)
            for label, conf, pairs, expected in _each_run(kind):
                rows = _decorated(pairs)
                assert _outcome(lambda: execute_reduce_partition(
                    conf, iter(rows), presorted=True, decorated=True)) \
                    == expected, (chunk, label)
                plain = [(key, value) for _skey, key, value in rows]
                assert _outcome(lambda: execute_reduce_partition(
                    conf, plain, presorted=True)) == expected, (chunk, label)


def test_unshuffleable_keys_fail_alike():
    conf = _conf(Emits)
    pairs = [("a", 1), ([1], 2), ("b", 3)]
    expected = _outcome(lambda: reference_reduce(conf, pairs))
    assert expected[0] == "raised"
    assert _outcome(lambda: execute_reduce_partition(conf, pairs)) == expected


def test_group_keys_are_the_first_key_in_emit_order():
    # 1, 1.0 and True are one group; the group's key is whichever came
    # first, and its values keep emit order
    seen = []

    class Spy(Reducer):
        def reduce(self, key, values, ctx):
            seen.append((key, type(key), values))

    pairs = [(1.0, "a"), (2, "b"), (True, "c"), (1, "d"), (2.0, "e")]
    execute_reduce_partition(_conf(Spy), pairs)
    assert seen == [(1.0, float, ["a", "c", "d"]), (2, int, ["b", "e"])]


# -- the spill path ------------------------------------------------------------


class KeyOfValue(Mapper):
    """Emits the input value as the key: the key column is the case's."""

    def map(self, key, value, ctx):
        ctx.emit(value, key)


def _integer_metrics(result):
    return {name: value for name, value
            in metrics_without_wall(result).items()
            if isinstance(value, int)}


@pytest.mark.parametrize("case", ["str-large-0", "int-large-1",
                                  "bytes-large-2", "nan-large-0",
                                  "record-large-1", "one-giant"])
def test_pool_reduce_is_pickle_identical_across_chunk_sizes(case,
                                                           monkeypatch):
    """Sequential against ``ParallelJobRunner(2)``: the pool's runs are
    merged and grouped a chunk at a time, so with one- and three-pair
    chunks nearly every group straddles a chunk boundary."""
    pairs = [(i, key) for i, (key, _value) in enumerate(CASES[case])]
    conf = JobConf(name="spill-loop", mapper=KeyOfValue, reducer=Emits,
                   inputs=[InMemoryInput(pairs)], num_reducers=2)
    seq = LocalJobRunner().run(conf)
    spilled = {}
    for chunk in (1, 3, shuffle.SPILL_CHUNK_PAIRS):
        monkeypatch.setattr(shuffle, "SPILL_CHUNK_PAIRS", chunk)
        # a fresh engine forks its workers after the patch
        engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        try:
            par = ParallelJobRunner(2, engine=engine).run(conf)
            assert engine.pool.stats()["jobs_pooled"] == 1
        finally:
            engine.shutdown()
        # pair by pair: objects that cross a process boundary (a
        # record's schema) are shared within one run file, not across
        assert list(map(pickle.dumps, par.outputs)) == \
            list(map(pickle.dumps, seq.outputs))
        assert par.counters.to_dict() == seq.counters.to_dict()
        assert _integer_metrics(par) == _integer_metrics(seq)
        spilled[chunk] = par.metrics.shuffle_bytes_spilled
    # the workers wrote (and so merged) the patched frame size
    assert spilled[1] > spilled[3] > spilled[shuffle.SPILL_CHUNK_PAIRS] > 0


@pytest.mark.parametrize("case", sorted(
    name for name in CASES if name.endswith("-large-0")))
def test_run_files_keep_the_decoration_order(case, tmp_path):
    """A run sorted on its raw keys (one-type str / int / bytes) or on
    its decorations writes the bytes of a stable sort on the
    decorations."""
    pairs = CASES[case]
    written = shuffle.write_run(
        str(tmp_path / "run"),
        shuffle.sort_decorated_run(shuffle.decorate_pairs(pairs)))
    oracle = shuffle.write_run(str(tmp_path / "oracle"), _decorated(pairs))
    with open(written, "rb") as f, open(oracle, "rb") as g:
        assert f.read() == g.read()
