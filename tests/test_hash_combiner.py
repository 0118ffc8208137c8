"""The hash-grouped described combiner against the sorted one.

A described combiner (``JobConf.combiner_fold``) of a reducing job on
the default partitioner groups a map task's key column by hash when the
column is of one raw-ordered type (``str``, ``int`` or ``bytes``): its
groups come out in first-occurrence order, and a column in which no key
repeats passes through untouched.  The reduce's stable sort and the
pool's sorted runs make that order invisible.

The seeded differential below runs each case on the default
partitioner and on a user partitioner that routes exactly as the
default does (and so keeps the sorted combine), on the sequential runner
and on the worker pool, with a reducer that emits every combined value
it gets: output pickle bytes, counters and every integer ``JobMetrics``
field, or the exception's type and message, must be the same.  Cases:
distinct keys, repeated keys (str, int, bytes), int, float (with
``-0.0`` and NaN) and bool values under ``sum``, ``min`` and ``max``,
values ``sum`` cannot add; and the jobs that must keep the
sorted combine -- mixed key types, a user partitioner, a map-only job.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.engine import ExecutionEngine
from repro.mapreduce import (
    IdentityMapper,
    InMemoryInput,
    JobConf,
    LocalJobRunner,
    ParallelJobRunner,
    Partitioner,
    Reducer,
    runtime,
)
from repro.mapreduce.keyspace import stable_hash
from tests.conftest import metrics_without_wall

NAN = float("nan")


class SumValues(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class MinValues(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, min(values))


class MaxValues(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


FOLDS = {"sum": (SumValues, sum), "min": (MinValues, min),
         "max": (MaxValues, max)}


class Reveals(Reducer):
    """Emits every combined value it receives, types and order shown."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, tuple(values))


class DefaultTwin(Partitioner):
    """Routes as the default partitioner does; being a user partitioner,
    it keeps the sorted combine."""

    def partition(self, key, num_partitions):
        return stable_hash(key) % num_partitions


#: key shape -> (rng, n) -> keys
KEY_SHAPES = {
    "distinct-str": lambda rng, n: [f"k{i}" for i in rng.sample(range(n), n)],
    "repeated-str": lambda rng, n: [f"k{rng.randrange(n // 4)}"
                                    for _ in range(n)],
    "repeated-int": lambda rng, n: [rng.randrange(-70, 70) * 1000
                                    for _ in range(n)],
    "repeated-bytes": lambda rng, n: [bytes((rng.randrange(9),))
                                      for _ in range(n)],
    "distinct-int": lambda rng, n: rng.sample(range(-10**6, 10**6), n),
    # 1, 1.0 and True are one group: not one raw-ordered type
    "mixed-types": lambda rng, n: [rng.choice([1, 1.0, True, 2, "2", b"2"])
                                   for _ in range(n)],
}

#: value kind -> rng -> one value
VALUE_KINDS = {
    "int": lambda rng: rng.randrange(-50, 50),
    "float": lambda rng: rng.choice([-0.0, 0.0, NAN, 0.5, -2.25,
                                     rng.uniform(-9, 9)]),
    "bool": lambda rng: rng.random() < 0.5,
    "int-and-bool": lambda rng: rng.choice([True, False, 3, -1]),
    "str": lambda rng: rng.choice(["a", "b"]),
}

#: (keys, the hash path serves it on the default partitioner)
HASHED = {"distinct-str": True, "repeated-str": True, "repeated-int": True,
          "repeated-bytes": True, "distinct-int": True, "mixed-types": False}


def _pairs(keys, values, seed):
    rng = random.Random(f"{keys}/{values}/{seed}")
    column = KEY_SHAPES[keys](rng, 90)
    return [(key, VALUE_KINDS[values](rng)) for key in column]


def _confs(op, pairs, map_only=False):
    combiner, fold = FOLDS[op]
    hashed = JobConf(name="combined", mapper=IdentityMapper,
                     reducer=None if map_only else Reveals, combiner=combiner,
                     num_reducers=3, inputs=[InMemoryInput(pairs)])
    hashed = replace(hashed, combiner_fold=fold)
    return hashed, replace(hashed, partitioner=DefaultTwin())


def _outcome(run, spill_bytes=False):
    try:
        result = run()
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    metrics = result.metrics.to_dict() if spill_bytes \
        else metrics_without_wall(result)
    return ("ok", pickle.dumps(result.outputs), result.counters.to_dict(),
            {name: value for name, value in metrics.items()
             if isinstance(value, int)})


@pytest.fixture
def grouped_calls(monkeypatch):
    """How many map tasks the hash path combined."""
    calls = []
    combine = runtime._combine_grouped

    def spy(*args):
        calls.append(args[0].name)
        return combine(*args)

    monkeypatch.setattr(runtime, "_combine_grouped", spy)
    return calls


@pytest.mark.parametrize("op", sorted(FOLDS))
@pytest.mark.parametrize("values", sorted(VALUE_KINDS))
def test_sequential_runner(values, op, grouped_calls):
    runner = LocalJobRunner(splits_per_input=4)
    for keys in KEY_SHAPES:
        for seed in range(2):
            hashed, sorted_ = _confs(op, _pairs(keys, values, seed))
            expected = _outcome(lambda: runner.run(sorted_))
            assert not grouped_calls, keys
            assert _outcome(lambda: runner.run(hashed)) == expected, \
                (keys, seed)
            assert bool(grouped_calls) == HASHED[keys], keys
            grouped_calls.clear()
            if values == "str" and op == "sum":
                assert expected[0] == "raised"


def test_a_map_only_job_keeps_the_sorted_combine(grouped_calls):
    # its output is its shuffle order, so the combine's order would show
    hashed, sorted_ = _confs("max", _pairs("repeated-str", "int", 0),
                             map_only=True)
    runner = LocalJobRunner(splits_per_input=3)
    assert _outcome(lambda: runner.run(hashed)) == \
        _outcome(lambda: runner.run(sorted_))
    assert grouped_calls == []


def test_distinct_keys_pass_through_untouched(grouped_calls):
    # no key repeats, so the task's columns are not reordered: the
    # partitions hold the pairs in emit order
    pairs = _pairs("distinct-str", "int", 0)
    hashed, _sorted = _confs("sum", pairs)
    out = runtime.execute_map_task(hashed, None,
                                   hashed.inputs[0].splits(1)[0])
    assert grouped_calls == ["combined"]
    routed = [pair for part in out.partitions for pair in part]
    assert sorted(routed, key=pairs.index) == pairs
    for part in out.partitions:
        assert part == [pair for pair in pairs if pair in part]


#: cases that complete, for the pool
POOL_CASES = [("distinct-str", "int"), ("repeated-str", "int"),
              ("repeated-int", "float"), ("repeated-bytes", "bool"),
              ("mixed-types", "int-and-bool")]


def test_worker_pool_is_byte_identical():
    engine = ExecutionEngine(max_workers=2, reap_scratch=False)
    try:
        runner = ParallelJobRunner(2, splits_per_input=4, engine=engine)
        for keys, values in POOL_CASES:
            for op in FOLDS:
                hashed, sorted_ = _confs(op, _pairs(keys, values, 0))
                expected = _outcome(lambda: runner.run(sorted_), True)
                assert expected[0] == "ok"
                assert _outcome(lambda: runner.run(hashed), True) == \
                    expected, (keys, values, op)
                sequential = _outcome(lambda: LocalJobRunner(
                    splits_per_input=4).run(hashed))
                assert sequential[1] == expected[1]
        assert engine.pool.stats()["jobs_pooled"] > 0
    finally:
        engine.shutdown()
