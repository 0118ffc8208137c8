"""Described reducers: a fold a column at a time against ``reduce()`` calls.

:func:`~repro.core.analyzer.reduce_ext.describe_reducer` describes a
reducer whose whole ``reduce()`` is ``ctx.emit(key, F(values))`` for F
the builtin ``sum``, ``min`` or ``max``, and declines every other shape
with a reason.  The optimizer's plan attaches the builtin to the job
(``JobConf.reducer_fold`` / ``combiner_fold``), and the one reduce loop
then folds each group without calling the reducer.

The differential below runs seeded value columns -- small ints, ints
whose prefix sums pass 64 bits, ints past 64 bits (sized like any
int), bools (``sum([True])`` is ``1``), floats with ``-0.0`` and NaN,
strings (``sum`` raises) -- under keys that group ``1``, ``1.0`` and
``True`` together, in empty, singleton, all-singleton, mixed and giant
groups, with and without a combiner, described and opaque, on the
sequential runner: the output pickle bytes, counters and integer
``JobMetrics``, or the exception's type and message, must be the same.
The jobs that complete run on the worker pool too, with one- and
three-pair spill chunks (so groups straddle chunks), spill and merge
bytes included.
"""

import importlib.util
import pickle
import random
from dataclasses import replace

import pytest

from repro.core.analyzer.reduce_ext import FOLD_OPS, describe_reducer
from repro.core.manimal import Manimal
from repro.engine import ExecutionEngine
from repro.explain import explain_job
from repro.mapreduce import (
    IdentityMapper,
    InMemoryInput,
    JobConf,
    LocalJobRunner,
    ParallelJobRunner,
    RecordFileInput,
    Reducer,
    run_job,
    shuffle,
)
from repro.mapreduce.api import FunctionReducer, Mapper
from tests.conftest import metrics_without_wall, write_webpages

NAN = float("nan")


# -- reducers ------------------------------------------------------------------


class SumValues(Reducer):
    """A docstring does not count as a statement."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class MinValues(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, min(values))


class MaxValues(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


def summed(key, values, ctx):
    ctx.emit(key, sum(values))


class JoinLike(Reducer):
    def reduce(self, key, values, ctx):
        left, right = [], []
        for value in values:
            (left if value > 0 else right).append(value)
        for a in left:
            for b in right:
                ctx.emit(key, (a, b))


class Accumulates(Reducer):
    def reduce(self, key, values, ctx):
        total = 0
        for value in values:
            total += value
        ctx.emit(key, total)


class EmitsNoneKey(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(None, sum(values))


class WithSetup(Reducer):
    def setup(self, ctx):
        self.n = 0

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class WithCleanup(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))

    def cleanup(self, ctx):
        ctx.emit("done", 1)


class ReadsSelf(Reducer):
    bonus = 1

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values) + self.bonus)


class Counts(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, len(values))


class Returns(Reducer):
    def reduce(self, key, values, ctx):
        return [(key, sum(values))]


class NamesItFirst(Reducer):
    def reduce(self, key, values, ctx):
        total = sum(values)
        ctx.emit(key, total)


class EmitsTwice(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))
        ctx.emit(key, max(values))


class SumsFromStart(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values, 0))


class SumIsAParameter(Reducer):
    def reduce(self, sum, values, ctx):
        ctx.emit(sum, sum(values))


def _closure_over_sum():
    sum = len  # noqa: A001 -- the shadow under test

    def reduce(key, values, ctx):
        ctx.emit(key, sum(values))

    return reduce


def _replaced_on_instance():
    reducer = SumValues()
    reducer.reduce = lambda key, values, ctx: ctx.emit(key, 0)
    return reducer


SHADOWING_MODULE = '''
from repro.mapreduce import Reducer


def sum(values):
    return 0


class ShadowedSum(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))
'''


def _shadowed_by_a_global(tmp_path):
    path = tmp_path / "shadowing_module.py"
    path.write_text(SHADOWING_MODULE)
    spec = importlib.util.spec_from_file_location("shadowing_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ShadowedSum()


OPS_TEXT = "sum(values), min(values), max(values)"

VERDICTS = {
    "sum": (lambda _tmp: SumValues(), ("sum", None)),
    "min": (lambda _tmp: MinValues(), ("min", None)),
    "max": (lambda _tmp: MaxValues(), ("max", None)),
    "function": (lambda _tmp: FunctionReducer(summed), ("sum", None)),
    "join": (lambda _tmp: JoinLike(),
             (None, "reduce() emits inside a loop")),
    "accumulate-loop": (lambda _tmp: Accumulates(),
                        (None, "reduce() accumulates its values in a loop")),
    "emit-none": (lambda _tmp: EmitsNoneKey(),
                  (None, "reduce() emits the key None, not its group's")),
    "setup": (lambda _tmp: WithSetup(),
              (None, "reducer overrides setup()")),
    "cleanup": (lambda _tmp: WithCleanup(),
                (None, "reducer overrides cleanup()")),
    "self-state": (lambda _tmp: ReadsSelf(),
                   (None, "reduce() uses self.bonus")),
    "len": (lambda _tmp: Counts(),
            (None, f"reduce() emits len(values), not one of {OPS_TEXT}")),
    "start-value": (lambda _tmp: SumsFromStart(),
                    (None, "reduce() emits sum(values, 0), not one of "
                           + OPS_TEXT)),
    "returns": (lambda _tmp: Returns(), (None, "reducer never emits")),
    "local": (lambda _tmp: NamesItFirst(),
              (None, "reduce() does more than emit one pair")),
    "two-emits": (lambda _tmp: EmitsTwice(),
                  (None, "reduce() emits more than once")),
    "parameter": (lambda _tmp: SumIsAParameter(),
                  (None, "sum is a parameter of reduce(), not the builtin")),
    "closure": (lambda _tmp: FunctionReducer(_closure_over_sum()),
                (None, "sum is a closure variable, not the builtin")),
    "module-global": (_shadowed_by_a_global,
                      (None, "sum is rebound in shadowing_module, not the "
                             "builtin")),
    "instance-reduce": (lambda _tmp: _replaced_on_instance(),
                        (None, "reduce() is not a plain function")),
    "lambda": (lambda _tmp: FunctionReducer(
        lambda key, values, ctx: ctx.emit(key, sum(values))),
        (None, "reducer not analyzable: source is not a plain function "
               "definition")),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verdict(case, tmp_path):
    make, expected = VERDICTS[case]
    assert describe_reducer(make(tmp_path)) == expected


def test_fold_ops_come_from_the_aggregate_table():
    assert FOLD_OPS == ("sum", "min", "max")


# -- the differential ----------------------------------------------------------

#: value kind -> (rng -> one value)
VALUE_KINDS = {
    "int": lambda rng: rng.randrange(-50, 50),
    # a group's sum fits 64 bits, the chunk's prefix sums do not
    "long-prefix-past-2**64": lambda rng: rng.choice(
        [(1 << 59) + 3, 1 << 59, (1 << 58) + 1, 5]),
    # the shuffle sizes an int past 64 bits: both ways complete alike
    "long-past-2**64": lambda rng: rng.choice([1 << 64, -(1 << 70), 3]),
    "bool": lambda rng: rng.choice([True, False]),
    "double": lambda rng: rng.choice([0.0, -0.0, NAN, 1.5, -2.25, 1e300]),
    "int-and-bool": lambda rng: rng.choice([1, True, 2, False]),
    "str": lambda rng: rng.choice(["a", "b", ""]),
}

#: key column -> (rng, n) -> keys; ``1``, ``1.0`` and ``True`` group
KEY_SHAPES = {
    "empty": lambda rng, n: [],
    "singleton": lambda rng, n: ["only"],
    "all-singleton": lambda rng, n: [f"k{i}" for i in range(n)],
    "mixed": lambda rng, n: [f"k{rng.randrange(n // 3)}" for _ in range(n)],
    "one-onefloat-true": lambda rng, n: [
        rng.choice([1, 1.0, True, 2, 2.0, 0, False]) for _ in range(n)],
    "giant": lambda rng, n: ["g"] * n,
}

FOLDS = {"sum": (SumValues, sum), "min": (MinValues, min),
         "max": (MaxValues, max)}


def _pairs(values, keys, seed):
    rng = random.Random(f"{values}/{keys}/{seed}")
    column = KEY_SHAPES[keys](rng, 60)
    return [(key, VALUE_KINDS[values](rng)) for key in column]


def _confs(op, pairs, combine):
    reducer, fold = FOLDS[op]
    opaque = JobConf(name="folded", mapper=IdentityMapper, reducer=reducer,
                     combiner=reducer if combine else None, num_reducers=2,
                     inputs=[InMemoryInput(pairs)])
    described = replace(opaque, reducer_fold=fold,
                        combiner_fold=fold if combine else None)
    return opaque, described


def _outcome(run, spill_bytes=False):
    try:
        result = run()
    except Exception as exc:
        cause = exc.__cause__
        return ("raised", type(exc), str(exc), type(cause), str(cause))
    metrics = result.metrics.to_dict() if spill_bytes \
        else metrics_without_wall(result)
    metrics = {name: value for name, value in metrics.items()
               if isinstance(value, int)}
    return ("ok", list(map(pickle.dumps, result.outputs)),
            result.counters.to_dict(), metrics)


@pytest.mark.parametrize("combine", [False, True], ids=["reduce", "combine"])
@pytest.mark.parametrize("op", sorted(FOLDS))
@pytest.mark.parametrize("values", sorted(VALUE_KINDS))
def test_sequential_runner(values, op, combine):
    for keys in KEY_SHAPES:
        for seed in range(2):
            opaque, described = _confs(op, _pairs(values, keys, seed),
                                       combine)
            runner = LocalJobRunner(splits_per_input=3)
            expected = _outcome(lambda: runner.run(opaque))
            assert _outcome(lambda: runner.run(described)) == expected, \
                (keys, seed)
            if values == "str" and op == "sum" and keys != "empty":
                assert expected[0] == "raised"
            if values == "long-past-2**64":
                assert expected[0] == "ok", expected


#: (values, keys): the cases that run to completion -- a pool job that
#: fails reports whichever failing task its workers met first
POOL_CASES = [("int", "mixed"), ("long-prefix-past-2**64", "mixed"),
              ("long-prefix-past-2**64", "giant"), ("long-past-2**64", "mixed"),
              ("double", "one-onefloat-true"), ("bool", "all-singleton"),
              ("int-and-bool", "mixed")]


@pytest.mark.parametrize("chunk", [1, 3])
def test_worker_pool_across_spill_chunks(chunk, monkeypatch):
    """Groups held open across merged chunks fold as whole groups; the
    run files, and so the spill and merge bytes, are the opaque run's."""
    monkeypatch.setattr(shuffle, "SPILL_CHUNK_PAIRS", chunk)
    # a fresh engine forks its workers after the patch
    engine = ExecutionEngine(max_workers=2, reap_scratch=False)
    try:
        runner = ParallelJobRunner(2, engine=engine)
        for values, keys in POOL_CASES:
            for op in FOLDS:
                for combine in (False, True):
                    opaque, described = _confs(
                        op, _pairs(values, keys, 0), combine)
                    expected = _outcome(lambda: runner.run(opaque), True)
                    assert _outcome(lambda: runner.run(described), True) \
                        == expected, (values, keys, op, combine)
                    if expected[0] == "ok":
                        sequential = _outcome(
                            lambda: LocalJobRunner().run(described))
                        assert expected[1] == sequential[1]
        assert engine.pool.stats()["jobs_pooled"] > 0
    finally:
        engine.shutdown()


def test_a_group_emits_its_first_key_in_emit_order():
    pairs = [(1.0, 2), (2, 5), (True, 3), (1, 4), (2.0, 1)]
    for op in FOLDS:
        _opaque, described = _confs(op, pairs, combine=False)
        outputs = LocalJobRunner(splits_per_input=1).run(described).outputs
        assert [(key, type(key)) for key, _value in sorted(
            outputs, key=lambda pair: pair[1])] in (
            [(1.0, float), (2, int)], [(2, int), (1.0, float)])
        assert dict(outputs)[1.0] == FOLDS[op][1]([2, 3, 4])


# -- through the optimizer -----------------------------------------------------


class RankByUrl(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.url, value.rank)


@pytest.mark.parametrize("reducer,combiner,folds", [
    (SumValues, SumValues, (sum, sum)),
    (MaxValues, None, (max, None)),
    (Accumulates, MinValues, (None, min)),
    (EmitsNoneKey, None, (None, None)),
])
def test_the_plan_attaches_the_description(tmp_path, reducer, combiner,
                                           folds):
    path = write_webpages(tmp_path / "pages.rf", 400)
    conf = JobConf(name="described", mapper=RankByUrl, reducer=reducer,
                   combiner=combiner, inputs=[RecordFileInput(path)])
    system = Manimal(str(tmp_path / "catalog"))
    applied = system.plan(conf).apply(conf)
    assert (applied.reducer_fold, applied.combiner_fold) == folds
    outcome = system.submit(conf)
    baseline = run_job(conf)
    assert pickle.dumps(outcome.result.outputs) == \
        pickle.dumps(baseline.outputs)
    # the plan's read differs (batch path, projection); the shuffle and
    # the reduce do not
    for name in ("map_output_records", "map_output_bytes", "shuffle_records",
                 "shuffle_bytes", "shuffle_key_bytes", "reduce_groups",
                 "reduce_input_records", "reduce_output_records",
                 "reduce_output_bytes"):
        assert getattr(outcome.result.metrics, name) == \
            getattr(baseline.metrics, name), name
    text = explain_job(conf)
    for role, spec, fold in (("reducer", reducer, folds[0]),
                             ("combiner", combiner, folds[1])):
        line = next(line for line in text.splitlines()
                    if line.startswith(f"  {role}: "))
        if spec is None:
            assert line == f"  {role}: none"
        elif fold is None:
            assert line.startswith(f"  {role}: opaque (")
        else:
            assert line == f"  {role}: described ({fold.__name__})"


def test_a_descriptor_without_folds_clears_stale_ones(tmp_path):
    path = write_webpages(tmp_path / "pages.rf", 50)
    conf = JobConf(name="stale", mapper=RankByUrl, reducer=Accumulates,
                   inputs=[RecordFileInput(path)], reducer_fold=sum)
    system = Manimal(str(tmp_path / "catalog"))
    assert system.plan(conf).apply(conf).reducer_fold is None
