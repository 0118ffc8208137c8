"""Tests for the MapReduce execution fabric (runner, shuffle, combiner)."""

from types import SimpleNamespace

import pytest

from repro.exceptions import JobConfigError, JobExecutionError, MapReduceError
from repro.mapreduce import (
    IdentityMapper,
    InMemoryInput,
    JobConf,
    LocalJobRunner,
    Mapper,
    Partitioner,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.keyspace import estimate_size, stable_hash
from repro.mapreduce.runtime import (
    MapTaskResult,
    _finish_map_task,
    _run_combiner,
    execute_reduce_partition,
)
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import (
    INT_SCHEMA,
    STRING_SCHEMA,
)
from tests.conftest import WEBPAGE


class WordCountMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class TestWordCount:
    def test_basic(self):
        pairs = [(i, text) for i, text in enumerate(
            ["a b a", "b c", "a", "c c c"]
        )]
        conf = JobConf(
            name="wc",
            mapper=WordCountMapper,
            reducer=SumReducer,
            inputs=[InMemoryInput(pairs)],
        )
        result = run_job(conf)
        assert result.output_dict() == {"a": 3, "b": 2, "c": 4}

    def test_combiner_reduces_shuffle_volume(self):
        pairs = [(i, "x " * 50) for i in range(20)]
        base = JobConf(name="nc", mapper=WordCountMapper, reducer=SumReducer,
                       inputs=[InMemoryInput(pairs)])
        with_combiner = JobConf(name="c", mapper=WordCountMapper,
                                reducer=SumReducer, combiner=SumReducer,
                                inputs=[InMemoryInput(pairs)])
        r1 = run_job(base)
        r2 = run_job(with_combiner)
        assert r1.output_dict() == r2.output_dict() == {"x": 1000}
        assert r2.metrics.shuffle_records < r1.metrics.shuffle_records
        # Pre-combine map output volume is identical.
        assert r2.metrics.map_output_records == r1.metrics.map_output_records

    def test_num_reducers_does_not_change_output(self):
        pairs = [(i, f"w{i % 17} w{i % 5}") for i in range(100)]
        outputs = []
        for n in (1, 3, 8):
            conf = JobConf(name=f"wc{n}", mapper=WordCountMapper,
                           reducer=SumReducer, num_reducers=n,
                           inputs=[InMemoryInput(pairs)])
            outputs.append(sorted(run_job(conf).outputs))
        assert outputs[0] == outputs[1] == outputs[2]


class TagEchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(ctx.input_tag, 1)


class RankMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.rank, 1)


class TestInputs:
    def test_multiple_inputs_tagged(self):
        conf = JobConf(
            name="tags",
            mapper=TagEchoMapper,
            reducer=SumReducer,
            inputs=[
                InMemoryInput([(1, "a")] * 3, tag="left"),
                InMemoryInput([(1, "b")] * 5, tag="right"),
            ],
        )
        assert run_job(conf).output_dict() == {"left": 3, "right": 5}

    def test_per_input_mappers(self):
        class LeftMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit("L", value)

        class RightMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit("R", value)

        conf = JobConf(
            name="multi",
            mapper=LeftMapper,
            reducer=SumReducer,
            inputs=[
                InMemoryInput([(0, 1), (0, 2)], tag="l"),
                InMemoryInput([(0, 10)], tag="r"),
            ],
            per_input_mappers={"l": LeftMapper, "r": RightMapper},
        )
        assert run_job(conf).output_dict() == {"L": 3, "R": 10}

    def test_record_file_input(self, webpage_file):
        conf = JobConf(
            name="rf",
            mapper=RankMapper,
            reducer=SumReducer,
            inputs=[RecordFileInput(webpage_file)],
        )
        result = run_job(conf)
        assert sum(result.output_dict().values()) == 500
        assert result.metrics.map_input_records == 500
        assert result.metrics.map_input_stored_bytes > 0
        assert result.metrics.map_tasks > 1

    def test_no_inputs_rejected(self):
        with pytest.raises(JobConfigError):
            JobConf(name="x", mapper=WordCountMapper, reducer=None, inputs=[])


class TestMapOnly:
    def test_map_only_job(self):
        class Doubler(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(key, value * 2)

        conf = JobConf(name="dbl", mapper=Doubler, reducer=None,
                       inputs=[InMemoryInput([(1, 10), (2, 20)])])
        result = run_job(conf)
        assert sorted(result.outputs) == [(1, 20), (2, 40)]
        assert result.metrics.reduce_groups == 0


class TestLifecycleAndCounters:
    def test_setup_cleanup_bracket_each_task(self):
        class LifeMapper(Mapper):
            def setup(self, ctx):
                ctx.increment("life", "setup")

            def map(self, key, value, ctx):
                ctx.emit(key, value)

            def cleanup(self, ctx):
                ctx.increment("life", "cleanup")

        conf = JobConf(name="life", mapper=LifeMapper, reducer=None,
                       inputs=[InMemoryInput([(i, i) for i in range(10)])])
        runner = LocalJobRunner(splits_per_input=5)
        result = runner.run(conf)
        tasks = result.metrics.map_tasks
        assert tasks == 5
        assert result.counters.get("life", "setup") == tasks
        assert result.counters.get("life", "cleanup") == tasks

    def test_user_counters_roll_up(self):
        class CountingMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.increment("app", "seen")
                ctx.emit(key, value)

        conf = JobConf(name="cnt", mapper=CountingMapper, reducer=SumReducer,
                       inputs=[InMemoryInput([(1, 1)] * 25)])
        result = run_job(conf)
        assert result.counters.get("app", "seen") == 25


class TestFailures:
    def test_map_error_wrapped(self):
        class Exploding(Mapper):
            def map(self, key, value, ctx):
                raise ValueError("boom")

        conf = JobConf(name="x", mapper=Exploding, reducer=None,
                       inputs=[InMemoryInput([(1, 1)])])
        with pytest.raises(JobExecutionError, match="boom"):
            run_job(conf)

    def test_reduce_error_wrapped(self):
        class ExplodingReducer(Reducer):
            def reduce(self, key, values, ctx):
                raise RuntimeError("reduce boom")

        conf = JobConf(name="x", mapper=WordCountMapper,
                       reducer=ExplodingReducer,
                       inputs=[InMemoryInput([(1, "a")])])
        with pytest.raises(JobExecutionError, match="reduce boom"):
            run_job(conf)

    def test_output_path_without_schema_rejected(self, tmp_path):
        conf = JobConf(name="x", mapper=WordCountMapper, reducer=SumReducer,
                       inputs=[InMemoryInput([(1, "a")])],
                       output_path=str(tmp_path / "out.rf"))
        with pytest.raises(JobExecutionError):
            run_job(conf)


class TestOutputFile:
    def test_primitive_outputs_coerced(self, tmp_path):
        out = str(tmp_path / "out.rf")
        conf = JobConf(
            name="o",
            mapper=WordCountMapper,
            reducer=SumReducer,
            inputs=[InMemoryInput([(1, "a b a")])],
            output_path=out,
            output_key_schema=STRING_SCHEMA,
            output_value_schema=INT_SCHEMA,
        )
        run_job(conf)
        with RecordFileReader(out) as r:
            rows = {k.value: v.value for k, v in r.iter_records()}
        assert rows == {"a": 2, "b": 1}


class TestDeterminism:
    def test_same_job_same_metrics(self, webpage_file):
        def go():
            conf = JobConf(name="d", mapper=RankMapper, reducer=SumReducer,
                           inputs=[RecordFileInput(webpage_file)])
            r = run_job(conf)
            m = r.metrics.to_dict()
            m.pop("wall_seconds")
            return sorted(r.outputs), m

        assert go() == go()

    def test_partitioner_stability(self):
        p = Partitioner()
        for key in ["a", "b", 1, (1, "x")]:
            assert p.partition(key, 7) == p.partition(key, 7)


def _per_pair_bytes(pairs):
    """(key bytes, key + value bytes) of ``pairs``, sized one at a time."""
    keys = sum(estimate_size(k) for k, _v in pairs)
    return keys, keys + sum(estimate_size(v) for _k, v in pairs)


class TestMapTaskTail:
    """The map tail's column bookkeeping charges what per-pair sizing
    charges, and routes where the per-key partitioner routes."""

    MIXED = [(1, 5), (1.0, 5), (True, 5)]

    def _finish(self, emitted, **conf):
        conf.setdefault("reducer", SumReducer)
        conf = JobConf(name="tail", mapper=IdentityMapper,
                       inputs=[InMemoryInput([(0, 0)])], **conf)
        out = MapTaskResult(partitions=[[] for _ in range(conf.num_reducers)])
        _finish_map_task(conf, out, list(emitted))
        return out

    def test_numerically_equal_keys_of_an_aggregate_stage_size_apart(self):
        # 1, 1.0 and True are one group key but 1, 8 and 1 bytes: a
        # per-key memo keyed by the key itself charged all three 1 byte
        spec = SimpleNamespace(kind="aggregate")
        out = self._finish(self.MIXED, batch_specs={None: spec})
        assert out.metrics.shuffle_key_bytes == 10
        assert out.metrics.map_output_bytes == 13
        assert out.metrics.shuffle_bytes == 13

    def test_column_bookkeeping_matches_per_pair_accounting(self):
        emitted = [(k, (k, str(k) * 3)) for k in
                   ["a", "bb", 7, 1 << 40, 2.5, ("t", 1), None, b"by"] * 5]
        out = self._finish(emitted, num_reducers=3)
        key_bytes, total = _per_pair_bytes(emitted)
        assert out.metrics.shuffle_key_bytes == key_bytes
        assert out.metrics.shuffle_bytes == out.metrics.map_output_bytes == total
        for part, pairs in enumerate(out.partitions):
            assert all(stable_hash(k) % 3 == part for k, _v in pairs)
        assert [pair for part in out.partitions for pair in part] == sorted(
            emitted, key=lambda kv: stable_hash(kv[0]) % 3)

    def test_filtered_and_user_partitioned_pairs_are_resized(self):
        class ByType(Partitioner):
            def partition(self, key, num_partitions):
                return int(isinstance(key, str))

        emitted = [("a", 1), (2, "xyz"), ("ccc", 3.5), (4, 4)]
        out = self._finish(emitted, num_reducers=2, partitioner=ByType(),
                           shuffle_filter=lambda key: key != "a")
        kept = emitted[1:]
        key_bytes, total = _per_pair_bytes(kept)
        assert out.metrics.shuffle_records_skipped == 1
        assert out.metrics.shuffle_key_bytes == key_bytes
        assert out.metrics.shuffle_bytes == total
        assert out.metrics.map_output_bytes == _per_pair_bytes(emitted)[1]
        assert out.partitions == [[(2, "xyz"), (4, 4)], [("ccc", 3.5)]]

    def test_an_unsizable_pair_raises_the_per_pair_error(self):
        emitted = [("a", 1), ("b", [1]), ({}, 2)]
        with pytest.raises(Exception) as raised:
            self._finish(emitted)
        with pytest.raises(Exception) as expected:
            _per_pair_bytes(emitted[:2])
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


class _Scripted(Reducer):
    """A reducer/combiner that logs its calls and raises where told."""

    calls = []
    raise_in = None

    def _step(self, where):
        type(self).calls.append(where)
        if where == type(self).raise_in:
            raise ValueError(f"{where} boom")

    def setup(self, ctx):
        self._step("setup")

    def reduce(self, key, values, ctx):
        self._step(f"reduce {key}")
        ctx.emit(key, sum(values))

    def cleanup(self, ctx):
        self._step("cleanup")


class TestReduceLoopExceptions:
    """What the reduce loop raises, pinned by type and message: an
    unshuffleable key fails unwrapped before ``setup()``; anything the
    user's ``setup`` / ``reduce`` / ``combine`` / ``cleanup`` raises is
    wrapped, naming the job and the phase."""

    PAIRS = [("b", 1), ("a", 2), ("b", 3), ("c", 4)]

    @pytest.fixture(autouse=True)
    def _reset(self):
        _Scripted.calls = []
        _Scripted.raise_in = None

    def _conf(self, **overrides):
        conf = dict(name="loop", mapper=IdentityMapper, reducer=_Scripted,
                    inputs=[InMemoryInput([(0, 0)])])
        conf.update(overrides)
        return JobConf(**conf)

    def test_unshuffleable_key_raises_before_setup_of_reduce(self):
        with pytest.raises(MapReduceError) as raised:
            execute_reduce_partition(self._conf(), [("a", 1), (["x"], 2)])
        assert type(raised.value) is MapReduceError
        assert str(raised.value) == \
            "value of type list cannot be a shuffle key"
        assert _Scripted.calls == []

    def test_unshuffleable_key_raises_before_setup_of_combine(self):
        conf = self._conf(combiner=_Scripted)
        with pytest.raises(MapReduceError) as raised:
            _run_combiner(conf, ["a", {"x": 1}], [1, 2], Counters())
        assert type(raised.value) is MapReduceError
        assert str(raised.value) == \
            "value of type dict cannot be a shuffle key"
        assert _Scripted.calls == []

    @pytest.mark.parametrize("where", ["setup", "reduce b", "cleanup"])
    def test_reducer_errors_are_wrapped(self, where):
        _Scripted.raise_in = where
        with pytest.raises(JobExecutionError) as raised:
            execute_reduce_partition(self._conf(), list(self.PAIRS))
        assert type(raised.value) is JobExecutionError
        assert str(raised.value) == \
            f"reduce task failed in job 'loop': {where} boom"
        assert type(raised.value.__cause__) is ValueError
        assert _Scripted.calls[-1] == where
        # groups run in key order, and stop at the one that raised
        order = ["setup", "reduce a", "reduce b", "reduce c", "cleanup"]
        assert _Scripted.calls == order[:order.index(where) + 1]

    @pytest.mark.parametrize("where", ["setup", "reduce b", "cleanup"])
    def test_combiner_errors_are_wrapped(self, where):
        _Scripted.raise_in = where
        conf = self._conf(combiner=_Scripted)
        keys, values = map(list, zip(*self.PAIRS))
        with pytest.raises(JobExecutionError) as raised:
            _run_combiner(conf, keys, values, Counters())
        assert str(raised.value) == \
            f"combiner failed in job 'loop': {where} boom"
        assert type(raised.value.__cause__) is ValueError

    def test_combiner_error_through_a_map_task(self):
        _Scripted.raise_in = "reduce a"
        conf = self._conf(combiner=_Scripted,
                          inputs=[InMemoryInput(list(self.PAIRS))])
        with pytest.raises(JobExecutionError) as raised:
            run_job(conf)
        assert str(raised.value) == \
            "combiner failed in job 'loop': reduce a boom"

    def test_a_yielded_string_is_wrapped(self):
        class YieldsString(Reducer):
            def reduce(self, key, values, ctx):
                return ["ab"]

        with pytest.raises(JobExecutionError) as raised:
            execute_reduce_partition(self._conf(reducer=YieldsString),
                                     [("k", 1)])
        assert str(raised.value) == (
            "reduce task failed in job 'loop': reduce() yielded the string "
            "'ab'; expected a (key, value) pair -- return an iterable of "
            "pairs, not a single pair")
        assert type(raised.value.__cause__) is JobExecutionError

    def test_spilled_stream_errors_are_wrapped(self):
        # the pool's decorated stream is read inside the loop: a stream
        # that fails while it is read fails the task, wrapped
        def rows():
            yield ((2, "a"), "a", 1)
            raise OSError("run vanished")

        with pytest.raises(JobExecutionError) as raised:
            execute_reduce_partition(self._conf(), rows(), presorted=True,
                                     decorated=True)
        assert str(raised.value) == \
            "reduce task failed in job 'loop': run vanished"
        assert _Scripted.calls == ["setup"]
