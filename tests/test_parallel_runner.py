"""ParallelJobRunner: byte-identity with the sequential runner, metric and
counter merging across workers, spill/merge shuffle, and the runner knob."""

import pickle
import time

import pytest

from repro import JobConf, Mapper, RecordFileInput, Reducer, Session, col
from repro.engine import ExecutionEngine
from repro.exceptions import JobConfigError, JobExecutionError
from repro.mapreduce import (
    FunctionMapper,
    FunctionReducer,
    InMemoryInput,
    LocalJobRunner,
    ParallelJobRunner,
    Partitioner,
    resolve_runner,
    run_job,
    shuffle,
)
from repro.mapreduce.counters import FRAMEWORK_GROUP
from repro.mapreduce.metrics import JobMetrics
from tests.conftest import WEBPAGE, metrics_without_wall, write_webpages


class ModMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.increment("user", "mapped")
        ctx.emit(value % 7, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.increment("user", "reduced")
        ctx.emit(key, sum(values))


class MaxCombiner(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


def in_memory_conf(n=600, **overrides):
    defaults = dict(
        name="mod-sum",
        mapper=ModMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i * 3) for i in range(n)])],
        num_reducers=4,
    )
    defaults.update(overrides)
    return JobConf(**defaults)


class TestByteIdentity:
    """The acceptance bar: parallel output == sequential output, exactly."""

    def test_outputs_metrics_counters_identical(self):
        conf = in_memory_conf()
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=4).run(conf)
        assert par.outputs == seq.outputs
        assert metrics_without_wall(par) == metrics_without_wall(seq)
        assert par.counters.to_dict() == seq.counters.to_dict()

    def test_record_file_job_with_combiner(self, webpage_file):
        class RankMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value.rank, 1)

        conf = JobConf(
            name="ranks", mapper=RankMapper, reducer=SumReducer,
            combiner=MaxCombiner,
            inputs=[RecordFileInput(webpage_file)], num_reducers=3,
        )
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert par.outputs == seq.outputs
        assert metrics_without_wall(par) == metrics_without_wall(seq)

    def test_map_only_job_preserves_arrival_order(self):
        conf = in_memory_conf(reducer=None)
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=4).run(conf)
        assert par.outputs == seq.outputs

    def test_duplicate_keys_keep_stable_task_order(self):
        # Many tasks emit the same keys: the k-way merge must reproduce
        # the stable sort's tie-breaking (task order, then emit order).
        class DupMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value % 3, (key, value))

        conf = JobConf(
            name="dups", mapper=DupMapper, reducer=None,
            inputs=[InMemoryInput([(i, i % 5) for i in range(200)])],
            num_reducers=2,
        )
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=4).run(conf)
        assert par.outputs == seq.outputs

    def test_unpicklable_closures_work_via_fork(self):
        threshold = 40
        mapper = FunctionMapper(
            lambda k, v, ctx: ctx.emit(v % 5, v) if v > threshold else None
        )
        reducer = FunctionReducer(lambda k, vs, ctx: ctx.emit(k, max(vs)))
        conf = JobConf(
            name="closure", mapper=mapper, reducer=reducer,
            inputs=[InMemoryInput([(i, i) for i in range(300)])],
            num_reducers=3,
            shuffle_filter=lambda key: key != 2,
        )
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=3).run(conf)
        assert par.outputs == seq.outputs
        assert metrics_without_wall(par) == metrics_without_wall(seq)

    def test_inline_fallback_is_identical(self, monkeypatch):
        # simulate a platform without fork
        monkeypatch.setattr("repro.engine.pool._FORK_CONTEXT", None)
        engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        try:
            conf = in_memory_conf()
            seq = LocalJobRunner().run(conf)
            par = ParallelJobRunner(num_workers=4, engine=engine).run(conf)
            assert par.outputs == seq.outputs
            assert metrics_without_wall(par) == metrics_without_wall(seq)
            # ... and assert the route, not just the bytes: no pool
            stats = engine.pool.stats()
            assert stats["jobs_inline"] == 1
            assert stats["pools_created"] == 0
            assert stats["jobs_pooled"] == stats["jobs_forked"] == 0
        finally:
            engine.shutdown()

    def test_worker_error_surfaces_as_job_execution_error(self):
        class BadMapper(Mapper):
            def map(self, key, value, ctx):
                raise ValueError("boom")

        conf = in_memory_conf(mapper=BadMapper)
        with pytest.raises(JobExecutionError, match="map task failed"):
            ParallelJobRunner(num_workers=2).run(conf)

    def test_spill_dir_cleaned_up_even_on_failure(self, tmp_path,
                                                  monkeypatch):
        import glob
        import tempfile as tempfile_mod

        monkeypatch.setattr(tempfile_mod, "tempdir", str(tmp_path))

        class BadReducer(Reducer):
            def reduce(self, key, values, ctx):
                raise ValueError("boom")

        with pytest.raises(JobExecutionError):
            ParallelJobRunner(num_workers=2).run(
                in_memory_conf(reducer=BadReducer)
            )
        ParallelJobRunner(num_workers=2).run(in_memory_conf())
        assert glob.glob(str(tmp_path / "manimal-shuffle-*")) == []


class FailsLateAndEarly(Mapper):
    """One pair per map task: task 1 fails after a pause, task 3 at once,
    so a worker meets task 3's failure first."""

    def map(self, key, value, ctx):
        if key == 1:
            time.sleep(0.3)
            raise ValueError("task 1 failed")
        if key == 3:
            raise KeyError("task 3 failed")
        ctx.emit(key, value)


class FailsOnPartitionsOneAndThree(Reducer):
    def reduce(self, key, values, ctx):
        if key == 1:
            time.sleep(0.3)
            raise ValueError("partition 1 failed")
        if key == 3:
            raise KeyError("partition 3 failed")
        ctx.emit(key, sum(values))


class ByKey(Partitioner):
    def partition(self, key, num_partitions):
        return key % num_partitions


def _failure(runner, conf):
    with pytest.raises(JobExecutionError) as raised:
        runner.run(conf)
    return type(raised.value), str(raised.value)


class TestFailuresNameTheSequentialTask:
    """A pooled job that fails raises the error of the task the
    sequential runner fails on -- the lowest-indexed failing task of the
    failing phase -- whichever failing task a worker finished first."""

    @pytest.mark.parametrize("phase", ["map", "reduce"])
    def test_the_lowest_failing_task_is_reported(self, phase):
        pairs = [(k, k) for k in range(6)]
        if phase == "map":
            conf = JobConf(name="two-failures", mapper=FailsLateAndEarly,
                           reducer=SumReducer, inputs=[InMemoryInput(pairs)])
        else:
            conf = JobConf(name="two-failures", mapper=FunctionMapper(
                _emit_pair), reducer=FailsOnPartitionsOneAndThree,
                partitioner=ByKey(), num_reducers=6,
                inputs=[InMemoryInput(pairs)])
        expected = _failure(LocalJobRunner(splits_per_input=6), conf)
        unit = "task" if phase == "map" else "partition"
        assert expected[1].endswith(f"{unit} 1 failed")
        engine = ExecutionEngine(max_workers=2)
        try:
            runner = ParallelJobRunner(2, splits_per_input=6, engine=engine)
            for _ in range(3):
                assert _failure(runner, conf) == expected
        finally:
            engine.shutdown()


def _emit_pair(key, value, ctx):
    ctx.emit(key, value)


class TestFluentEndToEnd:
    """PR 1's byte-identical e2e pattern, now bracketing the runners."""

    def test_parallel_session_write_is_byte_identical(self, tmp_path):
        pages = write_webpages(tmp_path / "pages.rf", 400)
        out_seq = str(tmp_path / "seq.rf")
        out_par = str(tmp_path / "par.rf")
        out_override = str(tmp_path / "override.rf")

        with Session(workdir=str(tmp_path / "s1")) as s1:
            q = s1.read(pages).filter(col("rank") > 40).select("url", "rank")
            q.write(out_seq)
            q.write(out_override, parallelism=3)
        with Session(workdir=str(tmp_path / "s2"), parallelism=4) as s2:
            s2.read(pages).filter(col("rank") > 40) \
                .select("url", "rank").write(out_par)

        seq_bytes = open(out_seq, "rb").read()
        assert open(out_par, "rb").read() == seq_bytes
        assert open(out_override, "rb").read() == seq_bytes

    def test_collect_parallelism_matches_sequential(self, tmp_path):
        pages = write_webpages(tmp_path / "pages.rf", 300)
        with Session(workdir=str(tmp_path / "s")) as session:
            per_rank = session.read(pages).group_by("rank").count()
            assert per_rank.collect(parallelism=4) == per_rank.collect()

    def test_build_indexes_under_parallel_system(self, tmp_path):
        # Index-generation programs write the B+Tree through in-process
        # reducer state, so they must run sequentially even when the
        # system-wide runner is parallel (regression: the parallel
        # runner's forked reducer left the parent's stats unset).
        from repro import Manimal

        pages = write_webpages(tmp_path / "pages.rf", 300)

        class HighRank(Mapper):
            def map(self, key, value, ctx):
                if value.rank > 40:
                    ctx.emit(value.rank, 1)

        def conf():
            return JobConf(name="hr", mapper=HighRank, reducer=SumReducer,
                           inputs=[RecordFileInput(pages)])

        base = run_job(conf())
        system = Manimal(str(tmp_path / "catalog"), parallelism=4)
        outcome = system.submit(conf(), build_indexes=True)
        assert outcome.optimized
        assert sorted(outcome.result.outputs) == sorted(base.outputs)
        assert outcome.result.metrics.map_input_records \
            < base.metrics.map_input_records


class TestMerging:
    """Counters and JobMetrics roll up truthfully across workers."""

    def test_user_counters_merge_across_workers(self):
        conf = in_memory_conf(n=500)
        par = ParallelJobRunner(num_workers=4).run(conf)
        assert par.counters.get("user", "mapped") == 500
        assert par.counters.get("user", "reduced") == 7
        assert par.counters.get(FRAMEWORK_GROUP, "map_tasks") == \
            par.metrics.map_tasks

    def test_framework_metrics_merge_across_workers(self):
        conf = in_memory_conf(n=500)
        seq = LocalJobRunner().run(conf)
        par = ParallelJobRunner(num_workers=4).run(conf)
        # the quantities repro.mapreduce.cost simulates from must agree
        for name in ("map_input_records", "map_output_bytes",
                     "shuffle_records", "shuffle_bytes", "reduce_groups",
                     "reduce_input_records", "reduce_output_records"):
            assert getattr(par.metrics, name) == getattr(seq.metrics, name)

    def test_job_metrics_merge_is_fieldwise_addition(self):
        a = JobMetrics(map_tasks=2, shuffle_records=10, wall_seconds=1.5)
        b = JobMetrics(map_tasks=3, shuffle_records=5, reduce_groups=7,
                       wall_seconds=9.0)
        a.merge(b)
        assert a.map_tasks == 5
        assert a.shuffle_records == 15
        assert a.reduce_groups == 7
        # concurrent wall clocks do not add up to job wall time
        assert a.wall_seconds == 1.5


class TestSpillShuffle:
    def test_run_round_trip(self, tmp_path):
        path = shuffle.run_path(str(tmp_path), "map", 3, 1)
        pairs = [("b", 2), ("a", 1), ("a", WEBPAGE.make("u", 1, "c"))]
        shuffle.write_run(path, pairs)
        assert shuffle.read_run(path) == pairs

    def test_merge_runs_is_stable_across_tasks(self, tmp_path):
        # equal keys must surface in task order, then emit order
        run0 = shuffle.run_path(str(tmp_path), "map", 0, 0)
        run1 = shuffle.run_path(str(tmp_path), "map", 1, 0)
        # the spill and merge the pool workers run: decorated sorted runs
        for path, pairs in ((run0, [("k", "t0-a"), ("k", "t0-b")]),
                            (run1, [("k", "t1-a"), ("a", "t1-z")])):
            shuffle.write_run(path, shuffle.sort_decorated_run(
                shuffle.decorate_pairs(pairs)))
        merged = [(key, value) for _skey, key, value
                  in shuffle.merge_decorated_runs([run0, run1])]
        assert merged == [
            ("a", "t1-z"), ("k", "t0-a"), ("k", "t0-b"), ("k", "t1-a")
        ]

    def test_unpicklable_pair_fails_loudly(self, tmp_path):
        path = shuffle.run_path(str(tmp_path), "map", 0, 0)
        with pytest.raises(JobExecutionError, match="not picklable"):
            shuffle.write_run(path, [("k", lambda: None)])

    def test_records_survive_spill_pickling(self):
        record = WEBPAGE.make("http://x", 9, "body")
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record
        assert clone.rank == 9
        assert clone.schema.name == WEBPAGE.name


class TestRunnerKnob:
    def test_resolve_runner_variants(self):
        assert isinstance(resolve_runner(1), LocalJobRunner)
        assert isinstance(resolve_runner(4), ParallelJobRunner)
        assert resolve_runner(4).num_workers == 4
        assert isinstance(resolve_runner("local"), LocalJobRunner)
        assert isinstance(resolve_runner("parallel"), ParallelJobRunner)
        custom = LocalJobRunner()
        assert resolve_runner(custom) is custom

    def test_resolve_runner_honors_conf_parallelism(self):
        conf = in_memory_conf(parallelism=3)
        runner = resolve_runner(None, conf=conf)
        assert isinstance(runner, ParallelJobRunner)
        assert runner.num_workers == 3
        default = LocalJobRunner()
        assert resolve_runner(None, conf=in_memory_conf(),
                              default=default) is default

    def test_conf_parallelism_one_forces_sequential(self):
        # parallelism=1 must override even a parallel default runner
        # (e.g. a job with unpicklable pairs under Manimal(parallelism=4))
        runner = resolve_runner(None, conf=in_memory_conf(parallelism=1),
                                default=ParallelJobRunner(num_workers=4))
        assert isinstance(runner, LocalJobRunner)

    def test_resolve_runner_zero_means_auto(self):
        # parallelism=0 auto-detects the CPU count (documented default).
        from repro.engine import default_worker_count

        runner = resolve_runner(0)
        assert isinstance(runner, ParallelJobRunner)
        assert runner.num_workers == default_worker_count()
        via_conf = resolve_runner(None, conf=in_memory_conf(parallelism=0))
        assert isinstance(via_conf, ParallelJobRunner)
        assert via_conf.num_workers == default_worker_count()

    def test_resolve_runner_rejects_garbage(self):
        with pytest.raises(JobConfigError):
            resolve_runner(-1)
        with pytest.raises(JobConfigError):
            resolve_runner("cluster")
        with pytest.raises(JobConfigError):
            resolve_runner(object())
        with pytest.raises(JobConfigError):
            resolve_runner(True)

    def test_run_job_knob_and_conf_parallelism(self):
        base = run_job(in_memory_conf())
        assert run_job(in_memory_conf(), runner=4).outputs == base.outputs
        assert run_job(in_memory_conf(), runner="parallel").outputs \
            == base.outputs
        assert run_job(in_memory_conf(parallelism=4)).outputs == base.outputs

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(JobConfigError):
            in_memory_conf(parallelism=-1)
        with pytest.raises(JobConfigError):
            ParallelJobRunner(num_workers=-1)

    def test_with_inputs_preserves_parallelism(self):
        conf = in_memory_conf(parallelism=4)
        copy = conf.with_inputs(list(conf.inputs))
        assert copy.parallelism == 4


class TestCollectYieldedGuard:
    """The `return (key, value)` string-corruption guard in _collect_yielded.

    A returned single pair of 2-char strings would unpack "successfully"
    into corrupted 1-char outputs if treated as an iterable of pairs; the
    runtime must fail loudly instead, under both runners.
    """

    def _conf(self, mapper):
        return JobConf(
            name="guard", mapper=mapper, reducer=None,
            inputs=[InMemoryInput([("k1", "v1")])],
        )

    def test_single_string_pair_return_rejected(self):
        class OnePairMapper(Mapper):
            def map(self, key, value, ctx):
                return ("ab", "cd")  # one pair, not an iterable of pairs

        with pytest.raises(JobExecutionError, match="yielded the string"):
            run_job(self._conf(OnePairMapper))

    def test_single_string_pair_rejected_in_parallel_worker(self):
        class OnePairMapper(Mapper):
            def map(self, key, value, ctx):
                return ("ab", "cd")

        with pytest.raises(JobExecutionError, match="yielded the string"):
            ParallelJobRunner(num_workers=2).run(self._conf(OnePairMapper))

    def test_reduce_side_guard(self):
        class YieldingReducer(Reducer):
            def reduce(self, key, values, ctx):
                return ("xy", "zw")

        conf = JobConf(
            name="guard-r", mapper=ModMapper, reducer=YieldingReducer,
            inputs=[InMemoryInput([(1, 1)])],
        )
        with pytest.raises(JobExecutionError, match="yielded the string"):
            run_job(conf)

    def test_non_iterable_return_rejected(self):
        class IntMapper(Mapper):
            def map(self, key, value, ctx):
                return 7

        with pytest.raises(JobExecutionError, match="non-iterable"):
            run_job(self._conf(IntMapper))

    def test_non_pair_item_rejected(self):
        class BadItemMapper(Mapper):
            def map(self, key, value, ctx):
                return [(1, 2, 3)]

        with pytest.raises(JobExecutionError, match="expected a"):
            run_job(self._conf(BadItemMapper))

    def test_valid_generator_style_still_works(self):
        class GenMapper(Mapper):
            def map(self, key, value, ctx):
                yield key, value
                yield key, value.upper()

        result = run_job(self._conf(GenMapper))
        assert sorted(result.outputs) == [("k1", "V1"), ("k1", "v1")]
