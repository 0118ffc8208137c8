"""Engine layer: analysis/plan caching, pipelines, concurrency.

Covers the caching tier's invalidation contract (identical vs. edited
mapper bytecode, rewritten source files, catalog generation bumps), a
multi-stage pipeline's byte-identity across runners and its chain-order
failures, and concurrent submissions sharing one Session/engine.
"""

import sys
import threading

import pytest

from repro import Session, col
from repro.core.manimal import Manimal
from repro.core.pipeline import ManimalPipeline
from repro.engine import ExecutionEngine, default_worker_count
from repro.engine.cache import analysis_fingerprint
from repro.mapreduce import (
    InMemoryInput,
    JobConf,
    ParallelJobRunner,
    RecordFileInput,
)
from repro.mapreduce.api import Mapper, Reducer
from repro.storage.serialization import INT_SCHEMA, STRING_SCHEMA
from tests.conftest import metrics_without_wall, write_webpages


class HighRankMapper(Mapper):
    def map(self, key, value, ctx):
        if value.rank > 30:
            ctx.emit(value.url, value.rank)


class HighRankMapperTwin(Mapper):
    """Byte-for-byte the same map body as HighRankMapper."""

    def map(self, key, value, ctx):
        if value.rank > 30:
            ctx.emit(value.url, value.rank)


class LowRankMapper(Mapper):
    """Edited bytecode: same shape, different constant/comparison."""

    def map(self, key, value, ctx):
        if value.rank < 30:
            ctx.emit(value.url, value.rank)


class ThresholdMapper(Mapper):
    """Member value folded as a constant -- must key the cache."""

    def __init__(self, threshold=30):
        self.threshold = threshold

    def map(self, key, value, ctx):
        if value.rank > self.threshold:
            ctx.emit(value.url, value.rank)


class KeyedSumMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key % 5, value)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, len(list(values)))


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _scan_job(path, mapper=HighRankMapper, name="scan", **overrides):
    defaults = dict(
        name=name, mapper=mapper, reducer=CountReducer,
        inputs=[RecordFileInput(str(path))],
    )
    defaults.update(overrides)
    return JobConf(**defaults)


@pytest.fixture
def engine():
    engine = ExecutionEngine()
    yield engine
    engine.shutdown()


class TestAnalysisCache:
    def test_identical_resubmission_hits(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        first = system.analyze(_scan_job(path))
        second = system.analyze(_scan_job(path))
        stats = engine.analysis_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert first.summary() == second.summary()
        # A renamed twin with byte-identical methods misses: analyses
        # record the mapper's name, so the class identity stays in the
        # key and a cached analysis never reports a stale name.
        system.analyze(_scan_job(path, mapper=HighRankMapperTwin))
        stats = engine.analysis_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_job_name_fixed_up_on_hit(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        system.analyze(_scan_job(path, name="first"))
        renamed = system.analyze(_scan_job(path, name="second"))
        assert engine.analysis_cache.stats()["hits"] == 1
        assert renamed.job_name == "second"

    def test_edited_bytecode_misses(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        high = system.analyze(_scan_job(path))
        low = system.analyze(_scan_job(path, mapper=LowRankMapper))
        stats = engine.analysis_cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        assert high.inputs[0].selection.formula != \
            low.inputs[0].selection.formula

    def test_member_value_change_misses(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        system.analyze(_scan_job(path, mapper=ThresholdMapper(30)))
        system.analyze(_scan_job(path, mapper=ThresholdMapper(30)))
        assert engine.analysis_cache.stats()["hits"] == 1
        # Same bytecode, different folded constant: a different program.
        system.analyze(_scan_job(path, mapper=ThresholdMapper(99)))
        stats = engine.analysis_cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 1

    def test_rewritten_input_file_invalidates(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        system.analyze(_scan_job(path))
        # Rewrite the source file (different record count -> different
        # size): the schema peek must re-run, not replay stale state.
        write_webpages(tmp_path / "w.rf", 80)
        system.analyze(_scan_job(path))
        stats = engine.analysis_cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_unfingerprintable_jobs_run_uncached(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 50)

        class Unstable:
            pass  # default repr embeds the object address

        mapper = ThresholdMapper(30)
        mapper.helper = Unstable()
        conf = _scan_job(path, mapper=mapper)
        assert analysis_fingerprint(
            Manimal(str(tmp_path / "cat"), engine=engine).analyzer, conf
        ) is None
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        analysis = system.analyze(conf)
        assert analysis.inputs[0].selection is not None
        assert len(engine.analysis_cache) == 0

    def test_pathless_inputs_never_alias(self, tmp_path, engine):
        """Two jobs differing only in in-memory data must not share a
        cached plan (the descriptor carries the input *object*)."""
        system = Manimal(str(tmp_path / "cat"), engine=engine)

        def job(lo):
            return JobConf(
                name="mem", mapper=KeyedSumMapper, reducer=SumReducer,
                inputs=[InMemoryInput([(i, lo + i) for i in range(10)])],
            )

        a = system.submit(job(0)).result
        b = system.submit(job(1000)).result
        assert a.outputs != b.outputs
        assert dict(b.outputs)[0] >= 1000
        assert len(engine.analysis_cache) == 0
        assert len(engine.plan_cache) == 0

    def test_kb_version_keys_the_fingerprint(self, tmp_path, engine):
        from repro.core.analyzer.purity import DEFAULT_KB

        path = write_webpages(tmp_path / "w.rf", 50)
        conf = _scan_job(path)
        base = Manimal(str(tmp_path / "cat"), engine=engine)
        extended = Manimal(str(tmp_path / "cat2"), engine=engine,
                           kb=DEFAULT_KB.with_hashtable_support())
        assert analysis_fingerprint(base.analyzer, conf) != \
            analysis_fingerprint(extended.analyzer, conf)


class TestPlanCache:
    def _indexed_system(self, tmp_path, engine, n=200):
        path = write_webpages(tmp_path / "w.rf", n)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        job = _scan_job(path)
        system.build_indexes(job)
        return system, job, path

    def test_replanning_hits_and_still_counts_usage(self, tmp_path, engine):
        system, job, _path = self._indexed_system(tmp_path, engine)
        first = system.plan(job)
        assert first.optimized
        used = [p.entry.index_id for p in first.plans if p.entry is not None]
        before = {i: system.catalog.get(i).use_count for i in used}
        second = system.plan(job)
        assert engine.plan_cache.stats()["hits"] == 1
        assert second.optimized
        assert [p.describe() for p in second.plans] == \
            [p.describe() for p in first.plans]
        # LRU accounting is identical to uncached planning.
        for index_id in used:
            assert system.catalog.get(index_id).use_count == \
                before[index_id] + 1

    def test_catalog_generation_invalidates(self, tmp_path, engine):
        system, job, _path = self._indexed_system(tmp_path, engine)
        system.plan(job)
        entry = system.catalog.sorted_entries()[0]
        system.catalog.remove(entry.index_id)
        replanned = system.plan(job)
        assert engine.plan_cache.stats()["misses"] >= 2
        assert entry.index_id not in {
            p.entry.index_id for p in replanned.plans if p.entry is not None
        }

    def test_rewritten_source_file_invalidates(self, tmp_path, engine):
        system, job, path = self._indexed_system(tmp_path, engine)
        system.plan(job)
        write_webpages(tmp_path / "w.rf", 321)
        system.plan(job)
        stats = engine.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2

    def test_hinted_analyses_plan_uncached(self, tmp_path, engine):
        system, job, _path = self._indexed_system(tmp_path, engine)
        hints = system.analyzer.analyze_job(job)  # bypasses the engine
        descriptor = system.plan(job, analysis=hints)
        assert descriptor.optimized
        assert len(engine.plan_cache) == 0


def _stage(path, out=None, name="stage", mapper=HighRankMapper,
           reducer=CountReducer):
    conf = dict(name=name, mapper=mapper, reducer=reducer,
                inputs=[RecordFileInput(str(path))])
    if out is not None:
        conf.update(output_path=str(out), output_key_schema=STRING_SCHEMA,
                    output_value_schema=INT_SCHEMA)
    return JobConf(**conf)


class MidMapper(Mapper):
    """Consumes (url, count) intermediate records."""

    def map(self, key, value, ctx):
        ctx.emit(key.value, value.value)


class TestDiamondPipeline:
    """A multi-stage pipeline runs in chain order, on any runner."""

    def _diamond(self, tmp_path, tag):
        src = write_webpages(tmp_path / "src.rf", 200)
        mid_a = tmp_path / f"a-{tag}.rf"
        mid_b = tmp_path / f"b-{tag}.rf"
        stages = [
            _stage(src, mid_a, name="head"),
            _stage(mid_a, mid_b, name="left", mapper=MidMapper,
                   reducer=SumReducer),
            _stage(mid_a, name="right", mapper=MidMapper,
                   reducer=SumReducer),
            _stage(mid_b, name="tail", mapper=MidMapper),
        ]
        system = Manimal(str(tmp_path / f"cat-{tag}"))
        return ManimalPipeline(system, stages)

    def test_parallel_runner_matches_sequential(self, tmp_path):
        seq_pipe = self._diamond(tmp_path, "seq")
        assert seq_pipe.links() == {0: [], 1: [0], 2: [0], 3: [1]}
        seq = seq_pipe.submit()
        par = self._diamond(tmp_path, "par").submit(runner=2)
        assert len(par) == len(seq) == 4
        for s, p in zip(seq, par):
            assert p.outcome.result.outputs == s.outcome.result.outputs
            assert p.outcome.result.counters.to_dict() == \
                s.outcome.result.counters.to_dict()
            assert metrics_without_wall(p.outcome.result) == \
                metrics_without_wall(s.outcome.result)
            assert p.upstream == s.upstream

    def test_failing_stage_raises_in_chain_order(self, tmp_path):
        src = write_webpages(tmp_path / "src.rf", 30)
        out = tmp_path / "out.rf"
        system = Manimal(str(tmp_path / "cat"))
        pipe = ManimalPipeline(system, [
            _stage(src, out, name="ok"),
            _stage(tmp_path / "first-missing.rf", name="first"),
            _stage(tmp_path / "second-missing.rf", name="second"),
        ])
        with pytest.raises(FileNotFoundError, match="first-missing"):
            pipe.submit()
        # the stage before the failure ran to completion
        assert out.exists()

    def test_scheduler_keyword_is_gone(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 30)
        system = Manimal(str(tmp_path / "cat"))
        pipe = ManimalPipeline(system, [_stage(path)])
        with pytest.raises(TypeError, match="scheduler"):
            pipe.submit(scheduler="dag")


class TestConcurrentSubmissions:
    def test_threads_share_one_session(self, tmp_path):
        """Byte-identity and merged metrics under concurrent clients."""
        path = write_webpages(tmp_path / "w.rf", 300)
        with Session(workdir=str(tmp_path / "sess")) as session:
            query = session.read(str(path)).filter(col("rank") > 20)
            expected_rows = query.collect()
            expected_metrics = metrics_without_wall(query.run().result)

            results = {}
            errors = []

            def client(i):
                try:
                    result = query.run(parallelism=2)
                    results[i] = (
                        result.rows, metrics_without_wall(result.result)
                    )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 4
            for rows, metrics in results.values():
                assert rows == expected_rows
                assert metrics == expected_metrics

    def test_threads_share_one_manimal(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 300)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        job = _scan_job(path)
        expected = system.submit(job).result

        outcomes = {}

        def client(i):
            outcomes[i] = system.submit(job, runner=2).result

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 4
        for result in outcomes.values():
            assert result.outputs == expected.outputs
            assert result.counters.to_dict() == expected.counters.to_dict()
            assert metrics_without_wall(result) == \
                metrics_without_wall(expected)
        # Every submission after the first reused the cached analysis.
        assert engine.analysis_cache.stats()["hits"] >= 4


    def test_path_counters_are_exact_under_concurrent_jobs(self, engine):
        """N concurrent jobs move the scheduling-path counters by N.

        The service's in-flight window calls ``WorkerPool.run_group``
        from several threads, so a lost update on an unlocked ``+=``
        would show up as a short count here.
        """
        n_threads, jobs_each = 8, 12
        conf = JobConf(
            name="tiny", mapper=KeyedSumMapper, reducer=SumReducer,
            inputs=[InMemoryInput([(i, i) for i in range(8)])],
            num_reducers=2,
        )
        # One worker is routed in process (no forks: the test stays
        # cheap); two take the pooled path on the shared workers.
        inline = ParallelJobRunner(num_workers=1, engine=engine)
        pooled = ParallelJobRunner(num_workers=2, engine=engine)
        expected = inline.run(conf).outputs
        before = engine.pool.stats()
        errors = []

        def client(i):
            try:
                for _ in range(jobs_each):
                    assert inline.run(conf).outputs == expected
                assert pooled.run(conf).outputs == expected
            except BaseException as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        after = engine.pool.stats()
        assert after["jobs_inline"] - before["jobs_inline"] == \
            n_threads * jobs_each
        assert after["jobs_pooled"] - before["jobs_pooled"] == n_threads
        assert after["jobs_forked"] == before["jobs_forked"]


def module_level_low_rank(value):
    """Picklable by reference, opaque to the translator (abs is a call)."""
    return abs(value.rank) < 10


class TestFluentJobsReachThePersistentPool:
    """Synthesized stage functions pickle by value, so a fluent job's
    state spills to the pooled workers; a stage that still calls a user
    callable -- picklable or not -- forks per job, as it always did."""

    def _path_deltas(self, engine, run):
        before = engine.pool.stats()
        rows = run()
        after = engine.pool.stats()
        return rows, {key: after[key] - before[key]
                      for key in ("jobs_pooled", "jobs_forked",
                                  "jobs_inline")}

    def test_described_and_translated_stages_are_pooled(
            self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 300)
        with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
            pages = session.read(path)
            queries = [
                pages.filter(col("rank") > 10).group_by("rank").count(),
                # translated: the stage holds no user callable at all
                pages.filter(lambda v: v.rank > 10).select("url"),
                pages.filter(col("rank") > 40).join(
                    pages.select("url", "content"), on="url"),
            ]
            for query in queries:
                expected = query.collect()
                rows, moved = self._path_deltas(
                    engine, lambda q=query: q.collect(parallelism=2))
                assert rows == expected
                assert moved == {"jobs_pooled": 1, "jobs_forked": 0,
                                 "jobs_inline": 0}

    @pytest.mark.parametrize("predicate", [
        lambda v: abs(v.rank) < 10,  # unpicklable
        # Pickles by reference, but a pooled worker would resolve the
        # name in the module it forked with, not run this object.
        module_level_low_rank,
    ], ids=["lambda", "module_level_def"])
    def test_stage_calling_user_code_keeps_the_forked_path(
            self, tmp_path, engine, predicate):
        path = write_webpages(tmp_path / "w.rf", 300)
        with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
            query = session.read(path).filter(predicate) \
                .group_by("rank").count()
            assert "opaque: " in query.explain()
            expected = query.collect()
            rows, moved = self._path_deltas(
                engine, lambda: query.collect(parallelism=2))
            assert rows == expected
            assert moved == {"jobs_pooled": 0, "jobs_forked": 1,
                             "jobs_inline": 0}

    def test_callable_defined_after_the_workers_forked_still_runs(
            self, tmp_path, engine):
        """A declined callable the pooled workers have never seen (here:
        its module-level name is rebound after they forked) runs as the
        live object, not as whatever the worker's module resolves."""
        path = write_webpages(tmp_path / "w.rf", 300)
        with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
            pages = session.read(path)
            # forks the persistent workers with the current module
            pages.filter(col("rank") > 10).collect(parallelism=2)
            assert engine.pool.stats()["jobs_pooled"] >= 1

            def late(value):
                return abs(value.rank) >= 10

            late.__qualname__ = "module_level_low_rank"
            late.__name__ = "module_level_low_rank"
            module = sys.modules[__name__]
            original = module.module_level_low_rank
            module.module_level_low_rank = late  # now pickles by reference
            try:
                query = pages.filter(late).select("rank")
                assert "opaque: " in query.explain()
                rows = query.collect(parallelism=2)
            finally:
                module.module_level_low_rank = original
            assert rows and all(row[1].rank >= 10 for row in rows)
            assert rows == query.collect()

    def test_stage_adapters_round_trip_through_pickle(self, tmp_path,
                                                      engine):
        import inspect
        import pickle

        path = write_webpages(tmp_path / "w.rf", 40)
        with Session(workdir=str(tmp_path / "s"), engine=engine) as session:
            conf = session.read(path).filter(col("rank") > 10) \
                .group_by("rank").agg(n=("count", None),
                                      hi=("max", "rank")).lower().final.conf
        clone = pickle.loads(pickle.dumps(conf))
        for adapter, attr in ((clone.mapper, "map_source_function"),
                              (clone.reducer, "reduce_source_function")):
            # rebuilt through compile_stage_function: still inspectable
            assert inspect.getsource(getattr(adapter, attr)).startswith(
                "def _fluent_agg_")
        assert type(clone.mapper) is type(conf.mapper)


class TestEngineService:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_stats_shape(self, engine):
        stats = engine.stats()
        assert set(stats) == {"pool", "analysis_cache", "plan_cache"}

    def test_clear_caches(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 40)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        system.analyze(_scan_job(path))
        assert len(engine.analysis_cache) == 1
        engine.clear_caches()
        assert len(engine.analysis_cache) == 0

    def test_sessions_share_the_default_engine(self, tmp_path):
        with Session(workdir=str(tmp_path / "s1")) as s1, \
                Session(workdir=str(tmp_path / "s2")) as s2:
            assert s1.engine is s2.engine

    def test_isolated_engine_opt_in(self, tmp_path, engine):
        with Session(workdir=str(tmp_path / "s1"), engine=engine) as session:
            assert session.engine is engine


class TestShutdownReentrancy:
    """shutdown() is called from overlapping paths (server drain, atexit,
    benchmark teardown) and must be idempotent, re-entrant, and leave the
    engine usable."""

    def test_double_shutdown_is_a_noop(self, engine):
        engine.shutdown()
        engine.shutdown()

    def test_engine_usable_after_shutdown(self, tmp_path, engine):
        path = write_webpages(tmp_path / "w.rf", 40)
        system = Manimal(str(tmp_path / "cat"), engine=engine)
        before = system.submit(_scan_job(path)).result.sorted_outputs()
        engine.shutdown()
        # Pools rebuild lazily: the next submission just works.
        after = system.submit(_scan_job(path, name="scan2")) \
            .result.sorted_outputs()
        assert after == before

    def test_concurrent_shutdowns_never_deadlock(self, engine):
        errors = []

        def call():
            try:
                engine.shutdown()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not errors
        assert not any(t.is_alive() for t in threads)

    def test_nested_shutdown_from_inside_shutdown(self, engine,
                                                  monkeypatch):
        """A shutdown reached recursively (the atexit-during-drain shape)
        returns immediately instead of deadlocking."""
        inner_calls = []
        original = engine.pool.shutdown

        def reentrant_pool_shutdown(*args, **kwargs):
            inner_calls.append(True)
            engine.shutdown()  # re-enter on the same thread
            return original(*args, **kwargs)

        monkeypatch.setattr(engine.pool, "shutdown",
                            reentrant_pool_shutdown)
        engine.shutdown()
        assert len(inner_calls) == 1  # the nested call short-circuited
