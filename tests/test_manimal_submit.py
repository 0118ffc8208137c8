"""Manimal.submit plumbing: allowed_kinds, analysis reuse, execute hygiene,
and the one guarantee over a rewritten source -- on every entry point."""

import os
import subprocess
import sys

import pytest

from repro import Session, col
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.mapreduce import (
    JobConf,
    Mapper,
    RecordFileInput,
    Reducer,
    SelectionIndexInput,
    run_job,
)
from repro.service import connect, deserialize_rows, serialize_rows
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema
from repro.workloads.datagen import generate_uservisits
from repro.workloads.single_opt import (
    make_daily_session_job,
    make_duration_sum_job,
)
from tests.conftest import index_files, write_webpages

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RankFilterMapper(Mapper):
    def map(self, key, value, ctx):
        if value.rank > 40:
            ctx.emit(value.url, value.rank)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, len(list(values)))


def _conf(path, reducer=CountReducer):
    return JobConf(name="submit-test", mapper=RankFilterMapper,
                   reducer=reducer, inputs=[RecordFileInput(path)])


class TestAllowedKinds:
    def test_submit_restricts_index_kinds(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 200)
        system = Manimal(str(tmp_path / "cat"))
        outcome = system.submit(
            _conf(path), build_indexes=True,
            allowed_kinds=[cat.KIND_PROJECTION],
        )
        kinds = {e.kind for e in outcome.built_indexes}
        assert kinds == {cat.KIND_PROJECTION}
        assert {e.kind for e in system.catalog.sorted_entries()} == \
            {cat.KIND_PROJECTION}
        assert outcome.optimized
        assert outcome.descriptor.plans[0].entry.kind == cat.KIND_PROJECTION

    def test_unrestricted_submit_prefers_selection(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 200)
        system = Manimal(str(tmp_path / "cat"))
        outcome = system.submit(_conf(path), build_indexes=True)
        assert outcome.descriptor.plans[0].entry.kind in (
            cat.KIND_SELECTION, cat.KIND_SELECTION_PROJECTION
        )

    def test_index_programs_respect_restriction(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 100)
        system = Manimal(str(tmp_path / "cat"))
        programs = system.index_programs(
            _conf(path), allowed_kinds=[cat.KIND_DELTA]
        )
        assert [p.kind for p in programs if p is not None] == [cat.KIND_DELTA]


class TestAnalysisReuse:
    def test_precomputed_analysis_skips_reanalysis(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 100)
        system = Manimal(str(tmp_path / "cat"))
        conf = _conf(path)
        analysis = system.analyze(conf)
        calls = []
        original = system.analyzer.analyze_job
        system.analyzer.analyze_job = lambda c: calls.append(c) or original(c)
        outcome = system.submit(conf, analysis=analysis)
        assert calls == []
        assert outcome.analysis is analysis


class TestExecuteShuffleFilterHygiene:
    def test_stale_shuffle_filter_cleared_by_descriptor(self, tmp_path):
        """Regression: ``with_inputs`` copies the conf's shuffle filter, so
        a descriptor without one must reset it, not inherit it."""
        path = write_webpages(tmp_path / "w.rf", 100)
        system = Manimal(str(tmp_path / "cat"))
        conf = _conf(path)
        expected = sorted(run_job(_conf(path)).outputs)
        assert expected

        # Simulate a stale filter left on the conf by an earlier pass.
        conf.shuffle_filter = lambda key: False
        descriptor = system.plan(conf)
        assert descriptor.shuffle_filter is None
        result = system.execute(conf, descriptor)
        assert sorted(result.outputs) == expected

    def test_descriptor_filter_still_applied(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 100)
        system = Manimal(str(tmp_path / "cat"))

        class KeyFilteringReducer(Reducer):
            def reduce(self, key, values, ctx):
                if key > "http://x/5":
                    ctx.emit(key, len(list(values)))

        conf = _conf(path, reducer=KeyFilteringReducer)
        descriptor = system.plan(conf)
        assert descriptor.shuffle_filter is not None
        result = system.execute(conf, descriptor)
        assert result.metrics.shuffle_records_skipped > 0
        assert all(k > "http://x/5" for k, _ in result.outputs)


# -- a selection index keeps -0.0 where Python's comparisons put it ----------


SIGNED = Schema("Signed", [Field("x", FieldType.DOUBLE)])


class AtLeastZeroMapper(Mapper):
    def map(self, key, value, ctx):
        if value.x >= 0.0:
            ctx.emit(repr(value.x), 1)


class EqualsZeroMapper(Mapper):
    def map(self, key, value, ctx):
        if value.x == 0.0:
            ctx.emit(repr(value.x), 1)


class AboveZeroMapper(Mapper):
    def map(self, key, value, ctx):
        if value.x > 0.0:
            ctx.emit(repr(value.x), 1)


class BelowZeroMapper(Mapper):
    def map(self, key, value, ctx):
        if value.x < 0.0:
            ctx.emit(repr(value.x), 1)


class TestNegativeZero:
    """``-0.0 == 0.0`` in Python, so a selection index must store both
    under one order key: a range bound at either finds both, and a
    strict bound at either excludes both."""

    @pytest.mark.parametrize("mapper, expected", [
        (AtLeastZeroMapper, {"-0.0": 40, "0.0": 40, "1.5": 40}),
        (EqualsZeroMapper, {"-0.0": 40, "0.0": 40}),
        (AboveZeroMapper, {"1.5": 40}),
        (BelowZeroMapper, {"-2.0": 40, "-1.0": 40}),
    ], ids=[">=", "==", ">", "<"])
    def test_indexed_submit_equals_run_job(self, tmp_path, mapper, expected):
        path = str(tmp_path / "signed.rf")
        with RecordFileWriter(path, LONG_SCHEMA, SIGNED) as writer:
            for i, x in enumerate([-2.0, -0.0, 0.0, 1.5, -1.0] * 40):
                writer.append(LONG_SCHEMA.make(i), SIGNED.make(x))
        job = JobConf(name="signed", mapper=mapper, reducer=SumReducer,
                      inputs=[RecordFileInput(path)])
        assert dict(run_job(job).outputs) == expected
        outcome = Manimal(str(tmp_path / "cat")).submit(
            job, build_indexes=True, allowed_kinds=[cat.KIND_SELECTION])
        assert isinstance(outcome.descriptor.plans[0].chosen,
                          SelectionIndexInput)
        assert dict(outcome.result.outputs) == expected


# -- a rewritten source never serves an index built from its old bytes --------


class VisitFilterMapper(Mapper):
    def map(self, key, value, ctx):
        if value.duration > 700:
            ctx.emit(value.destURL, value.adRevenue)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _visit_filter_job(path):
    return JobConf(name="visit-filter", mapper=VisitFilterMapper,
                   reducer=SumReducer, inputs=[RecordFileInput(path)])


#: one classic job per index kind, all over one UserVisits file
KIND_JOBS = {
    cat.KIND_SELECTION: _visit_filter_job,
    cat.KIND_SELECTION_PROJECTION: _visit_filter_job,
    cat.KIND_PROJECTION: _visit_filter_job,
    cat.KIND_PROJECTION_DELTA: make_daily_session_job,
    cat.KIND_DELTA: make_duration_sum_job,
    cat.KIND_DICTIONARY: make_duration_sum_job,
}
#: the kinds the fluent filter+select query below can be served by
FLUENT_KINDS = [k for k in cat.ALL_KINDS if k != cat.KIND_DICTIONARY]


def _canon(outputs):
    """Plan-independent bytes of a job's outputs: plans differ in the
    *order* they emit rows (a B+Tree scan walks in index-key order)."""
    return serialize_rows(sorted(outputs, key=repr))


def _fluent_query(session, path):
    return (session.read(path).filter(col("duration") > 700)
            .select("destURL", "adRevenue"))


def _first_plan(result):
    return result.stages[0].outcome.descriptor.plans[0]


class TestRewrittenSource:
    """Build -> rewrite -> read: the answer comes from the bytes on disk.

    The rewrite always changes the row count, so the file's size moves
    with it; a same-size rewrite inside one mtime tick is the documented
    limit of every size+mtime check (``docs/robustness.md``).
    """

    @pytest.mark.parametrize("runner", [None, 2], ids=["local", "parallel2"])
    @pytest.mark.parametrize("kind", cat.ALL_KINDS)
    def test_submit_equals_run_job_after_rewrite(self, tmp_path, kind,
                                                 runner):
        path = str(tmp_path / "uv.rf")
        catalog_dir = str(tmp_path / "cat")
        generate_uservisits(path, 300, seed=1)
        system = Manimal(catalog_dir, runner=runner)
        job = KIND_JOBS[kind]

        first = system.submit(job(path), build_indexes=True,
                              allowed_kinds=[kind])
        assert first.descriptor.plans[0].entry.kind == kind
        assert _canon(first.result.outputs) == \
            _canon(run_job(job(path)).outputs)
        old_files = index_files(catalog_dir)

        generate_uservisits(path, 450, seed=2)
        second = system.submit(job(path))
        plan = second.descriptor.plans[0]
        assert plan.entry is None and not second.optimized
        assert plan.detail == \
            "stale: source rewritten since build (1 index(es) skipped)"
        expected = _canon(run_job(job(path)).outputs)
        assert _canon(second.result.outputs) == expected
        assert expected != _canon(first.result.outputs)

        # The admin rebuilds: the stale index is replaced (file and all),
        # not reported as "existing", and the fresh one is chosen.
        third = system.submit(job(path), build_indexes=True,
                              allowed_kinds=[kind])
        entry = third.descriptor.plans[0].entry
        assert entry is not None and entry.kind == kind
        assert [e.index_id for e in third.built_indexes] == [entry.index_id]
        assert entry.index_id != first.descriptor.plans[0].entry.index_id
        assert [e.index_id for e in system.catalog.sorted_entries()] == \
            [entry.index_id]
        assert len(index_files(catalog_dir)) == 1
        assert index_files(catalog_dir) != old_files
        assert _canon(third.result.outputs) == expected

    @pytest.mark.parametrize("run_options", [
        {}, {"parallelism": 2},
    ], ids=["sequential", "parallel2"])
    @pytest.mark.parametrize("kind", FLUENT_KINDS)
    def test_dataset_run_after_rewrite(self, tmp_path, kind, run_options):
        path = str(tmp_path / "uv.rf")
        generate_uservisits(path, 300, seed=1)
        with Session(catalog_dir=str(tmp_path / "cat")) as session:
            first = _fluent_query(session, path).run(
                build_indexes=True, allowed_kinds=[kind], **run_options)
            assert _first_plan(first).entry.kind == kind

            generate_uservisits(path, 450, seed=2)
            second = _fluent_query(session, path).run(**run_options)
            assert _first_plan(second).entry is None
            assert "stale: source rewritten since build" in \
                _fluent_query(session, path).explain()
            with Session(catalog_dir=str(tmp_path / "fresh")) as fresh:
                expected = _canon(_fluent_query(fresh, path).collect())
            assert _canon(second.rows) == expected
            assert _canon(first.rows) != expected

            third = _fluent_query(session, path).run(
                build_indexes=True, allowed_kinds=[kind], **run_options)
            assert _first_plan(third).entry.kind == kind
            assert _canon(third.rows) == expected

    def test_session_write_over_an_indexed_path(self, tmp_path):
        """``session.write(ds, path)`` is a rewrite like any other."""
        source = str(tmp_path / "uv.rf")
        derived = str(tmp_path / "derived.rf")
        generate_uservisits(source, 400, seed=1)
        with Session(catalog_dir=str(tmp_path / "cat")) as session:
            base = session.read(source)
            session.write(base.filter(col("adRevenue") > 5000), derived)
            first = _fluent_query(session, derived).run(build_indexes=True)
            assert _first_plan(first).entry is not None

            session.write(base.filter(col("adRevenue") > 2000), derived)
            second = _fluent_query(session, derived).run()
            assert _first_plan(second).entry is None
            with Session(catalog_dir=str(tmp_path / "fresh")) as fresh:
                expected = _canon(_fluent_query(fresh, derived).collect())
            assert _canon(second.rows) == expected
            assert len(second.rows) > len(first.rows)

    def test_run_many_shares_the_base_file_not_the_stale_projection(
            self, tmp_path):
        path = str(tmp_path / "uv.rf")
        generate_uservisits(path, 300, seed=1)

        def queries(session):
            return [_fluent_query(session, path),
                    session.read(path).filter(col("duration") > 100)
                    .select("destURL", "adRevenue")]

        with Session(catalog_dir=str(tmp_path / "cat")) as session:
            queries(session)[0].run(build_indexes=True,
                                    allowed_kinds=[cat.KIND_PROJECTION])
            text = session.explain_many(queries(session))
            assert text.count("projection via projected-scan(") == 2
            assert "shared scan group 2 queries" in text

            generate_uservisits(path, 450, seed=2)
            text = session.explain_many(queries(session))
            assert "projected-scan" not in text
            assert text.count(
                f"unoptimized scan({path}) (stale: source rewritten since "
                "build (1 index(es) skipped))") == 2
            assert "shared scan group 2 queries" in text
            results = session.run_many(queries(session))
            with Session(catalog_dir=str(tmp_path / "fresh")) as fresh:
                for query, result in zip(queries(fresh), results):
                    assert _canon(result.rows) == _canon(query.collect())
                    assert _first_plan(result).entry is None
                    metrics = result.stages[0].outcome.result.metrics
                    assert metrics.shared_scan_groups == 1


@pytest.fixture
def service_child(tmp_path):
    """A real ``python -m repro.service`` process on a private data root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--data-root", str(tmp_path / "root"), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("READY"), line
        _, host, port = line.split()
        yield host, int(port)
    finally:
        proc.terminate()
        try:
            proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


class TestRewrittenSourceThroughTheService:
    def test_child_server_serves_the_rewritten_bytes(self, tmp_path,
                                                     service_child):
        host, port = service_child
        path = str(tmp_path / "uv.rf")
        generate_uservisits(path, 300, seed=1)

        def local_bytes():
            with Session(catalog_dir=str(tmp_path / "local")) as local:
                return _canon(_fluent_query(local, path).collect())

        with connect(host, port, tenant="alice") as remote:
            query = _fluent_query(remote, path)
            built = query.build_indexes()
            assert built
            assert _canon(query.collect()) == local_bytes()
            assert "btree-scan" in query.explain()
            assert [e["stale"] for e in remote.catalog()["indexes"]] == \
                [False]

            generate_uservisits(path, 450, seed=2)
            payload, cached = query.collect_bytes()
            assert not cached
            assert _canon(deserialize_rows(payload)) == local_bytes()
            explained = query.explain()
            assert "btree-scan" not in explained
            assert "stale: source rewritten since build (1 index(es) " \
                "skipped)" in explained
            assert [e["stale"] for e in remote.catalog()["indexes"]] == \
                [True]

            rebuilt = query.build_indexes()
            assert [e["index_id"] for e in rebuilt] != \
                [e["index_id"] for e in built]
            listed = remote.catalog()["indexes"]
            assert [(e["index_id"], e["stale"]) for e in listed] == \
                [(rebuilt[0]["index_id"], False)]
            assert "btree-scan" in query.explain()
            assert _canon(query.collect()) == local_bytes()
