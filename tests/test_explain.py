"""Tests for the explain_job reporting module."""

from repro.api.plan import avg_of, count, sum_of
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.explain import explain_job
from repro.mapreduce import JobConf, RecordFileInput
from repro.mapreduce.api import Mapper, Reducer
from tests.conftest import WEBPAGE, write_webpages


class FilterMapper(Mapper):
    def __init__(self, threshold=10):
        self.threshold = threshold

    def map(self, key, value, ctx):
        if value.rank > self.threshold:
            ctx.emit(value.rank, 1)


class OpaqueishMapper(Mapper):
    count = 0

    def map(self, key, value, ctx):
        self.count += 1
        if value.rank > self.count:
            ctx.emit(key, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _job(path, mapper):
    return JobConf(name="explained", mapper=mapper, reducer=SumReducer,
                   inputs=[RecordFileInput(path)])


class TestExplain:
    def test_detected_optimizations_listed(self, tmp_path, webpage_file):
        text = explain_job(_job(webpage_file, FilterMapper()))
        assert "[x] selection" in text
        assert "[x] projection" in text
        assert "[x] delta-compression" in text
        assert "index-generation programs" in text
        assert "selection+projection" in text

    def test_refusal_reasons_listed(self, webpage_file):
        text = explain_job(_job(webpage_file, OpaqueishMapper()))
        assert "[ ] selection" in text
        assert "mutated across invocations" in text
        assert "side effects" in text

    def test_plan_included_with_catalog(self, tmp_path, webpage_file):
        job = _job(webpage_file, FilterMapper())
        system = Manimal(str(tmp_path / "cat"))
        system.build_indexes(job)
        text = explain_job(job, catalog_dir=str(tmp_path / "cat"))
        assert "execution descriptor" in text
        assert "btree-scan" in text

    def test_plan_unoptimized_without_indexes(self, tmp_path, webpage_file):
        text = explain_job(_job(webpage_file, FilterMapper()),
                           catalog_dir=str(tmp_path / "empty-cat"))
        assert "unoptimized" in text

    def test_stale_index_reported_with_the_reason(self, tmp_path):
        """Over a rewritten source the plan names no index and says why;
        after a rebuild the fresh plan's text is what it always was."""
        path = write_webpages(tmp_path / "w.rf", 300)
        catalog_dir = str(tmp_path / "cat")
        job = _job(path, FilterMapper)
        Manimal(catalog_dir).submit(job, build_indexes=True)
        fresh_text = explain_job(job, catalog_dir=catalog_dir)
        assert "selection+projection via btree-scan(" in fresh_text

        write_webpages(tmp_path / "w.rf", 400)
        text = explain_job(job, catalog_dir=catalog_dir)
        assert "btree-scan" not in text
        assert (f"input[0]: unoptimized scan({path}) (stale: source "
                "rewritten since build (1 index(es) skipped))") in text

        Manimal(catalog_dir).build_indexes(job)
        rebuilt = explain_job(job, catalog_dir=catalog_dir)
        assert "stale:" not in rebuilt
        assert "selection+projection via btree-scan(" in rebuilt

    def test_stale_count_covers_every_skipped_index(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 300)
        catalog_dir = str(tmp_path / "cat")
        job = _job(path, FilterMapper)
        system = Manimal(catalog_dir)
        for kind in (cat.KIND_SELECTION, cat.KIND_PROJECTION,
                     cat.KIND_DELTA):
            system.build_indexes(job, allowed_kinds=[kind])
        write_webpages(tmp_path / "w.rf", 400)
        assert "(3 index(es) skipped)" in explain_job(
            job, catalog_dir=catalog_dir)
        # One fresh index is enough to plan with; the two dead ones
        # are no longer candidates.
        system.build_indexes(job, allowed_kinds=[cat.KIND_PROJECTION])
        text = explain_job(job, catalog_dir=catalog_dir)
        assert "input[0]: projection via projected-scan(" in text

    def test_schema_visibility_reported(self, tmp_path):
        from repro.workloads.pavlo import benchmark1 as b1

        path = str(tmp_path / "b1.rf")
        b1.generate_input(path, 50)
        text = explain_job(b1.make_job(path, threshold=100))
        assert "OPAQUE" in text

    def test_reduce_filter_reported(self, webpage_file):
        class KeyWhereReducer(Reducer):
            def reduce(self, key, values, ctx):
                if key > 30:
                    ctx.emit(key, sum(values))

        job = JobConf(name="x", mapper=FilterMapper(0),
                      reducer=KeyWhereReducer,
                      inputs=[RecordFileInput(webpage_file)])
        text = explain_job(job)
        assert "GroupKeyFilter" in text


# -- fluent explain: callables show their name and the translation verdict -----


class NotMultiple:
    def __init__(self, k):
        self.k = k

    def __call__(self, value):
        return value.rank % self.k != 0


def rank_not_multiple(k, value):
    return value.rank % k != 0


def url_hash_even(value):
    return hash(value.url) % 2 == 0


class TestFluentCallables:
    def _session(self, tmp_path):
        from repro.api.session import Session

        return Session(workdir=str(tmp_path / "work"))

    def test_translated_callables_show_name_and_expression(
            self, tmp_path, webpage_file):
        import functools

        with self._session(tmp_path) as session:
            pages = session.read(webpage_file)
            text = pages.filter(NotMultiple(13)).explain()
            assert ("filter <python:NotMultiple> ≡ "
                    "((value.rank % 13) != 0)") in text
            assert "(SELECT, ((($value.rank % 13) != 0)))" in text
            text = pages.filter(
                functools.partial(rank_not_multiple, 7)).explain()
            assert ("filter <python:partial(rank_not_multiple)> ≡ "
                    "((value.rank % 7) != 0)") in text
            assert "<python:?>" not in text

    def test_session_explain_reports_a_stale_index(self, tmp_path):
        from repro import col

        path = write_webpages(tmp_path / "w.rf", 300)
        with self._session(tmp_path) as session:
            query = session.read(path).filter(col("rank") > 40) \
                .select("url", "rank")
            query.run(build_indexes=True)
            assert "btree-scan(" in query.explain()
            write_webpages(tmp_path / "w.rf", 400)
            text = query.explain()
            assert "btree-scan" not in text
            assert "stale: source rewritten since build (1 index(es) " \
                "skipped)" in text

    def test_explain_names_the_path_the_planned_input_takes(self, tmp_path):
        """The verdict is the map task's own admission over the input
        the optimizer planned, so it agrees with what the run reports."""
        from repro import col

        path = write_webpages(tmp_path / "w.rf", 300)
        with self._session(tmp_path) as session:
            query = session.read(path).filter(col("rank") > 40) \
                .select("url", "rank")

            def batched():
                metrics = query.run().stages[0].outcome.result.metrics
                return metrics.batch_map_tasks, metrics.map_tasks

            assert "input[0] batch path: yes" in query.explain()
            served, tasks = batched()
            assert served == tasks > 0
            session.build_indexes(query)
            text = query.explain()
            assert "btree-scan(" in text
            assert ("input[0] batch path: no (input is not a plain "
                    "record-file scan)") in text
            assert batched() == (0, 1)
            assert ("input[0] batch path: no (input is not a plain "
                    "record-file scan)") in session.explain_many(
                        [query, query])

    def test_opaque_callables_show_name_and_reason(
            self, tmp_path, webpage_file):
        with self._session(tmp_path) as session:
            text = session.read(webpage_file).filter(url_hash_even).explain()
            assert "filter <python:url_hash_even> opaque: " in text
            assert "no built-in knowledge of function 'hash'" in text
            text = session.read(webpage_file).map(
                lambda k, v: (v.url, v)).explain()
            assert "map <python:" in text and "<lambda>> opaque: " in text

    def test_explain_many_lists_each_query_with_its_verdict(
            self, tmp_path, webpage_file):
        with self._session(tmp_path) as session:
            pages = session.read(webpage_file)
            text = session.explain_many([
                pages.filter(NotMultiple(13)).select("url"),
                pages.filter(url_hash_even).select("url"),
            ])
            assert "query 0: filter <python:NotMultiple> ≡ " in text
            assert "query 1: filter <python:url_hash_even> opaque: " in text
            assert "solo query 1: stage is not analyzer-described" in text


def doubled_rank(key, value):
    return key, WEBPAGE.make(value.url, value.rank * 2, value.content)


class TestPreaggregationVerdict:
    """An aggregate stage's plan says whether its map tasks fold rows
    into per-group partials, and if not, why."""

    def test_stage_that_preaggregates_and_stage_that_does_not(
            self, tmp_path, webpage_file):
        from repro.api.session import Session

        with Session(workdir=str(tmp_path / "work")) as session:
            pages = session.read(webpage_file)
            text = pages.group_by("rank").agg(
                n=count(), m=avg_of("rank")).explain()
            assert "agg count(*), avg(rank), hash pre-agg]" in text
            assert "input[0] batch path: yes, hash pre-agg" in text

            text = pages.map(doubled_rank, value_schema=WEBPAGE) \
                .group_by("url").agg(total=sum_of("rank")).explain()
            assert "no pre-agg (derived column)]" in text
            assert ("input[0] batch path: yes, no pre-agg (derived column)"
                    in text)

    def test_a_combiner_declines_at_task_time(self, tmp_path, webpage_file):
        from repro.api.session import Session, _batch_verdicts

        with Session(workdir=str(tmp_path / "work")) as session:
            stage = session.lower(session.read(webpage_file)
                                  .group_by("rank").agg(n=count())).final
            stage.conf.combiner = SumReducer
            descriptor = session.system.plan(stage.conf, stage.hints)
            assert _batch_verdicts(stage.conf, descriptor) == [
                "  input[0] batch path: yes, no pre-agg (a combiner "
                "expects per-row values)"]
