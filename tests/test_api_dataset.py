"""Fluent Session/Dataset API: lowering, hints, optimization, equivalence."""

import inspect
import os

import pytest

from repro import (
    JobConf,
    Mapper,
    RecordFileInput,
    Session,
    col,
    count,
    explain_dataset,
    run_job,
    sum_of,
)
from repro.api.plan import avg_of, max_of, min_of
from repro.batch.spec import WHOLE_KEY, WHOLE_VALUE, SRecord, column_ref
from repro.exceptions import JobConfigError
from repro.mapreduce.keyspace import sort_key
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import STRING_SCHEMA
from repro.symbolic import SConst, STuple
from tests.conftest import WEBPAGE, write_webpages

PROJ_URL_RANK = WEBPAGE.project(["url", "rank"])


def skeyed(pairs):
    return sorted(pairs, key=lambda kv: (sort_key(kv[0]), sort_key(kv[1])))


@pytest.fixture
def session(tmp_path):
    with Session(workdir=str(tmp_path / "session")) as s:
        yield s


@pytest.fixture
def pages_path(tmp_path):
    return write_webpages(tmp_path / "webpages.rf", 400)


class HandWrittenTopMapper(Mapper):
    """The classic-path equivalent of filter(rank > 40).select(url, rank)."""

    def map(self, key, value, ctx):
        if value.rank > 40:
            ctx.emit(key, PROJ_URL_RANK.make(value.url, value.rank))


class TestEndToEndAcceptance:
    def test_filter_select_twice_byte_identical_and_optimized(
        self, session, pages_path, tmp_path
    ):
        """Acceptance: two runs through one Session bracket build_indexes;
        outputs are byte-identical to the hand-written JobConf job and the
        second run's descriptor shows an optimized plan."""
        query = session.read(pages_path) \
            .filter(col("rank") > 40).select("url", "rank")

        out_first = str(tmp_path / "first.rf")
        out_second = str(tmp_path / "second.rf")
        out_hand = str(tmp_path / "hand.rf")

        first = query.write(out_first)
        assert not first.stages[0].outcome.optimized

        built = session.build_indexes(query)
        assert built and built[0].kind == "selection+projection"

        second = query.write(out_second)
        descriptor = second.stages[0].outcome.descriptor
        assert descriptor.optimized
        plan = descriptor.plans[0]
        assert plan.entry is not None
        assert plan.entry.kind in ("selection", "selection+projection")
        assert "btree-scan" in plan.chosen.describe()

        # Hand-written equivalent, plain execution, same sorted write.
        hand = run_job(JobConf(
            name="hand", mapper=HandWrittenTopMapper, reducer=None,
            inputs=[RecordFileInput(pages_path)],
        ))
        with RecordFileWriter(out_hand, STRING_SCHEMA, PROJ_URL_RANK) as w:
            for key, value in hand.sorted_outputs():
                w.append(key, value)

        hand_bytes = open(out_hand, "rb").read()
        assert open(out_first, "rb").read() == hand_bytes
        assert open(out_second, "rb").read() == hand_bytes
        assert len(hand.outputs) > 0

    def test_second_run_does_less_work(self, session, pages_path):
        query = session.read(pages_path).filter(col("rank") > 45)
        first = query.run()
        session.build_indexes(query)
        second = query.run()
        assert skeyed(second.rows) == skeyed(first.rows)
        m1, m2 = first.result.metrics, second.result.metrics
        assert m2.map_input_records < m1.map_input_records
        assert m2.map_input_stored_bytes < m1.map_input_stored_bytes


class TestExplain:
    def test_explain_shows_stages_hints_and_plan(self, session, pages_path):
        query = session.read(pages_path) \
            .filter(col("rank") > 40).select("url", "rank")
        text = query.explain()
        assert "stage 0" in text
        assert "filter (value.rank > 40)" in text
        assert "select [url, rank]" in text
        assert "(SELECT," in text and "(PROJECT," in text
        assert "execution descriptor" in text
        assert explain_dataset(query) == query.explain()

    def test_explain_reflects_catalog_state(self, session, pages_path):
        query = session.read(pages_path).filter(col("rank") > 40)
        assert "unoptimized" in query.explain()
        session.build_indexes(query)
        assert "btree-scan" in query.explain()

    def test_explain_dataset_rejects_non_dataset(self):
        with pytest.raises(TypeError):
            explain_dataset(42)


class TestRelationalOps:
    def test_aggregation_matches_manual(self, session, pages_path):
        query = session.read(pages_path).filter(col("rank") >= 48) \
            .group_by("rank").agg(n=count(), total=sum_of("rank"),
                                  lo=min_of("rank"), hi=max_of("rank"))
        rows = dict(query.collect())
        assert set(rows) == {48, 49}
        assert rows[48].n == 8 and rows[48].total == 48 * 8
        assert rows[49].lo == 49 and rows[49].hi == 49

    def test_single_agg_emits_primitive(self, session, pages_path):
        query = session.read(pages_path).group_by("rank").count()
        rows = dict(query.collect())
        assert rows[0] == 8  # 400 records, rank = i % 50

    def test_avg(self, session, pages_path):
        query = session.read(pages_path).group_by("content") \
            .agg(mean=avg_of("rank"))
        ((_key, mean),) = query.collect()
        assert mean == pytest.approx(sum(i % 50 for i in range(400)) / 400)

    def test_agg_tuple_shorthand(self, session, pages_path):
        query = session.read(pages_path).group_by("rank") \
            .agg(total=("sum", "rank"))
        rows = dict(query.collect())
        assert rows[49] == 49 * 8

    def test_single_agg_column_takes_keyword_name(self, session, pages_path):
        query = session.read(pages_path).group_by("rank") \
            .agg(total=sum_of("rank"))
        assert query.columns() == ["total"]
        # ...so downstream ops can reference it, same as the multi-agg case
        narrowed = query.filter(col("total") > 48 * 8)
        rows = narrowed.collect()
        assert {v.total for _k, v in rows} == {49 * 8}

    def test_join_matches_manual(self, session, pages_path):
        top = session.read(pages_path) \
            .filter(col("rank") > 47).select("url", "rank")
        content = session.read(pages_path).select("url", "content")
        joined = top.join(content, on="url")
        rows = joined.collect()
        assert len(rows) == 2 * 8  # ranks 48, 49 x 8 occurrences
        for _key, record in rows:
            assert record.rank > 47
            assert record.content == "c" * 40
        # join then further filtering adds a chained stage
        narrowed = joined.filter(col("rank") > 48)
        assert len(narrowed.collect()) == 8
        assert len(narrowed.lower().stages) == 2

    def test_join_renames_collisions(self, session, pages_path):
        left = session.read(pages_path).select("url", "rank")
        right = session.read(pages_path).select("url", "rank")
        merged = left.join(right, on="url").value_schema
        assert merged.field_names() == ["url", "rank", "rank_r"]

    def test_map_with_schemas_feeds_group_by(self, session, pages_path):
        doubled = session.read(pages_path).map(
            lambda k, v: (k, WEBPAGE.make(v.url, v.rank * 2, v.content)),
            key_schema=STRING_SCHEMA, value_schema=WEBPAGE,
        )
        rows = dict(doubled.group_by("rank").count().collect())
        assert rows[98] == 8

    def test_opaque_callable_filter_runs_without_hints(self, session,
                                                       pages_path):
        # abs() is a call: outside the column-expression algebra
        query = session.read(pages_path).filter(lambda r: abs(r.rank) > 45)
        plan = query.lower()
        assert plan.stages[0].hints.inputs[0].selection is None
        rows = query.collect()
        assert rows and all(v.rank > 45 for _k, v in rows)

    def test_translatable_callable_filter_gets_the_col_hints(
            self, session, pages_path):
        query = session.read(pages_path).filter(lambda r: r.rank > 45)
        spelled = session.read(pages_path).filter(col("rank") > 45)
        hint = query.lower().stages[0].hints.inputs[0]
        assert repr(hint.selection) == repr(
            spelled.lower().stages[0].hints.inputs[0].selection)
        assert query.collect() == spelled.collect()

    def test_pipeline_links_wired(self, session, pages_path):
        query = session.read(pages_path).group_by("rank").count() \
            .filter(col("count") > 0)
        result = query.run()
        assert len(result.stages) == 2
        assert result.stages[1].upstream == [0]

    def test_multi_stage_intermediate_schemas(self, session, pages_path):
        query = session.read(pages_path).group_by("rank") \
            .agg(n=count(), total=sum_of("rank"))
        narrowed = query.filter(col("n") > 0).select("n")
        rows = narrowed.collect()
        assert len(rows) == 50
        assert all(v.n == 8 for _k, v in rows)


class TestValidationAndLaziness:
    def test_datasets_are_immutable_handles(self, session, pages_path):
        base = session.read(pages_path)
        filtered = base.filter(col("rank") > 45)
        assert base.columns() == ["url", "rank", "content"]
        assert filtered is not base
        assert len(base.collect()) == 400
        assert len(filtered.collect()) == 32

    def test_unknown_filter_column_rejected(self, session, pages_path):
        with pytest.raises(JobConfigError, match="unknown column"):
            session.read(pages_path).filter(col("nope") > 1)

    def test_unknown_select_column_rejected(self, session, pages_path):
        with pytest.raises(JobConfigError, match="unknown column"):
            session.read(pages_path).select("url", "nope")

    def test_unknown_group_column_rejected(self, session, pages_path):
        with pytest.raises(JobConfigError, match="column"):
            session.read(pages_path).group_by("nope").count()

    def test_missing_file_rejected(self, session, tmp_path):
        with pytest.raises(JobConfigError, match="does not exist"):
            session.read(str(tmp_path / "missing.rf"))

    def test_schemaless_map_feeding_stage_rejected(self, session, pages_path):
        mapped = session.read(pages_path).map(lambda k, v: (k, v))
        with pytest.raises(JobConfigError, match="schemas are unknown"):
            mapped.group_by("rank").count().filter(col("count") > 0)

    def test_schemaless_map_collect_works(self, session, pages_path):
        mapped = session.read(pages_path).map(lambda k, v: (v.rank, v.url))
        rows = mapped.collect()
        assert len(rows) == 400

    def test_schemaless_write_rejected(self, session, pages_path, tmp_path):
        mapped = session.read(pages_path).map(lambda k, v: (v.rank, v.url))
        with pytest.raises(JobConfigError, match="cannot write"):
            mapped.write(str(tmp_path / "out.rf"))

    def test_cross_session_join_rejected(self, session, pages_path, tmp_path):
        with Session(workdir=str(tmp_path / "other")) as other:
            a = session.read(pages_path)
            b = other.read(pages_path)
            with pytest.raises(JobConfigError, match="different sessions"):
                a.join(b, on="url")


class TestOneEmitPerInput:
    """Each stage input has one ``(K, V)`` emit: the synthesized mapper's
    ``ctx.emit`` line, the batch spec's ``emit`` and the projection hint's
    used columns all follow from it."""

    @staticmethod
    def _inputs(stage):
        mappers = stage.conf.per_input_mappers
        mappers = (list(mappers.values()) if mappers
                   else [stage.conf.mapper])
        return [(inspect.getsource(m.map_source_function), hint)
                for m, hint in zip(mappers, stage.hints.inputs)]

    def test_map_stage_emits_the_key_and_the_reshaped_record(
            self, session, pages_path):
        query = session.read(pages_path) \
            .filter(col("rank") > 10).select("url", "rank")
        [(source, hint)] = self._inputs(query.lower().stages[0])
        assert source.splitlines()[-1].strip() == "ctx.emit(key, v1)"
        assert hint.batch_spec.emit[0] is WHOLE_KEY
        assert repr(hint.batch_spec.emit[1]) == repr(SRecord(PROJ_URL_RANK))
        assert hint.projection.used_value_fields == ["url", "rank"]
        assert hint.projection.unused_value_fields == ["content"]

    def test_aggregate_stage_emits_the_group_and_the_partial_slots(
            self, session, pages_path):
        query = session.read(pages_path).filter(col("rank") > 10) \
            .group_by("url").agg(n=count(), total=sum_of("rank"))
        [(source, hint)] = self._inputs(query.lower().stages[0])
        assert source.splitlines()[-1].strip() == \
            "ctx.emit(value.url, (1, value.rank))"
        spec = hint.batch_spec
        assert repr(spec.emit) == repr(
            (column_ref("url"), STuple([SConst(1), column_ref("rank")])))
        assert spec.fold == ["count", "sum"]
        # content is neither filtered, grouped nor aggregated
        assert hint.projection.unused_value_fields == ["content"]

    def test_join_sides_emit_the_join_column_and_a_tagged_record(
            self, session, pages_path):
        left = session.read(pages_path).select("url", "rank")
        right = session.read(pages_path).filter(col("rank") > 3)
        (lsource, lhint), (rsource, rhint) = self._inputs(
            left.join(right, on="url").lower().stages[0])
        assert lsource.splitlines()[-1].strip() == \
            "ctx.emit(v1.url, ('L', v1))"
        assert repr(lhint.batch_spec.emit) == repr((
            column_ref("url"),
            STuple([SConst("L"), SRecord(PROJ_URL_RANK)])))
        assert lhint.projection.unused_value_fields == ["content"]
        # the right side emits its whole scanned record: every column
        # is used, so it gets no projection hint
        assert rsource.splitlines()[-1].strip() == \
            "ctx.emit(value.url, ('R', value))"
        assert repr(rhint.batch_spec.emit) == repr((
            column_ref("url"), STuple([SConst("R"), WHOLE_VALUE])))
        assert rhint.projection is None

    def test_select_without_a_schema_is_reported_before_later_checks(
            self, session, pages_path):
        # the schemaless map() leaves select() nothing to project, which
        # the segment pass reports before the aggregate's column check
        mapped = session.read(pages_path).map(lambda k, v: (k, v))
        with pytest.raises(JobConfigError,
                           match=r"select\(\) needs schema metadata"):
            mapped.select("url").group_by("nope").count()


class TestSynthesizedMappersAnalyzable:
    def test_analyzer_rederives_hints_from_generated_source(
        self, session, pages_path
    ):
        query = session.read(pages_path) \
            .filter(col("rank") > 40).select("url", "rank")
        plan = session.lower(query)
        conf = plan.confs()[0]
        analysis = session.system.analyze(conf)
        ia = analysis.inputs[0]
        hinted = plan.hints()[0].inputs[0]
        assert ia.selection is not None
        assert repr(ia.selection.formula) == repr(hinted.selection.formula)
        assert ia.projection is not None
        assert ia.projection.used_value_fields == \
            hinted.projection.used_value_fields

    def test_unhinted_submission_still_optimizes(self, session, pages_path):
        query = session.read(pages_path).filter(col("rank") > 40)
        conf = session.lower(query).confs()[0]
        outcome = session.system.submit(conf, build_indexes=True)
        assert outcome.optimized


class TestLoweringReuse:
    """A run takes the lowering the Dataset's build-time checks made."""

    @pytest.fixture
    def lowerings(self, monkeypatch):
        import repro.api.session as session_module

        calls = []
        real = session_module.lower_plan

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "lower_plan", counted)
        return calls

    def test_a_chain_lowers_at_most_three_times(self, session, pages_path,
                                                lowerings):
        rows = session.read(pages_path).filter(col("rank") > 10) \
            .group_by("url").agg(n=count()).collect()
        # filter's schema check and probe, agg's probe; collect reuses it
        assert len(lowerings) <= 3
        again = session.read(pages_path).filter(col("rank") > 10) \
            .group_by("url").agg(n=count())
        assert skeyed(again.collect()) == skeyed(rows)

    def test_runs_of_one_dataset_never_share_intermediates(
            self, session, pages_path, lowerings):
        # two stages: the aggregate's output is the filter's scratch input
        query = session.read(pages_path).group_by("rank") \
            .agg(n=count()).filter(col("n") > 7)
        solo = session.read(pages_path).group_by("rank") \
            .agg(n=count()).filter(col("n") > 7)
        expected = skeyed(solo.collect())
        first, second = session.run_many([query, query])
        paths = [result.plan.stages[0].conf.output_path
                 for result in (first, second)]
        assert len(set(paths)) == 2 and None not in paths
        assert skeyed(first.rows) == skeyed(second.rows) == expected
        # ... nor do concurrent runs once the build-time lowering is taken
        import threading

        results = []
        threads = [threading.Thread(target=lambda: results.append(
            query.run())) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({r.plan.stages[0].conf.output_path
                    for r in results} | set(paths)) == 4
        assert all(skeyed(r.rows) == expected for r in results)
