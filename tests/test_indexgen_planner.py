"""Tests for index-generation program synthesis and plan selection."""

import pytest

from repro.core.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.core.optimizer import indexgen
from repro.core.optimizer.indexgen import (
    IndexGenerationProgram,
    synthesize_program,
)
from repro.exceptions import CorruptFileError, OptimizerError
from repro.explain import explain_job
from repro.mapreduce import (
    ColumnarFileInput,
    JobConf,
    RecordFileInput,
    SelectionIndexInput,
    run_job,
)
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.runtime import LocalJobRunner
from repro.storage.columnar import copy_columns
from repro.storage.indexfile import IndexFileReader
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema
from tests.conftest import index_files, write_webpages

ANALYZER = ManimalAnalyzer()


class RankFilterMapper(Mapper):
    def __init__(self, threshold=40):
        self.threshold = threshold

    def map(self, key, value, ctx):
        if value.rank > self.threshold:
            ctx.emit(value.rank, 1)


class UrlRankMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.url, value.rank)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _job(path, mapper):
    return JobConf(name="t", mapper=mapper, reducer=CountReducer,
                   inputs=[RecordFileInput(path)])


class TestSynthesis:
    def _analysis(self, path, mapper):
        return ANALYZER.analyze_job(_job(path, mapper)).inputs[0]

    def test_selection_plus_projection_combined(self, tmp_path, webpage_file):
        ia = self._analysis(webpage_file, RankFilterMapper())
        program = synthesize_program(ia, webpage_file)
        assert program.kind == cat.KIND_SELECTION_PROJECTION
        assert program.key_field == "rank"

    def test_restriction_to_selection_only(self, webpage_file):
        ia = self._analysis(webpage_file, RankFilterMapper())
        program = synthesize_program(ia, webpage_file,
                                     allowed_kinds=[cat.KIND_SELECTION])
        assert program.kind == cat.KIND_SELECTION

    def test_projection_only_mapper(self, webpage_file):
        ia = self._analysis(webpage_file, UrlRankMapper())
        program = synthesize_program(ia, webpage_file)
        # WebPage has numeric rank -> projection combines with delta.
        assert program.kind == cat.KIND_PROJECTION_DELTA
        assert set(program.value_fields) == {"url", "rank"}

    def test_nothing_to_synthesize(self, webpage_file):
        class UsesEverything(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value.url, value)

        ia = self._analysis(webpage_file, UsesEverything())
        program = synthesize_program(
            ia, webpage_file,
            allowed_kinds=[cat.KIND_SELECTION, cat.KIND_PROJECTION],
        )
        assert program is None

    def test_selection_never_combines_with_delta(self, webpage_file):
        """Paper footnote 3: selection is favored over delta-compression."""
        ia = self._analysis(webpage_file, RankFilterMapper())
        program = synthesize_program(ia, webpage_file)
        assert "delta" not in program.kind


class TestIndexBuildAndPlan:
    def test_selection_index_contents(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, RankFilterMapper(threshold=40))
        entries = system.build_indexes(
            job, allowed_kinds=[cat.KIND_SELECTION]
        )
        assert len(entries) == 1
        entry = entries[0]
        assert entry.key_field == "rank"
        with IndexFileReader(entry.index_path) as reader:
            assert reader.count_records() == 500  # all records indexed
            assert reader.key_field == "rank"
            ranks = [v.rank for _k, v in reader.iter_records()]
        assert ranks == sorted(ranks)
        assert entry.stats["index_records"] == 500

    def test_plan_prefers_combined_over_plain(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, RankFilterMapper())
        analysis = system.analyze(job)
        # Build BOTH a plain selection index and a combined one.
        system.build_indexes(job, analysis,
                             allowed_kinds=[cat.KIND_SELECTION])
        system.build_indexes(job, analysis,
                             allowed_kinds=[cat.KIND_SELECTION_PROJECTION])
        plan = system.plan(job, analysis)
        assert plan.optimizations() == [cat.KIND_SELECTION_PROJECTION]
        assert isinstance(plan.plans[0].chosen, SelectionIndexInput)

    def test_plan_falls_back_when_projection_insufficient(
        self, tmp_path, webpage_file
    ):
        system = Manimal(str(tmp_path / "cat"))
        narrow_job = _job(webpage_file, RankFilterMapper())
        system.build_indexes(narrow_job,
                             allowed_kinds=[cat.KIND_SELECTION_PROJECTION])

        # A different job on the same file needing MORE fields cannot use
        # the narrow combined index (it lacks `url`).
        class WideFilter(Mapper):
            def __init__(self):
                self.threshold = 40

            def map(self, key, value, ctx):
                if value.rank > self.threshold:
                    ctx.emit(value.url, value.rank)

        wide_job = _job(webpage_file, WideFilter())
        plan = system.plan(wide_job)
        assert not plan.optimized

    def test_unrelated_source_not_matched(self, tmp_path):
        a = write_webpages(tmp_path / "a.rf", 50)
        b = write_webpages(tmp_path / "b.rf", 50)
        system = Manimal(str(tmp_path / "cat"))
        system.build_indexes(_job(a, RankFilterMapper()))
        plan = system.plan(_job(b, RankFilterMapper()))
        assert not plan.optimized

    def test_non_recordfile_input_untouched(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, RankFilterMapper())
        system.build_indexes(job)
        entry = system.catalog.sorted_entries()[0]
        already_optimized = JobConf(
            name="t2", mapper=RankFilterMapper(), reducer=CountReducer,
            inputs=[ColumnarFileInput(entry.index_path)],
        )
        plan = system.plan(already_optimized)
        assert not plan.optimized

    def test_dedupe_equivalent_index_builds(self, tmp_path, webpage_file):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, RankFilterMapper())
        first = system.build_indexes(job)
        second = system.build_indexes(job)
        assert [e.index_id for e in first] == [e.index_id for e in second]
        assert len(system.catalog) == 1


class _RewritingRunner:
    """Runs the build job, then rewrites its source before returning --
    the window a B+Tree build leaves between reading and registering."""

    def __init__(self, rewrite):
        self.rewrite = rewrite

    def run(self, conf):
        result = LocalJobRunner().run(conf)
        self.rewrite()
        return result


class TestBornStaleBuilds:
    """An index over bytes that moved mid-build is never registered."""

    def _assert_nothing_registered(self, system, catalog_dir, job):
        assert len(system.catalog) == 0
        assert index_files(catalog_dir) == []
        assert not system.plan(job).optimized

    def test_btree_build_over_a_moving_source(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 200)
        catalog_dir = str(tmp_path / "cat")
        system = Manimal(catalog_dir)
        job = _job(path, RankFilterMapper())
        [program] = system.index_programs(job)
        assert program.kind == cat.KIND_SELECTION_PROJECTION
        runner = _RewritingRunner(
            lambda: write_webpages(tmp_path / "w.rf", 260))
        with pytest.raises(OptimizerError,
                           match="source changed during index build"):
            program.run(system.catalog, runner)
        self._assert_nothing_registered(system, catalog_dir, job)
        # the next build, over a source that holds still, is fine
        [entry] = system.build_indexes(job)
        assert system.plan(job).plans[0].entry.index_id == entry.index_id

    @pytest.mark.parametrize("kind", [
        cat.KIND_PROJECTION, cat.KIND_PROJECTION_DELTA, cat.KIND_DELTA,
    ])
    def test_rewrite_build_over_a_moving_source(self, tmp_path, monkeypatch,
                                                kind):
        path = write_webpages(tmp_path / "w.rf", 200)
        catalog_dir = str(tmp_path / "cat")
        system = Manimal(catalog_dir)
        job = _job(path, UrlRankMapper())
        [program] = system.index_programs(job, allowed_kinds=[kind])

        def copy_then_rewrite(reader, writer):
            records = copy_columns(reader, writer)
            write_webpages(tmp_path / "w.rf", 260)
            return records

        monkeypatch.setattr(indexgen, "copy_columns", copy_then_rewrite)
        with pytest.raises(OptimizerError,
                           match="source changed during index build"):
            program.run(system.catalog)
        self._assert_nothing_registered(system, catalog_dir, job)


class TestFailedBuilds:
    """A build that raises registers nothing and leaves no file: the
    catalog's registry and its directory still agree."""

    @pytest.mark.parametrize("kind", cat.ALL_KINDS)
    def test_a_truncated_source_leaves_the_directory_unchanged(
            self, tmp_path, kind):
        catalog_dir = str(tmp_path / "cat")
        system = Manimal(catalog_dir)
        # an index already in the directory, which the failure must keep
        healthy = write_webpages(tmp_path / "healthy.rf", 50)
        IndexGenerationProgram(kind=cat.KIND_PROJECTION, source_path=healthy,
                               value_fields=["url"]).run(system.catalog)
        before = index_files(catalog_dir)
        path = write_webpages(tmp_path / "w.rf", 200, block_size=512)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) * 2 // 3])
        program = IndexGenerationProgram(
            kind=kind, source_path=path, key_field="rank",
            value_fields=["url", "rank"], delta_fields=["rank"],
            dict_field="url")
        with pytest.raises(CorruptFileError):
            program.run(system.catalog)
        assert len(system.catalog) == 1
        assert index_files(catalog_dir) == before


MEASURED = Schema("Measured", [
    Field("g", FieldType.INT),
    Field("d", FieldType.DOUBLE),
    Field("note", FieldType.STRING),
])


class AboveQuarterMapper(Mapper):
    def map(self, key, value, ctx):
        if value.d > 0.25:
            ctx.emit(value.g, value.d)


class TestDeclinedBuilds:
    """A NaN has no place in an index's order: the selection index over
    it is skipped, with its reason on record, and the rest still
    builds."""

    def test_nan_skips_the_selection_index_not_the_build(self, tmp_path):
        path = str(tmp_path / "m.rf")
        with RecordFileWriter(path, LONG_SCHEMA, MEASURED) as writer:
            for i, d in enumerate([0.1, float("nan"), 0.5, 0.7,
                                   float("nan"), 0.3]):
                writer.append(LONG_SCHEMA.make(i),
                              MEASURED.make(i % 2, d, "n"))
        conf = JobConf(name="nan", mapper=AboveQuarterMapper(), reducer=None,
                       inputs=[RecordFileInput(path)])
        catalog_dir = str(tmp_path / "cat")
        system = Manimal(catalog_dir)
        outcome = system.submit(conf, build_indexes=True)
        assert sorted(outcome.result.outputs) == sorted(run_job(conf).outputs)
        assert [entry.kind for entry in outcome.built_indexes] == [
            cat.KIND_PROJECTION_DELTA]
        assert "projection+delta via columnar-scan(" in \
            outcome.descriptor.describe()
        skipped = ("skipped selection+projection on d: NaN cannot be a "
                   "B+Tree key")
        [program] = system.index_programs(conf)
        assert program.kind == cat.KIND_PROJECTION_DELTA
        assert skipped in program.describe()
        assert skipped in explain_job(conf, catalog_dir=catalog_dir)
        # recorded: a second build neither retries nor rebuilds
        again = Manimal(catalog_dir).submit(conf, build_indexes=True)
        assert [e.index_id for e in again.built_indexes] == [
            e.index_id for e in outcome.built_indexes]
        assert len(index_files(catalog_dir)) == 1


class TestExecutionEquivalenceByKind:
    """Each optimized input format must preserve job output exactly."""

    @pytest.mark.parametrize("kinds", [
        [cat.KIND_SELECTION],
        [cat.KIND_SELECTION_PROJECTION],
        [cat.KIND_PROJECTION],
        [cat.KIND_PROJECTION_DELTA],
        [cat.KIND_DELTA],
    ])
    def test_rank_filter_equivalent(self, tmp_path, webpage_file, kinds):
        system = Manimal(str(tmp_path / "cat"))
        job = _job(webpage_file, RankFilterMapper(threshold=25))
        baseline = run_job(job)
        system.build_indexes(job, allowed_kinds=kinds)
        plan = system.plan(job)
        if kinds[0] in (cat.KIND_PROJECTION_DELTA, cat.KIND_PROJECTION):
            assert plan.optimizations() == kinds
        result = system.execute(job, plan)
        assert sorted(result.outputs) == sorted(baseline.outputs)
