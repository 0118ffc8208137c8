"""Tests for index-generation program synthesis and plan selection."""

import os

import pytest

from repro.core.analyzer import ManimalAnalyzer
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.core.optimizer import indexgen
from repro.core.optimizer.indexgen import synthesize_program
from repro.exceptions import OptimizerError
from repro.mapreduce import (
    JobConf,
    ProjectedFileInput,
    RecordFileInput,
    SelectionIndexInput,
    run_job,
)
from repro.mapreduce.api import Mapper, Reducer
from repro.mapreduce.runtime import LocalJobRunner
from repro.storage.btree import BTree
from repro.storage.columnfile import copy_records
from repro.storage.serialization import STRING_SCHEMA
from repro.workloads.schemas import USERVISITS
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
        with BTree(entry.index_path) as tree:
            assert tree.n_entries == 500  # all records indexed
            assert tree.metadata["key_field"] == "rank"

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
            inputs=[ProjectedFileInput(entry.index_path)],
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

        def copy_then_rewrite(reader, writer, projected):
            records = copy_records(reader, writer, projected)
            write_webpages(tmp_path / "w.rf", 260)
            return records

        monkeypatch.setattr(indexgen, "copy_records", copy_then_rewrite)
        with pytest.raises(OptimizerError,
                           match="source changed during index build"):
            program.run(system.catalog)
        self._assert_nothing_registered(system, catalog_dir, job)


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
