"""Tests for the catalog space budget and LRU eviction."""

import os

import pytest

from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.exceptions import CatalogError
from repro.mapreduce import JobConf, RecordFileInput, run_job
from repro.mapreduce.api import Mapper, Reducer
from tests.conftest import index_files, write_webpages


def _entry(catalog, size, source="/data/a.rf", kind=cat.KIND_PROJECTION,
           make_file=True):
    path = catalog.next_index_path(kind)
    if make_file:
        with open(path, "wb") as f:
            f.write(b"\x00" * size)
    return IndexEntry(
        index_id=catalog.make_entry_id(),
        kind=kind,
        source_path=source,
        index_path=path,
        stats={"index_bytes": size, "source_bytes": size * 10},
    )


class TestBudgetEnforcement:
    def test_oversized_index_refused(self, tmp_path):
        catalog = Catalog(str(tmp_path), space_budget_bytes=100)
        with pytest.raises(CatalogError, match="exceeds"):
            catalog.register(_entry(catalog, 200))

    def test_eviction_frees_space(self, tmp_path):
        catalog = Catalog(str(tmp_path), space_budget_bytes=250)
        first = _entry(catalog, 100)
        second = _entry(catalog, 100)
        catalog.register(first)
        catalog.register(second)
        assert catalog.total_index_bytes() == 200
        third = _entry(catalog, 100)
        catalog.register(third)  # must evict one
        assert catalog.total_index_bytes() <= 250
        assert len(catalog) == 2
        # The evicted file is gone from disk.
        remaining = {e.index_path for e in catalog.sorted_entries()}
        assert not os.path.exists(first.index_path) or \
            first.index_path in remaining

    def test_lru_victim_selection(self, tmp_path):
        catalog = Catalog(str(tmp_path), space_budget_bytes=250)
        a = _entry(catalog, 100)
        b = _entry(catalog, 100)
        catalog.register(a)
        catalog.register(b)
        catalog.touch(a.index_id)  # a becomes recently used
        c = _entry(catalog, 100)
        catalog.register(c)
        ids = {e.index_id for e in catalog.sorted_entries()}
        assert a.index_id in ids, "recently used index must survive"
        assert b.index_id not in ids, "LRU index must be evicted"

    def test_no_budget_means_no_eviction(self, tmp_path):
        catalog = Catalog(str(tmp_path))
        for _ in range(5):
            catalog.register(_entry(catalog, 1000))
        assert len(catalog) == 5

    def test_budget_persisted_usage(self, tmp_path):
        catalog = Catalog(str(tmp_path), space_budget_bytes=10_000)
        entry = _entry(catalog, 100)
        catalog.register(entry)
        catalog.touch(entry.index_id)
        catalog.touch(entry.index_id)
        reloaded = Catalog(str(tmp_path), space_budget_bytes=10_000)
        assert reloaded.get(entry.index_id).use_count == 2


class FilterMapper(Mapper):
    def map(self, key, value, ctx):
        if value.rank > 40:
            ctx.emit(value.rank, 1)


class CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class TestEndToEndWithBudget:
    def test_system_with_budget_still_optimizes(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 300)
        job = JobConf(name="b", mapper=FilterMapper, reducer=CountReducer,
                      inputs=[RecordFileInput(path)])
        system = Manimal(str(tmp_path / "cat"),
                         space_budget_bytes=50 * 1024 * 1024)
        baseline = run_job(job)
        outcome = system.submit(job, build_indexes=True)
        assert outcome.optimized
        assert sorted(outcome.result.outputs) == sorted(baseline.outputs)
        assert system.catalog.total_index_bytes() <= 50 * 1024 * 1024

    def test_rebuild_over_rewritten_source_frees_the_dead_index(
            self, tmp_path):
        """Two indexes fit the budget, three do not.  After the source is
        rewritten and one index rebuilt, the stale equivalent must have
        been dropped *before* the new one registered -- otherwise it
        would still count against the budget and push out a live one."""
        path = write_webpages(tmp_path / "w.rf", 300)
        other = write_webpages(tmp_path / "other.rf", 300)

        def job(source):
            return JobConf(name="b", mapper=FilterMapper,
                           reducer=CountReducer,
                           inputs=[RecordFileInput(source)])

        probe = Manimal(str(tmp_path / "probe"))
        size = probe.build_indexes(
            job(path), allowed_kinds=[cat.KIND_PROJECTION]
        )[0].stats["index_bytes"]
        catalog_dir = str(tmp_path / "cat")
        system = Manimal(catalog_dir, space_budget_bytes=int(size * 2.5))
        kinds = [cat.KIND_PROJECTION]
        [old] = system.build_indexes(job(path), allowed_kinds=kinds)
        [live] = system.build_indexes(job(other), allowed_kinds=kinds)
        # ``old`` is the recently used one, so LRU eviction alone would
        # pick the live index as its victim.
        assert system.plan(job(path)).plans[0].entry.index_id == old.index_id

        write_webpages(tmp_path / "w.rf", 310)
        [new] = system.build_indexes(job(path), allowed_kinds=kinds)
        assert new.index_id != old.index_id
        assert not os.path.exists(old.index_path)
        ids = {e.index_id for e in system.catalog.sorted_entries()}
        assert ids == {live.index_id, new.index_id}
        assert os.path.exists(live.index_path)
        # disk agrees with the registry: no orphaned index files
        assert index_files(catalog_dir) == sorted(
            os.path.basename(e.index_path) for e in (live, new))
