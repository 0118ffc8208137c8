"""Tests for the filesystem index catalog."""

import json
import os
import threading

import pytest

from repro.core.optimizer.catalog import (
    KIND_PROJECTION,
    KIND_SELECTION,
    Catalog,
    IndexEntry,
)
from repro.exceptions import CatalogError
from repro.storage import input_identity


def _entry(catalog, kind=KIND_SELECTION, source="/data/in.rf", **kw):
    return IndexEntry(
        index_id=catalog.make_entry_id(),
        kind=kind,
        source_path=source,
        index_path=catalog.next_index_path(kind),
        **kw,
    )


class TestRegistry:
    def test_register_and_get(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat, key_field="rank")
        cat.register(entry)
        assert cat.get(entry.index_id).key_field == "rank"
        assert len(cat) == 1

    def test_persistence_across_instances(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        cat.register(entry)
        cat2 = Catalog(str(tmp_path))
        assert cat2.get(entry.index_id).kind == KIND_SELECTION
        # Counters continue, no id collisions.
        e2 = _entry(cat2, kind=KIND_PROJECTION)
        cat2.register(e2)
        assert len(cat2) == 2

    def test_duplicate_id_rejected(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        cat.register(entry)
        with pytest.raises(CatalogError):
            cat.register(entry)

    def test_unknown_kind_rejected(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        entry.kind = "bogus"
        with pytest.raises(CatalogError):
            cat.register(entry)

    def test_remove(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        cat.register(entry)
        cat.remove(entry.index_id)
        assert len(cat) == 0
        with pytest.raises(CatalogError):
            cat.remove(entry.index_id)

    def test_remove_deletes_the_index_file(self, tmp_path):
        """Same drop as budget eviction: a removed index stops costing
        disk, not just a registry row."""
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        with open(entry.index_path, "wb") as f:
            f.write(b"\x00" * 4096)
        cat.register(entry)
        cat.remove(entry.index_id)
        assert not os.path.exists(entry.index_path)
        assert Catalog(str(tmp_path)).sorted_entries() == []

    def test_source_identity_round_trips_and_decides_freshness(
            self, tmp_path):
        source = tmp_path / "in.rf"
        source.write_bytes(b"v1")
        cat = Catalog(str(tmp_path / "cat"))
        stamped = _entry(cat, source=str(source))
        stamped.source_identity = list(input_identity(str(source)))
        bare = _entry(cat, source=str(source))
        cat.register(stamped)
        cat.register(bare)
        reloaded = Catalog(str(tmp_path / "cat"))
        now = input_identity(str(source))
        assert reloaded.get(stamped.index_id).built_from(now)
        # an entry with no stamp is never fresh: there is nothing to
        # compare, and guessing would be the bug this field closes
        assert reloaded.get(bare.index_id).source_identity is None
        assert not reloaded.get(bare.index_id).built_from(now)
        source.write_bytes(b"v2 is longer")
        assert not reloaded.get(stamped.index_id).built_from(
            input_identity(str(source)))
        # entries_for stays the raw registry query
        assert len(reloaded.entries_for(str(source))) == 2

    def test_corrupt_catalog_file_rejected(self, tmp_path):
        cat = Catalog(str(tmp_path))
        cat.register(_entry(cat))
        with open(os.path.join(str(tmp_path), Catalog.FILENAME), "w") as f:
            f.write("{not json")
        with pytest.raises(CatalogError):
            Catalog(str(tmp_path))


class TestConcurrencySafety:
    """Two engine submissions must not corrupt or half-read the registry."""

    def test_two_instances_never_lose_updates(self, tmp_path):
        """Interleaved registrations through separate Catalog objects
        (one catalog directory shared by two 'processes') all survive."""
        cat_a = Catalog(str(tmp_path))
        cat_b = Catalog(str(tmp_path))
        ids = []
        for i, cat in enumerate([cat_a, cat_b] * 3):
            entry = _entry(cat, source=f"/data/in{i}.rf")
            cat.register(entry)
            ids.append(entry.index_id)
        assert len(set(ids)) == 6  # counters never collide either
        merged = Catalog(str(tmp_path))
        assert {e.index_id for e in merged.sorted_entries()} == set(ids)

    def test_threaded_registrations_and_touches(self, tmp_path):
        cat = Catalog(str(tmp_path))
        seeded = _entry(cat)
        cat.register(seeded)
        errors = []

        def writer(i):
            try:
                for j in range(5):
                    cat.register(_entry(cat, source=f"/data/t{i}-{j}.rf"))
                    cat.touch(seeded.index_id)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cat) == 21
        assert cat.get(seeded.index_id).use_count == 20
        # The on-disk registry parses cleanly and matches memory.
        reread = Catalog(str(tmp_path))
        assert {e.index_id for e in reread.sorted_entries()} == \
            {e.index_id for e in cat.sorted_entries()}

    def test_save_leaves_no_temp_droppings(self, tmp_path):
        cat = Catalog(str(tmp_path))
        for i in range(3):
            cat.register(_entry(cat, source=f"/data/{i}.rf"))
        leftovers = [n for n in os.listdir(str(tmp_path))
                     if n.endswith(".tmp")]
        assert leftovers == []

    def test_generation_tracks_entry_set_not_touches(self, tmp_path):
        cat = Catalog(str(tmp_path))
        g0 = cat.generation
        entry = _entry(cat)
        cat.register(entry)
        g1 = cat.generation
        assert g1 > g0
        cat.touch(entry.index_id)
        assert cat.generation == g1  # LRU touches never invalidate plans
        cat.remove(entry.index_id)
        assert cat.generation > g1

    def test_external_registration_observed_on_next_mutation(self, tmp_path):
        cat_a = Catalog(str(tmp_path))
        cat_b = Catalog(str(tmp_path))
        entry = _entry(cat_b)
        cat_b.register(entry)
        g = cat_a.generation
        # cat_a's next transaction re-reads the registry and adopts it.
        cat_a.register(_entry(cat_a, source="/data/other.rf"))
        assert cat_a.generation > g
        assert cat_a.get(entry.index_id).kind == entry.kind


class TestQueries:
    def test_entries_for_source(self, tmp_path):
        cat = Catalog(str(tmp_path))
        a = _entry(cat, source="/data/a.rf")
        b = _entry(cat, source="/data/b.rf", kind=KIND_PROJECTION)
        c = _entry(cat, source="/data/a.rf", kind=KIND_PROJECTION)
        for e in (a, b, c):
            cat.register(e)
        assert len(cat.entries_for("/data/a.rf")) == 2
        assert len(cat.entries_for("/data/a.rf", KIND_PROJECTION)) == 1
        assert cat.entries_for("/data/zzz.rf") == []

    def test_source_path_normalized(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat, source="/data/x/../a.rf")
        cat.register(entry)
        assert len(cat.entries_for("/data/a.rf")) == 1


class TestSpaceOverhead:
    def test_overhead_fraction(self, tmp_path):
        cat = Catalog(str(tmp_path))
        entry = _entry(cat)
        entry.stats = {"source_bytes": 1000, "index_bytes": 200}
        assert entry.space_overhead() == pytest.approx(0.2)

    def test_overhead_unknown_without_stats(self, tmp_path):
        cat = Catalog(str(tmp_path))
        assert _entry(cat).space_overhead() is None
