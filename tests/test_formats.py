"""Tests for input sources/splits and their byte accounting."""

import pytest

from repro.exceptions import JobConfigError
from repro.mapreduce.formats import (
    DeltaFileInput,
    DictionaryFileInput,
    InMemoryInput,
    KeyRange,
    RecordFileInput,
    SelectionIndexInput,
)
from repro.storage.delta import DeltaFileWriter
from repro.storage.dictionary import DictionaryFileWriter
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import STRING_SCHEMA, FieldType
from tests.conftest import WEBPAGE, Residual, write_sorted_index, write_webpages


def _drain(source):
    """Read every split; return (pairs, aggregated reader stats)."""
    pairs = []
    stats = {"stored": 0, "logical": 0, "fields": 0, "records": 0,
             "skipped": 0}
    for split in source.splits(4):
        reader = source.open(split)
        for kv in reader:
            pairs.append(kv)
        stats["stored"] += reader.stored_bytes
        stats["logical"] += reader.logical_bytes
        stats["fields"] += reader.fields
        stats["records"] += reader.records
        stats["skipped"] += reader.skipped
    return pairs, stats


class TestRecordFileInput:
    def test_splits_partition_all_records(self, webpage_file):
        source = RecordFileInput(webpage_file)
        splits = source.splits(4)
        assert len(splits) > 1
        pairs, stats = _drain(source)
        assert stats["records"] == 500
        assert stats["stored"] > 0
        assert stats["fields"] == 500 * 3

    def test_single_split_covers_everything(self, webpage_file):
        source = RecordFileInput(webpage_file)
        splits = source.splits(1)
        assert len(splits) == 1
        pairs, stats = _drain(source)
        assert len(pairs) == 500

    def test_describe(self, webpage_file):
        assert webpage_file in RecordFileInput(webpage_file).describe()


class TestInMemoryInput:
    def test_empty(self):
        assert InMemoryInput([]).splits(4) == []

    def test_splits_and_tags(self):
        source = InMemoryInput([(i, i * 2) for i in range(10)], tag="t")
        assert source.tag == "t"
        pairs, stats = _drain(source)
        assert len(pairs) == 10 and stats["records"] == 10


class TestSelectionIndexInput:
    @pytest.fixture
    def index_path(self, tmp_path, webpage_file):
        from repro.storage.recordfile import RecordFileReader

        with RecordFileReader(webpage_file) as reader:
            pairs = list(reader.iter_records())
        return write_sorted_index(tmp_path / "idx.col", STRING_SCHEMA,
                                  WEBPAGE, "rank", pairs)

    def test_range_scan_returns_matching_records(self, index_path):
        rng = KeyRange(encode_key(FieldType.INT, 40), None)
        source = SelectionIndexInput(index_path, [rng])
        pairs, stats = _drain(source)
        # Ranks 40..49, 10 of each in the 500-row fixture.
        assert len(pairs) == 100
        assert all(v.rank >= 40 for _, v in pairs)
        assert stats["skipped"] == 0

    def test_residual_counts_skips(self, index_path):
        rng = KeyRange(encode_key(FieldType.INT, 40), None)
        source = SelectionIndexInput(
            index_path, [rng], residual=Residual(lambda k, v: v.rank % 2 == 0)
        )
        pairs, stats = _drain(source)
        assert len(pairs) == 50
        assert stats["skipped"] == 50

    def test_multiple_ranges_are_splits(self, index_path):
        ranges = [
            KeyRange(encode_key(FieldType.INT, 0),
                     encode_key(FieldType.INT, 5)),
            KeyRange(encode_key(FieldType.INT, 45), None),
        ]
        source = SelectionIndexInput(index_path, ranges)
        assert len(source.splits(99)) == 2
        pairs, _ = _drain(source)
        assert all(v.rank <= 5 or v.rank >= 45 for _, v in pairs)

    def test_empty_ranges_rejected(self, index_path):
        with pytest.raises(JobConfigError):
            SelectionIndexInput(index_path, [])

    def test_bytes_read_less_than_full_file(self, index_path, webpage_file):
        import os

        rng = KeyRange(encode_key(FieldType.INT, 49),
                       encode_key(FieldType.INT, 49))
        source = SelectionIndexInput(index_path, [rng])
        _, stats = _drain(source)
        assert 0 < stats["stored"] < os.path.getsize(webpage_file) / 4


class TestDeltaAndDictionaryInputs:
    def test_delta_logical_exceeds_stored(self, tmp_path):
        path = str(tmp_path / "d.df")
        with DeltaFileWriter(path, STRING_SCHEMA, WEBPAGE, ["rank"]) as w:
            for i in range(300):
                w.append(STRING_SCHEMA.make(f"k{i}"),
                         WEBPAGE.make(f"http://long-url.example/{i}", 100_000 + i,
                                      "c" * 30))
        pairs, stats = _drain(DeltaFileInput(path))
        assert len(pairs) == 300
        # Stored bytes shrink (deltas), logical bytes reflect decoded size.
        assert stats["logical"] > 0 and stats["stored"] > 0

    def test_dictionary_input_yields_codes(self, tmp_path):
        path = str(tmp_path / "x.dx")
        with DictionaryFileWriter(path, STRING_SCHEMA, WEBPAGE, "url") as w:
            for i in range(100):
                w.append(STRING_SCHEMA.make(f"k{i}"),
                         WEBPAGE.make(f"http://u/{i % 4}", i, "c"))
        pairs, stats = _drain(DictionaryFileInput(path))
        assert {v.url for _, v in pairs} == {0, 1, 2, 3}
        assert stats["records"] == 100


class TestKeyRange:
    def test_keyrange_repr(self):
        rng = KeyRange(b"a", b"b", lo_inclusive=False)
        assert "(" in repr(rng) and "]" in repr(rng)
