"""Tests for the block-structured record file format.

Corruption handling is the container's, not this format's: see
``tests/test_blockfile.py``, which runs it over all three value codecs.
"""

from hypothesis import given, settings, strategies as st

from repro.storage.recordfile import (
    RecordFileReader,
    RecordFileWriter,
    write_records,
)
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Schema,
)

PAIR = Schema("Pair", [Field("a", FieldType.INT), Field("b", FieldType.STRING)])


def _write(path, n, block_size=512):
    with RecordFileWriter(str(path), LONG_SCHEMA, PAIR,
                          block_size=block_size) as w:
        for i in range(n):
            w.append(LONG_SCHEMA.make(i), PAIR.make(i * 2, f"s{i}"))
    return str(path)


class TestRoundtrip:
    def test_iterate_all(self, tmp_path):
        path = _write(tmp_path / "f.rf", 100)
        with RecordFileReader(path) as r:
            pairs = list(r.iter_records())
        assert len(pairs) == 100
        assert pairs[7][0].value == 7
        assert pairs[7][1].b == "s7"

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "e.rf", 0)
        with RecordFileReader(path) as r:
            assert list(r.iter_records()) == []
            assert r.blocks() == []
            assert r.count_records() == 0

    def test_schemas_preserved_in_header(self, tmp_path):
        path = _write(tmp_path / "f.rf", 1)
        with RecordFileReader(path) as r:
            assert r.key_schema == LONG_SCHEMA
            assert r.value_schema == PAIR

    def test_metadata_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.rf")
        with RecordFileWriter(path, LONG_SCHEMA, PAIR,
                              metadata={"origin": "test"}) as w:
            w.append(LONG_SCHEMA.make(0), PAIR.make(0, ""))
        with RecordFileReader(path) as r:
            assert r.metadata == {"origin": "test"}

    def test_write_records_helper(self, tmp_path):
        path = str(tmp_path / "h.rf")
        n = write_records(
            path, LONG_SCHEMA, PAIR,
            iter((LONG_SCHEMA.make(i), PAIR.make(i, "x")) for i in range(7)),
        )
        assert n == 7
        with RecordFileReader(path) as r:
            assert r.count_records() == 7

    @given(rows=st.lists(
        st.tuples(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                  st.text(max_size=20)),
        max_size=60,
    ))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, rows, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rf") / "p.rf")
        with RecordFileWriter(path, LONG_SCHEMA, PAIR, block_size=128) as w:
            for i, (a, b) in enumerate(rows):
                w.append(LONG_SCHEMA.make(i), PAIR.make(a, b))
        with RecordFileReader(path) as r:
            got = [(v.a, v.b) for _, v in r.iter_records()]
        assert got == rows


class TestBlocks:
    def test_small_block_size_creates_many_blocks(self, tmp_path):
        path = _write(tmp_path / "f.rf", 200, block_size=128)
        with RecordFileReader(path) as r:
            blocks = r.blocks()
            assert len(blocks) > 5
            assert sum(b.n_records for b in blocks) == 200

    def test_reading_block_subset(self, tmp_path):
        path = _write(tmp_path / "f.rf", 200, block_size=128)
        with RecordFileReader(path) as r:
            blocks = r.blocks()
        with RecordFileReader(path) as r:
            first = list(r.iter_records(blocks[:2]))
        with RecordFileReader(path) as r:
            rest = list(r.iter_records(blocks[2:]))
        assert len(first) + len(rest) == 200
        # Subsets are contiguous and ordered.
        assert [k.value for k, _ in first] == list(range(len(first)))

    def test_bytes_read_accounting(self, tmp_path):
        path = _write(tmp_path / "f.rf", 200, block_size=128)
        with RecordFileReader(path) as r:
            blocks = r.blocks()
            assert r.bytes_read == 0  # block scan is header-only
            list(r.iter_records(blocks[:1]))
            partial = r.bytes_read
            assert 0 < partial <= blocks[0].length

    def test_block_enumeration_matches_full_read(self, tmp_path):
        path = _write(tmp_path / "f.rf", 150, block_size=256)
        with RecordFileReader(path) as r:
            total = sum(b.length for b in r.blocks())
            list(r.iter_records())
            assert r.bytes_read == total
