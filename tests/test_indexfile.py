"""The index file: a record file sorted on one field, fenced per block.

``repro.storage.indexfile`` is the block-file container with magic
``RPIX``, the identity codec and a footer of per-block fences (length,
record count, first and last order key).  Its writer takes pairs in
non-decreasing order of the indexed field only; its reader opens through
``open_block_file``, charges the fences it reads, and turns any damage
to the header or the footer into a ``CorruptFileError`` with its file
closed -- CI runs this module with ``ResourceWarning`` promoted to an
error.
"""

import json

import pytest

from repro.exceptions import BTreeError, CorruptFileError, SchemaError
from repro.mapreduce.formats import KeyRange, SelectionIndexInput
from repro.storage import blockfile, open_block_file, varint
from repro.storage.indexfile import (
    INDEX_BLOCK_SIZE,
    IndexFileReader,
    IndexFileWriter,
)
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema

PAIR = Schema("Pair", [Field("a", FieldType.INT), Field("b", FieldType.STRING),
                       Field("raw", FieldType.BYTES)])
POINTER_BYTES = 8


@pytest.fixture
def opened(monkeypatch):
    """Every file the container opens during the test."""
    files = []

    def spy(*args, **kwargs):
        f = open(*args, **kwargs)
        files.append(f)
        return f

    monkeypatch.setattr(blockfile, "open", spy, raising=False)
    return files


def _write(path, n, block_size=256):
    """``n`` pairs whose ``a`` runs 0, 0, 0, 1, 1, 1, ... (duplicates
    straddle blocks)."""
    with IndexFileWriter(str(path), LONG_SCHEMA, PAIR, "a",
                         block_size=block_size) as writer:
        for i in range(n):
            writer.append(LONG_SCHEMA.make(i), PAIR.make(i // 3, f"s{i}", b"r"))
    return str(path)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _rewrite(path, raw):
    with open(path, "wb") as f:
        f.write(bytes(raw))


class TestRoundTrip:
    def test_opens_by_magic_and_reads_back_in_order(self, tmp_path):
        path = _write(tmp_path / "i.sidx", 200)
        with open_block_file(path) as reader:
            assert type(reader) is IndexFileReader
            assert reader.key_field == "a"
            pairs = list(reader.iter_records())
        assert [k.value for k, _v in pairs] == list(range(200))
        assert [v.a for _k, v in pairs] == [i // 3 for i in range(200)]

    def test_fence_directory_equals_the_block_walk(self, tmp_path):
        path = _write(tmp_path / "i.sidx", 200)
        with IndexFileReader(path) as reader:
            fenced = reader.range_blocks(None, None)
            walked = reader.blocks()
            assert len(fenced) > 5
            assert [(b.offset, b.length, b.n_records) for b in fenced] == \
                [(b.offset, b.length, b.n_records) for b in walked]
            for block, first, last in zip(fenced, reader._firsts,
                                          reader._lasts):
                [(payload, n)] = reader.iter_block_payloads([block])
                keys = [reader.order_key(v)
                        for _k, v in reader.decode_block(payload, n)]
                assert (keys[0], keys[-1]) == (first, last)

    def test_a_key_at_a_time_writes_the_same_bytes(self, tmp_path):
        path = _write(tmp_path / "one.sidx", 200)
        grouped = str(tmp_path / "grouped.sidx")
        with IndexFileWriter(grouped, LONG_SCHEMA, PAIR, "a",
                             block_size=256) as writer:
            for a in range(67):
                writer.append_sorted(encode_key(FieldType.INT, a), [
                    (i, a, f"s{i}", b"r")
                    for i in range(3 * a, min(3 * a + 3, 200))])
        assert _read(grouped) == _read(path)

    def test_fences_are_charged_on_open(self, tmp_path):
        path = _write(tmp_path / "i.sidx", 200)
        with IndexFileReader(path) as reader:
            footer = reader.file_size() - reader._data_end
            assert reader.bytes_read == footer

    def test_default_block_size_is_a_page(self, tmp_path):
        path = str(tmp_path / "i.sidx")
        with IndexFileWriter(path, LONG_SCHEMA, PAIR, "a") as writer:
            assert writer.block_size == INDEX_BLOCK_SIZE == 4096
            for i in range(600):
                writer.append(LONG_SCHEMA.make(i), PAIR.make(i, "x" * 20, b""))
        with IndexFileReader(path) as reader:
            assert {b.length // 1024 for b in reader.blocks()[:-1]} == {4}

    def test_empty_index(self, tmp_path):
        path = _write(tmp_path / "e.sidx", 0)
        with IndexFileReader(path) as reader:
            assert reader.blocks() == [] and list(reader) == []
            assert reader.range_blocks(None, None) == []


class TestRangeBlocks:
    @pytest.mark.parametrize("lo_inclusive", [True, False])
    @pytest.mark.parametrize("hi_inclusive", [True, False])
    def test_run_holds_the_range_and_only_its_edges_need_a_check(
            self, tmp_path, lo_inclusive, hi_inclusive):
        path = _write(tmp_path / "i.sidx", 300, block_size=128)
        with IndexFileReader(path) as reader:
            blocks = reader.blocks()
            keys = []  # per block, its records' order keys
            for payload, n in reader.iter_block_payloads(blocks):
                keys.append([reader.order_key(v)
                             for _k, v in reader.decode_block(payload, n)])
            bounds = [None] + [encode_key(FieldType.INT, v)
                               for v in (0, 7, 33, 99, 100)]
            for lo in bounds:
                for hi in bounds:
                    rng = KeyRange(lo, hi, lo_inclusive, hi_inclusive)
                    run = reader.range_blocks(lo, hi, lo_inclusive,
                                              hi_inclusive)
                    offsets = [b.offset for b in blocks]
                    positions = [offsets.index(b.offset) for b in run]
                    assert positions == list(range(
                        positions[0], positions[0] + len(positions))) \
                        if positions else True
                    hits = {i for i, block in enumerate(keys)
                            if any(map(rng.admits, block))}
                    assert hits <= set(positions)
                    for i in positions[1:-1]:
                        assert all(map(rng.admits, keys[i]))


class TestWriterChecks:
    def test_out_of_order_append_is_refused(self, tmp_path):
        path = str(tmp_path / "i.sidx")
        with IndexFileWriter(path, LONG_SCHEMA, PAIR, "a") as writer:
            writer.append(LONG_SCHEMA.make(0), PAIR.make(5, "x", b""))
            writer.append(LONG_SCHEMA.make(1), PAIR.make(5, "y", b""))
            with pytest.raises(BTreeError, match="non-decreasing"):
                writer.append(LONG_SCHEMA.make(2), PAIR.make(4, "z", b""))

    def test_key_field_must_be_a_field(self, tmp_path):
        path = tmp_path / "i.sidx"
        with pytest.raises(SchemaError):
            IndexFileWriter(str(path), LONG_SCHEMA, PAIR, "nope")
        assert not path.exists()

    def test_bytes_have_no_order_key(self, tmp_path):
        with IndexFileWriter(str(tmp_path / "i.sidx"), LONG_SCHEMA, PAIR,
                             "raw") as writer:
            with pytest.raises(BTreeError, match="not a comparable key type"):
                writer.append(LONG_SCHEMA.make(0), PAIR.make(0, "x", b"r"))


class TestDamage:
    """Every damaged header or footer is a CorruptFileError, for the
    reader and for a selection-index input alike, and leaks nothing."""

    def _assert_rejected(self, path, opened, match):
        with pytest.raises(CorruptFileError, match=match):
            IndexFileReader(path)
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        with pytest.raises(CorruptFileError, match=match):
            source.splits(1)
        assert opened and all(f.closed for f in opened)

    def test_bad_fence_footer_pointer(self, tmp_path, opened):
        path = _write(tmp_path / "i.sidx", 50)
        raw = _read(path)
        for pointer in (0, len(raw), 2 ** 63):
            _rewrite(path, raw[:-POINTER_BYTES]
                     + pointer.to_bytes(POINTER_BYTES, "little"))
            self._assert_rejected(path, opened, "bad fence footer pointer")

    def test_truncated_fence_footer(self, tmp_path, opened):
        path = _write(tmp_path / "i.sidx", 50)
        raw = _read(path)
        data_end = int.from_bytes(raw[-POINTER_BYTES:], "little")
        for cut in (1, 2, 5):
            _rewrite(path, raw[:data_end + cut] + raw[-POINTER_BYTES:])
            self._assert_rejected(path, opened, "fence footer")

    @pytest.mark.parametrize("damage", [
        lambda footer: bytes([footer[0] - 1]) + footer[1:],
        lambda footer: footer[:4] + bytes([footer[4] + 1]) + footer[5:],
        lambda footer: footer[:-20] + bytes([footer[-20] + 1])
        + footer[-19:],
        lambda footer: footer + b"\x00",
    ], ids=["block-count", "block-length", "fence-key", "trailing-byte"])
    def test_fences_that_miss_the_blocks(self, tmp_path, opened, damage):
        path = _write(tmp_path / "i.sidx", 50)
        raw = _read(path)
        data_end = int.from_bytes(raw[-POINTER_BYTES:], "little")
        _rewrite(path, raw[:data_end] + damage(raw[data_end:-POINTER_BYTES])
                 + raw[-POINTER_BYTES:])
        self._assert_rejected(path, opened, "fence")

    def test_fences_out_of_order(self, tmp_path, opened):
        with IndexFileWriter(str(tmp_path / "i.sidx"), LONG_SCHEMA, PAIR,
                             "b", block_size=16) as writer:
            for text in ("a", "b"):
                writer.append(LONG_SCHEMA.make(0), PAIR.make(0, text, b""))
        path = str(tmp_path / "i.sidx")
        raw = bytearray(_read(path))
        data_end = int.from_bytes(raw[-POINTER_BYTES:], "little")
        # the last fence key is the footer's last byte before the pointer
        assert raw[-POINTER_BYTES - 1:-POINTER_BYTES] == b"b"
        raw[-POINTER_BYTES - 1] = ord("0")
        assert data_end < len(raw)
        _rewrite(path, raw)
        self._assert_rejected(path, opened, "fences do not describe")

    def test_schemaless_header(self, tmp_path, opened):
        path = _write(tmp_path / "i.sidx", 5)
        raw = _read(path)
        header_len, start = varint.decode_uvarint(raw, 4)
        header = json.loads(raw[start:start + header_len])
        for missing in ("value_schema", "key_field"):
            broken = dict(header)
            del broken[missing]
            body = json.dumps(broken, sort_keys=True).encode("utf-8")
            _rewrite(path, raw[:4] + varint.encode_uvarint(len(body)) + body
                     + raw[start + header_len:])
            self._assert_rejected(path, opened, "unreadable header")

    def test_split_reader_closes_its_file_when_the_file_changed(
            self, tmp_path, opened):
        path = _write(tmp_path / "i.sidx", 50)
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        [split] = source.splits(1)
        raw = _read(path)
        _rewrite(path, raw[:-POINTER_BYTES] + (0).to_bytes(POINTER_BYTES,
                                                          "little"))
        with pytest.raises(CorruptFileError, match="bad fence footer pointer"):
            source.open(split)
        assert all(f.closed for f in opened)
