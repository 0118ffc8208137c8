"""A selection index is a sorted columnar copy, fenced per block.

A columnar file (magic ``RPCL``) one of whose fields has the codec
``sorted`` is stored plain, with rows in that field's order, and after
the empty code table its footer holds per-block fences: each block's
first and last order key of that field.
Its reader opens through ``open_block_file``, bisects the fences into a
range's one run of blocks (``range_blocks``), and turns any damage to
the header or the footer into a ``CorruptFileError`` with its file
closed -- CI runs this module with ``ResourceWarning`` promoted to an
error.
"""

import json

import pytest

from repro.exceptions import BTreeError, CorruptFileError, SchemaError, StorageError
from repro.mapreduce.formats import KeyRange, SelectionIndexInput
from repro.storage import blockfile, open_block_file, varint
from repro.storage.columnar import (
    INDEX_BLOCK_SIZE,
    ColumnarFileReader,
    ColumnarFileWriter,
)
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, OpaqueSchema, Schema

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


def _pairs(n):
    """``n`` pairs whose ``a`` runs 0, 0, 0, 1, 1, 1, ... (duplicates
    straddle blocks)."""
    return [(LONG_SCHEMA.make(i), PAIR.make(i // 3, f"s{i}", b"r"))
            for i in range(n)]


def _write(path, n, block_size=256):
    with ColumnarFileWriter(str(path), LONG_SCHEMA, PAIR, {"a": "sorted"},
                            block_size=block_size) as writer:
        for key, value in _pairs(n):
            writer.append(key, value)
    return str(path)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _rewrite(path, raw):
    with open(path, "wb") as f:
        f.write(bytes(raw))


def _order_keys(reader, block):
    [(payload, n)] = reader.iter_block_payloads([block])
    return [encode_key(FieldType.INT, v.a)
            for _k, v in reader.decode_block(payload, n)]


class TestRoundTrip:
    def test_opens_by_magic_and_reads_back_in_order(self, tmp_path):
        path = _write(tmp_path / "i.col", 200)
        with open_block_file(path) as reader:
            assert type(reader) is ColumnarFileReader
            assert reader.key_field == "a"
            assert reader.codecs == {"a": "sorted"}
            pairs = list(reader.iter_records())
        assert [k.value for k, _v in pairs] == list(range(200))
        assert [v.a for _k, v in pairs] == [i // 3 for i in range(200)]

    def test_fence_directory_equals_the_block_walk(self, tmp_path):
        path = _write(tmp_path / "i.col", 200)
        with ColumnarFileReader(path) as reader:
            fenced = reader.range_blocks(None, None)
            walked = reader.blocks()
            assert len(fenced) > 5
            assert [(b.offset, b.length, b.n_records) for b in fenced] == \
                [(b.offset, b.length, b.n_records) for b in walked]
            _blocks, keys = reader.fences()
            firsts, lasts = keys[0::2], keys[1::2]
            for block, first, last in zip(fenced, firsts, lasts):
                keys = _order_keys(reader, block)
                assert (keys[0], keys[-1]) == (first, last)

    def test_columns_at_once_write_the_same_bytes(self, tmp_path):
        path = _write(tmp_path / "one.col", 200)
        bulk = str(tmp_path / "bulk.col")
        rows = [key.as_tuple() + value.as_tuple() for key, value in _pairs(200)]
        with ColumnarFileWriter(bulk, LONG_SCHEMA, PAIR, {"a": "sorted"},
                                block_size=256) as writer:
            writer.append_columns(list(map(list, zip(*rows))), len(rows))
        assert _read(bulk) == _read(path)

    def test_an_unsorted_copy_keeps_its_footer(self, tmp_path):
        sorted_copy = _write(tmp_path / "i.col", 200)
        plain = str(tmp_path / "plain.col")
        with ColumnarFileWriter(plain, LONG_SCHEMA, PAIR,
                                block_size=256) as writer:
            for key, value in _pairs(200):
                writer.append(key, value)
        with ColumnarFileReader(plain) as reader:
            assert reader.key_field is None
            assert reader.file_size() - reader._data_end == 1 + POINTER_BYTES
            with pytest.raises(StorageError, match="not a sorted copy"):
                reader.range_blocks(None, None)
        with ColumnarFileReader(sorted_copy) as fenced, \
                ColumnarFileReader(plain) as unfenced:
            assert [b.n_records for b in fenced.blocks()] == \
                [b.n_records for b in unfenced.blocks()]

    def test_opening_reads_no_fences(self, tmp_path):
        path = _write(tmp_path / "i.col", 200)
        with ColumnarFileReader(path) as reader:
            assert reader.bytes_read == 0
            blocks = reader.range_blocks(encode_key(FieldType.INT, 10), None)
            assert reader.bytes_read == 0
            list(reader.iter_block_payloads(blocks))
            assert reader.bytes_read == sum(b.length for b in blocks)

    def test_blocks_are_cut_where_a_page_sized_record_file_cuts(
            self, tmp_path):
        pairs = [(LONG_SCHEMA.make(i), PAIR.make(i, "x" * 20, b""))
                 for i in range(600)]
        path = str(tmp_path / "i.col")
        with ColumnarFileWriter(path, LONG_SCHEMA, PAIR, {"a": "sorted"},
                                INDEX_BLOCK_SIZE) as writer:
            assert writer.block_size == INDEX_BLOCK_SIZE == 4096
            for key, value in pairs:
                writer.append(key, value)
        row_major = str(tmp_path / "i.rf")
        with RecordFileWriter(row_major, LONG_SCHEMA, PAIR,
                              block_size=INDEX_BLOCK_SIZE) as writer:
            for key, value in pairs:
                writer.append(key, value)
        with ColumnarFileReader(path) as copy, \
                RecordFileReader(row_major) as records:
            assert len(copy.blocks()) > 3
            assert [b.n_records for b in copy.blocks()] == \
                [b.n_records for b in records.blocks()]

    def test_empty_index(self, tmp_path):
        path = _write(tmp_path / "e.col", 0)
        with ColumnarFileReader(path) as reader:
            assert reader.blocks() == [] and list(reader) == []
            assert reader.range_blocks(None, None) == []


class TestRangeBlocks:
    @pytest.mark.parametrize("lo_inclusive", [True, False])
    @pytest.mark.parametrize("hi_inclusive", [True, False])
    def test_run_holds_the_range_and_only_its_edges_need_a_check(
            self, tmp_path, lo_inclusive, hi_inclusive):
        path = _write(tmp_path / "i.col", 300, block_size=128)
        with ColumnarFileReader(path) as reader:
            blocks = reader.blocks()
            keys = [_order_keys(reader, block) for block in blocks]
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
        path = str(tmp_path / "i.col")
        with ColumnarFileWriter(path, LONG_SCHEMA, PAIR,
                                {"a": "sorted"}) as writer:
            writer.append(LONG_SCHEMA.make(0), PAIR.make(5, "x", b""))
            writer.append(LONG_SCHEMA.make(1), PAIR.make(5, "y", b""))
            with pytest.raises(BTreeError, match="non-decreasing"):
                writer.append(LONG_SCHEMA.make(2), PAIR.make(4, "z", b""))
            # rows out of order inside one append, and the refused rows
            # left nothing behind
            with pytest.raises(BTreeError, match="non-decreasing"):
                writer.append_columns([[3, 4], [7, 6], ["p", "q"],
                                       [b"", b""]], 2)
            assert writer.records_written == 2
            writer.append(LONG_SCHEMA.make(3), PAIR.make(5, "w", b""))
        with ColumnarFileReader(path) as reader:
            assert [v.b for _k, v in reader.iter_records()] == ["x", "y", "w"]

    def test_only_a_sorted_copy_takes_an_opaque_value_schema(self, tmp_path):
        opaque = OpaqueSchema("IndexFileOpaque", PAIR.fields)
        path = tmp_path / "o.col"
        with pytest.raises(SchemaError, match="transparent"):
            ColumnarFileWriter(str(path), LONG_SCHEMA, opaque)
        with pytest.raises(SchemaError, match="transparent"):
            ColumnarFileWriter(str(path), opaque, PAIR, {"a": "sorted"})
        assert not path.exists()

    def test_key_field_must_be_a_field(self, tmp_path):
        path = tmp_path / "i.col"
        with pytest.raises(SchemaError):
            ColumnarFileWriter(str(path), LONG_SCHEMA, PAIR, {"nope": "sorted"})
        with pytest.raises(SchemaError, match="at most one"):
            ColumnarFileWriter(str(path), LONG_SCHEMA, PAIR,
                               {"a": "sorted", "b": "sorted"})
        assert not path.exists()

    def test_bytes_have_no_order_key(self, tmp_path):
        path = tmp_path / "i.col"
        with pytest.raises(SchemaError, match="does not apply to bytes"):
            ColumnarFileWriter(str(path), LONG_SCHEMA, PAIR, {"raw": "sorted"})
        assert not path.exists()

    def test_string_fences_are_the_utf8_bytes(self, tmp_path):
        path = str(tmp_path / "s.col")
        with ColumnarFileWriter(path, LONG_SCHEMA, PAIR, {"b": "sorted"},
                                block_size=1) as writer:
            for i, text in enumerate(["a", "z", "é"]):
                writer.append(LONG_SCHEMA.make(i), PAIR.make(0, text, b""))
        with ColumnarFileReader(path) as reader:
            _blocks, keys = reader.fences()
            firsts, lasts = keys[0::2], keys[1::2]
        assert firsts == lasts == [encode_key(FieldType.STRING, text)
                                   for text in ["a", "z", "é"]]


class TestDamage:
    """Every damaged header or footer is a CorruptFileError, for the
    reader and for a selection-index input alike, and leaks nothing."""

    def _assert_rejected(self, path, opened, match):
        with pytest.raises(CorruptFileError, match=match):
            with ColumnarFileReader(path) as reader:
                reader.range_blocks(None, None)
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        with pytest.raises(CorruptFileError, match=match):
            source.splits(1)
        assert opened and all(f.closed for f in opened)

    def test_bad_footer_pointer(self, tmp_path, opened):
        path = _write(tmp_path / "i.col", 50)
        raw = _read(path)
        for pointer in (0, len(raw), 2 ** 63):
            _rewrite(path, raw[:-POINTER_BYTES]
                     + pointer.to_bytes(POINTER_BYTES, "little"))
            self._assert_rejected(path, opened, "bad code table footer pointer")

    def test_truncated_fence_footer(self, tmp_path, opened):
        path = _write(tmp_path / "i.col", 50)
        raw = _read(path)
        data_end = int.from_bytes(raw[-POINTER_BYTES:], "little")
        for cut in (1, 2, 5):
            _rewrite(path, raw[:data_end + cut] + raw[-POINTER_BYTES:])
            self._assert_rejected(path, opened, "fence")

    @pytest.mark.parametrize("damage", [
        lambda footer: footer[:1] + bytes([footer[1] - 1]) + footer[2:],
        lambda footer: footer[:3] + bytes([footer[3] + 1]) + footer[4:],
        # the last block's first key overtakes its last
        lambda footer: footer[:-16] + b"\xff" + footer[-15:],
        lambda footer: b"\x01" + footer[1:],
        lambda footer: footer + b"\x00",
    ], ids=["block-count", "segment-length", "fence-key", "code-table",
            "trailing-byte"])
    def test_fences_that_miss_the_blocks(self, tmp_path, opened, damage):
        path = _write(tmp_path / "i.col", 50)
        raw = _read(path)
        data_end = int.from_bytes(raw[-POINTER_BYTES:], "little")
        _rewrite(path, raw[:data_end] + damage(raw[data_end:-POINTER_BYTES])
                 + raw[-POINTER_BYTES:])
        self._assert_rejected(path, opened, "fence")

    def test_fences_out_of_order(self, tmp_path, opened):
        with ColumnarFileWriter(str(tmp_path / "i.col"), LONG_SCHEMA, PAIR,
                                {"b": "sorted"}, block_size=16) as writer:
            for text in ("a", "b"):
                writer.append(LONG_SCHEMA.make(0), PAIR.make(0, text, b""))
        path = str(tmp_path / "i.col")
        raw = bytearray(_read(path))
        # the last fence key is the footer's last byte before the pointer
        assert raw[-POINTER_BYTES - 1:-POINTER_BYTES] == b"b"
        raw[-POINTER_BYTES - 1] = ord("0")
        _rewrite(path, raw)
        self._assert_rejected(path, opened, "fences do not describe")

    def test_schemaless_header(self, tmp_path, opened):
        path = _write(tmp_path / "i.col", 5)
        raw = _read(path)
        header_len, start = varint.decode_uvarint(raw, 4)
        header = json.loads(raw[start:start + header_len])
        del header["value_schema"]
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        _rewrite(path, raw[:4] + varint.encode_uvarint(len(body)) + body
                 + raw[start + header_len:])
        self._assert_rejected(path, opened, "unreadable header")

    def test_split_reader_closes_its_file_when_the_file_changed(
            self, tmp_path, opened):
        path = _write(tmp_path / "i.col", 50)
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        [split] = source.splits(1)
        raw = _read(path)
        _rewrite(path, raw[:-POINTER_BYTES] + (0).to_bytes(POINTER_BYTES,
                                                          "little"))
        with pytest.raises(CorruptFileError,
                           match="bad code table footer pointer"):
            source.open(split)
        assert all(f.closed for f in opened)
