"""The block-file container, tested once over its three value codecs.

Record (``RPRF``), delta (``RPDF``) and dictionary (``RPDX``) files share
one reader/writer (``repro.storage.blockfile``), so every way a file can
be damaged -- and every way a reader or split reader can be abandoned
half-way -- must fail the same way whichever codec the file carries, and
must never leave a file handle open.  CI additionally runs this module
with ``ResourceWarning`` promoted to an error, so a leak on any path here
fails the build even where no assertion looks for it.
"""

import json

import pytest

from repro.exceptions import CorruptFileError, SerializationError
from repro.mapreduce.formats import (
    DeltaFileInput,
    DictionaryFileInput,
    KeyRange,
    RecordFileInput,
    SelectionIndexInput,
    SplitReader,
    frame_index_entry,
)
from repro.storage import blockfile, btree, open_block_file, varint
from repro.storage.btree import BTreeBuilder
from repro.storage.delta import DeltaFileReader, DeltaFileWriter
from repro.storage.dictionary import DictionaryFileReader, DictionaryFileWriter
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Schema,
)

PAIR = Schema("Pair", [Field("a", FieldType.INT), Field("b", FieldType.STRING)])

POINTER_BYTES = 8  # the dictionary footer's trailing pointer


class Format:
    """One codec binding: how to write, read and scan a PAIR file."""

    def __init__(self, magic, reader, source, writer_class, *codec_args):
        self.magic = magic
        self.reader = reader
        self.source = source
        self._writer_class = writer_class
        self._codec_args = codec_args

    def writer(self, path, **kwargs):
        return self._writer_class(str(path), LONG_SCHEMA, PAIR,
                                  *self._codec_args, **kwargs)

    def write(self, path, n, block_size=512):
        with self.writer(path, block_size=block_size) as w:
            for i in range(n):
                w.append(LONG_SCHEMA.make(i), PAIR.make(i * 2, f"s{i}"))
        return str(path)

    # The data region is everything after the header up to the footer;
    # only dictionary files have a footer (table + pointer to its start).

    def data_end(self, raw):
        if self.magic == b"RPDX":
            return int.from_bytes(raw[-POINTER_BYTES:], "little")
        return len(raw)

    def cut_data_tail(self, raw, n):
        """``raw`` with the last ``n`` data bytes gone, footer re-pointed."""
        end = self.data_end(raw)
        if self.magic != b"RPDX":
            return raw[:end - n]
        table = raw[end:-POINTER_BYTES]
        return (raw[:end - n] + table
                + (end - n).to_bytes(POINTER_BYTES, "little"))

    def __repr__(self):
        return self.magic.decode()


FORMATS = [
    Format(b"RPRF", RecordFileReader, RecordFileInput, RecordFileWriter),
    Format(b"RPDF", DeltaFileReader, DeltaFileInput, DeltaFileWriter, ["a"]),
    Format(b"RPDX", DictionaryFileReader, DictionaryFileInput,
           DictionaryFileWriter, "b"),
]


@pytest.fixture(params=FORMATS, ids=repr)
def fmt(request):
    return request.param


@pytest.fixture
def opened(monkeypatch):
    """Every file the storage layer opens during the test."""
    files = []

    def spy(*args, **kwargs):
        f = open(*args, **kwargs)
        files.append(f)
        return f

    for module in (blockfile, btree):
        monkeypatch.setattr(module, "open", spy, raising=False)
    return files


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _rewrite(path, raw):
    with open(path, "wb") as f:
        f.write(bytes(raw))


def _n_records_byte(raw, block):
    """Offset of ``block``'s n_records uvarint (one byte for small counts)."""
    _payload_len, pos = varint.decode_uvarint(raw, block.offset)
    return pos


def _header_span(raw):
    """(start, end) of the header JSON inside ``raw``."""
    header_len, start = varint.decode_uvarint(raw, 4)
    return start, start + header_len


class TestCorruption:
    def test_bad_magic(self, tmp_path, fmt, opened):
        path = tmp_path / "bad.rf"
        path.write_bytes(b"NOPE" + b"\x00" * 50)
        with pytest.raises(CorruptFileError):
            fmt.reader(str(path))
        assert all(f.closed for f in opened)

    def test_another_formats_magic_is_rejected(self, tmp_path, fmt):
        for other in FORMATS:
            if other is not fmt:
                path = other.write(tmp_path / f"{other!r}.bin", 3)
                with pytest.raises(CorruptFileError, match="bad magic"):
                    fmt.reader(path)

    def test_truncated_block(self, tmp_path, fmt):
        path = fmt.write(tmp_path / "f.rf", 50, block_size=128)
        _rewrite(path, fmt.cut_data_tail(_read(path), 10))
        with fmt.reader(path) as r:
            with pytest.raises(CorruptFileError):
                list(r.iter_records())

    def test_writer_use_after_close(self, tmp_path, fmt):
        w = fmt.writer(tmp_path / "c.rf")
        w.close()
        with pytest.raises(SerializationError):
            w.append(LONG_SCHEMA.make(0), PAIR.make(0, ""))

    def test_bad_block_size_rejected(self, tmp_path, fmt):
        with pytest.raises(SerializationError):
            fmt.writer(tmp_path / "x.rf", block_size=0)

    def test_blocks_rejects_truncated_final_block(self, tmp_path, fmt):
        """A tail cut mid-block must fail loudly at directory-build time.

        Before the extent check, ``blocks()`` seeked past EOF on the
        truncated final block and the loop just ended -- depending on
        the cut, the directory (and therefore every split) could
        silently omit trailing records.
        """
        path = fmt.write(tmp_path / "f.rf", 80, block_size=128)
        raw = _read(path)
        with fmt.reader(path) as intact:
            n_blocks = len(intact.blocks())
        assert n_blocks > 2
        # cut into the middle of the final block's payload
        _rewrite(path, fmt.cut_data_tail(raw, 40))
        with fmt.reader(path) as r:
            with pytest.raises(CorruptFileError, match="truncated final block"):
                r.blocks()
            with pytest.raises(CorruptFileError, match="truncated final block"):
                r.count_records()
        with pytest.raises(CorruptFileError, match="truncated final block"):
            fmt.source(path).splits(4)

    def test_every_tail_cut_raises_or_ends_on_block_boundary(self, tmp_path,
                                                             fmt):
        """No mid-block truncation point may yield a silent short read."""
        path = fmt.write(tmp_path / "f.rf", 80, block_size=128)
        raw = _read(path)
        with fmt.reader(path) as intact:
            boundaries = {
                b.offset + b.length for b in intact.blocks()
            }
            total = intact.count_records()
        data_end = fmt.data_end(raw)
        cut_path = str(tmp_path / "cut.rf")
        for cut in range(1, min(data_end - 20, 400)):
            size = data_end - cut
            _rewrite(cut_path, fmt.cut_data_tail(raw, cut))
            try:
                with fmt.reader(cut_path) as r:
                    n = sum(1 for _ in r.iter_raw(r.blocks()))
            except CorruptFileError:
                continue
            # a clean read of a truncated file is only possible when the
            # cut landed exactly on a block boundary (indistinguishable
            # from a shorter file without a footer)
            assert size in boundaries and n < total

    @pytest.mark.parametrize("bump,message", [
        (+1, "truncated record"),      # span walk runs off the payload
        (-1, "trailing block bytes"),  # a record nobody accounts for
    ])
    def test_wrong_record_count_raises(self, tmp_path, fmt, bump, message):
        path = fmt.write(tmp_path / "f.rf", 5, block_size=4096)
        raw = bytearray(_read(path))
        with fmt.reader(path) as r:
            block = r.blocks()[0]
        raw[_n_records_byte(raw, block)] += bump
        _rewrite(path, raw)
        with fmt.reader(path) as r:
            with pytest.raises(CorruptFileError, match=message):
                list(r.iter_records())
        reader = fmt.source(path).open(fmt.source(path).splits(1)[0])
        with pytest.raises(CorruptFileError, match=message):
            list(reader)


class TestCorruptHeader:
    """Every unreadable header is a CorruptFileError and leaks nothing."""

    def _assert_rejected(self, fmt, path, opened, match):
        with pytest.raises(CorruptFileError, match=match):
            fmt.reader(path)
        with pytest.raises(CorruptFileError, match=match):
            fmt.source(path).splits(2)
        assert opened and all(f.closed for f in opened)

    def test_unparsable_header(self, tmp_path, fmt, opened):
        path = fmt.write(tmp_path / "f.rf", 5)
        raw = bytearray(_read(path))
        start, _end = _header_span(raw)
        raw[start] = ord("!")
        _rewrite(path, raw)
        self._assert_rejected(fmt, path, opened, "unreadable header")

    def test_header_not_utf8(self, tmp_path, fmt, opened):
        path = fmt.write(tmp_path / "f.rf", 5)
        raw = bytearray(_read(path))
        start, _end = _header_span(raw)
        raw[start + 2] = 0xFF
        _rewrite(path, raw)
        self._assert_rejected(fmt, path, opened, "unreadable header")

    def test_truncated_header(self, tmp_path, fmt, opened):
        path = fmt.write(tmp_path / "f.rf", 5)
        raw = _read(path)
        start, _end = _header_span(raw)
        _rewrite(path, raw[:start + 10])
        self._assert_rejected(fmt, path, opened, "truncated header")

    def test_file_ends_inside_header_length(self, tmp_path, fmt, opened):
        path = str(tmp_path / "f.rf")
        _rewrite(path, fmt.magic + b"\x80")
        self._assert_rejected(fmt, path, opened, "truncated varint")

    @pytest.mark.parametrize("missing", ["key_schema", "value_schema"])
    def test_schemaless_header(self, tmp_path, fmt, opened, missing):
        path = fmt.write(tmp_path / "f.rf", 5)
        raw = _read(path)
        start, end = _header_span(raw)
        header = json.loads(raw[start:end])
        del header[missing]
        body = json.dumps(header, sort_keys=True).encode("utf-8")
        _rewrite(path, fmt.magic + varint.encode_uvarint(len(body)) + body
                 + raw[end:])
        self._assert_rejected(fmt, path, opened, "unreadable header")

    def test_header_of_the_wrong_shape(self, tmp_path, fmt, opened):
        path = str(tmp_path / "f.rf")
        body = b'["not", "an", "object"]'
        _rewrite(path, fmt.magic + varint.encode_uvarint(len(body)) + body
                 + b"\x00" * 16)
        self._assert_rejected(fmt, path, opened, "unreadable header")

    def test_codec_field_missing_from_header(self, tmp_path, opened):
        for fmt, extra in ((FORMATS[1], "delta_fields"),
                           (FORMATS[2], "field_name")):
            path = fmt.write(tmp_path / f"{fmt!r}.bin", 5)
            raw = _read(path)
            start, end = _header_span(raw)
            header = json.loads(raw[start:end])
            del header[extra]
            body = json.dumps(header, sort_keys=True).encode("utf-8")
            _rewrite(path, fmt.magic + varint.encode_uvarint(len(body)) + body
                     + raw[end:])
            self._assert_rejected(fmt, path, opened, "unreadable header")

    def test_bad_dictionary_footer_pointer(self, tmp_path, opened):
        fmt = FORMATS[2]
        path = fmt.write(tmp_path / "d.dx", 20)
        raw = _read(path)
        for pointer in (0, len(raw), 2 ** 63):
            _rewrite(path, raw[:-POINTER_BYTES]
                     + pointer.to_bytes(POINTER_BYTES, "little"))
            self._assert_rejected(fmt, path, opened,
                                  "bad dictionary footer pointer")

    def test_dictionary_file_shorter_than_its_footer(self, tmp_path, opened):
        fmt = FORMATS[2]
        path = fmt.write(tmp_path / "d.dx", 0)
        raw = _read(path)
        _start, end = _header_span(raw)
        _rewrite(path, raw[:end + 3])
        self._assert_rejected(fmt, path, opened, "shorter than its footer")


class TestOpenByMagic:
    def test_each_format_opens_with_its_own_reader(self, tmp_path, fmt):
        path = fmt.write(tmp_path / "f.bin", 12)
        with open_block_file(path) as reader:
            assert type(reader) is fmt.reader
            assert reader.count_records() == 12
            assert reader.key_schema == LONG_SCHEMA
            # what a mapper would see: only the dictionary codec retypes
            retyped = fmt.magic == b"RPDX"
            assert (reader.stored_schema != reader.value_schema) == retyped

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 50)
        with pytest.raises(CorruptFileError, match="not a block file"):
            open_block_file(str(path))


class TestAbandonedSplitReader:
    """A scan that ends early still closes its file and reports its bytes."""

    def _fail_midway(self, source, opened):
        split = source.splits(1)[0]
        del opened[:]
        reader = source.open(split)
        with pytest.raises(RuntimeError, match="user bug"):
            for i, _pair in enumerate(reader):
                if i == 3:
                    raise RuntimeError("user bug in map()")
        assert reader.records == 4
        assert reader.stored_bytes > 0
        assert opened and all(f.closed for f in opened)

    def test_finalizer_runs_exactly_once(self):
        calls = []
        reader = SplitReader(iter([(1, "a"), (2, "b")]), calls.append)
        assert list(reader) == [(1, "a"), (2, "b")]
        assert list(reader) == []
        assert calls == [reader]

    def test_block_file_inputs(self, tmp_path, fmt, opened):
        path = fmt.write(tmp_path / "f.bin", 200, block_size=256)
        self._fail_midway(fmt.source(path), opened)

    def test_selection_index_input(self, tmp_path, opened):
        path = str(tmp_path / "idx.bt")
        builder = BTreeBuilder(path, metadata={
            "key_schema": LONG_SCHEMA.to_dict(),
            "value_schema": PAIR.to_dict(),
            "key_field": "a",
        })
        for i in range(200):
            builder.add(
                encode_key(FieldType.INT, i),
                frame_index_entry(LONG_SCHEMA.encode(LONG_SCHEMA.make(i)),
                                  PAIR.encode(PAIR.make(i, f"s{i}"))),
            )
        builder.finish()
        source = SelectionIndexInput(
            path, [KeyRange(encode_key(FieldType.INT, 10), None)])
        self._fail_midway(source, opened)

    def test_corrupt_block_mid_scan(self, tmp_path, fmt, opened):
        path = fmt.write(tmp_path / "f.bin", 200, block_size=256)
        raw = bytearray(_read(path))
        with fmt.reader(path) as r:
            third = r.blocks()[2]
        raw[_n_records_byte(raw, third)] += 1
        _rewrite(path, raw)
        source = fmt.source(path)
        reader = source.open(source.splits(1)[0])
        with pytest.raises(CorruptFileError, match="truncated record"):
            list(reader)
        assert reader.records > 0 and reader.stored_bytes > 0
        assert all(f.closed for f in opened)
