"""The block-file container every record-shaped file format shares.

Record, delta, dictionary and columnar files (and therefore projection
files and partitions, which are record files, and selection indexes,
which are sorted columnar files) are one
container with a different *value codec*, footer or -- for a columnar
file, :mod:`~repro.storage.columnar` -- block payload.  Layout::

    magic (4 bytes) | uvarint header_len | header JSON (UTF-8)
    block*  where block = uvarint payload_len | uvarint n_records | payload
    payload = (uvarint key_len | key bytes | uvarint val_len | val bytes)*
    [footer | footer start (8 bytes, little-endian)]

The header carries the key and value schemas (so files are
self-describing), free-form metadata, and whatever extras the format's
codec needs.  Records are grouped into blocks of roughly ``block_size``
bytes; blocks are the unit of input splitting, playing the role of HDFS
blocks/sync markers: a map task can seek to its first block and read only
its share of the file.  Key bytes are always the key schema's plain
encoding; ``val bytes`` are the codec's business, and codec state never
crosses a block boundary, so every block decodes alone.

All of that is owned here, once.  A format subclasses the writer and the
reader and supplies its ``MAGIC``, header extras (``_header_extras`` /
``_bind_header``), value codec -- on the write side a
:class:`~repro.storage.blockwrite.WriteCodec` naming its delta or
dictionary field (``_write_codec``), whose compiled shape encodes every
append, and a decoder made fresh for every block (``_value_decoder``);
identity by default -- and footer (``_footer``, which the container ends
with a pointer to its start, and ``FOOTER``, which makes the reader stop
the blocks there): see :mod:`~repro.storage.recordfile`,
:mod:`~repro.storage.delta`, :mod:`~repro.storage.dictionary`,
:mod:`~repro.storage.columnar`, and the layout table in
``docs/architecture.md``.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import CorruptFileError, SchemaError, SerializationError
from repro.storage import varint
from repro.storage.blockwrite import WriteCodec
from repro.storage.serialization import Record, Schema

DEFAULT_BLOCK_SIZE = 64 * 1024

#: A footer ends in a fixed-size little-endian pointer to its start.
FOOTER_POINTER_BYTES = 8

#: The read half: ``decode(view, start, end) -> Record``, made fresh for
#: each block, so its codec state starts over with the block.
ValueDecoder = Callable[[Any, int, int], Record]

#: What parsing a damaged header raises short of CorruptFileError: json
#: and UTF-8 errors are ValueErrors; a header that parses but lacks a
#: schema, or holds the wrong shapes, fails in ``Schema.from_dict`` with
#: one of the others.
_HEADER_ERRORS = (SchemaError, SerializationError, LookupError, TypeError,
                  ValueError, AttributeError)


class BlockInfo:
    """Location of one block inside a block file (a split candidate)."""

    __slots__ = ("offset", "length", "n_records")

    def __init__(self, offset: int, length: int, n_records: int):
        self.offset = offset
        self.length = length
        self.n_records = n_records

    def __repr__(self) -> str:
        return (
            f"BlockInfo(offset={self.offset}, length={self.length}, "
            f"n_records={self.n_records})"
        )


class BlockFileWriter:
    """Streaming writer: the header, then full blocks as they fill.

    Use as a context manager::

        with RecordFileWriter(path, key_schema, value_schema) as w:
            w.append(key_record, value_record)
    """

    MAGIC = b""

    def __init__(
        self,
        path: str,
        key_schema: Schema,
        value_schema: Schema,
        block_size: int = DEFAULT_BLOCK_SIZE,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if block_size <= 0:
            raise SerializationError("block_size must be positive")
        self.path = path
        self.key_schema = key_schema
        self.value_schema = value_schema
        self.block_size = block_size
        self.records_written = 0
        self.bytes_written = 0
        self._buffer = bytearray()
        self._buffer_records = 0
        self._closed = False
        self._codec = self._write_codec()
        #: the header's metadata: it goes out with the first block (or at
        #: close), so a writer may add to it until then
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._header_written = False
        self._file = open(path, "wb")

    def _write_header(self) -> None:
        if self._header_written:
            return
        header = {
            "key_schema": self.key_schema.to_dict(),
            "value_schema": self.value_schema.to_dict(),
            "metadata": self.metadata,
            **self._header_extras(),
        }
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        self._file.write(self.MAGIC)
        self._file.write(varint.encode_uvarint(len(raw)))
        self._file.write(raw)
        self._header_written = True

    def _header_extras(self) -> Dict[str, Any]:
        """Header fields the format's reader needs beyond the schemas."""
        return {}

    def _write_codec(self) -> WriteCodec:
        """The codec's write half: the identity codec by default."""
        return WriteCodec(self.key_schema, self.value_schema, {})

    def _footer(self) -> Optional[bytes]:
        """What follows the last block, if anything (nothing by default)."""
        return None

    def append(self, key: Record, value: Record) -> None:
        """Serialize and buffer one record pair, flushing full blocks."""
        if self._closed or not self._codec.append(
                self._buffer, key, value, self.block_size):
            self.append_raw(*self._codec.reference(key, value))
            return
        self._buffer_records += 1
        self.records_written += 1
        if len(self._buffer) >= self.block_size:
            self._flush_block()

    def append_rows(self, rows: Iterable[Tuple[Any, ...]]) -> None:
        """Append pairs given as rows of field values -- the key's fields,
        then the value's -- without building records: the bytes
        :meth:`append` writes for the same pairs, a block at a time."""
        if self._closed:
            raise SerializationError("writer is closed")
        rows = iter(rows)
        codec = self._codec
        while True:
            written, declined = codec.write(self._buffer, rows,
                                            self.block_size)
            self._buffer_records += written
            self.records_written += written
            if declined is not None:
                self.append_raw(*codec.reference(*codec.records(declined)))
            elif len(self._buffer) >= self.block_size:
                self._flush_block()
            else:
                return

    def append_raw(self, kraw: bytes, vraw: bytes) -> None:
        """Append pre-serialized key bytes and codec-encoded value bytes."""
        if self._closed:
            raise SerializationError("writer is closed")
        buffer = self._buffer
        buffer += varint.encode_uvarint(len(kraw))
        buffer += kraw
        buffer += varint.encode_uvarint(len(vraw))
        buffer += vraw
        self._buffer_records += 1
        self.records_written += 1
        if len(buffer) >= self.block_size:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._buffer_records:
            return
        self._write_header()
        block = (
            varint.encode_uvarint(len(self._buffer))
            + varint.encode_uvarint(self._buffer_records)
            + bytes(self._buffer)
        )
        self._file.write(block)
        self.bytes_written += len(block)
        self._buffer = bytearray()
        self._buffer_records = 0
        self._codec.reset_block()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_block()
        self._write_header()
        footer = self._footer()
        if footer is not None:  # the footer, then the offset it starts at
            self._file.write(footer + self._file.tell().to_bytes(
                FOOTER_POINTER_BYTES, "little"))
        self._file.close()
        self._closed = True

    def __enter__(self) -> "BlockFileWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class BlockFileReader:
    """Reader with byte accounting and block access.

    ``bytes_read`` counts *payload and framing bytes actually consumed*,
    which is the quantity the cluster cost model charges for I/O.
    Any failure to open -- wrong magic, a truncated, unparsable or
    schema-less header, a bad footer -- raises :class:`CorruptFileError`
    with the file handle already closed.
    """

    MAGIC = b""
    #: what the format's footer holds, if it has one: the blocks then end
    #: where the pointer closing the file says the footer starts
    FOOTER: Optional[str] = None

    def __init__(self, path: str):
        self.path = path
        self.bytes_read = 0
        self._file = open(path, "rb")
        try:
            self._open()
        except BaseException as exc:
            self._file.close()
            if isinstance(exc, _HEADER_ERRORS):
                raise CorruptFileError(
                    f"{path}: unreadable header: {exc}"
                ) from exc
            raise

    def _open(self) -> None:
        magic = self._file.read(len(self.MAGIC))
        if magic != self.MAGIC:
            raise CorruptFileError(
                f"{self.path}: bad magic {magic!r} (expected {self.MAGIC!r})"
            )
        header_len, prefix = self._read_uvarint_from_file()
        raw = self._file.read(header_len)
        if len(raw) != header_len:
            raise CorruptFileError(f"{self.path}: truncated header")
        header = json.loads(raw.decode("utf-8"))
        self.key_schema = Schema.from_dict(header["key_schema"])
        self.value_schema = Schema.from_dict(header["value_schema"])
        #: schema of the value records this file yields; differs from
        #: ``value_schema`` only where the codec changes a field's type
        self.stored_schema = self.value_schema
        self.metadata: Dict[str, Any] = header.get("metadata", {})
        self._data_start = len(self.MAGIC) + prefix + header_len
        self._file_size = os.path.getsize(self.path)
        #: where the blocks end (a footer starts here when there is one)
        self._data_end = self._file_size
        self._bind_header(header)
        if self.FOOTER is not None:
            self._locate_footer()

    def _locate_footer(self) -> None:
        """Point ``_data_end`` at the footer's start."""
        pointer_at = self._file_size - FOOTER_POINTER_BYTES
        if pointer_at < self._data_start:
            raise CorruptFileError(f"{self.path}: file shorter than its footer")
        self._file.seek(pointer_at)
        self._data_end = int.from_bytes(
            self._file.read(FOOTER_POINTER_BYTES), "little")
        if not self._data_start <= self._data_end <= pointer_at:
            raise CorruptFileError(
                f"{self.path}: bad {self.FOOTER} footer pointer")

    def _bind_header(self, header: Dict[str, Any]) -> None:
        """Read the format's header extras."""

    def _value_decoder(self) -> ValueDecoder:
        """The codec's read half, for one block: by default the identity
        codec, values being the value schema's plain encoding."""
        return self.value_schema.decode

    def _read_uvarint_from_file(self) -> Tuple[int, int]:
        """Read one uvarint directly from the file; return (value, n_bytes)."""
        try:
            return varint.read_uvarint_stream(self._file)
        except SerializationError as exc:
            raise CorruptFileError(f"{self.path}: {exc}") from exc

    # -- block directory ----------------------------------------------------

    def _read_block_header(self) -> Tuple[int, int, int]:
        """(payload_len, n_records, header bytes) at the file position."""
        payload_len, n1 = self._read_uvarint_from_file()
        n_records, n2 = self._read_uvarint_from_file()
        return payload_len, n_records, n1 + n2

    def blocks(self) -> List[BlockInfo]:
        """Enumerate block locations by seeking over block headers.

        This touches only the per-block length prefixes, not payloads, so it
        is cheap; it is how the job runner computes input splits.
        """
        out: List[BlockInfo] = []
        data_end = self._data_end
        self._file.seek(self._data_start)
        while self._file.tell() < data_end:
            offset = self._file.tell()
            payload_len, n_records, framing = self._read_block_header()
            length = framing + payload_len
            if offset + length > data_end:
                # Without this check a file cut mid-block seeks past EOF
                # here and the loop just ends, so the directory -- and
                # therefore every split -- silently omits trailing data.
                raise CorruptFileError(
                    f"{self.path}: truncated final block at offset {offset} "
                    f"(header claims {payload_len} payload bytes, data ends "
                    f"{offset + length - data_end} bytes short)"
                )
            out.append(BlockInfo(offset, length, n_records))
            self._file.seek(payload_len, io.SEEK_CUR)
        return out

    def count_records(self) -> int:
        """Total record count from block headers (no payload reads)."""
        return sum(b.n_records for b in self.blocks())

    # -- iteration ----------------------------------------------------------

    def iter_block_payloads(
        self, blocks: Optional[List[BlockInfo]] = None
    ) -> Iterator[Tuple[bytes, int]]:
        """Yield ``(payload, n_records)`` per block, charging ``bytes_read``.

        ``blocks=None`` walks the whole data region in file order without
        building the directory first.
        """
        if blocks is None:
            self._file.seek(self._data_start)
            while self._file.tell() < self._data_end:
                yield self._read_block()
        else:
            for block in blocks:
                self._file.seek(block.offset)
                yield self._read_block()

    def _read_block(self) -> Tuple[bytes, int]:
        payload_len, n_records, framing = self._read_block_header()
        # Bounded by the data region, not the file: a short final block
        # must not be topped up with footer bytes.
        if self._file.tell() + payload_len > self._data_end:
            raise CorruptFileError(f"{self.path}: truncated block")
        payload = self._file.read(payload_len)
        self.bytes_read += framing + payload_len
        return payload, n_records

    def block_spans(
        self, payload: bytes, n_records: int
    ) -> Tuple[memoryview, List[Tuple[int, int, int, int]]]:
        """``(view, [(key_start, key_end, value_start, value_end), ...])``.

        One memoryview per *block*; records are addressed by offsets into
        it, so walking a 64KB block copies no record bytes.  The header's
        ``n_records`` must account for exactly the payload, and the whole
        block is framed before its first record is decoded.
        """
        view = memoryview(payload)
        end = len(payload)
        decode_uvarint = varint.decode_uvarint
        spans: List[Tuple[int, int, int, int]] = []
        append = spans.append
        pos = 0
        try:
            for _ in range(n_records):
                klen, pos = decode_uvarint(view, pos, end)
                kend = pos + klen
                if kend > end:
                    raise CorruptFileError(f"{self.path}: truncated record")
                vlen, vpos = decode_uvarint(view, kend, end)
                vend = vpos + vlen
                if vend > end:
                    raise CorruptFileError(f"{self.path}: truncated record")
                append((pos, kend, vpos, vend))
                pos = vend
        except SerializationError as exc:
            raise CorruptFileError(
                f"{self.path}: truncated record ({exc})"
            ) from exc
        if pos != end:
            raise CorruptFileError(f"{self.path}: trailing block bytes")
        return view, spans

    def iter_raw(
        self, blocks: Optional[List[BlockInfo]] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key_bytes, value_bytes) without decoding."""
        for payload, n_records in self.iter_block_payloads(blocks):
            view, spans = self.block_spans(payload, n_records)
            for kpos, kend, vpos, vend in spans:
                yield bytes(view[kpos:kend]), bytes(view[vpos:vend])

    def __iter__(self) -> Iterator[Tuple[Record, Record]]:
        return self.iter_records()

    def iter_records(
        self,
        blocks: Optional[List[BlockInfo]] = None,
        lazy_values: bool = False,
        field_counter: Any = None,
        lazy_keys: bool = False,
    ) -> Iterator[Tuple[Record, Record]]:
        """Yield decoded (key, value) record pairs, block by block.

        ``lazy_values``, ``field_counter`` and ``lazy_keys`` are accepted
        and ignored: the frozen benchmark suite's storage probe still
        passes them, and they are deleted together with that probe.
        """
        for payload, n_records in self.iter_block_payloads(blocks):
            yield from self.decode_block(payload, n_records)

    def decode_block(
        self, payload: bytes, n_records: int
    ) -> Iterator[Tuple[Record, Record]]:
        """Yield one block's decoded (key, value) pairs.

        The container's one interpreted reference decode: the whole block
        is framed first (:meth:`block_spans`), then each key decodes with
        the key schema and each value with a fresh codec decoder -- a
        block's codec state (a delta file's running sums) starts over
        with the block.
        """
        key_decode = self.key_schema.decode
        value_decode = self._value_decoder()
        view, spans = self.block_spans(payload, n_records)
        for kpos, kend, vpos, vend in spans:
            yield key_decode(view, kpos, kend), value_decode(view, vpos, vend)

    def file_size(self) -> int:
        return self._file_size

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
