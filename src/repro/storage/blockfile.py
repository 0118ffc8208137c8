"""The block-file container every record-shaped file format shares.

Record, delta and dictionary files (and therefore projection files and
partitions, which are record files) are one container with a different
*value codec*.  Layout::

    magic (4 bytes) | uvarint header_len | header JSON (UTF-8)
    block*  where block = uvarint payload_len | uvarint n_records | payload
    payload = (uvarint key_len | key bytes | uvarint val_len | val bytes)*
    [footer]

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
``_bind_header``), value codec -- plain callables bound once per
writer/reader plus an optional per-block reset (``_value_encoder`` /
``_value_decoder``; identity by default) -- and footer (``_write_footer``
/ a ``_data_end`` below the file size): see :mod:`~repro.storage.recordfile`,
:mod:`~repro.storage.delta`, :mod:`~repro.storage.dictionary`, and the
layout table in ``docs/architecture.md``.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import CorruptFileError, SchemaError, SerializationError
from repro.storage import varint
from repro.storage.serialization import FieldDecodeCounter, Record, Schema

DEFAULT_BLOCK_SIZE = 64 * 1024

#: One half of a value codec: ``encode(value_record) -> bytes`` or
#: ``decode(view, start, end) -> Record``, plus a callable that drops
#: codec state at every block boundary (``None`` for a stateless codec).
CodecHalf = Tuple[Callable[..., Any], Optional[Callable[[], None]]]

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
    """Streaming writer: header up front, full blocks as they fill.

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
        self._encode_value, self._reset_block = self._value_encoder()
        header = {
            "key_schema": key_schema.to_dict(),
            "value_schema": value_schema.to_dict(),
            "metadata": metadata or {},
            **self._header_extras(),
        }
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        self._file = open(path, "wb")
        self._file.write(self.MAGIC)
        self._file.write(varint.encode_uvarint(len(raw)))
        self._file.write(raw)

    def _header_extras(self) -> Dict[str, Any]:
        """Header fields the format's reader needs beyond the schemas."""
        return {}

    def _value_encoder(self) -> CodecHalf:
        """The codec's write half: ``(encode, reset-per-block or None)``."""
        return self.value_schema.encode, None

    def _write_footer(self) -> None:
        """Write whatever follows the last block (nothing by default)."""

    def append(self, key: Record, value: Record) -> None:
        """Serialize and buffer one record pair, flushing full blocks."""
        self.append_raw(self.key_schema.encode(key), self._encode_value(value))

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
        block = (
            varint.encode_uvarint(len(self._buffer))
            + varint.encode_uvarint(self._buffer_records)
            + bytes(self._buffer)
        )
        self._file.write(block)
        self.bytes_written += len(block)
        self._buffer = bytearray()
        self._buffer_records = 0
        if self._reset_block is not None:
            self._reset_block()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_block()
        self._write_footer()
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

    def _bind_header(self, header: Dict[str, Any]) -> None:
        """Read the format's header extras and locate its footer."""

    def _value_decoder(
        self, lazy_values: bool, field_counter: Optional[FieldDecodeCounter]
    ) -> CodecHalf:
        """The codec's read half: ``(decode, reset-per-block or None)``.

        The default is the identity codec: values are the value schema's
        plain encoding, so they can also decode lazily.
        """
        schema = self.value_schema
        if lazy_values and schema.transparent:
            decode_lazy = schema.decode_lazy
            return (
                lambda buf, start, end: decode_lazy(buf, start, end, field_counter)
            ), None
        return schema.decode, None

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
        field_counter: Optional[FieldDecodeCounter] = None,
        lazy_keys: bool = False,
    ) -> Iterator[Tuple[Record, Record]]:
        """Yield decoded (key, value) record pairs.

        With ``lazy_values=True``, a transparent value schema and a codec
        that can defer (the identity codec; delta and dictionary values
        always decode eagerly), values come back as
        :class:`~repro.storage.serialization.LazyRecord` -- field
        boundaries scanned, nothing materialized -- and ``field_counter``
        tallies the value fields the consumer actually decodes.
        ``lazy_keys=True`` does the same for keys (without the counter:
        the ``fields_deserialized`` metric has always charged value
        fields only); mappers that ignore their input key then never pay
        its decode.  Both paths decode straight out of the shared block
        buffer.
        """
        key_schema = self.key_schema
        if lazy_keys and key_schema.transparent:
            key_decode = key_schema.decode_lazy
        else:
            key_decode = key_schema.decode
        value_decode, reset = self._value_decoder(lazy_values, field_counter)
        for payload, n_records in self.iter_block_payloads(blocks):
            if reset is not None:
                reset()
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
