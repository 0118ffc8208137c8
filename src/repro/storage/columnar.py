"""Columnar catalog copies: column-major blocks, decoded a column at a time.

The paper's projection and compression indexes are "a simplified version
of a column-store" (Section 2.1).  A columnar file is the block-file
container of :mod:`repro.storage.blockfile` with magic ``RPCL`` whose
blocks hold their records column-major::

    payload = uvarint logical_bytes | segment*    (key fields, then stored value fields)
    segment = uvarint segment_len | column bytes

``logical_bytes`` is the block's ``estimate_size`` figure -- what the
record path charges for the same records read from a row-major block --
computed by the writer, so accounting is O(1) per block.  Column bytes
by field type:

* INT / LONG, and dictionary codes: ``tag | n x width`` little-endian
  two's-complement integers.  ``tag`` is the width -- 1, 2, 4 or 8
  bytes, the narrowest that holds the block's values.  Under the
  ``delta`` codec the column is ``tag | first value (8 bytes) | n - 1 x
  width`` running differences, restarting with the block, ``tag``
  carrying :data:`DELTA_TAG` and the narrowest width that holds the
  differences (a block of one record, or whose differences leave int64,
  is stored plain);
* DOUBLE: ``n x 8`` IEEE-754 little-endian bytes;
* BOOL: ``n`` bytes, zero or not;
* STRING / BYTES: the values' byte lengths as an integer column (``tag |
  n x width``), then one blob of their bytes (UTF-8 for strings).

The header names each coded value field's codec (``codecs``: ``delta``
or ``dict``).  A ``dict`` field -- at most one per file -- is stored as
INT codes assigned in first-appearance order across the file, and
``map()`` sees the codes (the paper's direct operation); its code table
is the footer, which is always there (empty without a ``dict`` field).

A *sorted copy* is the paper's selection index: the input "sorted on
the predicate field" (Section 2.1), in page-sized blocks
(:data:`INDEX_BLOCK_SIZE`), whose header names that field's codec
``sorted``: it is stored plain, its rows arrive in non-decreasing order
of its order key (:func:`~repro.storage.orderkeys.encode_key`), and
after the (empty) code table the footer holds ``uvarint n_blocks`` and
then, framed as a block payload, the block directory (INT columns of
the blocks' lengths and record counts) and the *fences* (BYTES columns
of each block's first and last order key of that field), so a key range
bisects the fences into one contiguous run of blocks
(:meth:`ColumnarFileReader.range_blocks`) read off the footer alone, of
which only the two edge blocks can hold rows outside the range.  The
writer refuses a row whose sorted field precedes the row before it.

Key and value schemas are transparent, with one exception: a sorted
copy of an opaque value schema (Benchmark 1's ``AbstractTuple``) stores
two value columns, the sorted field and each value's own encoding
(:data:`ENCODED`), which the reference decode hands to the schema's
decoder -- the only scan of such a copy, so ``map()`` gets what the
decoder returns, as it does from the source.

A scan (:class:`ColumnScanner`) frames the block's segments, decodes only
the captured ones -- ``array.frombytes`` for the numbers, one
``accumulate`` for deltas and string offsets, one decode and one slice
per value for a blob -- and passes over every other segment in O(1),
unchecked (so, as in a row-major scan, a string column nobody captures
is never UTF-8 decoded).  A block failing any structural check of what
it decodes -- segment sums, widths, lengths against the blob, UTF-8 --
is re-walked by :meth:`ColumnarFileReader.decode_block`, the format's
reference decode, value by value, and that walk's exception is the one
raised; a re-walk that succeeds is an internal error.

A process decodes each segment of a file once: the decoded-column cache
keeps every captured segment of a block its reader read from the file
under (the open handle's ``fstat`` identity, the block's offset, the
segment's position), and a sorted copy's fences under (identity,
:data:`FENCES`), least recently used first within :data:`CACHE_BYTES`.
A hit returns the same lists a decode would have built -- shared, so no
consumer mutates them -- and the payload is still read and charged.  A
copy's parsed header and block directory are kept the same way, per
identity, beside the columns (:data:`_COPY_METADATA`), so opening a copy
parses its header once and planning its splits walks its block headers
once.  A forked child starts with empty caches and fresh locks.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from functools import partial
from itertools import accumulate, chain
from operator import le, sub
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import (
    BTreeError,
    CorruptFileError,
    SchemaError,
    SerializationError,
    StorageError,
)
from repro.storage import varint
from repro.storage.blockfile import (
    DEFAULT_BLOCK_SIZE,
    FOOTER_POINTER_BYTES,
    BlockFileReader,
    BlockFileWriter,
    BlockInfo,
)
from repro.storage.blockscan import KEY_COLUMNS, ReadShape, Scanned, block_scanner
from repro.storage.dictionary import compressed_schema
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import Field, FieldType, Record, Schema, build_records

MAGIC = b"RPCL"

#: A sorted copy's blocks are page-sized: a range read charges whole blocks.
INDEX_BLOCK_SIZE = 4096

#: Rows a sorted copy hands its writer per append: the sizes the writer
#: works out per append are lists as long as the rows it is given.
SORTED_APPEND_ROWS = 512

#: An opaque sorted copy's second value column: each value's encoding.
ENCODED = "encoded"

#: Set in an integer column's tag when its values are running differences.
DELTA_TAG = 0x10

#: Width in bytes -> the array typecode of that many signed bytes.
_INT_CODES = {array(code).itemsize: code for code in "bhilq"}
_SWAP = sys.byteorder == "big"
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: (width, least value, greatest value), narrowest first
_LIMITS = tuple((w, -(1 << (8 * w - 1)), (1 << (8 * w - 1)) - 1)
                for w in (1, 2, 4, 8))
#: ``svarint_len(v) > k`` exactly when ``v`` is outside the k-th range
_SVARINT_RANGES = tuple((-(1 << (7 * k - 1)), 1 << (7 * k - 1))
                        for k in range(1, 10))

#: Field type -> column kind; INT and LONG are the same column.
_KIND = {
    FieldType.INT: "int",
    FieldType.LONG: "int",
    FieldType.DOUBLE: "double",
    FieldType.BOOL: "bool",
    FieldType.STRING: "string",
    FieldType.BYTES: "bytes",
}

CODECS = ("delta", "dict", "sorted")


def _pack(code: str, values: Sequence[Any]) -> bytes:
    """``values`` as a little-endian array of typecode ``code``."""
    packed = array(code, values)
    if _SWAP:
        packed.byteswap()
    return packed.tobytes()


def _unpack(code: str, raw: bytes) -> array:
    """The little-endian array of typecode ``code`` that ``raw`` holds."""
    values = array(code)
    values.frombytes(raw)
    if _SWAP:
        values.byteswap()
    return values


# -- writing -----------------------------------------------------------------


def _int_column(values: Sequence[int], tag: int = 0, base: bytes = b"") -> bytes:
    lo, hi = min(values), max(values)
    for width, least, greatest in _LIMITS:
        if least <= lo and hi <= greatest:
            break
    else:
        raise SerializationError(
            f"integer {lo if lo < _INT64_MIN else hi} exceeds 64-bit signed range")
    return bytes((width | tag,)) + base + _pack(_INT_CODES[width], values)


def _varint_bytes(values: Sequence[int]) -> int:
    """``sum(map(svarint_len, values))``, from one sort and 18 bisects."""
    ordered = sorted(values)
    n = total = len(ordered)
    for least, bound in _SVARINT_RANGES:
        outside = bisect_left(ordered, least) + n - bisect_left(ordered, bound)
        if not outside:
            break
        total += outside
    return total


def _encode_int(values: List[int], codec: Optional[str]) -> Tuple[bytes, int]:
    column = None
    if codec == "delta" and len(values) > 1:
        diffs = list(map(sub, values[1:], values))
        if _INT64_MIN <= min(diffs) and max(diffs) <= _INT64_MAX:
            column = _int_column(diffs, DELTA_TAG, _pack("q", values[:1]))
    return column or _int_column(values), _varint_bytes(values)


def _encode_double(values: List[float], codec: Optional[str]) -> Tuple[bytes, int]:
    return _pack("d", values), 8 * len(values)


def _encode_bool(values: List[bool], codec: Optional[str]) -> Tuple[bytes, int]:
    return bytes(values), len(values)


def _encode_blobs(raw: List[bytes], codec: Optional[str]) -> Tuple[bytes, int]:
    lengths = list(map(len, raw))
    return _int_column(lengths) + b"".join(raw), sum(lengths) + len(raw)


#: column kind -> ``(column bytes, the column's logical bytes)`` of a
#: block's values (a string column's values arrive UTF-8 encoded)
_ENCODE: Dict[str, Callable[[list, Optional[str]], Tuple[bytes, int]]] = {
    "int": _encode_int,
    "double": _encode_double,
    "bool": _encode_bool,
    "string": _encode_blobs,
    "bytes": _encode_blobs,
}


def _svarint_lens(values: Sequence[int]) -> List[int]:
    """``svarint_len`` of each value (all within int64)."""
    return [(((v << 1) ^ (v >> 63)).bit_length() + 6) // 7 or 1
            for v in values]


def _blob_lens(raw: Sequence[bytes]) -> List[int]:
    """Row-major size of each value: its bytes and its length prefix."""
    return [n + 1 if n < 128 else n + varint.uvarint_len(n)
            for n in map(len, raw)]


def _framed(klen: int, vlen: int) -> int:
    """A row-major record's bytes: both length prefixes and both parts."""
    return (klen + vlen + (1 if klen < 128 else varint.uvarint_len(klen))
            + (1 if vlen < 128 else varint.uvarint_len(vlen)))


def _row_sums(columns: List[List[int]], fixed: int, n: int) -> List[int]:
    if not columns:
        return [fixed] * n
    sums = columns[0] if len(columns) == 1 else list(map(sum, zip(*columns)))
    return [size + fixed for size in sums] if fixed else list(sums)


def _framed_payload(logical: int, segments: Sequence[bytes]) -> bytearray:
    """``uvarint logical | (uvarint segment_len | segment)*``."""
    payload = bytearray(varint.encode_uvarint(logical))
    for segment in segments:
        payload += varint.encode_uvarint(len(segment))
        payload += segment
    return payload


def opaque_stored_schema(value_schema: Schema, field: str) -> Schema:
    """The stored value columns of a copy of opaque ``value_schema``
    sorted on ``field``: that field, then each value's encoding."""
    return Schema(value_schema.name, [value_schema.field(field),
                                      Field(ENCODED, FieldType.BYTES)])


class ColumnarFileWriter(BlockFileWriter):
    """Buffers rows as columns and writes them as column-major blocks.

    A block holds exactly the records the row-major writer of the same
    copy (a record, delta or dictionary file) would put in its block, so
    splits, map tasks and everything counted per task match that copy's;
    only the bytes are smaller.  ``codecs`` maps value fields to
    ``delta`` (an integer field), ``dict`` (one string field) or
    ``sorted`` (one comparable field, in non-decreasing order).  A
    sorted copy's blocks are :data:`INDEX_BLOCK_SIZE` unless
    ``block_size`` says otherwise."""

    MAGIC = MAGIC

    def __init__(
        self,
        path: str,
        key_schema: Schema,
        value_schema: Schema,
        codecs: Optional[Mapping[str, str]] = None,
        block_size: Optional[int] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.codecs = dict(codecs or {})
        for name, codec in self.codecs.items():
            ftype = value_schema.field(name).ftype
            if not (codec == "delta" and ftype.is_numeric
                    or codec == "dict" and ftype is FieldType.STRING
                    or codec == "sorted" and ftype.is_comparable):
                raise SchemaError(
                    f"codec {codec!r} does not apply to {ftype.value} "
                    f"field {name!r}")
        coded, fenced = ([name for name, codec in self.codecs.items()
                          if codec == one] for one in ("dict", "sorted"))
        if len(coded + fenced) > 1:
            raise SchemaError(
                "a columnar file has at most one dict or sorted column")
        if not (key_schema.transparent
                and (value_schema.transparent or fenced)):
            raise SchemaError(
                "a columnar file needs transparent key and value schemas "
                "(an opaque value schema only in a sorted copy)")
        self.stored_schema = (
            compressed_schema(value_schema, coded[0]) if coded
            else value_schema if value_schema.transparent
            else opaque_stored_schema(value_schema, fenced[0]))
        #: the sorted column, if any: its position among the columns an
        #: append gives (key fields, then value fields) and its type
        self.sorted_column: Optional[Tuple[int, FieldType]] = None
        #: its position among the stored columns, the last value appended
        #: to it, and how its buffered values become order keys (a string
        #: is buffered UTF-8 encoded)
        self._fenced: Optional[int] = None
        self._tail: list = []
        if fenced:
            ftype = value_schema.field(fenced[0]).ftype
            n_keys = len(key_schema.fields)
            self.sorted_column = (
                n_keys + value_schema.field_index(fenced[0]), ftype)
            self._fenced = (n_keys
                            + self.stored_schema.field_names().index(fenced[0]))
            self._order_key = bytes if ftype is FieldType.STRING \
                else partial(encode_key, ftype)
        #: per written block of a sorted copy: its length and record
        #: count, and the sorted column's first and last order key
        self.directory: List[Tuple[int, int, bytes, bytes]] = []
        #: per column: (kind, codec, is it a value column)
        self._steps = [(_KIND[f.ftype], None, False)
                       for f in key_schema.fields] + [
            (_KIND[f.ftype], self.codecs.get(f.name), True)
            for f in self.stored_schema.fields]
        #: the rows of the open block, as columns (strings UTF-8 encoded,
        #: dict values as codes), and its row-major byte count
        self._open: List[list] = [[] for _ in self._steps]
        self._open_rows = self._open_bytes = 0
        #: each delta column's last value: the next row's difference base
        self._last = [0] * len(self._steps)
        #: the dict column's code table, in code order
        self.codes: Dict[str, int] = {}
        if block_size is None:
            block_size = INDEX_BLOCK_SIZE if fenced else DEFAULT_BLOCK_SIZE
        super().__init__(path, key_schema, value_schema, block_size, metadata)

    def _header_extras(self) -> Dict[str, Any]:
        return {"codecs": self.codecs}

    def _footer(self) -> bytes:
        footer = bytearray(varint.encode_uvarint(len(self.codes)))
        for text in self.codes:
            raw = text.encode("utf-8")
            footer += varint.encode_uvarint(len(raw))
            footer += raw
        if self.directory:
            lengths, counts, firsts, lasts = zip(*self.directory)
            footer += varint.encode_uvarint(len(lengths)) + _framed_payload(
                0, [_int_column(lengths), _int_column(counts),
                    _encode_blobs(firsts, None)[0],
                    _encode_blobs(lasts, None)[0]])
        return bytes(footer)

    def append(self, key: Record, value: Record) -> None:
        """Append one pair, type-checked by the schemas' encoders."""
        self.key_schema.encode(key)
        self.value_schema.encode(value)
        self.append_columns(
            [[v] for v in (*key.as_tuple(), *value.as_tuple())], 1)

    def append_rows(self, rows: Any) -> None:
        raise SerializationError("a columnar file is appended by columns")

    def append_raw(self, kraw: bytes, vraw: bytes) -> None:
        raise SerializationError("a columnar file is appended by columns")

    def append_columns(self, columns: Sequence[list], n_records: int) -> None:
        """Append ``n_records`` rows given as columns -- the key fields',
        then the value fields', in schema order -- holding exactly the
        schemas' types, as a block scan captures them.  A sorted copy
        refuses rows out of order (:class:`BTreeError`), before any
        state changes."""
        if self._closed:
            raise SerializationError("writer is closed")
        if not n_records:
            return
        columns = list(columns)
        if self.sorted_column is not None:  # order keys are monotone in values
            run = self._tail + columns[self.sorted_column[0]]
            if not all(map(le, run, run[1:])):
                raise BTreeError("a sorted copy's rows must arrive in "
                                 "non-decreasing order of its sorted field")
            self._tail = run[-1:]
        if not self.value_schema.transparent:  # the stored columns
            n_keys, schema = len(self.key_schema.fields), self.value_schema
            values = columns[n_keys:]
            columns = columns[:n_keys] + [
                values[schema.field_index(self.stored_schema.fields[0].name)],
                [schema.encode(Record(schema, row)) for row in zip(*values)]]
        key_sizes: List[List[int]] = []
        value_sizes: List[List[int]] = []
        fixed = [0, 0]
        #: per delta column: (its values, their differences' sizes)
        deltas: List[Tuple[List[int], List[int]]] = []
        for j, (kind, codec, is_value) in enumerate(self._steps):
            column = columns[j]
            sizes = value_sizes if is_value else key_sizes
            if codec == "dict":
                codes = self.codes
                column = columns[j] = [codes.setdefault(text, len(codes))
                                       for text in column]
                sizes.append(_svarint_lens(column))
            elif codec == "delta":
                diffs = list(map(sub, column, chain((self._last[j],), column)))
                self._last[j] = column[-1]
                sizes.append(_svarint_lens(diffs))
                deltas.append((column, sizes[-1]))
            elif kind == "int":
                sizes.append(_svarint_lens(column))
            elif kind in ("string", "bytes"):
                if kind == "string":
                    column = columns[j] = list(map(str.encode, column))
                sizes.append(_blob_lens(column))
            else:
                fixed[is_value] += 8 if kind == "double" else 1
        klens = _row_sums(key_sizes, fixed[0], n_records)
        vlens = _row_sums(value_sizes, fixed[1], n_records)
        self._cut(columns, n_records, klens, vlens, deltas)
        self.records_written += n_records

    def _cut(self, columns: List[list], n: int, klens: List[int],
             vlens: List[int], deltas: List[Tuple[List[int], List[int]]]
             ) -> None:
        """Close a block after each row that brings its row-major size to
        ``block_size`` -- where the row-major writer flushes -- counting a
        block's first row's delta columns as absolute values, since the
        row-major delta codec restarts there too."""
        sizes = list(map(_framed, klens, vlens))
        cum = list(accumulate(sizes, initial=0))
        start = 0
        while start < n:
            extra = 0
            if deltas and not self._open_rows:  # the row opens a block
                absolute = vlens[start] + sum(
                    _svarint_lens((values[start],))[0] - diff_sizes[start]
                    for values, diff_sizes in deltas)
                extra = _framed(klens[start], absolute) - sizes[start]
            target = self.block_size - self._open_bytes - extra + cum[start]
            stop = min(n, bisect_left(cum, target, start + 1))
            for pending, column in zip(self._open, columns):
                pending += column[start:stop]
            self._open_rows += stop - start
            self._open_bytes += cum[stop] - cum[start] + extra
            if self._open_bytes >= self.block_size:
                self._write_block()
            start = stop

    def _write_block(self) -> None:
        n_records, written = self._open_rows, self.bytes_written
        segments = []
        logical = 2 * n_records  # each key and value record's own byte
        for column, (kind, codec, _is_value) in zip(self._open, self._steps):
            segment, size = _ENCODE["int" if codec == "dict" else kind](
                column, codec)
            segments.append(segment)
            logical += size
        self._buffer = _framed_payload(logical, segments)
        self._buffer_records = n_records
        BlockFileWriter._flush_block(self)
        if self._fenced is not None:
            column = self._open[self._fenced]
            self.directory.append((self.bytes_written - written, n_records,
                                   *map(self._order_key,
                                        (column[0], column[-1]))))
        self._open = [[] for _ in self._steps]
        self._open_rows = self._open_bytes = 0

    def _flush_block(self) -> None:
        """The container's close: the open block goes out."""
        if self._open_rows:
            self._write_block()


def _scanned_blocks(reader: BlockFileReader, names: Sequence[str]
                    ) -> Iterator[Tuple[List[list], int]]:
    """Each block's columns -- the key fields', then the value fields
    ``names`` -- and its record count.  The compiled scan captures only
    those fields and builds no record; an opaque schema's blocks take
    the reference decode."""
    if not (reader.key_schema.transparent and reader.value_schema.transparent):
        for payload, n_records in reader.iter_block_payloads():
            rows = [key.as_tuple() + value.as_tuple()
                    for key, value in reader.decode_block(payload, n_records)]
            yield list(map(list, zip(*rows))), n_records
        return
    scanner = block_scanner(reader.key_schema, reader.value_schema,
                            {name: i for i, name in enumerate(names)},
                            decode_keys=KEY_COLUMNS)
    n_values = len(names)
    for payload, n_records in reader.iter_block_payloads():
        columns, _keys, _logical = scanner.scan(reader, payload, n_records)
        yield columns[n_values:] + columns[:n_values], n_records


def copy_columns(reader: BlockFileReader, writer: ColumnarFileWriter) -> int:
    """Copy every record of the row-major ``reader`` into ``writer``, a
    scanned block's columns at a time; return the count.

    A sorted copy buffers the whole scan, records its row count in the
    header (``source_records``), orders the rows by a stable sort on the
    sorted field's order key -- ties (``-0.0`` and ``0.0`` among them)
    keep file order -- and appends them :data:`SORTED_APPEND_ROWS` at a
    time.  A value with no order key (a NaN) raises :class:`BTreeError`
    before anything is written."""
    names = writer.value_schema.field_names()
    scanned = _scanned_blocks(reader, names)
    if writer.sorted_column is None:
        for columns, n_records in scanned:
            writer.append_columns(columns, n_records)
        return writer.records_written
    rows: List[list] = [[] for _ in range(len(writer.key_schema.fields)
                                          + len(names))]
    for columns, _n_records in scanned:
        for buffered, column in zip(rows, columns):
            buffered += column
    position, ftype = writer.sorted_column
    keys = list(map(partial(encode_key, ftype), rows[position]))
    writer.metadata["source_records"] = len(keys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for start in range(0, len(order), SORTED_APPEND_ROWS):
        chunk = order[start:start + SORTED_APPEND_ROWS]
        writer.append_columns([list(map(column.__getitem__, chunk))
                               for column in rows], len(chunk))
    return writer.records_written


# -- reading -------------------------------------------------------------------


def _ints(buf: bytes, start: int, stop: int, n: int) -> Optional[list]:
    tag = buf[start]
    width = tag & ~DELTA_TAG
    code = _INT_CODES.get(width)
    if code is None:
        return None
    if tag & DELTA_TAG:  # the first value, then the differences
        at = start + 9
        if n < 2 or stop - at != (n - 1) * width:
            return None
        return list(accumulate(_unpack(code, buf[at:stop]),
                               initial=_unpack("q", buf[start + 1:at])[0]))
    if stop - start - 1 != n * width:
        return None
    return _unpack(code, buf[start + 1:stop]).tolist()


def _doubles(buf: bytes, start: int, stop: int, n: int) -> Optional[list]:
    if stop - start != 8 * n:
        return None
    return _unpack("d", buf[start:stop]).tolist()


def _bools(buf: bytes, start: int, stop: int, n: int) -> Optional[list]:
    return list(map(bool, buf[start:stop])) if stop - start == n else None


def _blob(buf: bytes, start: int, stop: int, n: int
          ) -> Optional[Tuple[Any, List[int], bytes]]:
    """(value starts, value ends, blob) of a length column and its blob."""
    width = buf[start]
    code = _INT_CODES.get(width)
    blob_at = start + 1 + n * width
    if code is None or blob_at > stop:
        return None
    lengths = _unpack(code, buf[start + 1:blob_at])
    ends = list(accumulate(lengths))
    if (ends[-1] if n else 0) != stop - blob_at or n and min(lengths) < 0:
        return None
    return chain((0,), ends), ends, buf[blob_at:stop]


def _strings(buf: bytes, start: int, stop: int, n: int) -> Optional[list]:
    framed = _blob(buf, start, stop, n)
    if framed is None:
        return None
    starts, ends, blob = framed
    text = blob.decode()
    if len(text) == len(blob):  # ASCII: byte offsets are character offsets
        return list(map(text.__getitem__, map(slice, starts, ends)))
    return [blob[a:b].decode() for a, b in zip(starts, ends)]


def _bytes(buf: bytes, start: int, stop: int, n: int) -> Optional[list]:
    framed = _blob(buf, start, stop, n)
    if framed is None:
        return None
    starts, ends, blob = framed
    return list(map(blob.__getitem__, map(slice, starts, ends)))


_DECODE = {"int": _ints, "double": _doubles, "bool": _bools,
           "string": _strings, "bytes": _bytes}

# -- the decoded-column cache ----------------------------------------------------

#: What the decoded-column cache may hold, in estimated resident bytes.
CACHE_BYTES = 8 << 20

#: column kind -> estimated bytes of one decoded value beyond its list
#: slot (bools are the two shared objects; an int is sized as a
#: non-cached one; a blob's value adds its own bytes)
_VALUE_BYTES = {"int": 32, "double": 24, "bool": 0, "string": 49, "bytes": 33}


def _resident(kind: str, column: Sequence[Any], length: int) -> int:
    """Estimated bytes a decoded column of ``length`` stored bytes holds."""
    blob = length if kind in ("string", "bytes") else 0
    return 56 + (8 + _VALUE_BYTES[kind]) * len(column) + blob


class _ColumnCache:
    """A process's decoded columnar segments, least recently used first.

    A key is ``(file identity, block offset, segment position)`` -- or
    ``(file identity, FENCES)`` for a sorted copy's directory -- where
    the identity is the open handle's ``fstat`` ``(st_dev, st_ino,
    st_size, st_mtime_ns)``; an entry is ``(value, estimated bytes)``,
    and the entries never hold more than :data:`CACHE_BYTES`.  Values
    are shared with every scan that hits them and never mutated.  One
    lock guards the table and its counters; a forked child starts over
    with a new lock and an empty table (:meth:`reset`, registered with
    ``os.register_at_fork``), since the parent's lock may be held by a
    thread the child does not have."""

    def __init__(self, budget: Optional[int] = None) -> None:
        #: what the entries may hold (``None``: :data:`CACHE_BYTES`, read
        #: at every store)
        self.budget = budget
        self.reset()

    def reset(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Tuple[Any, int]]" = OrderedDict()
        self.resident = self.hits = self.misses = self.evictions = 0

    def lookup(self, keys: Sequence[Tuple]) -> List[Any]:
        """The cached value of each of ``keys``, ``None`` where missing."""
        entries = self._entries
        with self._lock:
            found = []
            for key in keys:
                entry = entries.get(key)
                if entry is None:
                    self.misses += 1
                    found.append(None)
                else:
                    entries.move_to_end(key)
                    self.hits += 1
                    found.append(entry[0])
            return found

    def store(self, items: Sequence[Tuple[Tuple, Any, int]]) -> None:
        """Cache each ``(key, value, estimated bytes)``, evicting the least
        recently used entries past the budget; a value larger than the
        whole budget is not kept."""
        entries = self._entries
        budget = CACHE_BYTES if self.budget is None else self.budget
        with self._lock:
            for key, value, size in items:
                if size > budget or key in entries:
                    continue
                entries[key] = (value, size)
                self.resident += size
                while self.resident > budget:
                    _key, (_value, evicted) = entries.popitem(last=False)
                    self.resident -= evicted
                    self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "entries": len(self._entries),
                    "resident_bytes": self.resident,
                    "budget_bytes": CACHE_BYTES if self.budget is None
                    else self.budget}


_COLUMN_CACHE = _ColumnCache()
os.register_at_fork(after_in_child=_COLUMN_CACHE.reset)

#: the cache key's last part for a sorted copy's fences
FENCES = "fences"

#: A copy's metadata -- its parsed header and its block directory --
#: under ``(file identity, HEADER)`` and ``(file identity, BLOCKS)``,
#: beside the columns so neither is counted as a decoded segment.
_COPY_METADATA = _ColumnCache(budget=256 << 10)
os.register_at_fork(after_in_child=_COPY_METADATA.reset)
HEADER = "header"
BLOCKS = "blocks"
#: what a reader's parsed header sets, shared by every reader of the file
_HEADER_STATE = ("key_schema", "value_schema", "stored_schema", "metadata",
                 "_data_start", "_file_size", "_data_end", "codecs",
                 "key_field", "_columns")


def column_cache_stats() -> Dict[str, int]:
    """The decoded-column cache's hits, misses and evictions (one per
    segment or directory looked up), entries and resident bytes."""
    return _COLUMN_CACHE.stats()


class ColumnScanner:
    """One column capture: which segments decode into which slots.

    ``scan`` is the seam :class:`~repro.storage.blockscan.BlockScanner`
    offers -- ``(columns by slot, then key columns under KEY_COLUMNS; key
    records or None; logical bytes)`` -- so a columnar block feeds the
    record path's split readers and the batch path's column batches
    alike.  A block its reader just read from a file
    (:meth:`ColumnarFileReader.block_key`) takes each captured segment
    from the decoded-column cache, and caches what it decodes."""

    __slots__ = ("_steps", "_captured", "_n_slots", "_n_columns",
                 "_decode_keys")

    def __init__(self, kinds: Sequence[str], n_keys: int,
                 slots: Sequence[int], decode_keys: Union[bool, str]):
        n_slots = 1 + max(slots, default=-1)
        key_slots = (range(n_slots, n_slots + n_keys) if decode_keys
                     else [-1] * n_keys)
        #: per segment: (its decoder, or None to pass over it; its slot;
        #: its kind)
        self._steps = tuple(
            (None if slot < 0 else _DECODE[kind], slot, kind)
            for kind, slot in zip(kinds, chain(key_slots, slots)))
        #: the captured segments' positions
        self._captured = tuple(position for position, (decode, _slot, _kind)
                               in enumerate(self._steps) if decode)
        self._n_slots = n_slots
        self._n_columns = n_slots + (n_keys if decode_keys else 0)
        self._decode_keys = decode_keys

    def _decode(self, payload: bytes, n_records: int,
                cached: Optional[Sequence[Any]] = None
                ) -> Optional[Tuple[List[Any], int, list]]:
        """``(columns by slot, logical bytes, the segments it decoded as
        (position, column, stored length))``, or ``None`` for a block it
        cannot prove.  ``cached`` holds a column or ``None`` per captured
        segment: a block whose every one is cached is not walked."""
        decode_uvarint = varint.decode_uvarint
        end = len(payload)
        logical, pos = decode_uvarint(payload, 0, end)
        columns: List[Any] = [None] * self._n_columns
        if cached is not None and None not in cached:
            for position, column in zip(self._captured, cached):
                columns[self._steps[position][1]] = column
            return columns, logical, []
        held = dict(zip(self._captured, cached or ()))
        decoded = []
        for position, (decode, slot, _kind) in enumerate(self._steps):
            length, pos = decode_uvarint(payload, pos, end)
            stop = pos + length
            if stop > end:
                return None
            if decode is not None:
                column = held.get(position)
                if column is None:
                    column = decode(payload, pos, stop, n_records)
                    if column is None:
                        return None
                    decoded.append((position, column, length))
                columns[slot] = column
            pos = stop
        if pos != end:
            return None
        return columns, logical, decoded

    def scan(self, reader: BlockFileReader, payload: bytes, n_records: int,
             rewalk: Optional[Callable[..., object]] = None) -> Scanned:
        """The captured columns of one block; a block this cannot prove
        is re-walked by ``rewalk(reader, payload, n_records)`` (by default
        the reader's reference decode), whose exception is raised."""
        block = reader.block_key(payload) \
            if isinstance(reader, ColumnarFileReader) else None
        cached = None
        if block is not None and self._captured:
            cached = _COLUMN_CACHE.lookup([
                (*block, position) for position in self._captured])
        try:
            out = self._decode(payload, n_records, cached)
        except Exception:
            out = None
        if out is None:
            if rewalk is None:
                for _pair in reader.decode_block(payload, n_records):
                    pass
            else:
                rewalk(reader, payload, n_records)
            raise StorageError(
                f"{reader.path}: internal error: the column scan rejected "
                "a block the reference decoder accepts")
        columns, logical, decoded = out
        if block is not None and decoded:
            steps = self._steps
            _COLUMN_CACHE.store([
                ((*block, position), column,
                 _resident(steps[position][2], column, length))
                for position, column, length in decoded])
        keys = None
        if self._decode_keys is True:
            keys = build_records(reader.key_schema, columns[self._n_slots:],
                                 n_records)
            del columns[self._n_slots:]
        return columns, keys, logical


def column_scanner(key_schema: Schema, schema: Schema,
                   slots: Mapping[str, int], decode_keys: Union[bool, str]
                   ) -> ColumnScanner:
    """The scan capturing ``slots`` (stored value field -> column) of
    columnar blocks with stored value schema ``schema``, with key records
    (``decode_keys`` true), key columns (``KEY_COLUMNS``) or neither."""
    return ColumnScanner(
        [_KIND[f.ftype] for f in chain(key_schema.fields, schema.fields)],
        len(key_schema.fields),
        [slots.get(f.name, -1) for f in schema.fields], decode_keys)


#: a sorted copy's footer directory: block lengths and record counts, and
#: each block's first and last order key
_DIRECTORY = ColumnScanner(["int", "int", "bytes", "bytes"], 0, range(4), False)


class ColumnarFileReader(BlockFileReader):
    """Reads columnar files: the record path and the batch path scan them
    through :meth:`scanner`; :meth:`decode_block` is the reference."""

    MAGIC = MAGIC
    FOOTER = "code table"

    def _bind_header(self, header: Dict[str, Any]) -> None:
        self.codecs: Dict[str, str] = header["codecs"]
        #: the field a sorted copy is ordered on (``None``: not sorted)
        self.key_field = next((name for name, codec in self.codecs.items()
                               if codec == "sorted"), None)
        coded = [name for name, codec in self.codecs.items() if codec == "dict"]
        if coded:
            self.stored_schema = compressed_schema(self.value_schema, coded[0])
        elif not self.value_schema.transparent:  # a sorted copy's
            self.stored_schema = opaque_stored_schema(self.value_schema,
                                                      self.key_field)
        self._columns = [(f.name, _KIND[f.ftype]) for f in chain(
            self.key_schema.fields, self.stored_schema.fields)]

    def _open(self) -> None:
        """Parse the header -- once per file identity: a later reader of
        the same bytes takes the parsed state from :data:`_COPY_METADATA`."""
        st = os.fstat(self._file.fileno())
        #: which bytes the open handle reads: the decoded-column cache's key
        self.identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        self._code_table: Optional[List[str]] = None
        #: the payload last read and the offset of its block
        self._last_block: Tuple[Optional[bytes], int] = (None, 0)
        key = (self.identity, HEADER)
        [header] = _COPY_METADATA.lookup([key])
        if header is None:
            BlockFileReader._open(self)
            header = {name: getattr(self, name) for name in _HEADER_STATE}
            # a parsed header holds about eight times its JSON bytes
            _COPY_METADATA.store([(key, header, 8 * self._data_start)])
        else:
            self.__dict__.update(header)

    def blocks(self) -> List[BlockInfo]:
        """The block directory, walked once per file identity."""
        key = (self.identity, BLOCKS)
        [blocks] = _COPY_METADATA.lookup([key])
        if blocks is None:
            blocks = BlockFileReader.blocks(self)
            _COPY_METADATA.store([(key, blocks,
                                   3 * _resident("int", blocks, 0))])
        return blocks

    def _read_block(self) -> Tuple[bytes, int]:
        offset = self._file.tell()
        payload, n_records = BlockFileReader._read_block(self)
        self._last_block = (payload, offset)
        return payload, n_records

    def block_key(self, payload: bytes) -> Optional[Tuple[Any, int]]:
        """``(identity, block offset)`` when ``payload`` is the block this
        reader read last -- what the decoded-column cache keys its
        segments under --, else ``None`` (a payload from elsewhere)."""
        last, offset = self._last_block
        return (self.identity, offset) if payload is last else None

    def scanner(self, shape: ReadShape) -> Optional[ColumnScanner]:
        """The record path's scan: the fields of ``shape`` in stored order
        (slot *i* is the *i*-th captured field), keys unless it skips them;
        ``None`` for an opaque copy, which only the reference decode reads."""
        if not self.value_schema.transparent:
            return None
        names = [f.name for f in self.stored_schema.fields
                 if shape.fields is None or f.name in shape.fields]
        return column_scanner(self.key_schema, self.stored_schema,
                              {name: i for i, name in enumerate(names)},
                              shape.decode_keys)

    def dictionary(self) -> List[str]:
        """The dict column's code -> string table (loaded once)."""
        if self._code_table is None:
            self._file.seek(self._data_end)
            count, _ = self._read_uvarint_from_file()
            table: List[str] = []
            for _ in range(count):
                length, _ = self._read_uvarint_from_file()
                raw = self._file.read(length)
                if len(raw) != length:
                    raise CorruptFileError(f"{self.path}: truncated code table")
                table.append(raw.decode("utf-8"))
            self._code_table = table
        return self._code_table

    def fences(self) -> Tuple[List[BlockInfo], List[bytes]]:
        """A sorted copy's blocks and their fences (first and last order
        key of each, in block order), read off the footer alone -- once
        per file identity, through the decoded-column cache -- and checked
        against the data region."""
        key = (self.identity, FENCES)
        [fences] = _COLUMN_CACHE.lookup([key])
        if fences is None:
            fences = self._read_fences()
            blocks, keys = fences
            # a BlockInfo holds about what three ints do
            size = (_resident("bytes", keys, sum(map(len, keys)))
                    + 3 * _resident("int", blocks, 0))
            _COLUMN_CACHE.store([(key, fences, size)])
        return fences

    def _read_fences(self) -> Tuple[List[BlockInfo], List[bytes]]:
        if self.key_field is None:
            raise StorageError(f"{self.path}: not a sorted copy")
        self._file.seek(self._data_end)
        raw = self._file.read(
            self._file_size - FOOTER_POINTER_BYTES - self._data_end)
        try:  # past the empty code table
            n, at = varint.decode_uvarint(raw, 1, len(raw)) if raw[1:] \
                else (0, 1)
            lengths, counts, firsts, lasts = _DIRECTORY._decode(
                raw[at:], n)[0] if n else [[]] * 4
            keys = list(chain.from_iterable(zip(firsts, lasts)))
            if (raw[:1] != b"\x00" or keys != sorted(keys)
                    or self._data_start + sum(lengths) != self._data_end):
                raise ValueError("footer mismatch")
        except (SerializationError, IndexError, TypeError, ValueError) as exc:
            raise CorruptFileError(
                f"{self.path}: fences do not describe the blocks") from exc
        return list(map(BlockInfo, accumulate(
            lengths, initial=self._data_start), lengths, counts)), keys

    def range_blocks(self, lo: Optional[bytes], hi: Optional[bytes],
                     lo_inclusive: bool = True, hi_inclusive: bool = True
                     ) -> List[BlockInfo]:
        """A sorted copy's one contiguous run of blocks that can hold order
        keys in the range (``None`` bounds are open): from the first block
        whose last key passes ``lo`` to the last whose first key passes
        ``hi``."""
        blocks, keys = self.fences()
        start = 0 if lo is None else (
            bisect_left if lo_inclusive else bisect_right)(keys[1::2], lo)
        stop = len(blocks) if hi is None else (
            bisect_right if hi_inclusive else bisect_left)(keys[0::2], hi)
        return blocks[start:stop]

    # -- the reference decode ------------------------------------------------

    def decode_block(self, payload: bytes, n_records: int
                     ) -> Iterator[Tuple[Record, Record]]:
        """Yield one block's (key, value) pairs, every column decoded
        value by value and checked: the format's reference decode."""
        end = len(payload)
        try:
            _logical, pos = varint.decode_uvarint(payload, 0, end)
            columns = []
            for name, kind in self._columns:
                length, pos = varint.decode_uvarint(payload, pos, end)
                if pos + length > end:
                    raise CorruptFileError(
                        f"{self.path}: truncated segment of column {name!r}")
                columns.append(self._reference_column(
                    name, kind, payload, pos, pos + length, n_records))
                pos += length
        except SerializationError as exc:
            raise CorruptFileError(
                f"{self.path}: truncated block ({exc})") from exc
        if pos != end:
            raise CorruptFileError(f"{self.path}: trailing block bytes")
        n_keys = len(self.key_schema.fields)
        decode = None if self.value_schema.transparent \
            else self.value_schema.decode
        for row in zip(*columns) if columns else [()] * n_records:
            yield (Record(self.key_schema, row[:n_keys]),
                   Record(self.stored_schema, row[n_keys:]) if decode is None
                   else decode(row[-1]))

    def _reference_column(self, name: str, kind: str, buf: bytes,
                          start: int, stop: int, n: int) -> List[Any]:
        def damaged(what: str) -> CorruptFileError:
            return CorruptFileError(f"{self.path}: column {name!r}: {what}")

        if kind == "double":
            if stop - start != 8 * n:
                raise damaged(f"{stop - start} bytes for {n} doubles")
            return [struct.unpack_from("<d", buf, start + 8 * i)[0]
                    for i in range(n)]
        if kind == "bool":
            if stop - start != n:
                raise damaged(f"{stop - start} bytes for {n} bools")
            return [buf[start + i] != 0 for i in range(n)]
        if start == stop:
            raise damaged("no width tag")
        tag = buf[start]
        delta = kind == "int" and tag & DELTA_TAG
        width = tag & ~DELTA_TAG if kind == "int" else tag
        if width not in (1, 2, 4, 8):
            raise damaged(f"bad width tag {tag}")
        at = start + (9 if delta else 1)  # a delta column's first value
        values_end = at + (n - 1 if delta else n) * width
        if delta and n < 2 or values_end > stop or \
                kind == "int" and values_end != stop:
            raise damaged(f"{stop - start - 1} bytes for {n} values of "
                          f"width {width}")
        ints = [int.from_bytes(buf[p:p + width], "little", signed=True)
                for p in range(at, values_end, width)]
        if delta:
            total = int.from_bytes(buf[start + 1:at], "little", signed=True)
            absolute = [total]
            for difference in ints:
                total += difference
                absolute.append(total)
            return absolute
        if kind == "int":
            return ints
        if any(length < 0 for length in ints) or \
                sum(ints) != stop - values_end:
            raise damaged(f"lengths sum to {sum(ints)} but the blob holds "
                          f"{stop - values_end} bytes")
        values: List[Any] = []
        for length in ints:
            raw = bytes(buf[values_end:values_end + length])
            values_end += length
            if kind == "string":
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise damaged(f"bad UTF-8 ({exc.reason})") from exc
            values.append(raw)
        return values
