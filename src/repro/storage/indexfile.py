"""Selection indexes: record files sorted on one field, with block fences.

The paper's selection optimization stores the input sorted on the
predicate field so that execution "scans just the relevant portion of
the input data" (Section 2.1).  An index file is the block-file container
of :mod:`repro.storage.blockfile` with magic ``RPIX``, the identity value
codec, one header extra (``key_field``) and a footer of per-block
*fences*: each block's length and record count, and the first and last
*order key* (:func:`~repro.storage.orderkeys.encode_key` of the indexed
field) it holds.  The fences are a two-level B+Tree's interior level
whose leaves are blocks.

Its records are the original (key, value) pairs -- the value projected,
for a selection+projection index -- in non-decreasing order-key order.
A range read bisects the fences into one contiguous run of blocks
(:meth:`IndexFileReader.range_blocks`) and reads it like any other block
file; only the run's two edge blocks can hold records outside the range.

Footer layout (before the container's pointer to its start), every
integer a little-endian uint32, fixed-width so that opening an index
unpacks its directory in one call::

    n_blocks | n_blocks block lengths | n_blocks record counts
    | 2 * n_blocks fence key lengths (first, last per block) | fence keys
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import BTreeError, CorruptFileError
from repro.storage.blockfile import (
    FOOTER_POINTER_BYTES,
    BlockFileReader,
    BlockFileWriter,
    BlockInfo,
)
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import Record, Schema

MAGIC = b"RPIX"

#: Page-sized blocks: a range read charges whole blocks.
INDEX_BLOCK_SIZE = 4096


class IndexFileWriter(BlockFileWriter):
    """Writes pairs arriving in non-decreasing order of ``key_field``
    (:meth:`append`, or :meth:`append_sorted` a key's rows at a time),
    recording each block's fences as it is flushed."""

    MAGIC = MAGIC

    def __init__(self, path: str, key_schema: Schema, value_schema: Schema,
                 key_field: str, block_size: int = INDEX_BLOCK_SIZE,
                 metadata: Optional[Dict[str, Any]] = None):
        self.key_field = key_field
        self._key_type = value_schema.field(key_field).ftype
        #: per flushed block: length, record count, first and last key
        self._lengths: List[int] = []
        self._counts: List[int] = []
        self._keys: List[bytes] = []
        #: order keys of the open block's first row and of the last row
        #: appended
        self._first = self._last = b""
        super().__init__(path, key_schema, value_schema, block_size, metadata)

    def _header_extras(self) -> Dict[str, Any]:
        return {"key_field": self.key_field}

    def append(self, key: Record, value: Record) -> None:
        self.append_sorted(
            encode_key(self._key_type, getattr(value, self.key_field)),
            (key.as_tuple() + value.as_tuple(),))

    def append_sorted(self, order_key: bytes,
                      rows: Iterable[Tuple[Any, ...]]) -> None:
        """Append pairs given as rows of field values (the key's, then the
        value's) that all have order key ``order_key``, which must not
        precede the last one appended."""
        if order_key < self._last:
            raise BTreeError(
                "index records must arrive in non-decreasing key order "
                f"({order_key!r} after {self._last!r})")
        if not self._buffer_records:
            self._first = order_key
        self._last = order_key
        self.append_rows(rows)

    def _flush_block(self) -> None:
        n_records, written = self._buffer_records, self.bytes_written
        super()._flush_block()
        if not n_records:
            return
        self._lengths.append(self.bytes_written - written)
        self._counts.append(n_records)
        self._keys += (self._first, self._last)
        # rows of the open key that did not fit start the next block
        self._first = self._last

    @property
    def n_blocks(self) -> int:
        return len(self._lengths)

    def _footer(self) -> bytes:
        ints = [self.n_blocks, *self._lengths, *self._counts,
                *map(len, self._keys)]
        return struct.pack(f"<{len(ints)}I", *ints) + b"".join(self._keys)


class IndexFileReader(BlockFileReader):
    """Reads an index file; its fences are read, and charged to
    ``bytes_read``, when it opens."""

    MAGIC = MAGIC
    FOOTER = "fence"

    def _bind_header(self, header: Dict[str, Any]) -> None:
        self.key_field: str = header["key_field"]
        self.key_type = self.value_schema.field(self.key_field).ftype

    def _locate_footer(self) -> None:
        super()._locate_footer()
        self._file.seek(self._data_end)
        raw = self._file.read(self._file_size - self._data_end)
        self.bytes_read += len(raw)
        try:
            (n,) = struct.unpack_from("<I", raw)
            ints = struct.unpack_from(f"<{4 * n}I", raw, 4)
        except struct.error as exc:
            raise CorruptFileError(
                f"{self.path}: truncated fence footer ({exc})") from exc
        lengths, counts = ints[:n], ints[n:2 * n]
        ends = list(accumulate(ints[2 * n:], initial=4 + 16 * n))
        keys = [raw[start:end] for start, end in zip(ends, ends[1:])]
        #: the blocks, and their first and last order keys
        self._directory = list(map(BlockInfo, accumulate(
            lengths, initial=self._data_start), lengths, counts))
        self._firsts, self._lasts = keys[0::2], keys[1::2]
        if (ends[-1] != len(raw) - FOOTER_POINTER_BYTES or keys != sorted(keys)
                or self._data_start + sum(lengths) != self._data_end):
            raise CorruptFileError(
                f"{self.path}: fences do not describe the blocks")

    def order_key(self, value: Record) -> bytes:
        """The order key ``value`` is stored under."""
        return encode_key(self.key_type, getattr(value, self.key_field))

    def range_blocks(self, lo: Optional[bytes], hi: Optional[bytes],
                     lo_inclusive: bool = True, hi_inclusive: bool = True
                     ) -> List[BlockInfo]:
        """The one contiguous run of blocks that can hold order keys in
        the range (``None`` bounds are open): from the first block whose
        last key passes ``lo`` to the last whose first key passes ``hi``."""
        start = 0 if lo is None else (
            bisect_left if lo_inclusive else bisect_right)(self._lasts, lo)
        stop = len(self._firsts) if hi is None else (
            bisect_right if hi_inclusive else bisect_left)(self._firsts, hi)
        return self._directory[start:stop]
