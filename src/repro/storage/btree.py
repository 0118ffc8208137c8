"""Disk-backed B+Tree used by Manimal's selection indexes.

The paper's selection optimization materializes a B+Tree over the predicate
field so that execution "scans just the relevant portion of the input data"
(Section 2.1).  This module provides that structure:

* **Bulk construction** from a sorted run of ``(key_bytes, value_bytes)``
  pairs -- this is what the synthesized index-generation MapReduce program
  produces (its shuffle phase delivers sorted keys).
* **Range scans** over order-preserving encoded keys (see
  :mod:`repro.storage.orderkeys`), with duplicate keys fully supported.
* **Byte-level I/O accounting**: every page fetched is charged to
  ``bytes_read``, which the cluster cost model converts into simulated
  scan time.  Interior pages are cached after first touch (they would be
  memory-resident in any real deployment); leaf fetches are always charged.

File layout::

    magic "RPBT" | uvarint header_len | header JSON
    page*                 (variable-length, written sequentially)
    footer JSON           (page directory, root id, height, entry count)
    uvarint footer_len backwards-encoded as fixed 8-byte LE | magic "RPBE"
"""

from __future__ import annotations

import json
import os
import struct
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import BTreeError, CorruptFileError
from repro.storage import varint

MAGIC = b"RPBT"
END_MAGIC = b"RPBE"
DEFAULT_PAGE_SIZE = 4096

_LEAF = 0
_INTERNAL = 1


def _encode_leaf(entries: List[Tuple[bytes, bytes]], next_leaf: int) -> bytes:
    out = bytearray()
    out += varint.encode_uvarint(_LEAF)
    out += varint.encode_uvarint(len(entries))
    for key, value in entries:
        out += varint.encode_uvarint(len(key))
        out += key
        out += varint.encode_uvarint(len(value))
        out += value
    out += varint.encode_svarint(next_leaf)
    return bytes(out)


def _encode_internal(keys: List[bytes], children: List[int]) -> bytes:
    if len(children) != len(keys) + 1:
        raise BTreeError("internal node needs len(children) == len(keys)+1")
    out = bytearray()
    out += varint.encode_uvarint(_INTERNAL)
    out += varint.encode_uvarint(len(keys))
    for key in keys:
        out += varint.encode_uvarint(len(key))
        out += key
    for child in children:
        out += varint.encode_uvarint(child)
    return bytes(out)


class _Leaf:
    __slots__ = ("keys", "values", "next_leaf")

    def __init__(self, keys: List[bytes], values: List[bytes], next_leaf: int):
        self.keys = keys
        self.values = values
        self.next_leaf = next_leaf


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[bytes], children: List[int]):
        self.keys = keys
        self.children = children


def _decode_page(raw: bytes):
    kind, pos = varint.decode_uvarint(raw, 0)
    n, pos = varint.decode_uvarint(raw, pos)
    if kind == _LEAF:
        keys: List[bytes] = []
        values: List[bytes] = []
        for _ in range(n):
            klen, pos = varint.decode_uvarint(raw, pos)
            keys.append(raw[pos:pos + klen])
            pos += klen
            vlen, pos = varint.decode_uvarint(raw, pos)
            values.append(raw[pos:pos + vlen])
            pos += vlen
        next_leaf, pos = varint.decode_svarint(raw, pos)
        return _Leaf(keys, values, next_leaf)
    if kind == _INTERNAL:
        keys = []
        for _ in range(n):
            klen, pos = varint.decode_uvarint(raw, pos)
            keys.append(raw[pos:pos + klen])
            pos += klen
        children: List[int] = []
        for _ in range(n + 1):
            child, pos = varint.decode_uvarint(raw, pos)
            children.append(child)
        return _Internal(keys, children)
    raise CorruptFileError(f"unknown B+Tree page kind {kind}")


class BTreeBuilder:
    """One-pass bulk loader; requires keys in non-decreasing order.

    Pages are filled to ``page_size`` (a soft target -- a single oversized
    entry still gets a page of its own) and parent levels are built as leaf
    pages seal, so construction is streaming and uses O(height) memory
    beyond the current page.
    """

    def __init__(self, path: str, page_size: int = DEFAULT_PAGE_SIZE,
                 metadata: Optional[Dict[str, Any]] = None):
        if page_size < 64:
            raise BTreeError("page_size must be at least 64 bytes")
        self.path = path
        self.page_size = page_size
        self._file = open(path, "wb")
        header = json.dumps(
            {"page_size": page_size, "metadata": metadata or {}},
            sort_keys=True,
        ).encode("utf-8")
        self._file.write(MAGIC)
        self._file.write(varint.encode_uvarint(len(header)))
        self._file.write(header)
        self._directory: List[Tuple[int, int]] = []  # page id -> (offset, len)
        self._leaf_chain: List[int] = []
        # Per-level pending fences: level i holds (first_key, page_id) of
        # sealed pages awaiting a parent.
        self._pending: List[List[Tuple[bytes, int]]] = [[]]
        self._leaf_entries: List[Tuple[bytes, bytes]] = []
        self._leaf_bytes = 0
        self._last_leaf_id: Optional[int] = None
        self._last_key: Optional[bytes] = None
        self.n_entries = 0
        self._finished = False

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry; keys must arrive sorted (duplicates allowed)."""
        if self._finished:
            raise BTreeError("builder already finished")
        if self._last_key is not None and key < self._last_key:
            raise BTreeError(
                "bulk load requires non-decreasing keys "
                f"({key!r} after {self._last_key!r})"
            )
        self._last_key = key
        entry_size = len(key) + len(value) + 10
        if self._leaf_entries and self._leaf_bytes + entry_size > self.page_size:
            self._seal_leaf()
        self._leaf_entries.append((key, value))
        self._leaf_bytes += entry_size
        self.n_entries += 1

    def _write_page(self, raw: bytes) -> int:
        page_id = len(self._directory)
        offset = self._file.tell()
        self._file.write(raw)
        self._directory.append((offset, len(raw)))
        return page_id

    def _seal_leaf(self) -> None:
        entries = self._leaf_entries
        self._leaf_entries = []
        self._leaf_bytes = 0
        page_id = self._write_page(_encode_leaf(entries, -1))
        # Patch the previous leaf's next pointer lazily: we cannot rewrite
        # variable-length pages in place, so instead we record sibling links
        # in the footer directory (leaf chain), keeping pages immutable.
        self._chain_leaf(page_id)
        self._push_fence(0, entries[0][0], page_id)

    def _chain_leaf(self, page_id: int) -> None:
        self._leaf_chain.append(page_id)

    def _push_fence(self, level: int, first_key: bytes, page_id: int) -> None:
        while len(self._pending) <= level:
            self._pending.append([])
        self._pending[level].append((first_key, page_id))
        # Seal a parent page when enough fences accumulate to fill one.
        approx = sum(len(k) + 6 for k, _ in self._pending[level])
        if approx > self.page_size:
            self._seal_internal(level)

    def _seal_internal(self, level: int) -> None:
        fences = self._pending[level]
        self._pending[level] = []
        keys = [k for k, _ in fences[1:]]
        children = [pid for _, pid in fences]
        page_id = self._write_page(_encode_internal(keys, children))
        self._push_fence(level + 1, fences[0][0], page_id)

    def finish(self) -> "BTreeStats":
        """Seal remaining pages, write the footer, and close the file."""
        if self._finished:
            raise BTreeError("builder already finished")
        self._finished = True
        if self._leaf_entries:
            self._seal_leaf()
        if not self._directory:
            # Empty tree: materialize a single empty leaf as the root.
            self._write_page(_encode_leaf([], -1))
            self._chain_leaf(0)
            self._pending[0].append((b"", 0))
        # Collapse pending fences upward until a single root remains.
        level = 0
        while True:
            fences = self._pending[level]
            higher = any(self._pending[level + 1:])
            if len(fences) == 1 and not higher:
                root = fences[0][1]
                break
            if fences and (len(fences) > 1 or higher):
                self._seal_internal(level)
            level += 1
            if level >= len(self._pending):
                # All fences propagated; root is the last page written.
                root = len(self._directory) - 1
                break
        # Height ~= number of fence levels created during the build.
        height = max(1, len(self._pending))
        leaf_chain = self._leaf_chain
        footer = json.dumps(
            {
                "directory": self._directory,
                "root": root,
                "n_entries": self.n_entries,
                "leaf_chain": leaf_chain,
                "height": height,
            },
            sort_keys=True,
        ).encode("utf-8")
        self._file.write(footer)
        self._file.write(struct.pack("<Q", len(footer)))
        self._file.write(END_MAGIC)
        self._file.close()
        return BTreeStats(
            n_entries=self.n_entries,
            n_pages=len(self._directory),
            n_leaves=len(leaf_chain),
            file_size=os.path.getsize(self.path),
        )


class BTreeStats:
    """Summary statistics for a built tree (used in catalog entries)."""

    __slots__ = ("n_entries", "n_pages", "n_leaves", "file_size")

    def __init__(self, n_entries: int, n_pages: int, n_leaves: int,
                 file_size: int):
        self.n_entries = n_entries
        self.n_pages = n_pages
        self.n_leaves = n_leaves
        self.file_size = file_size

    def __repr__(self) -> str:
        return (
            f"BTreeStats(entries={self.n_entries}, pages={self.n_pages}, "
            f"leaves={self.n_leaves}, bytes={self.file_size})"
        )


class BTree:
    """Read-only view over a built B+Tree file."""

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb")
        size = os.path.getsize(path)
        if size < len(MAGIC) + 8 + len(END_MAGIC):
            raise CorruptFileError(f"{path}: too small to be a B+Tree")
        self._file.seek(0)
        if self._file.read(len(MAGIC)) != MAGIC:
            raise CorruptFileError(f"{path}: bad B+Tree magic")
        self._file.seek(size - len(END_MAGIC) - 8)
        (footer_len,) = struct.unpack("<Q", self._file.read(8))
        if self._file.read(len(END_MAGIC)) != END_MAGIC:
            raise CorruptFileError(f"{path}: bad B+Tree end magic")
        footer_start = size - len(END_MAGIC) - 8 - footer_len
        self._file.seek(footer_start)
        footer = json.loads(self._file.read(footer_len).decode("utf-8"))
        self._directory: List[Tuple[int, int]] = [
            (int(o), int(l)) for o, l in footer["directory"]
        ]
        self._root = int(footer["root"])
        self.n_entries = int(footer["n_entries"])
        self._leaf_chain: List[int] = [int(p) for p in footer["leaf_chain"]]
        self._leaf_pos = {pid: i for i, pid in enumerate(self._leaf_chain)}
        self.height = int(footer.get("height", 1))
        # Header metadata
        self._file.seek(len(MAGIC))
        header_len, _ = self._read_uvarint()
        header = json.loads(self._file.read(header_len).decode("utf-8"))
        self.page_size = header["page_size"]
        self.metadata: Dict[str, Any] = header.get("metadata", {})
        self.bytes_read = 0
        self.pages_read = 0
        self._internal_cache: Dict[int, _Internal] = {}

    def _read_uvarint(self) -> Tuple[int, int]:
        result = 0
        shift = 0
        n = 0
        while True:
            raw = self._file.read(1)
            if not raw:
                raise CorruptFileError(f"{self.path}: truncated varint")
            n += 1
            byte = raw[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, n
            shift += 7

    def reset_io_stats(self) -> None:
        self.bytes_read = 0
        self.pages_read = 0

    def _fetch(self, page_id: int):
        cached = self._internal_cache.get(page_id)
        if cached is not None:
            return cached
        try:
            offset, length = self._directory[page_id]
        except IndexError:
            raise BTreeError(f"page id {page_id} out of range") from None
        self._file.seek(offset)
        raw = self._file.read(length)
        self.bytes_read += length
        self.pages_read += 1
        page = _decode_page(raw)
        if isinstance(page, _Internal):
            self._internal_cache[page_id] = page
        return page

    def _find_leaf(self, key: bytes) -> int:
        """Page id of the leftmost leaf that may contain ``key``."""
        page_id = self._root
        page = self._fetch(page_id)
        while isinstance(page, _Internal):
            # bisect_left: when key equals a separator, duplicates of the
            # key may live in the child *left* of the separator, so descend
            # there and rely on the leaf chain to walk right.
            idx = bisect_left(page.keys, key)
            page_id = page.children[idx]
            page = self._fetch(page_id)
        return page_id

    def scan(
        self,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) pairs with keys in the given range, in order.

        ``None`` bounds are unbounded.  Duplicates are yielded in insertion
        order within equal keys.
        """
        for keys, values in self._range_leaves(lo, hi, lo_inclusive,
                                               hi_inclusive):
            yield from zip(keys, values)

    def _range_leaves(
        self,
        lo: Optional[bytes],
        hi: Optional[bytes],
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Iterator[Tuple[List[bytes], List[bytes]]]:
        """Each leaf's in-range ``(keys, values)``, walking the leaf chain
        from ``lo``'s leaf until a key passes ``hi``."""
        if not self._leaf_chain:
            return
        if lo is None:
            leaf_id = self._leaf_chain[0]
        else:
            leaf_id = self._find_leaf(lo)
        while leaf_id is not None and leaf_id >= 0:
            leaf = self._fetch(leaf_id)
            assert isinstance(leaf, _Leaf)
            keys = leaf.keys
            # Keep the lower bound for subsequent leaves: duplicates of an
            # excluded bound key may span leaf boundaries, and bisect is
            # cheap when all remaining keys already exceed the bound.
            if lo is None:
                start = 0
            elif lo_inclusive:
                start = bisect_left(keys, lo)
            else:
                start = bisect_right(keys, lo)
            if hi is None:
                stop = len(keys)
            elif hi_inclusive:
                stop = bisect_right(keys, hi, start)
            else:
                stop = bisect_left(keys, hi, start)
            yield keys[start:stop], leaf.values[start:stop]
            if stop < len(keys):
                return
            pos = self._leaf_pos.get(leaf_id)
            if pos is None or pos + 1 >= len(self._leaf_chain):
                return
            leaf_id = self._leaf_chain[pos + 1]

    def lookup(self, key: bytes) -> List[bytes]:
        """All values stored under exactly ``key``."""
        return [v for _, v in self.scan(key, key)]

    def scan_all(self) -> Iterator[Tuple[bytes, bytes]]:
        return self.scan(None, None)

    def file_size(self) -> int:
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "BTree":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
