"""Key normalization, sizing and stable hashing for the shuffle.

MapReduce intermediate keys and values in this reproduction are plain
Python objects (ints, strings, floats, tuples, or storage Records).  The
shuffle needs three things from a key:

* a **total order** across whatever mix of types jobs emit (for the sort
  phase) -- provided by :func:`sort_key`;
* a **stable partition hash** that does not depend on interpreter hash
  randomization (so reruns partition identically) -- :func:`stable_hash`;
* a **serialized-size estimate** so the cost model can charge shuffle
  bytes without actually serializing the stream -- :func:`estimate_size`.

Each has a *column* spelling that the shuffle's hot loops call once per
task stream instead of once per pair: :func:`total_size`,
:func:`sort_keys` and :func:`stable_hashes` (plus :func:`pair_sizes`, the
key and value columns of one pair stream).  Each is exactly its per-item
spelling -- ``sum(map(estimate_size, values))``, ``list(map(sort_key,
keys))``, ``list(map(stable_hash, keys))`` -- computed a type at a time:
a homogeneous column of strings, ints, bytes or floats takes one C-level
pass (a join, a bit-length table, ``zip`` with a rank), and
equal-width tuples and records of one class are transposed into their
field columns.  Whatever the column spelling cannot do in one pass
(mixed-type columns, NaN sort keys, long strings' hashes, ragged tuples,
unusual types) goes per item, and on *any* exception the column is
re-walked per item, in order, so the exception raised is the one the
per-item loop raises.

Every shuffle sort is :func:`sort_order`: one stable sort of an index
permutation, on the raw keys when they are all ``str``, all ``int`` or
all ``bytes`` (where they order exactly as their sort keys), and on the
sort keys otherwise.
"""

from __future__ import annotations

import struct
import zlib
from itertools import repeat
from operator import add, and_, attrgetter, lshift, or_, rshift, xor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import MapReduceError
from repro.storage import varint
from repro.storage.serialization import Record

# Type ranks give cross-type comparability: all numerics share one rank so
# int/float keys interoperate; distinct types otherwise sort by rank.
_RANK_NONE = 0
_RANK_NUMBER = 1
_RANK_STR = 2
_RANK_BYTES = 3
_RANK_TUPLE = 4
_RANK_RECORD = 5

#: Every NaN's sort key: after all numbers, equal to itself.  A NaN
#: compares false with everything, so ``(rank, nan)`` would leave the
#: sort order -- and with it which rows group together -- to the input
#: order, which differs between one full sort and a merge of sorted runs.
_NAN_KEY = (_RANK_NUMBER, float("inf"), 1)


def sort_key(value: Any) -> Tuple:
    """Map a value to a tuple that totally orders mixed-type key streams.

    The per-item spelling: the shuffle decorates a task's keys as one
    column (:func:`sort_keys`), which falls back here for what it cannot
    key in one pass.  The common concrete types dispatch through one dict
    lookup instead of an isinstance chain.  All NaNs are one group key,
    sorted after every number.
    """
    handler = _SORT_KEY_DISPATCH.get(type(value))
    if handler is not None:
        return handler(value)
    return _sort_key_slow(value)


def _sort_key_slow(value: Any) -> Tuple:
    """isinstance fallback: subclasses and the rarer key types."""
    if value is None:
        return (_RANK_NONE,)
    if isinstance(value, bool):
        return (_RANK_NUMBER, int(value))
    if isinstance(value, (int, float)):
        return (_RANK_NUMBER, value) if value == value else _NAN_KEY
    if isinstance(value, str):
        return (_RANK_STR, value)
    if isinstance(value, (bytes, bytearray)):
        return (_RANK_BYTES, bytes(value))
    if isinstance(value, tuple):
        return (_RANK_TUPLE, tuple(sort_key(v) for v in value))
    if isinstance(value, Record):
        return (_RANK_RECORD, value.schema.name,
                tuple(sort_key(v) for v in value.as_tuple()))
    raise MapReduceError(
        f"value of type {type(value).__name__} cannot be a shuffle key"
    )


_SORT_KEY_DISPATCH = {
    type(None): lambda v: (_RANK_NONE,),
    bool: lambda v: (_RANK_NUMBER, int(v)),
    int: lambda v: (_RANK_NUMBER, v),
    float: lambda v: (_RANK_NUMBER, v) if v == v else _NAN_KEY,
    str: lambda v: (_RANK_STR, v),
    bytes: lambda v: (_RANK_BYTES, v),
    bytearray: lambda v: (_RANK_BYTES, bytes(v)),
    tuple: lambda v: (_RANK_TUPLE, tuple(sort_key(x) for x in v)),
}


def _canonical_bytes(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(0x00)
    elif isinstance(value, (bool, int, float)):
        # Numerics must hash by *value*, not representation: the sort/group
        # order treats 1, 1.0 and True as equal keys, so the partitioner
        # must send them to the same reducer.  Integral floats (and bools)
        # canonicalize to the int encoding; -0.0 canonicalizes to 0.0,
        # and every NaN bit pattern to one (NaNs are one group key).
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float) and value.is_integer() \
                and abs(value) <= 2.0 ** 53:
            value = int(value)
        if isinstance(value, int):
            out.append(0x02)
            out += varint.encode_svarint(value)
        else:
            out.append(0x03)
            out += struct.pack(
                "<d", value + 0.0 if value == value else float("nan"))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(0x04)
        out += varint.encode_uvarint(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(0x05)
        out += varint.encode_uvarint(len(value))
        out += bytes(value)
    elif isinstance(value, tuple):
        out.append(0x06)
        out += varint.encode_uvarint(len(value))
        for item in value:
            _canonical_bytes(item, out)
    elif isinstance(value, Record):
        out.append(0x07)
        raw = value.schema.name.encode("utf-8")
        out += varint.encode_uvarint(len(raw))
        out += raw
        out += varint.encode_uvarint(len(value.as_tuple()))
        for item in value.as_tuple():
            _canonical_bytes(item, out)
    else:
        raise MapReduceError(
            f"value of type {type(value).__name__} cannot be hashed for "
            "partitioning"
        )


def stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash of a key, independent of PYTHONHASHSEED.

    A ``str`` key (the partitioner's commonest) builds its canonical
    bytes -- ``0x04``, uvarint length, UTF-8 -- in one concatenation.
    """
    if type(value) is str:
        raw = value.encode("utf-8")
        n = len(raw)
        head = bytes((0x04, n)) if n < 128 else b"\x04" + varint.encode_uvarint(n)
        return zlib.crc32(head + raw)
    out = bytearray()
    _canonical_bytes(value, out)
    return zlib.crc32(bytes(out))


def _int_size(value: int) -> int:
    """The bytes of ``value``'s zigzag varint, whatever its magnitude:
    ``svarint_len`` within int64, the same arithmetic past it (where the
    record-file writers refuse the value but the shuffle carries it)."""
    return (((value << 1) ^ -(value < 0)).bit_length() + 6) // 7 or 1


def estimate_size(value: Any) -> int:
    """Approximate serialized size in bytes of a key or value.

    Matches the framing the storage layer would use; the cost model charges
    shuffle and output I/O based on these estimates.  The per-item
    spelling of :func:`total_size`, which the runners call once per
    column; like :func:`sort_key`, dispatches on concrete type first.
    An int of any magnitude is sized (:func:`_int_size`).
    """
    handler = _SIZE_DISPATCH.get(type(value))
    if handler is not None:
        return handler(value)
    return _estimate_size_slow(value)


def _estimate_size_slow(value: Any) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return _int_size(value)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 1
    if isinstance(value, (bytes, bytearray)):
        return len(value) + 1
    if isinstance(value, tuple):
        return 1 + sum(estimate_size(v) for v in value)
    if isinstance(value, Record):
        # a Record subclass -- a block scan's slotted records: size it,
        # and every later one of its type, through the Record fast path
        handler = _SIZE_DISPATCH[type(value)] = _SIZE_DISPATCH[Record]
        return handler(value)
    raise MapReduceError(
        f"cannot estimate size of value type {type(value).__name__}"
    )


_SIZE_DISPATCH = {
    type(None): lambda v: 1,
    bool: lambda v: 1,
    int: _int_size,
    float: lambda v: 8,
    str: lambda v: len(v.encode("utf-8")) + 1,
    bytes: lambda v: len(v) + 1,
    bytearray: lambda v: len(v) + 1,
    tuple: lambda v: 1 + sum(map(estimate_size, v)),
    Record: lambda v: 1 + sum(map(estimate_size, v.as_tuple())),
}


# -- column spellings --------------------------------------------------------

#: A column of values: a list or tuple (indexed, sized).
Column = Sequence[Any]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: an int64's zigzag varint width, by the bit length 0..63 of the int
#: with its sign folded away (``v ^ (v >> 63)``)
_FOLDED_WIDTHS = tuple(max(1, (bits + 7) // 7) for bits in range(64))

_RECORD_VALUES = attrgetter("_values")
_RECORD_NAME = attrgetter("_schema.name")


def _transposed(rows: Column) -> Optional[List[Tuple[Any, ...]]]:
    """The field columns of equal-width ``rows``, or ``None`` when ragged
    (``strict`` raises on the first short row)."""
    try:
        return list(zip(*rows, strict=True))
    except ValueError:
        return None


def _record_rows(column: Column, cls: type) -> Optional[Column]:
    """Each record's field values, when ``cls`` sizes, sorts and hashes
    through :class:`Record`'s own ``schema`` and ``as_tuple``."""
    if cls.as_tuple is not Record.as_tuple or cls.schema is not Record.schema:
        return None
    return list(map(_RECORD_VALUES, column))


def _by_type(column: Column, one_type: Callable[[type, Column], Any],
             per_item: Callable[[Column], Any]) -> Any:
    """``one_type(t, column)`` for a column of the one type ``t``;
    ``per_item(column)`` for a column of several types."""
    types = set(map(type, column))
    if len(types) == 1:
        return one_type(types.pop(), column)
    return per_item(column)


# - sizes -


def _per_item_size(column: Column) -> int:
    return sum(map(estimate_size, column))


def _int_column_size(column: Column) -> int:
    """Each int's zigzag varint width by the bit length of ``v ^ (v >> 63)``
    (``v``, or ``~v`` when negative), one less than its zigzag's."""
    n = len(column)
    lo, hi = min(column), max(column)
    if -64 <= lo and hi < 64:
        return n
    if lo < _INT64_MIN or hi > _INT64_MAX:
        return sum(map(_int_size, column))
    if lo < 0:
        column = map(xor, column, map(rshift, column, repeat(63)))
    return sum(map(_FOLDED_WIDTHS.__getitem__, map(int.bit_length, column)))


def _str_column_size(column: Column) -> int:
    joined = "".join(column)
    if joined.isascii():
        return len(joined) + len(column)
    return len(joined.encode("utf-8")) + len(column)


def _nested_size(rows: Column) -> int:
    """One byte per row plus every field column's size."""
    fields = _transposed(rows)
    if fields is None:
        return _per_item_size(rows)
    return len(rows) + sum(map(_column_size, fields))


def _type_size(t: type, column: Column) -> int:
    sizer = _SIZE_COLUMN.get(t)
    if sizer is not None:
        return sizer(column)
    if issubclass(t, Record):
        rows = _record_rows(column, t)
        if rows is not None:
            return _nested_size(rows)
    return _per_item_size(column)


def _column_size(column: Column) -> int:
    if not column:
        return 0
    return _by_type(column, _type_size, _per_item_size)


_SIZE_COLUMN: Dict[type, Callable[[Column], int]] = {
    type(None): len,
    bool: len,
    int: _int_column_size,
    float: lambda column: 8 * len(column),
    str: _str_column_size,
    bytes: lambda column: sum(map(len, column)) + len(column),
    bytearray: lambda column: sum(map(len, column)) + len(column),
    tuple: _nested_size,
}


def total_size(values: Column) -> int:
    """``sum(map(estimate_size, values))``, a column at a time."""
    try:
        return _column_size(values)
    except Exception:
        return _per_item_size(values)


def pair_sizes(keys: Column, values: Column) -> Tuple[int, int]:
    """``(total_size(keys), total_size(values))`` of one pair stream.

    On failure the pairs are re-walked in order -- each key, then its
    value -- so the exception raised is the one a per-pair
    ``estimate_size(key) + estimate_size(value)`` loop raises first.
    """
    try:
        return _column_size(keys), _column_size(values)
    except Exception:
        for key, value in zip(keys, values):
            estimate_size(key)
            estimate_size(value)
        return _per_item_size(keys), _per_item_size(values)


# - sort keys -


def _per_item_sort_keys(column: Column) -> List[Tuple]:
    return list(map(sort_key, column))


def _float_sort_keys(column: Column) -> List[Tuple]:
    if all(map(float.__eq__, column, column)):
        return list(zip(repeat(_RANK_NUMBER), column))
    return _per_item_sort_keys(column)  # NaN keys are one group


def _rows_sort_keys(rows: Column) -> Optional[List[Tuple[Tuple, ...]]]:
    """Per row, the tuple of its fields' sort keys (``None`` if ragged)."""
    fields = _transposed(rows)
    if fields is None:
        return None
    if not fields:
        return [()] * len(rows)
    return list(zip(*map(_column_sort_keys, fields)))


def _type_sort_keys(t: type, column: Column) -> List[Tuple]:
    ranked = _SORT_KEY_COLUMN.get(t)
    if ranked is not None:
        return ranked(column)
    if t is tuple:
        inner = _rows_sort_keys(column)
        if inner is not None:
            return list(zip(repeat(_RANK_TUPLE), inner))
    elif issubclass(t, Record):
        rows = _record_rows(column, t)
        inner = None if rows is None else _rows_sort_keys(rows)
        if inner is not None:
            return list(zip(repeat(_RANK_RECORD),
                            map(_RECORD_NAME, column), inner))
    return _per_item_sort_keys(column)


def _column_sort_keys(column: Column) -> List[Tuple]:
    if not column:
        return []
    return _by_type(column, _type_sort_keys, _per_item_sort_keys)


_SORT_KEY_COLUMN: Dict[type, Callable[[Column], List[Tuple]]] = {
    type(None): lambda column: [(_RANK_NONE,)] * len(column),
    bool: lambda column: list(zip(repeat(_RANK_NUMBER), map(int, column))),
    int: lambda column: list(zip(repeat(_RANK_NUMBER), column)),
    float: _float_sort_keys,
    str: lambda column: list(zip(repeat(_RANK_STR), column)),
    bytes: lambda column: list(zip(repeat(_RANK_BYTES), column)),
    bytearray: lambda column: list(zip(repeat(_RANK_BYTES),
                                       map(bytes, column))),
}


def sort_keys(keys: Column) -> List[Tuple]:
    """``list(map(sort_key, keys))``, a column at a time."""
    try:
        return _column_sort_keys(keys)
    except Exception:
        return _per_item_sort_keys(keys)


#: Key types whose raw values order and compare exactly as their sort
#: keys do: within one type, :func:`sort_key` only prepends a constant rank.
_RAW_ORDERED = frozenset({str, int, bytes})


def sort_order(keys: Column, skeys: Optional[Column] = None,
               by_hash: bool = False
               ) -> Union[Tuple[List[int], Column], Dict[Any, None], None]:
    """The stable sort of ``keys`` as an index permutation, and the column
    it sorted.

    The column is ``keys`` itself when every key has the same exact type,
    one of ``str``, ``int`` and ``bytes``, and otherwise their sort keys
    (``skeys`` when the caller already has them, else :func:`sort_keys`,
    which raises for a key that cannot be shuffled).  Both order the keys
    the same and call the same neighbours equal, so the permutation is
    the stable sort by :func:`sort_key` either way, and equal runs of the
    column permuted by it are the groups.

    ``by_hash=True`` sorts nothing: for such a column it returns the
    distinct keys in first-occurrence order (a dict), and ``None`` for
    any other.  A raw key's ``==`` and ``hash`` are its sort key's, so
    grouping by hash finds the groups the sort would.
    """
    types = set(map(type, keys))
    raw = len(types) == 1 and types <= _RAW_ORDERED
    if by_hash:
        return dict.fromkeys(keys) if raw else None
    column = keys if raw else sort_keys(keys) if skeys is None else skeys
    return sorted(range(len(column)), key=column.__getitem__), column


# - partition hashes -

#: CRC-32 of the canonical-bytes head of a string of 0..127 UTF-8 bytes,
#: which ``zlib.crc32`` continues over the string's bytes
_STR_HEAD_CRCS = tuple(zlib.crc32(bytes((0x04, n))) for n in range(128))
#: ``stable_hash`` of -64..63 (one-byte svarints), indexed by value + 64
_SMALL_INT_HASHES = tuple(
    zlib.crc32(b"\x02" + varint.encode_svarint(v)) for v in range(-64, 64))
#: per bit length 0..64 of a zigzag value: its varint's bytes, the
#: canonical bytes' length (tag first) and, as one little-endian int,
#: the tag and the varint's continuation bits
_VARINT_WIDTHS = tuple(max(1, (bits + 6) // 7) for bits in range(65))
_INT_LENGTHS = tuple(width + 1 for width in _VARINT_WIDTHS)
_INT_HEADS = tuple(0x02 | sum(0x80 << 8 * i for i in range(1, width))
                   for width in _VARINT_WIDTHS)


def _per_item_hashes(column: Column) -> List[int]:
    return list(map(stable_hash, column))


def _str_hashes(column: Column) -> List[int]:
    raw = list(map(str.encode, column))
    lengths = list(map(len, raw))
    if max(lengths) > 127:
        return _per_item_hashes(column)
    return list(map(zlib.crc32, raw,
                    map(_STR_HEAD_CRCS.__getitem__, lengths)))


def _int_hashes(column: Column) -> List[int]:
    """bool and int: one-byte svarints by table, the rest by their
    canonical bytes (:func:`_int_canonical`)."""
    if -64 <= min(column) and max(column) < 64:
        return list(map(_SMALL_INT_HASHES.__getitem__,
                        map((64).__add__, column)))
    return list(map(zlib.crc32, _int_canonical(column)))


def _type_hashes(t: type, column: Column) -> List[int]:
    hashes = _HASH_COLUMN.get(t)
    if hashes is not None:
        return hashes(column)
    if t is tuple or issubclass(t, Record):
        return list(map(zlib.crc32, _type_canonical(t, column)))
    return _per_item_hashes(column)


_HASH_COLUMN: Dict[type, Callable[[Column], List[int]]] = {
    type(None): lambda column: [zlib.crc32(b"\x00")] * len(column),
    bool: _int_hashes,
    int: _int_hashes,
    str: _str_hashes,
}


def stable_hashes(keys: Column) -> List[int]:
    """``list(map(stable_hash, keys))``, a column at a time."""
    try:
        if not keys:
            return []
        return _by_type(keys, _type_hashes, _per_item_hashes)
    except Exception:
        return _per_item_hashes(keys)


# - canonical bytes (what a partition hash hashes), for nested keys -


def _canonical(value: Any) -> bytes:
    out = bytearray()
    _canonical_bytes(value, out)
    return bytes(out)


def _per_item_canonical(column: Column) -> List[bytes]:
    return list(map(_canonical, column))


def _int_canonical(column: Column) -> List[bytes]:
    """``0x02`` and each int's zigzag varint, built as one little-endian
    int per value a column pass at a time; past int64, per item (which
    raises as ``stable_hash`` does)."""
    lo, hi = min(column), max(column)
    if lo < _INT64_MIN or hi > _INT64_MAX:
        return _per_item_canonical(column)
    zigzags = (list(map(add, column, column)) if lo >= 0 else
               list(map(xor, map(lshift, column, repeat(1)),
                        map(rshift, column, repeat(63)))))
    bits = list(map(int.bit_length, zigzags))
    # Spreading each 7-bit group to a byte adds, per group i >= 1, the
    # value with its low 7i bits cleared, shifted up i - 1 more bits.
    spread = zigzags
    for i in range(1, _VARINT_WIDTHS[max(bits)]):
        cleared = map(and_, zigzags, repeat(-1 << 7 * i))
        spread = list(map(add, spread, cleared if i == 1 else
                          map(lshift, cleared, repeat(i - 1))))
    encoded = map(or_, map(lshift, spread, repeat(8)),
                  map(_INT_HEADS.__getitem__, bits))
    return list(map(int.to_bytes, encoded,
                    map(_INT_LENGTHS.__getitem__, bits), repeat("little")))


def _text_canonical(tag: int, raw: List[bytes]) -> Optional[List[bytes]]:
    """``tag``, the uvarint length and the bytes, for values under 128
    bytes (``None`` past that)."""
    lengths = list(map(len, raw))
    if max(lengths) > 127:
        return None
    heads = [bytes((tag, n)) for n in range(max(lengths) + 1)]
    return list(map(add, map(heads.__getitem__, lengths), raw))


def _rows_canonical(heads: Column, rows: Column) -> Optional[List[bytes]]:
    """Each row's head, then its fields' canonical bytes (``None`` if
    ragged)."""
    fields = _transposed(rows)
    if fields is None:
        return None
    return list(map(b"".join, zip(heads, *map(_column_canonical, fields))))


def _type_canonical(t: type, column: Column) -> List[bytes]:
    encoded: Optional[List[bytes]] = None
    if t is type(None):
        encoded = [b"\x00"] * len(column)
    elif t is int or t is bool:
        encoded = _int_canonical(column)
    elif t is str:
        encoded = _text_canonical(0x04, list(map(str.encode, column)))
    elif t is bytes:
        encoded = _text_canonical(0x05, column)
    elif t is tuple:
        head = b"\x06" + varint.encode_uvarint(len(column[0]))
        encoded = _rows_canonical([head] * len(column), column)
    elif issubclass(t, Record):
        rows = _record_rows(column, t)
        if rows is not None:
            heads = {}
            for name in set(map(_RECORD_NAME, column)):
                raw = name.encode("utf-8")
                heads[name] = (b"\x07" + varint.encode_uvarint(len(raw))
                               + raw + varint.encode_uvarint(len(rows[0])))
            encoded = _rows_canonical(
                list(map(heads.__getitem__, map(_RECORD_NAME, column))), rows)
    return _per_item_canonical(column) if encoded is None else encoded


def _column_canonical(column: Column) -> List[bytes]:
    if not column:
        return []
    return _by_type(column, _type_canonical, _per_item_canonical)
