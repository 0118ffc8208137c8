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
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Tuple

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

    This sits in the innermost shuffle loop (once per map-output pair --
    the runners decorate each pair with its sort key exactly once), so the
    common concrete types dispatch through one dict lookup instead of an
    isinstance chain.  All NaNs are one group key, sorted after every
    number.
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
    """Deterministic 32-bit hash of a key, independent of PYTHONHASHSEED."""
    out = bytearray()
    _canonical_bytes(value, out)
    return zlib.crc32(bytes(out))


def estimate_size(value: Any) -> int:
    """Approximate serialized size in bytes of a key or value.

    Matches the framing the storage layer would use; the cost model charges
    shuffle and output I/O based on these estimates.  Like
    :func:`sort_key`, dispatches on concrete type first: the runners call
    this exactly once per emitted key and value.
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
        return varint.svarint_len(value)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 1
    if isinstance(value, (bytes, bytearray)):
        return len(value) + 1
    if isinstance(value, tuple):
        return 1 + sum(estimate_size(v) for v in value)
    if isinstance(value, Record):
        return 1 + sum(estimate_size(v) for v in value.as_tuple())
    raise MapReduceError(
        f"cannot estimate size of value type {type(value).__name__}"
    )


_SIZE_DISPATCH = {
    type(None): lambda v: 1,
    bool: lambda v: 1,
    int: varint.svarint_len,
    float: lambda v: 8,
    str: lambda v: len(v.encode("utf-8")) + 1,
    bytes: lambda v: len(v) + 1,
    bytearray: lambda v: len(v) + 1,
    tuple: lambda v: 1 + sum(estimate_size(x) for x in v),
}
