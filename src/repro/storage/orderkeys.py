"""Order-preserving binary encodings for selection-index keys.

An index compares keys as raw byte strings; these encoders map field values
to bytes such that ``encode(a) < encode(b)`` iff ``a < b`` under the natural
ordering of the field type (and ``encode(a) == encode(b)`` iff ``a == b``).  This lets the index support range scans for
predicates like ``rank > 1`` with plain lexicographic byte comparison.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.exceptions import BTreeError
from repro.storage.serialization import FieldType

_SIGN_FLIP = 1 << 63
_UINT64_MASK = (1 << 64) - 1


def encode_key(ftype: FieldType, value: Any) -> bytes:
    """Encode one field value into order-preserving bytes."""
    if ftype in (FieldType.INT, FieldType.LONG):
        if isinstance(value, bool) or not isinstance(value, int):
            raise BTreeError(f"int key expected, got {type(value).__name__}")
        if not -(1 << 63) <= value < (1 << 63):
            raise BTreeError(f"integer key {value} out of 64-bit range")
        # Flip the sign bit: maps the signed range onto an unsigned range
        # that sorts identically under byte comparison.
        return struct.pack(">Q", (value + _SIGN_FLIP) & _UINT64_MASK)
    if ftype is FieldType.DOUBLE:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise BTreeError(f"float key expected, got {type(value).__name__}")
        # + 0.0 turns -0.0 into 0.0: they compare equal, so they must
        # share a key, or a range bound at one would miss the other
        value = float(value) + 0.0
        if math.isnan(value):
            raise BTreeError("NaN cannot be a B+Tree key")
        bits = struct.unpack(">Q", struct.pack(">d", value))[0]
        # Standard IEEE-754 total-order trick: flip all bits of negatives,
        # flip just the sign bit of non-negatives.
        if bits & _SIGN_FLIP:
            bits = ~bits & _UINT64_MASK
        else:
            bits |= _SIGN_FLIP
        return struct.pack(">Q", bits)
    if ftype is FieldType.BOOL:
        if not isinstance(value, bool):
            raise BTreeError(f"bool key expected, got {type(value).__name__}")
        return b"\x01" if value else b"\x00"
    if ftype is FieldType.STRING:
        if not isinstance(value, str):
            raise BTreeError(f"str key expected, got {type(value).__name__}")
        # UTF-8 byte order equals code-point order, so plain encoding is
        # already order-preserving.
        return value.encode("utf-8")
    raise BTreeError(f"field type {ftype} is not a comparable key type")


def successor(raw: bytes) -> bytes:
    """Smallest byte string strictly greater than ``raw``.

    Used to convert inclusive bounds to exclusive ones on encoded keys.
    """
    return raw + b"\x00"
