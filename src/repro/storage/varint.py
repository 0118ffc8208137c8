"""Size-sensitive integer encodings: unsigned varint and zigzag.

The paper's delta-compression stores "just small deltas, when combined with
a size-sensitive representation" (Section 2.1).  This module provides that
representation: LEB128-style unsigned varints, plus the zigzag transform so
that small *negative* deltas also encode compactly.

All functions operate on ``bytes`` / ``bytearray`` / ``memoryview`` and
plain ``int``; they are the innermost loop of every record codec, so they
avoid any object allocation beyond the output buffer itself.  The decode
helpers take ``(buf, offset, end)`` so block-level readers can walk a
whole block buffer in place -- no per-record slicing.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.exceptions import SerializationError

#: Upper bound on encoded varint size we accept when decoding.  64-bit
#: values need at most 10 bytes; anything longer is corruption.
MAX_VARINT_LEN = 10

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_UINT64_MAX = (1 << 64) - 1


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint.

    Values below 128 take one byte; each additional 7 bits adds a byte.
    """
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    if value > _UINT64_MAX:
        raise SerializationError(f"uvarint value {value} exceeds 64 bits")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(buf: Any, offset: int = 0,
                   end: int = None) -> Tuple[int, int]:
    """Decode a varint from ``buf`` at ``offset``.

    ``end`` bounds the decode window (default: ``len(buf)``), so callers
    can decode inside a record's span of a larger block buffer without
    slicing it out first.  Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    if end is None:
        end = len(buf)
    while True:
        if pos >= end:
            raise SerializationError("truncated varint")
        if pos - offset >= MAX_VARINT_LEN:
            raise SerializationError("varint longer than 10 bytes")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > _UINT64_MAX:
                raise SerializationError("varint overflows 64 bits")
            return result, pos
        shift += 7


def read_uvarint_stream(fileobj: Any) -> Tuple[int, int]:
    """Read one varint from a binary file object; return (value, n_bytes).

    Shared by every block-file reader (record, delta, dictionary) for
    header and block-framing varints; enforces the same
    :data:`MAX_VARINT_LEN` bound as the buffer decoders so corrupt framing
    cannot spin the reader forever.
    """
    result = 0
    shift = 0
    n = 0
    read = fileobj.read
    while True:
        raw = read(1)
        if not raw:
            raise SerializationError("truncated varint")
        n += 1
        if n > MAX_VARINT_LEN:
            raise SerializationError("varint longer than 10 bytes")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > _UINT64_MAX:
                raise SerializationError("varint overflows 64 bits")
            return result, n
        shift += 7


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one with small absolute values
    mapping to small results: 0→0, -1→1, 1→2, -2→3, ...
    """
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise SerializationError(f"zigzag value {value} exceeds 64-bit signed range")
    return ((value << 1) ^ (value >> 63)) & _UINT64_MAX


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer as zigzag + uvarint."""
    return encode_uvarint(zigzag_encode(value))


def decode_svarint(buf: Any, offset: int = 0,
                   end: int = None) -> Tuple[int, int]:
    """Decode a signed zigzag varint.  Returns ``(value, next_offset)``."""
    raw, pos = decode_uvarint(buf, offset, end)
    return zigzag_decode(raw), pos


def uvarint_len(value: int) -> int:
    """Number of bytes :func:`encode_uvarint` uses for ``value``.

    Computed from the bit length directly (one C-level call) rather than
    the shift loop the encoder uses; this sits inside the shuffle's
    per-pair size accounting.
    """
    if value < 0:
        raise SerializationError("uvarint_len of negative value")
    return max(1, (value.bit_length() + 6) // 7)


def svarint_len(value: int) -> int:
    """Number of bytes :func:`encode_svarint` uses for ``value``."""
    return max(1, (zigzag_encode(value).bit_length() + 6) // 7)
