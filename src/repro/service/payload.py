"""Canonical result-payload codec: bytes that depend only on values.

The service's two load-bearing guarantees -- *served results are
byte-identical to in-process execution* and *identical repeats hit the
result cache* -- are guarantees about **bytes**, so the row serializer
must be a pure function of row *values*.  ``pickle`` is not: it memoizes
by object identity, so a sequential run (every record sharing one
``Schema`` instance, back-referenced through the memo) and a parallel
run (records built in separate worker processes, each with its own
``Schema`` copy) pickle *equal* rows to *different* bytes.  The rows are
the same; the identity graph is not.

This codec therefore encodes structurally:

* the payload is ``MAGIC + u32 header length + header + body``;
* the header is canonical JSON (sorted keys, no whitespace) holding a
  schema table -- each distinct schema appears once, in first-use order,
  as its :meth:`~repro.storage.serialization.Schema.to_dict` form;
* the body is a tag-length-value tree: records reference the schema
  table by index and carry their field values; scalars use fixed
  encodings (ints as decimal strings, floats as big-endian IEEE 754);
  containers carry a count then their items, with dict items sorted by
  encoded key so insertion order cannot leak into the bytes.

Two runs that produce equal rows -- any runner, any parallelism, any
plan -- produce identical payloads, which is exactly the property the
byte-identity tests, the result cache, and ``tools/service_smoke.py``
(which compares a parallel server against a sequential in-process run)
all rely on.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

from repro.storage.serialization import Record, Schema, SerializationError

#: Payload format magic + version.  Bump on any encoding change: cached
#: payloads and in-process expectations must never mix formats.
MAGIC = b"RQS1"

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_TUPLE = b"t"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_RECORD = b"R"


def _schema_key(schema: Schema) -> str:
    """The canonical identity of a schema: its serialized description."""
    return json.dumps(schema.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def _encode(value: Any, out: bytearray,
            schema_table: List[str], schema_index: Dict[str, int]) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        text = str(value).encode("ascii")
        out += _TAG_INT
        out += _U32.pack(len(text))
        out += text
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += _TAG_STR
        out += _U32.pack(len(data))
        out += data
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, Record):
        # a block scan's slotted records encode like plain ones: schema
        # and values, through as_tuple()
        key = _schema_key(value.schema)
        idx = schema_index.get(key)
        if idx is None:
            idx = len(schema_table)
            schema_table.append(key)
            schema_index[key] = idx
        values = value.as_tuple()
        out += _TAG_RECORD
        out += _U32.pack(idx)
        out += _U32.pack(len(values))
        for item in values:
            _encode(item, out, schema_table, schema_index)
    elif isinstance(value, tuple):
        out += _TAG_TUPLE
        out += _U32.pack(len(value))
        for item in value:
            _encode(item, out, schema_table, schema_index)
    elif isinstance(value, list):
        out += _TAG_LIST
        out += _U32.pack(len(value))
        for item in value:
            _encode(item, out, schema_table, schema_index)
    elif isinstance(value, dict):
        # Sort by encoded key bytes: equal dicts built in different
        # insertion orders must serialize identically.
        pairs = []
        for k, v in value.items():
            kbuf = bytearray()
            _encode(k, kbuf, schema_table, schema_index)
            vbuf = bytearray()
            _encode(v, vbuf, schema_table, schema_index)
            pairs.append((bytes(kbuf), bytes(vbuf)))
        pairs.sort(key=lambda pair: pair[0])
        out += _TAG_DICT
        out += _U32.pack(len(pairs))
        for kbytes, vbytes in pairs:
            out += kbytes
            out += vbytes
    else:
        raise SerializationError(
            f"cannot serialize a {type(value).__name__} into a result "
            "payload; results may hold records, scalars, and "
            "lists/tuples/dicts of them"
        )


def serialize_rows(value: Any) -> bytes:
    """The canonical payload bytes for a query result.

    A pure function of the value: any two structurally equal results --
    regardless of runner, parallelism, plan, or object-identity sharing
    -- serialize to identical bytes.  Byte-identity tests compare a
    served payload against ``serialize_rows(dataset.collect())`` from an
    in-process run.
    """
    schema_table: List[str] = []
    schema_index: Dict[str, int] = {}
    body = bytearray()
    _encode(value, body, schema_table, schema_index)
    header = json.dumps({"schemas": schema_table}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    return MAGIC + _U32.pack(len(header)) + header + bytes(body)


def _decode(buf: bytes, pos: int,
            schemas: List[Schema]) -> Tuple[Any, int]:
    tag = buf[pos:pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return int(buf[pos:pos + length]), pos + length
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(buf, pos)
        return value, pos + 8
    if tag == _TAG_STR:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return buf[pos:pos + length].decode("utf-8"), pos + length
    if tag == _TAG_BYTES:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos:pos + length]), pos + length
    if tag == _TAG_RECORD:
        (idx,) = _U32.unpack_from(buf, pos)
        (count,) = _U32.unpack_from(buf, pos + 4)
        pos += 8
        try:
            schema = schemas[idx]
        except IndexError:
            raise SerializationError(
                f"payload references schema #{idx} but the header "
                f"declares only {len(schemas)}"
            ) from None
        values = []
        for _ in range(count):
            value, pos = _decode(buf, pos, schemas)
            values.append(value)
        return Record(schema, values), pos
    if tag in (_TAG_TUPLE, _TAG_LIST):
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos, schemas)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_DICT:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode(buf, pos, schemas)
            value, pos = _decode(buf, pos, schemas)
            result[key] = value
        return result, pos
    raise SerializationError(
        f"corrupt result payload: unknown tag {tag!r} at offset {pos - 1}"
    )


def deserialize_rows(payload: bytes) -> Any:
    """Rebuild the value :func:`serialize_rows` encoded.

    Round-trips to an *equal* value: records come back as plain
    :class:`~repro.storage.serialization.Record` objects (one shared
    ``Schema`` instance per distinct schema), scalars and containers as
    their originals.
    """
    if payload[:4] != MAGIC:
        raise SerializationError(
            "not a result payload (bad magic); server and client "
            "disagree on the payload format"
        )
    (header_len,) = _U32.unpack_from(payload, 4)
    header_end = 8 + header_len
    try:
        header = json.loads(payload[8:header_end].decode("utf-8"))
    except ValueError as exc:
        raise SerializationError(
            f"corrupt result payload header: {exc}"
        ) from exc
    schemas = [Schema.from_dict(json.loads(text))
               for text in header.get("schemas", [])]
    value, pos = _decode(payload, header_end, schemas)
    if pos != len(payload):
        raise SerializationError(
            f"{len(payload) - pos} trailing bytes in result payload"
        )
    return value
