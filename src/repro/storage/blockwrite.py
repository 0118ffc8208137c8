"""Compiled block writes: one generated encoder per write *shape*.

The write-side twin of :mod:`~repro.storage.blockscan`.  Encoding a
record by interpreting its schema -- a type dispatch, an ``isinstance``
test and a varint call per field -- costs several times the bytes it
produces, so this module *generates* the walk: for a shape it emits one
straight-line function, compiled once by :mod:`repro.codegen`.

A shape is the key fields' wire kinds plus the value fields' kinds,
where a value field is a plain wire kind (``varint``, ``double``,
``bool``, ``string``, ``bytes``), ``delta`` (a zigzag varint of the
difference from a running sum that restarts with each block) or ``dict``
(the zigzag varint of the field's code in the file's code table).  Two
families come from the one factory:

* a **bare** shape (no key) compiles ``_encode(values)``: one value
  tuple to its plain encoding -- :meth:`~repro.storage.serialization.Schema.encode`;
* a **framed** shape compiles ``_write(buffer, rows, limit, sums,
  codes)``: rows of key and value field values to ``uvarint klen | key
  | uvarint vlen | value`` at the end of a block buffer, one- and
  two-byte prefixes inline, stopping after the row that fills the block
  -- every :class:`~repro.storage.blockfile.BlockFileWriter` append and
  :func:`~repro.storage.columnfile.copy_records`'s column copies.

The fast path takes exact types only: ``int`` within int64 (for a
``delta`` field, a difference within int64), ``float``, ``str``,
``bytes`` and ``bool``, each in its own kind.  Anything else -- a bool
in an int field, an int in a double field, an ``int`` or ``float``
subclass, a ``bytearray``, an out-of-range int, a string UTF-8 cannot
encode -- *declines* the row before any state changes: the buffer, the
running sums and the code table are written only after every field of
the row is encoded.  A declined row goes to the reference walk
(:meth:`WriteCodec.reference`: ``Schema.encode``'s per-field walk and
the codecs' reference steps), whose bytes, state updates and exception
are the result -- the same rule as ``BlockScanner.scan``'s re-walk.

Generated code is reachable only from the process-wide tables here,
never from a schema, a record or a writer: a :class:`WriteCodec` holds
its shape, not its function, and :func:`schema_encoder` maps a live
schema to its bare encoder by identity.  :func:`block_encoder` loads a
shape's source through :func:`repro.codegen.load`, which caches the code
and registers the source for ``inspect``; the per-record write path
resolves its shape through a memo in front of it.
"""

from __future__ import annotations

import struct
import weakref
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import codegen
from repro.storage import varint

#: Field type (``FieldType.value``) -> wire kind; INT and LONG are the
#: same bytes.  Keyed by value so this module needs nothing from
#: :mod:`~repro.storage.serialization`, which imports it.
_WIRE = {
    "int": "varint",
    "long": "varint",
    "double": "double",
    "bool": "bool",
    "string": "string",
    "bytes": "bytes",
}

#: (key wire kinds, or None for a bare value encoding; value kinds)
Shape = Tuple[Optional[Tuple[str, ...]], Tuple[str, ...]]


def _long_uvarint(n: int) -> bytes:
    """The uvarint of ``n``, which the generated steps have proved below
    2**64 (they inline the short lengths); no check of its own."""
    out = bytearray()
    while n > 127:
        out.append(n & 127 | 128)
        n >>= 7
    out.append(n)
    return bytes(out)


_GLOBALS = {
    "_B1": tuple(bytes((i,)) for i in range(128)),
    "_TRUE": b"\x01",
    "_FALSE": b"\x00",
    "_pack_double": struct.Struct("<d").pack,
    "_uvarint": _long_uvarint,
}


def _uvarint(n: str) -> str:
    """The uvarint of the non-negative ``n``: one and two bytes inline."""
    return (f"_B1[{n}] if {n} < 128 else bytes(({n} & 127 | 128, {n} >> 7)) "
            f"if {n} < 16384 else _uvarint({n})")


def _zigzag(v: str, out: str, decline: Optional[str]) -> List[str]:
    """``out`` = the zigzag varint of the int ``v``, up to four bytes
    inline; ``decline`` when it leaves int64 (``None``: it cannot)."""
    steps = [f"z = ({v} << 1) ^ ({v} >> 63)",
             "if z < 128:",
             f"    {out} = _B1[z]",
             "elif z < 16384:",
             f"    {out} = bytes((z & 127 | 128, z >> 7))",
             "elif z < 2097152:",
             f"    {out} = bytes((z & 127 | 128, z >> 7 & 127 | 128, z >> 14))",
             "elif z < 268435456:",
             f"    {out} = bytes((z & 127 | 128, z >> 7 & 127 | 128, "
             "z >> 14 & 127 | 128, z >> 21))"]
    if decline is not None:
        steps += ["elif z >> 64:", f"    {decline}"]
    return steps + ["else:", f"    {out} = _uvarint(z)"]


def _field(kind: str, v: str, decline: str
           ) -> Tuple[List[str], List[str], List[str]]:
    """One field's (checking and encoding steps, byte pieces, state
    updates).  Steps only read state; updates run once the row is whole."""
    check = {"varint": "int", "delta": "int", "double": "float",
             "bool": "bool", "string": "str", "dict": "str",
             "bytes": "bytes"}[kind]
    steps = [f"if type({v}) is not {check}:", f"    {decline}"]
    if kind == "varint":
        return steps + _zigzag(v, f"{v}_e", decline), [f"{v}_e"], []
    if kind == "double":
        return steps + [f"{v}_e = _pack_double({v})"], [f"{v}_e"], []
    if kind == "bool":
        return steps + [f"{v}_e = _TRUE if {v} else _FALSE"], [f"{v}_e"], []
    if kind in ("string", "bytes"):
        raw = f"{v}_r" if kind == "string" else v
        if kind == "string":
            steps.append(f"{raw} = {v}.encode()")
        steps += [f"n = len({raw})", f"{v}_h = {_uvarint('n')}"]
        return steps, [f"{v}_h", raw], []
    if kind == "delta":
        steps += [f"d = {v} - {v}_a"] + _zigzag("d", f"{v}_e", decline)
        return steps, [f"{v}_e"], [f"{v}_a = {v}"]
    # dict: an unseen string takes the next code, entered once the row is whole
    steps += [f"{v}_c = get({v})",
              f"if {v}_c is None:",
              f"    {v}_c = len(codes)"]
    steps += _zigzag(f"{v}_c", f"{v}_e", None)
    return steps, [f"{v}_e"], [f"if {v}_c == len(codes):",
                               f"    codes[{v}] = {v}_c"]


def _part(kinds: Tuple[str, ...], prefix: str, decline: str
          ) -> Tuple[List[str], str, List[str]]:
    """A key or value part: (steps, the expression of its bytes, updates)."""
    steps: List[str] = []
    pieces: List[str] = []
    updates: List[str] = []
    for i, kind in enumerate(kinds):
        s, p, u = _field(kind, f"{prefix}{i}", decline)
        steps += s
        pieces += p
        updates += u
    if not pieces:
        return steps, 'b""', updates
    if len(pieces) == 1:
        return steps, pieces[0], updates
    return steps, f'b"".join(({", ".join(pieces)}))', updates


def _unpack(names: List[str], source: str) -> List[str]:
    if not names:
        return []
    return [f"{', '.join(names)}{',' if len(names) == 1 else ''} = {source}"]


def encoder_source(shape: Shape) -> str:
    """The encoder for ``shape``, as Python source."""
    key_kinds, value_kinds = shape
    values = [f"v{i}" for i in range(len(value_kinds))]
    if key_kinds is None:
        steps, value, _updates = _part(value_kinds, "v", "return None")
        body = _unpack(values, "values") + steps + [f"return {value}"]
        return "\n".join(
            ["def _encode(values):", "    try:"]
            + ["        " + line for line in body]
            + ["    except Exception:", "        return None"]) + "\n"
    keys = [f"k{i}" for i in range(len(key_kinds))]
    key_steps, key, _none = _part(key_kinds, "k", "break")
    value_steps, value, updates = _part(value_kinds, "v", "break")
    sums = [(f"v{i}_a", i) for i, kind in enumerate(value_kinds)
            if kind == "delta"]
    row = (_unpack(keys + values, "row") + key_steps + value_steps + [
        f"key = {key}",
        f"value = {value}",
        "n = len(key)",
        f"buffer += {_uvarint('n')}",
        "buffer += key",
        "n = len(value)",
        f"buffer += {_uvarint('n')}",
        "buffer += value",
    ] + updates + [
        "count += 1",
        "if len(buffer) >= limit:",
        "    row = None",
        "    break",
    ])
    lines = ["def _write(buffer, rows, limit, sums, codes):"]
    lines += [f"    {acc} = sums[{i}]" for acc, i in sums]
    if "dict" in value_kinds:
        lines += ["    get = codes.get"]
    lines += ["    count = 0",
              "    row = None",
              "    try:",
              "        for row in rows:"]
    lines += ["            " + line for line in row]
    lines += ["        else:",
              "            row = None",
              "    except Exception:",
              "        pass"]
    lines += [f"    sums[{i}] = {acc}" for acc, i in sums]
    lines += ["    return count, row"]
    return "\n".join(lines) + "\n"


class BlockEncoder:
    """One compiled write shape: ``encode`` for a bare shape, ``write``
    for a framed one (the other is ``None``)."""

    __slots__ = ("source", "encode", "write")

    def __init__(self, source: str):
        namespace = codegen.load(source, "blockwrite", _GLOBALS)
        self.source = source
        #: ``encode(values) -> bytes``, or ``None`` when it declines
        self.encode: Optional[Callable[[tuple], Optional[bytes]]] = \
            namespace.get("_encode")
        #: ``write(buffer, rows, limit, sums, codes) -> (rows written,
        #: the declined row or None)``
        self.write: Optional[Callable[..., Tuple[int, Optional[tuple]]]] = \
            namespace.get("_write")


def block_encoder(shape: Shape) -> BlockEncoder:
    """The compiled encoder of ``shape``; the one place one is built."""
    return BlockEncoder(encoder_source(shape))


#: shape -> its encoder, process-wide: every writer, schema and pool
#: worker resolves its shape here, so a record pays a lookup, not a load.
_encoder = lru_cache(maxsize=None)(block_encoder)


def wire_kinds(schema: Any) -> Tuple[str, ...]:
    """The wire kind of each field of the transparent ``schema``."""
    return tuple(_WIRE[f.ftype.value] for f in schema.fields)


#: id(schema) -> (weak reference to it, its layout, its bare encoder)
_SCHEMAS: Dict[int, Tuple[Any, tuple, Callable]] = {}


def _forget(key: int, ref: Any) -> None:
    if _SCHEMAS.get(key, (None,))[0] is ref:
        del _SCHEMAS[key]


def schema_encoder(schema: Any) -> Tuple[tuple, Callable[[tuple], Optional[bytes]]]:
    """``schema``'s layout -- its name and field (name, type) pairs: two
    schemas with equal layouts compare equal -- and its bare encoder.

    Memoized by the schema's identity for as long as it lives, so
    :meth:`~repro.storage.serialization.Schema.encode` pays one lookup
    and the schema itself carries (and pickles) nothing."""
    key = id(schema)
    entry = _SCHEMAS.get(key)
    if entry is None or entry[0]() is not schema:
        layout = (schema.name,
                  tuple((f.name, f.ftype.value) for f in schema.fields))
        encoder = _encoder((None, wire_kinds(schema))).encode
        entry = _SCHEMAS[key] = (weakref.ref(schema, partial(_forget, key)),
                                 layout, encoder)
    return entry[1], entry[2]


class WriteCodec:
    """One writer's value codec: its framed shape, its state and its
    reference steps.  Holds the shape, never the compiled function.

    ``codec`` maps each coded value field to ``"delta"`` or ``"dict"``;
    the rest are plain.  ``stored_schema`` is the schema value bytes are
    the plain encoding of (the dictionary codec retypes its field to an
    INT code).  State: ``sums``, one running sum per value field
    (non-zero only for delta fields, zeroed at each block boundary), and
    ``codes``, the dictionary's code table in code order.
    """

    __slots__ = ("key_schema", "value_schema", "stored_schema", "codec",
                 "write_shape", "sums", "codes")

    def __init__(self, key_schema: Any, value_schema: Any,
                 codec: Mapping[str, str], stored_schema: Any = None):
        self.key_schema = key_schema
        self.value_schema = value_schema
        self.stored_schema = value_schema if stored_schema is None else stored_schema
        self.codec = dict(codec)
        self.write_shape: Optional[Shape] = None
        if key_schema.transparent and value_schema.transparent:
            self.write_shape = (wire_kinds(key_schema), tuple(
                self.codec.get(f.name, _WIRE[f.ftype.value])
                for f in value_schema.fields))
        self.sums = [0] * len(value_schema.fields)
        self.codes: Dict[str, int] = {}

    def reset_block(self) -> None:
        """Drop per-block state: delta sums restart with every block."""
        if "delta" in self.codec.values():
            self.sums = [0] * len(self.sums)

    def append(self, buffer: bytearray, key: Any, value: Any,
               limit: int) -> bool:
        """Encode one pair onto ``buffer``; ``False`` (nothing changed)
        when the compiled shape declines it."""
        if (getattr(key, "_schema", None) is not self.key_schema
                or getattr(value, "_schema", None) is not self.value_schema):
            return False
        written, _declined = self.write(
            buffer, ((*key._values, *value._values),), limit)
        return written == 1

    def write(self, buffer: bytearray, rows: Iterable[tuple], limit: int
              ) -> Tuple[int, Optional[tuple]]:
        """Encode ``rows`` (key values then value values) onto
        ``buffer`` until they run out, one fills it to ``limit`` or one
        is declined: ``(rows written, the declined row or None)``."""
        if self.write_shape is None:
            return 0, next(iter(rows), None)
        return _encoder(self.write_shape).write(
            buffer, rows, limit, self.sums, self.codes)

    def records(self, row: tuple) -> Tuple[Any, Any]:
        """A row's key and value records, for the reference steps."""
        from repro.storage.serialization import Record
        n = len(self.key_schema.fields)
        return (Record(self.key_schema, row[:n]),
                Record(self.value_schema, row[n:]))

    def reference(self, key: Any, value: Any) -> Tuple[bytes, bytes]:
        """The decline path: ``(key bytes, value bytes)`` from the
        reference walk -- ``Schema.encode`` for the key and an identity
        value, the codec's reference steps otherwise -- with its state
        updates and its exception, partial updates included."""
        kraw = self.key_schema.encode(key)
        if "dict" in self.codec.values():
            return kraw, self._reference_dictionary(value)
        if "delta" in self.codec.values():
            return kraw, self._reference_delta(value)
        return kraw, self.value_schema.encode(value)

    def _reference_delta(self, value: Any) -> bytes:
        """The delta codec's reference step: fields in order, each delta
        field's running sum updated as it is encoded."""
        from repro.exceptions import SerializationError
        from repro.storage.serialization import _encode_value
        sums = self.sums
        out = bytearray()
        for i, f in enumerate(self.value_schema.fields):
            raw_value = getattr(value, f.name)
            if self.codec.get(f.name) == "delta":
                if not isinstance(raw_value, int) or isinstance(raw_value, bool):
                    raise SerializationError(
                        f"delta field {f.name!r} must be int, got "
                        f"{type(raw_value).__name__}"
                    )
                # The block's first record has no predecessor and is
                # stored absolute: a delta from zero.
                out += varint.encode_svarint(raw_value - sums[i])
                sums[i] = raw_value
            else:
                _encode_value(f.ftype, raw_value, out)
        return bytes(out)

    def _reference_dictionary(self, value: Any) -> bytes:
        """The dictionary codec's reference step: the field's code is
        entered first, then the stored record is walked."""
        from repro.exceptions import SerializationError
        from repro.storage.serialization import Record, _encode_fields
        (field_name,) = self.codec
        stored = self.stored_schema
        values = list(value.as_tuple())
        index = self.value_schema.field_index(field_name)
        original = values[index]
        if not isinstance(original, str):
            raise SerializationError(
                f"field {field_name!r} must be str, got "
                f"{type(original).__name__}"
            )
        values[index] = self.codes.setdefault(original, len(self.codes))
        record = Record(stored, values)
        return _encode_fields(stored.fields, record.as_tuple())
