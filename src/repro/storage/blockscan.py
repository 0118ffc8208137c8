"""Compiled block scans: one generated decoder per scan *shape*.

A block scan walks every field of every record of a block, landing the
captured value fields in per-column lists and passing over the rest.
Interpreting that walk -- a type dispatch plus a varint call per field --
costs more than the decoding itself, so this module *generates* it: for a
shape (the key fields' wire kinds, the value fields' wire kinds with their
capture slots, and whether keys are decoded) it emits one straight-line
function over the block's ``bytes`` payload, compiled once by
:mod:`repro.codegen`.  Per field there is one emitted step; a
varint of any length is decoded or passed over inline (1 to 3 bytes
without a loop), a length prefix of three bytes or more goes to
:mod:`~repro.storage.varint` with the record's end; an unneeded field is
a continuation-bit test; keys are built a block at a time, every field
slot filled from its column
(:func:`~repro.storage.serialization.build_records`); and the block's
``estimate_size``-equivalent is arithmetic on the wire (every field's
estimate is its span, except that a length prefix always counts one byte
-- so it is the payload length minus the excess bytes of multi-byte
prefixes, counted only on those branches).

Every shape comes from one factory, :func:`block_scanner`, over (key
schema, stored value schema, delta fields, capture slots, decode_keys).
The batch executor's plans and a copy into another file
(:func:`~repro.storage.columnar.copy_columns` for an index build,
:func:`~repro.storage.columnfile.copy_records` for a row-major copy;
both take their keys as
columns too, to re-encode without building a record) capture the fields
they need; the record path's split reader (:func:`split_scanner`) captures
what its :class:`ReadShape` names over any block-file codec -- a delta
file's delta fields are the ``delta`` kind, a zigzag varint added to a
running sum that restarts with each block and is charged
``svarint_len`` of the sum, captured or not.

The generated loop proves a block well-formed or gives up; it never
reports damage itself.  Positions only move forward and every record
must end exactly where its length prefix said, so an over-read cannot go
unnoticed: a varint is given up on exactly where ``decode_uvarint``
would raise, past ten bytes or 64 bits.  On any exception or mismatch
:meth:`BlockScanner.scan` re-walks the block through the container's
one reference decode --
:meth:`~repro.storage.blockfile.BlockFileReader.decode_block`, which the
record path sizes with ``estimate_size`` -- and *that* walk's exception
is the one raised; a re-walk that succeeds is an internal error.  (The
one asymmetry belongs to scans that capture a subset -- the batch
path's, an index build's copy and a shaped record-path scan: a string
field nobody captures, a skipped key's included, is never UTF-8
decoded.  And logical bytes come from the wire: an
overlong-but-legal varint, which no writer produces, is charged its span
where ``estimate_size`` charges the canonical length.)

Source is compiled, cached and registered for ``inspect`` by
:func:`repro.codegen.load`, like every generated function; a shape's
source is generated once, and each fetch -- once per plan or split --
loads it again.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Collection, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro import codegen
from repro.exceptions import StorageError
from repro.storage import varint
from repro.storage.blockfile import BlockFileReader
from repro.storage.serialization import (
    FieldType,
    Record,
    Schema,
    build_records,
)

#: Field type -> wire kind; INT and LONG are the same bytes.
_WIRE = {
    FieldType.INT: "varint",
    FieldType.LONG: "varint",
    FieldType.DOUBLE: "double",
    FieldType.BOOL: "bool",
    FieldType.STRING: "string",
    FieldType.BYTES: "bytes",
}

#: (key wire kinds, (value wire kind, capture slot or -1)..., decode_keys);
#: a value kind is a ``_WIRE`` kind or ``"delta"``, and ``decode_keys``
#: is a bool or :data:`KEY_COLUMNS`
Shape = Tuple[Tuple[str, ...], Tuple[Tuple[str, int], ...], Union[bool, str]]

#: ``decode_keys`` value: the keys' columns follow the value columns,
#: and no key record is built
KEY_COLUMNS = "columns"

#: A scanned block: (columns by slot -- then the key columns, under
#: :data:`KEY_COLUMNS` --, key records or None, logical bytes)
Scanned = Tuple[List[list], Optional[List[Record]], int]

_GLOBALS = {
    "_build_records": build_records,
    "_unpack_double": struct.Struct("<d").unpack_from,
    "_decode_uvarint": varint.decode_uvarint,
}


def _length(var: str, end: str) -> List[str]:
    """Steps reading a length prefix into ``var``; ``x`` counts its
    bytes beyond the first."""
    return [
        f"{var} = payload[p]",
        "p += 1",
        f"if {var} > 127:",
        "    b = payload[p]",
        "    if b < 128:",
        f"        {var} += (b << 7) - 128",
        "        p += 1",
        "        x += 1",
        "    else:",
        f"        {var}, q = _decode_uvarint(payload, p - 1, {end})",
        "        x += q - p",
        "        p = q",
    ]


def _uvarint() -> List[str]:
    """Steps reading one unsigned varint into ``v``, all inline: giving
    up past ten bytes or 64 bits, as ``decode_uvarint`` raises there (a
    varint running past its record's end fails the record's end check)."""
    return [
        "v = payload[p]",
        "if v < 128:",
        "    p += 1",
        "else:",
        "    b = payload[p + 1]",
        "    if b < 128:",
        "        v += (b << 7) - 128",
        "        p += 2",
        "    else:",
        "        v += (b << 7) - 16512",
        "        b = payload[p + 2]",
        "        if b < 128:",
        "            v += b << 14",
        "            p += 3",
        "        else:",
        "            p += 2",
        "            t = 14",
        "            while b > 127:",
        "                v += (b - 128) << t",
        "                t += 7",
        "                if t > 63:",
        "                    return None",
        "                p += 1",
        "                b = payload[p]",
        "            v += b << t",
        "            p += 1",
        "            if v >> 64:",
        "                return None",
    ]


def _field(kind: str, sink: Optional[str], end: str) -> List[str]:
    """Steps for one field: append its value to ``sink`` or pass over it."""
    if kind == "varint":
        if sink is None:
            # past ten bytes, or a tenth byte above bit 63: give up
            return [
                "if payload[p] < 128:",
                "    p += 1",
                "elif payload[p + 1] < 128:",
                "    p += 2",
                "else:",
                "    t = p + 2",
                "    while payload[t] > 127:",
                "        t += 1",
                "    if t - p > 8 and (t - p > 9 or payload[t] > 1):",
                "        return None",
                "    p = t + 1",
            ]
        return _uvarint() + [f"{sink}((v >> 1) ^ -(v & 1))"]
    if kind == "double":
        read = [] if sink is None else [
            f"{sink}(_unpack_double(payload, p)[0])"]
        return read + ["p += 8"]
    if kind == "bool":
        read = [] if sink is None else [f"{sink}(payload[p] != 0)"]
        return read + ["p += 1"]
    steps = _length("n", end)
    if sink is None:
        return steps + ["p += n"]
    value = "payload[p:q].decode()" if kind == "string" else "payload[p:q]"
    return steps + ["q = p + n", f"{sink}({value})", "p = q"]


def _delta(acc: str, sink: Optional[str]) -> List[str]:
    """Steps for one delta-coded field: add its zigzag varint to the
    running sum ``acc``.  The field is charged ``svarint_len(acc)``, so
    ``x`` takes its span minus that; a sum outside int64, which
    ``svarint_len`` rejects, gives up."""
    return ["s = p"] + _uvarint() + [
        f"{acc} += (v >> 1) ^ -(v & 1)",
        f"z = ({acc} << 1) ^ ({acc} >> 63)",
        "if z >> 64:",
        "    return None",
        "x += p - s - ((z.bit_length() + 6) // 7 or 1)",
    ] + ([] if sink is None else [f"{sink}({acc})"])


def scanner_source(shape: Shape) -> str:
    """The scanner for ``shape``, as Python source."""
    key_kinds, value_steps, decode_keys = shape
    n_slots = 1 + max((slot for _kind, slot in value_steps), default=-1)
    columns = [f"c{i}" for i in range(n_slots)]
    if decode_keys:
        columns += [f"k{i}" for i in range(len(key_kinds))]
    record: List[str] = _length("klen", "end") + ["kend = p + klen"]
    for i, kind in enumerate(key_kinds):
        record += _field(kind, f"k{i}_add" if decode_keys else None, "kend")
    record += ["if p != kend:", "    return None"]
    record += _length("vlen", "end") + ["vend = p + vlen"]
    sums = []
    for i, (kind, slot) in enumerate(value_steps):
        sink = None if slot < 0 else f"c{slot}_add"
        if kind == "delta":
            sums.append(f"a{i}")
            record += _delta(sums[-1], sink)
        else:
            record += _field(kind, sink, "vend")
    record += ["if p != vend:", "    return None"]
    keys = "None"
    n_returned = n_slots
    if decode_keys == KEY_COLUMNS:
        n_returned = len(columns)
    elif decode_keys:
        key_columns = ", ".join(f"k{i}" for i in range(len(key_kinds)))
        keys = f"_build_records(key_schema, [{key_columns}], n_records)"
    lines = ["def _scan(payload, n_records, key_schema):",
             "    end = len(payload)",
             "    p = x = 0"]
    if sums:
        lines += ["    " + " = ".join(sums) + " = 0"]
    lines += [f"    {c} = []\n    {c}_add = {c}.append" for c in columns]
    lines += ["    for _ in range(n_records):"]
    lines += ["        " + step for step in record]
    lines += ["    if p != end:",
              "        return None"]
    lines += [f"    return [{', '.join(columns[:n_returned])}], {keys}, end - x"]
    return "\n".join(lines) + "\n"


class BlockScanner:
    """One compiled scan shape; every plan of that shape runs its code."""

    __slots__ = ("source", "_fn")

    def __init__(self, source: str):
        self.source = source
        self._fn: Callable = codegen.load(source, "blockscan",
                                          _GLOBALS)["_scan"]

    def scan(self, reader: BlockFileReader, payload: bytes, n_records: int,
             rewalk: Optional[Callable[..., object]] = None) -> Scanned:
        """``(columns by slot, key records or None, logical bytes)``.

        ``reader`` is the block file ``payload`` came from; it supplies
        the key schema and, for a block the compiled loop cannot prove
        well-formed, the reference decode whose exception is raised:
        ``rewalk(reader, payload, n_records)``, by default the
        container's :meth:`~repro.storage.blockfile.BlockFileReader.decode_block`.
        """
        try:
            out = self._fn(payload, n_records, reader.key_schema)
        except Exception:
            out = None
        if out is None:
            if rewalk is None:
                for _pair in reader.decode_block(payload, n_records):
                    pass
            else:
                rewalk(reader, payload, n_records)
            raise StorageError(
                f"{reader.path}: internal error: the compiled block scan "
                "rejected a block the reference decoder accepts"
            )
        return out


#: shape -> its source, so a fetch never regenerates it: solo plans,
#: shared-scan union plans, split readers and persistent pool workers
#: all load their shape's code from :mod:`repro.codegen`'s one cache.
_source = functools.lru_cache(maxsize=None)(scanner_source)


def _compiled(shape: Shape) -> BlockScanner:
    return BlockScanner(_source(shape))


class ReadShape(NamedTuple):
    """What the record path builds of each record: key records or not,
    and the value fields captured by name (``None``: every stored one).
    The analyzer proves it for ``map()``; the optimizer attaches it."""

    decode_keys: bool = True
    fields: Optional[Tuple[str, ...]] = None


#: every key and value field decoded: the stock MapReduce record read
FULL_READ = ReadShape()


def block_scanner(key_schema: Schema, schema: Schema,
                  slots: Mapping[str, int], decode_keys: Union[bool, str],
                  deltas: Collection[str] = ()) -> BlockScanner:
    """The compiled scanner capturing ``slots`` (value field -> column)
    of stored value schema ``schema``, whose ``deltas`` fields are
    running sums, with key records (``decode_keys`` true), key columns
    (:data:`KEY_COLUMNS`) or neither.  The one place a :data:`Shape` is
    built."""
    return _compiled((
        tuple(_WIRE[f.ftype] for f in key_schema.fields),
        tuple(("delta" if f.name in deltas else _WIRE[f.ftype],
               slots.get(f.name, -1)) for f in schema.fields),
        decode_keys,
    ))


def split_scanner(reader: BlockFileReader, shape: ReadShape = FULL_READ
                  ) -> Optional[BlockScanner]:
    """The record path's scanner for ``reader``'s blocks: the fields of
    ``shape`` in stored order (slot *i* is the *i*-th captured field),
    keys unless ``shape`` skips them.  ``None`` when the key or stored
    value schema is opaque: those blocks take the reference decode."""
    key_schema, schema = reader.key_schema, reader.stored_schema
    if not (key_schema.transparent and schema.transparent):
        return None
    names = [f.name for f in schema.fields
             if shape.fields is None or f.name in shape.fields]
    return block_scanner(key_schema, schema,
                         {name: i for i, name in enumerate(names)},
                         shape.decode_keys,
                         getattr(reader, "delta_fields", ()))
