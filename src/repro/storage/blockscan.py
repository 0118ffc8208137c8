"""Compiled block scans: one generated decoder per scan *shape*.

A columnar scan walks every field of every record of a block, landing the
captured value fields in per-column lists and passing over the rest.
Interpreting that walk -- a type dispatch plus a varint call per field --
costs more than the decoding itself, so this module *generates* it: for a
shape (the key fields' wire kinds, the value fields' wire kinds with their
capture slots, and whether keys are decoded) it emits one straight-line
function over the block's ``bytes`` payload, compiles it once and keeps it
for the life of the process.  Per field there is one emitted step; 1- and
2-byte varints and length prefixes are decoded inline, longer ones go to
:mod:`~repro.storage.varint` with the record's end; an unneeded field is
a continuation-bit test; and the block's ``estimate_size``-equivalent is
arithmetic (every field's estimate is its span, except that a length
prefix always counts one byte -- so it is the payload length minus the
excess bytes of multi-byte prefixes, counted only on those branches).

The generated loop proves a block well-formed or gives up; it never
reports damage itself.  Positions only move forward and every record
must end exactly where its length prefix said, so an over-read cannot go
unnoticed.  On any exception or mismatch :meth:`BlockScanner.scan`
re-walks the block through the container's reference --
:meth:`~repro.storage.blockfile.BlockFileReader.block_spans` and
:meth:`Schema.decode <repro.storage.serialization.Schema.decode>`, what
``iter_records`` runs -- and *that* walk's exception is the one raised.
(The one asymmetry is inherited from every projecting reader,
``decode_lazy`` included: a field nobody captures is never UTF-8
decoded.)

Source is registered in :mod:`linecache` under a content-hashed filename,
like the predicate kernels, so tracebacks through it stay readable.
"""

from __future__ import annotations

import hashlib
import linecache
import struct
from itertools import repeat
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage import varint
from repro.storage.serialization import FieldType, Record, Schema

#: Field type -> wire kind; INT and LONG are the same bytes.
_WIRE = {
    FieldType.INT: "varint",
    FieldType.LONG: "varint",
    FieldType.DOUBLE: "double",
    FieldType.BOOL: "bool",
    FieldType.STRING: "string",
    FieldType.BYTES: "bytes",
}

#: (key wire kinds, (value wire kind, capture slot or -1)..., decode_keys)
Shape = Tuple[Tuple[str, ...], Tuple[Tuple[str, int], ...], bool]

_GLOBALS = {
    "_Record": Record,
    "_repeat": repeat,
    "_unpack_double": struct.Struct("<d").unpack_from,
    "_decode_uvarint": varint.decode_uvarint,
    "_skip_uvarint": varint.skip_uvarint,
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


def _field(kind: str, sink: Optional[str], end: str) -> List[str]:
    """Steps for one field: append its value to ``sink`` or pass over it."""
    if kind == "varint":
        if sink is None:
            return [
                "if payload[p] < 128:",
                "    p += 1",
                "elif payload[p + 1] < 128:",
                "    p += 2",
                "else:",
                f"    p = _skip_uvarint(payload, p, {end})",
            ]
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
            f"        v, p = _decode_uvarint(payload, p, {end})",
            f"{sink}((v >> 1) ^ -(v & 1))",
        ]
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
    for kind, slot in value_steps:
        record += _field(kind, None if slot < 0 else f"c{slot}_add", "vend")
    record += ["if p != vend:", "    return None"]
    keys = "None"
    if decode_keys:
        key_columns = ", ".join(f"k{i}" for i in range(len(key_kinds)))
        rows = f"zip({key_columns})" if key_kinds else "_repeat((), n_records)"
        keys = f"list(map(_Record, _repeat(key_schema), {rows}))"
    lines = ["def _scan(payload, n_records, key_schema):",
             "    end = len(payload)",
             "    p = x = 0"]
    lines += [f"    {c} = []\n    {c}_add = {c}.append" for c in columns]
    lines += ["    for _ in range(n_records):"]
    lines += ["        " + step for step in record]
    lines += ["    if p != end:",
              "        return None",
              f"    return [{', '.join(columns[:n_slots])}], {keys}, end - x"]
    return "\n".join(lines) + "\n"


class BlockScanner:
    """One compiled scan shape; shared by every plan of that shape."""

    __slots__ = ("source", "_fn")

    def __init__(self, source: str):
        digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:16]
        filename = f"<repro.storage.blockscan:{digest}>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(keepends=True), filename
        )
        namespace = dict(_GLOBALS)
        exec(compile(source, filename, "exec"), namespace)
        self.source = source
        self._fn: Callable = namespace["_scan"]

    def scan(self, reader: Any, payload: bytes, n_records: int
             ) -> Tuple[List[list], Optional[List[Record]], int]:
        """``(columns by slot, key records or None, logical bytes)``.

        ``reader`` is the identity-codec block file ``payload`` came
        from; it supplies the key schema and, for a block the compiled
        loop cannot prove well-formed, the reference walk that raises.
        """
        try:
            out = self._fn(payload, n_records, reader.key_schema)
        except Exception:
            out = None
        if out is None:
            view, spans = reader.block_spans(payload, n_records)
            decode_key = reader.key_schema.decode
            decode_value = reader.value_schema.decode
            for kpos, kend, vpos, vend in spans:
                decode_key(view, kpos, kend)
                decode_value(view, vpos, vend)
            raise StorageError(
                f"{reader.path}: internal error: the compiled block scan "
                "rejected a block the reference decoder accepts"
            )
        return out


#: Process-wide: solo plans, shared-scan union plans and persistent pool
#: workers all resolve a shape here.
_SCANNERS: Dict[Shape, BlockScanner] = {}


def block_scanner(key_schema: Schema, value_schema: Schema,
                  slots: Mapping[str, int], decode_keys: bool) -> BlockScanner:
    """The compiled scanner capturing ``slots`` (value field -> column)."""
    shape: Shape = (
        tuple(_WIRE[f.ftype] for f in key_schema.fields),
        tuple((_WIRE[f.ftype], slots.get(f.name, -1))
              for f in value_schema.fields),
        decode_keys,
    )
    scanner = _SCANNERS.get(shape)
    if scanner is None:
        scanner = _SCANNERS[shape] = BlockScanner(scanner_source(shape))
    return scanner
