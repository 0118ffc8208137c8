"""Columnar batches decoded block-at-a-time from record files.

The record path hands every map invocation a decoded (or lazily
decoding) :class:`~repro.storage.serialization.Record`.  The batch path
instead walks each storage block's memoryview once and lands the *needed*
value fields in per-column Python lists -- the fields a stage's
predicates and projection actually touch, per its
:class:`~repro.batch.spec.BatchStageSpec`.  Unneeded fields are
boundary-skipped (continuation bits and length prefixes only), the same
trick :meth:`Schema.decode_lazy` plays per record, but without per-record
``LazyRecord`` allocation: one scan, one batch of flat lists per block.

Blocks and record spans come from the block-file container's public
iterators (:mod:`repro.storage.blockfile`), the ones the record path walks,
so framing damage fails identically whichever path served it.  Accounting
parity is deliberate too: the scan accumulates the exact
``estimate_size``-equivalent of every key and value record (the
``map_input_logical_bytes`` charge the record-path readers report) and a
damaged field raises the :class:`SerializationError` their decoders raise.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional

from repro.batch.spec import BatchStageSpec
from repro.exceptions import SerializationError
from repro.storage import varint
from repro.storage.blockfile import BlockInfo
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import FieldType, Record, Schema

#: Per-field scan step codes (see :func:`_scan_fields`).
_VARINT, _DOUBLE, _BOOL, _STRING, _BYTES = range(5)

_CODE = {
    FieldType.INT: _VARINT,
    FieldType.LONG: _VARINT,
    FieldType.DOUBLE: _DOUBLE,
    FieldType.BOOL: _BOOL,
    FieldType.STRING: _STRING,
    FieldType.BYTES: _BYTES,
}


class ColumnBatch:
    """One storage block's needed fields, as per-column value lists.

    ``column(name)`` returns the list for a captured column; ``keys`` is
    the block's decoded key records (``None`` when the stage never emits
    its input keys); ``logical_bytes`` is the summed
    ``estimate_size``-equivalent of every key+value record in the block,
    matching what the record-path readers charge for the same rows.
    """

    __slots__ = ("n_rows", "keys", "logical_bytes", "_cols", "_slots")

    def __init__(self, n_rows: int, cols: List[list], slots: dict,
                 keys: Optional[List[Record]], logical_bytes: int):
        self.n_rows = n_rows
        self._cols = cols
        self._slots = slots
        self.keys = keys
        self.logical_bytes = logical_bytes

    def column(self, name: str) -> list:
        return self._cols[self._slots[name]]


class ScanPlan:
    """A compiled per-file decode plan: which fields to capture vs skip."""

    __slots__ = ("key_schema", "value_schema", "key_steps", "value_steps",
                 "slots", "n_slots", "decode_keys")

    def __init__(self, key_schema: Schema, value_schema: Schema,
                 capture: List[str], decode_keys: bool):
        self.key_schema = key_schema
        self.value_schema = value_schema
        self.decode_keys = decode_keys
        self.slots = {name: i for i, name in enumerate(capture)}
        self.n_slots = len(capture)
        self.key_steps = [_CODE[f.ftype] for f in key_schema.fields]
        self.value_steps = [
            (_CODE[f.ftype], self.slots.get(f.name, -1))
            for f in value_schema.fields
        ]


def build_scan_plan(key_schema: Schema, value_schema: Schema,
                    spec: BatchStageSpec) -> Optional[ScanPlan]:
    """Plan the scan of one concrete file for ``spec``, or ``None``.

    ``None`` means this file cannot be served vectorized -- an opaque
    schema hides field boundaries, or the file (possibly a planner-chosen
    projection) lacks a column the spec needs -- and the caller must fall
    back to the record path.
    """
    if not key_schema.transparent or not value_schema.transparent:
        return None
    needed = spec.needed_columns()
    if needed is None:
        capture = value_schema.field_names()
    else:
        if any(not value_schema.has_field(name) for name in needed):
            return None
        capture = needed
    # Aggregate stages never emit their input key, so its fields are
    # boundary-skipped (the lazy-keys record path never decodes them
    # either); map/join stages emit the key and decode it.
    return ScanPlan(key_schema, value_schema, capture,
                    decode_keys=spec.kind != "aggregate")


def iter_column_batches(
    reader: RecordFileReader,
    blocks: Optional[List[BlockInfo]],
    plan: ScanPlan,
) -> Iterator[ColumnBatch]:
    """Decode ``blocks`` of ``reader`` into one :class:`ColumnBatch` each.

    Block reads and record framing are the container's
    (``iter_block_payloads`` + ``block_spans``), so ``reader.bytes_read``
    accumulates as usual; only the field walk inside each key/value span
    is this module's, raising what ``Schema.decode``/``decode_lazy`` raise.
    """
    key_schema = plan.key_schema
    key_steps = plan.key_steps
    value_steps = plan.value_steps
    n_slots = plan.n_slots
    decode_keys = plan.decode_keys
    key_name = key_schema.name
    value_name = plan.value_schema.name
    unpack_double = struct.Struct("<d").unpack_from
    decode_uvarint = varint.decode_uvarint
    decode_svarint = varint.decode_svarint
    skip_uvarint = varint.skip_uvarint

    for payload, n_records in reader.iter_block_payloads(blocks):
        cols: List[list] = [[] for _ in range(n_slots)]
        keys: Optional[List[Record]] = [] if decode_keys else None
        est = 0
        view, spans = reader.block_spans(payload, n_records)
        for kpos, kend, vpos, vend in spans:
            # -- key fields: estimate_size parity; decode when emitted --
            est += 1
            p = kpos
            if decode_keys:
                kvals = []
                kappend = kvals.append
                for code in key_steps:
                    if code == _VARINT:
                        value, np = decode_svarint(view, p, kend)
                        kappend(value)
                        est += np - p
                        p = np
                    elif code == _DOUBLE:
                        np = p + 8
                        if np > kend:
                            raise SerializationError("truncated double field")
                        kappend(unpack_double(view, p)[0])
                        est += 8
                        p = np
                    elif code == _BOOL:
                        if p >= kend:
                            raise SerializationError("truncated bool field")
                        kappend(view[p] != 0)
                        est += 1
                        p += 1
                    else:
                        length, lp = decode_uvarint(view, p, kend)
                        np = lp + length
                        if np > kend:
                            raise SerializationError(
                                "truncated string field"
                                if code == _STRING
                                else "truncated bytes field"
                            )
                        kappend(
                            str(view[lp:np], "utf-8")
                            if code == _STRING
                            else bytes(view[lp:np])
                        )
                        est += length + 1
                        p = np
                keys.append(Record(key_schema, kvals))
            else:
                for code in key_steps:
                    if code == _VARINT:
                        np = skip_uvarint(view, p, kend)
                        est += np - p
                        p = np
                    elif code == _DOUBLE:
                        np = p + 8
                        if np > kend:
                            raise SerializationError("truncated double field")
                        est += 8
                        p = np
                    elif code == _BOOL:
                        if p >= kend:
                            raise SerializationError("truncated bool field")
                        est += 1
                        p += 1
                    else:
                        length, lp = decode_uvarint(view, p, kend)
                        np = lp + length
                        if np > kend:
                            raise SerializationError(
                                "truncated string field"
                                if code == _STRING
                                else "truncated bytes field"
                            )
                        est += length + 1
                        p = np
            if p != kend:
                raise SerializationError(
                    f"{kend - p} trailing bytes decoding schema {key_name!r}"
                )

            # -- value fields: capture needed columns, skip the rest --
            est += 1
            p = vpos
            for code, slot in value_steps:
                if code == _VARINT:
                    if slot < 0:
                        np = skip_uvarint(view, p, vend)
                    else:
                        value, np = decode_svarint(view, p, vend)
                        cols[slot].append(value)
                    est += np - p
                    p = np
                elif code == _DOUBLE:
                    np = p + 8
                    if np > vend:
                        raise SerializationError("truncated double field")
                    if slot >= 0:
                        cols[slot].append(unpack_double(view, p)[0])
                    est += 8
                    p = np
                elif code == _BOOL:
                    if p >= vend:
                        raise SerializationError("truncated bool field")
                    if slot >= 0:
                        cols[slot].append(view[p] != 0)
                    est += 1
                    p += 1
                else:
                    length, lp = decode_uvarint(view, p, vend)
                    np = lp + length
                    if np > vend:
                        raise SerializationError(
                            "truncated string field"
                            if code == _STRING
                            else "truncated bytes field"
                        )
                    if slot >= 0:
                        cols[slot].append(
                            str(view[lp:np], "utf-8")
                            if code == _STRING
                            else bytes(view[lp:np])
                        )
                    est += length + 1
                    p = np
            if p != vend:
                raise SerializationError(
                    f"{vend - p} trailing bytes decoding schema {value_name!r}"
                )
        yield ColumnBatch(n_records, cols, plan.slots, keys, est)
