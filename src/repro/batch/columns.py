"""Columnar batches decoded block-at-a-time from record files.

The record path hands every map invocation a decoded (or lazily
decoding) :class:`~repro.storage.serialization.Record`.  The batch path
instead scans each storage block once and lands the *needed* value
fields in per-column Python lists -- the fields a stage's predicates and
projection actually touch, per its
:class:`~repro.batch.spec.BatchStageSpec`.  Unneeded fields are
boundary-skipped (continuation bits and length prefixes only), the same
trick :meth:`Schema.decode_lazy` plays per record, but without per-record
``LazyRecord`` allocation: one scan, one batch of flat lists per block.

This module owns *what* to capture (:class:`ScanPlan`); the scan itself
is storage's: :mod:`repro.storage.blockscan` generates and compiles one
straight-line decoder per scan shape, and every plan of that shape --
solo, shared-scan union, in any pool worker -- runs the same code
object.  There is no interpreted walk beside it.  Parity with the record
path is kept there too: a block the compiled loop cannot prove
well-formed is re-walked through the container's ``block_spans`` +
``Schema.decode`` reference, so damage raises what ``iter_records``
raises, and ``logical_bytes`` is the exact ``estimate_size``-equivalent
of every key and value record (the ``map_input_logical_bytes`` charge the
record-path readers report).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.batch.spec import BatchStageSpec
from repro.storage.blockfile import BlockInfo
from repro.storage.blockscan import block_scanner
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import Record, Schema


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
    """A per-file decode plan: which fields to capture vs skip."""

    __slots__ = ("key_schema", "value_schema", "slots", "n_slots",
                 "decode_keys", "scanner")

    def __init__(self, key_schema: Schema, value_schema: Schema,
                 capture: List[str], decode_keys: bool):
        self.key_schema = key_schema
        self.value_schema = value_schema
        self.decode_keys = decode_keys
        self.slots = {name: i for i, name in enumerate(capture)}
        self.n_slots = len(capture)
        #: the compiled scan of this plan's shape (process-wide cache)
        self.scanner = block_scanner(
            key_schema, value_schema, self.slots, decode_keys)


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

    Block reads are the container's (``iter_block_payloads``), so
    ``reader.bytes_read`` accumulates as usual; each payload goes through
    the plan's compiled scanner, which raises what ``iter_records`` would.
    """
    scan = plan.scanner.scan
    slots = plan.slots
    for payload, n_records in reader.iter_block_payloads(blocks):
        cols, keys, logical_bytes = scan(reader, payload, n_records)
        yield ColumnBatch(n_records, cols, slots, keys, logical_bytes)
