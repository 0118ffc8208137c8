"""Columnar batches decoded block-at-a-time from record files.

The record path hands every map invocation a
:class:`~repro.storage.serialization.Record` with every stored field
decoded.  The batch path instead scans each storage block once and lands
the *needed* value fields in per-column Python lists -- the fields a
stage's predicates and projection actually touch, per its
:class:`~repro.batch.spec.BatchStageSpec`.  Unneeded fields are passed
over (continuation bits and length prefixes only) and no record is
built: one scan, one batch of flat lists per block.

This module owns *what* to capture (:class:`ScanPlan`); the scan itself
is storage's: :mod:`repro.storage.blockscan` generates and compiles one
straight-line decoder per scan shape, and every plan of that shape --
solo, shared-scan union, in any pool worker -- runs the same code
object -- the record path's split readers included.  There is no
interpreted walk beside it.  (A columnar catalog copy's blocks already
are columns: its plan takes the file's column scan,
:func:`~repro.storage.columnar.column_scanner`, instead.)  Parity with
the record path is kept there too: a block the compiled loop cannot
prove well-formed is re-walked by
the container's reference decode
(:meth:`~repro.storage.blockfile.BlockFileReader.decode_block`), so
damage raises what the record path raises, and ``logical_bytes`` is the
block's figure read off the wire, the ``map_input_logical_bytes`` charge
the record-path readers report.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.batch.spec import BatchStageSpec
from repro.mapreduce.formats import IndexRows, scan_blocks
from repro.storage.blockfile import BlockFileReader, BlockInfo
from repro.storage.blockscan import block_scanner
from repro.storage.columnar import column_scanner
from repro.storage.serialization import Record, Schema


class ColumnBatch:
    """One storage block's needed fields, as per-column value lists.

    ``column(name)`` returns the list for a captured column; ``keys`` is
    the block's decoded key records (``None`` when the stage never emits
    its input keys); ``logical_bytes`` is the summed
    ``estimate_size``-equivalent of every key+value record in the block,
    matching what the record-path readers charge for the same rows;
    ``skipped`` counts the block's rows a selection-index residual
    dropped.
    """

    __slots__ = ("n_rows", "keys", "logical_bytes", "skipped", "_cols",
                 "_slots")

    def __init__(self, n_rows: int, cols: List[list], slots: dict,
                 keys: Optional[List[Record]], logical_bytes: int,
                 skipped: int):
        self.n_rows = n_rows
        self._cols = cols
        self._slots = slots
        self.keys = keys
        self.logical_bytes = logical_bytes
        self.skipped = skipped

    def column(self, name: str) -> list:
        return self._cols[self._slots[name]]


class ScanPlan:
    """A per-file decode plan: which fields to capture vs skip."""

    __slots__ = ("key_schema", "value_schema", "slots", "n_slots",
                 "decode_keys", "scanner")

    def __init__(self, key_schema: Schema, value_schema: Schema,
                 capture: List[str], decode_keys: bool,
                 columnar: bool = False):
        self.key_schema = key_schema
        self.value_schema = value_schema
        self.decode_keys = decode_keys
        self.slots = {name: i for i, name in enumerate(capture)}
        self.n_slots = len(capture)
        #: the scan of this plan's shape: the compiled row-major scan (its
        #: code cached by repro.codegen), or a columnar file's column scan
        self.scanner = (column_scanner if columnar else block_scanner)(
            key_schema, value_schema, self.slots, decode_keys)


def build_scan_plan(key_schema: Schema, value_schema: Schema,
                    spec: BatchStageSpec, columnar: bool = False
                    ) -> Optional[ScanPlan]:
    """Plan the scan of one concrete file for ``spec``, or ``None``.

    ``None`` means this file cannot be served vectorized -- an opaque
    schema hides field boundaries, or the file (possibly a planner-chosen
    projection) lacks a column the spec needs -- and the caller must fall
    back to the record path.  ``columnar``: the file is a columnar catalog
    copy, whose blocks the plan scans a column at a time.
    """
    if not key_schema.transparent or not value_schema.transparent:
        return None
    needed = spec.needed_columns()
    if any(not value_schema.has_field(name)
           for name in (needed or []) + spec.value_columns()):
        return None
    capture = value_schema.field_names() if needed is None else needed
    # Keys are decoded only for a stage that reads them; any other scan
    # passes their fields over.
    return ScanPlan(key_schema, value_schema, capture,
                    decode_keys=spec.reads_keys, columnar=columnar)


def iter_column_batches(
    reader: BlockFileReader,
    blocks: Optional[List[BlockInfo]],
    plan: ScanPlan,
    rows: Optional[IndexRows] = None,
) -> Iterator[ColumnBatch]:
    """Decode ``blocks`` of ``reader`` into one :class:`ColumnBatch` each,
    holding the rows ``rows`` keeps of a selection-index split.

    This is the record path's block scan
    (:func:`~repro.mapreduce.formats.scan_blocks`): block reads are the
    container's, so ``reader.bytes_read`` accumulates as usual, and each
    payload goes through the plan's scanner, which raises what
    ``iter_records`` would.
    """
    for cols, keys, n, logical_bytes, skipped in scan_blocks(
            reader, blocks, plan.scanner, plan.slots, rows):
        yield ColumnBatch(n, cols, plan.slots, keys, logical_bytes, skipped)
