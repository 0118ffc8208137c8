"""Projection (column-subset) files.

Implements the storage side of the paper's *projection* optimization
(Section 2.1): "modify the on-disk data file to only store bytes that are
actually necessary for executing the user's code."  A projected file is an
ordinary record file whose value schema keeps only the fields the analyzer
proved are used; its header metadata records the provenance (base schema
and kept fields) so the optimizer can match it against future jobs.

This mirrors "a simplified version of a column-store": one file per field
*group* rather than per field.  The column-group generalization the paper
sketches as future work is exposed via ``build_column_groups``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import SchemaError, SerializationError
from repro.storage.blockfile import DEFAULT_BLOCK_SIZE, BlockFileWriter
from repro.storage.blockscan import KEY_COLUMNS, block_scanner
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import Schema

#: Metadata keys written into projected-file headers.
META_KIND = "kind"
META_BASE_SCHEMA = "base_schema"
META_KEPT_FIELDS = "kept_fields"
KIND_PROJECTION = "projection"


def copy_records(reader: RecordFileReader, writer: BlockFileWriter,
                 projected: Optional[Schema] = None) -> int:
    """Stream every record of ``reader`` into ``writer``; return the count.

    Every row-major copy (a projection, delta or dictionary file a user
    builds) is this loop with a different writer; the optimizer's index
    builds are :func:`~repro.storage.columnar.copy_columns`.
    Blocks are read through the compiled scanner of a shape that captures
    only the fields being written -- ``projected``'s, when values are
    narrowed on the way through -- so a dropped field (often a huge one,
    which is why it is being projected away) is passed over, never
    deserialized; and each block's columns, keys included, go straight
    to the writer's compiled encoder (:meth:`~repro.storage.blockfile.BlockFileWriter.append_rows`),
    with no record built.  An opaque schema's blocks take the reference
    decode and the per-record append.
    """
    schema = reader.value_schema if projected is None else projected
    if not (reader.key_schema.transparent and reader.value_schema.transparent):
        for key, value in reader.iter_records():
            writer.append(key, value)
        return writer.records_written
    if writer.key_schema != reader.key_schema or writer.value_schema != schema:
        raise SerializationError(
            f"cannot copy {reader.key_schema.name}/{schema.name} records "
            f"into a {writer.key_schema.name}/{writer.value_schema.name} writer"
        )
    scanner = block_scanner(
        reader.key_schema, reader.value_schema,
        {name: i for i, name in enumerate(schema.field_names())},
        decode_keys=KEY_COLUMNS)
    n_values = len(schema.fields)
    for payload, n_records in reader.iter_block_payloads():
        columns, _keys, _logical = scanner.scan(reader, payload, n_records)
        keys = columns[n_values:]
        writer.append_rows(zip(*keys, *columns[:n_values]) if columns
                           else repeat((), n_records))
    return writer.records_written


def build_projection(
    source_path: str,
    dest_path: str,
    keep_fields: Sequence[str],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Dict[str, Any]:
    """Materialize a projected copy of ``source_path`` keeping only
    ``keep_fields`` of the value schema.  Returns build statistics.

    This is the direct build used by tests, examples and users; the
    optimizer's synthesized index-generation program
    (:mod:`repro.core.optimizer.indexgen`) writes the same records as a
    columnar copy (:mod:`repro.storage.columnar`), with catalog
    provenance in the header metadata.
    """
    with RecordFileReader(source_path) as reader:
        if not reader.value_schema.transparent:
            raise SchemaError(
                "cannot project a file with an opaque value schema: field "
                "boundaries are invisible (the AbstractTuple situation)"
            )
        projected = reader.value_schema.project(keep_fields)
        metadata = {
            META_KIND: KIND_PROJECTION,
            META_BASE_SCHEMA: reader.value_schema.name,
            META_KEPT_FIELDS: [f.name for f in projected.fields],
        }
        with RecordFileWriter(
            dest_path,
            reader.key_schema,
            projected,
            block_size=block_size,
            metadata=metadata,
        ) as writer:
            records = copy_records(reader, writer, projected)
        return {
            "records": records,
            "source_bytes": reader.file_size(),
            "projected_fields": metadata[META_KEPT_FIELDS],
        }


def is_projection_of(
    reader: RecordFileReader, base_schema_name: str, needed_fields: Sequence[str]
) -> bool:
    """Whether an open projected file can serve a job needing
    ``needed_fields`` of ``base_schema_name``.

    A projection is usable iff it came from the right base schema and its
    kept-field set is a superset of what the job touches.
    """
    meta = reader.metadata
    if meta.get(META_KIND) != KIND_PROJECTION:
        return False
    if meta.get(META_BASE_SCHEMA) != base_schema_name:
        return False
    kept = set(meta.get(META_KEPT_FIELDS, ()))
    return set(needed_fields) <= kept


def build_column_groups(
    source_path: str,
    dest_prefix: str,
    groups: Sequence[Sequence[str]],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[str]:
    """Split a record file into several projected files, one per field group.

    Future-work feature from the paper (Section 2.1): "column-groups that
    break input data into different smaller files, increasing the number of
    user programs that could use an index."  Groups must be disjoint and
    cover only existing fields; each output file is independently usable as
    a projection index.
    """
    seen: set = set()
    for group in groups:
        overlap = seen & set(group)
        if overlap:
            raise SchemaError(f"column groups overlap on {sorted(overlap)}")
        seen |= set(group)
    paths: List[str] = []
    for i, group in enumerate(groups):
        path = f"{dest_prefix}.group{i}"
        build_projection(source_path, path, list(group), block_size=block_size)
        paths.append(path)
    return paths
