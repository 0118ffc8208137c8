"""Flat files of serialized key/value records -- the MapReduce input format.

A record file is the reproduction's stand-in for an HDFS file of serialized
objects: the block-file container of :mod:`repro.storage.blockfile` (which
documents the layout and owns reading and writing it) with magic ``RPRF``
and the *identity* value codec -- value bytes are the value schema's plain
encoding, so values can decode lazily, field by field, and blocks can be
scanned columnar by :mod:`repro.batch.columns`.  Projection files and
dataset partitions are record files too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.storage.blockfile import (
    DEFAULT_BLOCK_SIZE,
    BlockFileReader,
    BlockFileWriter,
)
from repro.storage.serialization import Record, Schema

MAGIC = b"RPRF"


class RecordFileWriter(BlockFileWriter):
    """Streaming writer for record files."""

    MAGIC = MAGIC


class RecordFileReader(BlockFileReader):
    """Reader for record files, with byte accounting and block access."""

    MAGIC = MAGIC


def write_records(
    path: str,
    key_schema: Schema,
    value_schema: Schema,
    pairs: Iterator[Tuple[Record, Record]],
    block_size: int = DEFAULT_BLOCK_SIZE,
    metadata: Optional[Dict[str, Any]] = None,
) -> int:
    """Convenience: write all ``pairs`` to ``path``; return record count."""
    with RecordFileWriter(
        path, key_schema, value_schema, block_size=block_size, metadata=metadata
    ) as writer:
        for key, value in pairs:
            writer.append(key, value)
        return writer.records_written
