"""Storage substrates: serialization, record files, B+Tree, codecs.

This package is the reproduction's stand-in for HDFS flat files plus the
physical index formats Manimal's optimizer materializes:

* :mod:`repro.storage.serialization` -- schemas and record encode/decode
* :mod:`repro.storage.blockfile` -- the block-file container: one reader and
  one writer for every record-shaped format, parameterized by a value codec
* :mod:`repro.storage.recordfile` -- record files (identity codec)
* :mod:`repro.storage.blockscan` -- compiled columnar scans of identity-codec
  blocks: one generated decoder per scan shape
* :mod:`repro.storage.delta` -- delta files (per-block running deltas)
* :mod:`repro.storage.dictionary` -- dictionary files (integer codes plus a
  dictionary footer) / direct operation
* :mod:`repro.storage.columnfile` -- projected files (projection indexes)
* :mod:`repro.storage.btree` -- disk-backed B+Tree (selection indexes)
* :mod:`repro.storage.partitioned` -- partition directories with zone-map
  sidecars, and :func:`input_identity`: the one "what bytes is this input,
  right now" answer every cache and the index catalog compare
* :mod:`repro.storage.orderkeys` -- order-preserving key encodings
* :mod:`repro.storage.varint` -- size-sensitive integer encodings
"""

from repro.exceptions import CorruptFileError
from repro.storage.blockfile import BlockFileReader, BlockInfo
from repro.storage.btree import BTree, BTreeBuilder, BTreeStats
from repro.storage.columnfile import build_column_groups, build_projection
from repro.storage.delta import DeltaFileReader, DeltaFileWriter
from repro.storage.dictionary import DictionaryFileReader, DictionaryFileWriter
from repro.storage.partitioned import InputIdentity, input_identity
from repro.storage.recordfile import (
    RecordFileReader,
    RecordFileWriter,
    write_records,
)
from repro.storage.serialization import (
    DOUBLE_SCHEMA,
    INT_SCHEMA,
    LONG_SCHEMA,
    STRING_SCHEMA,
    Field,
    FieldDecodeCounter,
    FieldType,
    LazyRecord,
    OpaqueSchema,
    Record,
    Schema,
    primitive_schema,
)

_READERS = {
    cls.MAGIC: cls
    for cls in (RecordFileReader, DeltaFileReader, DictionaryFileReader)
}


def open_block_file(path: str) -> BlockFileReader:
    """Open any block file with the reader its magic names."""
    with open(path, "rb") as f:
        magic = f.read(4)
    reader_class = _READERS.get(magic)
    if reader_class is None:
        raise CorruptFileError(f"{path}: not a block file (magic {magic!r})")
    return reader_class(path)


__all__ = [
    "BTree",
    "BTreeBuilder",
    "BTreeStats",
    "BlockInfo",
    "DeltaFileReader",
    "DeltaFileWriter",
    "DictionaryFileReader",
    "DictionaryFileWriter",
    "Field",
    "FieldDecodeCounter",
    "FieldType",
    "LazyRecord",
    "OpaqueSchema",
    "Record",
    "RecordFileReader",
    "RecordFileWriter",
    "Schema",
    "InputIdentity",
    "INT_SCHEMA",
    "LONG_SCHEMA",
    "STRING_SCHEMA",
    "DOUBLE_SCHEMA",
    "build_column_groups",
    "build_projection",
    "input_identity",
    "open_block_file",
    "primitive_schema",
    "write_records",
]
