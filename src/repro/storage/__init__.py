"""Storage substrates: serialization, record files, index files, codecs.

This package is the reproduction's stand-in for HDFS flat files plus the
physical index formats Manimal's optimizer materializes:

* :mod:`repro.storage.serialization` -- schemas and record encode/decode
* :mod:`repro.storage.blockfile` -- the block-file container: one reader and
  one writer for every record-shaped format, parameterized by a value codec
* :mod:`repro.storage.recordfile` -- record files (identity codec)
* :mod:`repro.storage.blockscan` -- compiled block scans: one generated
  decoder per scan shape, for the batch path's column captures, index
  builds' copies and every codec's record-path scan -- the only way
  record data leaves a row-major block file; a block it cannot prove is re-walked
  by the container's one reference decode (``BlockFileReader.decode_block``)
* :mod:`repro.storage.blockwrite` -- compiled block writes: one generated
  encoder per write shape, behind ``Schema.encode``, every writer append
  and row-major column copies; a value it declines is encoded by the
  reference walk (``serialization._encode_value`` and the codecs'
  reference steps)
* :mod:`repro.storage.columnar` -- columnar files: every catalog copy
  (projection, delta and dictionary indexes, and selection indexes:
  copies sorted on one field, with per-block fences in a footer),
  column-major blocks under per-column codecs, decoded a column at a time
* :mod:`repro.storage.delta` -- delta files (per-block running deltas)
* :mod:`repro.storage.dictionary` -- dictionary files (integer codes plus a
  dictionary footer) / direct operation
* :mod:`repro.storage.columnfile` -- projected record files
* :mod:`repro.storage.btree` -- the retired page-codec B+Tree, kept only
  for the frozen benchmark suite's storage probe
* :mod:`repro.storage.partitioned` -- partition directories with zone-map
  sidecars, and :func:`input_identity`: the one "what bytes is this input,
  right now" answer every cache and the index catalog compare
* :mod:`repro.storage.orderkeys` -- order-preserving key encodings
* :mod:`repro.storage.varint` -- size-sensitive integer encodings
"""

from repro.exceptions import CorruptFileError
from repro.storage.blockfile import BlockFileReader, BlockInfo
# only for the frozen benchmark suite's storage probe
from repro.storage.btree import BTree, BTreeBuilder, BTreeStats
from repro.storage.columnar import ColumnarFileReader, ColumnarFileWriter
from repro.storage.columnfile import build_projection
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
    OpaqueSchema,
    Record,
    Schema,
    primitive_schema,
)

_READERS = {
    cls.MAGIC: cls
    for cls in (RecordFileReader, DeltaFileReader, DictionaryFileReader,
                ColumnarFileReader)
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
    # exported only for the frozen benchmark suite's storage probe
    "BTree",
    "BTreeBuilder",
    "BTreeStats",
    "BlockInfo",
    "ColumnarFileReader",
    "ColumnarFileWriter",
    "DeltaFileReader",
    "DeltaFileWriter",
    "DictionaryFileReader",
    "DictionaryFileWriter",
    "Field",
    # exported only for the frozen benchmark suite's storage probe
    "FieldDecodeCounter",
    "FieldType",
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
    "build_projection",
    "input_identity",
    "open_block_file",
    "primitive_schema",
    "write_records",
]
