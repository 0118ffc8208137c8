"""Dictionary-compressed record files for direct operation.

Implements the paper's *direct-operation* compression (Section 2.1,
Appendix D): a string field that the mapper uses only in equality tests (or
purely as a grouping key) is replaced by a small integer code.  The mapper
then runs on compressed values -- "during actual program execution, destURL
is implemented as an integer instead of a String" -- saving input bytes,
intermediate bytes, and sort time, while preserving the equality semantics
the program relies on.

A dictionary file is the block-file container of
:mod:`repro.storage.blockfile` with magic ``RPDX``, one header extra
(``field_name``), the value codec defined here -- values are encoded with
the *stored schema*, the value schema with the compressed field retyped
to INT -- and a footer holding the code table, which the container's
block walk stops short of.

Codes are assigned in first-appearance order during the build, which makes
builds deterministic for a given input.  Compression destroys *ordering*,
which is exactly why the analyzer may only apply it when every use is an
equality test and the final output does not need the decompressed value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.exceptions import CorruptFileError, SchemaError
from repro.storage import varint
from repro.storage.blockfile import (
    DEFAULT_BLOCK_SIZE,
    BlockFileReader,
    BlockFileWriter,
    ValueDecoder,
)
from repro.storage.blockwrite import WriteCodec
from repro.storage.serialization import (
    Field,
    FieldType,
    Schema,
)

MAGIC = b"RPDX"


def compressed_schema(value_schema: Schema, field_name: str) -> Schema:
    """Schema presented to the mapper: ``field_name`` becomes an INT code."""
    fields = [
        Field(f.name, FieldType.INT if f.name == field_name else f.ftype)
        for f in value_schema.fields
    ]
    return Schema(f"{value_schema.name}_dict_{field_name}", fields)


class DictionaryFileWriter(BlockFileWriter):
    """Two-phase writer: values stream through, dictionary lands in footer.

    The dictionary (code -> original string) is written *after* the record
    blocks so the build stays single-pass; readers locate it through the
    trailing footer pointer.
    """

    MAGIC = MAGIC

    def __init__(
        self,
        path: str,
        key_schema: Schema,
        value_schema: Schema,
        field_name: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if not value_schema.transparent:
            raise SchemaError(
                "dictionary compression requires a transparent value schema"
            )
        field = value_schema.field(field_name)
        if field.ftype is not FieldType.STRING:
            raise SchemaError(
                f"dictionary compression targets string fields; {field_name!r} "
                f"is {field.ftype.value}"
            )
        self.field_name = field_name
        self.stored_schema = compressed_schema(value_schema, field_name)
        super().__init__(path, key_schema, value_schema, block_size, metadata)

    def _header_extras(self) -> Dict[str, Any]:
        return {"field_name": self.field_name}

    def _write_codec(self) -> WriteCodec:
        # The code table spans the file, so nothing resets per block.
        return WriteCodec(self.key_schema, self.value_schema,
                          {self.field_name: "dict"}, self.stored_schema)

    def _footer(self) -> bytes:
        """The dictionary in code order."""
        footer = bytearray()
        codes = self._codec.codes
        footer += varint.encode_uvarint(len(codes))
        for text in codes:  # insertion order is code order
            raw = text.encode("utf-8")
            footer += varint.encode_uvarint(len(raw))
            footer += raw
        return bytes(footer)


class DictionaryFileReader(BlockFileReader):
    """Reads dictionary-compressed files, yielding *compressed* records.

    The value records carry an ``int`` code in place of the compressed
    string field -- that substitution is the whole point of direct
    operation.  Use :meth:`dictionary` to decompress codes when needed
    (e.g. for verification in tests).
    """

    MAGIC = MAGIC
    FOOTER = "dictionary"

    def _bind_header(self, header: Dict[str, Any]) -> None:
        self.field_name: str = header["field_name"]
        self.stored_schema = compressed_schema(self.value_schema, self.field_name)
        self._dictionary: Optional[List[str]] = None

    def _value_decoder(self) -> ValueDecoder:
        return self.stored_schema.decode

    def dictionary(self) -> List[str]:
        """The code -> string table (loaded lazily, cached)."""
        if self._dictionary is None:
            self._file.seek(self._data_end)
            count, _ = self._read_uvarint_from_file()
            table: List[str] = []
            for _ in range(count):
                length, _ = self._read_uvarint_from_file()
                raw = self._file.read(length)
                if len(raw) != length:
                    raise CorruptFileError(f"{self.path}: truncated dictionary")
                table.append(raw.decode("utf-8"))
            self._dictionary = table
        return self._dictionary
