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

from repro.exceptions import CorruptFileError, SchemaError, SerializationError
from repro.storage import varint
from repro.storage.blockfile import (
    DEFAULT_BLOCK_SIZE,
    BlockFileReader,
    BlockFileWriter,
    CodecHalf,
)
from repro.storage.serialization import (
    Field,
    FieldDecodeCounter,
    FieldType,
    Record,
    Schema,
)

MAGIC = b"RPDX"

#: The footer ends in a fixed-size little-endian pointer to its start.
_POINTER_BYTES = 8


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
        self._codes: Dict[str, int] = {}
        super().__init__(path, key_schema, value_schema, block_size, metadata)

    def _header_extras(self) -> Dict[str, Any]:
        return {"field_name": self.field_name}

    def _value_encoder(self) -> CodecHalf:
        field_name = self.field_name
        field_index = self.value_schema.field_index(field_name)
        stored_schema = self.stored_schema
        codes = self._codes

        def encode(value: Record) -> bytes:
            values = list(value.as_tuple())
            original = values[field_index]
            if not isinstance(original, str):
                raise SerializationError(
                    f"field {field_name!r} must be str, got "
                    f"{type(original).__name__}"
                )
            values[field_index] = codes.setdefault(original, len(codes))
            return stored_schema.encode(Record(stored_schema, values))

        # The dictionary spans the file, so nothing resets per block.
        return encode, None

    def _write_footer(self) -> None:
        """The dictionary in code order, then the pointer to its start."""
        data_end = self._file.tell()
        footer = bytearray()
        footer += varint.encode_uvarint(len(self._codes))
        for text in self._codes:  # insertion order is code order
            raw = text.encode("utf-8")
            footer += varint.encode_uvarint(len(raw))
            footer += raw
        footer += data_end.to_bytes(_POINTER_BYTES, "little")
        self._file.write(bytes(footer))


class DictionaryFileReader(BlockFileReader):
    """Reads dictionary-compressed files, yielding *compressed* records.

    The value records carry an ``int`` code in place of the compressed
    string field -- that substitution is the whole point of direct
    operation.  Use :meth:`dictionary` to decompress codes when needed
    (e.g. for verification in tests).
    """

    MAGIC = MAGIC

    def _bind_header(self, header: Dict[str, Any]) -> None:
        self.field_name: str = header["field_name"]
        self.stored_schema = compressed_schema(self.value_schema, self.field_name)
        self._dictionary: Optional[List[str]] = None
        pointer_at = self._file_size - _POINTER_BYTES
        if pointer_at < self._data_start:
            raise CorruptFileError(f"{self.path}: file shorter than its footer")
        self._file.seek(pointer_at)
        self._data_end = int.from_bytes(
            self._file.read(_POINTER_BYTES), "little"
        )
        if not self._data_start <= self._data_end <= pointer_at:
            raise CorruptFileError(f"{self.path}: bad dictionary footer pointer")

    def _value_decoder(
        self, lazy_values: bool, field_counter: Optional[FieldDecodeCounter]
    ) -> CodecHalf:
        return self.stored_schema.decode, None

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
