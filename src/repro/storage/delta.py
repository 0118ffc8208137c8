"""Delta-compressed record files.

Implements the paper's *delta-compression* optimization (Section 2.1,
Appendix C/D): numeric fields are stored as differences from the previous
record's value, encoded with the size-sensitive zigzag-varint representation,
so "storing just small deltas ... can yield large storage savings."

A delta file is the block-file container of :mod:`repro.storage.blockfile`
(which owns framing, the block directory and corruption checks) with magic
``RPDF``, one header extra (``delta_fields``) and the value codec defined
here.  Deltas reset at block boundaries, so each block stays independently
decodable and remains the unit of input splitting; within a block a value
needs the records before it, so decoding is eager by construction.

Only the *value* record participates; keys are stored verbatim.  Which
fields are delta-coded is chosen by the analyzer (all integral fields of a
transparent schema) and recorded in the file header.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import CorruptFileError, SchemaError, SerializationError
from repro.storage import varint
from repro.storage.blockfile import (
    DEFAULT_BLOCK_SIZE,
    BlockFileReader,
    BlockFileWriter,
    ValueDecoder,
)
from repro.storage.blockwrite import WriteCodec
from repro.storage.serialization import (
    Record,
    Schema,
    _decode_value,
)

MAGIC = b"RPDF"

#: A stored integer is an int64: a running sum outside it is refused.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _codec_steps(value_schema: Schema, delta_fields: Sequence[str]):
    """Per value field: (index, name, type, is it delta-coded)."""
    delta_set = set(delta_fields)
    return [
        (i, f.name, f.ftype, f.name in delta_set)
        for i, f in enumerate(value_schema.fields)
    ]


class DeltaFileWriter(BlockFileWriter):
    """Writes a record file with delta-coded numeric value fields."""

    MAGIC = MAGIC

    def __init__(
        self,
        path: str,
        key_schema: Schema,
        value_schema: Schema,
        delta_fields: Sequence[str],
        block_size: int = DEFAULT_BLOCK_SIZE,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if not value_schema.transparent:
            raise SchemaError(
                "delta compression requires a transparent value schema"
            )
        for name in delta_fields:
            field = value_schema.field(name)
            if not field.ftype.is_numeric:
                raise SchemaError(
                    f"field {name!r} of type {field.ftype.value} is not "
                    "delta-compressible"
                )
        self.delta_fields = list(delta_fields)
        super().__init__(path, key_schema, value_schema, block_size, metadata)

    def _header_extras(self) -> Dict[str, Any]:
        return {"delta_fields": self.delta_fields}

    def _write_codec(self) -> WriteCodec:
        # Deltas restart each block so blocks stay independently decodable.
        return WriteCodec(self.key_schema, self.value_schema,
                          {name: "delta" for name in self.delta_fields})


class DeltaFileReader(BlockFileReader):
    """Reader reconstructing absolute values from a delta-coded file."""

    MAGIC = MAGIC

    def _bind_header(self, header: Dict[str, Any]) -> None:
        self.delta_fields: List[str] = header["delta_fields"]

    def _value_decoder(self) -> ValueDecoder:
        schema = self.value_schema
        steps = _codec_steps(schema, self.delta_fields)
        path = self.path
        # a fresh decoder per block: every block's sums start at zero
        prev: Dict[int, int] = {}

        def decode(buf: Any, pos: int, end: int) -> Record:
            values: List[Any] = []
            for i, name, ftype, is_delta in steps:
                if is_delta:
                    delta, pos = varint.decode_svarint(buf, pos, end)
                    value = prev[i] = prev.get(i, 0) + delta
                    if not _INT64_MIN <= value <= _INT64_MAX:
                        raise SerializationError(
                            f"{path}: field {name!r}: running sum {value} "
                            "exceeds 64-bit signed range")
                else:
                    value, pos = _decode_value(ftype, buf, pos, end)
                values.append(value)
            if pos != end:
                raise CorruptFileError(f"{path}: trailing value bytes")
            return Record(schema, values)

        return decode
