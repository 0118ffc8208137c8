"""Record schemas and serialization.

MapReduce inputs are flat files of serialized objects; the paper observes
(Section 2.2) that "the code that serializes and deserializes these classes
effectively declares the file's schema."  This module is that declaration
mechanism for the reproduction: a :class:`Schema` names the record type and
lists typed :class:`Field` entries, and encodes/decodes records to a compact
binary representation.

The analyzer consumes schemas to learn which serialized fields exist
(projection, Fig. 6 in the paper) and which are numeric (delta-compression).
A schema is *transparent*: its field layout is visible.  User code may also
ship an :class:`OpaqueSchema` that serializes through custom, unstructured
packing -- exactly the ``AbstractTuple`` situation the paper hits in
Benchmark 1, where the analyzer "is unable to distinguish between different
fields in the serialized data."
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import (
    FieldNotPresentError,
    SchemaError,
    SerializationError,
)
from repro.storage import varint
from repro.storage.blockwrite import schema_encoder


class FieldType(enum.Enum):
    """Primitive field types supported by the serializer.

    ``INT`` and ``LONG`` are both arbitrary-precision in Python; they differ
    only in declared width (used for cost accounting and delta eligibility).
    """

    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    BOOL = "bool"
    STRING = "string"
    BYTES = "bytes"

    @property
    def is_numeric(self) -> bool:
        """Whether this type is eligible for delta-compression.

        The paper's analyzer "simply tests whether the serialized key and
        value inputs to map() contain numeric values" (Appendix C).  We
        treat integral types as delta-compressible; doubles are numeric but
        deltas of floats do not shrink under varint coding, so they are
        excluded, matching the paper's integer-only experiments.
        """
        return self in (FieldType.INT, FieldType.LONG)

    @property
    def is_comparable(self) -> bool:
        """Whether values of this type can key a B+Tree."""
        return self is not FieldType.BYTES


class Field:
    """A named, typed slot in a :class:`Schema`."""

    __slots__ = ("name", "ftype")

    def __init__(self, name: str, ftype: FieldType):
        if not name or not name.isidentifier():
            raise SchemaError(f"field name {name!r} is not a valid identifier")
        self.name = name
        self.ftype = ftype

    def __repr__(self) -> str:
        return f"Field({self.name!r}, {self.ftype.value})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.name == other.name
            and self.ftype == other.ftype
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ftype))


def _encode_value(ftype: FieldType, value: Any, out: bytearray) -> None:
    """Append the binary encoding of one field value to ``out``."""
    if ftype in (FieldType.INT, FieldType.LONG):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SerializationError(
                f"expected int for {ftype.value} field, got {type(value).__name__}"
            )
        out += varint.encode_svarint(value)
    elif ftype is FieldType.DOUBLE:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SerializationError(
                f"expected float for double field, got {type(value).__name__}"
            )
        out += struct.pack("<d", float(value))
    elif ftype is FieldType.BOOL:
        if not isinstance(value, bool):
            raise SerializationError(
                f"expected bool field value, got {type(value).__name__}"
            )
        out.append(1 if value else 0)
    elif ftype is FieldType.STRING:
        if not isinstance(value, str):
            raise SerializationError(
                f"expected str field value, got {type(value).__name__}"
            )
        raw = value.encode("utf-8")
        out += varint.encode_uvarint(len(raw))
        out += raw
    elif ftype is FieldType.BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise SerializationError(
                f"expected bytes field value, got {type(value).__name__}"
            )
        out += varint.encode_uvarint(len(value))
        out += bytes(value)
    else:  # pragma: no cover - exhaustive over enum
        raise SerializationError(f"unknown field type {ftype}")


def _encode_fields(fields: Sequence[Field], values: Sequence[Any]) -> bytes:
    """The reference walk: one :func:`_encode_value` per field.  The
    compiled encoders' error oracle (:mod:`~repro.storage.blockwrite`):
    a value they decline is encoded -- or rejected -- here."""
    out = bytearray()
    for f, value in zip(fields, values):
        _encode_value(f.ftype, value, out)
    return bytes(out)


def _decode_value(ftype: FieldType, buf: Any, pos: int,
                  end: Optional[int] = None) -> Tuple[Any, int]:
    """Decode one field value from ``buf`` at ``pos``; return (value, next).

    ``buf`` may be ``bytes`` or a ``memoryview`` over a larger block
    buffer; ``end`` bounds the decode window (default ``len(buf)``), so
    block readers decode records in place without slicing them out.
    """
    if end is None:
        end = len(buf)
    if ftype in (FieldType.INT, FieldType.LONG):
        return varint.decode_svarint(buf, pos, end)
    if ftype is FieldType.DOUBLE:
        stop = pos + 8
        if stop > end:
            raise SerializationError("truncated double field")
        return struct.unpack_from("<d", buf, pos)[0], stop
    if ftype is FieldType.BOOL:
        if pos >= end:
            raise SerializationError("truncated bool field")
        return buf[pos] != 0, pos + 1
    if ftype is FieldType.STRING:
        length, pos = varint.decode_uvarint(buf, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated string field")
        return str(buf[pos:stop], "utf-8"), stop
    if ftype is FieldType.BYTES:
        length, pos = varint.decode_uvarint(buf, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated bytes field")
        return bytes(buf[pos:stop]), stop
    raise SerializationError(f"unknown field type {ftype}")  # pragma: no cover


class Record:
    """An immutable decoded record: attribute access over schema fields.

    Mapper code reads record fields via attributes (``value.rank``), which
    is the construct the analyzer traces back to serialized fields.  Reading
    a field this record does not carry raises :class:`FieldNotPresentError`.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: "Schema", values: Sequence[Any]):
        if len(values) != len(schema.fields):
            raise SerializationError(
                f"schema {schema.name!r} has {len(schema.fields)} fields, "
                f"got {len(values)} values"
            )
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", tuple(values))

    @property
    def schema(self) -> "Schema":
        return self._schema

    def __getattr__(self, name: str) -> Any:
        idx = self._schema.field_index(name)
        if idx is None:
            raise FieldNotPresentError(
                f"record of schema {self._schema.name!r} has no field {name!r}"
            )
        return self._values[idx]

    def __setattr__(self, name: str, value: Any) -> None:
        raise SerializationError("records are immutable")

    def __reduce__(self) -> Tuple[Any, ...]:
        # Records use __slots__ plus a field-lookup __getattr__, which
        # breaks pickle's default slot-state protocol (the state lookup
        # recurses through __getattr__ before _schema is restored).  The
        # parallel runner pickles records into shuffle spill files, so
        # reconstruct explicitly from (schema, values).
        return (Record, (self._schema, self._values))

    def get(self, name: str, default: Any = None) -> Any:
        """Dict-style access with a default for missing fields."""
        idx = self._schema.field_index(name)
        return default if idx is None else self._values[idx]

    def replace(self, **updates: Any) -> "Record":
        """Return a copy of this record with some fields replaced."""
        values = list(self._values)
        for name, value in updates.items():
            idx = self._schema.field_index(name)
            if idx is None:
                raise FieldNotPresentError(
                    f"cannot replace unknown field {name!r}"
                )
            values[idx] = value
        return Record(self._schema, values)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: v for f, v in zip(self._schema.fields, self._values)}

    def as_tuple(self) -> Tuple[Any, ...]:
        return self._values

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self._schema.name == other._schema.name
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._schema.name, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{f.name}={v!r}" for f, v in zip(self._schema.fields, self._values)
        )
        return f"{self._schema.name}({inner})"


class FieldDecodeCounter:
    """A tally no reader ticks any more.

    Kept importable only because the frozen benchmark suite's storage
    probe still builds one and hands it to
    :meth:`~repro.storage.blockfile.BlockFileReader.iter_records`, which
    ignores it; deleted together with that probe.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class ScannedRecord(Record):
    """A record a block scan built: one slot per field, every slot filled.

    Each field list has its own subclass (:func:`scanned_class`), and
    :func:`build_records` fills the slots from the scanner's columns, so
    a field read is a plain slot read that never reaches ``__getattr__``.
    Everything else -- equality, hashing, ``as_tuple`` -- is
    :class:`Record`'s own.  A pickled one unpickles as its schema's
    subclass in the loading process (:func:`_unpickle_scanned`), so a
    pool worker reading shuffled records reads slots too.
    """

    __slots__ = ()

    #: the subclass's field slot descriptors, in field order
    _field_slots: Tuple[Any, ...] = ()

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_unpickle_scanned, (self._schema, self._values))


def _unpickle_scanned(schema: "Schema", values: Tuple[Any, ...]) -> Record:
    """A pickled :class:`ScannedRecord`: its schema's subclass with every
    slot filled -- or, when the schema has none or the values do not fill
    its slots, what ``Record(schema, values)`` makes of them."""
    cls = scanned_class(schema)
    if cls is None or len(cls._field_slots) != len(values):
        return Record(schema, values)
    record = object.__new__(cls)
    Record._schema.__set__(record, schema)
    Record._values.__set__(record, values)
    for slot, value in zip(cls._field_slots, values):
        slot.__set__(record, value)
    return record


#: field names -> their ScannedRecord subclass, or None (see below)
_SCANNED_CLASSES: Dict[Tuple[str, ...], Optional[type]] = {}


def scanned_class(schema: "Schema") -> Optional[type]:
    """The :class:`ScannedRecord` subclass for ``schema``'s fields, or
    ``None`` when a field name cannot be a slot: not an identifier, or
    already a record attribute (``schema``, ``get``, ...)."""
    names = tuple(f.name for f in schema.fields)
    if names not in _SCANNED_CLASSES:
        cls = None
        if all(name.isidentifier() and not name.startswith("__")
               and not hasattr(ScannedRecord, name) for name in names):
            cls = type("ScannedRecord", (ScannedRecord,),
                       {"__slots__": names, "__module__": __name__})
            cls._field_slots = tuple(cls.__dict__[name] for name in names)
        _SCANNED_CLASSES[names] = cls
    return _SCANNED_CLASSES[names]


def build_records(schema: "Schema", columns: Sequence[List[Any]],
                  n_records: int) -> List[Record]:
    """One block's records of ``schema`` from a scan's ``columns`` (column
    *i* holds field *i*), without a Python frame per record: the schema's
    :func:`scanned_class` with every field slot filled, or plain
    :class:`Record` instances when a field name cannot be a slot.  The columns
    are trusted: one per field, ``n_records`` long, as a block scan
    produces them."""
    cls = scanned_class(schema)
    rows = list(zip(*columns)) if columns else repeat((), n_records)
    slots = [(Record._schema, repeat(schema)), (Record._values, rows)]
    if cls is None:
        cls = Record
    else:
        slots += zip(cls._field_slots, columns)
    records = list(map(object.__new__, repeat(cls, n_records)))
    for slot, values in slots:
        deque(map(slot.__set__, records, values), maxlen=0)
    return records


class Schema:
    """A named, ordered list of typed fields, with binary encode/decode.

    Schemas are the unit of metadata the analyzer reasons about; they play
    the role of the Java value classes (``WebPage``, ``UserVisits``) whose
    serializers declare the file layout in the original system.
    """

    #: Transparent schemas expose per-field structure to the analyzer.
    transparent = True

    def __init__(self, name: str, fields: Iterable[Field]):
        fields = list(fields)
        if not name:
            raise SchemaError("schema name must be non-empty")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema {name!r}")
        self.name = name
        self.fields: List[Field] = fields
        self._index = {f.name: i for i, f in enumerate(fields)}

    # -- metadata ----------------------------------------------------------

    def field_index(self, name: str) -> Optional[int]:
        return self._index.get(name)

    def field(self, name: str) -> Field:
        idx = self.field_index(name)
        if idx is None:
            raise SchemaError(f"schema {self.name!r} has no field {name!r}")
        return self.fields[idx]

    def has_field(self, name: str) -> bool:
        return name in self._index

    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    def numeric_field_names(self) -> List[str]:
        """Fields eligible for delta-compression (Appendix C)."""
        return [f.name for f in self.fields if f.ftype.is_numeric]

    def project(self, keep: Sequence[str]) -> "Schema":
        """Derive the projected schema keeping only ``keep`` fields.

        Field order of the original schema is preserved regardless of the
        order of ``keep``; this keeps projected files deterministic.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self._index)
        if unknown:
            raise SchemaError(
                f"cannot project schema {self.name!r}: unknown fields {sorted(unknown)}"
            )
        kept = [f for f in self.fields if f.name in keep_set]
        return Schema(f"{self.name}_proj_{'_'.join(f.name for f in kept)}", kept)

    # -- record construction ----------------------------------------------

    def make(self, *args: Any, **kwargs: Any) -> Record:
        """Build a record positionally and/or by field name."""
        if len(args) > len(self.fields):
            raise SerializationError(
                f"schema {self.name!r} takes at most {len(self.fields)} values"
            )
        values: List[Any] = list(args)
        remaining = self.fields[len(args):]
        for f in remaining:
            if f.name not in kwargs:
                raise SerializationError(
                    f"missing value for field {f.name!r} of schema {self.name!r}"
                )
            values.append(kwargs.pop(f.name))
        if kwargs:
            raise SerializationError(
                f"unexpected fields for schema {self.name!r}: {sorted(kwargs)}"
            )
        return Record(self, values)

    # -- serialization ------------------------------------------------------

    def encode(self, record: Record) -> bytes:
        """Serialize ``record``, which must be of this schema or of one
        equal to it (same name, same fields).

        Through the compiled encoder of this schema's wire kinds
        (:func:`~repro.storage.blockwrite.schema_encoder`); a value it
        declines sends the record to the reference walk.
        """
        schema = record.schema
        layout, encode = schema_encoder(self)
        if schema is not self and schema_encoder(schema)[0] != layout \
                and schema != self:
            raise SerializationError(
                f"record of schema {schema.name!r} with fields "
                f"{schema.fields!r} passed to schema {self.name!r} with "
                f"fields {self.fields!r}"
            )
        values = record._values
        raw = encode(values)
        return _encode_fields(self.fields, values) if raw is None else raw

    def decode(self, buf: Any, start: int = 0,
               end: Optional[int] = None) -> Record:
        """Deserialize a record previously produced by :meth:`encode`.

        ``buf`` may be ``bytes`` or a ``memoryview``; ``start``/``end``
        select the record's span inside a larger block buffer so block
        readers never slice per record.
        """
        if end is None:
            end = len(buf)
        values: List[Any] = []
        pos = start
        for f in self.fields:
            value, pos = _decode_value(f.ftype, buf, pos, end)
            values.append(value)
        if pos != end:
            raise SerializationError(
                f"{end - pos} trailing bytes decoding schema {self.name!r}"
            )
        return Record(self, values)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable description (used in file headers/catalog)."""
        return {
            "name": self.name,
            "transparent": True,
            "fields": [[f.name, f.ftype.value] for f in self.fields],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schema":
        if not data.get("transparent", True):
            # Opaque schemas carry user codecs that cannot be serialized
            # into file headers; the registry (populated at import time by
            # the module defining the codec) supplies the live object.
            registered = _OPAQUE_REGISTRY.get(data["name"])
            if registered is not None:
                return registered
            return OpaqueSchema(data["name"])
        return cls(
            data["name"],
            [Field(n, FieldType(t)) for n, t in data["fields"]],
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schema)
            and other.transparent
            and self.name == other.name
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.fields)))

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {self.fields!r})"


class OpaqueSchema(Schema):
    """A schema whose serialization hides field structure.

    This models Benchmark 1's ``AbstractTuple``: a class that "essentially
    creates its own serialization format, and contains no direct
    program-specific clues as to its function" (Section 4.1).  Encoding and
    decoding are delegated to user-supplied callables; the analyzer sees no
    fields and therefore must skip projection and delta-compression.

    Records still behave like normal records at runtime (attribute access
    works), so the *selection* analysis -- which operates on the mapper
    code, not the byte layout -- remains possible.
    """

    transparent = False

    def __init__(self, name: str, fields: Iterable[Field] = (),
                 encoder=None, decoder=None):
        # Deliberately bypass Schema.__init__: opaque schemas may carry an
        # empty field list, which the transparent constructor would accept
        # anyway, but we also skip its duplicate-name validation semantics.
        if not name:
            raise SchemaError("schema name must be non-empty")
        fields = list(fields)
        self.name = name
        self.fields = fields
        self._index = {f.name: i for i, f in enumerate(fields)}
        self._encoder = encoder
        self._decoder = decoder

    def encode(self, record: Record) -> bytes:
        if self._encoder is None:
            raise SerializationError(
                f"opaque schema {self.name!r} has no encoder"
            )
        raw = self._encoder(record)
        if not isinstance(raw, (bytes, bytearray)):
            raise SerializationError("opaque encoder must return bytes")
        return bytes(raw)

    def decode(self, buf: Any, start: int = 0,
               end: Optional[int] = None) -> Record:
        if self._decoder is None:
            raise SerializationError(
                f"opaque schema {self.name!r} has no decoder"
            )
        if start != 0 or (end is not None and end != len(buf)) \
                or not isinstance(buf, bytes):
            # User codecs see exactly the bytes they wrote, never a window
            # into a shared block buffer.
            end = len(buf) if end is None else end
            buf = bytes(buf[start:end])
        record = self._decoder(self, buf)
        if not isinstance(record, Record):
            raise SerializationError("opaque decoder must return a Record")
        return record

    def numeric_field_names(self) -> List[str]:
        """An opaque layout exposes no numeric fields to the analyzer."""
        return []

    def project(self, keep: Sequence[str]) -> "Schema":
        raise SchemaError(
            f"opaque schema {self.name!r} cannot be projected: field "
            "boundaries are not visible in its serialization"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "transparent": False}


# ---------------------------------------------------------------------------
# Opaque-schema registry
# ---------------------------------------------------------------------------

_OPAQUE_REGISTRY: Dict[str, "OpaqueSchema"] = {}


def register_opaque_schema(schema: "OpaqueSchema") -> "OpaqueSchema":
    """Register an opaque schema so files referencing it can be decoded.

    File headers can only record the *name* of an opaque schema (its codec
    is arbitrary user code); readers resolve the name through this registry.
    Registration is idempotent for the same object.
    """
    existing = _OPAQUE_REGISTRY.get(schema.name)
    if existing is not None and existing is not schema:
        raise SchemaError(
            f"a different opaque schema named {schema.name!r} is already "
            "registered"
        )
    _OPAQUE_REGISTRY[schema.name] = schema
    return schema


# ---------------------------------------------------------------------------
# Primitive key/value support
# ---------------------------------------------------------------------------

#: Singleton schemas wrapping a bare primitive in a one-field record, used
#: when jobs emit plain ints/strings rather than structured records.
def primitive_schema(name: str, ftype: FieldType) -> Schema:
    """A single-field schema carrying one primitive value."""
    return Schema(name, [Field("value", ftype)])


LONG_SCHEMA = primitive_schema("LongValue", FieldType.LONG)
INT_SCHEMA = primitive_schema("IntValue", FieldType.INT)
STRING_SCHEMA = primitive_schema("StringValue", FieldType.STRING)
DOUBLE_SCHEMA = primitive_schema("DoubleValue", FieldType.DOUBLE)
