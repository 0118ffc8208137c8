"""The compiled block writes against the reference walk.

Every record a block file stores is encoded by generated code
(:mod:`repro.storage.blockwrite`): ``Schema.encode`` through its bare
shape, every writer append and ``copy_records``' column copies through
the writer's framed shape.  The reference is the per-field walk --
``serialization._encode_fields`` for plain values and the codecs'
reference steps (``WriteCodec.reference``) -- with the compiled bare
encoders switched off, so ``Schema.encode`` walks too.

The seeded differential feeds both the same pairs -- every wire kind at
its boundaries (varints around one, two and three bytes and the int64
limits, strings around one- and two-byte length prefixes, multi-byte
UTF-8, lone surrogates, NaN, -0.0, inf) and every value the fast path
must decline (a bool in an INT field, an int in a DOUBLE field, an
``IntEnum``, a ``float`` subclass, a ``bytearray``, a duck-typed string,
an out-of-range int, a delta difference leaving int64, a non-``str``
dictionary value) -- and demands, append by append, the same exception
type and message or none, and the same writer state after it: buffer,
records, delta sums and code table.  At the end the two files must be
byte-identical, at the default block size and a small one that makes
delta sums restart.
"""

import enum
import gc
import pickle
import random
import types

import pytest

from repro import codegen
from repro.exceptions import SerializationError
from repro.storage import blockwrite, serialization
from repro.storage.blockwrite import encoder_source
from repro.storage.columnfile import build_projection, copy_records
from repro.storage.delta import DeltaFileWriter
from repro.storage.dictionary import DictionaryFileWriter
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Record,
    Schema,
    _encode_fields,
)

VALUES = Schema("AllKinds", [
    Field("s", FieldType.STRING),
    Field("i", FieldType.INT),
    Field("l", FieldType.LONG),
    Field("d", FieldType.DOUBLE),
    Field("b", FieldType.BOOL),
    Field("raw", FieldType.BYTES),
])
KEYS = Schema("Key", [Field("id", FieldType.LONG), Field("tag", FieldType.STRING)])
#: the same wire kinds under other names: its records are not VALUES'
TWIN = Schema("Twin", [Field(f"{f.name}2", f.ftype) for f in VALUES.fields])

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


class Color(enum.IntEnum):
    RED = 3


class Weird(float):
    """A float subclass whose ``float()`` is not its stored value."""

    def __float__(self):
        return 2.5


class DuckString:
    """Not a ``str``, but it has an ``encode``."""

    def encode(self, *args):
        return b"duck"


#: per field kind: in-range boundary values, then values to decline
INTS = [0, 1, -1, 63, 64, -64, -65, 8191, 8192, -8192, -8193, 1 << 20,
        (1 << 27) - 1, 1 << 27, 1 << 40, INT64_MIN, INT64_MAX]
STRINGS = ["", "a", "x" * 127, "x" * 128, "y" * 16383, "y" * 16384,
           "日本語", "é" * 70, "\U0001F600"]
DOUBLES = [0.0, -0.0, 1.5, float("inf"), float("-inf"), float("nan"),
           -1e300, 5e-324]
BYTES = [b"", b"\x00\xff", b"z" * 128, b"q" * 16384]
BAD_INTS = [True, False, 1.5, "7", None, Color.RED, INT64_MAX + 1,
            INT64_MIN - 1, 1 << 70]
BAD_STRINGS = [b"bytes", 7, None, DuckString(), "\ud800", "a\udfffb"]
BAD_DOUBLES = [3, True, "1.0", None, Weird(1.0), Color.RED]
BAD_BOOLS = [1, 0, None, "True"]
BAD_BYTES = [bytearray(b"ba"), memoryview(b"mv"), "str", None]

GOOD = {"s": STRINGS, "i": INTS, "l": INTS, "d": DOUBLES,
        "b": [True, False], "raw": BYTES}
BAD = {"s": BAD_STRINGS, "i": BAD_INTS, "l": BAD_INTS, "d": BAD_DOUBLES,
       "b": BAD_BOOLS, "raw": BAD_BYTES}


def _reference_encoders(monkeypatch):
    """Switch the compiled bare encoders off: ``Schema.encode`` walks."""
    real = serialization.schema_encoder

    def walking(schema):
        layout, _encode = real(schema)
        return layout, lambda values: None

    monkeypatch.setattr(serialization, "schema_encoder", walking)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exact type and message are compared
        return (type(exc).__name__, str(exc))


def _values(rng, bad_share=0.15):
    """One value row: each field a boundary value, now and then a bad one."""
    row = []
    for f in VALUES.fields:
        pool = BAD[f.name] if rng.random() < bad_share else GOOD[f.name]
        row.append(rng.choice(pool))
    return row


def _key(rng):
    if rng.random() < 0.05:
        return [rng.choice(BAD_INTS), "k"]
    return [rng.choice(INTS), rng.choice(STRINGS[:4])]


def _same(a, b):
    """Equal outcomes, NaN payloads included (``nan != nan``)."""
    return repr(a) == repr(b)


# -- Schema.encode: the bare shape ------------------------------------------------


def test_schema_encode_matches_the_walk_on_every_boundary():
    rng = random.Random(11)
    rows = [_values(rng, 0.3) for _ in range(1500)]
    for f in VALUES.fields:
        for value in GOOD[f.name] + BAD[f.name]:
            row = [GOOD[g.name][0] for g in VALUES.fields]
            row[VALUES.field_index(f.name)] = value
            rows.append(row)
    for row in rows:
        record = Record(VALUES, row)
        got = _outcome(VALUES.encode, record)
        want = _outcome(_encode_fields, VALUES.fields, row)
        assert _same(got, want), row


def test_lone_surrogate_raises_the_walks_unicode_error():
    schema = Schema("S", [Field("s", FieldType.STRING)])
    with pytest.raises(UnicodeEncodeError) as compiled:
        schema.encode(schema.make("\ud800"))
    with pytest.raises(UnicodeEncodeError) as walked:
        _encode_fields(schema.fields, ["\ud800"])
    assert str(compiled.value) == str(walked.value)


def test_bare_encoder_declines_before_encoding():
    encode = blockwrite.schema_encoder(VALUES)[1]
    good = ["a", 1, 2, 1.0, True, b"x"]
    assert encode(tuple(good)) == _encode_fields(VALUES.fields, good)
    for i, f in enumerate(VALUES.fields):
        for value in BAD[f.name]:
            row = list(good)
            row[i] = value
            assert encode(tuple(row)) is None, (f.name, value)


# -- the bugfix: records of another layout are rejected ------------------------------


def test_encode_rejects_a_same_name_record_with_other_fields():
    one = Schema("Ev", [Field("x", FieldType.INT)])
    two = Schema("Ev", [Field("x", FieldType.INT), Field("y", FieldType.INT)])
    for schema, record in ((one, two.make(5, 6)), (two, one.make(5))):
        with pytest.raises(SerializationError) as err:
            schema.encode(record)
        message = str(err.value)
        assert repr(one.fields) in message and repr(two.fields) in message


def test_encode_rejects_a_same_name_record_with_other_types():
    ints = Schema("Ev", [Field("x", FieldType.INT)])
    strings = Schema("Ev", [Field("x", FieldType.STRING)])
    with pytest.raises(SerializationError, match="with fields"):
        ints.encode(strings.make("5"))


def test_encode_accepts_an_equal_schema(tmp_path):
    twin = pickle.loads(pickle.dumps(VALUES))
    assert twin is not VALUES and twin == VALUES
    row = ["a", 1, 2, 0.5, False, b"r"]
    assert VALUES.encode(twin.make(*row)) == VALUES.encode(VALUES.make(*row))


def test_writer_rejects_a_truncating_record(tmp_path):
    one = Schema("Ev", [Field("x", FieldType.INT)])
    two = Schema("Ev", [Field("x", FieldType.INT), Field("y", FieldType.INT)])
    path = str(tmp_path / "ev.rf")
    with RecordFileWriter(path, LONG_SCHEMA, one) as writer:
        with pytest.raises(SerializationError):
            writer.append(LONG_SCHEMA.make(1), two.make(5, 6))
        writer.append(LONG_SCHEMA.make(2), one.make(7))
    with RecordFileReader(path) as reader:
        assert [v.x for _k, v in reader] == [7]


# -- writers: every codec, append by append --------------------------------------------


class _Reference:
    """A writer appending through the reference steps only."""

    def append(self, key, value):
        self.append_raw(*self._codec.reference(key, value))


def _writers(kind):
    if kind == "identity":
        return RecordFileWriter, ()
    if kind == "delta":
        return DeltaFileWriter, (["i", "l"],)
    return DictionaryFileWriter, ("s",)


def _state(writer):
    return (bytes(writer._buffer), writer._buffer_records,
            writer.records_written, list(writer._codec.sums),
            list(writer._codec.codes.items()))


def _pairs(seed, n, bad_share):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        key = Record(KEYS, _key(rng))
        if rng.random() < 0.03:  # a record of another schema
            value = KEYS.make(1, "x")
        elif rng.random() < 0.03:  # ... of the same wire kinds
            value = Record(TWIN, _values(rng, 0.0))
        else:
            value = Record(VALUES, _values(rng, bad_share))
        out.append((key, value))
    # deltas that leave int64 and come back
    for i in (INT64_MAX, INT64_MIN, INT64_MAX, 0, -5):
        out.append((KEYS.make(i, "d"),
                    VALUES.make("s", i, 0, 0.0, True, b"")))
    return out


@pytest.mark.parametrize("kind", ["identity", "delta", "dictionary"])
@pytest.mark.parametrize("block_size", [None, 300])
def test_writers_match_the_reference_append_by_append(tmp_path, monkeypatch,
                                                      kind, block_size):
    writer_class, extras = _writers(kind)
    reference_class = type("Reference", (_Reference, writer_class), {})
    sizes = {} if block_size is None else {"block_size": block_size}
    seed = ["identity", "delta", "dictionary"].index(kind) * 1000 \
        + (block_size or 0)
    pairs = _pairs(seed, 700, 0.1)
    fast_path = str(tmp_path / "fast.bin")
    ref_path = str(tmp_path / "ref.bin")
    fast = writer_class(fast_path, KEYS, VALUES, *extras, **sizes)
    ref = reference_class(ref_path, KEYS, VALUES, *extras, **sizes)
    raised = 0
    for key, value in pairs:
        got = _outcome(fast.append, key, value)
        with monkeypatch.context() as patch:
            _reference_encoders(patch)
            want = _outcome(ref.append, key, value)
        assert got == want, (key, value)
        assert _same(_state(fast), _state(ref)), (key, value)
        raised += got[0] != "ok"
    # a lone surrogate in the code table fails both footers alike
    assert _outcome(fast.close) == _outcome(ref.close)
    fast._file.close()
    ref._file.close()
    assert 0 < raised < len(pairs)
    with open(fast_path, "rb") as a, open(ref_path, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("kind", ["identity", "delta", "dictionary"])
def test_append_rows_writes_what_append_writes(tmp_path, kind):
    writer_class, extras = _writers(kind)
    pairs = [(k, v) for k, v in _pairs(5, 400, 0.02)
             if v.schema is VALUES and _outcome(KEYS.encode, k)[0] == "ok"]
    rows = [(*k.as_tuple(), *v.as_tuple()) for k, v in pairs]
    paths = [str(tmp_path / f"{i}.bin") for i in range(2)]
    outcomes = []
    for path, use_rows in zip(paths, (False, True)):
        with writer_class(path, KEYS, VALUES, *extras, block_size=500) as w:
            if use_rows:
                outcomes.append(_outcome(w.append_rows, rows)[0])
            else:
                outcomes.append(_outcome(
                    lambda: [w.append(k, v) for k, v in pairs])[0])
    # the same first failure, and the same bytes up to it
    assert outcomes[0] == outcomes[1]
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_append_rows_hands_declined_rows_to_the_reference(tmp_path):
    rows = [(1, "k", "a", 1, 2, 0.5, True, b"x"),
            (2, "k", "b", 3, 4, 7, False, bytearray(b"y")),   # int in DOUBLE
            (3, "k", "c", 5, 6, 1.5, True, b"z")]
    paths = [str(tmp_path / "rows.rf"), str(tmp_path / "pairs.rf")]
    with RecordFileWriter(paths[0], KEYS, VALUES) as writer:
        writer.append_rows(rows)
    with RecordFileWriter(paths[1], KEYS, VALUES) as writer:
        for row in rows:
            writer.append(KEYS.make(*row[:2]), VALUES.make(*row[2:]))
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_delta_sums_restart_with_every_block(tmp_path):
    path = str(tmp_path / "d.bin")
    with DeltaFileWriter(path, KEYS, VALUES, ["i"], block_size=40) as writer:
        for i in range(50):
            writer.append(KEYS.make(i, ""), VALUES.make("", 1000 + i, 0, 0.0,
                                                         True, b""))
            if writer._buffer_records == 0:
                assert writer._codec.sums == [0] * len(VALUES.fields)


def test_projection_copy_matches_a_reference_copy(tmp_path, monkeypatch):
    source = str(tmp_path / "src.rf")
    rng = random.Random(3)
    with RecordFileWriter(source, KEYS, VALUES, block_size=256) as writer:
        for i in range(300):
            row = _values(rng, 0.0)
            writer.append(KEYS.make(i, "t"), VALUES.make(*row))
    fast, ref = str(tmp_path / "fast.proj"), str(tmp_path / "ref.proj")
    build_projection(source, fast, ["s", "d", "raw"], block_size=512)
    projected = VALUES.project(["s", "d", "raw"])
    with monkeypatch.context() as patch:
        _reference_encoders(patch)
        with RecordFileReader(source) as reader, \
                RecordFileWriter(ref, KEYS, projected, block_size=512,
                                 metadata=_metadata(fast)) as writer:
            for key, value in reader:
                writer.append_raw(*writer._codec.reference(
                    key, projected.make(*[getattr(value, f.name)
                                          for f in projected.fields])))
    with open(fast, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()


def test_copy_into_a_writer_of_other_schemas_is_refused(tmp_path):
    source = str(tmp_path / "src.rf")
    with RecordFileWriter(source, KEYS, VALUES) as writer:
        writer.append(KEYS.make(1, "a"), VALUES.make("s", 1, 2, 0.5, True, b""))
    with RecordFileReader(source) as reader, \
            RecordFileWriter(str(tmp_path / "out.rf"), KEYS, TWIN) as writer:
        with pytest.raises(SerializationError, match="cannot copy"):
            copy_records(reader, writer)


def _metadata(path):
    with RecordFileReader(path) as reader:
        return reader.metadata


# -- nothing generated rides on a pickled object -------------------------------------


def _generated(obj, seen=None, depth=0):
    """Whether a function compiled by ``blockwrite`` is reachable."""
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 6:
        return False
    seen.add(id(obj))
    if isinstance(obj, types.FunctionType):
        return obj.__code__.co_filename.startswith(
            f"{codegen.PREFIX}blockwrite:")
    if isinstance(obj, (str, bytes, int, float, type, types.ModuleType)):
        return False
    return any(_generated(ref, seen, depth + 1) for ref in gc.get_referents(obj))


def test_no_generated_code_on_schemas_records_or_writers(tmp_path):
    schema = Schema("Fresh", [Field("a", FieldType.INT),
                              Field("t", FieldType.STRING)])
    record = schema.make(1, "x")
    schema.encode(record)
    path = str(tmp_path / "f.rf")
    with RecordFileWriter(path, LONG_SCHEMA, schema) as writer:
        writer.append(LONG_SCHEMA.make(1), record)
        assert not _generated(vars(writer))
    assert not _generated(schema) and not _generated(record)
    for obj in (schema, record):
        raw = pickle.dumps(obj)
        assert b"blockwrite" not in raw and b"_encode" not in raw
        assert pickle.loads(raw) == obj


def test_equal_shapes_share_one_encoder():
    a = Schema("A", [Field("x", FieldType.INT), Field("y", FieldType.LONG)])
    b = Schema("B", [Field("p", FieldType.LONG), Field("q", FieldType.INT)])
    assert blockwrite.schema_encoder(a)[1] is blockwrite.schema_encoder(b)[1]
    assert blockwrite.schema_encoder(a)[0] != blockwrite.schema_encoder(b)[0]


def test_encoder_source_is_straight_line_per_field():
    source = encoder_source((("varint",), ("string", "delta", "dict")))
    assert source.startswith("def _write(buffer, rows, limit, sums, codes):")
    assert source.count("for ") == 1
    assert "sums[1] = v1_a" in source and "codes[v2] = v2_c" in source
