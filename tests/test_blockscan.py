"""The compiled block scan against the container's reference decoder.

The scan under every batch stage is generated code
(:mod:`repro.storage.blockscan`); the reference is what
``RecordFileReader.iter_records`` runs (``block_spans`` +
``Schema.decode``).  The seeded differential test damages files -- byte
flips anywhere and in record framing, truncations, a lying ``n_records``,
empty blocks -- and demands
that the two either raise the same exception type *and message* or both
succeed with equal values, keys and ``logical_bytes``.  One carve-out,
shared with every scan that captures a subset (an index build's copy
included): bytes of a string nobody captures are never UTF-8 decoded,
so damage confined to them passes a projecting scan; there the oracle
is the same contract spelled with the reference decoder's steps over a
field walk that only slices strings (``_projecting``).

The same scanner serves the record path (``split_scanner``): the split
readers of record, projection, delta and dictionary files and of
partitions, opened through ``InputSource.open``, are held to the
reference decode over the same seeded damage (``_check_split``) --
including deltas of every varint width and both signs, a running sum
leaving int64, empty blocks, a lying ``n_records`` and a value schema
without fields.  The record path captures every field, so it has no
carve-out: a projection's unread non-UTF-8 string raises.

Also here: the shape cache (equal shapes share one code object, a
fresh-literal query compiles nothing) and the never-silently-accept rule.
"""

import json
import random
from collections import Counter

import pytest

from repro import codegen
from repro.api.expressions import col
from repro.api.session import Session
from repro.batch.columns import ScanPlan, build_scan_plan, iter_column_batches
from repro.batch.executor import _union_plan
from repro.batch.spec import BatchStageSpec, column_ref
from repro.exceptions import (
    CorruptFileError,
    JobExecutionError,
    SerializationError,
    StorageError,
)
from repro.mapreduce.formats import (
    DeltaFileInput,
    DictionaryFileInput,
    PartitionedInput,
    ProjectedFileInput,
    RecordFileInput,
)
from repro.mapreduce.keyspace import estimate_size
from repro.storage import blockscan, open_block_file, varint
from repro.storage.blockscan import split_scanner
from repro.storage.columnfile import build_projection
from repro.storage.delta import DeltaFileReader, DeltaFileWriter
from repro.storage.dictionary import (
    MAGIC as DICT_MAGIC,
    DictionaryFileReader,
    DictionaryFileWriter,
)
from repro.storage.partitioned import write_partitioned_dataset
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
    _decode_value,
    register_opaque_schema,
    scanned_class,
)
from repro.symbolic import SConst

KEYS = Schema("ScanKey", [
    Field("tag", FieldType.STRING),
    Field("seq", FieldType.LONG),
])
VALUES = Schema("ScanValues", [
    Field("s", FieldType.STRING),
    Field("i", FieldType.INT),
    Field("d", FieldType.DOUBLE),
    Field("n", FieldType.LONG),
    Field("b", FieldType.BOOL),
    Field("raw", FieldType.BYTES),
    Field("t", FieldType.STRING),
])

#: 1-, 2-, 3-, 5-, 6- and 10-byte zigzag varints, both signs.
_MAGNITUDES = [0, 1, 63, 64, 8_191, 8_192, 1_048_575, 1_048_576,
               (1 << 33) - 1, 1 << 34, 1 << 40, (1 << 63) - 1]
#: empty, 1-byte-prefix and 2-byte-prefix (>= 128 bytes) strings
_STRINGS = ["", "a", "naïve ü", "x" * 127, "y" * 128, "日本" * 70]
#: the dictionary footer's trailing pointer
POINTER = 8

#: (captured value columns, decode_keys)
CONFIGS = [
    ([], False),
    (["i", "n"], False),
    (["t", "d", "b"], True),
    (VALUES.field_names(), True),
]


def _int(rng):
    value = rng.choice(_MAGNITUDES)
    return -value - 1 if rng.random() < 0.4 else value


def _row(rng, i):
    key = Record(KEYS, [rng.choice(_STRINGS), i if i % 3 else _int(rng)])
    value = Record(VALUES, [
        rng.choice(_STRINGS), _int(rng), rng.uniform(-1e9, 1e9), _int(rng),
        rng.random() < 0.5, rng.choice(_STRINGS).encode("utf-8"),
        rng.choice(_STRINGS),
    ])
    return key, value


def _write(path, rng, n_rows=40, block_size=600):
    with RecordFileWriter(str(path), KEYS, VALUES,
                          block_size=block_size) as w:
        for i in range(n_rows):
            w.append(*_row(rng, i))
    return str(path)


# -- the two sides -------------------------------------------------------------


def _eager(path):
    """``iter_records``: ('ok', keys, values, logical), or it raises."""
    with RecordFileReader(path) as reader:
        pairs = list(reader.iter_records())
    return (
        "ok",
        [k.as_tuple() for k, _v in pairs],
        [v.as_tuple() for _k, v in pairs],
        sum(estimate_size(k) + estimate_size(v) for k, v in pairs),
    )


def _spans(schema, view, pos, end):
    """Each field's ``(start, stop)`` on the wire, walked as a scan that
    captures nothing walks it: every length, bound and varint checked, a
    string only sliced (never UTF-8 decoded).  Raises where that walk
    gives up."""
    spans = []
    for field in schema.fields:
        ftype = (FieldType.BYTES if field.ftype is FieldType.STRING
                 else field.ftype)
        _value, stop = _decode_value(ftype, view, pos, end)
        spans.append((pos, stop))
        pos = stop
    if pos != end:
        raise SerializationError("trailing bytes")
    return spans


def _wire_size(schema, view, spans):
    """``estimate_size`` read off the wire: every field its span, except
    that a length prefix counts one byte."""
    size = 1
    for field, (start, stop) in zip(schema.fields, spans):
        if field.ftype in (FieldType.STRING, FieldType.BYTES):
            start = varint.decode_uvarint(view, start, stop)[1] - 1
        size += stop - start
    return size


def _projecting(path, capture, decode_keys):
    """The scan's contract, spelled with the reference decoder's steps.

    Block by block: frame, walk every record's fields (``_spans``) and
    decode the captured ones; a block where any of that fails is decoded
    by the reference instead and *that* error is the answer.
    """
    keys, values, logical = [], [], 0
    index = {name: i for i, name in enumerate(VALUES.field_names())}
    with RecordFileReader(path) as reader:
        for payload, n_records in reader.iter_block_payloads(None):
            try:
                view, spans = reader.block_spans(payload, n_records)
                for kpos, kend, vpos, vend in spans:
                    kspans = _spans(KEYS, view, kpos, kend)
                    vspans = _spans(VALUES, view, vpos, vend)
                    logical += (_wire_size(KEYS, view, kspans)
                                + _wire_size(VALUES, view, vspans))
                    if decode_keys:
                        keys.append(KEYS.decode(view, kpos, kend).as_tuple())
                    values.append(tuple(
                        _decode_value(VALUES.fields[index[name]].ftype, view,
                                      *vspans[index[name]])[0]
                        for name in capture))
            except Exception:
                for _pair in reader.decode_block(payload, n_records):
                    pass
                raise AssertionError("field walk failed where eager passes")
    return "ok", keys, values, logical


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError:
        raise
    except Exception as exc:
        return "err", type(exc), str(exc)


def _scan(path, capture, decode_keys):
    with RecordFileReader(path) as reader:
        plan = ScanPlan(reader.key_schema, reader.value_schema,
                        capture, decode_keys=decode_keys)
        batches = list(iter_column_batches(reader, None, plan))
    keys = [k.as_tuple() for b in batches for k in (b.keys or [])]
    values = [
        row for b in batches
        for row in zip(*[b.column(name) for name in capture])
    ] if capture else [()] * sum(b.n_rows for b in batches)
    return "ok", keys, values, sum(b.logical_bytes for b in batches)


def _check(path, stats, pristine=False):
    """One file, every config: the scan agrees with the reference.

    ``logical_bytes`` is held to ``estimate_size`` of the decoded records
    on files a writer produced; a flip can leave an overlong-but-legal
    varint, whose span every scan charges where ``estimate_size``
    charges the canonical length -- there the wire figure, via
    ``_projecting``, is the oracle.
    """
    eager = _outcome(_eager, path)
    index = {name: i for i, name in enumerate(VALUES.field_names())}
    for capture, decode_keys in CONFIGS:
        got = _outcome(_scan, path, capture, decode_keys)
        want = _outcome(_projecting, path, capture, decode_keys)
        # repr: NaN doubles (a flipped byte makes them) compare unequal
        assert repr(got) == repr(want), (path, capture, decode_keys)
        if eager[0] == "ok":
            _, keys, values, logical = eager
            assert repr(got[:3]) == repr((
                "ok", keys if decode_keys else [],
                [tuple(v[index[n]] for n in capture) for v in values]))
            assert got[3] == logical or not pristine
        elif eager[1] is not UnicodeDecodeError:
            assert got == eager
        elif got != eager:
            # the carve-out: an undecodable string this scan passes over
            stats["carved"] += 1
        stats[got[1].__name__ if got[0] == "err" else "ok"] += 1


# -- damage --------------------------------------------------------------------


def _data_region(path):
    """(first data byte, end of the blocks, block directory) of any codec."""
    with open_block_file(path) as reader:
        return reader._data_start, reader._data_end, reader.blocks()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rewrite(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _splice(path, at, cut, insert):
    """Replace ``cut`` bytes at ``at`` by ``insert``; a dictionary file's
    footer pointer follows its data end, so the damage stays in the
    blocks."""
    data = _read(path)
    data = data[:at] + insert + data[at + cut:]
    if data[:4] == DICT_MAGIC:
        pointer = int.from_bytes(data[-POINTER:], "little")
        data = data[:-POINTER] + (pointer + len(insert) - cut).to_bytes(
            POINTER, "little")
    _rewrite(path, data)


def _flip(path, rng):
    start, end, _blocks = _data_region(path)
    data = bytearray(_read(path))
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        data[rng.randrange(start, end)] ^= rng.choice(
            [0x80, 0x01, 0x7F, 0xFF, 1 << rng.randrange(8)])
    _rewrite(path, bytes(data))


def _flip_framing(path, rng):
    """Flip inside a record's key- or value-length prefix."""
    _start, _end, blocks = _data_region(path)
    block = rng.choice(blocks)
    with open_block_file(path) as reader:
        [(payload, n_records)] = reader.iter_block_payloads([block])
        _view, spans = reader.block_spans(payload, n_records)
    kpos, kend, vpos, _vend = rng.choice(spans)
    at = block.offset + block.length - len(payload) \
        + rng.choice([kpos, vpos]) - 1
    data = bytearray(_read(path))
    data[at] ^= rng.choice([0x80, 0x01, 1 << rng.randrange(8)])
    _rewrite(path, bytes(data))


def _truncate(path, rng):
    start, end, _blocks = _data_region(path)
    at = rng.randrange(start, end)
    _splice(path, at, end - at, b"")


def _lie_about_n_records(path, rng):
    _start, _end, blocks = _data_region(path)
    block = rng.choice(blocks)
    raw = _read(path)[block.offset:block.offset + block.length]
    payload_len, pos = varint.decode_uvarint(raw, 0)
    _n, pos = varint.decode_uvarint(raw, pos)
    lie = rng.choice([0, block.n_records - 1, block.n_records + 1,
                      block.n_records * 2, 1 << 40])
    _splice(path, block.offset, block.length,
            varint.encode_uvarint(payload_len) + varint.encode_uvarint(lie)
            + raw[pos:])


def _insert_empty_block(path, rng):
    _start, end, blocks = _data_region(path)
    at = rng.choice([b.offset for b in blocks] + [end])
    _splice(path, at, 0, b"\x00\x00")


DAMAGE = {
    "flip": (_flip, 220),
    "framing": (_flip_framing, 60),
    "truncate": (_truncate, 40),
    "n_records": (_lie_about_n_records, 40),
    "empty_block": (_insert_empty_block, 8),
}


class TestDifferentialCorruption:
    @pytest.mark.parametrize("seed", [0x5CA9, 20240926])
    def test_scan_matches_the_reference_on_damaged_files(self, tmp_path, seed):
        rng = random.Random(seed)
        stats = dict.fromkeys(
            ["ok", "carved", "CorruptFileError", "SerializationError",
             "UnicodeDecodeError"], 0)
        path = str(tmp_path / "f.rf")
        for kind, (damage, rounds) in DAMAGE.items():
            for _ in range(rounds):
                _write(path, rng)
                _check(path, stats, pristine=True)
                damage(path, rng)
                if kind == "empty_block" and rng.random() < 0.5:
                    _flip(path, rng)
                _check(path, stats)
        # the corpus is not vacuous: every outcome class was reached
        assert all(stats.values()), stats

    def test_prefix_excess_and_wide_varints_are_accounted(self, tmp_path):
        # every magnitude and string length in one pristine file
        rows = [
            (Record(KEYS, [s, m]),
             Record(VALUES, [s, -m - 1, 0.5, m, True, s.encode(), s]))
            for m in _MAGNITUDES for s in _STRINGS
        ]
        path = str(tmp_path / "wide.rf")
        with RecordFileWriter(path, KEYS, VALUES, block_size=4096) as w:
            for key, value in rows:
                w.append(key, value)
        stats = dict.fromkeys(["ok"], 0)
        _check(path, stats, pristine=True)
        assert stats == {"ok": len(CONFIGS)}
        _kind, keys, values, logical = _scan(path, VALUES.field_names(), True)
        assert keys == [k.as_tuple() for k, _v in rows]
        assert values == [v.as_tuple() for _k, v in rows]
        assert logical == sum(
            estimate_size(k) + estimate_size(v) for k, v in rows)

    def test_a_rejected_block_the_reference_accepts_is_an_internal_error(
            self, tmp_path, monkeypatch):
        path = _write(tmp_path / "f.rf", random.Random(1))
        with RecordFileReader(path) as reader:
            plan = ScanPlan(KEYS, VALUES, ["i"], decode_keys=False)
            monkeypatch.setattr(
                plan.scanner, "_fn", lambda payload, n, key_schema: None)
            with pytest.raises(StorageError, match="internal error"):
                list(iter_column_batches(reader, None, plan))

    def test_damage_reaches_a_query_as_the_reference_error(self, tmp_path):
        path = _write(tmp_path / "f.rf", random.Random(2))
        with RecordFileReader(path) as reader:
            first = reader.blocks()[0]
        data = bytearray(_read(path))
        data[first.offset + first.length - 1:first.offset + first.length] = b""
        data[first.offset] -= 1     # shorter payload: framing no longer adds up
        _rewrite(path, bytes(data))
        kind, exc_type, message = _outcome(_eager, path)
        assert kind == "err" and exc_type in (
            CorruptFileError, SerializationError)
        with Session(workdir=str(tmp_path / "work")) as session:
            query = session.read(path).filter(col("i") > 0).select("i")
            with pytest.raises(JobExecutionError) as raised:
                query.collect()
        assert message in str(raised.value)
        assert isinstance(raised.value.__cause__, exc_type)


# -- the record path: split readers over every codec --------------------------

#: what the delta files delta-code
DELTA_FIELDS = ["i", "n"]
#: delta steps whose zigzag varints take 1, 2, 3, 5, 9 and 10 bytes
_STEPS = [0, 1, 63, 64, 8_191, 8_192, 1_048_575, 1 << 33, 1 << 62]
#: delta-field values stay inside +-2**62, so every delta fits int64
_BOUND = 1 << 62
#: a value schema with no fields at all
EMPTY = Schema("NoFields", [])


def _walk(rng, value):
    step = rng.choice(_STEPS) * rng.choice([1, -1])
    return value + step if abs(value + step) <= _BOUND else value - step


def _codec_rows(rng, kind, value_schema, n_rows):
    rows = [_row(rng, i) for i in range(n_rows)]
    if value_schema is EMPTY:
        return [(key, Record(EMPTY, [])) for key, _value in rows]
    if kind == "delta":
        i = n = 0
        walked = []
        for key, value in rows:
            i, n = _walk(rng, i), _walk(rng, n)
            walked.append((key, value.replace(i=i, n=n)))
        rows = walked
    return rows


def _write_codec(kind, path, rng, value_schema=VALUES, n_rows=40,
                 block_size=600):
    """A file (a directory, for partitions) of ``kind``; returns its
    source and the block files damage may target."""
    rows = _codec_rows(rng, kind, value_schema, n_rows)
    if kind == "partitions":
        info = write_partitioned_dataset(path, KEYS, value_schema, rows, 3,
                                         block_size=block_size)
        files = [info.partition_path(p) for p in info.partitions
                 if p.records]
        return PartitionedInput(path), files
    if kind in ("record", "projection"):
        writer = RecordFileWriter(path, KEYS, value_schema,
                                  block_size=block_size)
        source = (RecordFileInput if kind == "record"
                  else ProjectedFileInput)
    elif kind == "delta":
        deltas = [f for f in DELTA_FIELDS if value_schema.has_field(f)]
        writer = DeltaFileWriter(path, KEYS, value_schema, deltas,
                                 block_size=block_size)
        source = DeltaFileInput
    else:
        writer = DictionaryFileWriter(path, KEYS, value_schema, "t",
                                      block_size=block_size)
        source = DictionaryFileInput
    with writer:
        for key, value in rows:
            writer.append(key, value)
    return source(path), [path]


def _split_files(source):
    """(reader class, path, blocks) of every split ``source`` makes."""
    for split in source.splits(3):
        if type(source) is PartitionedInput:
            yield (RecordFileReader, *split.payload)
        else:
            yield source.reader_class, source.path, split.payload


def _split_reader(source):
    """What a map task sees: ``InputSource.open`` over every split."""
    pairs, logical, fields = [], 0, 0
    for split in source.splits(3):
        reader = source.open(split)
        pairs += [(k.as_tuple(), v.as_tuple()) for k, v in reader]
        logical += reader.logical_bytes
        fields += reader.fields
    return "ok", pairs, logical, fields


def _record_path_reference(source):
    """The eager record path as it was: ``iter_records`` over each
    split's blocks, ``estimate_size`` and the field count per record."""
    pairs, logical, fields = [], 0, 0
    for reader_class, path, blocks in _split_files(source):
        with reader_class(path) as reader:
            for key, value in reader.iter_records(blocks):
                logical += estimate_size(key) + estimate_size(value)
                fields += max(1, len(value.schema.fields))
                pairs.append((key.as_tuple(), value.as_tuple()))
    return "ok", pairs, logical, fields


def _wire_logical(source):
    """Logical bytes read off the wire: every field its span, a length
    prefix one byte, and a delta field ``svarint_len`` of its block's
    running sum."""
    logical = 0
    for reader_class, path, blocks in _split_files(source):
        with reader_class(path) as reader:
            deltas = set(getattr(reader, "delta_fields", ()))
            keys, schema = reader.key_schema, reader.stored_schema
            for payload, n_records in reader.iter_block_payloads(blocks):
                view, spans = reader.block_spans(payload, n_records)
                sums = [0] * len(schema.fields)
                for kpos, kend, vpos, vend in spans:
                    at = _spans(schema, view, vpos, vend)
                    logical += _wire_size(schema, view, at) + _wire_size(
                        keys, view, _spans(keys, view, kpos, kend))
                    for i, field in enumerate(schema.fields):
                        if field.name in deltas:
                            sums[i] += varint.decode_svarint(view, *at[i])[0]
                            logical += varint.svarint_len(sums[i]) \
                                - (at[i][1] - at[i][0])
    return logical


def _check_split(source, stats, pristine=False):
    """The split reader yields what the old record path yielded -- pairs,
    ``logical_bytes``, ``fields`` -- or raises its exception, type and
    message.  One carve-out, on damaged files only: logical bytes come
    from the wire, so an overlong-but-legal varint a flip produced is
    charged its span (``_wire_logical``), where ``estimate_size`` charges
    the canonical length."""
    got = _outcome(_split_reader, source)
    want = _outcome(_record_path_reference, source)
    if got[0] == want[0] == "ok" and got[2] != want[2] and not pristine:
        assert got[2] == _outcome(_wire_logical, source)
        stats["wire"] += 1
        want = want[:2] + got[2:3] + want[3:]
    # repr: NaN doubles (a flipped byte makes them) compare unequal
    assert repr(got) == repr(want), source.describe()
    stats[got[1].__name__ if got[0] == "err" else "ok"] += 1


CODECS = ["record", "projection", "delta", "dictionary", "partitions"]


class TestSplitReaderCorruption:
    @pytest.mark.parametrize("kind", CODECS)
    @pytest.mark.parametrize("seed", [0x5CA9, 20240926])
    def test_split_reader_matches_the_record_path_on_damaged_files(
            self, tmp_path, kind, seed):
        rng = random.Random(seed)
        stats = dict.fromkeys(
            ["ok", "wire", "CorruptFileError", "SerializationError",
             "UnicodeDecodeError"], 0)
        path = str(tmp_path / "data")
        for damage_kind, (damage, rounds) in DAMAGE.items():
            for _ in range(rounds):
                source, files = _write_codec(kind, path, rng)
                _check_split(source, stats, pristine=True)
                target = rng.choice(files)
                damage(target, rng)
                if damage_kind == "empty_block" and rng.random() < 0.5:
                    _flip(target, rng)
                _check_split(source, stats)
        del stats["wire"]  # reached or not, as the flips fall
        assert all(stats.values()), stats

    @pytest.mark.parametrize("kind", ["record", "delta", "partitions"])
    def test_a_value_schema_without_fields(self, tmp_path, kind):
        rng = random.Random(7)
        stats = Counter()
        path = str(tmp_path / "data")
        for damage, _rounds in DAMAGE.values():
            source, files = _write_codec(kind, path, rng, EMPTY)
            _check_split(source, stats, pristine=True)
            damage(rng.choice(files), rng)
            _check_split(source, stats)
        source, _files = _write_codec(kind, path, rng, EMPTY)
        _kind, pairs, logical, fields = _split_reader(source)
        assert fields == len(pairs) == 40 and logical > 0

    def test_every_delta_width_and_sign_is_accounted(self, tmp_path):
        # every step width, both signs, several blocks of running sums
        rows, i = [], 0
        for step in _STEPS:
            for sign in (1, -1, -1, 1):
                i += sign * step
                rows.append((Record(KEYS, ["k", i]),
                             Record(VALUES, ["s", i, 0.5, -i, True, b"r",
                                             "日本" * 22])))
        path = str(tmp_path / "wide.df")
        with DeltaFileWriter(path, KEYS, VALUES, DELTA_FIELDS,
                             block_size=1000) as w:
            for key, value in rows:
                w.append(key, value)
        source = DeltaFileInput(path)
        assert len(source.splits(1)[0].payload) > 3
        kind, pairs, logical, fields = _split_reader(source)
        assert pairs == [(k.as_tuple(), v.as_tuple()) for k, v in rows]
        assert logical == sum(estimate_size(k) + estimate_size(v)
                              for k, v in rows)
        assert fields == len(rows) * len(VALUES.fields)

    def test_a_running_sum_leaving_int64_raises_the_reference_error(
            self, tmp_path):
        # the writer checks deltas, not sums: 2**62 + 2**62 is stored
        path = str(tmp_path / "wide.df")
        with DeltaFileWriter(path, KEYS, VALUES, DELTA_FIELDS) as w:
            for i in (1 << 62, 1 << 63):
                w.append(Record(KEYS, ["k", 0]),
                         Record(VALUES, ["s", i, 0.5, 0, True, b"", "t"]))
        source = DeltaFileInput(path)
        kind, exc_type, message = _outcome(_record_path_reference, source)
        assert (kind, exc_type) == ("err", SerializationError)
        assert "exceeds 64-bit signed range" in message
        assert _outcome(_split_reader, source) == (kind, exc_type, message)
        # the block decodes whole first: map() never saw its first record
        reader = source.open(source.splits(1)[0])
        with pytest.raises(SerializationError):
            list(reader)
        assert reader.records == 0

    def test_a_rejected_block_the_reference_accepts_is_an_internal_error(
            self, tmp_path, monkeypatch):
        source, _files = _write_codec("delta", str(tmp_path / "f.df"),
                                      random.Random(1))
        with DeltaFileReader(source.path) as reader:
            scanner = split_scanner(reader)
        monkeypatch.setattr(
            scanner, "_fn", lambda payload, n, key_schema: None)
        monkeypatch.setattr(blockscan, "_compiled", lambda shape: scanner)
        with pytest.raises(StorageError, match="internal error"):
            _split_reader(source)

    def test_an_opaque_schema_takes_the_reference_walk(self, tmp_path):
        path = str(tmp_path / "o.rf")
        with RecordFileWriter(path, KEYS, OPAQUE) as w:
            for i in range(30):
                w.append(Record(KEYS, ["k", i]), Record(OPAQUE, [i, -i]))
        with RecordFileReader(path) as reader:
            assert split_scanner(reader) is None
        source = RecordFileInput(path)
        got = _split_reader(source)
        assert got == _record_path_reference(source)
        assert got[3] == 30 * 2

    @pytest.mark.parametrize("bad", [
        b"\xff" * 9 + b"\x01",      # ten bytes, 2**64 - 1: legal
        b"\xff" * 9 + b"\x02",      # bit 64 set
        b"\x80" * 10 + b"\x00",     # eleven bytes
    ])
    def test_ten_byte_varints_and_past_them(self, tmp_path, bad):
        # long varints decode inline; the scanner gives up exactly where
        # decode_uvarint raises, and the re-walk raises its error
        schema = Schema("N", [Field("n", FieldType.LONG)])
        path = str(tmp_path / "n.rf")
        with RecordFileWriter(path, LONG_SCHEMA, schema) as w:
            w.append(LONG_SCHEMA.make(7), schema.make(0))
        with RecordFileReader(path) as reader:
            [block] = reader.blocks()
        payload = b"\x01\x0e" + bytes([len(bad)]) + bad   # key 7: zigzag 14
        _rewrite(path, _read(path)[:block.offset]
                 + varint.encode_uvarint(len(payload))
                 + varint.encode_uvarint(1) + payload)
        source = RecordFileInput(path)
        want = _outcome(_record_path_reference, source)
        assert want[0] == ("ok" if bad[-1] == 1 else "err")
        assert _outcome(_split_reader, source) == want
        # ... and passing over it (a batch scan capturing nothing)
        with RecordFileReader(path) as reader:
            plan = ScanPlan(LONG_SCHEMA, schema, [], decode_keys=False)
            passed = _outcome(lambda: ("ok", sum(
                b.n_rows for b in iter_column_batches(reader, None, plan))))
        assert passed == (want if want[0] == "err" else ("ok", 1))


# -- projections: read like every other input, built without dropped fields --


def _write_unreadable(path, value_schema=VALUES):
    """A record file whose ``t`` strings are not UTF-8 in every record,
    every other field intact."""
    rows = [(Record(KEYS, ["k", i]),
             Record(value_schema, ["s", i, 0.5, -i, True, b"r", "\x7f" * 5]))
            for i in range(30)]
    with RecordFileWriter(path, KEYS, value_schema, block_size=400) as w:
        for key, value in rows:
            w.append(key, value)
    _rewrite(path, _read(path).replace(b"\x05" + b"\x7f" * 5,
                                       b"\x05" + b"\xff" * 5))
    return rows


class TestProjections:
    def test_an_unread_string_that_is_not_utf8_raises(self, tmp_path):
        # the record path decodes every stored field: a block holding a
        # bad string fails whole, whether or not map() would read it
        path = str(tmp_path / "p.rf")
        _write_unreadable(path)
        source = ProjectedFileInput(path)
        want = _outcome(_record_path_reference, source)
        assert want[:2] == ("err", UnicodeDecodeError)
        assert _outcome(_split_reader, source) == want
        reader = source.open(source.splits(1)[0])
        with pytest.raises(UnicodeDecodeError):
            for _key, value in reader:
                value.i
        assert reader.records == 0

    def test_a_field_named_like_a_record_attribute_reads_plain_records(
            self, tmp_path):
        odd = Schema("Odd", [Field("get", FieldType.INT),
                             Field("i", FieldType.INT)])
        assert scanned_class(odd) is None
        path = str(tmp_path / "odd.rf")
        with RecordFileWriter(path, LONG_SCHEMA, odd) as w:
            for i in range(20):
                w.append(LONG_SCHEMA.make(i), odd.make(-i, i))
        source = ProjectedFileInput(path)
        reader = source.open(source.splits(1)[0])
        values = [v for _k, v in reader]
        assert {type(v) for v in values} == {Record}
        assert [v.get("get") for v in values] == [-i for i in range(20)]
        assert [v.i for v in values] == list(range(20))
        assert reader.fields == 20 * 2

    def test_a_build_never_decodes_a_dropped_field(self, tmp_path):
        # the copy captures only the kept fields, so a dropped string
        # that is not UTF-8 is passed over; a full copy decodes it
        source = str(tmp_path / "src.rf")
        rows = _write_unreadable(source)
        kept = ["i", "n", "raw"]
        projected = str(tmp_path / "p.proj")
        stats = build_projection(source, projected, kept)
        assert stats["records"] == len(rows)
        with RecordFileReader(projected) as reader:
            got = [(k.as_tuple(), v.as_tuple()) for k, v in reader]
        assert got == [(k.as_tuple(), (v.i, v.n, v.raw)) for k, v in rows]
        with pytest.raises(UnicodeDecodeError):
            build_projection(source, str(tmp_path / "all.proj"),
                             VALUES.field_names())


def _pack(record):
    return json.dumps(record.as_tuple()).encode()


def _unpack(schema, raw):
    return Record(schema, json.loads(raw))


OPAQUE = register_opaque_schema(OpaqueSchema(
    "ScanOpaque", [Field("a", FieldType.INT), Field("b", FieldType.INT)],
    encoder=_pack, decoder=_unpack))


# -- the shape cache -----------------------------------------------------------


def _code(scanner):
    """What every scanner of one shape shares: its compiled code."""
    return scanner._fn.__code__


class TestScannerCache:
    AGG = BatchStageSpec((column_ref("n"), SConst(1)),
                         predicates=[(col("i") > 1).to_symbolic()],
                         fold=["count"])

    def test_equal_shapes_share_one_code_object(self, tmp_path):
        solo = build_scan_plan(KEYS, VALUES, self.AGG)
        path = _write(tmp_path / "f.rf", random.Random(3))
        with RecordFileReader(path) as reader:
            # the pass's plan for a group of one member's plan
            union = _union_plan(reader, [solo], None)
        assert union is not solo
        assert _code(union.scanner) is _code(solo.scanner)
        # INT and LONG are the same bytes, so the same shape
        other = Schema("Other", [
            Field(f.name, FieldType.LONG if f.ftype is FieldType.INT
                  else f.ftype) for f in VALUES.fields])
        assert _code(build_scan_plan(KEYS, other, self.AGG).scanner) \
            is _code(solo.scanner)

    def test_different_shapes_do_not(self):
        base = _code(ScanPlan(KEYS, VALUES, ["i", "n"], False).scanner)
        assert _code(ScanPlan(KEYS, VALUES, ["i"], False).scanner) \
            is not base
        assert _code(ScanPlan(KEYS, VALUES, ["n", "i"], False).scanner) \
            is not base
        assert _code(ScanPlan(KEYS, VALUES, ["i", "n"], True).scanner) \
            is not base
        assert _code(ScanPlan(LONG_SCHEMA, VALUES, ["i", "n"], False)
                     .scanner) is not base

    def test_every_codec_reads_through_one_scanner_per_shape(self, tmp_path):
        rng = random.Random(5)

        def scanner(reader_class, path):
            with reader_class(path) as reader:
                return _code(split_scanner(reader)), reader.stored_schema

        record, _ = _write_codec("record", str(tmp_path / "r.rf"), rng)
        _parts, files = _write_codec("partitions", str(tmp_path / "p"), rng)
        delta, _ = _write_codec("delta", str(tmp_path / "d.df"), rng)
        coded, _ = _write_codec("dictionary", str(tmp_path / "x.dx"), rng)
        plain, _schema = scanner(RecordFileReader, record.path)
        assert scanner(RecordFileReader, files[0])[0] is plain
        assert scanner(DeltaFileReader, delta.path)[0] is not plain
        # a dictionary file is the identity shape over its stored schema
        shared, stored = scanner(DictionaryFileReader, coded.path)
        path = str(tmp_path / "stored.rf")
        with RecordFileWriter(path, KEYS, stored):
            pass
        assert scanner(RecordFileReader, path)[0] is shared
        assert shared is not plain

    def test_a_fresh_literal_compiles_nothing_new(self, tmp_path):
        path = _write(tmp_path / "f.rf", random.Random(4))
        with Session(workdir=str(tmp_path / "work")) as session:
            def run(threshold):
                return session.read(path).filter(
                    col("i") > threshold).select("i", "t").collect()

            def compiled():
                # stage sources inline their literals; scanner and kernel
                # sources must not vary with them
                return {source for source, entry in codegen._CACHE.items()
                        if entry.filename.startswith((
                            f"{codegen.PREFIX}blockscan:",
                            f"{codegen.PREFIX}kernel:"))}

            run(10)
            before = compiled()
            assert run(11) is not None
            assert before and compiled() - before == set()
