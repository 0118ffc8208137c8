"""A selection index's range scan is a block-file read of its fenced run.

``SelectionIndexInput`` stores the original (key, value) pairs in an
index file (``repro.storage.indexfile``) sorted on the indexed field.  A
range bisects the fences into one contiguous run of blocks, reads it
through the compiled scanner like any block-file split, drops the
out-of-range records of the two edge blocks and runs the residual over
the rest.  The oracle here is the source itself: its pairs sorted
(stably) on the indexed field's order key and filtered by the range and
the residual.  Every pair and skip count must match it -- over every key
field type, ranges spanning many blocks, duplicate keys straddling block
boundaries under each inclusive/exclusive bound, open bounds, empty
ranges and an empty index -- and every byte and field charge must be the
run's whole blocks plus the fence footer.  Opaque schemas take the
container's reference decode; a damaged block raises what that decode
raises, before ``map()`` sees any of its records.
"""

import os
import random

import pytest

from repro.mapreduce.formats import KeyRange, SelectionIndexInput
from repro.mapreduce.keyspace import estimate_size
from repro.storage import varint
from repro.storage.indexfile import IndexFileReader, IndexFileWriter
from repro.storage.orderkeys import encode_key
from repro.storage.serialization import (
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
    register_opaque_schema,
)

KEY = Schema("IdxKey", [Field("id", FieldType.LONG),
                        Field("tag", FieldType.STRING)])
VALUE = Schema("IdxValue", [
    Field("i", FieldType.INT),
    Field("l", FieldType.LONG),
    Field("d", FieldType.DOUBLE),
    Field("b", FieldType.BOOL),
    Field("s", FieldType.STRING),
    Field("raw", FieldType.BYTES),
])
#: every value field an index can be sorted on (BYTES has no order key)
KEY_FIELDS = ["i", "l", "d", "b", "s"]
N_ROWS = 400
BLOCK_SIZE = 512


def _encode_opaque(record):
    return f"{record.a}|{record.b}".encode("utf-8")


def _decode_opaque(schema, raw):
    a, b = raw.split(b"|", 1)
    return Record(schema, [int(a), b.decode("utf-8")])


OPAQUE = register_opaque_schema(OpaqueSchema(
    "BTreeInputOpaque",
    [Field("a", FieldType.INT), Field("b", FieldType.STRING)],
    encoder=_encode_opaque,
    decoder=_decode_opaque,
))


def _rows(rng):
    for i in range(N_ROWS):
        value = VALUE.make(
            rng.randrange(-70, 70), rng.choice([1 << 40, -(1 << 62), 5, 300]),
            rng.choice([0.5, -0.0, 0.0, -2.5, 1e300, float("inf")]),
            rng.random() < 0.5,
            rng.choice(["", "é" * rng.randrange(80), "x" * 200, f"s{i % 9}"]),
            bytes(rng.randrange(256) for _ in range(rng.randrange(140))))
        yield KEY.make(i, "t" * (i % 150)), value


def _order_key(schema, field, value):
    return encode_key(schema.field(field).ftype, getattr(value, field))


def _sorted(schema, field, pairs):
    """The source's pairs in the index's order: stably by order key."""
    return sorted(pairs, key=lambda kv: _order_key(schema, field, kv[1]))


def _build(path, key_schema, value_schema, field, pairs,
           block_size=BLOCK_SIZE):
    with IndexFileWriter(path, key_schema, value_schema, field,
                         block_size=block_size) as writer:
        for key, value in _sorted(value_schema, field, pairs):
            writer.append(key, value)
    return path


def _oracle(source, schema, field, pairs):
    """The filtered, order-key-sorted scan of the source; and the charges
    of each range's whole run of blocks plus the fence footer, off the
    container's reference decode."""
    out, stats = [], dict(stored=0, logical=0, fields=0, skipped=0)
    ordered = _sorted(schema, field, pairs)
    for rng in source.ranges:
        for key, value in ordered:
            if not rng.admits(_order_key(schema, field, value)):
                continue
            if source.residual is not None \
                    and not source.residual(key, value):
                stats["skipped"] += 1
                continue
            out.append((key, value))
        with IndexFileReader(source.index_path) as reader:
            blocks = reader.range_blocks(rng.lo, rng.hi, rng.lo_inclusive,
                                         rng.hi_inclusive)
            for payload, n in reader.iter_block_payloads(blocks):
                for key, value in reader.decode_block(payload, n):
                    stats["logical"] += estimate_size(key) + estimate_size(value)
                    stats["fields"] += max(1, len(value.schema.fields))
            stats["stored"] += reader.bytes_read
    return out, stats


def _drain(source):
    pairs, stats = [], dict(stored=0, logical=0, fields=0, skipped=0)
    for split in source.splits(4):
        reader = source.open(split)
        pairs.extend(reader)
        stats["stored"] += reader.stored_bytes
        stats["logical"] += reader.logical_bytes
        stats["fields"] += reader.fields
        stats["skipped"] += reader.skipped
    return pairs, stats


def _assert_matches_oracle(source, schema, field, pairs):
    got, stats = _drain(source)
    expected, expected_stats = _oracle(source, schema, field, pairs)
    assert got == expected
    assert [repr(p) for p in got] == [repr(p) for p in expected]
    assert stats == expected_stats
    return got


@pytest.fixture(scope="module")
def rows():
    return list(_rows(random.Random(25)))


@pytest.fixture(scope="module")
def indexes(tmp_path_factory, rows):
    """One index per key field, over the same rows."""
    root = tmp_path_factory.mktemp("index")
    return {field: _build(str(root / f"{field}.sidx"), KEY, VALUE, field,
                          rows)
            for field in KEY_FIELDS}


def _ranges(rng, schema, field, pairs):
    """Seeded ranges over the field's actual keys: each bound kind,
    open bounds, a point, an empty and an inverted range."""
    keys = sorted({_order_key(schema, field, v) for _k, v in pairs})
    out = [[KeyRange(None, None)],
           [KeyRange(keys[-1] + b"\x00", None)],
           [KeyRange(keys[-1], keys[0])]]
    for _ in range(6):
        lo, hi = sorted(rng.sample(keys, 2)) if len(keys) > 1 else keys * 2
        out.append([KeyRange(lo, hi, rng.random() < 0.5, rng.random() < 0.5)])
        out.append([KeyRange(None, hi, hi_inclusive=rng.random() < 0.5)])
        out.append([KeyRange(lo, None, lo_inclusive=rng.random() < 0.5)])
        point = rng.choice(keys)
        out.append([KeyRange(point, point)])
    if len(keys) > 3:
        a, b, c, d = sorted(rng.sample(keys, 4))
        out.append([KeyRange(a, b, lo_inclusive=False),
                    KeyRange(c, d, hi_inclusive=False)])
    return out


RESIDUALS = [
    None,
    lambda key, value: value.b and len(value.s) % 2 == 0,
    lambda key, value: False,
]


class TestRangeReadMatchesSortedScan:
    @pytest.mark.parametrize("field", KEY_FIELDS)
    @pytest.mark.parametrize("residual", RESIDUALS)
    def test_every_key_field_type(self, indexes, rows, field, residual):
        for ranges in _ranges(random.Random(field), VALUE, field, rows):
            source = SelectionIndexInput(indexes[field], ranges,
                                         residual=residual)
            _assert_matches_oracle(source, VALUE, field, rows)

    def test_ranges_span_several_blocks(self, indexes):
        with IndexFileReader(indexes["i"]) as reader:
            run = reader.range_blocks(encode_key(FieldType.INT, -40),
                                      encode_key(FieldType.INT, 40))
            assert len(run) > 5
            assert len(run) < len(reader.blocks())

    def test_values_are_slotted_records(self, indexes):
        pairs, _stats = _drain(SelectionIndexInput(
            indexes["i"], [KeyRange(None, None)]))
        key, value = pairs[0]
        assert "s" in type(value).__slots__ and "id" in type(key).__slots__
        assert value == VALUE.make(*value.as_tuple())

    def test_one_split_per_range(self, indexes):
        ranges = [KeyRange(None, encode_key(FieldType.INT, -50)),
                  KeyRange(encode_key(FieldType.INT, 900), None),
                  KeyRange(encode_key(FieldType.INT, 0), None)]
        assert len(SelectionIndexInput(indexes["i"], ranges).splits(1)) == 3

    def test_negative_zero_shares_the_zero_key(self, indexes, rows):
        zero = encode_key(FieldType.DOUBLE, 0.0)
        pairs, _stats = _drain(SelectionIndexInput(
            indexes["d"], [KeyRange(zero, zero)]))
        expected = [v for _k, v in rows if v.d == 0.0]
        assert len(pairs) == len(expected) > 0
        assert {repr(v.d) for _k, v in pairs} == {"0.0", "-0.0"}


class TestDuplicatesAcrossBlockBoundaries:
    """A key whose duplicates straddle block boundaries is read whole, or
    not at all, under every bound."""

    @pytest.fixture(scope="class")
    def straddling(self, tmp_path_factory):
        pairs = [(KEY.make(i, "k"), VALUE.make(i // 40, 0, 0.5, True,
                                                "s" * 20, b""))
                 for i in range(400)]
        path = _build(str(tmp_path_factory.mktemp("dups") / "d.sidx"),
                      KEY, VALUE, "i", pairs, block_size=128)
        with IndexFileReader(path) as reader:
            firsts, lasts = reader._firsts, reader._lasts
            shared = {last for last, first in zip(lasts, firsts[1:])
                      if last == first}
        assert shared  # some key continues into the next block
        return path, pairs, sorted(shared)

    @pytest.mark.parametrize("lo_inclusive", [True, False])
    @pytest.mark.parametrize("hi_inclusive", [True, False])
    def test_every_bound_kind(self, straddling, lo_inclusive, hi_inclusive):
        path, pairs, shared = straddling
        for key in shared:
            for lo, hi in ((key, key), (key, None), (None, key),
                           (key, key + b"\x01"), (b"", key)):
                source = SelectionIndexInput(path, [KeyRange(
                    lo, hi, lo_inclusive, hi_inclusive)])
                _assert_matches_oracle(source, VALUE, "i", pairs)


class TestEmptyIndexes:
    def test_empty_index(self, tmp_path):
        path = _build(str(tmp_path / "e.sidx"), KEY, VALUE, "i", [])
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        pairs, stats = _drain(source)
        assert pairs == [] and stats["skipped"] == 0
        with IndexFileReader(path) as reader:
            assert reader.blocks() == []

    def test_empty_range_keeps_nothing(self, indexes):
        source = SelectionIndexInput(indexes["i"], [KeyRange(
            encode_key(FieldType.INT, 5), encode_key(FieldType.INT, 5),
            lo_inclusive=False)])
        pairs, stats = _drain(source)
        assert pairs == [] and stats["skipped"] == 0

    def test_range_past_every_key_reads_no_block(self, indexes):
        source = SelectionIndexInput(indexes["i"], [KeyRange(
            encode_key(FieldType.INT, 70), None)])
        [split] = source.splits(1)
        assert split.payload[1] == []
        with IndexFileReader(indexes["i"]) as reader:
            fences = reader.bytes_read
        reader = source.open(split)
        assert list(reader) == [] and reader.stored_bytes == fences


class TestOpaqueSchemas:
    def test_opaque_values_take_the_reference_decode(self, tmp_path):
        pairs = [(KEY.make(i, "k"), Record(OPAQUE, [(i * 37) % 101 - 50,
                                                    f"v{i}"]))
                 for i in range(300)]
        path = _build(str(tmp_path / "opaque.sidx"), KEY, OPAQUE, "a", pairs,
                      block_size=256)
        for rng in (KeyRange(encode_key(FieldType.INT, 3), None),
                    KeyRange(encode_key(FieldType.INT, -7),
                             encode_key(FieldType.INT, 20), False, True)):
            decoded = _assert_matches_oracle(SelectionIndexInput(
                path, [rng], residual=lambda key, value: value.a % 3 != 0),
                OPAQUE, "a", pairs)
            assert decoded and all(type(v) is Record for _k, v in decoded)


def _damaged_index(tmp_path, damage):
    """A 20-block index whose block 7's payload is ``damage``-d in place
    (its framing -- the block's length -- is kept)."""
    pairs = [(KEY.make(i, "k"), VALUE.make(i, i, 0.5, True, "s" * 40, b"b"))
             for i in range(200)]
    path = _build(str(tmp_path / "bad.sidx"), KEY, VALUE, "i", pairs,
                  block_size=512)
    with IndexFileReader(path) as reader:
        blocks = reader.blocks()
    block = blocks[7]
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    # past the block's framing: its payload length and record count
    _payload_len, start = varint.decode_uvarint(raw, block.offset)
    _n_records, start = varint.decode_uvarint(raw, start)
    end = block.offset + block.length
    raw[start:end] = damage(bytes(raw[start:end]))
    with open(path, "wb") as f:
        f.write(raw)
    return path, blocks


class TestDamagedBlocks:
    @pytest.mark.parametrize("damage", [
        lambda body: b"\x7f" + body[1:],          # key length past the record
        lambda body: body[:-3] + b"\x05ab",      # a length past the end
        lambda body: body[:10] + b"\xff" * 11 + body[21:],  # overlong varint
        lambda body: body[:2] + b"\xff" + body[3:],  # a key field overruns
    ])
    def test_raises_the_reference_decode_error(self, tmp_path, damage):
        path, blocks = _damaged_index(tmp_path, damage)
        with IndexFileReader(path) as reader:
            with pytest.raises(Exception) as expected:
                for payload, n in reader.iter_block_payloads([blocks[7]]):
                    list(reader.decode_block(payload, n))
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        reader = source.open(source.splits(1)[0])
        seen = []
        with pytest.raises(Exception) as raised:
            for pair in reader:
                seen.append(pair)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # the damaged block fails whole: map() sees none of its records
        assert len(seen) == reader.records == sum(
            b.n_records for b in blocks[:7])

    def test_damage_outside_the_run_is_never_read(self, tmp_path):
        path, blocks = _damaged_index(tmp_path, lambda body: b"\x7f" + body[1:])
        source = SelectionIndexInput(path, [KeyRange(
            None, encode_key(FieldType.INT, 20))])
        pairs, _stats = _drain(source)
        assert [v.i for _k, v in pairs] == list(range(21))


def test_fence_footer_is_compact(indexes):
    """The footer is the index's interior level: for 8-byte keys, four
    uint32s and two keys a block."""
    with IndexFileReader(indexes["i"]) as reader:
        n_blocks = len(reader.blocks())
        assert reader.bytes_read == 4 + n_blocks * (16 + 2 * 8) + 8
        assert reader.bytes_read < os.path.getsize(indexes["i"]) / 20
