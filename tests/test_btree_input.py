"""A selection index's range scan decodes a leaf at a time.

``SelectionIndexInput`` reads each B+Tree leaf's in-range entries through
the compiled scanner's entry-framed shape, applies the residual to the
leaf, and charges logical bytes over the kept pairs as one column.  The
reference here is the per-entry decode it replaced -- ``Schema.decode``
of each framed entry, ``estimate_size`` of each kept record -- and every
pair, byte, field and skip count must match it, over every field type,
with and without a residual, across ranges spanning many leaves; opaque
schemas take the per-entry decode itself; and a damaged entry raises what
the per-entry decode raises, before ``map()`` sees any record of its leaf.
"""

import random

import pytest

from repro.exceptions import CorruptFileError
from repro.mapreduce.formats import KeyRange, SelectionIndexInput, frame_index_entry
from repro.mapreduce.keyspace import estimate_size
from repro.storage import varint
from repro.storage.btree import BTree, BTreeBuilder
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
N_ROWS = 400


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
            rng.choice([0.5, -0.0, 1e300, float("inf")]), rng.random() < 0.5,
            rng.choice(["", "é" * rng.randrange(80), "x" * 200, f"s{i}"]),
            bytes(rng.randrange(256) for _ in range(rng.randrange(140))))
        yield KEY.make(i, "t" * (i % 150)), value


def _build(path, key_schema, value_schema, pairs, page_size=512):
    """A selection index over ``pairs``, keyed on the pair's position."""
    builder = BTreeBuilder(path, page_size=page_size, metadata={
        "key_schema": key_schema.to_dict(),
        "value_schema": value_schema.to_dict(),
        "key_field": "i",
    })
    for i, (key, value) in enumerate(pairs):
        builder.add(encode_key(FieldType.INT, i // 3),
                    frame_index_entry(key_schema.encode(key),
                                      value_schema.encode(value)))
    builder.finish()
    return path


def _reference(source):
    """The per-entry decode, read off the tree entry by entry."""
    pairs, stats = [], dict(stored=0, logical=0, fields=0, skipped=0)
    for split in source.splits(4):
        rng = split.payload
        with BTree(source.index_path) as tree:
            key_schema = Schema.from_dict(tree.metadata["key_schema"])
            value_schema = Schema.from_dict(tree.metadata["value_schema"])
            for _ikey, framed in tree.scan(rng.lo, rng.hi, rng.lo_inclusive,
                                           rng.hi_inclusive):
                klen, pos = varint.decode_uvarint(framed, 0)
                if pos + klen > len(framed):
                    raise CorruptFileError(
                        f"{source.index_path}: truncated index entry")
                key = key_schema.decode(framed, pos, pos + klen)
                value = value_schema.decode(framed, pos + klen)
                if source.residual is not None \
                        and not source.residual(key, value):
                    stats["skipped"] += 1
                    continue
                stats["logical"] += estimate_size(key) + estimate_size(value)
                stats["fields"] += max(1, len(value.schema.fields))
                pairs.append((key, value))
            stats["stored"] += tree.bytes_read
    return pairs, stats


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


def _assert_matches_reference(source):
    pairs, stats = _drain(source)
    expected_pairs, expected_stats = _reference(source)
    assert stats == expected_stats
    assert pairs == expected_pairs
    assert [repr(p) for p in pairs] == [repr(p) for p in expected_pairs]
    return pairs


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("btree") / "idx.bt")
    return _build(path, KEY, VALUE, list(_rows(random.Random(25))))


RANGES = [
    [KeyRange(None, None)],
    [KeyRange(encode_key(FieldType.INT, 10), encode_key(FieldType.INT, 90))],
    [KeyRange(encode_key(FieldType.INT, 10), encode_key(FieldType.INT, 90),
              lo_inclusive=False, hi_inclusive=False),
     KeyRange(encode_key(FieldType.INT, 120), None)],
    [KeyRange(encode_key(FieldType.INT, 40), encode_key(FieldType.INT, 40))],
    [KeyRange(encode_key(FieldType.INT, 500), None)],
]


class TestLeafDecodeMatchesPerEntryDecode:
    @pytest.mark.parametrize("ranges", RANGES)
    @pytest.mark.parametrize("residual", [
        None,
        lambda key, value: value.b and len(value.s) % 2 == 0,
        lambda key, value: False,
    ])
    def test_every_field_type(self, index_path, ranges, residual):
        source = SelectionIndexInput(index_path, ranges, residual=residual)
        _assert_matches_reference(source)

    def test_ranges_span_several_leaves(self, index_path):
        with BTree(index_path) as tree:
            leaves = [len(values) for values in tree.scan_leaves(
                encode_key(FieldType.INT, 10), encode_key(FieldType.INT, 90))]
        assert len(leaves) > 5
        assert sum(leaves) == 3 * 81

    def test_values_are_slotted_records(self, index_path):
        pairs, _stats = _drain(SelectionIndexInput(index_path, RANGES[1]))
        key, value = pairs[0]
        assert "s" in type(value).__slots__ and "id" in type(key).__slots__
        assert value == VALUE.make(*value.as_tuple())

    def test_opaque_schema_takes_the_per_entry_decode(self, tmp_path):
        pairs = [(KEY.make(i, "k"), Record(OPAQUE, [i - 50, f"v{i}"]))
                 for i in range(120)]
        path = _build(str(tmp_path / "opaque.bt"), KEY, OPAQUE, pairs)
        decoded = _assert_matches_reference(SelectionIndexInput(
            path, [KeyRange(encode_key(FieldType.INT, 3), None)],
            residual=lambda key, value: value.a % 3 != 0))
        assert decoded and all(type(v) is Record for _k, v in decoded)


def _damaged(tmp_path, damage):
    """An index whose entry 7 (of 20, one leaf) is ``damage``-d."""
    pairs = [(KEY.make(i, "k"), VALUE.make(i, i, 0.5, True, "s" * i, b"b"))
             for i in range(20)]
    path = str(tmp_path / "bad.bt")
    builder = BTreeBuilder(path, page_size=1 << 16, metadata={
        "key_schema": KEY.to_dict(), "value_schema": VALUE.to_dict(),
        "key_field": "i"})
    for i, (key, value) in enumerate(pairs):
        framed = frame_index_entry(KEY.encode(key), VALUE.encode(value))
        builder.add(encode_key(FieldType.INT, i),
                    damage(framed) if i == 7 else framed)
    builder.finish()
    return SelectionIndexInput(path, [KeyRange(None, None)])


class TestDamagedEntries:
    @pytest.mark.parametrize("damage", [
        lambda framed: framed[:-3],           # value cut short
        lambda framed: framed + b"\x00",      # trailing byte
        lambda framed: framed[:4],            # cut inside the key
        lambda framed: b"\x7f" + framed[1:],  # key length past the entry
        lambda framed: framed[:-2] + b"\x05b",  # a length past the end
    ])
    def test_raises_the_per_entry_decode_error(self, tmp_path, damage):
        source = _damaged(tmp_path, damage)
        with pytest.raises(Exception) as expected:
            _reference(source)
        reader = source.open(source.splits(1)[0])
        seen = []
        with pytest.raises(Exception) as raised:
            for pair in reader:
                seen.append(pair)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # the damaged leaf fails whole: map() sees none of its records
        assert seen == [] and reader.records == 0
