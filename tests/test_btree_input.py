"""A selection index's range scan is a columnar read of its fenced run.

A selection index is a sorted columnar copy: the original (key, value)
pairs sorted on the indexed field.  A range bisects the copy's fences
into one contiguous run of blocks, and the one block scan -- the record
path's split readers and the batch path's column batches alike -- drops
the out-of-range rows of the two edge blocks and the rows failing the
residual.  The oracle here is the source itself: its pairs sorted
(stably) on the indexed field's order key and filtered by the range and
the residual.  Every pair and skip count must match it -- over every key
field type, ranges spanning many blocks, duplicate keys straddling block
boundaries under each inclusive/exclusive bound, open bounds, empty
ranges and an empty index -- every byte charge must be the run's whole
blocks, and every field charge the delivered rows' captured width.  A
damaged block raises what the copy's reference decode raises, before
``map()`` sees any of its records.  Through ``Manimal.submit``, the
batch path and the record path over index splits agree on every output
and on ``map_input_records`` and ``records_skipped``.
"""

import random
import shutil

import pytest

from repro import JobConf, Manimal, Mapper, RecordFileInput, run_job
from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.predicates import compile_selection
from repro.mapreduce.formats import KeyRange, SelectionIndexInput
from repro.mapreduce.keyspace import estimate_size
from repro.storage import varint
from repro.storage.blockscan import FULL_READ
from repro.storage.columnar import ENCODED, ColumnarFileReader
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import (
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
    register_opaque_schema,
)
from tests.conftest import Residual, write_sorted_index

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
    return write_sorted_index(path, key_schema, value_schema, field, pairs,
                              block_size)


def _oracle(source, schema, field, pairs):
    """The filtered, order-key-sorted scan of the source; and the charges
    of each range's whole run of blocks, off the copy's reference decode,
    with every delivered row's fields."""
    out, stats = [], dict(stored=0, logical=0, fields=0, skipped=0)
    ordered = _sorted(schema, field, pairs)
    for rng in source.ranges:
        for key, value in ordered:
            if not rng.admits(_order_key(schema, field, value)):
                continue
            if source.residual is not None \
                    and not source.residual.evaluate(key, value):
                stats["skipped"] += 1
                continue
            out.append((key, value))
            stats["fields"] += len(value.schema.fields)
        with ColumnarFileReader(source.path) as reader:
            blocks = reader.range_blocks(rng.lo, rng.hi, rng.lo_inclusive,
                                         rng.hi_inclusive)
            for payload, n in reader.iter_block_payloads(blocks):
                for key, value in reader.decode_block(payload, n):
                    stats["logical"] += estimate_size(key) + estimate_size(value)
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
    return {field: _build(str(root / f"{field}.col"), KEY, VALUE, field,
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
    Residual(lambda key, value: value.b and len(value.s) % 2 == 0),
    Residual(lambda key, value: False),
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
        with ColumnarFileReader(indexes["i"]) as reader:
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

    def test_one_split_per_range(self, indexes, monkeypatch, tmp_path):
        """... and the copy's footer is read once for all of them."""
        # a fresh file: no earlier scan of this copy has read its fences
        path = shutil.copy(indexes["i"], tmp_path / "fresh.col")
        reads = []
        read_fences = ColumnarFileReader._read_fences
        monkeypatch.setattr(ColumnarFileReader, "_read_fences",
                            lambda reader: reads.append(1)
                            or read_fences(reader))
        ranges = [KeyRange(None, encode_key(FieldType.INT, -50)),
                  KeyRange(encode_key(FieldType.INT, 900), None),
                  KeyRange(encode_key(FieldType.INT, 0), None)]
        assert len(SelectionIndexInput(str(path), ranges).splits(1)) == 3
        assert len(reads) == 1

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
        path = _build(str(tmp_path_factory.mktemp("dups") / "d.col"),
                      KEY, VALUE, "i", pairs, block_size=128)
        with ColumnarFileReader(path) as reader:
            _blocks, keys = reader.fences()
            firsts, lasts = keys[0::2], keys[1::2]
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
        path = _build(str(tmp_path / "e.col"), KEY, VALUE, "i", [])
        source = SelectionIndexInput(path, [KeyRange(None, None)])
        pairs, stats = _drain(source)
        assert pairs == [] and stats["skipped"] == 0
        with ColumnarFileReader(path) as reader:
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
        assert split.payload.blocks == []
        reader = source.open(split)
        assert list(reader) == [] and reader.stored_bytes == 0


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


class TestOpaqueSchemas:
    def test_opaque_values_take_the_reference_decode(self, tmp_path):
        """An opaque value schema is stored as the sorted field and each
        value's own encoding, and read back through the schema's decoder."""
        pairs = [(KEY.make(i, "k"), Record(OPAQUE, [(i * 37) % 101 - 50,
                                                    f"v{i}"]))
                 for i in range(300)]
        path = _build(str(tmp_path / "opaque.col"), KEY, OPAQUE, "a", pairs,
                      block_size=256)
        with ColumnarFileReader(path) as reader:
            assert reader.value_schema is OPAQUE
            assert reader.stored_schema.field_names() == ["a", ENCODED]
            assert reader.scanner(FULL_READ) is None
            assert len(reader.blocks()) > 5
        for rng in (KeyRange(encode_key(FieldType.INT, 3), None),
                    KeyRange(encode_key(FieldType.INT, -7),
                             encode_key(FieldType.INT, 20), False, True)):
            decoded = _assert_matches_oracle(SelectionIndexInput(
                path, [rng], residual=Residual(
                    lambda key, value: value.a % 3 != 0)),
                OPAQUE, "a", pairs)
            assert decoded and all(type(v) is Record for _k, v in decoded)


def _segment_at(body):
    """Where the first column segment's length, and its bytes, start."""
    _logical, at = varint.decode_uvarint(body, 0, len(body))
    _length, start = varint.decode_uvarint(body, at, len(body))
    return at, start


def _damaged_index(tmp_path, damage):
    """A 20-block index whose block 7's payload is ``damage``-d in place
    (its framing -- the block's length -- is kept)."""
    pairs = [(KEY.make(i, "k"), VALUE.make(i, i, 0.5, True, "s" * 40, b"b"))
             for i in range(200)]
    path = _build(str(tmp_path / "bad.col"), KEY, VALUE, "i", pairs,
                  block_size=512)
    with ColumnarFileReader(path) as reader:
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


def _grow_first_segment(body):
    at, _start = _segment_at(body)
    return body[:at] + bytes([body[at] + 1]) + body[at + 1:]


def _bad_width_tag(body):
    _at, start = _segment_at(body)
    return body[:start] + b"\x03" + body[start + 1:]


class TestDamagedBlocks:
    @pytest.mark.parametrize("damage", [
        _grow_first_segment,                      # a segment overruns
        _bad_width_tag,                           # no such integer width
        lambda body: b"\xff" * 11 + body[11:],    # overlong varint
    ])
    def test_raises_the_reference_decode_error(self, tmp_path, damage):
        path, blocks = _damaged_index(tmp_path, damage)
        with ColumnarFileReader(path) as reader:
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
        path, blocks = _damaged_index(tmp_path, _bad_width_tag)
        source = SelectionIndexInput(path, [KeyRange(
            None, encode_key(FieldType.INT, 20))])
        pairs, _stats = _drain(source)
        assert [v.i for _k, v in pairs] == list(range(21))


def test_fence_footer_is_compact(indexes):
    """The footer is the index's interior level: for 8-byte keys, two
    length-prefixed keys and at most four bytes of directory a block
    (its length and record count), plus framing and the pointer -- and
    it describes the blocks as the block walk does."""
    with ColumnarFileReader(indexes["i"]) as reader:
        blocks = reader.blocks()
        footer = reader.file_size() - reader._data_end
        assert footer <= len(blocks) * (2 * (1 + 8) + 4) + 24
        fenced, _keys = reader.fences()
        assert [(b.offset, b.length, b.n_records) for b in fenced] == \
            [(b.offset, b.length, b.n_records) for b in blocks]
        assert footer < reader.file_size() / 20


# -- the batch path and the record path over index splits ---------------------

SOURCE = Schema("IndexedRows", [
    Field("i", FieldType.INT),
    Field("s", FieldType.STRING),
    Field("pad", FieldType.STRING),
])


class ResidualMapper(Mapper):
    """``i`` is indexable; ``s != 'x'`` is the residual's conjunct."""

    def map(self, key, value, ctx):
        if value.i > 40 and value.s != "x":
            ctx.emit(value.s, value.i)


class ExactMapper(Mapper):
    """``40 < i <= 90`` is all interval atoms on ``i``: the range implies
    it, so the plan keeps no residual."""

    def map(self, key, value, ctx):
        if value.i > 40 and value.i <= 90:
            ctx.emit(value.s, value.i)


#: (mapper, whether its plan's range implies the formula, the formula)
PLANS = {
    "residual": (ResidualMapper, False,
                 lambda value, text: value > 40 and text != "x"),
    "exact": (ExactMapper, True, lambda value, text: 40 < value <= 90),
}


class TestBatchAndRecordPathsOverIndexSplits:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_same_rows_counters_and_skips(self, tmp_path, plan):
        mapper, exact, keeps = PLANS[plan]
        rng = random.Random(7)
        path = str(tmp_path / "rows.rf")
        rows = [(i, rng.randrange(100), rng.choice("xyz"))
                for i in range(3000)]
        with RecordFileWriter(path, KEY, SOURCE) as writer:
            for i, value, text in rows:
                writer.append(KEY.make(i, "k"),
                              SOURCE.make(value, text, "p" * 30))
        job = JobConf(name=plan, mapper=mapper, reducer=None,
                      inputs=[RecordFileInput(path)])
        system = Manimal(str(tmp_path / "cat"))
        system.build_indexes(job, allowed_kinds=[cat.KIND_SELECTION])
        descriptor = system.plan(job)
        source = descriptor.plans[0].chosen
        assert isinstance(source, SelectionIndexInput)
        assert (source.residual is None) == exact
        assert ("residual implied" in descriptor.describe()) == exact
        # the range's low edge falls inside a block: that block holds
        # rows on both sides of it
        [run] = [split.payload.blocks for split in source.splits(1)]
        with ColumnarFileReader(source.path) as reader:
            [(payload, n)] = reader.iter_block_payloads(run[:1])
            edge = {v.i > 40 for _k, v in reader.decode_block(payload, n)}
        assert edge == {True, False}

        batched = descriptor.apply(job)
        assert batched.batch_specs
        record = descriptor.apply(job)
        record.batch_specs.clear()
        batch_result, record_result = run_job(batched), run_job(record)
        assert batch_result.metrics.batch_map_tasks > 0
        assert record_result.metrics.batch_map_tasks == 0
        assert batch_result.outputs == record_result.outputs
        assert sorted(batch_result.outputs) == sorted(run_job(job).outputs)
        in_range = [(value, text) for _i, value, text in rows
                    if value > 40 and (not exact or value <= 90)]
        kept = [row for row in in_range if keeps(*row)]
        assert (len(kept) < len(in_range)) != exact
        for result in (batch_result, record_result):
            metrics = result.metrics
            assert metrics.map_input_records == len(kept)
            assert metrics.records_skipped == len(in_range) - len(kept)
            assert metrics.map_output_records == metrics.map_input_records


class _Between(Mapper):
    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def map(self, key, value, ctx):
        if value.f >= self.lo and value.f <= self.hi:
            ctx.emit(value.f, 1)


@pytest.mark.parametrize("ftype, lo, hi, exact", [
    (FieldType.INT, 3, 9, True),
    (FieldType.LONG, -5, 5, True),
    (FieldType.STRING, "b", "m", True),
    # a NaN sorts inside a range that >= and <= reject
    (FieldType.DOUBLE, 0.5, 2.5, False),
])
def test_a_range_implies_only_exact_interval_atoms(ftype, lo, hi, exact):
    schema = Schema("Between", [Field("f", ftype)])
    ia = ManimalAnalyzer().analyze_mapper(_Between(lo, hi), None, schema)
    plan = compile_selection(ia.selection.formula, schema, "f")
    assert plan.exact == exact
    assert (plan.residual is None) == exact


MEASURED = Schema("MeasuredRows", [
    Field("i", FieldType.INT),
    Field("d", FieldType.DOUBLE),
])


class NanResidualMapper(Mapper):
    """``i`` is indexable; ``d >= 0.0`` -- false for a NaN, true for
    ``-0.0`` -- is the residual's conjunct."""

    def map(self, key, value, ctx):
        if value.i > 40 and value.d >= 0.0:
            ctx.emit(value.i, value.d)


def test_nan_and_negative_zero_in_the_residual(tmp_path):
    """A NaN fails the residual and a ``-0.0`` passes it, on both paths;
    neither moves a fence, which holds only the indexed field."""
    rng = random.Random(11)
    path = str(tmp_path / "measured.rf")
    doubles = [float("nan"), -0.0, 0.0, 0.25, -1.5]
    rows = [(rng.randrange(100), rng.choice(doubles)) for _ in range(2000)]
    with RecordFileWriter(path, KEY, MEASURED) as writer:
        for n, (i, d) in enumerate(rows):
            writer.append(KEY.make(n, "k"), MEASURED.make(i, d))
    job = JobConf(name="measured", mapper=NanResidualMapper, reducer=None,
                  inputs=[RecordFileInput(path)])
    system = Manimal(str(tmp_path / "cat"))
    system.build_indexes(job, allowed_kinds=[cat.KIND_SELECTION])
    descriptor = system.plan(job)
    assert isinstance(descriptor.plans[0].chosen, SelectionIndexInput)
    record = descriptor.apply(job)
    record.batch_specs.clear()
    batch_result = run_job(descriptor.apply(job))
    record_result = run_job(record)
    assert batch_result.metrics.batch_map_tasks > 0
    assert repr(batch_result.outputs) == repr(record_result.outputs)
    assert sorted(map(repr, batch_result.outputs)) == sorted(
        map(repr, run_job(job).outputs))
    in_range = [d for i, d in rows if i > 40]
    kept = [d for d in in_range if d >= 0.0]
    assert any(repr(d) == "-0.0" for _i, d in batch_result.outputs)
    for result in (batch_result, record_result):
        assert result.metrics.map_input_records == len(kept)
        assert result.metrics.records_skipped == len(in_range) - len(kept)
