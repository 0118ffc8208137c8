"""Columnar catalog copies against the row-major copies they replace.

Every rewrite-kind index (projection, projection+delta, delta,
dictionary) is one columnar file (``repro.storage.columnar``).  These
seeded differentials hold it to the row-major files the library writers
still produce for the same records:

* a storage-level differential over every kind, default and 300-byte
  blocks and a spread of read shapes: the same pairs, fields and logical
  bytes from every split, and the same block boundaries;
* ``Manimal.submit`` over a catalog copy against ``run_job`` over the
  source -- outputs byte for byte, on the sequential and the parallel
  runner -- and against ``run_job`` over the row-major copy read with the
  same shape: every integer ``JobMetrics`` field but
  ``map_input_stored_bytes``;
* a corpus of damaged blocks, each raising exactly what the format's
  reference decode raises, with no file left open.

The tables hold INT/LONG values at the int64 edges, NaN and -0.0
doubles, bools, empty and non-ASCII strings and bytes.  A running
difference that leaves int64 is stored plain by the columnar layout and
cannot be written by the row-major delta writer at all; those cases
compare outputs only.
"""

import builtins
import functools
import os
import random

import pytest

from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.core.optimizer import indexgen
from repro.exceptions import CorruptFileError, SerializationError
from repro.mapreduce import (
    ColumnarFileInput,
    DeltaFileInput,
    DictionaryFileInput,
    JobConf,
    LocalJobRunner,
    Mapper,
    ParallelJobRunner,
    ProjectedFileInput,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.service import serialize_rows
from repro.storage import varint
from repro.storage.blockscan import FULL_READ, ReadShape
from repro.storage.columnar import (
    ColumnarFileReader,
    ColumnarFileWriter,
    copy_columns,
)
from repro.storage.columnfile import copy_records
from repro.storage.delta import DeltaFileWriter
from repro.storage.dictionary import DictionaryFileReader, DictionaryFileWriter
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema

WIDE = Schema("Wide", [
    Field("i", FieldType.INT),
    Field("l", FieldType.LONG),
    Field("d", FieldType.DOUBLE),
    Field("b", FieldType.BOOL),
    Field("s", FieldType.STRING),
    Field("t", FieldType.STRING),
    Field("y", FieldType.BYTES),
])
INT64 = (-(1 << 63), (1 << 63) - 1)
TEXTS = ("", "a", "é", "日本語", "naïve café", "\U0001d11e", "x" * 150)
TOPICS = ("alpha", "béta", "", "γάμμα", "delta")
DOUBLES = (float("nan"), -0.0, 0.0, float("inf"), float("-inf"), 1e-300)
SMALL_BLOCK = 300


def _rows(seed, n, edges):
    """``n`` seeded (key, value tuple) rows; ``edges``: ints at int64's."""
    rng = random.Random(seed)

    def integer(lo, hi):
        if edges and rng.random() < 0.15:
            return rng.choice(INT64 + (0, -1))
        return rng.randrange(lo, hi)

    rows = []
    for _ in range(n):
        rows.append((integer(-10**6, 10**6), (
            integer(-300, 300),
            integer(0, 10**12),
            rng.choice(DOUBLES) if rng.random() < 0.3
            else rng.uniform(-1e9, 1e9),
            rng.random() < 0.5,
            rng.choice(TEXTS) + (str(rng.randrange(99)) if rng.random() < 0.5
                                 else ""),
            rng.choice(TOPICS),
            bytes(rng.randrange(256) for _ in range(rng.randrange(12))),
        )))
    return rows


def _write_source(path, rows, block_size=None):
    sized = {} if block_size is None else {"block_size": block_size}
    with RecordFileWriter(path, LONG_SCHEMA, WIDE, **sized) as writer:
        for key, values in rows:
            writer.append(LONG_SCHEMA.make(key), WIDE.make(*values))
    return path


def _blob(value):
    """Byte-level identity of any scanned or emitted value, by the
    service's canonical codec: it keeps NaN payloads and -0.0, which
    ``==`` cannot tell apart, and depends on values only."""
    return serialize_rows([value])


def _pairs(pairs):
    return [_blob((getattr(key, "as_tuple", lambda: repr(key))(),
                   value.as_tuple())) for key, value in pairs]


# -- storage: the same records, blocks and accounting as the row-major copy ---

#: kind -> (stored fields or None for all, codecs)
COPIES = {
    cat.KIND_PROJECTION: (["i", "s", "y"], {}),
    cat.KIND_PROJECTION_DELTA: (["i", "l", "t"], {"i": "delta", "l": "delta"}),
    cat.KIND_DELTA: (None, {"i": "delta", "l": "delta"}),
    cat.KIND_DICTIONARY: (None, {"t": "dict"}),
}


def _copies(tmp_path, kind, source, block_size):
    """(columnar copy, row-major copy or None, row-major input class)."""
    fields, codecs = COPIES[kind]
    stored = WIDE if fields is None else WIDE.project(fields)
    columnar = str(tmp_path / f"{kind}-{block_size}.col")
    row_major = str(tmp_path / f"{kind}-{block_size}.rm")
    deltas = [name for name, codec in codecs.items() if codec == "delta"]
    if deltas:
        writer_class, extra, input_class = DeltaFileWriter, (deltas,), DeltaFileInput
    elif codecs:
        writer_class, extra, input_class = (DictionaryFileWriter, ("t",),
                                            DictionaryFileInput)
    else:
        writer_class, extra, input_class = RecordFileWriter, (), ProjectedFileInput
    with RecordFileReader(source) as reader:
        with ColumnarFileWriter(columnar, LONG_SCHEMA, stored, codecs,
                                block_size=block_size) as writer:
            copy_columns(reader, writer)
        try:
            with writer_class(row_major, LONG_SCHEMA, stored, *extra,
                              block_size=block_size) as writer:
                copy_records(reader, writer,
                             None if fields is None else stored)
        except SerializationError:
            # a running difference outside int64: the row-major delta
            # codec cannot store it
            assert deltas
            return columnar, None, input_class
    return columnar, row_major, input_class


def _drain(source):
    pairs, fields, logical, records = [], 0, 0, 0
    for split in source.splits(3):
        reader = source.open(split)
        pairs += _pairs(reader)
        fields += reader.fields
        logical += reader.logical_bytes
        records += reader.records
    return pairs, fields, logical, records


def _shapes(seed):
    """A seeded spread of read shapes, the four extremes included."""
    rng = random.Random(seed)
    names = WIDE.field_names()
    shapes = {FULL_READ, ReadShape(False, None), ReadShape(True, ()),
              ReadShape(False, ())}
    while len(shapes) < 16:
        fields = tuple(sorted(rng.sample(names, rng.randrange(1, len(names))),
                              key=names.index))
        shapes.add(ReadShape(rng.random() < 0.5, fields))
    return sorted(shapes, key=repr)


@pytest.mark.parametrize("block_size", [None, SMALL_BLOCK])
@pytest.mark.parametrize("kind", sorted(COPIES))
@pytest.mark.parametrize("seed,edges", [(1, False), (2, True)])
def test_copies_scan_like_the_row_major_copy(tmp_path, kind, block_size,
                                             seed, edges):
    rows = _rows(seed, 400, edges)
    source = _write_source(str(tmp_path / "src.rf"), rows)
    sized = block_size or 64 * 1024
    columnar, row_major, input_class = _copies(tmp_path, kind, source, sized)
    with ColumnarFileReader(columnar) as reader:
        blocks = [b.n_records for b in reader.blocks()]
        stored = reader.stored_schema
    assert sum(blocks) == len(rows)
    if row_major is None:
        # no row-major twin: the copy reads back as the source's records
        fields = COPIES[kind][0] or WIDE.field_names()
        expected = [_blob(((key,), tuple(values[WIDE.field_names().index(f)]
                                         for f in fields)))
                    for key, values in rows]
        assert _drain(ColumnarFileInput(columnar))[0] == expected
        return
    with input_class.reader_class(row_major) as reader:
        assert [b.n_records for b in reader.blocks()] == blocks
        assert reader.stored_schema == stored
    for shape in _shapes(seed):
        if shape.fields is not None and not set(shape.fields) <= set(
                stored.field_names()):
            continue
        got = _drain(ColumnarFileInput(columnar).with_shape(shape))
        assert got == _drain(input_class(row_major).with_shape(shape)), shape


def test_dictionary_codes_follow_first_appearance(tmp_path):
    rows = _rows(3, 200, False)
    source = _write_source(str(tmp_path / "src.rf"), rows)
    columnar, row_major, _ = _copies(tmp_path, cat.KIND_DICTIONARY, source,
                                     SMALL_BLOCK)
    with ColumnarFileReader(columnar) as built, \
            DictionaryFileReader(row_major) as expected:
        assert built.dictionary() == expected.dictionary()
        table = built.dictionary()
        decoded = [table[value.t] for _key, value in built.iter_records()]
    assert decoded == [values[5] for _key, values in rows]


# -- the optimizer's copies, end to end -------------------------------------------


class TextMapper(Mapper):
    """Reads ``i`` and ``s``, never its key."""

    def map(self, key, value, ctx):
        ctx.emit(value.s, value.i)


class KeyedMapper(Mapper):
    """Reads its key, ``l`` and ``y``."""

    def map(self, key, value, ctx):
        ctx.emit(key, (value.l, value.y))


class WholeMapper(Mapper):
    """Reads the whole value, never its key."""

    def map(self, key, value, ctx):
        ctx.emit(value.b, value)


class IdentityMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


class TopicMapper(Mapper):
    """``t`` is only ever a group key: direct operation on its codes."""

    def map(self, key, value, ctx):
        ctx.emit(value.t, value.i)


class MaxReducer(Reducer):
    """``max``: a sum of int64-edge values would leave int64."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


class AnonymousMaxReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(None, max(values))


#: (kind, mapper, reducer, the read shape the analyzer proves)
PROGRAMS = [
    (cat.KIND_PROJECTION, TextMapper, MaxReducer, ReadShape(False, ("i", "s"))),
    (cat.KIND_PROJECTION, KeyedMapper, None, ReadShape(True, ("l", "y"))),
    (cat.KIND_PROJECTION_DELTA, TextMapper, MaxReducer,
     ReadShape(False, ("i", "s"))),
    (cat.KIND_PROJECTION_DELTA, KeyedMapper, None, ReadShape(True, ("l", "y"))),
    (cat.KIND_DELTA, WholeMapper, None, ReadShape(False, None)),
    (cat.KIND_DELTA, IdentityMapper, None, FULL_READ),
    (cat.KIND_DICTIONARY, TopicMapper, AnonymousMaxReducer,
     ReadShape(False, ("i", "t"))),
]

#: the row-major copy a parent commit's catalog held for each kind
ROW_MAJOR = {
    cat.KIND_PROJECTION: ProjectedFileInput,
    cat.KIND_PROJECTION_DELTA: DeltaFileInput,
    cat.KIND_DELTA: DeltaFileInput,
    cat.KIND_DICTIONARY: DictionaryFileInput,
}


def _row_major_twin(tmp_path, entry, block_size):
    """The row-major copy ``entry``'s columnar file replaces, or None."""
    sized = {} if block_size is None else {"block_size": block_size}
    path = str(tmp_path / (os.path.basename(entry.index_path) + ".rm"))
    with RecordFileReader(entry.source_path) as reader:
        stored = reader.value_schema
        if entry.value_fields is not None:
            stored = stored.project(entry.value_fields)
        if entry.delta_fields:
            writer = DeltaFileWriter(path, LONG_SCHEMA, stored,
                                     entry.delta_fields, **sized)
        elif entry.dict_field:
            writer = DictionaryFileWriter(path, LONG_SCHEMA, stored,
                                          entry.dict_field, **sized)
        else:
            writer = RecordFileWriter(path, LONG_SCHEMA, stored, **sized)
        try:
            with writer:
                copy_records(reader, writer,
                             None if entry.value_fields is None else stored)
        except SerializationError:
            return None
    return path


def _integer_metrics(result):
    # stored bytes are the layout's; batch_map_tasks says which path
    # served a task (an analyzer-described map() takes the batch path)
    return {name: value for name, value in result.metrics.to_dict().items()
            if type(value) is int
            and name not in ("map_input_stored_bytes", "batch_map_tasks")}


@pytest.fixture(scope="module")
def parallel():
    return ParallelJobRunner(2)


@pytest.mark.parametrize("block_size", [None, SMALL_BLOCK])
@pytest.mark.parametrize("kind,mapper,reducer,shape", PROGRAMS,
                         ids=[f"{p[0]}-{p[1].__name__}" for p in PROGRAMS])
@pytest.mark.parametrize("seed,edges", [(11, False), (12, True)])
def test_submit_over_a_copy_equals_the_source_run(
        tmp_path, monkeypatch, parallel, kind, mapper, reducer, shape,
        block_size, seed, edges):
    if block_size is not None:
        monkeypatch.setattr(indexgen, "ColumnarFileWriter", functools.partial(
            ColumnarFileWriter, block_size=block_size))
    rows = _rows(seed, 300, edges)
    source = _write_source(str(tmp_path / "src.rf"), rows, block_size)
    job = JobConf(name=f"columnar-{kind}", mapper=mapper, reducer=reducer,
                  inputs=[RecordFileInput(source)])
    system = Manimal(str(tmp_path / "cat"))
    [entry] = system.build_indexes(job, allowed_kinds=[kind])
    assert entry.index_path.endswith(cat.COLUMNAR_SUFFIX)
    twin = _row_major_twin(tmp_path, entry, block_size)
    for runner in (LocalJobRunner(), parallel):
        outcome = system.submit(job, runner=runner)
        [plan] = outcome.descriptor.plans
        assert plan.entry is not None and plan.entry.index_id == entry.index_id
        assert isinstance(plan.chosen, ColumnarFileInput)
        assert plan.chosen.shape == shape
        brute = run_job(job, runner=runner)
        assert sorted(map(_blob, outcome.result.outputs)) == sorted(
            map(_blob, brute.outputs))
        if twin is None:
            assert edges and entry.delta_fields
            continue
        before = job.with_inputs([ROW_MAJOR[kind](twin).with_shape(shape)])
        assert _integer_metrics(outcome.result) == _integer_metrics(
            run_job(before, runner=runner))


def test_every_read_shape_is_exercised():
    shapes = {shape for *_program, shape in PROGRAMS}
    assert {(s.decode_keys, s.fields is None) for s in shapes} == {
        (True, True), (True, False), (False, True), (False, False)}


def test_explain_names_the_layout_and_codecs(tmp_path):
    from repro.explain import explain_job

    source = _write_source(str(tmp_path / "src.rf"), _rows(5, 50, False))
    job = JobConf(name="explained", mapper=TextMapper, reducer=MaxReducer,
                  inputs=[RecordFileInput(source)])
    catalog_dir = str(tmp_path / "cat")
    Manimal(catalog_dir).build_indexes(
        job, allowed_kinds=[cat.KIND_PROJECTION_DELTA])
    text = explain_job(job, catalog_dir=catalog_dir)
    assert "decode: columnar, key skipped; 2/2 columns [i, s] (delta: i)" in text


# -- damaged blocks ------------------------------------------------------------------


def _segments(payload):
    """(prefix offset, start, end) of each segment of a block payload."""
    _logical, pos = varint.decode_uvarint(payload, 0, len(payload))
    out = []
    while pos < len(payload):
        length, start = varint.decode_uvarint(payload, pos, len(payload))
        out.append((pos, start, start + length))
        pos = start + length
    return out


def _truncate_segment(payload, segments):
    prefix, start, end = segments[-1]
    raw = varint.encode_uvarint(end - start + 5)
    return payload[:prefix] + raw + payload[start:]


def _bad_width(payload, segments):
    _prefix, start, _end = segments[1 + WIDE.field_names().index("i")]
    return payload[:start] + b"\x03" + payload[start + 1:]


def _lengths_off(payload, segments):
    _prefix, start, _end = segments[1 + WIDE.field_names().index("s")]
    assert payload[start] == 1  # one-byte lengths
    return payload[:start + 1] + bytes(((payload[start + 1] + 1) % 128,)) \
        + payload[start + 2:]


def _bad_utf8(payload, segments):
    _prefix, start, end = segments[1 + WIDE.field_names().index("s")]
    return payload[:end - 1] + b"\xff" + payload[end:]


DAMAGE = {"truncated segment": _truncate_segment, "bad width": _bad_width,
          "lengths not summing to the blob": _lengths_off,
          "bad UTF-8": _bad_utf8}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_blocks_raise_the_reference_error(tmp_path, monkeypatch,
                                                  damage):
    rows = [(k, (k, k * 3, 0.5, True, f"s{k}", "t", b"y")) for k in range(40)]
    path = str(tmp_path / "c.col")
    with ColumnarFileWriter(path, LONG_SCHEMA, WIDE) as writer:
        for key, values in rows:
            writer.append(LONG_SCHEMA.make(key), WIDE.make(*values))
    with ColumnarFileReader(path) as reader:
        [block] = reader.blocks()
    with open(path, "rb") as f:
        data = f.read()
    _length, at = varint.decode_uvarint(data, block.offset, len(data))
    n_records, at = varint.decode_uvarint(data, at, len(data))
    end = block.offset + block.length
    payload = DAMAGE[damage](data[at:end], _segments(data[at:end]))
    framed = (data[:block.offset] + varint.encode_uvarint(len(payload))
              + varint.encode_uvarint(n_records) + payload)
    with open(path, "wb") as f:  # the footer, then the pointer to it
        f.write(framed + data[end:-8] + len(framed).to_bytes(8, "little"))
    with ColumnarFileReader(path) as reader:
        [(raw, n)] = list(reader.iter_block_payloads())
        with pytest.raises(CorruptFileError) as reference:
            list(reader.decode_block(raw, n))

    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(builtins, "open", spy)
    source = ColumnarFileInput(path)
    for split in source.splits(1):
        with pytest.raises(CorruptFileError) as scanned:
            list(source.open(split))
        assert str(scanned.value) == str(reference.value)
    monkeypatch.undo()
    assert opened and all(handle.closed for handle in opened)


def test_a_fluent_stage_on_a_copy_stays_batched(tmp_path):
    from repro import Session, col

    source = _write_source(str(tmp_path / "src.rf"), _rows(7, 300, True))
    with Session(catalog_dir=str(tmp_path / "cat")) as session:
        def query():
            return session.read(source).filter(col("l") > 10**11) \
                .select("l", "s", "d")

        brute = query().run()
        query().run(build_indexes=True, allowed_kinds=[cat.KIND_PROJECTION_DELTA])
        explained = query().explain()
        assert "projection+delta via columnar-scan(" in explained
        assert "input[0] batch: 1 predicate(s), emit ($key, " in explained
        for parallelism in (None, 2):
            served = query().run(parallelism=parallelism)
            [stage] = served.stages
            metrics = stage.outcome.result.metrics
            assert metrics.batch_map_tasks == metrics.map_tasks > 0
            assert _blob(served.rows) == _blob(brute.rows)
