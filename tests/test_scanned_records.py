"""Scanned records: what every block-file read hands ``map()``.

A block scan builds one slotted :class:`Record` subclass per field list
(:func:`scanned_class`) with every field slot filled from the scanner's
columns (:func:`build_records`).  These tests pin the contract: a
scanned record is observationally a plain :class:`Record` -- values,
equality, hashing, the shuffle's lenses, pickling -- and every input,
projections included, charges ``fields_deserialized`` as stored width
times records.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import FieldNotPresentError, SerializationError
from repro.mapreduce import (
    JobConf,
    Mapper,
    ProjectedFileInput,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.mapreduce.keyspace import estimate_size, sort_key, stable_hash
from repro.storage.columnfile import build_projection
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    ScannedRecord,
    Schema,
    build_records,
    register_opaque_schema,
    scanned_class,
)

UV = Schema(
    "UV",
    [
        Field("ip", FieldType.STRING),
        Field("date", FieldType.LONG),
        Field("revenue", FieldType.INT),
        Field("score", FieldType.DOUBLE),
        Field("active", FieldType.BOOL),
        Field("blob", FieldType.BYTES),
    ],
)

uv_values = st.tuples(
    st.text(max_size=40),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    st.floats(allow_nan=False),
    st.booleans(),
    st.binary(max_size=40),
)


def _scanned(values):
    """The record a block scan builds for one row of ``UV``."""
    [record] = build_records(UV, [[v] for v in values], 1)
    return record


class TestScannedRecordIsARecord:
    @given(uv_values)
    def test_values_equality_hash_and_bytes(self, values):
        scanned, plain = _scanned(values), UV.make(*values)
        assert type(scanned) is scanned_class(UV)
        assert isinstance(scanned, ScannedRecord)
        assert scanned.as_tuple() == plain.as_tuple()
        assert scanned == plain and plain == scanned
        assert hash(scanned) == hash(plain)
        assert UV.encode(scanned) == UV.encode(plain)
        for field in UV.fields:
            assert getattr(scanned, field.name) == getattr(plain, field.name)

    @given(uv_values)
    def test_shuffle_view_matches(self, values):
        # The shuffle's three lenses on a key -- sort order, partition
        # hash, size estimate -- agree with a plain record's.
        scanned, plain = _scanned(values), UV.make(*values)
        assert sort_key(scanned) == sort_key(plain)
        assert stable_hash(scanned) == stable_hash(plain)
        assert estimate_size(scanned) == estimate_size(plain)

    @given(uv_values)
    def test_every_field_type_roundtrips_through_a_file_scan(self, values):
        import os
        import shutil
        import tempfile

        tmp = tempfile.mkdtemp(prefix="scanned-rt-")
        try:
            path = os.path.join(tmp, "uv.rf")
            with RecordFileWriter(path, LONG_SCHEMA, UV) as w:
                w.append(LONG_SCHEMA.make(0), UV.make(*values))
            with RecordFileReader(path) as reader:
                [reference] = list(reader.iter_records())
            source = RecordFileInput(path)
            [scanned] = list(source.open(source.splits(1)[0]))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        assert isinstance(scanned[1], ScannedRecord)
        assert scanned == reference
        assert UV.encode(scanned[1]) == UV.encode(reference[1])

    def test_pickles_to_its_scanned_class(self):
        scanned = _scanned(("a", 1, 2, 3.0, True, b"xy"))
        clone = pickle.loads(pickle.dumps(scanned))
        assert type(clone) is type(scanned) is scanned_class(UV)
        assert clone == scanned
        assert clone.schema is UV or clone.schema.to_dict() == UV.to_dict()
        assert [getattr(clone, f.name) for f in UV.fields] == \
            list(scanned.as_tuple())

    def test_unpickles_as_a_record_without_a_scanned_class(self):
        from repro.storage.serialization import _unpickle_scanned

        dunder = Schema("Dunder", [Field("__x", FieldType.INT)])
        clone = _unpickle_scanned(dunder, (1,))
        assert type(clone) is Record and clone.as_tuple() == (1,)
        with pytest.raises(SerializationError):
            _unpickle_scanned(UV, ("a", 1))

    def test_record_api_surface(self):
        record = UV.make("a", 1, 2, 3.0, True, b"xy")
        scanned = _scanned(record.as_tuple())
        assert scanned.get("ip") == "a"
        assert scanned.get("nope", 7) == 7
        assert scanned.to_dict() == record.to_dict()
        assert scanned.replace(revenue=9) == record.replace(revenue=9)
        assert repr(scanned) == repr(record)
        with pytest.raises(FieldNotPresentError):
            scanned.nope

    def test_one_class_per_field_list(self):
        # the class is keyed on field names alone: schemas that share
        # them share it, and equality still tells the schemas apart
        twin = Schema("Twin", [Field(f.name, FieldType.STRING)
                               for f in UV.fields])
        assert scanned_class(twin) is scanned_class(UV)
        assert scanned_class(Schema("One", [Field("ip", FieldType.STRING)])) \
            is not scanned_class(UV)
        assert scanned_class(Schema("Dunder", [Field("__x",
                                                     FieldType.INT)])) is None
        [mine] = build_records(UV, [["a"], ["b"], ["c"], ["d"], ["e"],
                                    ["f"]], 1)
        [theirs] = build_records(twin, [["a"], ["b"], ["c"], ["d"], ["e"],
                                        ["f"]], 1)
        assert type(mine) is type(theirs)
        assert mine.schema is UV and theirs.schema is twin
        assert mine != theirs

    def test_immutable_and_a_field_read_is_a_slot_read(self):
        scanned = _scanned(("a", 1, 2, 3.0, True, b"xy"))
        assert type(scanned).ip.__get__(scanned) == scanned.ip == "a"
        with pytest.raises(SerializationError):
            scanned.ip = "mutate"
        with pytest.raises(SerializationError):
            scanned.nope = 1
        assert scanned.ip == "a"


def _write_uservisits_like(path, n=60):
    schema = Schema(
        "Visit",
        [
            Field("ip", FieldType.STRING),
            Field("date", FieldType.LONG),
            Field("agent", FieldType.STRING),
            Field("revenue", FieldType.INT),
        ],
    )
    with RecordFileWriter(path, LONG_SCHEMA, schema) as w:
        for i in range(n):
            w.append(
                LONG_SCHEMA.make(i),
                schema.make(f"ip{i % 7}", i, f"agent-{i}", i * 3),
            )
    return schema


def _pack(record):
    return f"{record.a}|{record.b}".encode()


def _unpack(schema, raw):
    a, b = raw.decode().split("|")
    return Record(schema, [int(a), b])


OPAQUE = register_opaque_schema(OpaqueSchema(
    "ScannedOpaque", [Field("a", FieldType.INT), Field("b", FieldType.STRING)],
    encoder=_pack, decoder=_unpack))


class DateFilterMapper(Mapper):
    """Touches `date` always, `ip`/`revenue` only for passing records."""

    def __init__(self, cutoff):
        self.cutoff = cutoff

    def map(self, key, value, ctx):
        if value.date < self.cutoff:
            ctx.emit(value.ip, value.revenue)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class TestProjectedPathMetrics:
    def test_fields_deserialized_is_stored_width_times_records(self, tmp_path):
        path = str(tmp_path / "visits.rf")
        schema = _write_uservisits_like(path, n=60)
        projected = str(tmp_path / "visits.proj")
        build_projection(path, projected, ["ip", "date", "revenue"])

        def conf(source):
            return JobConf(
                name="selscan",
                mapper=DateFilterMapper(20),
                reducer=SumReducer,
                inputs=[source],
            )

        full = run_job(conf(RecordFileInput(path)))
        narrow = run_job(conf(ProjectedFileInput(projected)))
        assert narrow.outputs == full.outputs
        # every stored field of every record, whatever map() reads
        assert full.metrics.fields_deserialized == 60 * len(schema.fields)
        assert narrow.metrics.fields_deserialized == 60 * 3
        assert (narrow.metrics.map_input_logical_bytes
                < full.metrics.map_input_logical_bytes)

    def test_fields_deserialized_does_not_depend_on_what_map_reads(
            self, tmp_path):
        path = str(tmp_path / "visits.rf")
        schema = _write_uservisits_like(path, n=30)

        class ReadsNothing(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(0, 1)

        class ReadsEverything(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value.ip, len(value.as_tuple()))

        counts = {
            run_job(JobConf(name="reads", mapper=mapper, reducer=SumReducer,
                            inputs=[source])).metrics.fields_deserialized
            for mapper in (ReadsNothing, DateFilterMapper(10),
                           ReadsEverything)
            for source in (RecordFileInput(path), ProjectedFileInput(path))
        }
        assert counts == {30 * len(schema.fields)}

    def test_an_opaque_value_schema_reads_plain_records_at_full_width(
            self, tmp_path):
        path = str(tmp_path / "opaque.rf")
        with RecordFileWriter(path, LONG_SCHEMA, OPAQUE) as w:
            for i in range(25):
                w.append(LONG_SCHEMA.make(i), Record(OPAQUE, [i, f"s{i}"]))

        class TypeMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(type(value).__name__, value.a)

        result = run_job(JobConf(name="opaque", mapper=TypeMapper,
                                 reducer=SumReducer,
                                 inputs=[ProjectedFileInput(path)]))
        assert dict(result.outputs) == {"Record": sum(range(25))}
        assert result.metrics.fields_deserialized == 25 * 2

    def test_parallel_runner_identical_on_the_projected_path(self, tmp_path):
        path = str(tmp_path / "visits.rf")
        _write_uservisits_like(path, n=60)
        base = JobConf(
            name="selscan-par",
            mapper=DateFilterMapper(30),
            reducer=SumReducer,
            inputs=[ProjectedFileInput(path)],
        )
        seq = run_job(base, runner="local")
        par = run_job(base, runner=2)
        assert par.outputs == seq.outputs
        assert par.counters.to_dict() == seq.counters.to_dict()
        seq_m, par_m = seq.metrics.to_dict(), par.metrics.to_dict()
        # wall clocks and physical spill bytes are scheduling-path
        # observables, excluded from the cross-runner identity contract
        for skip in ("wall_seconds", "shuffle_bytes_spilled",
                     "shuffle_bytes_merged", "shared_scan_groups",
                     "scans_saved", "shared_bytes_saved"):
            seq_m.pop(skip), par_m.pop(skip)
        assert par_m == seq_m

    def test_scanned_records_survive_spill_as_shuffle_values(self, tmp_path):
        # A mapper that forwards the scanned record itself is
        # byte-identical across runners (spill pickling yields a Record).
        path = str(tmp_path / "visits.rf")
        _write_uservisits_like(path, n=40)

        class ForwardMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(value.ip, value)

        class CountReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, sum(v.revenue for v in values))

        base = JobConf(
            name="forward",
            mapper=ForwardMapper,
            reducer=CountReducer,
            inputs=[ProjectedFileInput(path)],
        )
        seq = run_job(base, runner="local")
        par = run_job(base, runner=2)
        assert par.outputs == seq.outputs
        assert seq.metrics.fields_deserialized == 40 * 4
        assert par.metrics.fields_deserialized == 40 * 4
