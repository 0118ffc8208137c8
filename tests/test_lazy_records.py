"""Lazy-vs-eager decode equivalence and the projected fast-path metrics.

The scan fast path (``docs/performance.md``) swaps eager ``Schema.decode``
for boundary-scanned :class:`LazyRecord` on projection-optimized inputs.
These tests pin the contract: a lazy record is observationally identical
to its eager twin -- values, equality, hashing, serialization, pickling --
while ``fields_deserialized`` counts only the fields a job actually
materialized.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SerializationError
from repro.mapreduce import (
    JobConf,
    Mapper,
    ProjectedFileInput,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.mapreduce.keyspace import estimate_size, sort_key, stable_hash
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldDecodeCounter,
    FieldType,
    LazyRecord,
    OpaqueSchema,
    Record,
    ScannedRecord,
    Schema,
    build_records,
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


class TestLazyEagerEquivalence:
    @given(uv_values)
    def test_identical_values_and_bytes(self, values):
        record = UV.make(*values)
        raw = UV.encode(record)
        lazy = UV.decode_lazy(raw)
        eager = UV.decode(raw)
        assert isinstance(lazy, LazyRecord)
        assert lazy.as_tuple() == eager.as_tuple()
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        # Re-encoding a lazy record reproduces the original bytes.
        assert UV.encode(lazy) == raw

    @given(uv_values)
    def test_single_field_access_matches(self, values):
        raw = UV.encode(UV.make(*values))
        eager = UV.decode(raw)
        for field in UV.fields:
            lazy = UV.decode_lazy(raw)
            assert getattr(lazy, field.name) == getattr(eager, field.name)

    @given(uv_values)
    def test_shuffle_view_matches(self, values):
        # The shuffle's three lenses on a key -- sort order, partition
        # hash, size estimate -- agree between lazy and eager twins.
        raw = UV.encode(UV.make(*values))
        lazy, eager = UV.decode_lazy(raw), UV.decode(raw)
        assert sort_key(lazy) == sort_key(eager)
        assert stable_hash(lazy) == stable_hash(eager)
        assert estimate_size(lazy) == estimate_size(eager)
        assert UV.decode_lazy(raw).estimated_size == estimate_size(eager)

    @given(uv_values)
    def test_every_field_type_roundtrips_through_file(self, values):
        import os
        import tempfile

        tmp = tempfile.mkdtemp(prefix="lazy-rt-")
        path = os.path.join(tmp, "uv.rf")
        record = UV.make(*values)
        with RecordFileWriter(path, LONG_SCHEMA, UV) as w:
            w.append(LONG_SCHEMA.make(0), record)
        with RecordFileReader(path) as reader:
            [(k_eager, v_eager)] = list(reader.iter_records())
        with RecordFileReader(path) as reader:
            [(k_lazy, v_lazy)] = list(
                reader.iter_records(lazy_values=True, lazy_keys=True)
            )
        assert isinstance(v_lazy, LazyRecord)
        assert (k_lazy, v_lazy) == (k_eager, v_eager)
        assert UV.encode(v_lazy) == UV.encode(v_eager)
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)

    def test_truncated_and_trailing_bytes_raise_like_eager(self):
        raw = UV.encode(UV.make("a", 1, 2, 3.0, True, b"xy"))
        for bad in (raw[:-1], raw + b"\x00"):
            with pytest.raises(SerializationError):
                UV.decode(bad)
            with pytest.raises(SerializationError):
                UV.decode_lazy(bad)

    def test_overflowing_varint_raises_like_eager(self):
        # The boundary scan must reject a 64-bit-overflowing varint at
        # scan time, exactly like eager decode -- not defer the failure
        # to whenever (if ever) the field is materialized.
        one_int = Schema("N", [Field("n", FieldType.INT)])
        corrupt = b"\x80" * 9 + b"\x02"
        with pytest.raises(SerializationError, match="overflows"):
            one_int.decode(corrupt)
        with pytest.raises(SerializationError, match="overflows"):
            one_int.decode_lazy(corrupt)

    def test_pickle_materializes_to_plain_record(self):
        raw = UV.encode(UV.make("a", 1, 2, 3.0, True, b"xy"))
        lazy = UV.decode_lazy(raw)
        clone = pickle.loads(pickle.dumps(lazy))
        assert type(clone) is Record
        assert clone == lazy

    def test_record_api_surface(self):
        record = UV.make("a", 1, 2, 3.0, True, b"xy")
        raw = UV.encode(record)
        lazy = UV.decode_lazy(raw)
        assert lazy.get("ip") == "a"
        assert lazy.get("nope", 7) == 7
        assert lazy.to_dict() == record.to_dict()
        assert lazy.replace(revenue=9) == record.replace(revenue=9)
        assert repr(lazy) == repr(record)
        with pytest.raises(SerializationError):
            lazy.ip = "mutate"


class TestOpaqueLazyFallback:
    def test_opaque_decodes_eagerly_and_counts_fields(self):
        schema = OpaqueSchema(
            "Blob",
            [Field("a", FieldType.INT), Field("b", FieldType.STRING)],
            encoder=lambda r: f"{r.a}|{r.b}".encode(),
            decoder=lambda s, raw: Record(
                s, [int(raw.split(b"|")[0]), raw.split(b"|")[1].decode()]
            ),
        )
        record = Record(schema, [5, "x"])
        raw = schema.encode(record)
        counter = FieldDecodeCounter()
        decoded = schema.decode_lazy(raw, counter=counter)
        assert type(decoded) is Record  # no laziness behind opaque codecs
        assert decoded == record
        assert counter.count == 2


class TestFieldDecodeCounting:
    def test_counter_ticks_once_per_field(self):
        raw = UV.encode(UV.make("a", 1, 2, 3.0, True, b"xy"))
        counter = FieldDecodeCounter()
        lazy = UV.decode_lazy(raw, counter=counter)
        assert counter.count == 0
        assert lazy.materialized_fields == 0
        lazy.ip
        lazy.ip  # repeated access must not recount
        assert counter.count == 1
        assert lazy.materialized_fields == 1
        lazy.as_tuple()
        assert counter.count == len(UV.fields)


#: whole-record and per-field views a job may take of a value
_VIEWS = (
    [lambda r, name=f.name: getattr(r, name) for f in UV.fields]
    + [lambda r, name=f.name: r.get(name) for f in UV.fields]
    + [lambda r: r.get("nope", 7), lambda r: r.as_tuple(),
       lambda r: r.to_dict(), lambda r: hash(r), lambda r: repr(r),
       lambda r: r.replace(revenue=1), lambda r: estimate_size(r),
       lambda r: stable_hash(r), lambda r: sort_key(r),
       lambda r: type(pickle.loads(pickle.dumps(r))).__name__,
       lambda r: r == UV.make("a", 1, 2, 3.0, True, b"xy")]
)


class TestScannedRecordCharges:
    """A projected scan's :class:`ScannedRecord` holds values a block scan
    decoded, but charges and answers every view exactly as the
    :class:`LazyRecord` the lazy decode would have built."""

    @given(uv_values, st.lists(st.integers(0, len(_VIEWS) - 1), max_size=12))
    def test_charges_like_its_lazy_twin(self, values, views):
        raw = UV.encode(UV.make(*values))
        lazy_counter, scanned_counter = FieldDecodeCounter(), FieldDecodeCounter()
        lazy = UV.decode_lazy(raw, counter=lazy_counter)
        [scanned] = build_records(UV, [UV.decode(raw).as_tuple()],
                                  scanned_counter)
        assert isinstance(scanned, ScannedRecord)
        for view in views:
            assert repr(_VIEWS[view](scanned)) == repr(_VIEWS[view](lazy))
            assert scanned_counter.count == lazy_counter.count

    def test_a_read_field_is_a_slot_read(self):
        counter = FieldDecodeCounter()
        [scanned] = build_records(UV, [("a", 1, 2, 3.0, True, b"xy")], counter)
        assert scanned.ip == scanned.ip == scanned.get("ip") == "a"
        assert counter.count == 1
        assert type(scanned).ip.__get__(scanned) == "a"
        with pytest.raises(SerializationError):
            scanned.ip = "mutate"


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


class TestProjectedFastPathMetrics:
    def test_fields_deserialized_counts_materializations_only(self, tmp_path):
        path = str(tmp_path / "visits.rf")
        _write_uservisits_like(path, n=60)
        cutoff = 20

        def conf(source):
            return JobConf(
                name="selscan",
                mapper=DateFilterMapper(cutoff),
                reducer=SumReducer,
                inputs=[source],
            )

        eager = run_job(conf(RecordFileInput(path)))
        lazy = run_job(conf(ProjectedFileInput(path)))
        assert lazy.outputs == eager.outputs
        # Eager charges every stored field; lazy charges 1 field for each
        # filtered-out record and 3 for each passing one.
        assert eager.metrics.fields_deserialized == 60 * 4
        assert lazy.metrics.fields_deserialized == 40 * 1 + 20 * 3
        assert (
            lazy.metrics.map_input_logical_bytes
            == eager.metrics.map_input_logical_bytes
        )

    def test_parallel_runner_identical_on_lazy_path(self, tmp_path):
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

    def test_lazy_records_survive_spill_as_shuffle_values(self, tmp_path):
        # A mapper that forwards the LazyRecord itself must still be
        # byte-identical across runners (spill pickling materializes).
        path = str(tmp_path / "visits.rf")
        schema = _write_uservisits_like(path, n=40)

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
        # Emitting the whole record forces full materialization during
        # shuffle size accounting; that decode work happens after the
        # scan but must still be charged (post-scan counter harvest),
        # identically under both runners.
        assert seq.metrics.fields_deserialized == 40 * 4
        assert par.metrics.fields_deserialized == 40 * 4
