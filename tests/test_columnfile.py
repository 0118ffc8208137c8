"""Tests for projection (column-subset) files."""

import os

import pytest

from repro.exceptions import FieldNotPresentError, SchemaError
from repro.storage.columnfile import (
    META_BASE_SCHEMA,
    META_KEPT_FIELDS,
    META_KIND,
    KIND_PROJECTION,
    build_projection,
)
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    OpaqueSchema,
    Record,
    Schema,
)

WIDE = Schema(
    "Wide",
    [
        Field("a", FieldType.STRING),
        Field("b", FieldType.INT),
        Field("c", FieldType.STRING),
        Field("d", FieldType.INT),
    ],
)


@pytest.fixture
def wide_file(tmp_path):
    path = str(tmp_path / "wide.rf")
    with RecordFileWriter(path, LONG_SCHEMA, WIDE) as w:
        for i in range(200):
            w.append(LONG_SCHEMA.make(i),
                     WIDE.make(f"a{i}", i, "pad" * 50, -i))
    return path


class TestBuildProjection:
    def test_kept_fields_survive(self, wide_file, tmp_path):
        out = str(tmp_path / "narrow.rf")
        info = build_projection(wide_file, out, ["b", "a"])
        assert info["records"] == 200
        with RecordFileReader(out) as r:
            k, v = next(r.iter_records())
            assert v.a == "a0" and v.b == 0

    def test_dropped_fields_raise(self, wide_file, tmp_path):
        out = str(tmp_path / "narrow.rf")
        build_projection(wide_file, out, ["b"])
        with RecordFileReader(out) as r:
            _, v = next(r.iter_records())
            with pytest.raises(FieldNotPresentError):
                _ = v.c

    def test_file_shrinks(self, wide_file, tmp_path):
        out = str(tmp_path / "narrow.rf")
        build_projection(wide_file, out, ["b", "d"])
        assert os.path.getsize(out) < os.path.getsize(wide_file) * 0.2

    def test_provenance_metadata(self, wide_file, tmp_path):
        out = str(tmp_path / "narrow.rf")
        build_projection(wide_file, out, ["b", "d"])
        with RecordFileReader(out) as r:
            assert r.metadata[META_KIND] == KIND_PROJECTION
            assert r.metadata[META_BASE_SCHEMA] == "Wide"
            assert list(r.metadata[META_KEPT_FIELDS]) == ["b", "d"]

    def test_opaque_source_rejected(self, tmp_path):
        opaque = OpaqueSchema(
            "Opq", [Field("x", FieldType.INT)],
            encoder=lambda r: str(r.x).encode(),
            decoder=lambda s, raw: Record(s, [int(raw)]),
        )
        src = str(tmp_path / "opq.rf")
        with RecordFileWriter(src, LONG_SCHEMA, opaque) as w:
            w.append(LONG_SCHEMA.make(0), opaque.make(1))
        with pytest.raises(SchemaError):
            build_projection(src, str(tmp_path / "out.rf"), ["x"])
