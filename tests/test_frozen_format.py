"""The on-disk formats and scan accounting are frozen.

One fixed seeded table is written through every block-file writer; the
sha256 of each file is pinned to the digest the writers produced before
record, delta and dictionary files shared one container
(``storage/blockfile.py``), so any refactor of the container or a value
codec that moves a single byte -- magic, header JSON, block framing,
delta encoding, dictionary footer -- fails here rather than in somebody's
existing catalog.  The same table pins the accounting every ``*Input``
class reports for a scan (``fields_deserialized``, ``stored_bytes``,
``logical_bytes``), which the cluster cost model and the benchmark's
read-amplification metric are computed from.

The second half pins the index *builders* to the writers: a
catalog-built index is the same file a direct writer call produces.
"""

import hashlib
import os

import pytest

from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog
from repro.core.optimizer.indexgen import IndexGenerationProgram
from repro.mapreduce.formats import (
    DeltaFileInput,
    DictionaryFileInput,
    ProjectedFileInput,
    RecordFileInput,
)
from repro.storage.columnfile import build_projection
from repro.storage.delta import DeltaFileReader, DeltaFileWriter
from repro.storage.dictionary import DictionaryFileReader, DictionaryFileWriter
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema

EVENT = Schema(
    "Event",
    [
        Field("host", FieldType.STRING),
        Field("ts", FieldType.LONG),
        Field("val", FieldType.INT),
        Field("score", FieldType.DOUBLE),
        Field("ok", FieldType.BOOL),
        Field("note", FieldType.STRING),
    ],
)
KEPT = ["host", "ts", "val"]
DELTA_FIELDS = ["ts", "val"]
DICT_FIELD = "host"
N_ROWS = 1500
SMALL_BLOCK = 256


def _rows():
    # A hand-rolled LCG, not ``random``: the table must be the same bytes
    # on every interpreter the digests below are checked on.
    state = 13

    def draw(n):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % n

    ts = 1_300_000_000
    rows = []
    for i in range(N_ROWS):
        ts += draw(90)
        rows.append((
            f"host-{draw(12):02d}.example.org",
            ts,
            draw(1000) - 500,
            draw(10000) / 100.0,
            draw(10) < 3,
            "n" * draw(40) + str(i),
        ))
    return rows


ROWS = _rows()


def _fill(writer):
    with writer:
        for i, row in enumerate(ROWS):
            writer.append(LONG_SCHEMA.make(i), EVENT.make(*row))


def _write(kind, directory, block_size):
    """Write the table as ``kind`` into ``directory``; return the path."""
    sized = {} if block_size is None else {"block_size": block_size}
    path = os.path.join(str(directory), f"{kind}-{block_size}")
    if kind == "record":
        _fill(RecordFileWriter(path, LONG_SCHEMA, EVENT, **sized))
    elif kind == "projection":
        source = path + ".src"
        _fill(RecordFileWriter(source, LONG_SCHEMA, EVENT, **sized))
        build_projection(source, path, KEPT, **sized)
    elif kind == "delta":
        _fill(DeltaFileWriter(path, LONG_SCHEMA, EVENT, DELTA_FIELDS, **sized))
    else:
        _fill(DictionaryFileWriter(path, LONG_SCHEMA, EVENT, DICT_FIELD,
                                   **sized))
    return path


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


#: (kind, block_size) -> sha256 recorded at commit cc1e16b (PR 12), the
#: last commit where each format had its own reader/writer.
FROZEN_DIGESTS = {
    ("record", None):
        "06509d2e107e474f7de7f53e7b434fd73091e593803f7d342c9a1167c0b0b667",
    ("record", SMALL_BLOCK):
        "47e73510bafa1b37ca485a8eedadb209e986ceba062ed3c67d3afefaceeb7bca",
    ("projection", None):
        "f9e2896e5485b81c82511a7e0aadd812b49e1ebfff1f7536817f3b3d43bed7d7",
    ("projection", SMALL_BLOCK):
        "7d39bbdae3268c3afbd89de1fe88e22956613522a543425773ba0d264f2dbcbc",
    ("delta", None):
        "80c5a47f31d8e65c7667250da4a231943d7741c1ece21a37a9abf9e8553b4c80",
    ("delta", SMALL_BLOCK):
        "5e76b7d770823f02b944e7318d78f51b7ed931305ac5f5ea430306f5fae2f4b9",
    ("dictionary", None):
        "0cfc5445aa1264a3ba71c75464e9128c620b723623e9513c71244eb8e32246b1",
    ("dictionary", SMALL_BLOCK):
        "946e0b432a775f488e29e828f96945f9c93c7055cfa9ecd1977b3cd47e70abfe",
}

#: kind -> (records, fields_deserialized, stored_bytes, logical_bytes) of
#: a three-split scan whose consumer reads ``val`` of every record,
#: recorded at the same commit (small-block files).
FROZEN_ACCOUNTING = {
    "record": (1500, 9000, 96465, 95469),
    "projection": (1500, 1500, 46743, 46242),
    "delta": (1500, 9000, 92033, 95469),
    "dictionary": (1500, 9000, 67686, 66969),
}

_READERS = {
    "record": RecordFileReader,
    "projection": RecordFileReader,
    "delta": DeltaFileReader,
    "dictionary": DictionaryFileReader,
}
_INPUTS = {
    "record": RecordFileInput,
    "projection": ProjectedFileInput,
    "delta": DeltaFileInput,
    "dictionary": DictionaryFileInput,
}


def _read_back(kind, path):
    """The rows of ``path`` with every codec undone (kept fields only
    for a projection)."""
    with _READERS[kind](path) as reader:
        table = reader.dictionary() if kind == "dictionary" else None
        out = []
        for key, value in reader.iter_records():
            row = list(value.as_tuple())
            if table is not None:
                row[0] = table[row[0]]
            out.append((key.value, tuple(row)))
    return out


@pytest.mark.parametrize("kind,block_size", sorted(
    FROZEN_DIGESTS, key=lambda kb: (kb[0], kb[1] or 0)))
def test_written_bytes_are_frozen(tmp_path, kind, block_size):
    path = _write(kind, tmp_path, block_size)
    assert _sha256(path) == FROZEN_DIGESTS[kind, block_size]
    width = len(KEPT) if kind == "projection" else len(EVENT.fields)
    assert _read_back(kind, path) == [
        (i, row[:width]) for i, row in enumerate(ROWS)
    ]


def _scan_accounting(source):
    records = fields = stored = logical = 0
    for split in source.splits(3):
        reader = source.open(split)
        for _key, value in reader:
            value.val
        records += reader.records
        fields += reader.fields_decoded
        stored += reader.stored_bytes
        logical += reader.logical_bytes
    return records, fields, stored, logical


@pytest.mark.parametrize("kind", sorted(FROZEN_ACCOUNTING))
def test_scan_accounting_is_frozen(tmp_path, kind):
    path = _write(kind, tmp_path, SMALL_BLOCK)
    assert _scan_accounting(_INPUTS[kind](path)) == FROZEN_ACCOUNTING[kind]


# -- catalog-built indexes are the files the writers produce ---------------


@pytest.fixture
def source_file(tmp_path):
    return _write("record", tmp_path, None)


def _build(tmp_path, source_file, **program):
    catalog = Catalog(str(tmp_path / "catalog"))
    return IndexGenerationProgram(source_path=source_file, **program).run(
        catalog)


def test_projection_index_holds_build_projection_records(tmp_path,
                                                         source_file):
    entry = _build(tmp_path, source_file, kind=cat.KIND_PROJECTION,
                   value_fields=KEPT)
    direct = str(tmp_path / "direct.proj")
    stats = build_projection(source_file, direct, KEPT)
    assert _read_back("projection", entry.index_path) == _read_back(
        "projection", direct)
    with RecordFileReader(entry.index_path) as built, \
            RecordFileReader(direct) as expected:
        assert built.value_schema == expected.value_schema
    assert entry.stats["index_records"] == stats["records"] == N_ROWS
    assert entry.value_fields == KEPT


def test_projection_delta_index_matches_direct_writer(tmp_path, source_file):
    entry = _build(tmp_path, source_file, kind=cat.KIND_PROJECTION_DELTA,
                   value_fields=KEPT, delta_fields=DELTA_FIELDS)
    projected = EVENT.project(KEPT)
    direct = str(tmp_path / "direct.projdelta")
    with DeltaFileWriter(direct, LONG_SCHEMA, projected, DELTA_FIELDS,
                         metadata={
                             "source_path": os.path.abspath(source_file),
                             "base_schema": EVENT.name,
                             "kept_fields": KEPT,
                         }) as writer:
        for i, row in enumerate(ROWS):
            writer.append(LONG_SCHEMA.make(i), projected.make(*row[:3]))
    assert _sha256(entry.index_path) == _sha256(direct)
    assert entry.delta_fields == DELTA_FIELDS


def test_delta_and_dictionary_indexes_match_direct_writers(tmp_path,
                                                           source_file):
    metadata = {"source_path": os.path.abspath(source_file)}
    delta = _build(tmp_path, source_file, kind=cat.KIND_DELTA,
                   delta_fields=DELTA_FIELDS)
    direct = str(tmp_path / "direct.delta")
    _fill(DeltaFileWriter(direct, LONG_SCHEMA, EVENT, DELTA_FIELDS,
                          metadata=metadata))
    assert _sha256(delta.index_path) == _sha256(direct)

    dictionary = _build(tmp_path, source_file, kind=cat.KIND_DICTIONARY,
                        dict_field=DICT_FIELD)
    direct = str(tmp_path / "direct.dict")
    _fill(DictionaryFileWriter(direct, LONG_SCHEMA, EVENT, DICT_FIELD,
                               metadata=metadata))
    assert _sha256(dictionary.index_path) == _sha256(direct)
    for entry in (delta, dictionary):
        assert entry.stats["index_records"] == N_ROWS
        assert entry.stats["index_bytes"] == os.path.getsize(entry.index_path)
