"""The compiled block scan against the container's reference decoder.

The scan under every batch stage is generated code
(:mod:`repro.storage.blockscan`); the reference is what
``RecordFileReader.iter_records`` runs (``block_spans`` +
``Schema.decode``).  The seeded differential test damages files -- byte
flips anywhere and in record framing, truncations, a lying ``n_records``,
empty blocks -- and demands
that the two either raise the same exception type *and message* or both
succeed with equal values, keys and ``logical_bytes``.  One carve-out,
shared with every projecting reader (``decode_lazy`` included): bytes of
a string nobody captures are never UTF-8 decoded, so damage confined to
them passes a projecting scan; there the oracle is the same contract
spelled with the record path's lazy decoder (``_projecting``).

Also here: the shape cache (equal shapes share one code object, a
fresh-literal query compiles nothing) and the never-silently-accept rule.
"""

import random
from types import SimpleNamespace

import pytest

from repro.api.expressions import col
from repro.api.session import Session
from repro.batch import kernels
from repro.batch.columns import ScanPlan, build_scan_plan, iter_column_batches
from repro.batch.executor import _union_plan
from repro.batch.spec import BatchStageSpec
from repro.exceptions import (
    CorruptFileError,
    JobExecutionError,
    SerializationError,
    StorageError,
)
from repro.mapreduce.keyspace import estimate_size
from repro.storage import blockscan, varint
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Record,
    Schema,
)

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


def _projecting(path, capture, decode_keys):
    """The scan's contract, spelled with the record path's own decoders.

    Block by block: frame, boundary-scan every record (``decode_lazy``)
    and materialize the captured fields; a block where any of that fails
    is decoded eagerly instead and *that* error is the answer.
    """
    keys, values, logical = [], [], 0
    with RecordFileReader(path) as reader:
        for payload, n_records in reader.iter_block_payloads(None):
            try:
                view, spans = reader.block_spans(payload, n_records)
                for kpos, kend, vpos, vend in spans:
                    k = KEYS.decode_lazy(view, kpos, kend)
                    v = VALUES.decode_lazy(view, vpos, vend)
                    logical += k.estimated_size + v.estimated_size
                    if decode_keys:
                        keys.append(k.as_tuple())
                    values.append(tuple(getattr(v, name) for name in capture))
            except Exception:
                view, spans = reader.block_spans(payload, n_records)
                for kpos, kend, vpos, vend in spans:
                    KEYS.decode(view, kpos, kend)
                    VALUES.decode(view, vpos, vend)
                raise AssertionError("lazy decode failed where eager passes")
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
    varint, whose span every boundary scan (``decode_lazy`` too) charges
    where ``estimate_size`` charges the canonical length -- there the
    lazy reader's figure, via ``_projecting``, is the oracle.
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
    with RecordFileReader(path) as reader:
        return reader._data_start, reader.file_size(), reader.blocks()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rewrite(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _flip(path, rng):
    start, size, _blocks = _data_region(path)
    data = bytearray(_read(path))
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        data[rng.randrange(start, size)] ^= rng.choice(
            [0x80, 0x01, 0x7F, 0xFF, 1 << rng.randrange(8)])
    _rewrite(path, bytes(data))


def _flip_framing(path, rng):
    """Flip inside a record's key- or value-length prefix."""
    _start, _size, blocks = _data_region(path)
    block = rng.choice(blocks)
    with RecordFileReader(path) as reader:
        [(payload, n_records)] = reader.iter_block_payloads([block])
        _view, spans = reader.block_spans(payload, n_records)
    kpos, kend, vpos, _vend = rng.choice(spans)
    at = block.offset + block.length - len(payload) \
        + rng.choice([kpos, vpos]) - 1
    data = bytearray(_read(path))
    data[at] ^= rng.choice([0x80, 0x01, 1 << rng.randrange(8)])
    _rewrite(path, bytes(data))


def _truncate(path, rng):
    start, size, _blocks = _data_region(path)
    _rewrite(path, _read(path)[:rng.randrange(start, size)])


def _lie_about_n_records(path, rng):
    _start, _size, blocks = _data_region(path)
    data = _read(path)
    block = rng.choice(blocks)
    raw = data[block.offset:block.offset + block.length]
    payload_len, pos = varint.decode_uvarint(raw, 0)
    _n, pos = varint.decode_uvarint(raw, pos)
    lie = rng.choice([0, block.n_records - 1, block.n_records + 1,
                      block.n_records * 2, 1 << 40])
    _rewrite(path, data[:block.offset] + varint.encode_uvarint(payload_len)
             + varint.encode_uvarint(lie) + raw[pos:]
             + data[block.offset + block.length:])


def _insert_empty_block(path, rng):
    _start, size, blocks = _data_region(path)
    data = _read(path)
    at = rng.choice([b.offset for b in blocks] + [size])
    _rewrite(path, data[:at] + b"\x00\x00" + data[at:])


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


# -- the shape cache -----------------------------------------------------------


class TestScannerCache:
    AGG = BatchStageSpec(kind="aggregate", group_column="n",
                         predicates=[(col("i") > 1).to_symbolic()],
                         aggs=[("count", None)])

    def test_equal_shapes_share_one_code_object(self, tmp_path):
        solo = build_scan_plan(KEYS, VALUES, self.AGG)
        path = _write(tmp_path / "f.rf", random.Random(3))
        with RecordFileReader(path) as reader:
            # the pass's plan for a group of one member (only .plan is read)
            union = _union_plan(reader, [SimpleNamespace(plan=solo)])
        assert union is not solo
        assert union.scanner is solo.scanner
        assert union.scanner._fn.__code__ is solo.scanner._fn.__code__
        # INT and LONG are the same bytes, so the same shape
        other = Schema("Other", [
            Field(f.name, FieldType.LONG if f.ftype is FieldType.INT
                  else f.ftype) for f in VALUES.fields])
        assert build_scan_plan(KEYS, other, self.AGG).scanner is solo.scanner

    def test_different_shapes_do_not(self):
        base = ScanPlan(KEYS, VALUES, ["i", "n"], decode_keys=False)
        assert ScanPlan(KEYS, VALUES, ["i"], False).scanner \
            is not base.scanner
        assert ScanPlan(KEYS, VALUES, ["n", "i"], False).scanner \
            is not base.scanner
        assert ScanPlan(KEYS, VALUES, ["i", "n"], True).scanner \
            is not base.scanner
        assert ScanPlan(LONG_SCHEMA, VALUES, ["i", "n"], False).scanner \
            is not base.scanner

    def test_a_fresh_literal_compiles_nothing_new(self, tmp_path):
        path = _write(tmp_path / "f.rf", random.Random(4))
        with Session(workdir=str(tmp_path / "work")) as session:
            def run(threshold):
                return session.read(path).filter(
                    col("i") > threshold).select("i", "t").collect()

            run(10)
            compiled = (len(blockscan._SCANNERS), len(kernels._CODE_CACHE))
            assert run(11) is not None
            assert (len(blockscan._SCANNERS),
                    len(kernels._CODE_CACHE)) == compiled
