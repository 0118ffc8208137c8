"""The decoded-column cache under the columnar scan.

A catalog copy's segments are decoded once per process and reused by
every later scan of the same file identity -- the record path and the
batch path, solo and pooled.  Pinned here: a hit changes nothing but
time (outputs, counters and every integer ``JobMetrics`` field of cold
and warm runs of every catalog kind, on both paths, in process and on
the worker pool; no consumer mutates a cached column); a copy with a new
identity is never served stale; the budget holds while a scan decodes
more than it; threaded scans agree; a child forked while the lock is
held scans without deadlock; damage still raises the reference error;
and a sorted copy's footer is decoded once for many submits.
"""

import os
import pickle
import random
import signal
import threading
import time
import warnings
from itertools import chain

import pytest

from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.engine import ExecutionEngine
from repro.exceptions import CorruptFileError
from repro.mapreduce import (
    JobConf,
    LocalJobRunner,
    Mapper,
    ParallelJobRunner,
    RecordFileInput,
    Reducer,
    run_job,
)
from repro.mapreduce.formats import ColumnarFileInput, SelectionIndexInput
from repro.storage import columnar, varint
from repro.storage.blockfile import BlockFileReader
from repro.storage.blockscan import FULL_READ, ReadShape
from repro.storage.columnar import (
    ColumnarFileReader,
    ColumnarFileWriter,
    column_cache_stats,
)
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema



def walk_blocks(reader):
    """A reader's block directory walked from its file, past any cache."""
    return [(block.offset, block.length, block.n_records)
            for block in _WALK(reader)]


def _directory(reader):
    return [(block.offset, block.length, block.n_records)
            for block in reader.blocks()]


_WALK = BlockFileReader.blocks

ROWS = Schema("CacheRow", [
    Field("i", FieldType.INT),
    Field("l", FieldType.LONG),
    Field("d", FieldType.DOUBLE),
    Field("b", FieldType.BOOL),
    Field("s", FieldType.STRING),
    Field("t", FieldType.STRING),
    Field("y", FieldType.BYTES),
])
TEXTS = ("", "a", "é", "日本語", "plain ascii", "x" * 150)
TOPICS = ("alpha", "béta", "", "gamma")
DOUBLES = (float("nan"), -0.0, 0.0, float("inf"), 1e-300)


def _values(rng):
    return (rng.randrange(-300, 300), rng.randrange(0, 10**12),
            rng.choice(DOUBLES) if rng.random() < 0.3
            else rng.uniform(-1e9, 1e9),
            rng.random() < 0.5,
            rng.choice(TEXTS) + str(rng.randrange(99)),
            rng.choice(TOPICS),
            bytes(rng.randrange(256) for _ in range(rng.randrange(6))))


def _write_source(path, n, seed=3):
    rng = random.Random(seed)
    with RecordFileWriter(path, LONG_SCHEMA, ROWS, block_size=600) as writer:
        for key in range(n):
            writer.append(LONG_SCHEMA.make(rng.randrange(-10**6, 10**6)),
                          ROWS.make(*_values(rng)))
    return path


# -- cold and warm runs of every catalog kind ------------------------------------


class TextMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.s, value.i)


class WholeMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.b, value)


class TopicMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(value.t, value.i)


class SelectWhole(Mapper):
    def map(self, key, value, ctx):
        if value.i > 150:
            ctx.emit(key, value)


class SelectFields(Mapper):
    def map(self, key, value, ctx):
        if value.i > 250:
            ctx.emit(value.t, value.l)


class MaxReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, max(values))


class AnonymousMaxReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(None, max(values))


#: (kind, mapper, reducer)
PROGRAMS = [
    (cat.KIND_PROJECTION, TextMapper, MaxReducer),
    (cat.KIND_PROJECTION_DELTA, TextMapper, MaxReducer),
    (cat.KIND_DELTA, WholeMapper, None),
    (cat.KIND_DICTIONARY, TopicMapper, AnonymousMaxReducer),
    (cat.KIND_SELECTION, SelectWhole, None),
    (cat.KIND_SELECTION_PROJECTION, SelectFields, MaxReducer),
]


def _outcome(result):
    """Outputs byte for byte, counters, and every integer metric."""
    return (pickle.dumps(result.outputs), result.counters.to_dict(),
            {name: value for name, value in result.metrics.to_dict().items()
             if type(value) is int})


def _segment_columns(path):
    """(block offset, segment position) -> the reference decode's column."""
    out = {}
    with ColumnarFileReader(path) as reader:
        for block in reader.blocks():
            [(payload, n)] = reader.iter_block_payloads([block])
            rows = [key.as_tuple() + value.as_tuple()
                    for key, value in reader.decode_block(payload, n)]
            for position, column in enumerate(zip(*rows)):
                out[block.offset, position] = list(column)
    return out


def _assert_cache_holds_reference_columns(path):
    with ColumnarFileReader(path) as reader:
        identity = reader.identity
    reference = _segment_columns(path)
    cached = [(key, value) for key, (value, _size)
              in list(columnar._COLUMN_CACHE._entries.items())
              if key[0] == identity and key[-1] != columnar.FENCES]
    assert cached
    for (_identity, offset, position), column in cached:
        assert pickle.dumps(column) == pickle.dumps(
            reference[offset, position])


@pytest.mark.parametrize("kind,mapper,reducer", PROGRAMS,
                         ids=[kind for kind, *_rest in PROGRAMS])
def test_cold_and_warm_runs_are_identical(tmp_path, kind, mapper, reducer):
    source = _write_source(str(tmp_path / "src.rf"), 400)
    job = JobConf(name=f"cached-{kind}", mapper=mapper, reducer=reducer,
                  num_reducers=2, inputs=[RecordFileInput(source)])
    system = Manimal(str(tmp_path / "cat"))
    [entry] = system.build_indexes(job, allowed_kinds=[kind])
    descriptor = system.plan(job)
    [plan] = descriptor.plans
    assert plan.entry is not None and plan.entry.index_id == entry.index_id
    assert isinstance(plan.chosen, ColumnarFileInput)
    batch = descriptor.apply(job)
    record = descriptor.apply(job)
    record.batch_specs.clear()
    assert batch.batch_specs
    expected = {}
    for path_name, conf in (("batch", batch), ("record", record)):
        # in process: the first run is cold, the next two hit
        columnar._COLUMN_CACHE.reset()
        runner = LocalJobRunner(splits_per_input=3)
        cold = _outcome(run_job(conf, runner=runner))
        before = column_cache_stats()
        assert before["misses"] and not before["hits"]
        warm = [_outcome(run_job(conf, runner=runner)) for _ in range(2)]
        after = column_cache_stats()
        assert after["hits"] > 0 and after["misses"] == before["misses"]
        assert warm == [cold, cold], path_name
        _assert_cache_holds_reference_columns(entry.index_path)
        # pooled: fresh workers start cold; their caches outlive a job
        engine = ExecutionEngine(max_workers=2)
        try:
            runner = ParallelJobRunner(2, engine=engine)
            pooled = [_outcome(run_job(conf, runner=runner))
                      for _ in range(3)]
            assert engine.pool.stats()["jobs_pooled"] == 3
        finally:
            engine.shutdown()
        assert pooled[1:] == pooled[:1] * 2, path_name
        # the pool's splits and output order are its own
        assert sorted(map(pickle.dumps, pickle.loads(pooled[0][0]))) == \
            sorted(map(pickle.dumps, pickle.loads(cold[0])))
        expected[path_name] = cold
    # the two paths agree on all but which path served the tasks
    for result in expected.values():
        result[2].pop("batch_map_tasks")
    assert expected["batch"] == expected["record"]


# -- identity --------------------------------------------------------------------


def _write_copy(path, rows):
    with ColumnarFileWriter(path, LONG_SCHEMA, ROWS) as writer:
        for key, values in rows:
            writer.append(LONG_SCHEMA.make(key), ROWS.make(*values))


def _scan(path, shape=FULL_READ):
    source = ColumnarFileInput(path)
    if shape != FULL_READ:
        source = source.with_shape(shape)
    return [pair for split in source.splits(3) for pair in source.open(split)]


def _pickled(pairs):
    return pickle.dumps([(getattr(key, "as_tuple", tuple)(), value.as_tuple())
                         for key, value in pairs])


def _key_tag_at(payload):
    """Where a block payload's first (key) column's width tag sits."""
    _logical, at = varint.decode_uvarint(payload, 0, len(payload))
    _segment, at = varint.decode_uvarint(payload, at, len(payload))
    return at


def _same_size_rows(offset):
    """Rows whose copy has the same size for every ``offset`` in 0..9."""
    return [(k, (offset + k % 7, 10**11 + offset, 0.5 * offset, bool(k % 2),
                 f"v{offset}-{k % 10}", "tt", bytes((offset,))))
            for k in range(300)]


def _copy_of(tmp_path, offset):
    path = str(tmp_path / f"rows-{offset}.col")
    _write_copy(path, _same_size_rows(offset))
    return path


def test_a_replaced_or_rewritten_copy_is_never_served_stale(tmp_path):
    path = str(tmp_path / "c.col")
    _write_copy(path, _same_size_rows(1))
    first = _pickled(_scan(path))
    assert _pickled(_scan(path)) == first  # served from the cache
    stat = os.stat(path)
    # a replacement of the same size and modification time: a new inode
    spare = str(tmp_path / "spare.col")
    _write_copy(spare, _same_size_rows(2))
    assert os.path.getsize(spare) == stat.st_size
    os.utime(spare, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(spare, path)
    replaced = _pickled(_scan(path))
    _write_copy(spare, _same_size_rows(2))
    assert replaced == _pickled(_scan(spare)) != first
    # a rewrite in place, the same size, a later modification time
    with open(_copy_of(tmp_path, 3), "rb") as handle:
        raw = handle.read()
    with open(path, "r+b") as handle:
        handle.write(raw)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    rewritten = _pickled(_scan(path))
    assert rewritten not in (first, replaced)
    assert rewritten == _pickled(_scan(_copy_of(tmp_path, 3)))


def _count_reads(monkeypatch):
    """The paths whose header a reader parsed, and whose block headers
    it walked."""
    parsed, walked = [], []
    parse, walk = BlockFileReader._open, BlockFileReader.blocks
    monkeypatch.setattr(BlockFileReader, "_open", lambda reader: parsed.append(
        reader.path) or parse(reader))
    monkeypatch.setattr(BlockFileReader, "blocks", lambda reader: walked.append(
        reader.path) or walk(reader))
    return parsed, walked


def test_a_copy_header_and_directory_are_read_once_per_identity(
        tmp_path, monkeypatch):
    path = str(tmp_path / "c.col")
    _write_copy(path, _same_size_rows(5))
    parsed, walked = _count_reads(monkeypatch)
    scans = [_pickled(_scan(path)) for _ in range(4)]
    assert scans == [scans[0]] * 4
    # one parse and one walk, whatever the readers the scans opened
    assert parsed == [path] and walked == [path]
    with ColumnarFileReader(path) as reader:
        assert _directory(reader) == walk_blocks(reader)
    assert parsed == [path]


def test_a_copy_rewritten_in_place_is_reread(tmp_path, monkeypatch):
    path = str(tmp_path / "c.col")
    _write_copy(path, _same_size_rows(6))
    before = _pickled(_scan(path))
    with ColumnarFileReader(path) as reader:
        old_blocks, old_header = _directory(reader), reader.metadata
    parsed, walked = _count_reads(monkeypatch)
    # the same inode, other rows, more of them: a new size and directory
    other = str(tmp_path / "other.col")
    rng = random.Random(11)
    _write_copy(other, [(k, _values(rng)) for k in range(900)])
    with open(other, "rb") as handle:
        raw = handle.read()
    stat = os.stat(path)
    with open(path, "r+b") as handle:
        handle.write(raw)
        handle.truncate()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    after = _pickled(_scan(path))
    assert after == _pickled(_scan(other)) != before
    assert parsed.count(path) == 1 and walked.count(path) == 1
    with ColumnarFileReader(path) as reader, \
            ColumnarFileReader(other) as fresh:
        assert _directory(reader) == walk_blocks(reader) != old_blocks
        assert reader.metadata == fresh.metadata == old_header


def test_damage_in_place_after_a_cached_scan_still_raises(tmp_path):
    path = str(tmp_path / "c.col")
    _write_copy(path, _same_size_rows(4))
    _scan(path)
    _scan(path)
    with ColumnarFileReader(path) as reader:
        block = reader.blocks()[0]
    with open(path, "r+b") as handle:
        handle.seek(block.offset)
        head = handle.read(12)
        _length, at = varint.decode_uvarint(head, 0, len(head))
        _n, at = varint.decode_uvarint(head, at, len(head))
        handle.seek(block.offset + at + _key_tag_at(head[at:]))
        handle.write(b"\x03")
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    with ColumnarFileReader(path) as reader:
        [(payload, n)] = reader.iter_block_payloads([block])
        with pytest.raises(CorruptFileError) as reference:
            list(reader.decode_block(payload, n))
    with pytest.raises(CorruptFileError) as scanned:
        _scan(path)
    assert str(scanned.value) == str(reference.value)
    # a payload that is not the block the reader read last is never
    # looked up: a damaged copy of a cached block raises too
    fresh = _copy_of(tmp_path, 4)
    _scan(fresh)
    with ColumnarFileReader(fresh) as reader:
        scanner = reader.scanner(FULL_READ)
        [(payload, n)] = reader.iter_block_payloads([reader.blocks()[0]])
        scanner.scan(reader, payload, n)
        at = _key_tag_at(payload)
        damaged = payload[:at] + b"\x03" + payload[at + 1:]
        with pytest.raises(CorruptFileError):
            scanner.scan(reader, damaged, n)


# -- the budget, threads and fork -------------------------------------------------


def _big_copy(tmp_path, n=3000):
    rng = random.Random(9)
    path = str(tmp_path / "big.col")
    _write_copy(path, [(k, _values(rng)) for k in range(n)])
    return path


def test_resident_bytes_stay_within_the_budget(tmp_path, monkeypatch):
    path = _big_copy(tmp_path)
    monkeypatch.setattr(columnar, "CACHE_BYTES", 64 * 1024)
    columnar._COLUMN_CACHE.reset()
    reference = _pickled(_scan(path))
    peak = 0
    source = ColumnarFileInput(path)
    for _ in range(2):
        pairs = []
        for split in source.splits(8):
            pairs += source.open(split)
            peak = max(peak, column_cache_stats()["resident_bytes"])
        assert _pickled(pairs) == reference
    stats = column_cache_stats()
    assert stats["budget_bytes"] == 64 * 1024
    assert 0 < peak <= 64 * 1024 and stats["evictions"] > 0
    assert stats["resident_bytes"] == sum(
        size for _value, size in columnar._COLUMN_CACHE._entries.values())


def test_estimated_bytes_track_the_decoded_columns(tmp_path):
    import sys

    path = _big_copy(tmp_path, 800)
    columnar._COLUMN_CACHE.reset()
    _scan(path)
    estimated = measured = 0
    for value, size in columnar._COLUMN_CACHE._entries.values():
        estimated += size
        measured += sys.getsizeof(value) + sum(
            sys.getsizeof(v) for v in value if type(v) is not bool)
    assert 0.8 * measured <= estimated <= 1.5 * measured


def test_concurrent_threaded_scans_agree(tmp_path, monkeypatch):
    path = _big_copy(tmp_path, 1500)
    # a budget below the file's decoded size: threads evict each other
    monkeypatch.setattr(columnar, "CACHE_BYTES", 128 * 1024)
    columnar._COLUMN_CACHE.reset()
    shapes = [FULL_READ, ReadShape(False, ("s", "i")),
              ReadShape(True, ("d", "y")), ReadShape(False, ("t",))]
    expected = {shape: _pickled(_scan(path, shape)) for shape in shapes}
    results, errors = [], []

    def worker(shape):
        try:
            for _ in range(4):
                results.append((shape, _pickled(_scan(path, shape))))
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(shape,))
               for shape in chain(shapes, shapes)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors and len(results) == 4 * len(threads)
    assert all(blob == expected[shape] for shape, blob in results)
    assert column_cache_stats()["hits"] > 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_the_lock_is_held_scans(tmp_path):
    path = _big_copy(tmp_path, 400)
    expected = _pickled(_scan(path))
    held, release = threading.Event(), threading.Event()

    def hold():
        with columnar._COLUMN_CACHE._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    assert held.wait(10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: its cache starts over unlocked
        status = 1
        try:
            fresh = column_cache_stats()["entries"] == 0
            status = 0 if fresh and _pickled(_scan(path)) == expected else 2
        finally:
            os._exit(status)
    try:
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child deadlocked on the cache lock")
            time.sleep(0.02)
    finally:
        release.set()
        holder.join(30)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


# -- a sorted copy's fences --------------------------------------------------------


def test_many_b3_submits_decode_the_footer_once(tmp_path, monkeypatch):
    from repro.workloads.pavlo import benchmark3 as b3

    rankings = str(tmp_path / "rankings.rf")
    uservisits = str(tmp_path / "uservisits.rf")
    b3.generate_inputs(rankings, uservisits, 200, 2000, n_urls=100)
    system = Manimal(str(tmp_path / "catalog"))
    windows = [b3.date_window_for_selectivity(share)
               for share in (0.02, 0.05, 0.1)]
    system.build_indexes(b3.make_join_job(rankings, uservisits, *windows[0]))
    reads = []
    read_fences = ColumnarFileReader._read_fences
    monkeypatch.setattr(ColumnarFileReader, "_read_fences",
                        lambda reader: reads.append(reader.path)
                        or read_fences(reader))
    outputs = []
    for window in windows * 2:
        conf = b3.make_join_job(rankings, uservisits, *window)
        outcome = system.submit(conf)
        assert any(isinstance(plan.chosen, SelectionIndexInput)
                   for plan in outcome.descriptor.plans)
        outputs.append(pickle.dumps(sorted(outcome.result.outputs,
                                           key=repr)))
    assert len(reads) == 1
    assert outputs[:3] == outputs[3:]


def test_the_engine_reports_the_cache(tmp_path):
    path = _big_copy(tmp_path, 200)
    _scan(path)
    _scan(path)
    engine = ExecutionEngine(max_workers=1)
    try:
        stats = engine.stats()["column_cache"]
    finally:
        engine.shutdown()
    assert set(stats) == {"hits", "misses", "evictions", "entries",
                          "resident_bytes", "budget_bytes"}
    assert stats["hits"] > 0 and stats["resident_bytes"] > 0
