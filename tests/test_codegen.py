"""The one code generator: every generated function -- predicate kernel,
block scanner, block encoder, synthesized stage -- is loaded through
``repro.codegen.load``, which caches its code object, registers its
source in ``linecache`` on every load and keeps at most
``MAX_SOURCES`` of both."""

import inspect
import linecache
import sys
import threading

from repro import codegen
from repro.api.expressions import col
from repro.api.session import Session
from repro.batch.kernels import compile_predicates
from repro.storage.blockscan import block_scanner
from repro.storage.blockwrite import block_encoder
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema

ROW = Schema("Row", [Field("x", FieldType.INT), Field("t", FieldType.STRING)])


def _source(i):
    return f"def f{i}(v):\n    return v + {i}\n"


def _registered():
    return [name for name in linecache.cache
            if name.startswith(codegen.PREFIX)]


def test_a_fetch_after_clearcache_is_inspectable_again(tmp_path):
    path = str(tmp_path / "rows.rf")
    with RecordFileWriter(path, LONG_SCHEMA, ROW) as writer:
        for i in range(20):
            writer.append(LONG_SCHEMA.make(i), ROW.make(i, f"t{i}"))

    def stage():
        with Session(workdir=str(tmp_path / "work")) as session:
            conf = session.read(path).filter(col("x") > 3) \
                .group_by("t").agg(n=("count", None)).lower().final.conf
        return conf.mapper.map_source_function

    fetches = {
        "kernel": lambda: compile_predicates(
            [(col("x") > 3).to_symbolic()])._fn,
        "scanner": lambda: block_scanner(
            LONG_SCHEMA, ROW, {"x": 0}, True)._fn,
        "encoder": lambda: block_encoder(
            (("varint",), ("varint", "string"))).write,
        "stage": stage,
    }
    sources = {kind: inspect.getsource(fetch())
               for kind, fetch in fetches.items()}
    linecache.clearcache()
    for kind, fetch in fetches.items():
        assert inspect.getsource(fetch()) == sources[kind], kind


def test_loads_share_code_but_not_namespaces():
    source = "def read():\n    return k\n"
    one = codegen.load(source, "test", {"k": 1})["read"]
    two = codegen.load(source, "test", {"k": 2})["read"]
    assert one.__code__ is two.__code__
    assert (one(), two()) == (1, 2)
    assert one.__code__.co_filename.startswith(f"{codegen.PREFIX}test:")


def test_the_cache_and_its_linecache_entries_are_bounded():
    bound, extra = codegen.MAX_SOURCES, 5
    first = codegen.load(_source(0), "test")["f0"]
    for i in range(1, bound + extra):
        codegen.load(_source(i), "test")
    assert len(codegen._CACHE) == bound
    assert len(_registered()) <= bound
    # the most recent loads are inspectable; the oldest is gone from
    # linecache with its code object
    last = bound + extra - 1
    recent = codegen.load(_source(last), "test")[f"f{last}"]
    assert inspect.getsource(recent) == _source(last)
    assert first.__code__.co_filename not in linecache.cache
    assert _source(0) not in codegen._CACHE
    # ... and recompiles, working and inspectable, when loaded again
    again = codegen.load(_source(0), "test")["f0"]
    assert again.__code__ is not first.__code__
    assert again(1) == 1 and inspect.getsource(again) == _source(0)
    assert len(codegen._CACHE) == bound


def test_concurrent_loads_compile_each_source_once(monkeypatch):
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    sources = [_source(10_000 + n) for n in range(200)]
    errors = []
    start = threading.Barrier(6)

    def worker():
        try:
            start.wait(timeout=60)
            # every thread meets every source first at about one time
            for n, source in enumerate(sources):
                fn = codegen.load(source, "test")[f"f{10_000 + n}"]
                assert fn(1) == 10_001 + n
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # a check-then-compile race would compile a source twice
    assert sorted(compiled) == sorted(sources)
    assert len(codegen._CACHE) <= codegen.MAX_SOURCES
    assert {entry.filename for entry in codegen._CACHE.values()} \
        <= set(_registered())
