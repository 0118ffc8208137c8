"""The multi-tenant query service: protocol, scheduling, serving.

Covers the wire framing, the fair scheduler's admission/starvation
contract, and the served-result invariants the service is built around:
every remote result byte-identical to an in-process run, repeat
submissions served from the result cache, and cache invalidation when a
tenant's catalog generation or input files change.
"""

import os
import socket
import sys
import threading
import time

import pytest

import repro.service.server as server_module
from repro import Session, col
from repro.engine import ExecutionEngine
from repro.exceptions import JobConfigError
from repro.service import (
    AdmissionError,
    FairScheduler,
    QueryServer,
    ResultCache,
    connect,
    deserialize_rows,
    serialize_rows,
    validate_tenant,
)
from repro.service.client import ServiceError
from repro.service.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.results import result_cache_key
from repro.storage.serialization import (
    Field,
    FieldType,
    Schema,
    SerializationError,
)
from tests.conftest import WEBPAGE, write_webpages


def double_rank(key, value):
    """Module-level map fn: picklable for the remote map() test."""
    return key, value


def rank_above_40(value):
    """Module-level predicate the server proves equal to col("rank") > 40."""
    return value.rank > 40


def rank_doubled(key, value):
    return key, WEBPAGE.make(value.url, value.rank * 2, value.content)


# -- protocol framing ---------------------------------------------------------


class TestProtocol:
    def _pair(self):
        server, client = socket.socketpair()
        return server, client

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "hello", "n": 1})
            assert recv_frame(b) == {"op": "hello", "n": 1}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00\x00\x10abc")  # announce 16, send 3
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_both_ways(self):
        a, b = self._pair()
        try:
            with pytest.raises(ProtocolError):
                send_frame(a, {"blob": "x" * 100}, max_frame=50)
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = self._pair()
        try:
            payload = b"[1,2,3]"
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# -- fair scheduler -----------------------------------------------------------


class TestFairScheduler:
    def _flooded(self, sched, gate):
        """Block the single slot so later submits queue deterministically."""
        return sched.submit("_blocker", gate.wait, label="blocker")

    def test_round_robin_no_starvation(self):
        """A tenant flooding its queue cannot starve a light tenant."""
        sched = FairScheduler(max_in_flight=1, max_queue_depth=32)
        gate = threading.Event()
        blocker = self._flooded(sched, gate)
        order = []
        lock = threading.Lock()

        def noter(tenant):
            def fn():
                with lock:
                    order.append(tenant)
            return fn

        for _ in range(6):
            sched.submit("heavy", noter("heavy"))
        for _ in range(3):
            sched.submit("light", noter("light"))
        gate.set()
        assert sched.drain(timeout=30.0)
        blocker.wait(5.0)
        # One dispatch turn each per cycle: strict alternation while both
        # tenants have backlog, never all-heavy-then-light.
        assert order[:6] == ["heavy", "light"] * 3
        assert sorted(order) == ["heavy"] * 6 + ["light"] * 3
        sched.shutdown()

    def test_weighted_tenant_gets_proportional_turns(self):
        sched = FairScheduler(max_in_flight=1, max_queue_depth=32,
                              weights={"paid": 2})
        gate = threading.Event()
        self._flooded(sched, gate)
        order = []
        lock = threading.Lock()

        def noter(tenant):
            def fn():
                with lock:
                    order.append(tenant)
            return fn

        for _ in range(6):
            sched.submit("paid", noter("paid"))
        for _ in range(3):
            sched.submit("free", noter("free"))
        gate.set()
        assert sched.drain(timeout=30.0)
        assert order[:6] == ["paid", "paid", "free"] * 2
        sched.shutdown()

    def test_admission_rejects_when_queue_full(self):
        sched = FairScheduler(max_in_flight=1, max_queue_depth=2)
        gate = threading.Event()
        self._flooded(sched, gate)
        sched.submit("t", lambda: None)
        sched.submit("t", lambda: None)
        with pytest.raises(AdmissionError) as excinfo:
            sched.submit("t", lambda: None)
        assert excinfo.value.retryable
        assert sched.stats()["rejected"] == 1
        gate.set()
        assert sched.drain(timeout=30.0)
        sched.shutdown()

    def test_draining_rejects_nonretryably(self):
        sched = FairScheduler(max_in_flight=1)
        assert sched.drain(timeout=5.0)
        with pytest.raises(AdmissionError) as excinfo:
            sched.submit("t", lambda: None)
        assert not excinfo.value.retryable
        sched.shutdown()

    def test_job_error_is_captured_not_raised(self):
        sched = FairScheduler(max_in_flight=1)

        def boom():
            raise ValueError("nope")

        job = sched.submit("t", boom)
        assert job.wait(10.0)
        assert job.state == "error"
        assert "nope" in str(job.error)
        ok = sched.submit("t", lambda: 42)
        assert ok.wait(10.0)
        assert ok.result == 42
        assert sched.stats()["failed"] == 1
        sched.shutdown()

    def test_a_finished_job_is_already_counted(self):
        """submit -> wait -> stats, 200 rounds: ``wait`` returning means
        the job is in ``completed``/``failed`` (accounted before it is
        signalled), solo and batched alike."""
        sched = FairScheduler(max_in_flight=2, batch_window_seconds=0.002)

        def boom():
            raise ValueError("nope")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # widen any signal-then-count window
        try:
            for i in range(200):
                job = sched.submit("t", boom if i % 4 == 3 else (lambda: i))
                assert job.wait(10.0)
                stats = sched.stats()
                assert stats["completed"] + stats["failed"] == i + 1
            assert (stats["completed"], stats["failed"]) == (150, 50)
            for i in range(20):
                pair = [
                    sched.submit("t", lambda payloads: payloads,
                                 batch_key="k", payload=n)
                    for n in range(2)
                ]
                assert all(job.wait(10.0) for job in pair)
                assert sched.stats()["completed"] == 150 + 2 * (i + 1)
        finally:
            sys.setswitchinterval(interval)
            sched.shutdown()


# -- result cache -------------------------------------------------------------


class TestResultCache:
    def test_lru_eviction_by_bytes(self):
        cache = ResultCache(capacity_bytes=100)
        cache.put(("t", "a"), b"x" * 60)
        cache.put(("t", "b"), b"y" * 30)
        assert cache.get(("t", "a")) is not None  # refresh a
        cache.put(("t", "c"), b"z" * 60)          # evicts b (LRU)
        assert cache.get(("t", "b")) is None
        assert cache.get(("t", "c")) is not None
        assert cache.stats()["evictions"] >= 1

    def test_oversized_payload_not_stored(self):
        cache = ResultCache(capacity_bytes=10)
        cache.put(("t", "a"), b"x" * 11)
        assert len(cache) == 0

    def test_invalidate_tenant(self):
        cache = ResultCache()
        cache.put(("a", "q1"), b"1")
        cache.put(("b", "q1"), b"2")
        assert cache.invalidate_tenant("a") == 1
        assert cache.get(("a", "q1")) is None
        assert cache.get(("b", "q1")) == b"2"

    def test_key_changes_with_generation_and_input(self, tmp_path):
        path = write_webpages(tmp_path / "w.rf", 50)
        ops = [{"op": "read", "path": path}]
        k1 = result_cache_key("t", ops, 0)
        assert k1 == result_cache_key("t", ops, 0)
        assert k1 != result_cache_key("t", ops, 1)
        assert k1 != result_cache_key("other", ops, 0)
        time.sleep(0.01)
        write_webpages(tmp_path / "w.rf", 50, rank_of=lambda i: i)
        assert k1 != result_cache_key("t", ops, 0)


# -- payload codec ------------------------------------------------------------


class TestPayloadCodec:
    def test_roundtrip_scalars_and_containers(self):
        value = [
            ("url-1", 990),
            (None, [True, False, 3.5, b"raw", -(2 ** 70)]),
            ({"b": 2, "a": (1, "x")}, ()),
        ]
        assert deserialize_rows(serialize_rows(value)) == value

    def test_roundtrip_records_shares_schemas(self):
        schema = Schema("page", [Field("url", FieldType.STRING),
                                 Field("rank", FieldType.INT)])
        rows = [(i, schema.make(f"u{i}", i)) for i in range(3)]
        back = deserialize_rows(serialize_rows(rows))
        assert back == rows
        assert back[0][1].schema is back[2][1].schema

    def test_bytes_ignore_object_identity_sharing(self):
        # The regression that killed the pickle codec: a sequential run
        # shares one Schema instance across every record while parallel
        # workers each rebuild their own, and pickle's identity-based
        # memo turned that into different bytes for equal rows.  The
        # canonical codec must be a pure function of values.
        fields = [Field("url", FieldType.STRING), Field("rank", FieldType.INT)]
        shared = Schema("page", fields)
        rows_shared = [(i, shared.make(f"u{i}", i)) for i in range(4)]
        rows_copies = [
            (i, Schema("page", list(fields)).make(f"u{i}", i))
            for i in range(4)
        ]
        assert rows_shared == rows_copies
        assert serialize_rows(rows_shared) == serialize_rows(rows_copies)

    def test_dict_bytes_ignore_insertion_order(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert serialize_rows(a) == serialize_rows(b)

    def test_unserializable_value_rejected(self):
        with pytest.raises(SerializationError, match="cannot serialize"):
            serialize_rows([(1, object())])

    def test_corrupt_payload_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_rows(b"nope")


# -- tenancy ------------------------------------------------------------------


class TestTenancy:
    @pytest.mark.parametrize("bad", ["", "../x", "a/b", "a b", ".hidden",
                                     None, 42, "x" * 65])
    def test_bad_tenant_names_rejected(self, bad):
        with pytest.raises(JobConfigError):
            validate_tenant(bad)

    def test_good_tenant_names(self):
        for name in ("alice", "team-7", "a.b_c", "0rg"):
            assert validate_tenant(name) == name


# -- the server ---------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    """A query server on a private engine and data root."""
    engine = ExecutionEngine()
    server = QueryServer(
        str(tmp_path / "root"), engine=engine,
        max_in_flight=2, max_queue_depth=8,
    ).start()
    yield server
    server.close()


@pytest.fixture
def webpages(tmp_path):
    return write_webpages(tmp_path / "webpages.rf", 300)


def _connect(server, tenant="alice"):
    host, port = server.address
    return connect(host, port, tenant=tenant)


class TestQueryServer:
    def test_remote_result_byte_identical_to_in_process(
            self, server, webpages, tmp_path):
        with _connect(server) as remote:
            payload, cached = (
                remote.read(webpages)
                .filter(col("rank") > 40)
                .select("url", "rank")
                .collect_bytes()
            )
        assert not cached
        with Session(catalog_dir=str(tmp_path / "local-cat")) as local:
            rows = (
                local.read(webpages)
                .filter(col("rank") > 40)
                .select("url", "rank")
                .collect()
            )
        assert payload == serialize_rows(rows)
        assert deserialize_rows(payload) == rows

    def test_served_vectorized_bytes_identical_to_record_path(
            self, server, webpages, tmp_path):
        """Tenant sessions vectorize by default; the cached payload must
        still be byte-for-byte what the record-at-a-time path produces."""
        def shape(ds):
            return ds.filter(col("rank") > 30).select("url", "rank")

        def agg_shape(ds):
            return ds.filter(col("rank") > 10).group_by("rank") \
                .agg(n=("count", None), top=("max", "rank"))

        with _connect(server) as remote:
            payload, _ = shape(remote.read(webpages)).collect_bytes()
            agg_payload, _ = agg_shape(remote.read(webpages)).collect_bytes()
            cached_payload, cached = shape(remote.read(webpages)) \
                .collect_bytes()
        assert cached and cached_payload == payload
        assert server.tenants.get("alice").session.vectorize

        with Session(catalog_dir=str(tmp_path / "rec-cat"),
                     vectorize=False) as record:
            for build, expected in ((shape, payload),
                                    (agg_shape, agg_payload)):
                result = build(record.read(webpages)).run()
                assert all(
                    s.outcome.result.metrics.batch_map_tasks == 0
                    for s in result.stages
                )
                assert serialize_rows(result.rows) == expected

        # the same query shapes do engage the batch path in-process, so
        # the served results above really exercised it
        with Session(catalog_dir=str(tmp_path / "vec-cat")) as vect:
            for build, expected in ((shape, payload),
                                    (agg_shape, agg_payload)):
                result = build(vect.read(webpages)).run()
                assert sum(
                    s.outcome.result.metrics.batch_map_tasks
                    for s in result.stages
                ) > 0
                assert serialize_rows(result.rows) == expected

    def test_repeat_submission_served_from_cache(self, server, webpages):
        with _connect(server) as remote:
            ds = remote.read(webpages).filter(col("rank") > 45)
            first, cached1 = ds.collect_bytes()
            second, cached2 = ds.collect_bytes()
        assert not cached1
        assert cached2
        assert first == second
        assert server.results.stats()["hits"] >= 1

    def test_cache_invalidated_by_catalog_generation_bump(
            self, server, webpages):
        with _connect(server) as remote:
            ds = remote.read(webpages).filter(col("rank") > 45)
            _, cached1 = ds.collect_bytes()
            _, cached2 = ds.collect_bytes()
            assert not cached1
            assert cached2
            built = ds.build_indexes()       # bumps the tenant generation
            assert built
            gen = remote.catalog()["generation"]
            assert gen >= 1
            _, cached3 = ds.collect_bytes()  # recomputed under new plan
            assert not cached3
            _, cached4 = ds.collect_bytes()  # and re-cached under new key
            assert cached4

    def test_cache_invalidated_by_rewritten_input(self, server, tmp_path):
        path = write_webpages(tmp_path / "data.rf", 100)
        with _connect(server) as remote:
            ds = remote.read(path).filter(col("rank") > 45)
            rows1 = ds.collect()
            _, cached = ds.collect_bytes()
            assert cached
            time.sleep(0.01)  # ensure a distinct mtime
            write_webpages(tmp_path / "data.rf", 100, rank_of=lambda i: 49)
            rows2 = ds.collect()
            _, cached2 = ds.collect_bytes()
        assert len(rows2) == 100
        assert len(rows1) < len(rows2)
        assert cached2  # re-cached under the new input fingerprint

    def test_tenants_have_isolated_catalogs(self, server, webpages):
        with _connect(server, "alice") as alice, \
                _connect(server, "bob") as bob:
            alice.read(webpages).filter(col("rank") > 45).build_indexes()
            assert alice.catalog()["indexes"]
            assert bob.catalog()["indexes"] == []
            assert bob.catalog()["generation"] == 0
        root = server.tenants.root
        assert os.path.exists(os.path.join(
            root, "tenants", "alice", "catalog", "catalog.json"))

    def test_drop_index_frees_the_catalog_bytes(self, server, webpages):
        """``drop-index`` deletes the index file, as budget eviction does:
        a dropped index must stop costing the tenant disk."""
        catalog_dir = os.path.join(
            server.tenants.root, "tenants", "alice", "catalog")

        def dir_bytes(directory):
            return sum(os.path.getsize(os.path.join(directory, name))
                       for name in os.listdir(directory))

        with _connect(server, "alice") as remote:
            ds = remote.read(webpages).filter(col("rank") > 45)
            [built] = ds.build_indexes()
            assert os.path.exists(built["index_path"])
            before = dir_bytes(catalog_dir)
            [listed] = remote.catalog()["indexes"]
            assert listed["index_id"] == built["index_id"]
            assert listed["stale"] is False
            remote.drop_index(built["index_id"])
            assert remote.catalog()["indexes"] == []
        assert not os.path.exists(built["index_path"])
        assert dir_bytes(catalog_dir) <= \
            before - built["stats"]["index_bytes"]

    def test_catalog_list_marks_stale_entries(self, server, tmp_path):
        path = write_webpages(tmp_path / "data.rf", 200)
        with _connect(server, "alice") as remote:
            ds = remote.read(path).filter(col("rank") > 45)
            ds.build_indexes()
            assert [e["stale"] for e in remote.catalog()["indexes"]] == \
                [False]
            write_webpages(tmp_path / "data.rf", 260)
            assert [e["stale"] for e in remote.catalog()["indexes"]] == \
                [True]
            assert "stale: source rewritten since build" in ds.explain()

    def test_remote_write_confined_to_tenant_dir(self, server, webpages):
        with _connect(server, "alice") as remote:
            ds = (remote.read(webpages).filter(col("rank") > 45)
                  .select("url", "rank"))
            out = ds.write("out/top.rf")
            assert out.startswith(os.path.join(
                server.tenants.root, "tenants", "alice", "data"))
            assert os.path.exists(out)
            with pytest.raises(ServiceError):
                ds.write("/tmp/evil.rf")
            with pytest.raises(ServiceError):
                ds.write("../escape.rf")

    def test_remote_map_agg_join_and_explain(self, server, webpages):
        with _connect(server) as remote:
            base = remote.read(webpages)
            agg = base.group_by("rank").agg(n=("count", None)).collect()
            assert len(agg) == 50
            mapped = base.filter(col("rank") > 48).map(double_rank).collect()
            assert len(mapped) == 6
            joined = (
                base.filter(col("rank") > 48).select("url", "rank")
                .join(base.filter(col("rank") < 1).select("url", "rank"),
                      on="rank")
            )
            assert joined.collect() == []
            text = base.filter(col("rank") > 48).explain()
            assert "lowered plan" in text

    def test_remote_udf_filter_is_translated_server_side(
            self, server, webpages):
        """The callable crosses the wire pickled; the server's lowering
        proves it equal to the col() spelling and serves the same bytes
        through the same described plan."""
        with _connect(server) as remote:
            via_udf = remote.read(webpages).filter(rank_above_40) \
                .select("url", "rank")
            spelled = remote.read(webpages).filter(col("rank") > 40) \
                .select("url", "rank")
            udf_payload, udf_cached = via_udf.collect_bytes()
            col_payload, col_cached = spelled.collect_bytes()
            assert not udf_cached and not col_cached  # distinct op lists
            assert udf_payload == col_payload
            text = via_udf.explain()
            assert ("filter <python:rank_above_40> \u2261 "
                    "(value.rank > 40)") in text
            assert "(SELECT, (($value.rank > 40)))" in text
            assert "input[0] batch: 1 predicate(s), emit ($key, " in text
            # a map's declared schema crosses the wire by content; the
            # translator accepts the equal schema the server rebuilt
            mapped = remote.read(webpages).map(
                rank_doubled, value_schema=WEBPAGE)
            assert "map <python:rank_doubled> \u2261 " in mapped.explain()
            assert sorted(v.rank for _k, v in mapped.collect()) == sorted(
                2 * v.rank for _k, v in remote.read(webpages).collect())

    def test_lambda_filter_rejected_client_side(self, server, webpages):
        with _connect(server) as remote:
            base = remote.read(webpages)
            with pytest.raises(JobConfigError, match="does not pickle"):
                base.map(lambda k, v: (k, v))

    def test_execution_error_reported_per_job(self, server):
        with _connect(server) as remote:
            with pytest.raises(ServiceError) as excinfo:
                remote.read("/no/such/file.rf").collect()
            assert excinfo.value.code == "execution-error"
            # The connection and the server survive a failed query.
            assert remote.server_stats()["scheduler"]["failed"] >= 1

    def test_unknown_job_and_unknown_op(self, server):
        with _connect(server) as remote:
            with pytest.raises(ServiceError) as excinfo:
                remote.poll("q999")
            assert excinfo.value.code == "unknown-job"
            with pytest.raises(ServiceError) as excinfo:
                remote.call({"op": "frobnicate"})
            assert excinfo.value.code == "unknown-op"

    def test_stats_surface(self, server, webpages):
        with _connect(server) as remote:
            remote.read(webpages).filter(col("rank") > 45).collect()
            stats = remote.server_stats()
        assert stats["scheduler"]["completed"] >= 1
        assert "alice" in stats["tenants"]
        assert stats["result_cache"]["stores"] >= 1
        assert "engine" in stats


class TestConcurrentClients:
    def test_many_clients_same_query_byte_identical(
            self, server, webpages, tmp_path):
        n = 6
        payloads = [None] * n
        errors = []

        def client(i):
            try:
                with _connect(server, "alice") as remote:
                    payloads[i], _ = (
                        remote.read(webpages)
                        .filter(col("rank") > 40)
                        .select("url", "rank")
                        .collect_bytes()
                    )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        with Session(catalog_dir=str(tmp_path / "cat")) as local:
            expected = serialize_rows(
                local.read(webpages)
                .filter(col("rank") > 40)
                .select("url", "rank")
                .collect()
            )
        assert all(p == expected for p in payloads)

    def test_many_tenants_different_queries(self, server, webpages):
        thresholds = {"t0": 10, "t1": 20, "t2": 30, "t3": 40}
        results = {}
        errors = []
        lock = threading.Lock()

        def client(tenant, threshold):
            try:
                with _connect(server, tenant) as remote:
                    rows = (
                        remote.read(webpages)
                        .filter(col("rank") > threshold)
                        .collect()
                    )
                with lock:
                    results[tenant] = rows
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=item)
                   for item in thresholds.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        # 300 rows, rank = i % 50: 6 rows per rank value.
        for tenant, threshold in thresholds.items():
            assert len(results[tenant]) == (49 - threshold) * 6
            assert all(v.rank > threshold for _, v in results[tenant])

    def test_repeat_heavy_workload_hits_cache(self, server, webpages):
        hits = []
        errors = []
        lock = threading.Lock()

        def client():
            try:
                with _connect(server, "dash") as remote:
                    ds = remote.read(webpages).filter(col("rank") > 45)
                    for _ in range(3):
                        _, cached = ds.collect_bytes()
                        with lock:
                            hits.append(cached)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        # 12 identical submissions: all but the initial concurrent misses
        # must be cache hits, and the cache recorded them.
        assert sum(hits) >= 6
        assert server.results.stats()["hits"] >= 6


class TestBatchMembers:
    def test_no_member_runs_under_another_members_options(
            self, tmp_path, webpages, monkeypatch):
        """Two tenants, one file, one window, different ``parallelism``:
        the run options are part of the batching identity, so each query
        reaches ``run_plans`` with its own."""
        calls = []
        real = server_module.run_plans

        def run_plans(items, **options):
            calls.append((len(items), options["parallelism"]))
            return real(items, **options)

        monkeypatch.setattr(server_module, "run_plans", run_plans)
        server = QueryServer(str(tmp_path / "root"),
                             engine=ExecutionEngine(),
                             batch_window_seconds=0.3)
        try:
            def submit(tenant, low, parallelism):
                query = [
                    {"op": "read", "path": webpages},
                    {"op": "filter", "expr": (col("rank") > low).to_dict()},
                    {"op": "select", "columns": ["url", "rank"]},
                ]
                response = server.handle({
                    "op": "submit", "tenant": tenant, "query": query,
                    "options": {"parallelism": parallelism}})
                assert response["ok"], response
                return tenant, response["job_id"]

            jobs = [submit("alice", 10, 1), submit("bob", 20, 2),
                    submit("carol", 30, 2)]
            for tenant, job_id in jobs:
                assert server.handle({
                    "op": "fetch", "tenant": tenant, "job_id": job_id,
                    "timeout": 60})["ok"]
            # bob and carol asked for the same options and share a
            # dispatch; alice, inside the same window, does not join it
            assert sorted(calls) == [(1, 1), (2, 2)]
            assert server.scheduler.stats()["batched"] == 2
        finally:
            server.close()


class TestJobRegistry:
    def test_finished_jobs_are_forgotten_oldest_first(
            self, server, webpages, monkeypatch):
        """Each entry pins its payload, so a tenant keeps at most
        MAX_TENANT_JOBS; a job still running is never the one dropped."""
        monkeypatch.setattr(server_module, "MAX_TENANT_JOBS", 4)
        query = [{"op": "read", "path": webpages},
                 {"op": "filter", "expr": (col("rank") > 45).to_dict()}]

        def submit(ops=query):
            response = server.handle(
                {"op": "submit", "tenant": "alice", "query": ops})
            assert response["ok"], response
            return response["job_id"]

        def ask(op, job_id, **extra):
            return server.handle(dict(
                op=op, tenant="alice", job_id=job_id, **extra))

        assert ask("fetch", submit(), timeout=60)["ok"]  # warms the cache
        state = server.tenants.get("alice")
        with state.lock:
            # dispatched, then parked on the tenant lock: running
            running = submit(query + [{"op": "select", "columns": ["url"]}])
            deadline = time.monotonic() + 10
            while ask("poll", running)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            hits = [submit() for _ in range(7)]
            assert all(job_id.startswith("c") for job_id in hits)
            entries = server._jobs["alice"]
            assert len(entries) == 4
            assert running in entries
            for job_id in hits[:-3]:
                for op in ("poll", "fetch"):
                    gone = ask(op, job_id)
                    assert gone["error"]["code"] == "unknown-job"
            for job_id in hits[-3:]:
                assert ask("fetch", job_id)["ok"]
            assert ask("poll", running)["state"] == "running"
        assert ask("fetch", running, timeout=60)["ok"]
        # bob's jobs are his own budget
        other = server.handle(
            {"op": "submit", "tenant": "bob", "query": query})
        assert server.handle({"op": "fetch", "tenant": "bob",
                              "job_id": other["job_id"],
                              "timeout": 60})["ok"]
        assert len(server._jobs["alice"]) == 4


class TestServerLifecycle:
    def test_close_is_idempotent_and_drains(self, tmp_path, webpages):
        engine = ExecutionEngine()
        server = QueryServer(str(tmp_path / "root"), engine=engine).start()
        with _connect(server) as remote:
            rows = remote.read(webpages).filter(col("rank") > 45).collect()
            assert rows
        server.close()
        server.close()  # idempotent

    def test_requests_after_close_get_shutting_down(
            self, tmp_path, webpages):
        engine = ExecutionEngine()
        server = QueryServer(str(tmp_path / "root"), engine=engine).start()
        response = server.handle({"op": "hello"})
        assert response["ok"]
        server.close()
        response = server.handle({
            "op": "submit", "tenant": "t",
            "query": [{"op": "read", "path": webpages}],
        })
        assert not response["ok"]
        assert response["error"]["code"] == "shutting-down"
        assert not response["error"]["retryable"]

    def test_close_of_an_idle_server_is_prompt(self, tmp_path):
        # Closing a listening socket alone leaves the accept thread
        # blocked on Linux, so close() used to wait out its join timeout.
        server = QueryServer(str(tmp_path / "root"),
                             engine=ExecutionEngine()).start()
        accept_thread = server._accept_thread
        assert accept_thread.is_alive()
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0
        assert not accept_thread.is_alive()
