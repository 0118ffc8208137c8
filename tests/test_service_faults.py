"""Service-layer resilience: fuzzing, retries, deadlines, torn writes.

The query server's robustness claims, each exercised directly: hostile
or corrupt frames never take the server down (fuzzing against a live
socket), engine-transient job failures are retried server-side while
user errors are not, queue deadlines fail jobs with the permanent
``deadline-exceeded`` code instead of running them late, torn response
frames surface as client-side protocol errors while the server keeps
serving, a torn catalog publish never corrupts the durable
``catalog.json``, and the client's busy backoff is jittered and bounded.
"""

import socket
import struct
import threading
import time

import pytest

from repro import col, faults
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.engine import ExecutionEngine
from repro.exceptions import DeadlineExceededError
from repro.faults import Fault, FaultPlan
from repro.service import FairScheduler, QueryServer, connect
from repro.service.client import RemoteSession, ServiceError
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_TRANSIENT,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service.scheduler import ERROR
from tests.conftest import write_webpages


def slow_identity(key, value):
    """Module-level (picklable) map fn that makes a query take a while."""
    time.sleep(0.02)
    return key, value


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.clear_plan()


@pytest.fixture
def server(tmp_path):
    engine = ExecutionEngine(max_workers=2, reap_scratch=False)
    server = QueryServer(
        str(tmp_path / "root"), engine=engine,
        max_in_flight=1, max_queue_depth=8,
    ).start()
    yield server
    server.close()


@pytest.fixture
def webpages(tmp_path):
    return write_webpages(tmp_path / "webpages.rf", 300)


def _connect(server, tenant="alice"):
    host, port = server.address
    return connect(host=host, port=port, tenant=tenant)


def _raw_socket(server):
    return socket.create_connection(server.address, timeout=10.0)


def _server_is_healthy(server, webpages):
    with _connect(server, tenant="health") as remote:
        rows = remote.read(webpages).filter(col("rank") > 45).collect()
        assert len(rows) == 24
    return True


# -- protocol fuzzing ---------------------------------------------------------


class TestProtocolFuzzing:
    """Hostile frames get a typed error or a clean close, never a crash."""

    def test_oversized_length_prefix(self, server, webpages):
        with _raw_socket(server) as sock:
            sock.sendall(b"\xff\xff\xff\xff")
            response = recv_frame(sock)
            assert response is not None and not response["ok"]
            assert response["error"]["code"] == ERR_BAD_REQUEST
            assert not response["error"]["retryable"]
        assert _server_is_healthy(server, webpages)

    def test_truncated_frame_then_eof(self, server, webpages):
        with _raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", 100) + b"only ten b")
        assert _server_is_healthy(server, webpages)

    def test_garbage_payload(self, server, webpages):
        blob = b"\x00garbage\xff not json at all"
        with _raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", len(blob)) + blob)
            response = recv_frame(sock)
            assert response is not None and not response["ok"]
            assert response["error"]["code"] == ERR_BAD_REQUEST
        assert _server_is_healthy(server, webpages)

    def test_non_object_json_frame(self, server, webpages):
        blob = b"[1, 2, 3]"
        with _raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", len(blob)) + blob)
            response = recv_frame(sock)
            assert response is not None and not response["ok"]
            assert response["error"]["code"] == ERR_BAD_REQUEST
        assert _server_is_healthy(server, webpages)

    def test_fuzz_does_not_break_a_live_connection(self, server, webpages):
        with _connect(server) as remote:
            with _raw_socket(server) as sock:
                sock.sendall(b"\xff\xff\xff\xff")
            # The victim connection keeps working after a sibling fuzzed.
            rows = remote.read(webpages).filter(col("rank") > 48).collect()
            assert len(rows) == 6

    def test_zero_length_frame(self, server, webpages):
        with _raw_socket(server) as sock:
            sock.sendall(struct.pack(">I", 0))
            response = recv_frame(sock)
            assert response is not None and not response["ok"]
        assert _server_is_healthy(server, webpages)


# -- server-side job retries --------------------------------------------------


@pytest.mark.chaos
class TestServerRetries:
    def test_transient_job_failure_retried_to_success(
            self, server, webpages, tmp_path):
        # Exhaust the pool's task-attempt budget with injected transient
        # failures: the *job* fails with an infrastructure-typed error,
        # and the server's bounded job retry reruns it clean.
        faults.install_plan(FaultPlan(
            [Fault("pool.map_task", "transient",
                   match={"task_index": 0}, times=3)],
            token_dir=str(tmp_path / "tokens"),
        ))
        with _connect(server) as remote:
            rows = remote.read(webpages).filter(col("rank") > 45) \
                .collect(parallelism=2)
            assert len(rows) == 24
            stats = remote.server_stats()
        assert stats["resilience"]["jobs_retried"] >= 1

    def test_permanent_failure_not_retried(self, server, tmp_path):
        with _connect(server) as remote:
            before = remote.server_stats()["resilience"]["jobs_retried"]
            with pytest.raises(ServiceError) as err:
                remote.read(str(tmp_path / "missing.rf")).collect()
            assert not err.value.retryable
            after = remote.server_stats()["resilience"]["jobs_retried"]
        assert after == before

    def test_exhausted_retries_surface_transient_code(
            self, server, webpages, tmp_path):
        # More injected failures than the server's retry budget can
        # absorb: the client sees the retryable `transient` code.
        faults.install_plan(FaultPlan(
            [Fault("pool.map_task", "transient",
                   match={"task_index": 0}, times=100)],
            token_dir=str(tmp_path / "tokens"),
        ))
        with _connect(server) as remote:
            remote.busy_retries = 0  # don't re-submit; inspect the error
            with pytest.raises(ServiceError) as err:
                remote.read(webpages).filter(col("rank") > 45) \
                    .collect(parallelism=2)
        assert err.value.code == ERR_TRANSIENT
        assert err.value.retryable


# -- deadlines ----------------------------------------------------------------


class TestDeadlines:
    def test_scheduler_expires_queued_jobs_at_dispatch(self):
        scheduler = FairScheduler(max_in_flight=1)
        release = threading.Event()
        blocker = scheduler.submit("t", release.wait, label="blocker")
        doomed = scheduler.submit("t", lambda: "late", label="doomed",
                                  deadline_seconds=0.05)
        time.sleep(0.15)
        release.set()
        assert doomed.wait(timeout=5.0)
        assert doomed.state == ERROR
        assert isinstance(doomed.error, DeadlineExceededError)
        assert blocker.wait(timeout=5.0)
        stats = scheduler.stats()
        assert stats["expired"] == 1
        assert stats["failed"] >= 1
        scheduler.shutdown()

    def test_no_deadline_means_no_expiry(self):
        scheduler = FairScheduler(max_in_flight=1)
        release = threading.Event()
        scheduler.submit("t", release.wait)
        patient = scheduler.submit("t", lambda: "worth the wait")
        time.sleep(0.1)
        release.set()
        assert patient.wait(timeout=5.0)
        assert patient.result == "worth the wait"
        assert scheduler.stats()["expired"] == 0
        scheduler.shutdown()

    def test_server_deadline_option_end_to_end(self, server, webpages):
        # max_in_flight=1: a slow query occupies the only slot, so a
        # tight-deadline submission expires while queued and fetch
        # returns the permanent deadline-exceeded code.
        with _connect(server) as remote:
            slow = remote.read(webpages).map(slow_identity)
            doomed = remote.read(webpages).filter(col("rank") > 45)
            slow_submitted = remote.submit(slow)
            doomed_submitted = remote.submit(
                doomed, options={"deadline_seconds": 0.05})
            with pytest.raises(ServiceError) as err:
                remote._fetch(doomed_submitted["job_id"])
            assert err.value.code == ERR_DEADLINE
            assert not err.value.retryable
            remote._fetch(slow_submitted["job_id"])  # the slow one finishes
            poll = remote.poll(doomed_submitted["job_id"])
            assert poll["deadline_seconds"] == 0.05
            stats = remote.server_stats()
        assert stats["scheduler"]["expired"] == 1

    def test_deadline_validation(self, tmp_path):
        engine = ExecutionEngine(max_workers=1, reap_scratch=False)
        server = QueryServer(str(tmp_path / "root"), engine=engine,
                             default_deadline=30.0)
        try:
            assert server._deadline_of({}) == 30.0
            assert server._deadline_of({"deadline_seconds": 2}) == 2.0
            assert server._deadline_of({"deadline_seconds": 0}) is None
            assert server._deadline_of({"deadline_seconds": -5}) is None
            # a non-numeric deadline is refused at the door, not replaced
            # by the default
            refused = server.handle({
                "op": "submit", "tenant": "t", "query": [{"op": "read"}],
                "options": {"deadline_seconds": "bogus"},
            })
            assert refused["error"]["code"] == ERR_BAD_REQUEST
            assert "'deadline_seconds'" in refused["error"]["message"]
            assert server.scheduler.stats()["submitted"] == 0
        finally:
            server.close()


# -- torn response frames -----------------------------------------------------


@pytest.mark.chaos
class TestFrameTampering:
    def test_truncated_response_frame(self, server, webpages):
        faults.install_plan(FaultPlan(
            [Fault("service.send_frame", "truncate_frame",
                   match={"op": "stats"})],
        ))
        with _connect(server) as remote:
            with pytest.raises(ProtocolError):
                remote.server_stats()
        assert _server_is_healthy(server, webpages)

    def test_dropped_response_frame(self, server, webpages):
        faults.install_plan(FaultPlan(
            [Fault("service.send_frame", "drop_frame",
                   match={"op": "stats"})],
        ))
        with _connect(server) as remote:
            with pytest.raises(ProtocolError, match="closed"):
                remote.server_stats()
        assert _server_is_healthy(server, webpages)


# -- torn catalog writes ------------------------------------------------------


def _entry(n):
    return IndexEntry(index_id=f"idx-{n}", kind="selection",
                      source_path=f"/data/src{n}.rf",
                      index_path=f"/data/idx{n}")


@pytest.mark.chaos
class TestTornCatalogWrite:
    def test_published_catalog_survives_torn_publish(self, tmp_path):
        directory = str(tmp_path / "catalog")
        catalog = Catalog(directory)
        catalog.register(_entry(1))

        faults.install_plan(FaultPlan([Fault("catalog.write", "torn_write")]))
        with pytest.raises(OSError):
            catalog.register(_entry(2))
        faults.clear_plan()

        # The durable registry never saw the torn bytes: a fresh load
        # parses cleanly and holds exactly the pre-fault state.
        fresh = Catalog(directory)
        assert [e.index_id for e in fresh.sorted_entries()] == ["idx-1"]
        # and the writer is not wedged: the next publish goes through
        fresh.register(_entry(2))
        assert len(Catalog(directory).sorted_entries()) == 2

    def test_torn_write_leaves_no_temp_litter(self, tmp_path):
        directory = tmp_path / "catalog"
        catalog = Catalog(str(directory))
        faults.install_plan(FaultPlan([Fault("catalog.write", "torn_write")]))
        with pytest.raises(OSError):
            catalog.register(_entry(1))
        faults.clear_plan()
        assert not list(directory.glob("*.tmp"))


# -- client backoff -----------------------------------------------------------


class TestClientBackoff:
    def _session(self, busy_retries=3, busy_wait_cap=30.0):
        session = object.__new__(RemoteSession)
        session.busy_retries = busy_retries
        session.busy_wait_cap = busy_wait_cap
        return session

    def test_jittered_backoff_then_raise(self, monkeypatch):
        session = self._session(busy_retries=3)
        calls = []
        sleeps = []

        def busy_call(request):
            calls.append(request)
            raise ServiceError("busy", "queue full", retryable=True)

        session.call = busy_call
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(ServiceError, match="queue full"):
            session._call_with_backoff({"op": "submit"})
        assert len(calls) == 4  # initial + 3 retries
        delay = 0.05
        for s in sleeps:
            # equal jitter: uniformly in [delay/2, delay]
            assert delay / 2 <= s <= delay
            delay = min(delay * 2, 2.0)
        assert len(sleeps) == 3

    def test_non_retryable_error_raises_immediately(self):
        session = self._session()
        calls = []

        def fatal_call(request):
            calls.append(request)
            raise ServiceError("execution-error", "boom", retryable=False)

        session.call = fatal_call
        with pytest.raises(ServiceError, match="boom"):
            session._call_with_backoff({"op": "submit"})
        assert len(calls) == 1

    def test_elapsed_cap_bounds_total_waiting(self, monkeypatch):
        session = self._session(busy_retries=50, busy_wait_cap=10.0)
        calls = []

        def busy_call(request):
            calls.append(request)
            raise ServiceError("busy", "still full", retryable=True)

        session.call = busy_call
        clock = iter([0.0, 100.0])  # started, then way past the cap
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        with pytest.raises(ServiceError, match="still full"):
            session._call_with_backoff({"op": "submit"})
        assert len(calls) == 1  # gave up on elapsed time, not attempts
        assert slept == []
