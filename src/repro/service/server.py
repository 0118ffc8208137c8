"""The query server: one socket front door over the shared engine.

:class:`QueryServer` binds a TCP socket and serves the length-prefixed
JSON protocol of :mod:`repro.service.protocol`.  Each connection gets a
handler thread that decodes frames and dispatches ops; query execution
itself flows through the :class:`~repro.service.scheduler.FairScheduler`
into the process-wide :class:`~repro.engine.service.ExecutionEngine`, so
one persistent worker pool and one analyzer/planner cache serve every
tenant.

Execution model per ``submit``:

1. validate the tenant and decode the op list;
2. compute the result-cache key (canonical ops + input identities +
   tenant catalog generation).  A hit answers immediately from stored
   bytes -- the worker pool is never touched;
3. otherwise admission control: the tenant's bounded queue either
   accepts the job or the client gets a retryable ``busy`` error;
4. the scheduler dispatches it (weighted round-robin over tenants) as a
   *batch* -- of one, unless compatible queries were held in a batching
   window with it -- and :meth:`QueryServer._run_batch` runs the batch:
   each member replays its op list against its tenant's server-side
   ``Session`` (:func:`repro.api.remote.apply_ops`), the lowered plans go
   through :func:`repro.api.session.run_plans` -- the call
   ``Dataset.run`` makes in process -- and each result's rows are
   serialized through the canonical payload codec
   (:mod:`repro.service.payload`).  Because the replayed Dataset *is*
   the in-process query and the codec is a pure function of row values,
   the served bytes are byte-identical to an in-process run by
   construction -- whatever runner or parallelism either side used;
5. the payload is stored in the result cache under the admission-time
   key (skipped for index-building runs, which mutate the catalog).

``poll`` observes a job without blocking; ``fetch`` waits (bounded by a
client-supplied timeout) and returns the payload.  Each tenant's most
recent :data:`MAX_TENANT_JOBS` jobs stay answerable; older finished ones
are forgotten (``unknown-job``) -- this is a front door, not a durable
job store.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.api.remote import apply_ops, read_paths
from repro.api.session import run_plans
from repro.engine.service import ExecutionEngine, get_engine
from repro.exceptions import ReproError
from repro.service.payload import serialize_rows
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_OP,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    classify_error,
    encode_bytes,
    encode_frame,
    error_response,
    is_transient_failure,
    recv_frame,
    send_frame,
)
from repro.service.results import ResultCache, result_cache_key
from repro.service.scheduler import (
    DONE,
    ERROR,
    TERMINAL_STATES,
    AdmissionError,
    FairScheduler,
    QueryJob,
)
from repro.service.tenancy import TenantRegistry, TenantState
from repro.storage import input_identity


#: Jobs the server remembers per tenant.  Each entry pins its result
#: payload, so past this many the oldest *finished* entries are dropped
#: (queued and running jobs never are; admission control bounds those).
MAX_TENANT_JOBS = 256

#: Every key a submit's ``options`` may carry.  Any other key -- a
#: misspelling, or an option this server no longer has -- is refused at
#: the door rather than silently ignored.
RUN_OPTIONS = frozenset({"build_indexes", "parallelism", "deadline_seconds"})


def _refused_option(options: Dict[str, Any]) -> Optional[str]:
    """Why a submit's ``options`` cannot run, or None when they can."""
    unknown = sorted(set(options) - RUN_OPTIONS)
    if unknown:
        return (f"unknown option {unknown[0]!r}; a submit takes "
                f"{', '.join(sorted(RUN_OPTIONS))}")
    deadline = options.get("deadline_seconds")
    if deadline is not None:
        try:
            float(deadline)
        except (TypeError, ValueError):
            return (f"option 'deadline_seconds' must be a number, "
                    f"not {deadline!r}")
    return None


class _JobEntry:
    """Server-side record of one submitted job."""

    def __init__(self, tenant: str, kind: str,
                 job: Optional[QueryJob] = None,
                 payload: Optional[bytes] = None,
                 cached: bool = False):
        self.tenant = tenant
        self.kind = kind
        self.job = job
        self.payload = payload
        self.cached = cached

    @property
    def job_id(self) -> str:
        assert self.job is not None
        return self.job.job_id

    def snapshot(self) -> Dict[str, Any]:
        assert self.job is not None
        view = self.job.snapshot()
        view["kind"] = self.kind
        view["cached"] = self.cached
        return view


class QueryServer:
    """A long-running multi-tenant front door over the execution engine.

    :param data_root: directory holding every tenant's namespace
        (catalog, data, scratch) -- see :mod:`repro.service.tenancy`.
    :param host/port: bind address; port 0 picks a free port (read it
        back from :attr:`address` after :meth:`start`).
    :param max_in_flight / max_queue_depth / weights: scheduler knobs
        (:class:`~repro.service.scheduler.FairScheduler`).
    :param result_cache_bytes: result-cache budget; 0 disables caching.
    :param engine: the shared engine to run on (defaults to the
        process-wide one).
    :param engine_retries: server-side retries of a *read-only* job that
        failed for an engine-transient reason (worker loss, spill
        disk-full) -- see ``docs/robustness.md``.  Writes and index
        builds are never retried automatically (they mutate state).
    :param retry_backoff: base seconds between those retries (doubles
        per retry).
    :param default_deadline: default queue deadline (seconds) applied to
        submissions that don't carry their own ``deadline_seconds``
        option; ``None`` = no deadline.
    :param batch_window_seconds: shared-scan batching window.  When > 0,
        read-only submissions are held up to this long so compatible
        queries -- same concrete input file identity *and* same
        tenant-catalog generation -- can accumulate and execute as one
        fused scan (see :mod:`repro.batch.multiscan`); each member's
        payload stays byte-identical to its solo run.  ``0`` (default)
        disables batching.
    :param session_kwargs: forwarded to each tenant ``Session``
        (e.g. ``parallelism``, ``cost_based``).
    """

    def __init__(self, data_root: str, host: str = "127.0.0.1",
                 port: int = 0, max_in_flight: int = 2,
                 max_queue_depth: int = 16,
                 weights: Optional[Dict[str, int]] = None,
                 result_cache_bytes: Optional[int] = None,
                 engine: Optional[ExecutionEngine] = None,
                 engine_retries: int = 2,
                 retry_backoff: float = 0.05,
                 default_deadline: Optional[float] = None,
                 batch_window_seconds: float = 0.0,
                 **session_kwargs: Any):
        self.data_root = data_root
        self.engine_retries = max(0, engine_retries)
        self.retry_backoff = retry_backoff
        self.default_deadline = default_deadline
        #: transient job failures recovered by server-side retry
        self.jobs_retried = 0
        self._retry_lock = threading.Lock()
        #: scans each tenant did not pay for thanks to shared-scan
        #: groups it participated in (surfaced via the stats op)
        self.scans_saved_by_tenant: Dict[str, int] = {}
        self._engine = engine if engine is not None else get_engine()
        session_kwargs.setdefault("engine", self._engine)
        self.tenants = TenantRegistry(data_root, **session_kwargs)
        self.scheduler = FairScheduler(
            max_in_flight=max_in_flight,
            max_queue_depth=max_queue_depth,
            weights=weights,
            batch_window_seconds=batch_window_seconds,
        )
        if result_cache_bytes is None:
            self.results: Optional[ResultCache] = ResultCache()
        elif result_cache_bytes > 0:
            self.results = ResultCache(capacity_bytes=result_cache_bytes)
        else:
            self.results = None
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: list = []
        #: tenant -> job id -> entry, oldest first
        self._jobs: Dict[str, Dict[str, _JobEntry]] = {}
        self._cached_seq = itertools.count(1)
        self._jobs_lock = threading.Lock()
        self._closing = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- valid after :meth:`start`."""
        if self._sock is None:
            raise RuntimeError("server is not started")
        return self._sock.getsockname()[:2]

    def start(self) -> "QueryServer":
        """Bind, listen, and serve connections on a background thread."""
        if self._started:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True
        return self

    def close(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Drain and shut down (idempotent).

        Stops accepting, lets queued + running jobs finish (bounded by
        ``drain_timeout``), then releases tenant sessions and the shared
        engine's pools.  The engine's :meth:`~repro.engine.service.
        ExecutionEngine.shutdown` is idempotent and re-entrant, so this
        composes with the interpreter's own atexit hook.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        if self._sock is not None:
            # Closing a listening socket does not wake a thread blocked
            # in accept() on Linux; shutting it down first does.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not every platform shuts down a listener
            try:
                self._sock.close()
            except OSError:
                pass
        self.scheduler.drain(timeout=drain_timeout)
        self.scheduler.shutdown(wait=True)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in list(self._conn_threads):
            thread.join(timeout=5.0)
        self.tenants.close()
        self._engine.shutdown()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._closing.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # socket closed: shutting down
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="service-conn", daemon=True,
            )
            self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = recv_frame(conn)
                except ProtocolError as exc:
                    self._try_send(conn, error_response(
                        ERR_BAD_REQUEST, str(exc)))
                    return
                if request is None:
                    return  # clean EOF
                try:
                    response = self.handle(request)
                except Exception as exc:  # noqa: BLE001 -- 1 bad frame != dead server
                    response = error_response(
                        ERR_BAD_REQUEST, f"internal error: {exc}"
                    )
                try:
                    blob = encode_frame(response)
                    fault = faults.fault_point(
                        "service.send_frame", op=request.get("op")
                    )
                    if fault is not None:
                        # Chaos-test hook: tear this response the way a
                        # crashed or partitioned server would.
                        if fault.action == "truncate_frame":
                            conn.sendall(blob[:max(1, len(blob) // 2)])
                        return  # drop_frame sends nothing at all
                    conn.sendall(blob)
                except (ProtocolError, OSError):
                    return

    @staticmethod
    def _try_send(conn: socket.socket, message: Dict[str, Any]) -> None:
        try:
            send_frame(conn, message)
        except (ProtocolError, OSError):
            pass

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Process one decoded request frame (also the in-process entry
        point the tests drive without sockets)."""
        op = request.get("op")
        if op == "hello":
            return self._op_hello(request)
        if self._closing.is_set():
            return error_response(
                ERR_SHUTTING_DOWN, "server is draining", retryable=False
            )
        handlers = {
            "submit": self._op_submit,
            "poll": self._op_poll,
            "fetch": self._op_fetch,
            "explain": self._op_explain,
            "catalog": self._op_catalog,
            "stats": self._op_stats,
        }
        handler = handlers.get(op)
        if handler is None:
            return error_response(ERR_UNKNOWN_OP, f"unknown op {op!r}")
        try:
            return handler(request)
        except (AdmissionError,) as exc:
            return error_response(ERR_BUSY, str(exc),
                                  retryable=exc.retryable)
        except ReproError as exc:
            return error_response(ERR_BAD_REQUEST, str(exc))

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "server": "repro-query-service",
            "max_frame_bytes": MAX_FRAME_BYTES,
        }

    def _tenant_of(self, request: Dict[str, Any]) -> TenantState:
        return self.tenants.get(request.get("tenant"))

    # -- submit --------------------------------------------------------------

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        state = self._tenant_of(request)
        ops = request.get("query")
        if not isinstance(ops, list) or not ops:
            return error_response(
                ERR_BAD_REQUEST, "submit needs a non-empty 'query' op list"
            )
        options = request.get("options") or {}
        if not isinstance(options, dict):
            return error_response(ERR_BAD_REQUEST, "'options' must be an object")
        refused = _refused_option(options)
        if refused is not None:
            return error_response(ERR_BAD_REQUEST, refused)
        write_spec = request.get("write")
        if write_spec is not None:
            return self._submit_write(state, ops, options, write_spec)
        build_indexes = bool(options.get("build_indexes"))

        cache_key = None
        if self.results is not None and not build_indexes:
            cache_key = result_cache_key(
                state.tenant, ops, state.catalog.generation
            )
            payload = self.results.get(cache_key)
            if payload is not None:
                entry = self._register_cached(state.tenant, payload)
                return {
                    "ok": True,
                    "job_id": entry.job_id,
                    "state": DONE,
                    "cached": True,
                }

        run_options = {
            "build_indexes": build_indexes,
            "parallelism": options.get("parallelism"),
        }
        batch_key = None
        if self.scheduler.batch_window_seconds > 0 and not build_indexes:
            batch_key = self._batch_key_of(state, ops, run_options)
        job = self.scheduler.submit(
            state.tenant, self._run_batch, label=request.get("label", ""),
            deadline_seconds=self._deadline_of(options),
            batch_key=batch_key,
            payload=(state, ops, run_options, cache_key),
        )
        self._register(_JobEntry(state.tenant, "query", job=job))
        return {"ok": True, "job_id": job.job_id, "state": job.state,
                "cached": False}

    def _batch_key_of(self, state: TenantState, ops: list,
                      run_options: Dict[str, Any]) -> Optional[Tuple]:
        """Shared-scan batching identity, or None if unbatchable.

        Two submissions may batch only when they scan the same concrete
        file bytes (one :func:`~repro.storage.input_identity`), their
        tenants' catalogs are at the same generation -- a tenant whose
        catalog just changed may plan the same query differently, so it
        is not grouped with peers on the older generation -- *and* they
        asked for the same run options, so no member ever runs under
        another member's ``parallelism``.  Grouping is re-validated after
        per-tenant planning anyway
        (:func:`repro.batch.multiscan.plan_shared_groups`); this key just
        decides who is worth holding in the window together.
        """
        paths = read_paths(ops)
        if len(paths) != 1:
            return None
        identity = input_identity(paths[0])
        if identity.kind != "file":
            return None  # partitioned dataset dirs take their own path
        return identity + (
            state.catalog.generation, run_options["parallelism"],
        )

    def _run_batch(self, payloads: List[Tuple]) -> List[bytes]:
        """Execute one scheduler dispatch: N >= 1 queries, one call.

        Every member lowers, plans and serializes inside its *own*
        tenant Session (locks held for the whole run, acquired in
        sorted tenant order), so rows never cross tenant namespaces;
        what members of a batch larger than one may share is only the
        one pass over their common input file, decided inside
        :func:`~repro.api.session.run_plans`.  The run options are the
        leader's, which the batch key made every member's.  Returns one
        serialized payload per member, aligned.
        """
        # One lock per distinct tenant, however many of its queries
        # landed in the batch.
        states = {id(p[0]): p[0] for p in payloads}.values()
        run_options = payloads[0][2]

        def run() -> list:
            return run_plans(
                [(state.session,
                  state.session.lower_for_run(apply_ops(state.session, ops)))
                 for state, ops, _options, _key in payloads],
                **run_options,
            )

        results = self._run_with_retries(
            run,
            [s.lock for s in sorted(states, key=lambda s: s.tenant)],
            # Index-building runs mutate the catalog, so only pure reads
            # are eligible for automatic server-side retry.
            0 if run_options["build_indexes"] else self.engine_retries,
        )
        outputs: List[bytes] = []
        for (state, _ops, _options, cache_key), result in zip(payloads,
                                                              results):
            payload = serialize_rows(result.rows)
            if self.results is not None and cache_key is not None:
                # Stored under the admission-time key: if the catalog
                # generation advanced mid-run, future lookups (computed
                # against the newer generation) simply never match.
                self.results.put(cache_key, payload)
            saved = result.stages[0].outcome.result.metrics.scans_saved
            if saved:
                with self._retry_lock:
                    self.scans_saved_by_tenant[state.tenant] = (
                        self.scans_saved_by_tenant.get(state.tenant, 0)
                        + saved
                    )
            outputs.append(payload)
        return outputs

    def _deadline_of(self, options: Dict[str, Any]) -> Optional[float]:
        deadline = options.get("deadline_seconds", self.default_deadline)
        if deadline is None:
            return None
        deadline = float(deadline)
        return deadline if deadline > 0 else None

    def _run_with_retries(self, thunk: Any,
                          locks: Sequence[threading.Lock],
                          retries: int) -> Any:
        """Run ``thunk`` holding ``locks`` (acquired in the order given),
        retrying engine-transient failures with exponential backoff.

        The worker pool already recovers individual task failures; this
        outer loop catches whole-*job* infrastructure failures that leak
        past it (recovery budget exhausted, pool broken with recovery
        disabled).  Deterministic query errors are never retried --
        :func:`~repro.service.protocol.is_transient_failure` decides.
        """
        attempt = 0
        while True:
            try:
                with contextlib.ExitStack() as stack:
                    for lock in locks:
                        stack.enter_context(lock)
                    return thunk()
            except Exception as exc:  # noqa: BLE001 -- filtered below
                if attempt >= retries or not is_transient_failure(exc):
                    raise
                attempt += 1
                with self._retry_lock:
                    self.jobs_retried += 1
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))

    def _submit_write(self, state: TenantState, ops: list,
                      options: Dict[str, Any],
                      write_spec: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(write_spec, dict) or "path" not in write_spec:
            return error_response(
                ERR_BAD_REQUEST, "'write' must be an object with 'path'"
            )
        target = state.resolve_write_path(write_spec["path"])

        def run_write() -> bytes:
            with state.lock:
                dataset = apply_ops(state.session, ops)
                state.session.write(
                    dataset, target,
                    build_indexes=bool(options.get("build_indexes")),
                    parallelism=options.get("parallelism"),
                    partition_by=write_spec.get("partition_by"),
                    num_partitions=write_spec.get("num_partitions"),
                )
            return serialize_rows({"path": target})

        # Writes are not retried server-side: a failed write may have
        # partially mutated the tenant data dir, and replaying it blind
        # could double-apply; the client decides.
        job = self.scheduler.submit(
            state.tenant, run_write, label="write",
            deadline_seconds=self._deadline_of(options),
        )
        self._register(_JobEntry(state.tenant, "write", job=job))
        return {"ok": True, "job_id": job.job_id, "state": job.state,
                "cached": False, "path": target}

    # -- job registry --------------------------------------------------------

    def _register(self, entry: _JobEntry) -> None:
        with self._jobs_lock:
            entries = self._jobs.setdefault(entry.tenant, {})
            entries[entry.job_id] = entry
            excess = len(entries) - MAX_TENANT_JOBS
            if excess > 0:
                # oldest first, and the oldest are almost always finished
                finished = (job_id for job_id, e in entries.items()
                            if e.job.state in TERMINAL_STATES)
                for job_id in list(itertools.islice(finished, excess)):
                    del entries[job_id]

    def _register_cached(self, tenant: str, payload: bytes) -> _JobEntry:
        """A synthetic already-done job for a result-cache hit."""
        job = QueryJob(f"c{next(self._cached_seq)}", tenant, lambda _: [])
        job.state = DONE
        job.started_at = job.submitted_at
        job.finished_at = job.submitted_at
        job._done.set()
        entry = _JobEntry(tenant, "query", job=job, payload=payload,
                          cached=True)
        self._register(entry)
        return entry

    def _lookup(self, request: Dict[str, Any]) -> Optional[_JobEntry]:
        with self._jobs_lock:
            return self._jobs.get(request.get("tenant"), {}).get(
                request.get("job_id"))

    # -- poll / fetch --------------------------------------------------------

    def _op_poll(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry = self._lookup(request)
        if entry is None:
            return error_response(
                ERR_UNKNOWN_JOB,
                f"no job {request.get('job_id')!r} for this tenant",
            )
        view = entry.snapshot()
        assert entry.job is not None
        position = self.scheduler.queue_position(entry.job)
        if position is not None:
            view["queue_position"] = position
        view["ok"] = True
        return view

    def _op_fetch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        entry = self._lookup(request)
        if entry is None:
            return error_response(
                ERR_UNKNOWN_JOB,
                f"no job {request.get('job_id')!r} for this tenant",
            )
        assert entry.job is not None
        timeout = request.get("timeout", 60.0)
        entry.job.wait(timeout=timeout)
        if entry.job.state not in TERMINAL_STATES:
            view = entry.snapshot()
            view["ok"] = True
            return view
        if entry.job.state == ERROR:
            error = entry.job.error
            assert error is not None
            code, retryable = classify_error(error)
            return error_response(code, str(error), retryable=retryable)
        payload = entry.payload
        if payload is None:
            payload = entry.job.result
        return {
            "ok": True,
            "job_id": entry.job_id,
            "state": DONE,
            "cached": entry.cached,
            "payload": encode_bytes(payload),
        }

    # -- explain / catalog / stats -------------------------------------------

    def _op_explain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        state = self._tenant_of(request)
        ops = request.get("query")
        if not isinstance(ops, list) or not ops:
            return error_response(
                ERR_BAD_REQUEST, "explain needs a non-empty 'query' op list"
            )
        with state.lock:
            dataset = apply_ops(state.session, ops)
            text = state.session.explain(dataset)
        return {"ok": True, "explain": text}

    def _op_catalog(self, request: Dict[str, Any]) -> Dict[str, Any]:
        state = self._tenant_of(request)
        action = request.get("action", "list")
        catalog = state.catalog
        if action == "list":
            return {
                "ok": True,
                "generation": catalog.generation,
                "indexes": [
                    dict(e.to_dict(), stale=not e.built_from(
                        input_identity(e.source_path)))
                    for e in catalog.sorted_entries()
                ],
                "datasets": [
                    e.to_dict() for e in catalog.sorted_datasets()
                ],
            }
        if action == "build-indexes":
            ops = request.get("query")
            if not isinstance(ops, list) or not ops:
                return error_response(
                    ERR_BAD_REQUEST,
                    "build-indexes needs a non-empty 'query' op list",
                )
            allowed = request.get("allowed_kinds")

            def run_build() -> bytes:
                with state.lock:
                    dataset = apply_ops(state.session, ops)
                    built = state.session.build_indexes(
                        dataset, allowed_kinds=allowed
                    )
                return serialize_rows(
                    [entry.to_dict() for entry in built]
                )

            job = self.scheduler.submit(
                state.tenant, run_build, label="build-indexes"
            )
            self._register(_JobEntry(state.tenant, "build-indexes", job=job))
            return {"ok": True, "job_id": job.job_id, "state": job.state,
                    "cached": False}
        if action == "drop-index":
            index_id = request.get("index_id")
            catalog.remove(index_id)
            return {"ok": True, "generation": catalog.generation}
        return error_response(
            ERR_BAD_REQUEST, f"unknown catalog action {action!r}"
        )

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "ok": True,
            "scheduler": self.scheduler.stats(),
            "tenants": self.tenants.names(),
            "result_cache": (
                self.results.stats() if self.results is not None else None
            ),
            "resilience": {
                "engine_retries": self.engine_retries,
                "jobs_retried": self.jobs_retried,
                "default_deadline": self.default_deadline,
            },
            "shared_scans": {
                "batch_window_seconds": (
                    self.scheduler.batch_window_seconds
                ),
                "scans_saved_by_tenant": dict(self.scans_saved_by_tenant),
            },
        }
        try:
            stats["engine"] = self._engine.stats()
        except Exception:  # noqa: BLE001 -- stats are best-effort
            pass
        return stats
