"""Admission control and weighted fair scheduling for the query server.

The engine's :class:`~repro.engine.pool.WorkerPool` already makes
*parallelism* safe to share -- each job's tasks are throttled to its own
worker count.  What it does not decide is *whose job runs next* when many
tenants submit at once.  This module adds that policy layer in front of
the pool:

* **admission control** -- each tenant has a bounded submission queue;
  a submit that finds the queue full is rejected immediately with a
  *retryable* :class:`AdmissionError` (clients back off and resubmit)
  instead of being buffered without bound.  Rejecting at the door keeps
  the server's memory and tail latency bounded under overload.
* **weighted round-robin draining** -- queued jobs enter a capped
  in-flight window (``max_in_flight``) in round-robin order over
  tenants; a tenant with weight *w* takes up to *w* consecutive turns
  per cycle.  A tenant that floods its queue therefore delays only its
  own backlog: every other tenant still gets its turn each cycle, so no
  tenant starves (the Polynesia-grounded requirement that concurrent
  workloads sharing one engine must not break each other).

The scheduler is policy only: it decides dispatch order, then runs each
dispatch -- always a *batch* of jobs, of size one unless compatible
peers were held together -- on a small thread pool, and the batch
function fans its map/reduce tasks out on the shared process-wide worker
pool as usual.  It knows nothing about queries -- the server hands it
opaque callables and payloads -- which keeps it independently testable.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.exceptions import DeadlineExceededError, ReproError

#: Job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"

TERMINAL_STATES = (DONE, ERROR)


class AdmissionError(ReproError):
    """A submission was rejected at the door (queue full / draining)."""

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class QueryJob:
    """One scheduled unit of work and its observable lifecycle."""

    def __init__(self, job_id: str, tenant: str,
                 fn: Callable[[List[Any]], List[Any]], payload: Any = None,
                 label: str = "",
                 deadline_seconds: Optional[float] = None,
                 batch_key: Optional[Any] = None):
        self.job_id = job_id
        self.tenant = tenant
        self.label = label
        #: the batch function: payloads of the jobs dispatched together
        #: (this job's first when it leads) -> one result per payload
        self._fn = fn
        self.payload = payload
        self.state = QUEUED
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: seconds after submission by which the job must have been
        #: dispatched; expired jobs fail with DeadlineExceededError
        #: instead of occupying an in-flight slot.
        self.deadline_seconds = deadline_seconds
        #: batching identity: jobs with equal keys may execute together
        #: in one dispatch (see FairScheduler batch_window_seconds)
        self.batch_key = batch_key
        #: dispatch is delayed until this monotonic instant so compatible
        #: peers can accumulate (None = dispatch as soon as a slot frees)
        self.hold_until: Optional[float] = None
        self._done = threading.Event()

    def deadline_expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_seconds is None:
            return False
        if now is None:
            now = time.monotonic()
        return now - self.submitted_at > self.deadline_seconds

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe view of the job for poll responses."""
        view: Dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
        }
        if self.label:
            view["label"] = self.label
        if self.queue_seconds is not None:
            view["queue_seconds"] = round(self.queue_seconds, 6)
        if self.run_seconds is not None:
            view["run_seconds"] = round(self.run_seconds, 6)
        if self.deadline_seconds is not None:
            view["deadline_seconds"] = self.deadline_seconds
        if self.error is not None:
            view["error_message"] = str(self.error)
        return view


class FairScheduler:
    """Bounded per-tenant queues drained weighted-round-robin.

    :param max_in_flight: jobs running concurrently across all tenants
        (each runs on one scheduler thread and fans tasks out to the
        shared worker pool).
    :param max_queue_depth: queued (not yet running) jobs each tenant
        may hold; further submits raise a retryable
        :class:`AdmissionError`.
    :param weights: tenant name -> integer weight (default 1).  A tenant
        with weight 2 gets two dispatch turns per round-robin cycle.
    :param batch_window_seconds: admission delay for *batchable* jobs
        (those submitted with a ``batch_key``).  A batchable job is held
        up to this long so compatible peers -- same ``batch_key``, any
        tenant -- can accumulate; at dispatch every queued compatible
        job joins it in **one** in-flight slot, executed by the leader's
        batch function (the server runs the group as a shared scan).  Each
        joining member is still charged its own fairness turn (credit
        and ``dispatched`` count), so a tenant cannot launder load
        through a peer's batch.  ``0`` (default) disables batching:
        batchable jobs dispatch like any other.
    """

    def __init__(self, max_in_flight: int = 2, max_queue_depth: int = 16,
                 weights: Optional[Dict[str, int]] = None,
                 batch_window_seconds: float = 0.0):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if batch_window_seconds < 0:
            raise ValueError("batch_window_seconds must be >= 0")
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.batch_window_seconds = batch_window_seconds
        self._weights = dict(weights or {})
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queues: Dict[str, Deque[QueryJob]] = {}
        #: round-robin order: tenants in first-seen order
        self._order: List[str] = []
        self._rr_index = 0
        self._credits: Dict[str, int] = {}
        self._in_flight = 0
        self._seq = itertools.count(1)
        self._draining = False
        self._pool = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="service-query"
        )
        # Counters (exposed via stats()).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.expired = 0
        self.batch_groups = 0
        self.batched = 0
        self._dispatched: Dict[str, int] = {}
        #: earliest hold_until among jobs _next_job skipped this pump
        self._hold_wakeup: Optional[float] = None
        self._hold_timer: Optional[threading.Timer] = None

    # -- admission -----------------------------------------------------------

    def submit(self, tenant: str, fn: Callable[..., Any],
               label: str = "",
               deadline_seconds: Optional[float] = None,
               batch_key: Optional[Any] = None,
               payload: Any = None) -> QueryJob:
        """Queue one job for ``tenant``; dispatch if a slot is free.

        ``deadline_seconds`` bounds how long the job may sit queued: a
        job whose deadline passes before dispatch fails with
        :class:`~repro.exceptions.DeadlineExceededError` rather than
        running late (the client already gave up on the answer).
        Running jobs are not preempted -- their worker-level tasks are
        bounded by the engine's own task deadlines.

        Without a ``payload``, ``fn`` is a thunk and its return value is
        the job's result.  With one, ``fn`` is a *batch function*: it
        receives the payloads of every job dispatched together (in
        dispatch order) and must return one result per payload, aligned;
        an exception fails all members.  Jobs dispatch together when
        their ``batch_key`` is equal and they were queued inside the
        scheduler's batching window; the leader's ``fn`` runs the batch.
        A job dispatched alone -- no key, window disabled, or no
        compatible peer -- is a batch of one through the same call.

        :raises AdmissionError: queue full (retryable) or scheduler
            draining (not retryable).
        """
        if batch_key is not None and payload is None:
            raise ValueError("batch_key requires a payload")
        batch_fn = fn if payload is not None else (lambda _payloads: [fn()])
        with self._lock:
            if self._draining:
                self.rejected += 1
                raise AdmissionError(
                    "scheduler is draining; no new submissions",
                    retryable=False,
                )
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._order.append(tenant)
                self._credits[tenant] = self._weight(tenant)
            if len(queue) >= self.max_queue_depth:
                self.rejected += 1
                raise AdmissionError(
                    f"tenant {tenant!r} queue is full "
                    f"({self.max_queue_depth} jobs); retry with backoff"
                )
            job = QueryJob(f"q{next(self._seq)}", tenant, batch_fn, payload,
                           label=label, deadline_seconds=deadline_seconds,
                           batch_key=batch_key)
            if batch_key is not None and self.batch_window_seconds > 0:
                job.hold_until = (
                    job.submitted_at + self.batch_window_seconds
                )
            queue.append(job)
            self.submitted += 1
            self._pump()
            return job

    def _weight(self, tenant: str) -> int:
        return max(1, int(self._weights.get(tenant, 1)))

    # -- dispatch ------------------------------------------------------------

    def _pump(self) -> None:
        """Fill free in-flight slots in weighted round-robin order.

        Caller holds the lock.  Fairness invariant: consecutive picks
        stay on one tenant only while it has credits; when its credits
        run out the pointer advances, and when no queued tenant has
        credits left everyone's credits are replenished -- one "cycle".
        A tenant with weight w is therefore dispatched at most w times
        per cycle while any other tenant is waiting.
        """
        self._hold_wakeup = None
        while self._in_flight < self.max_in_flight:
            job = self._next_job()
            if job is None:
                break
            if job.deadline_expired():
                # Expired while queued: fail it without burning a slot.
                self._fail_expired(job)
                continue
            members = [job]
            if job.batch_key is not None:
                members.extend(self._collect_batch(job))
            self._in_flight += 1
            now = time.monotonic()
            for member in members:
                member.state = RUNNING
                member.started_at = now
                self._dispatched[member.tenant] = (
                    self._dispatched.get(member.tenant, 0) + 1
                )
                if member is not job:
                    # Joining a batch is still a fairness turn: the
                    # member's tenant pays a credit exactly as if the
                    # job had been picked round-robin.
                    self._credits[member.tenant] = (
                        self._credits.get(member.tenant, 0) - 1
                    )
            if len(members) > 1:
                self.batch_groups += 1
                self.batched += len(members)
            self._pool.submit(self._run_batch, members)
        self._schedule_hold_wakeup()

    def _fail_expired(self, job: QueryJob) -> None:
        """Fail a queued job whose deadline passed (lock held)."""
        job.error = DeadlineExceededError(
            f"job {job.job_id} waited "
            f"{time.monotonic() - job.submitted_at:.3f}s in queue, "
            f"past its {job.deadline_seconds}s deadline"
        )
        job.state = ERROR
        job.finished_at = time.monotonic()
        self.failed += 1
        self.expired += 1
        job._done.set()
        self._idle.notify_all()

    def _collect_batch(self, leader: QueryJob) -> List[QueryJob]:
        """Pull every queued job compatible with ``leader`` (lock held).

        Compatible peers join regardless of how long they have been
        queued -- they ride the leader's elapsed window.  Peers whose
        deadline already passed fail through the expired path instead of
        joining.
        """
        members: List[QueryJob] = []
        for tenant in self._order:
            queue = self._queues.get(tenant)
            if not queue:
                continue
            kept: Deque[QueryJob] = deque()
            for queued in queue:
                if queued.batch_key != leader.batch_key:
                    kept.append(queued)
                elif queued.deadline_expired():
                    self._fail_expired(queued)
                else:
                    members.append(queued)
            self._queues[tenant] = kept
        return members

    def _schedule_hold_wakeup(self) -> None:
        """Arrange a re-pump when the earliest held job's window ends."""
        wakeup = self._hold_wakeup
        if wakeup is None or self._draining:
            return
        self._hold_wakeup = None
        if self._hold_timer is not None:
            self._hold_timer.cancel()
        delay = max(0.0, wakeup - time.monotonic()) + 0.001
        timer = threading.Timer(delay, self._on_hold_wakeup)
        timer.daemon = True
        self._hold_timer = timer
        timer.start()

    def _on_hold_wakeup(self) -> None:
        with self._lock:
            self._hold_timer = None
            self._pump()

    def _next_job(self) -> Optional[QueryJob]:
        """The next job under weighted round-robin (lock held)."""
        if not self._order:
            return None
        now = time.monotonic()
        for attempt in range(2):
            n = len(self._order)
            for step in range(n):
                idx = (self._rr_index + step) % n
                tenant = self._order[idx]
                queue = self._queues.get(tenant)
                if not queue:
                    continue
                head = queue[0]
                if (head.hold_until is not None and now < head.hold_until
                        and not self._draining):
                    # Held for its batching window (FIFO per tenant, so
                    # the whole queue waits -- the window is short).
                    # Remember the earliest release so _pump can arrange
                    # a timer; a drain dispatches immediately instead.
                    if (self._hold_wakeup is None
                            or head.hold_until < self._hold_wakeup):
                        self._hold_wakeup = head.hold_until
                    continue
                if self._credits.get(tenant, 0) <= 0:
                    continue
                self._credits[tenant] -= 1
                # Stay on this tenant while it has credit; else move on.
                self._rr_index = idx if self._credits[tenant] > 0 else (
                    (idx + 1) % n
                )
                return self._queues[tenant].popleft()
            if attempt == 0:
                if not any(self._queues.get(t) for t in self._order):
                    return None
                # Queued work exists but every queued tenant is out of
                # credits: start a new cycle.
                for tenant in self._order:
                    self._credits[tenant] = self._weight(tenant)
        return None

    def _run_batch(self, members: List[QueryJob]) -> None:
        """Execute one dispatched batch in a single in-flight slot."""
        try:
            results = members[0]._fn([member.payload for member in members])
            if len(results) != len(members):
                raise ReproError(
                    f"batch function returned {len(results)} results for "
                    f"{len(members)} batched jobs"
                )
            for member, result in zip(members, results):
                member.result = result
                member.state = DONE
        except BaseException as exc:  # noqa: BLE001 -- surfaced via poll/fetch
            for member in members:
                if member.state == RUNNING:
                    member.error = exc
                    member.state = ERROR
        finally:
            now = time.monotonic()
            with self._lock:
                self._in_flight -= 1
                for member in members:
                    member.finished_at = now
                    if member.state == DONE:
                        self.completed += 1
                    else:
                        self.failed += 1
                # Account first, signal second: a client that fetches
                # and then asks for stats must find its job counted.
                for member in members:
                    member._done.set()
                self._pump()
                self._idle.notify_all()

    # -- introspection -------------------------------------------------------

    def queue_position(self, job: QueryJob) -> Optional[int]:
        """0-based position in its tenant queue; None once dispatched."""
        with self._lock:
            queue = self._queues.get(job.tenant)
            if not queue:
                return None
            for i, queued in enumerate(queue):
                if queued is job:
                    return i
            return None

    def backlog(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return len(self._queues.get(tenant, ()))
            return sum(len(q) for q in self._queues.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "max_in_flight": self.max_in_flight,
                "max_queue_depth": self.max_queue_depth,
                "in_flight": self._in_flight,
                "backlog": sum(len(q) for q in self._queues.values()),
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "expired": self.expired,
                "batch_window_seconds": self.batch_window_seconds,
                "batch_groups": self.batch_groups,
                "batched": self.batched,
                "dispatched_by_tenant": dict(self._dispatched),
                "weights": {
                    t: self._weight(t) for t in self._order
                },
            }

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for queued + running jobs to finish."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            self._draining = True
            # Held batchable jobs dispatch immediately under drain
            # (_next_job ignores hold_until once draining).
            self._pump()
            while self._in_flight or any(
                self._queues.get(t) for t in self._order
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._draining = True
            if self._hold_timer is not None:
                self._hold_timer.cancel()
                self._hold_timer = None
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
