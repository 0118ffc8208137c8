"""Deterministic fault injection for the execution fabric and service.

Fault tolerance that is only exercised by real hardware failures is
fault tolerance that is never tested.  This module gives the repo one
switchboard for *injecting* the failures the recovery machinery claims
to survive -- a worker killed mid-map-task, a hung reducer, a disk-full
spill, a torn catalog write, a dropped or truncated service frame -- so
tests, CI and benchmarks can prove recovery deterministically.

A :class:`FaultPlan` is a list of :class:`Fault` specs.  Production code
calls :func:`fault_point` at its injection points::

    fault_point("pool.map_task", task_index=i, attempt=a, job=name)

With no plan active this is a dict-build plus one ``None`` check -- the
fault-free path stays effectively free.  With a plan active, the first
spec whose ``point`` and ``match`` fields agree with the call's context
*claims a firing token* and performs its action.

**Determinism.** Each fault fires at most ``times`` times, enforced by
``O_CREAT | O_EXCL`` token files under the plan's ``token_dir`` -- an
atomic claim that holds across every worker process of a job, so "kill
the worker running map task 2, once" means exactly once even though the
retry runs in a different (respawned) process.  Plans travel to workers
inside the pickled job state (see
:class:`~repro.engine.pool._JobState`), not through ambient globals, so
long-lived pool workers forked before the plan existed still see it.

**Actions** (``Fault.action``):

``kill``            SIGKILL the current process (workers only -- never
                    fires in the process that installed the plan, so a
                    fault point reached there cannot shoot the submitter).
``hang``            sleep ``seconds`` (workers only); pairs with the
                    pool's task deadlines.
``transient``       raise :class:`~repro.exceptions.TransientTaskError`
                    (the retryable infra-failure class).
``disk_full``       raise ``OSError(ENOSPC)``.
``io_error``        raise ``OSError(EIO)``.
``torn_write``      truncate the file named by the call's ``path``
                    context to half its bytes, then raise
                    ``OSError(EIO)`` -- a write that died mid-stream.
``drop_frame`` / ``truncate_frame``
                    *caller-handled*: :func:`fault_point` returns the
                    matched :class:`Fault` and the call site performs
                    the tampering (the query server uses these to tear
                    its own response frames).

Activation, in precedence order: a plan installed with
:func:`install_plan` (tests), then the ``REPRO_FAULTS`` environment
variable holding :meth:`FaultPlan.to_json` output (CLI / CI chaos runs).
Worker task bodies additionally :func:`activate` the plan carried by
their job state for the duration of the task.

See ``docs/robustness.md`` for the recovery semantics these faults
exercise.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.exceptions import JobConfigError, TransientTaskError

#: Environment variable holding a JSON-encoded plan (CI chaos runs).
ENV_VAR = "REPRO_FAULTS"

#: Actions fault_point() performs itself.
SELF_ACTIONS = frozenset(
    {"kill", "hang", "transient", "disk_full", "io_error", "torn_write"}
)
#: Actions returned to the call site to perform (frame tampering).
CALLER_ACTIONS = frozenset({"drop_frame", "truncate_frame"})

#: Actions that terminate or wedge the whole process; they only fire in
#: worker processes (``pid != plan.owner_pid``) so a fault point reached
#: in the submitting process can never kill or hang it.
_PROCESS_FATAL = frozenset({"kill", "hang"})


@dataclass
class Fault:
    """One injection spec: where, what, how often."""

    #: injection-point name, e.g. ``"pool.map_task"`` or
    #: ``"shuffle.spill"`` (see the module docstring for the registry).
    point: str
    #: one of :data:`SELF_ACTIONS` | :data:`CALLER_ACTIONS`.
    action: str
    #: context keys that must equal the call site's values to fire,
    #: e.g. ``{"task_index": 2, "attempt": 0}``.  Empty matches any call.
    match: Dict[str, Any] = field(default_factory=dict)
    #: maximum number of firings, enforced across processes.
    times: int = 1
    #: sleep duration for ``hang``.
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in SELF_ACTIONS | CALLER_ACTIONS:
            raise JobConfigError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{sorted(SELF_ACTIONS | CALLER_ACTIONS)}"
            )
        if self.times < 1:
            raise JobConfigError("fault times must be >= 1")

    def matches(self, ctx: Dict[str, Any]) -> bool:
        return all(ctx.get(key) == value for key, value in self.match.items())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point,
            "action": self.action,
            "match": dict(self.match),
            "times": self.times,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Fault":
        return cls(
            point=raw["point"],
            action=raw["action"],
            match=dict(raw.get("match") or {}),
            times=int(raw.get("times", 1)),
            seconds=float(raw.get("seconds", 3600.0)),
        )


@dataclass
class FaultPlan:
    """A set of faults plus the shared state that makes them exactly-N.

    :param faults: the specs, matched in order (first claim wins).
    :param token_dir: directory for cross-process firing tokens.  Without
        one, firings are counted per process only -- fine for
        single-process points (the service frame faults), wrong for
        worker kills whose retries run elsewhere.
    :param owner_pid: the installing process; process-fatal actions
        (kill/hang) never fire here.
    """

    faults: List[Fault]
    token_dir: Optional[str] = None
    owner_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        if self.token_dir is not None:
            os.makedirs(self.token_dir, exist_ok=True)
        #: per-process fallback firing counts (no token_dir)
        self._local_counts: Dict[int, int] = {}

    def to_json(self) -> str:
        return json.dumps({
            "faults": [f.to_dict() for f in self.faults],
            "token_dir": self.token_dir,
            "owner_pid": self.owner_pid,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        raw = json.loads(text)
        return cls(
            faults=[Fault.from_dict(f) for f in raw.get("faults", [])],
            token_dir=raw.get("token_dir"),
            owner_pid=int(raw.get("owner_pid", 0)),
        )

    # -- firing-token claims --------------------------------------------------

    def claim(self, index: int) -> bool:
        """Atomically claim one firing of fault ``index`` (False = spent)."""
        fault = self.faults[index]
        if self.token_dir is None:
            used = self._local_counts.get(index, 0)
            if used >= fault.times:
                return False
            self._local_counts[index] = used + 1
            return True
        for n in range(fault.times):
            token = os.path.join(self.token_dir, f"fault{index}-{n}")
            try:
                fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def fired(self, index: int = 0) -> int:
        """How many times fault ``index`` has fired (for assertions)."""
        fault = self.faults[index]
        if self.token_dir is None:
            return self._local_counts.get(index, 0)
        return sum(
            1 for n in range(fault.times)
            if os.path.exists(os.path.join(self.token_dir, f"fault{index}-{n}"))
        )

    # Pickle support: local counts are per-process by design.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_local_counts"] = {}
        return state


# -- plan activation ----------------------------------------------------------

_LOCK = threading.Lock()
_INSTALLED: Optional[FaultPlan] = None
#: cache of the parsed ENV_VAR plan, keyed by its raw string
_ENV_CACHE: Optional[tuple] = None


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) the process-wide plan."""
    global _INSTALLED
    with _LOCK:
        _INSTALLED = plan


def clear_plan() -> None:
    install_plan(None)


def current_plan() -> Optional[FaultPlan]:
    """The active plan: installed > ``REPRO_FAULTS`` env > none."""
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    with _LOCK:
        if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
            _ENV_CACHE = (raw, FaultPlan.from_json(raw))
        return _ENV_CACHE[1]


@contextmanager
def activate(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Temporarily install ``plan`` (no-op for ``None``).

    Worker task bodies wrap themselves in this so the plan pickled into
    the job state governs the task, wherever the worker process came
    from.
    """
    if plan is None:
        yield
        return
    global _INSTALLED
    with _LOCK:
        previous = _INSTALLED
        _INSTALLED = plan
    try:
        yield
    finally:
        with _LOCK:
            _INSTALLED = previous


# -- the injection points -----------------------------------------------------


def fault_point(point: str, **ctx: Any) -> Optional[Fault]:
    """Fire the first matching active fault, if any.

    Self-handled actions raise (or kill/sleep) right here; caller-handled
    actions (:data:`CALLER_ACTIONS`) return the matched :class:`Fault`
    for the call site to perform.  Returns ``None`` when nothing fires.
    """
    plan = current_plan()
    if plan is None:
        return None
    for index, fault in enumerate(plan.faults):
        if fault.point != point or not fault.matches(ctx):
            continue
        if (fault.action in _PROCESS_FATAL
                and os.getpid() == plan.owner_pid):
            # Never kill/hang the submitting process: it must run past
            # un-fired worker faults.  Checked before claiming so the
            # firing stays available to (and countable against) an
            # actual worker.
            continue
        if not plan.claim(index):
            continue
        return _perform(plan, fault, ctx)
    return None


def _perform(plan: FaultPlan, fault: Fault,
             ctx: Dict[str, Any]) -> Optional[Fault]:
    action = fault.action
    if action in CALLER_ACTIONS:
        return fault
    if action == "transient":
        raise TransientTaskError(
            f"injected transient fault at {fault.point}"
        )
    if action == "disk_full":
        raise OSError(
            errno.ENOSPC, f"injected disk-full at {fault.point}"
        )
    if action == "io_error":
        raise OSError(errno.EIO, f"injected I/O error at {fault.point}")
    if action == "torn_write":
        path = ctx.get("path")
        if isinstance(path, str) and os.path.exists(path):
            try:
                size = os.path.getsize(path)
                with open(path, "r+b") as f:
                    f.truncate(size // 2)
            except OSError:
                pass
        raise OSError(
            errno.EIO, f"injected torn write at {fault.point}"
        )
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "hang":
        time.sleep(fault.seconds)
    return None
