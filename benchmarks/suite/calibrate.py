"""Reference work: how fast is the machine right now?

The benchmark runs on a few cores of a shared host whose speed moves by a
factor of two within seconds and stays moved for minutes (a busy
neighbour on the same cores: the slowdown shows in CPU time as much as in
wall time, and not as steal).  Run length does not average that away --
60-second windows of fixed work spread as widely as 5-second ones -- so
every timing is divided by the machine's *pace* at that moment: the time
one fixed piece of reference work took just before and just after the
timed call, over :data:`REFERENCE_S`.  All seconds the benchmark reports
are therefore **reference seconds**: what the call would have taken had
the machine run at the reference speed throughout.

The reference work is interpreter-bound the way the program is -- pickle
and struct round trips, tuple and list building, dict grouping -- because
that is what tracked the program's own slowdown best on this host (plain
arithmetic and cache-missing memory walks each tracked only one kind of
contention).  It calls nothing from ``repro``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import pickle
import struct
import time
from typing import Any, Callable

#: seconds :func:`reference_work` takes at the reference speed: what it
#: took on the box the benchmark was defined on while no neighbour was busy
REFERENCE_S = 0.0005

_ROWS = [(i, str(i) * 3, i * 1.5, f"http://host/{i}") for i in range(300)]
_PAIR = struct.Struct("<qd")


def reference_work() -> None:
    for _ in range(3):
        rows = pickle.loads(pickle.dumps(_ROWS, 4))
        packed = [_PAIR.pack(row[0], row[2]) for row in rows]
        for blob in packed:
            _PAIR.unpack(blob)
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[0] % 17, []).append(row[1])


def pace() -> float:
    """Machine slowness now: reference-work seconds over :data:`REFERENCE_S`
    (1.0 at the reference speed, 2.0 when everything takes twice as long)."""
    started = time.perf_counter()
    reference_work()
    return (time.perf_counter() - started) / REFERENCE_S


class Pacer:
    """Paces consecutive calls: one sample between every two of them, so
    each call is divided by the mean of the samples on either side of it."""

    def __init__(self) -> None:
        #: wall seconds this pacer's own reference work has taken
        self.spent = 0.0
        self._last = self._sample()

    def _sample(self) -> float:
        now = pace()
        self.spent += now * REFERENCE_S
        return now

    def since_last(self) -> float:
        """Pace around whatever ran since the previous sample."""
        now = self._sample()
        around = (self._last + now) / 2
        self._last = now
        return around

    def timed(self, fn: Callable[[], Any]) -> float:
        """Reference seconds ``fn()`` took."""
        started = time.perf_counter()
        fn()
        seconds = time.perf_counter() - started
        return seconds / self.since_last()
