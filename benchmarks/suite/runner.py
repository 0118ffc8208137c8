"""The measuring loop: set-up, warm pass, timed closed loop, verification.

End-to-end numbers come only from the untraced pass
(:func:`measure_end_to_end`); the traced pass (:func:`measure_per_layer`)
runs the same schedule through the staged entry points and the layer
probes, and reports the tracing overhead against its own untraced
cycles.

Every timing is taken in **reference seconds** (see calibrate.py): one
sample of the machine's pace between every two ops, each op's wall time
divided by the mean of the samples on either side of it.
"""

from __future__ import annotations

import os
import random
import threading
import time
import traceback
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import get_engine

from benchmarks.suite import layers, oracle
from benchmarks.suite.calibrate import Pacer
from benchmarks.suite.metrics import (
    percentile,
    tree_cpu_seconds,
    tree_peak_rss_mb,
)
from benchmarks.suite.trace import NullTracer, Tracer
from benchmarks.suite.workloads import Op, Outcome, Workload

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: share of ``--seconds`` the traced run spends on untraced cycles (the
#: overhead baseline and the source of the public counters)
BASELINE_SHARE = 0.3


@dataclass
class OpRecord:
    """One executed op: when, how long, what came back."""

    op: Op
    op_id: int
    caller: int
    cycle: int
    start: float
    #: wall seconds of the timed interval (the call, or the part of it the
    #: op defines)
    raw_seconds: float
    #: wall seconds of the whole call, verification reads included
    raw_wall: float
    outcome: Optional[Outcome]
    error: Optional[str]
    #: the machine's pace around the call (calibrate.py)
    pace: float = 1.0
    ok: bool = False

    @property
    def seconds(self) -> float:
        """Reference seconds of the timed interval."""
        return self.raw_seconds / self.pace

    @property
    def wall(self) -> float:
        """Reference seconds of the whole call."""
        return self.raw_wall / self.pace

    @property
    def weight(self) -> int:
        """Ops this record stands for (a ``run_many`` group counts four)."""
        return len(self.op.members) or 1

    @property
    def rows(self) -> int:
        return sum(m.rows for m in self.op.members) or self.op.rows

    @property
    def plain_bytes(self) -> int:
        return (sum(m.plain_bytes for m in self.op.members)
                or self.op.plain_bytes)

    def job_metrics(self) -> List[Any]:
        if self.outcome is None:
            return []
        outcomes = self.outcome.members or [self.outcome]
        return [m for outcome in outcomes for m in outcome.metrics]


def _execute(wl: Workload, op: Op, caller: int, cycle: int,
             tracer: Optional[Tracer], op_id: int) -> OpRecord:
    error = None
    outcome: Optional[Outcome] = None
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = wl.run(op, caller)
        else:
            tracer.op_id = op_id
            with tracer.span(f"op.{op.kind}"):
                outcome = wl.run_staged(op, caller, tracer)
    except Exception:   # a failed op is a result to count, not a crash
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    seconds = wall
    if outcome is not None and outcome.seconds is not None:
        seconds = outcome.seconds
    return OpRecord(op, op_id, caller, cycle, start, seconds, wall, outcome,
                    error)


def _share_outputs(wl: Workload, record: OpRecord,
                   seen: Dict[Any, Any]) -> None:
    """Keep one copy of rows that repeat an earlier op's rows exactly.

    Repeated ops mostly return what they returned before; holding every
    copy until verification would make the benchmark's own memory grow
    with the run length and drown ``peak_rss_mb``.
    """
    if record.outcome is None or record.outcome.outputs is None:
        return
    key = wl.key(record.op)
    earlier = seen.get(key)
    if earlier is not None and earlier == record.outcome.outputs:
        record.outcome.outputs = earlier
    else:
        seen[key] = record.outcome.outputs


def _caller_loop(wl: Workload, caller: int, seed: int, deadline: float,
                 tracer: Optional[Tracer], pacer: Pacer,
                 out: List[OpRecord]) -> None:
    rng = random.Random(f"{seed}:{wl.name}:{caller}:{tracer is not None}")
    seen: Dict[Any, Any] = {}
    cycle = 0
    while True:
        for op in wl.cycle(rng, caller):
            out.append(_execute(wl, op, caller, cycle, tracer,
                                caller * 1_000_000 + len(out)))
            out[-1].pace = pacer.since_last()
            _share_outputs(wl, out[-1], seen)
        cycle += 1
        if time.perf_counter() >= deadline:
            return


@dataclass
class Window:
    """One timed closed-loop interval and what was gauged around it."""

    records: List[OpRecord]
    #: CPU seconds of the process tree, the pacers' own work taken out
    raw_cpu_seconds: float
    external_read_bytes: Optional[int]

    @property
    def cpu_seconds(self) -> float:
        """Reference CPU seconds: scaled by the window's time-weighted pace."""
        return (self.raw_cpu_seconds * sum(r.seconds for r in self.records)
                / sum(r.raw_seconds for r in self.records))


def drive(wl: Workload, seed: int, seconds: float,
          tracers: Optional[List[Tracer]] = None) -> Window:
    """Run whole cycles for at least ``seconds``; one thread per caller."""
    read_before = wl.external_read_bytes()
    cpu_before = tree_cpu_seconds()
    deadline = time.perf_counter() + seconds
    per_caller: List[List[OpRecord]] = [[] for _ in range(wl.callers)]
    pacers = [Pacer() for _ in range(wl.callers)]
    crashes: List[BaseException] = []

    def caller_thread(caller: int) -> None:
        try:
            _caller_loop(wl, caller, seed, deadline,
                         tracers[caller] if tracers else None,
                         pacers[caller], per_caller[caller])
        except BaseException as exc:    # re-raised below, by the main thread
            crashes.append(exc)

    threads = [threading.Thread(target=caller_thread, args=(caller,))
               for caller in range(wl.callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    cpu = (tree_cpu_seconds() - cpu_before
           - sum(pacer.spent for pacer in pacers))
    read_after = wl.external_read_bytes()
    external = None if read_after is None else read_after - read_before
    records = sorted((r for rs in per_caller for r in rs),
                     key=lambda r: r.start)
    return Window(records, cpu, external)


def verify(wl: Workload, records: List[OpRecord]) -> Tuple[int, int]:
    """Check every op against the oracle; returns (attempted, failed)."""
    attempted = failed = 0
    verdicts: Dict[Tuple[int, int], bool] = {}   # one check per shared copy
    for record in records:
        attempted += record.weight
        if record.outcome is None:
            failed += record.weight
            continue
        pairs = (list(zip(record.op.members, record.outcome.members))
                 if record.op.members else [(record.op, record.outcome)])
        bad = 0
        for op, outcome in pairs:
            expected = wl.expected(op)
            if expected is None:
                continue
            key = (id(outcome.outputs), id(expected))
            if key not in verdicts:
                verdicts[key] = oracle.matches(outcome.outputs or [],
                                               expected)
            bad += not verdicts[key]
        record.ok = bad == 0
        failed += bad
    return attempted, failed


def first_errors(records: List[OpRecord], limit: int = 3) -> List[str]:
    out = []
    for record in records:
        if not record.ok and len(out) < limit:
            out.append(f"{record.op.kind}{record.op.params}: "
                       f"{record.error or 'rows differ from the oracle'}")
    return out


# -- end-to-end metrics ------------------------------------------------------------


def _round_rates(wl: Workload, window: Window) -> Tuple[float, float]:
    """Median over rounds of (correct ops / s, logical rows / s).

    A round is one cycle of one caller and its timed seconds are the sum
    of its op intervals: the time the caller spent waiting for rows.
    Concurrent callers' rates add up.
    """
    rounds: Dict[Tuple[int, int], List[OpRecord]] = {}
    for r in window.records:
        rounds.setdefault((r.caller, r.cycle), []).append(r)
    ops_rates, row_rates = [], []
    for members in rounds.values():
        seconds = sum(r.seconds for r in members)
        correct = [r for r in members if r.ok]
        ops_rates.append(sum(r.weight for r in correct) / seconds)
        row_rates.append(sum(r.rows for r in correct) / seconds)
    return wl.callers * median(ops_rates), wl.callers * median(row_rates)


def end_to_end(wl: Workload, window: Window, setup_times: List[float]
               ) -> Dict[str, float]:
    records = window.records
    ops_per_s, records_per_s = _round_rates(wl, window)
    latencies = [r.seconds for r in records for _ in range(r.weight)]
    rows = sum(r.rows for r in records)
    plain = sum(r.plain_bytes for r in records)
    stored = window.external_read_bytes
    if stored is None:
        stored = sum(m.map_input_stored_bytes
                     for r in records for m in r.job_metrics())
    return {
        "setup_s": median(setup_times),
        "ops_per_s": ops_per_s,
        "records_per_s": records_per_s,
        "latency_p50_s": percentile(latencies, 0.50),
        "latency_p95_s": percentile(latencies, 0.95),
        "cpu_s_per_mrecord": window.cpu_seconds / (rows / 1e6),
        "read_amplification": stored / plain,
        "space_amplification": wl.disk_bytes() / wl.plain_bytes(),
        "peak_rss_mb": tree_peak_rss_mb(),
    }


# -- the two kinds of run ----------------------------------------------------------------


def _setup_and_warm(wl: Workload, root: str, tracer: Tracer) -> float:
    """Reference seconds of the set-up and one op of every kind.

    Spans recorded on the way belong to no op; they get the set-up's pace.
    """
    pacer = Pacer()
    started = time.perf_counter()
    wl.setup(root, tracer)
    raw = time.perf_counter() - started
    pace = pacer.since_last()
    seconds = raw / pace
    for span in tracer.spans:
        span.pace = pace
    for op, caller in wl.warm_ops():
        seconds += pacer.timed(lambda: wl.run(op, caller))
    return seconds


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    errors: List[str]


def measure_end_to_end(wl: Workload, work: str, seed: int, seconds: float
                       ) -> RunResult:
    """Untraced: ``SETUPS`` set-ups (the last one is used), then the loop."""
    setup_times: List[float] = []
    try:
        for k in range(SETUPS):
            if k:
                # The earlier set-up stays on disk until the run ends:
                # deleting it here would leave the file system busy with
                # the delete while the loop is being timed.
                wl.close()
            setup_times.append(_setup_and_warm(
                wl, os.path.join(work, f"setup{k}"), NullTracer()))
        window = drive(wl, seed, seconds)
        attempted, failed = verify(wl, window.records)
        metrics = end_to_end(wl, window, setup_times)
    finally:
        wl.close()
        get_engine().shutdown()
    return RunResult(attempted, failed, metrics,
                     first_errors(window.records))


def measure_per_layer(wl: Workload, work: str, seed: int, seconds: float
                      ) -> RunResult:
    """Traced: untraced baseline cycles, staged cycles with spans, probes."""
    tracer = Tracer()
    try:
        _setup_and_warm(wl, os.path.join(work, "setup"), tracer)
        counters = [wl.counters()]
        baseline = drive(wl, seed, seconds * BASELINE_SHARE)
        counters.append(wl.counters())
        tracers = [Tracer() for _ in range(wl.callers)]
        traced = drive(wl, seed, seconds * (1 - BASELINE_SHARE), tracers)
        counters.append(wl.counters())
        pace_of = {r.op_id: r.pace for r in traced.records}
        for caller_tracer in tracers:
            for span in caller_tracer.spans:
                span.pace = pace_of[span.op_id]
            tracer.extend(caller_tracer)
        records = baseline.records + traced.records
        attempted, failed = verify(wl, records)
        metrics = layers.roll_up(
            wl, baseline, traced, tracer, counters, failed / attempted,
            os.path.join(work, "probes"))
        tracer.dump(os.path.join(os.path.dirname(work),
                                 f"trace-{wl.name}.json"))
    finally:
        wl.close()
        get_engine().shutdown()
    return RunResult(attempted, failed, metrics, first_errors(records))
