"""What every gate shares: the row type, the paced runner, the report.

A :class:`Gate` names a feature, the legacy script it replaces, how to
build its two arms, one floor and a CPU-count rule.  ``build`` sets the
row up inside a :class:`Bench` (seeded suite tables at ``--scale``,
scratch directories, things to close afterwards), runs whatever warm
passes its invariants need, and returns a :class:`Probe`.  The runner
then times the arms in ABBA cycles through
:meth:`benchmarks.suite.calibrate.Pacer.timed`, so every ratio is a
ratio of reference seconds, and compares the payload of *every* timed
run with the off arm's first.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from benchmarks.suite import ROOT, datasets
from benchmarks.suite.calibrate import Pacer

#: the one tracked report, a row per gate (a scale-1 run refreshes it)
REPORT = os.path.join(ROOT, "BENCH_gates.json")
#: where ``--smoke`` writes its rows instead (untracked; CI uploads it)
SMOKE_REPORT = os.path.join(ROOT, "bench_gates_smoke.json")
#: every table is drawn from this seed
SEED = 1
#: ABBA cycles per row; each contributes two timings per arm and one ratio
CYCLES = 5
#: ``--smoke``: the scale CI runs, and its ABBA cycles
SMOKE_SCALE, SMOKE_CYCLES = 0.2, 2


@dataclass
class Probe:
    """A built row: two arms plus the evidence its warm passes gathered."""

    #: one run with the feature on / with its switch off; each returns
    #: what ``payload`` turns into the bytes (or plain value) compared
    on: Callable[[], Any]
    off: Callable[[], Any]
    #: applied outside the timed region
    payload: Callable[[Any], Any] = lambda result: result
    #: run after every arm call, outside the timed region: wait out
    #: whatever background work the arm left behind
    settle: Callable[[], None] = lambda: None
    #: named invariants (counter assertions, scheduler identity, ...)
    checks: Dict[str, bool] = field(default_factory=dict)
    #: numbers worth tracking beside the ratio
    counters: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Gate:
    name: str
    #: the legacy script (and workload / JSON key) this row stands for;
    #: ``None`` for rows added since the scripts were retired
    replaces: Optional[str]
    build: Callable[["Bench"], Probe]
    #: ``("speedup", x)``: off/on >= x; ``("overhead", x)``: on/off - 1
    #: <= x; ``("control", x)``: off/on inside 1/(1+x)..1+x; ``None``:
    #: invariant-only (the ratio is tracked, the checks are the gate)
    floor: Optional[Tuple[str, float]] = None
    #: the floor self-skips (measured, not judged) on smaller hosts
    min_cpus: int = 1

    def floor_text(self) -> str:
        if self.floor is None:
            return "invariant-only"
        kind, bound = self.floor
        text = {"speedup": f"speedup>={bound}", "overhead": f"overhead<={bound}",
                "control": f"control +-{bound}"}[kind]
        return text + (f" (cpus>={self.min_cpus})" if self.min_cpus > 1 else "")

    def floor_failure(self, ratio: float) -> Optional[str]:
        if self.floor is None or (os.cpu_count() or 1) < self.min_cpus:
            return None
        kind, bound = self.floor
        held = {"speedup": ratio >= bound,
                "overhead": 1 / ratio - 1 <= bound,
                "control": 1 / (1 + bound) <= ratio <= 1 + bound}[kind]
        return None if held else f"floor {self.floor_text()} not met: ratio {ratio:.3f}"


class Bench:
    """One run's context: scale, scratch space, seeded tables, cleanup."""

    def __init__(self, scale: float, work: str):
        self.scale = scale
        self.work = work
        #: closed when the current row finishes
        self.stack = contextlib.ExitStack()
        self._tables: Dict[Tuple, Tuple[datasets.Table, str]] = {}

    def scaled(self, n: int, least: int = 1) -> int:
        return max(least, int(n * self.scale))

    def table(self, kind: str, n: int, *args: Any, seed: int = SEED
              ) -> Tuple[datasets.Table, str]:
        """The suite table ``kind`` at ``n * scale`` rows and its record
        file; rows sharing a table share the file."""
        key = (kind, n, args, seed)
        if key not in self._tables:
            table = getattr(datasets, kind)(
                random.Random(seed), datasets.scaled(n, self.scale), *args)
            path = os.path.join(self.work, f"{kind}-{len(self._tables)}.rf")
            table.write(path)
            self._tables[key] = table, path
        return self._tables[key]

    def dir(self, stem: str) -> str:
        return tempfile.mkdtemp(prefix=f"{stem}-", dir=self.work)

    def keep(self, resource: Any) -> Any:
        """Enter a context manager for the rest of the current row."""
        return self.stack.enter_context(resource)


def measure(probe: Probe, cycles: int) -> Dict[str, Any]:
    """ABBA cycles of paced timings; returns the row's measured half."""
    reference = probe.payload(probe.off())
    probe.settle()
    identical = probe.payload(probe.on()) == reference
    probe.settle()
    pacer = Pacer()
    seconds: Dict[str, List[float]] = {"on": [], "off": []}
    for _ in range(cycles):
        for arm in ("on", "off", "off", "on"):
            box: List[Any] = []
            run = getattr(probe, arm)
            seconds[arm].append(pacer.timed(lambda: box.append(run())))
            identical = identical and probe.payload(box[0]) == reference
            probe.settle()
            pacer.since_last()  # none of that is the next run's pace
    ratios = [
        sum(seconds["off"][2 * i:2 * i + 2]) / sum(seconds["on"][2 * i:2 * i + 2])
        for i in range(cycles)
    ]
    return {
        "ratio": round(statistics.median(ratios), 3),
        "best": round(min(seconds["off"]) / min(seconds["on"]), 3),
        "on_s": round(statistics.median(seconds["on"]), 5),
        "off_s": round(statistics.median(seconds["off"]), 5),
        "identical": identical,
    }


def run_gate(gate: Gate, bench: Bench, smoke: bool) -> Dict[str, Any]:
    """Build, measure and judge one row."""
    with contextlib.ExitStack() as bench.stack:
        probe = gate.build(bench)
        row = measure(probe, SMOKE_CYCLES if smoke else CYCLES)
    failures = [f"check {name} failed"
                for name, held in probe.checks.items() if not held]
    if not row["identical"]:
        failures.append("payloads differ across arms or runs")
    floor = gate.floor_failure(row["ratio"])
    if floor is not None:
        failures.append(floor)
    row.update(replaces=gate.replaces, floor=gate.floor_text(),
               checks=probe.checks, counters=probe.counters, failures=failures)
    return row


def run_gates(gates: Iterable[Gate], bench: Bench, smoke: bool
              ) -> Dict[str, Dict[str, Any]]:
    """Run rows in table order, stopping after the first that fails."""
    rows: Dict[str, Dict[str, Any]] = {}
    for gate in gates:
        row = rows[gate.name] = run_gate(gate, bench, smoke)
        print(f"{gate.name:34s} ratio {row['ratio']:7.3f}  best {row['best']:7.3f}"
              f"  on {row['on_s']:.4f}s  off {row['off_s']:.4f}s  {row['floor']}",
              flush=True)
        for failure in row["failures"]:
            print(f"FAIL {gate.name}: {failure}", flush=True)
        if row["failures"]:
            break
    return rows


def write_report(rows: Dict[str, Dict[str, Any]], scale: float,
                 path: str) -> None:
    """One line per row, so a refreshed baseline diffs row by row."""
    header = {"scale": scale, "seed": SEED, "cpus": os.cpu_count(),
              "python": platform.python_version(),
              "unit": "reference seconds (benchmarks/suite/calibrate.py); "
                      "ratio = off_s / on_s, median over ABBA cycles"}
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n")
        for key, value in header.items():
            f.write(f" {json.dumps(key)}: {json.dumps(value)},\n")
        f.write(' "gates": {\n')
        f.write(",\n".join(
            f"  {json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
            for name, row in rows.items()))
        f.write("\n }\n}\n")
