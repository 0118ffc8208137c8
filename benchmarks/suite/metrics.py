"""Metric vocabulary (from BENCHMARK.json) and outside-the-program gauges.

CPU and memory are read for the whole process tree: the benchmark
process, children it has already reaped (``getrusage``), and live
descendants such as the query server and pool workers (``/proc``), which
``RUSAGE_CHILDREN`` does not include until they exit.
"""

from __future__ import annotations

import json
import math
import os
import resource
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from benchmarks.suite import ROOT

_TICKS = os.sysconf("SC_CLK_TCK")


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the one place names, units and bounds are defined."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def render(spec_metrics: Sequence[Dict[str, Any]],
           values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """``{name: {value, unit}}`` for exactly the metrics the spec lists."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (always an observed sample)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        # comm may contain spaces; the fixed fields follow its ')'.
        return f.read().rsplit(")", 1)[1].split()


def descendants() -> List[int]:
    """Live descendant pids of this process."""
    children: Dict[int, List[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                children[int(_stat_fields(int(entry))[1])].append(int(entry))
            except OSError:
                continue    # exited while we were looking
    out: List[int] = []
    frontier = [os.getpid()]
    while frontier:
        kids = children.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(kids)
    return out


def tree_cpu_seconds() -> float:
    """user+sys CPU of this process, reaped children and live descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in descendants():
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # utime, stime, and cutime/cstime of *its* reaped children
        total += sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICKS
    return total


def tree_peak_rss_mb() -> float:
    """Largest peak RSS among this process, reaped and live descendants."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def process_read_bytes(pid: int) -> int:
    """Bytes ``pid`` has requested through read syscalls (``rchar``)."""
    with open(f"/proc/{pid}/io", encoding="ascii") as f:
        return int(f.readline().split()[1])


def dir_bytes(path: str) -> int:
    """Bytes of every regular file under ``path`` (or of the file itself)."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total
