"""Compare two result sets by the benchmark's own bounds.

One row per (workload, end-to-end metric): both medians, how much worse
B is than A as a share of A, the bound, and a verdict -- ``ok``,
``worse`` (beyond the bound) or ``unresolved`` (the run-to-run spread of
either side is itself wider than the bound, so the pair decides nothing).
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Callable, Dict, List

#: untraced runs per workload in each set of ``stability``
STABILITY_RUNS = 3


def _spread(values: List[float]) -> float:
    """Quartile distance (range, below four samples) over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    return width / statistics.median(values)


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
            ) -> int:
    """Print the table; returns the number of ``worse`` rows."""
    worse = 0
    print(f"{'workload':<18}{'metric':<22}{'A':>14}{'B':>14}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for m in spec["end_to_end"]:
            va = entry_a["end_to_end"][m["name"]]
            vb = entry_b["end_to_end"][m["name"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            delta = (mb - ma) / ma
            if m["better"] == "higher":
                delta = -delta
            if max(_spread(va), _spread(vb)) > m["bound"]:
                verdict = "unresolved"
            elif delta > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{name:<18}{m['name']:<22}{ma:>14.6g}{mb:>14.6g}"
                  f"{delta:>+10.3f}{m['bound']:>7}  {verdict}")
        if entry_b["failed"] > entry_a["failed"]:
            worse += 1
            print(f"{name:<18}{'failed ops':<22}{entry_a['failed']:>14}"
                  f"{entry_b['failed']:>14}{'':>17}  worse")
    return worse


def compare_files(spec: Dict[str, Any], path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        return 1 if compare(spec, json.load(fa), json.load(fb)) else 0


def stability(spec: Dict[str, Any],
              collect_set: Callable[[], Dict[str, Any]]) -> int:
    """Two full sets of the same code, back to back, must agree."""
    first = collect_set()
    second = collect_set()
    return 1 if compare(spec, first, second) else 0
