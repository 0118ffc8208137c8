"""The all-workloads report: every metric by name, unit, direction, bound."""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List


def collect(run_one: Callable[..., Dict[str, Any]], spec: Dict[str, Any],
            names: List[str], seed: int, seconds: float, scale: float,
            traced: bool, runs: int = 1) -> Dict[str, Any]:
    """Measure every workload ``runs`` times untraced (and once traced).

    ``run_one(name, seed, seconds, trace, scale)`` returns one contract
    result line.  Runs of different workloads are interleaved, so a noisy
    minute on the machine is spread over all of them instead of landing
    on one.
    """
    workloads: Dict[str, Any] = {
        name: {"attempted": 0, "failed": 0, "end_to_end": {
            m["name"]: [] for m in spec["end_to_end"]}}
        for name in names
    }

    def account(name: str, trace: int) -> Dict[str, Any]:
        result = run_one(name, seed, seconds, trace, scale)
        workloads[name]["attempted"] += result["attempted"]
        workloads[name]["failed"] += result["failed"]
        if not trace:
            workloads[name]["samples"] = result["attempted"]
        return {k: v["value"] for k, v in result["metrics"].items()}

    for _round in range(runs):
        for name in names:
            for metric, value in account(name, 0).items():
                workloads[name]["end_to_end"][metric].append(value)
    if traced:
        for name in names:
            workloads[name]["per_layer"] = account(name, 1)
    return {"seed": seed, "seconds": seconds, "scale": scale,
            "workloads": workloads}


def print_report(spec: Dict[str, Any], full: Dict[str, Any]) -> None:
    print(f"seed {full['seed']}  {full['seconds']} s per run  "
          f"scale {full['scale']}")
    for name, entry in full["workloads"].items():
        attempted = entry["attempted"]
        print(f"\n== {name}: {attempted} ops checked against the oracle, "
              f"{entry['failed']} failed "
              f"(failed_ops_share {entry['failed'] / attempted:.4f})")
        for m in spec["end_to_end"]:
            value = statistics.median(entry["end_to_end"][m["name"]])
            note = (f"  n={entry['samples']}"
                    if m["name"].startswith("latency_") else "")
            print(f"  {m['name']:<42} {value:>14.6g} {m['unit']:<13} "
                  f"{m['better']:<6} bound {m['bound']}{note}")
        layer = entry.get("per_layer")
        if layer is None:
            continue
        print("  -- per layer (traced pass)")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<42} {layer[m['name']]:>14.6g} "
                  f"{m['unit']:<13} {m['better']}")
