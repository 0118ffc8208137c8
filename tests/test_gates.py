"""The gate table keeps a row for everything the retired scripts gated.

Timing is ``python -m benchmarks.gates``'s business (CI's ``bench-gates``
job); this tier-1 test only pins the table's shape through ``--list``.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: every workload (or tracked measurement) of the retired
#: ``benchmarks/bench_*.py`` gate scripts; ``bench_shuffle.py``'s five
#: rows were retired with the typed shuffle they measured, and
#: ``bench_engine.py diamond_pipeline`` with the concurrent stage
#: scheduler it timed
LEGACY = {
    "bench_batch.py": {"projection_scan", "aggregation_preagg",
                       "udf_translated", "udf_opaque_control"},
    "bench_engine.py": {"repeated_small_jobs", "cached_analysis"},
    "bench_hotpath.py": {"uservisits_projection_scan", "b1_selection",
                         "b2_aggregation_projection", "b3_join",
                         "b4_udf_aggregation"},
    "bench_multiscan.py": {"shared_scan_n4", "parallel_shared_scan",
                           "fallback_control", "decode_cost"},
    "bench_pruning.py": {"pavlo_b1_selective"},
    "bench_resilience.py": {"fault_free_overhead", "recovery_wall"},
    "bench_service.py": {"repeat_heavy_throughput", "fair_scheduling"},
    "bench_parallel_runner.py": {""},
}


def test_list_names_a_row_for_every_legacy_gate_with_a_floor_or_invariant():
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.gates", "--list"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    replaced = {}
    names = []
    for line in proc.stdout.splitlines():
        head, _, legacy = line.partition(" replaces ")
        name, floor = head.split(None, 1)
        names.append(name)
        floor = floor.strip()
        assert (floor == "invariant-only"
                or floor.startswith(("speedup>=", "overhead<=", "control +-"))
                ), line
        if not legacy:
            continue  # a row added since the scripts were retired
        script, _, workload = legacy.partition(" ")
        replaced.setdefault(script, set()).add(workload)
    assert len(names) == len(set(names))
    assert replaced == LEGACY
    # the rows the issue names as controls are judged as controls
    for control in ("udf_opaque_control", "multiscan_fallback_control"):
        line = next(l for l in proc.stdout.splitlines()
                    if l.startswith(control + " "))
        assert "control +-" in line
