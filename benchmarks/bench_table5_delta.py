"""Table 5 -- delta compression: big space savings, modest speedup.

Paper Table 5 (sum durations grouped by destURL over UserVisits, after
projecting to the needed fields)::

                                   Hadoop      Manimal
    Original file size             123.65GB    123.65GB
    Post-projection size           20.99GB     20.99GB
    Input size (delta-compression) 20.99GB     11.05GB
    Running time (secs)            935.6       892.6
    Speedup                        1.05

The key lesson: "delta compression does reduce the amount of bytes that
need to be consumed by map(), [but] that function's computational effort
is if anything slightly increased, and the shuffle and reduce() loads
remain unchanged" -- so the speedup is small even though the file shrinks
by ~47%.  The cost model reproduces this through the stored-vs-logical
byte distinction.

Both sides read the *projected* file (as in the paper); only the delta
coding differs.
"""

import os

from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.mapreduce import run_job
from repro.workloads.single_opt import make_daily_session_job
from benchmarks.common import (
    GB,
    emit_report,
    fmt_bytes,
    fmt_secs,
    fmt_speedup,
    format_table,
    scale_for,
    simulate_seconds,
)

PAPER_ORIGINAL_BYTES = 123.65 * GB
PAPER = {"hadoop_s": 935.6, "manimal_s": 892.6, "speedup": 1.05,
         "space_saving": 0.47}


def _run(uservisits, catalog_dir):
    job = make_daily_session_job(uservisits, name="t5-daily-session")
    system = Manimal(catalog_dir)

    # Build the two physical variants the paper compares.
    proj_entries = system.build_indexes(
        job, allowed_kinds=[cat.KIND_PROJECTION]
    )
    delta_entries = system.build_indexes(
        job, allowed_kinds=[cat.KIND_PROJECTION_DELTA]
    )
    proj_entry, delta_entry = proj_entries[0], delta_entries[0]

    # "Hadoop" side: scan the projected (but uncompressed) copy.  Both
    # copies are columnar; delta is the codec of the numeric columns.
    from repro.mapreduce import ColumnarFileInput

    proj_job = job.with_inputs([ColumnarFileInput(proj_entry.index_path)])
    delta_job = job.with_inputs([ColumnarFileInput(delta_entry.index_path)])
    proj_run = run_job(proj_job)
    delta_run = run_job(delta_job)
    assert sorted(v for _, v in proj_run.outputs) == sorted(
        v for _, v in delta_run.outputs
    )
    return proj_entry, delta_entry, proj_run, delta_run


def test_table5_delta_compression(benchmark, tmp_path, uservisits_t56):
    proj_entry, delta_entry, proj_run, delta_run = benchmark.pedantic(
        _run, args=(uservisits_t56, str(tmp_path / "catalog")),
        rounds=1, iterations=1,
    )

    original = os.path.getsize(uservisits_t56)
    scale = scale_for(original, PAPER_ORIGINAL_BYTES)
    proj_bytes = proj_entry.stats["index_bytes"]
    delta_bytes = delta_entry.stats["index_bytes"]
    hadoop_s = simulate_seconds(proj_run.metrics, scale)
    manimal_s = simulate_seconds(delta_run.metrics, scale)
    speedup = hadoop_s / manimal_s
    saving = 1 - delta_bytes / proj_bytes

    lines = format_table(
        ["Metric", "Hadoop", "Manimal", "(paper H)", "(paper M)"],
        [
            ["Original file", fmt_bytes(original * scale),
             fmt_bytes(original * scale), "123.65GB", "123.65GB"],
            ["Post-projection", fmt_bytes(proj_bytes * scale),
             fmt_bytes(proj_bytes * scale), "20.99GB", "20.99GB"],
            ["Input size", fmt_bytes(proj_bytes * scale),
             fmt_bytes(delta_bytes * scale), "20.99GB", "11.05GB"],
            ["Running time", fmt_secs(hadoop_s), fmt_secs(manimal_s),
             fmt_secs(PAPER["hadoop_s"]), fmt_secs(PAPER["manimal_s"])],
            ["Speedup", "", fmt_speedup(speedup), "",
             fmt_speedup(PAPER["speedup"])],
            ["Space saving", "", f"{saving:.0%}", "",
             f"{PAPER['space_saving']:.0%}"],
        ],
    )
    emit_report("table5_delta", lines)

    # Shape: substantial space savings, small-but-positive runtime gain.
    # (The paper reports 47% against fixed-width Java serialization; our
    # baseline is already varint-coded, so the same delta trick saves a
    # smaller -- but still large -- fraction.  See EXPERIMENTS.md.)
    assert saving > 0.2, f"delta must save real space: {saving:.0%}"
    assert 1.0 <= speedup < 1.5, \
        f"delta speedup must be modest (paper 1.05): {speedup:.2f}"
    # The stored/logical distinction: physical input shrank, decode didn't.
    assert delta_run.metrics.map_input_stored_bytes < \
        proj_run.metrics.map_input_stored_bytes
    assert delta_run.metrics.map_input_logical_bytes >= \
        0.9 * proj_run.metrics.map_input_logical_bytes
