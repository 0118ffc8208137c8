"""Table 6 -- direct operation on dictionary-compressed data.

Paper Table 6 (same duration-sum program; destURL is used only as the map
output key, so it runs compressed end to end)::

                        Hadoop      Manimal
    Original file size  123.65GB    123.65GB
    Indexed file size   123.65GB    76.87GB
    Running time (secs) 4,048       1,727
    Speedup             2.34

"These speedups come from several sources: reduced input size, reduced
intermediate data, and faster sorting."  Unlike delta (Table 5), the mapper
never decompresses -- both stored AND logical bytes shrink, plus shuffle
keys become small integers.
"""

import os

from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.mapreduce import run_job
from repro.workloads.single_opt import make_duration_sum_job
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
PAPER = {"indexed_fraction": 76.87 / 123.65, "hadoop_s": 4048.0,
         "manimal_s": 1727.0, "speedup": 2.34}


def _run(uservisits, catalog_dir):
    job = make_duration_sum_job(uservisits, name="t6-duration-sum")
    system = Manimal(catalog_dir)
    analysis = system.analyze(job)
    ia = analysis.inputs[0]
    assert any(d.field_name == "destURL" for d in ia.direct), \
        f"direct-op must be detected: {ia.notes.get('DIRECT')}"
    entries = system.build_indexes(job, analysis,
                                   allowed_kinds=[cat.KIND_DICTIONARY])
    plan = system.plan(job, analysis)
    # Force the dictionary choice for the single-optimization experiment.
    if plan.optimizations() != [cat.KIND_DICTIONARY]:
        from repro.mapreduce import ColumnarFileInput

        plan_inputs = [ColumnarFileInput(entries[0].index_path)]
        optimized = run_job(job.with_inputs(plan_inputs))
    else:
        optimized = system.execute(job, plan)
    baseline = run_job(job)
    # Output *sums* must agree (group keys are codes on the optimized side,
    # but the program never emits the URL -- exactly the paper's setup).
    assert sorted(v for _, v in optimized.outputs) == sorted(
        v for _, v in baseline.outputs
    )
    return entries[0], baseline, optimized


def test_table6_direct_operation(benchmark, tmp_path, uservisits_t56):
    entry, baseline, optimized = benchmark.pedantic(
        _run, args=(uservisits_t56, str(tmp_path / "catalog")),
        rounds=1, iterations=1,
    )

    original = os.path.getsize(uservisits_t56)
    scale = scale_for(original, PAPER_ORIGINAL_BYTES)
    indexed = entry.stats["index_bytes"]
    hadoop_s = simulate_seconds(baseline.metrics, scale)
    manimal_s = simulate_seconds(optimized.metrics, scale)
    speedup = hadoop_s / manimal_s

    lines = format_table(
        ["Metric", "Hadoop", "Manimal", "(paper H)", "(paper M)"],
        [
            ["Original file", fmt_bytes(original * scale),
             fmt_bytes(original * scale), "123.65GB", "123.65GB"],
            ["Indexed file", fmt_bytes(original * scale),
             fmt_bytes(indexed * scale), "123.65GB", "76.87GB"],
            ["Running time", fmt_secs(hadoop_s), fmt_secs(manimal_s),
             fmt_secs(PAPER["hadoop_s"]), fmt_secs(PAPER["manimal_s"])],
            ["Speedup", "", fmt_speedup(speedup), "",
             fmt_speedup(PAPER["speedup"])],
        ],
    )
    emit_report("table6_direct_operation", lines)

    # Shape assertions.
    assert 1.5 < speedup < 4.0, \
        f"direct operation ~2.3x in the paper, got {speedup:.2f}"
    assert indexed < original, "dictionary coding must shrink the file"
    # Reduced intermediate data and faster sorting, per the paper.
    assert optimized.metrics.shuffle_bytes < baseline.metrics.shuffle_bytes
    assert optimized.metrics.shuffle_key_bytes < \
        baseline.metrics.shuffle_key_bytes
