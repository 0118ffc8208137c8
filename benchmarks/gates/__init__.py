"""The repo's one feature-gate harness (see docs/performance.md).

Every optimization in ``repro`` is guarded by a *gate*: the feature timed
against its own off-switch, with byte identity asserted.  A gate is one
row of the table in :mod:`benchmarks.gates.rows`; this package owns what
the rows share -- paced ABBA timing in reference seconds, the identity
check on every timed run, the floors, the CPU-count self-skip, one
report (``BENCH_gates.json``; ``--smoke`` writes the untracked
``bench_gates_smoke.json`` instead) and one exit code.  Run from the repo
root::

    python3 -m benchmarks.gates [--gate NAME ...] [--scale S]
                                [--smoke] [--selftest] [--list]

It sits beside ``benchmarks/suite`` (which compares two commits end to
end and claims nothing about any one feature) and only imports its
seeded datasets and its pace calibration.
"""
