"""``--selftest``: the checker must fail when it should.

Runs one small B1 selection for real, then shows that (a) its untouched
output passes the oracle, (b) a corrupted output is rejected, and (c) a
corrupted dataset changes the digest and makes the oracle disagree with
what the program read from disk.
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile

from benchmarks.suite import WORK, oracle
from benchmarks.suite.trace import NullTracer
from benchmarks.suite.workloads import ClassicPavlo


def run(seed: int) -> int:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        wl = ClassicPavlo(seed, 0.1)
        wl.setup(os.path.join(work, "setup"), NullTracer())
        op = wl.warm_ops()[0][0]
        output = list(wl.run(op, 0).outputs)
        expected = wl.expected(op)
        checks = {"clean output accepted": oracle.matches(output, expected)}

        url, rank = output[0]
        checks["altered row rejected"] = not oracle.matches(
            [(url, rank + 1)] + output[1:], expected)
        checks["missing row rejected"] = not oracle.matches(
            output[1:], expected)

        rankings = wl.tables["rankings"]
        corrupted = copy.copy(rankings)
        key, (page, _rank, duration) = rankings.rows[0]
        corrupted.rows = [(key, (page, 10 ** 6, duration))] + rankings.rows[1:]
        checks["corrupted dataset changes digest"] = (
            corrupted.digest() != rankings.digest())
        checks["corrupted dataset fails oracle"] = not oracle.matches(
            output, oracle.b1(corrupted, *op.params))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, passed in checks.items():
        print(f"selftest: {name}: {'ok' if passed else 'FAILED'}")
    return 0 if all(checks.values()) else 1
