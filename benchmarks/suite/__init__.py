"""The repo's one comparison benchmark (see README.md beside this file).

Run it from the repository root::

    python3 -m benchmarks.suite --workload classic_pavlo --seed 1 \\
        --seconds 10 --trace 0

The package measures the program from outside: it imports only the
public surface of ``repro`` and nothing from ``repro.workloads`` or
``benchmarks/common.py``.
"""

import os

#: the checkout the benchmark was started from
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: everything a run writes goes under here (git-ignored)
WORK = os.path.join(ROOT, ".bench_work")
