"""Command line of the gate harness (flags: see the package docstring)."""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from typing import List, Optional

from benchmarks.suite import ROOT, WORK

SRC = os.path.join(ROOT, "src")


def _prepare_process() -> None:
    """Measure the checkout's own ``src``, with hash order pinned so the
    exact-count checks repeat (the suite's entry point does the same)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "benchmarks.gates", *sys.argv[1:]])
    sys.path.insert(0, SRC)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.gates")
    parser.add_argument("--gate", action="append", metavar="NAME",
                        help="run only this row (repeatable); nothing is "
                             "written to BENCH_gates.json")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every dataset's row count "
                             "(1.0 = the tracked baseline)")
    parser.add_argument("--smoke", action="store_true",
                        help="what CI runs: small scale, two ABBA cycles, "
                             "the table's floors; written to "
                             "bench_gates_smoke.json")
    parser.add_argument("--selftest", action="store_true",
                        help="the harness must fail a sabotaged row")
    parser.add_argument("--list", action="store_true",
                        help="print the table and exit")
    args = parser.parse_args(argv)

    from benchmarks.gates import harness, selftest
    from benchmarks.gates.rows import GATES

    if args.list:
        for gate in GATES:
            replaces = f" replaces {gate.replaces}" if gate.replaces else ""
            print(f"{gate.name:34s} {gate.floor_text():28s}{replaces}"
                  .rstrip())
        return 0
    unknown = set(args.gate or ()) - {gate.name for gate in GATES}
    if unknown:
        parser.error(f"unknown gate(s) {sorted(unknown)}; see --list")
    chosen = [g for g in GATES if not args.gate or g.name in args.gate]
    scale = harness.SMOKE_SCALE if args.smoke else args.scale

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="gates-", dir=WORK)
    # session scratch, spill runs and pool state files follow TMPDIR
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    os.makedirs(tempfile.tempdir)
    try:
        bench = harness.Bench(scale, work)
        if args.selftest:
            return selftest.run(bench)
        rows = harness.run_gates(chosen, bench, args.smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.gate:
        report = harness.SMOKE_REPORT if args.smoke else harness.REPORT
        harness.write_report(rows, scale, report)
        print(f"wrote {report}")
    failed = [name for name, row in rows.items() if row["failures"]]
    print(f"FAILED at {failed[0]}" if failed
          else f"OK: {len(rows)} gate(s) held")
    return 1 if failed else 0


if __name__ == "__main__":
    _prepare_process()
    sys.exit(main())
