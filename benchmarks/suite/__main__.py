"""Command line of the benchmark suite.

The contract form measures one workload and prints one JSON object as the
last line of standard output::

    python3 -m benchmarks.suite --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` every workload is measured, untraced and traced,
and a report is printed (``--out`` also writes it as JSON).  Subcommands:
``compare A.json B.json`` and ``stability`` (see compare.py); flags:
``--selftest`` (the checker must catch a corrupted output and input) and
``--smoke`` (scale 0.1, one short round of everything).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from benchmarks.suite import ROOT, WORK

SRC = os.path.join(ROOT, "src")


def _prepare_process() -> None:
    """Make ``repro`` importable and runs repeatable, before any import.

    The program under test is built from the checkout's own ``src``; a
    checkout without it (only the benchmark's files) cannot be measured.
    Hash randomization is pinned so set and dict orders -- and with them
    the exact-count metrics -- repeat from run to run.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks.suite: no program to measure at {SRC}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable,
                 [sys.executable, "-m", "benchmarks.suite", *sys.argv[1:]])
    sys.path.insert(0, SRC)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.suite")
    parser.add_argument("command", nargs="?",
                        choices=["compare", "stability"])
    parser.add_argument("files", nargs="*",
                        help="compare: two result files written by --out")
    parser.add_argument("--workload", help="measure only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every dataset's row count")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in the report")
    parser.add_argument("--out", help="write the full report here as JSON")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    return parser


def _measure(name: str, seed: int, seconds: float, trace: int,
             scale: float) -> Any:
    """One run of one workload inside a private work directory."""
    from benchmarks.suite import datasets, runner
    from benchmarks.suite.workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    # Session scratch, spill runs and pool state files follow TMPDIR.
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    os.makedirs(tempfile.tempdir)
    try:
        wl = WORKLOADS[name](seed, scale)
        datasets.print_digests(list(wl.tables.values()))
        if trace:
            return runner.measure_per_layer(wl, work, seed, seconds)
        return runner.measure_end_to_end(wl, work, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _spawn(name: str, seed: int, seconds: float, trace: int, scale: float
           ) -> Dict[str, Any]:
    """The contract form in a process of its own; returns its result line.

    The report runs every measurement this way so that peak RSS, reaped
    children's CPU and engine state never leak from one run into the next.
    """
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--scale", str(scale)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    *digests, line = done.stdout.splitlines()
    if not trace:
        print("\n".join(digests))
    return json.loads(line)


def _contract_line(spec: Dict[str, Any], result: Any, trace: int) -> str:
    from benchmarks.suite.metrics import render

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": render(listed, result.metrics),
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    from benchmarks.suite import compare, report, selftest
    from benchmarks.suite.metrics import load_spec

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.command == "compare":
        if len(args.files) != 2:
            sys.exit("compare needs two result files")
        return compare.compare_files(spec, *args.files)
    if args.selftest:
        return selftest.run(args.seed)
    seconds = args.seconds or float(spec["run_seconds"])
    scale = args.scale
    if args.smoke:
        seconds, scale = 1.0, 0.1
    if args.command == "stability":
        return compare.stability(
            spec, lambda: report.collect(
                _spawn, spec, names, args.seed, seconds, scale,
                traced=False, runs=compare.STABILITY_RUNS))
    if args.workload is not None:
        if args.workload not in names:
            sys.exit(f"unknown workload {args.workload!r}; one of {names}")
        result = _measure(args.workload, args.seed, seconds, args.trace,
                          scale)
        for error in result.errors:
            print(f"failed op: {error}", file=sys.stderr)
        print(_contract_line(spec, result, args.trace))
        return 0
    full = report.collect(_spawn, spec, names, args.seed, seconds, scale,
                          traced=True, runs=args.runs)
    report.print_report(spec, full)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(full, f, indent=1)
    return 1 if any(w["failed"] for w in full["workloads"].values()) else 0


if __name__ == "__main__":
    _prepare_process()
    sys.exit(main())
