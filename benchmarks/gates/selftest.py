"""``--selftest``: the harness must fail when a feature is off.

Runs the batch projection row three ways at smoke scale: untouched (it
must hold), with both arms on the record path (the feature patched off:
the speedup floor must fail, and nothing else), and with one byte of the
on arm's payload flipped (the identity check must fail).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from benchmarks.gates import harness
from benchmarks.gates.rows import GATES


def _sabotaged(gate: harness.Gate,
               sabotage: Callable[[harness.Probe], harness.Probe]
               ) -> harness.Gate:
    return replace(gate, build=lambda bench: sabotage(gate.build(bench)))


def _flip(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


def run(bench: harness.Bench) -> int:
    bench.scale = harness.SMOKE_SCALE
    gate = next(g for g in GATES if g.name == "batch_projection_scan")
    rows = {
        "untouched": gate,
        "feature_off": _sabotaged(
            gate, lambda probe: replace(probe, on=probe.off)),
        "flipped_byte": _sabotaged(
            gate, lambda probe: replace(
                probe, on=lambda: _flip(probe.payload(probe.on())),
                off=lambda: probe.payload(probe.off()),
                payload=lambda data: data)),
    }
    failures = {
        name: harness.run_gate(row, bench, smoke=True)["failures"]
        for name, row in rows.items()
    }
    checks = {
        "untouched row holds": not failures["untouched"],
        "patched-off feature fails the floor, and only the floor":
            len(failures["feature_off"]) == 1
            and failures["feature_off"][0].startswith("floor "),
        "flipped payload byte fails identity":
            "payloads differ across arms or runs" in failures["flipped_byte"],
    }
    for name, passed in checks.items():
        print(f"selftest: {name}: {'ok' if passed else 'FAILED'}")
    return 0 if all(checks.values()) else 1
