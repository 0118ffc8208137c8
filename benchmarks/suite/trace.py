"""In-memory span recorder for the traced pass.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions (spans inside ``src/`` are a later issue): name,
start, end, parent span and the id of the operation that caused them,
plus whatever public counts were read at the same boundary.  Nothing is
written until :meth:`Tracer.dump`; a span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    op_id: Optional[int]
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, Any] = field(default_factory=dict)
    #: the machine's pace around the op the span belongs to (calibrate.py)
    pace: float = 1.0

    @property
    def duration(self) -> float:
        """Reference seconds from start to end."""
        return (self.end - self.start) / self.pace


class Tracer:
    """Single-threaded span stack (one tracer per caller thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.op_id: Optional[int] = None

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, self.op_id, parent,
                    time.perf_counter(), counts=counts)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def extend(self, other: "Tracer") -> None:
        """Adopt another caller's spans (ids re-based, parents kept)."""
        base = len(self.spans)
        for span in other.spans:
            span.span_id += base
            if span.parent is not None:
                span.parent += base
            self.spans.append(span)

    # -- roll-ups -----------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the interval its children cover.

        Children of one span never overlap here (one thread, strictly
        nested), so the covered interval is the sum of their durations.
        """
        out = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def mean(self, name: str) -> float:
        """Mean duration of the spans called ``name`` (0.0 when none ran)."""
        spans = self.named(name)
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def dump(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as f:
            json.dump([
                {"id": s.span_id, "name": s.name, "op": s.op_id,
                 "parent": s.parent, "start": s.start, "end": s.end,
                 "pace": s.pace, "self": selfs[s.span_id],
                 "counts": s.counts}
                for s in self.spans
            ], f)


class NullTracer(Tracer):
    """Records nothing: what the untraced pass hands to shared code."""

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Span]:
        yield Span(-1, name, None, None, 0.0, counts=counts)
