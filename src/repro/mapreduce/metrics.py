"""Execution metrics collected by the runtime.

These are the raw quantities the cluster cost model turns into simulated
wall-clock time, and the quantities the benchmark harness reports (input
bytes touched, intermediate data size, records skipped by indexes, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class JobMetrics:
    """Byte- and record-level accounting for one job run."""

    #: number of input splits == map tasks
    map_tasks: int = 0
    #: map tasks served by the vectorized batch executor instead of the
    #: record-at-a-time mapper loop (see :mod:`repro.batch`).  Like
    #: ``map_tasks`` this describes the job's shape, not a data volume,
    #: so ``scaled()`` leaves it untouched.
    batch_map_tasks: int = 0
    #: records delivered to map() (after any index-side filtering)
    map_input_records: int = 0
    #: bytes physically read from storage to feed the map phase
    map_input_stored_bytes: int = 0
    #: bytes of the *logical* (decompressed / unprojected-equivalent) input;
    #: equals stored bytes for plain files, exceeds them for delta files
    map_input_logical_bytes: int = 0
    #: value-record fields decoded, summed over records (deserialization cost)
    fields_deserialized: int = 0
    #: records the execution plan skipped without invoking map()
    #: (selection-index savings, the paper's "wasted work" avoided)
    records_skipped: int = 0
    #: partitioned-input accounting: partitions actually scanned vs
    #: dropped by zone-map pruning before any byte was read (zero for
    #: non-partitioned inputs).  Like ``map_tasks``, these describe the
    #: job's shape rather than a data volume, so ``scaled()`` leaves
    #: them untouched.
    partitions_scanned: int = 0
    partitions_pruned: int = 0

    map_output_records: int = 0
    map_output_bytes: int = 0

    #: post-combiner stream that actually crosses the shuffle
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    shuffle_key_bytes: int = 0
    #: map outputs deleted pre-shuffle by a reduce-side key filter
    #: (the Appendix E GROUPBY/WHERE optimization)
    shuffle_records_skipped: int = 0

    reduce_groups: int = 0
    reduce_input_records: int = 0
    reduce_output_records: int = 0
    reduce_output_bytes: int = 0

    #: physical bytes of spill-run files written by map tasks and read
    #: back by reduce-side merges.  Scheduling-path observables like
    #: ``wall_seconds``: the sequential runner shuffles through memory
    #: and reports zero, so differential suites exclude these (and
    #: ``scaled()`` leaves them untouched); they make the spill volume
    #: visible per job.
    shuffle_bytes_spilled: int = 0
    shuffle_bytes_merged: int = 0

    #: shared-scan accounting (see :mod:`repro.batch.multiscan`).  When a
    #: job executed as a member of a multi-query shared scan group, the
    #: group counts once (``shared_scan_groups``), every member after the
    #: first records the full input pass it did *not* perform
    #: (``scans_saved``) and the stored bytes that pass would have read
    #: (``shared_bytes_saved``).  Scheduling-path observables like
    #: ``shuffle_bytes_spilled``: solo runs of the same query report
    #: zero, so differential suites exclude them and ``scaled()`` leaves
    #: them untouched.
    shared_scan_groups: int = 0
    scans_saved: int = 0
    shared_bytes_saved: int = 0

    #: wall-clock seconds of the local in-process run (not the simulation)
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)

    def merge(self, other: "JobMetrics") -> None:
        """Fold another metric set into this one (task -> job rollup).

        Every volume field is additive, mirroring :meth:`Counters.merge`:
        the runners accumulate per-task metric deltas into the job total,
        and the parallel runner merges worker-side deltas in deterministic
        task order so sequential and parallel runs of the same job report
        identical volumes.  ``wall_seconds`` is the one exception: wall
        clocks of concurrent tasks do not add up to job wall time, so it
        is left untouched (runners set it from the submitting process's
        clock).
        """
        for name, value in other.__dict__.items():
            if name == "wall_seconds":
                continue
            setattr(self, name, getattr(self, name) + value)

    def scaled(self, factor: float) -> "JobMetrics":
        """Scale every volume metric by ``factor``.

        Used to extrapolate measurements on MB-scale generated data to the
        paper's 100+ GB datasets before cost simulation: all the metrics
        here grow linearly with input size for the workloads studied, so
        scaling preserves every ratio the paper reports.  ``map_tasks`` and
        ``wall_seconds`` are left untouched.
        """
        out = JobMetrics(**self.__dict__)
        for name in (
            "map_input_records",
            "map_input_stored_bytes",
            "map_input_logical_bytes",
            "fields_deserialized",
            "records_skipped",
            "map_output_records",
            "map_output_bytes",
            "shuffle_records",
            "shuffle_bytes",
            "shuffle_key_bytes",
            "shuffle_records_skipped",
            "reduce_groups",
            "reduce_input_records",
            "reduce_output_records",
            "reduce_output_bytes",
        ):
            setattr(out, name, getattr(self, name) * factor)
        return out
