"""Partitioned datasets: a directory of record files plus zone-map statistics.

A partitioned dataset spreads one logical record stream over several
ordinary record files ("partitions") and keeps a statistics *sidecar*
(``_partitions.json``) describing each partition: record count, byte
size, and per-field **zone maps** (min/max of every comparable value
field).  The sidecar is written in the same single pass that writes the
data, so it is always consistent with the partition files.

The point of the layout is *partition pruning*: a statically detected
selection (``pagerank > 10``) can be checked against each partition's
zone maps before any byte is read, and partitions that provably contain
no qualifying record are dropped from the plan entirely (see
:mod:`repro.core.optimizer.pruning`).  This extends the paper's thesis --
detected access patterns should change what the runtime *reads* -- from
per-file index choice down to which files of a multi-file input exist at
all for a given job.

Layout::

    dataset-dir/
        _partitions.json      # sidecar: schemas, layout, per-partition stats
        part-00000.rf         # ordinary record files (RecordFileReader-able)
        part-00001.rf
        ...

Two partitioning modes are supported, both one-pass over the data:

* ``hash``  -- records are routed by a stable content hash of the
  partition field (or of the whole key when ``partition_by`` is None);
* ``range`` -- records are routed by ``partition_by`` against a sorted
  list of bound values (equi-depth bounds are computed from the data
  when not supplied).  Range layout clusters field values, which is what
  makes the zone maps sharp enough to prune selective scans.
"""

from __future__ import annotations

import json
import os
import stat
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import CorruptFileError, SerializationError
from repro.storage.blockfile import DEFAULT_BLOCK_SIZE
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import Record, Schema

#: Sidecar file name inside a partition directory.
SIDECAR_NAME = "_partitions.json"

#: Sidecar format marker / version (readers reject unknown versions).
SIDECAR_FORMAT = "repro-partitioned-dataset"
SIDECAR_VERSION = 1

#: Partitioning modes.
MODE_HASH = "hash"
MODE_RANGE = "range"


def partition_file_name(index: int) -> str:
    return f"part-{index:05d}.rf"


@dataclass
class ZoneMap:
    """Min/max of one field's values within one partition.

    Absent zone maps (opaque schemas, non-comparable field types, fields
    whose observed values were all missing) mean "nothing is known": the
    pruner must keep the partition.
    """

    min_value: Any
    max_value: Any

    def to_dict(self) -> Dict[str, Any]:
        return {"min": self.min_value, "max": self.max_value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ZoneMap":
        return cls(min_value=data["min"], max_value=data["max"])


@dataclass
class PartitionStats:
    """Sidecar entry for one partition file."""

    file: str
    records: int
    bytes: int
    zone_maps: Dict[str, ZoneMap] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "records": self.records,
            "bytes": self.bytes,
            "zone_maps": {
                name: zm.to_dict() for name, zm in sorted(self.zone_maps.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PartitionStats":
        return cls(
            file=data["file"],
            records=int(data["records"]),
            bytes=int(data["bytes"]),
            zone_maps={
                name: ZoneMap.from_dict(zm)
                for name, zm in data.get("zone_maps", {}).items()
            },
        )


@dataclass
class PartitionedDatasetInfo:
    """Everything the sidecar records about one partitioned dataset."""

    directory: str
    key_schema: Schema
    value_schema: Schema
    partition_by: Optional[str]
    mode: str
    bounds: Optional[List[Any]]
    partitions: List[PartitionStats]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def total_records(self) -> int:
        return sum(p.records for p in self.partitions)

    @property
    def total_bytes(self) -> int:
        return sum(p.bytes for p in self.partitions)

    def partition_path(self, stats: PartitionStats) -> str:
        return os.path.join(self.directory, stats.file)

    def describe(self) -> str:
        by = self.partition_by or "<record key>"
        return (
            f"partitioned dataset {self.directory} "
            f"({self.num_partitions} partitions, {self.mode} by {by}, "
            f"{self.total_records} records)"
        )


def is_partitioned_dataset(path: str) -> bool:
    """Whether ``path`` is a partition directory with a sidecar."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(path, SIDECAR_NAME)
    )


class InputIdentity(NamedTuple):
    """Which bytes an input path holds right now (see :func:`input_identity`)."""

    path: str
    #: ``file``, ``dir`` (answered by the sidecar), ``dir-no-sidecar``
    #: or ``missing``
    kind: str
    size: int
    mtime_ns: int


def input_identity(path: str) -> InputIdentity:
    """The one answer to "what bytes is this input, right now".

    Absolute path, kind, size and modification time of the file that
    tracks ``path``'s contents.  A plain file tracks itself.  A partition
    directory answers through its statistics sidecar -- every rewrite of
    the dataset replaces it, whereas the directory's own mtime misses
    in-place partition-file rewrites; a directory without a sidecar falls
    back to its own mtime, and a path that cannot be stat'ed is
    ``missing``.  Never raises.

    Everything keyed on an input's contents calls this and compares the
    results for equality: the engine's analysis (and so plan) cache, the
    service result cache and batch window, shared-scan grouping, the
    cost-based optimizer's selectivity cache, and the catalog's index
    stamps.  Equal identities mean whatever was derived from the input
    still describes it -- up to the file system's mtime granularity: a
    same-size rewrite inside one tick is invisible to all of them alike.
    """
    path = os.path.abspath(path)
    try:
        st = os.stat(path)
    except OSError:
        return InputIdentity(path, "missing", 0, 0)
    if not stat.S_ISDIR(st.st_mode):
        return InputIdentity(path, "file", st.st_size, st.st_mtime_ns)
    try:
        st = os.stat(sidecar_path(path))
    except OSError:
        return InputIdentity(path, "dir-no-sidecar", 0, st.st_mtime_ns)
    return InputIdentity(path, "dir", st.st_size, st.st_mtime_ns)


def sidecar_path(directory: str) -> str:
    return os.path.join(directory, SIDECAR_NAME)


def read_partitioned_info(directory: str) -> PartitionedDatasetInfo:
    """Load and validate a dataset's sidecar."""
    path = sidecar_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise CorruptFileError(
            f"{directory}: not a partitioned dataset (no {SIDECAR_NAME})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptFileError(
            f"{path}: unreadable partition sidecar: {exc}"
        ) from exc
    if data.get("format") != SIDECAR_FORMAT:
        raise CorruptFileError(f"{path}: unknown sidecar format")
    if data.get("version") != SIDECAR_VERSION:
        raise CorruptFileError(
            f"{path}: unsupported sidecar version {data.get('version')!r}"
        )
    return PartitionedDatasetInfo(
        directory=directory,
        key_schema=Schema.from_dict(data["key_schema"]),
        value_schema=Schema.from_dict(data["value_schema"]),
        partition_by=data.get("partition_by"),
        mode=data.get("mode", MODE_HASH),
        bounds=data.get("bounds"),
        partitions=[
            PartitionStats.from_dict(p) for p in data.get("partitions", [])
        ],
    )


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class _ZoneMapBuilder:
    """Accumulates per-field min/max for one partition in the write pass.

    Only comparable field types of transparent schemas participate; a
    field whose observed values are missing (None) or mutually
    incomparable ends up without a zone map, which pruning treats as
    "unknown -- keep the partition".
    """

    def __init__(self, value_schema: Schema):
        if value_schema.transparent:
            self._fields = [
                f.name for f in value_schema.fields if f.ftype.is_comparable
            ]
        else:
            self._fields = []
        self._minmax: Dict[str, Tuple[Any, Any]] = {}
        self._dead: set = set()

    def observe(self, value: Any) -> None:
        if not self._fields or not isinstance(value, Record):
            return
        minmax = self._minmax
        for name in self._fields:
            if name in self._dead:
                continue
            v = value.get(name)
            if v is None:
                continue
            current = minmax.get(name)
            if current is None:
                minmax[name] = (v, v)
                continue
            try:
                lo, hi = current
                if v < lo:
                    minmax[name] = (v, hi)
                elif v > hi:
                    minmax[name] = (lo, v)
            except TypeError:
                # Mutually incomparable values: no usable ordering, so no
                # zone map for this field in this partition.
                self._dead.add(name)
                minmax.pop(name, None)

    def build(self) -> Dict[str, ZoneMap]:
        return {
            name: ZoneMap(lo, hi) for name, (lo, hi) in self._minmax.items()
        }


def validate_partition_by(value_schema: Schema,
                          partition_by: Optional[str]) -> None:
    """Reject a partition column the value schema cannot route by.

    The one validation site for the whole stack: the writer calls it at
    write time, and the fluent ``Session.write`` calls it *before*
    executing the query so a typo'd column fails free instead of after
    a full job run.
    """
    if partition_by is None:
        return
    if not value_schema.transparent:
        raise SerializationError(
            f"cannot partition by {partition_by!r}: value schema "
            f"{value_schema.name!r} is opaque"
        )
    if not value_schema.has_field(partition_by):
        raise SerializationError(
            f"cannot partition by unknown field {partition_by!r}; "
            f"schema {value_schema.name!r} has "
            f"{value_schema.field_names()}"
        )
    if not value_schema.field(partition_by).ftype.is_comparable:
        # A non-comparable column carries no zone maps, so the layout
        # could never prune on it -- refuse rather than build a dataset
        # whose whole point is structurally impossible.
        raise SerializationError(
            f"cannot partition by {partition_by!r}: "
            f"{value_schema.field(partition_by).ftype.value} fields are "
            "not comparable and carry no zone maps"
        )


def equi_depth_bounds(values: Sequence[Any], num_partitions: int) -> List[Any]:
    """``num_partitions - 1`` split points giving roughly equal-size buckets."""
    if num_partitions < 1:
        raise SerializationError("num_partitions must be >= 1")
    ordered = sorted(values)
    n = len(ordered)
    bounds: List[Any] = []
    for i in range(1, num_partitions):
        if not ordered:
            break
        cut = ordered[min(n - 1, (n * i) // num_partitions)]
        if not bounds or cut > bounds[-1]:
            bounds.append(cut)
    return bounds


def _stable_field_hash(value: Any) -> int:
    from repro.mapreduce.keyspace import stable_hash

    return stable_hash(value)


def write_partitioned_dataset(
    directory: str,
    key_schema: Schema,
    value_schema: Schema,
    pairs: Iterable[Tuple[Record, Record]],
    num_partitions: int,
    partition_by: Optional[str] = None,
    mode: Optional[str] = None,
    bounds: Optional[Sequence[Any]] = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> PartitionedDatasetInfo:
    """Write ``pairs`` as a partition directory with a statistics sidecar.

    :param partition_by: value field routing records to partitions; when
        None, records are hash-routed by their key.
    :param mode: ``'range'`` (default when ``partition_by`` is given) or
        ``'hash'``.  Range layout sorts field values into contiguous
        buckets, which is what gives zone maps pruning power.
    :param bounds: explicit range split points (``num_partitions - 1`` of
        them); computed equi-depth from the data when omitted.  Ignored
        for hash mode.

    Partition files, zone maps and the sidecar are produced in one pass
    over ``pairs``.  Empty partitions still get a (header-only) file so
    the directory layout is uniform.
    """
    if num_partitions < 1:
        raise SerializationError("num_partitions must be >= 1")
    validate_partition_by(value_schema, partition_by)
    if mode is None:
        mode = MODE_RANGE if partition_by is not None else MODE_HASH
    if mode not in (MODE_HASH, MODE_RANGE):
        raise SerializationError(f"unknown partitioning mode {mode!r}")
    if mode == MODE_RANGE and partition_by is None:
        raise SerializationError("range partitioning needs partition_by")

    pairs = list(pairs)
    cut_points: Optional[List[Any]] = None
    if mode == MODE_RANGE:
        if bounds is not None:
            cut_points = list(bounds)
            if sorted(cut_points) != cut_points:
                raise SerializationError("range bounds must be sorted")
            if len(cut_points) > num_partitions - 1:
                raise SerializationError(
                    f"{len(cut_points)} range bounds need "
                    f"{len(cut_points) + 1} partitions, got {num_partitions}"
                )
        else:
            cut_points = equi_depth_bounds(
                [getattr(value, partition_by) for _key, value in pairs],
                num_partitions,
            )

    def route(key: Record, value: Record) -> int:
        if mode == MODE_RANGE:
            return bisect_right(cut_points, getattr(value, partition_by))
        if partition_by is not None:
            return _stable_field_hash(getattr(value, partition_by)) \
                % num_partitions
        return _stable_field_hash(key) % num_partitions

    os.makedirs(directory, exist_ok=True)
    _clear_previous_layout(directory)
    writers: List[RecordFileWriter] = []
    builders: List[_ZoneMapBuilder] = []
    try:
        for i in range(num_partitions):
            writers.append(
                RecordFileWriter(
                    os.path.join(directory, partition_file_name(i)),
                    key_schema,
                    value_schema,
                    block_size=block_size,
                    metadata={"partition_index": i},
                )
            )
            builders.append(_ZoneMapBuilder(value_schema))
        for key, value in pairs:
            index = route(key, value)
            writers[index].append(key, value)
            builders[index].observe(value)
    finally:
        for writer in writers:
            writer.close()

    partitions: List[PartitionStats] = []
    for i, (writer, builder) in enumerate(zip(writers, builders)):
        name = partition_file_name(i)
        partitions.append(
            PartitionStats(
                file=name,
                records=writer.records_written,
                bytes=os.path.getsize(os.path.join(directory, name)),
                zone_maps=builder.build(),
            )
        )

    info = PartitionedDatasetInfo(
        directory=directory,
        key_schema=key_schema,
        value_schema=value_schema,
        partition_by=partition_by,
        mode=mode,
        bounds=cut_points,
        partitions=partitions,
    )
    _write_sidecar(info)
    return info


def _clear_previous_layout(directory: str) -> None:
    """Drop a previous write's sidecar and partition files.

    Rewriting a dataset in place with fewer partitions must not leave
    the old layout's surplus ``part-*.rf`` files behind: readers follow
    the sidecar, but directory consumers (globs, disk accounting, the
    catalog's byte stats) would see stale data.  The sidecar goes first
    so a crash mid-clear leaves a directory that reads as "not a
    partitioned dataset" rather than one with a lying sidecar.
    """
    side = sidecar_path(directory)
    if os.path.exists(side):
        os.remove(side)
    for name in os.listdir(directory):
        if name.startswith("part-") and name.endswith(".rf"):
            try:
                os.remove(os.path.join(directory, name))
            except OSError:
                pass


def _write_sidecar(info: PartitionedDatasetInfo) -> None:
    data = {
        "format": SIDECAR_FORMAT,
        "version": SIDECAR_VERSION,
        "key_schema": info.key_schema.to_dict(),
        "value_schema": info.value_schema.to_dict(),
        "partition_by": info.partition_by,
        "mode": info.mode,
        "bounds": info.bounds,
        "total_records": info.total_records,
        "total_bytes": info.total_bytes,
        "partitions": [p.to_dict() for p in info.partitions],
    }
    tmp = sidecar_path(info.directory) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
    os.replace(tmp, sidecar_path(info.directory))
