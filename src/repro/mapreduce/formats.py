"""Input sources for the execution fabric.

An :class:`InputSource` describes where a job's records come from and how
to split them across map tasks.  Besides the plain record-file input
(standard MapReduce), this module provides the optimized input formats the
Manimal execution descriptor can select -- the "few modifications to
support B+Tree-indexed input formats and delta-compression" the paper
mentions for its Hadoop prototype (Section 2.2), plus the projection and
dictionary formats that "can be performed without any infrastructure-level
support at all".

Few modifications indeed: record, projected, delta and dictionary inputs
(and every partition of a partitioned dataset) are one block-file
container (:mod:`repro.storage.blockfile`) under different value codecs,
so they share one ``splits``/``open`` (:class:`BlockFileInput`); only the
B+Tree input has a scan of its own.

Every split reader keeps byte/record accounting that the runtime folds
into :class:`~repro.mapreduce.metrics.JobMetrics`:

* ``stored_bytes``  -- bytes physically read from disk,
* ``logical_bytes`` -- size of the equivalent decoded record stream (for a
  delta file this exceeds stored bytes: decode work is not saved),
* ``fields``        -- total record fields decoded,
* ``records``       -- records delivered to ``map()``,
* ``skipped``       -- records the format filtered out *without* invoking
  ``map()`` (selection-index savings).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import CorruptFileError, JobConfigError
from repro.mapreduce.keyspace import estimate_size
from repro.storage import varint
from repro.storage.blockfile import BlockFileReader, BlockInfo
from repro.storage.btree import BTree
from repro.storage.delta import DeltaFileReader
from repro.storage.dictionary import DictionaryFileReader
from repro.storage.partitioned import (
    PartitionedDatasetInfo,
    PartitionStats,
    read_partitioned_info,
)
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import FieldDecodeCounter, Record, Schema


class InputSplit:
    """One map task's share of an input source."""

    __slots__ = ("source", "payload")

    def __init__(self, source: "InputSource", payload: Any):
        self.source = source
        self.payload = payload


class SplitReader:
    """Iterator over one split's (key, value) pairs, with accounting."""

    def __init__(self, pairs: Iterator[Tuple[Any, Any]],
                 finalize: Optional[Callable[["SplitReader"], None]] = None,
                 field_counter: Optional[FieldDecodeCounter] = None):
        self._pairs = pairs
        self._finalize = finalize
        self.stored_bytes = 0
        self.logical_bytes = 0
        self.fields = 0
        self.records = 0
        self.skipped = 0
        #: live materialization tally on lazy-decoding inputs; the runtime
        #: reads it *after* the whole map task (not at end-of-iteration),
        #: so fields a task materializes downstream of the scan -- size
        #: accounting of emitted records, the combiner -- still count
        self.field_counter = field_counter

    @property
    def fields_decoded(self) -> int:
        """Total value-field decode work charged to this split so far."""
        if self.field_counter is not None:
            return self.fields + self.field_counter.count
        return self.fields

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        # The finalizer closes the input file and harvests its byte
        # count, so it must also run when the scan ends early -- a map()
        # that raises, an injected fault, a corrupt block.
        try:
            for key, value in self._pairs:
                self.records += 1
                yield key, value
        finally:
            finalize, self._finalize = self._finalize, None
            if finalize is not None:
                finalize(self)


def _record_fields(record: Any) -> int:
    if isinstance(record, Record):
        return max(1, len(record.schema.fields))
    return 1


class InputSource:
    """Base class: enumerate splits and open readers over them."""

    def __init__(self, tag: Optional[str] = None):
        #: label delivered to the mapper context (multi-input jobs)
        self.tag = tag

    def splits(self, target: int) -> List[InputSplit]:
        raise NotImplementedError

    def open(self, split: InputSplit) -> SplitReader:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


def _block_chunks(reader_class: Type[BlockFileReader], path: str,
                  n_chunks: int) -> List[List[BlockInfo]]:
    """The block directory of ``path`` as up to ``n_chunks`` contiguous runs."""
    with reader_class(path) as reader:
        blocks = reader.blocks()
    if not blocks:
        return []
    n_chunks = max(1, min(n_chunks, len(blocks)))
    per = (len(blocks) + n_chunks - 1) // n_chunks
    return [blocks[i:i + per] for i in range(0, len(blocks), per)]


def _open_blocks(reader_class: Type[BlockFileReader], path: str,
                 blocks: List[BlockInfo], lazy_values: bool) -> SplitReader:
    """A split reader over ``blocks`` of the block file at ``path``.

    Eager scans charge every value field of every record; lazy ones
    (identity-codec files with a transparent value schema) charge
    materializations only.
    """
    reader = reader_class(path)

    def finalize(sr_: SplitReader) -> None:
        sr_.stored_bytes += reader.bytes_read
        reader.close()

    if lazy_values and reader.value_schema.transparent:
        counter = FieldDecodeCounter()
        lazy_keys = reader.key_schema.transparent
        # estimated_size comes from the boundary scan and is
        # byte-identical to estimate_size(record) -- charging logical
        # bytes must not force a decode.
        key_size = attrgetter("estimated_size") if lazy_keys else estimate_size

        def generate() -> Iterator[Tuple[Any, Any]]:
            for key, value in reader.iter_records(
                blocks, lazy_values=True, field_counter=counter,
                lazy_keys=lazy_keys,
            ):
                sr.logical_bytes += key_size(key) + value.estimated_size
                yield key, value
    else:
        counter = None

        def generate() -> Iterator[Tuple[Any, Any]]:
            for key, value in reader.iter_records(blocks):
                sr.logical_bytes += estimate_size(key) + estimate_size(value)
                sr.fields += _record_fields(value)
                yield key, value

    sr = SplitReader(generate(), finalize, field_counter=counter)
    return sr


class BlockFileInput(InputSource):
    """An input that scans one block file: splits are runs of its blocks.

    Subclasses differ only in the class attributes below.
    """

    #: The format (hence value codec) the file at ``path`` must hold.
    reader_class: Type[BlockFileReader]
    #: What ``describe()`` calls this kind of scan.
    label: str
    #: Decode value fields lazily (on first attribute access) and charge
    #: ``fields_deserialized`` for materializations only.
    lazy_values = False

    def __init__(self, path: str, tag: Optional[str] = None):
        super().__init__(tag)
        self.path = path

    def splits(self, target: int) -> List[InputSplit]:
        return [
            InputSplit(self, chunk)
            for chunk in _block_chunks(self.reader_class, self.path, target)
        ]

    def open(self, split: InputSplit) -> SplitReader:
        return _open_blocks(self.reader_class, self.path, split.payload,
                            self.lazy_values)

    def describe(self) -> str:
        return f"{self.label}({self.path})"


class RecordFileInput(BlockFileInput):
    """Standard MapReduce input: scan a whole record file.

    Values decode eagerly, modeling stock MapReduce deserialization (the
    paper's Section 2.2 baseline: every serialized field is built whether
    or not ``map()`` reads it).  Subclasses serving analyzer-proved access
    patterns flip :attr:`lazy_values` to decode on demand instead.
    """

    reader_class = RecordFileReader
    label = "scan"


class ProjectedFileInput(RecordFileInput):
    """Projection-index input: smaller file, and lazy field decoding.

    The stored savings come from the file keeping only analyzer-proved
    fields; on top of that, values decode lazily, so a record that fails
    the mapper's filter before touching its remaining fields never pays
    their deserialization.  ``fields_deserialized`` therefore reports the
    fields the map phase *materialized*, not the fields the file stores --
    the paper's Figure 6 savings measured in decode work, not just bytes.
    """

    lazy_values = True
    label = "projected-scan"


class PartitionedInput(InputSource):
    """Scan a partitioned dataset directory, partition by partition.

    Splits never span partitions, so the planner can drop whole
    partitions (zone-map pruning, see
    :mod:`repro.core.optimizer.pruning`) and the runners -- sequential,
    worker-pool parallel, and the DAG stage scheduler alike -- fan map
    tasks out over surviving partitions only.  An unpruned scan delivers
    exactly the records of the equivalent single-file scan (partition
    order, then record order within each partition).

    ``selected`` restricts the scan to a subset of partition file names
    (None means all); ``pruned_detail`` carries the planner's
    human-readable pruning reason into ``describe()`` and explain
    output.
    """

    def __init__(self, path: str, tag: Optional[str] = None,
                 selected: Optional[Sequence[str]] = None,
                 pruned_detail: str = ""):
        super().__init__(tag)
        self.path = path
        self.selected = list(selected) if selected is not None else None
        self.pruned_detail = pruned_detail
        self._info: Optional[PartitionedDatasetInfo] = None

    # The cached sidecar holds live Schema objects; drop it when splits
    # cross process boundaries (parallel-runner job state pickling).
    def __getstate__(self):
        state = dict(
            path=self.path, tag=self.tag, selected=self.selected,
            pruned_detail=self.pruned_detail,
        )
        return state

    def __setstate__(self, state):
        self.path = state["path"]
        self.tag = state["tag"]
        self.selected = state["selected"]
        self.pruned_detail = state["pruned_detail"]
        self._info = None

    def info(self) -> PartitionedDatasetInfo:
        """The dataset's sidecar (loaded once per input instance)."""
        if self._info is None:
            self._info = read_partitioned_info(self.path)
        return self._info

    def partitions(self) -> List[PartitionStats]:
        """The partitions this input will scan, in sidecar order."""
        stats = self.info().partitions
        if self.selected is None:
            return list(stats)
        keep = set(self.selected)
        return [p for p in stats if p.file in keep]

    def partition_counts(self) -> Tuple[int, int]:
        """(partitions scanned, partitions pruned) for metrics reporting."""
        total = self.info().num_partitions
        scanned = len(self.partitions())
        return scanned, total - scanned

    def with_partitions(self, selected: Sequence[str],
                        pruned_detail: str = "") -> "PartitionedInput":
        """A copy of this input restricted to the named partitions."""
        return PartitionedInput(
            self.path, tag=self.tag, selected=list(selected),
            pruned_detail=pruned_detail,
        )

    def splits(self, target: int) -> List[InputSplit]:
        """One or more splits per surviving partition, never spanning two.

        ``target`` is the overall split budget for this input; it is
        divided across partitions so a many-partition dataset does not
        multiply map-task count by the per-input split target.
        """
        info = self.info()
        parts = self.partitions()
        out: List[InputSplit] = []
        if not parts:
            return out
        per_partition = max(1, target // len(parts))
        for stats in parts:
            path = info.partition_path(stats)
            for chunk in _block_chunks(RecordFileReader, path, per_partition):
                out.append(InputSplit(self, (path, chunk)))
        return out

    def open(self, split: InputSplit) -> SplitReader:
        path, blocks = split.payload
        return _open_blocks(RecordFileReader, path, blocks, lazy_values=False)

    def describe(self) -> str:
        scanned, pruned = self.partition_counts()
        total = scanned + pruned
        return f"partitioned-scan({self.path}, {scanned}/{total} partitions)"


class DeltaFileInput(BlockFileInput):
    """Delta-compressed input: fewer stored bytes, same decode work.

    ``logical_bytes`` reflects the reconstructed record stream, so the cost
    model still charges full deserialization -- reproducing the paper's
    Table 5 observation that delta compression saves I/O but not CPU.
    """

    reader_class = DeltaFileReader
    label = "delta-scan"


class DictionaryFileInput(BlockFileInput):
    """Direct-operation input: the mapper sees compressed (integer) codes.

    Both stored and logical bytes shrink, because the value is *never*
    decompressed -- this is what distinguishes direct operation from
    ordinary whole-file compression, which saves disk but not decode work.
    """

    reader_class = DictionaryFileReader
    label = "dict-scan"


class KeyRange:
    """A scan range over encoded B+Tree keys; ``None`` bounds are open."""

    __slots__ = ("lo", "hi", "lo_inclusive", "hi_inclusive")

    def __init__(self, lo: Optional[bytes], hi: Optional[bytes],
                 lo_inclusive: bool = True, hi_inclusive: bool = True):
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive

    def __repr__(self) -> str:
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        return f"KeyRange{lo_b}{self.lo!r}, {self.hi!r}{hi_b}"


class SelectionIndexInput(InputSource):
    """B+Tree-indexed input: scan only the ranges that can pass the filter.

    Index entries store the original (key, value) record pair, framed, so a
    range scan reconstructs exactly the map inputs that the selection
    predicate admits.  An optional ``residual`` predicate re-checks each
    record (needed when the DNF has conjuncts the single-field index cannot
    express); records failing it are counted as skipped, never mapped.
    """

    def __init__(
        self,
        index_path: str,
        ranges: Sequence[KeyRange],
        residual: Optional[Callable[[Any, Any], bool]] = None,
        tag: Optional[str] = None,
    ):
        super().__init__(tag)
        if not ranges:
            raise JobConfigError("selection-index input needs at least one range")
        self.index_path = index_path
        self.ranges = list(ranges)
        self.residual = residual

    def splits(self, target: int) -> List[InputSplit]:
        # One split per range: ranges are disjoint DNF disjunct intervals.
        return [InputSplit(self, rng) for rng in self.ranges]

    def open(self, split: InputSplit) -> SplitReader:
        tree = BTree(self.index_path)
        key_schema = Schema.from_dict(tree.metadata["key_schema"])
        value_schema = Schema.from_dict(tree.metadata["value_schema"])
        rng: KeyRange = split.payload

        def generate() -> Iterator[Tuple[Any, Any]]:
            for _ikey, framed in tree.scan(
                rng.lo, rng.hi, rng.lo_inclusive, rng.hi_inclusive
            ):
                klen, pos = varint.decode_uvarint(framed, 0)
                kend = pos + klen
                if kend > len(framed):
                    raise CorruptFileError(
                        f"{self.index_path}: truncated index entry"
                    )
                key = key_schema.decode(framed, pos, kend)
                value = value_schema.decode(framed, kend)
                if self.residual is not None and not self.residual(key, value):
                    sr.skipped += 1
                    continue
                sr.logical_bytes += estimate_size(key) + estimate_size(value)
                sr.fields += _record_fields(value)
                yield key, value

        def finalize(sr_: SplitReader) -> None:
            sr_.stored_bytes += tree.bytes_read
            tree.close()

        sr = SplitReader(generate(), finalize)
        return sr

    def describe(self) -> str:
        return f"btree-scan({self.index_path}, {len(self.ranges)} ranges)"


class InMemoryInput(InputSource):
    """Test/example input from an in-memory pair list."""

    def __init__(self, pairs: Sequence[Tuple[Any, Any]],
                 tag: Optional[str] = None):
        super().__init__(tag)
        self.pairs = list(pairs)

    def splits(self, target: int) -> List[InputSplit]:
        if not self.pairs:
            return []
        target = max(1, min(target, len(self.pairs)))
        per = (len(self.pairs) + target - 1) // target
        return [
            InputSplit(self, self.pairs[i:i + per])
            for i in range(0, len(self.pairs), per)
        ]

    def open(self, split: InputSplit) -> SplitReader:
        def generate() -> Iterator[Tuple[Any, Any]]:
            for key, value in split.payload:
                size = estimate_size(key) + estimate_size(value)
                sr.stored_bytes += size
                sr.logical_bytes += size
                sr.fields += _record_fields(value)
                yield key, value

        sr = SplitReader(generate())
        return sr

    def describe(self) -> str:
        return f"memory({len(self.pairs)} pairs)"


def frame_index_entry(kraw: bytes, vraw: bytes) -> bytes:
    """Frame an original record pair for storage as a B+Tree value."""
    return varint.encode_uvarint(len(kraw)) + kraw + vraw
