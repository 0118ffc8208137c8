"""Input sources for the execution fabric.

An :class:`InputSource` describes where a job's records come from and how
to split them across map tasks.  Besides the plain record-file input
(standard MapReduce), this module provides the optimized input formats the
Manimal execution descriptor can select -- the "few modifications to
support B+Tree-indexed input formats and delta-compression" the paper
mentions for its Hadoop prototype (Section 2.2), plus the projection and
dictionary formats that "can be performed without any infrastructure-level
support at all".

Few modifications indeed: record, projected, delta, dictionary and
selection-index inputs (and every partition of a partitioned dataset)
are one block-file container (:mod:`repro.storage.blockfile`) under
different value codecs and footers, so they share one ``splits``/``open``
(:class:`BlockFileInput`); only the selection-index input has splits of
its own (one run of blocks per key range).

And one scan: every block is decoded whole by the compiled scanner of
its file's shape (:func:`~repro.storage.blockscan.split_scanner`) --
record, projection, delta, dictionary and index files and partitions
alike --
charged its logical bytes (read off the wire) once, and charged every
field it captures of every record.  Its values are slotted records with
every captured field filled
(:func:`~repro.storage.serialization.build_records`).  What it captures
is the input's :class:`~repro.storage.blockscan.ReadShape`: every stored
field and the keys unless the optimizer attached a narrower one
(:meth:`BlockFileInput.with_shape`, :meth:`PartitionedInput.with_shape`)
from the analyzer's proof of what ``map()`` reads.  A shape that skips
keys hands ``map()`` a module-private sentinel as its key, which the
shuffle's sizer, hash and sort key all reject; a shape that captures
some value fields yields exactly the records a projection file of those
fields would (``schema.project(kept)``), so reading any other field
raises :class:`~repro.exceptions.FieldNotPresentError`.
A block decodes whole before its first record reaches ``map()``, so a
damaged block fails before ``map()`` sees any of its records: a block
the scanner cannot prove is re-walked by the container's reference
decode (:meth:`~repro.storage.blockfile.BlockFileReader.decode_block`,
sized a column at a time), and that walk's exception is raised.  The
same walk is the whole scan of an opaque schema.

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

import copy
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import JobConfigError
from repro.mapreduce.keyspace import pair_sizes
from repro.storage.blockfile import BlockFileReader, BlockInfo
from repro.storage.blockscan import FULL_READ, ReadShape, split_scanner
from repro.storage.delta import DeltaFileReader
from repro.storage.dictionary import DictionaryFileReader
from repro.storage.indexfile import IndexFileReader
from repro.storage.partitioned import (
    PartitionedDatasetInfo,
    PartitionStats,
    read_partitioned_info,
)
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import Record, build_records


class InputSplit:
    """One map task's share of an input source."""

    __slots__ = ("source", "payload")

    def __init__(self, source: "InputSource", payload: Any):
        self.source = source
        self.payload = payload


class SplitReader:
    """Iterator over one split's (key, value) pairs, with accounting."""

    def __init__(self, pairs: Iterator[Tuple[Any, Any]],
                 finalize: Optional[Callable[["SplitReader"], None]] = None):
        self._pairs = pairs
        self._finalize = finalize
        self.stored_bytes = 0
        self.logical_bytes = 0
        self.fields = 0
        self.records = 0
        self.skipped = 0

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


_KEY = itemgetter(0)
_VALUE = itemgetter(1)


def _record_fields(record: Any) -> int:
    if isinstance(record, Record):
        return max(1, len(record.schema.fields))
    return 1


def _pairs_bytes(pairs: Sequence[Tuple[Any, Any]]) -> int:
    """``estimate_size(key) + estimate_size(value)`` summed over ``pairs``,
    a column at a time; raises what the per-pair sum raises first."""
    key_bytes, value_bytes = pair_sizes(list(map(_KEY, pairs)),
                                        list(map(_VALUE, pairs)))
    return key_bytes + value_bytes


class InputSource:
    """Base class: enumerate splits and open readers over them."""

    #: what the record path builds of each record; block-file and
    #: partitioned inputs honour a narrower one, every other input
    #: decodes in full
    shape: ReadShape = FULL_READ

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


def _reference_block(reader: BlockFileReader, payload: bytes, n_records: int
                     ) -> Tuple[List[Tuple[Any, Any]], int]:
    """One block through the reference decode, sized: ``(pairs, logical
    bytes)``.  The whole scan of an opaque schema, and the re-walk behind
    a block the compiled scanner cannot prove -- whose exception is the
    one raised, the sizing's included (a delta file's running sum can
    leave int64)."""
    pairs = list(reader.decode_block(payload, n_records))
    return pairs, _pairs_bytes(pairs)


class _UnreadKey:
    """The key ``map()`` receives when the analyzer proved it never reads
    its key.  Not a key type: emitting it fails the map task in the
    shuffle's sizer (``MapReduceError``) instead of shuffling a value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<unread key>"


_UNREAD_KEY = _UnreadKey()


def _open_blocks(reader: BlockFileReader, blocks: List[BlockInfo],
                 shape: ReadShape, refine: Optional[Callable] = None
                 ) -> SplitReader:
    """A split reader over ``blocks`` of the open block file ``reader``,
    which it closes when the scan ends.

    Every block decodes whole before its first record is yielded, and
    every value field ``shape`` captures of every record is charged.
    ``refine(position in blocks, pairs)``, when given, picks the pairs
    of each block that are yielded.
    """
    schema = reader.stored_schema
    if shape.fields is not None and schema.transparent:
        # the records a projection file of the captured fields holds
        kept = [name for name in schema.field_names() if name in shape.fields]
        if len(kept) < len(schema.fields):
            schema = schema.project(kept)
    scanner = split_scanner(reader, shape)
    width = max(1, len(schema.fields))

    def finalize(sr_: SplitReader) -> None:
        sr_.stored_bytes += reader.bytes_read
        reader.close()

    def generate() -> Iterator[Tuple[Any, Any]]:
        for position, (payload, n_records) in enumerate(
                reader.iter_block_payloads(blocks)):
            if scanner is not None:
                # the scanner's block figure is the logical-bytes charge
                columns, keys, logical = scanner.scan(
                    reader, payload, n_records, rewalk=_reference_block)
                sr.fields += n_records * width
                pairs = zip(repeat(_UNREAD_KEY) if keys is None else keys,
                            build_records(schema, columns, n_records))
            else:
                pairs, logical = _reference_block(reader, payload, n_records)
                sr.fields += sum(map(_record_fields, map(_VALUE, pairs)))
            sr.logical_bytes += logical
            if refine is not None:
                pairs = refine(position, list(pairs))
            yield from pairs

    sr = SplitReader(generate(), finalize)
    return sr


def _reshaped(source: Any, shape: ReadShape) -> Any:
    """``source``, or a copy of it reading ``shape``."""
    if shape == source.shape:
        return source
    shaped = copy.copy(source)
    shaped.shape = shape
    return shaped


class BlockFileInput(InputSource):
    """An input that scans one block file: splits are runs of its blocks.

    Subclasses differ only in the class attributes below.
    """

    #: The format (hence value codec) the file at ``path`` must hold.
    reader_class: Type[BlockFileReader]
    #: What ``describe()`` calls this kind of scan.
    label: str

    def __init__(self, path: str, tag: Optional[str] = None):
        super().__init__(tag)
        self.path = path

    def splits(self, target: int) -> List[InputSplit]:
        return [
            InputSplit(self, chunk)
            for chunk in _block_chunks(self.reader_class, self.path, target)
        ]

    def open(self, split: InputSplit) -> SplitReader:
        return _open_blocks(self.reader_class(self.path), split.payload,
                            self.shape)

    def with_shape(self, shape: ReadShape) -> "BlockFileInput":
        """A copy of this input whose record-path scan builds ``shape``."""
        return _reshaped(self, shape)

    def describe(self) -> str:
        return f"{self.label}({self.path})"


class RecordFileInput(BlockFileInput):
    """Standard MapReduce input: scan a whole record file.

    Every stored field is decoded and charged, modeling stock MapReduce
    deserialization (the paper's Section 2.2 baseline: every serialized
    field is built whether or not ``map()`` reads it).
    """

    reader_class = RecordFileReader
    label = "scan"


class ProjectedFileInput(RecordFileInput):
    """Projection-index input: a record file that stores only the
    analyzer-proved fields.

    The savings are the paper's: fewer stored bytes, and fewer fields to
    decode -- ``fields_deserialized`` charges the kept fields of every
    record, where a scan of the source charges all of them.
    """

    label = "projected-scan"


class PartitionedInput(InputSource):
    """Scan a partitioned dataset directory, partition by partition.

    Splits never span partitions, so the planner can drop whole
    partitions (zone-map pruning, see
    :mod:`repro.core.optimizer.pruning`) and the runners -- sequential
    and worker-pool parallel alike -- fan map tasks out over surviving
    partitions only.  An unpruned scan delivers
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
    # The shape travels: a worker that lost it would decode in full.
    def __getstate__(self):
        state = dict(
            path=self.path, tag=self.tag, selected=self.selected,
            pruned_detail=self.pruned_detail, shape=self.shape,
        )
        return state

    def __setstate__(self, state):
        self.path = state["path"]
        self.tag = state["tag"]
        self.selected = state["selected"]
        self.pruned_detail = state["pruned_detail"]
        self.shape = state["shape"]
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
        restricted = PartitionedInput(
            self.path, tag=self.tag, selected=list(selected),
            pruned_detail=pruned_detail,
        )
        restricted.shape = self.shape
        return restricted

    def with_shape(self, shape: ReadShape) -> "PartitionedInput":
        """A copy of this input whose record-path scan builds ``shape``."""
        return _reshaped(self, shape)

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
        return _open_blocks(RecordFileReader(path), blocks, self.shape)

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
    """A scan range over encoded order keys
    (:func:`~repro.storage.orderkeys.encode_key`); ``None`` bounds are open."""

    __slots__ = ("lo", "hi", "lo_inclusive", "hi_inclusive")

    def __init__(self, lo: Optional[bytes], hi: Optional[bytes],
                 lo_inclusive: bool = True, hi_inclusive: bool = True):
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive

    def admits(self, raw: bytes) -> bool:
        """Whether the encoded key ``raw`` lies in this range."""
        lo, hi = self.lo, self.hi
        return ((lo is None or raw > lo or self.lo_inclusive and raw == lo)
                and (hi is None or raw < hi or self.hi_inclusive and raw == hi))

    def __repr__(self) -> str:
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        return f"KeyRange{lo_b}{self.lo!r}, {self.hi!r}{hi_b}"


class SelectionIndexInput(InputSource):
    """Selection-index input: scan only the ranges that can pass the filter.

    The index file (:mod:`repro.storage.indexfile`) stores the original
    (key, value) record pairs sorted on the indexed field, so a range
    read reconstructs exactly the map inputs that the selection predicate
    admits.  An optional ``residual`` predicate re-checks each record
    (needed when the DNF has conjuncts the single-field index cannot
    express); records failing it are counted as skipped, never mapped.

    Each range is one split: the run of blocks the index's fences admit
    (:meth:`~repro.storage.indexfile.IndexFileReader.range_blocks`), read
    like any other block-file split -- every block decoded whole by the
    compiled scanner and charged whole, the fences charged once.  Only
    the run's two edge blocks can hold records outside the range; those
    are dropped (they are not "skipped": the index never offered them),
    and the residual runs over what is left of each block.
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
        with IndexFileReader(self.index_path) as reader:
            return [
                InputSplit(self, (rng, reader.range_blocks(
                    rng.lo, rng.hi, rng.lo_inclusive, rng.hi_inclusive)))
                for rng in self.ranges
            ]

    def open(self, split: InputSplit) -> SplitReader:
        rng, blocks = split.payload
        reader = IndexFileReader(self.index_path)
        residual, edges = self.residual, (0, len(blocks) - 1)

        def refine(position: int, pairs: list) -> list:
            if position in edges:
                pairs = [pair for pair in pairs
                         if rng.admits(reader.order_key(pair[1]))]
            if residual is not None:
                kept = [pair for pair in pairs if residual(*pair)]
                sr.skipped += len(pairs) - len(kept)
                pairs = kept
            return pairs

        sr = _open_blocks(reader, blocks, FULL_READ, refine)
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
            # sized as one column: an unsizable pair fails the split
            # whole, before map() sees any of its pairs
            pairs = split.payload
            size = _pairs_bytes(pairs)
            sr.stored_bytes += size
            sr.logical_bytes += size
            sr.fields += sum(map(_record_fields, map(_VALUE, pairs)))
            yield from pairs

        sr = SplitReader(generate())
        return sr

    def describe(self) -> str:
        return f"memory({len(self.pairs)} pairs)"
