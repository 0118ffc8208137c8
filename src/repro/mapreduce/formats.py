"""Input sources for the execution fabric.

An :class:`InputSource` describes where a job's records come from and how
to split them across map tasks.  Besides the plain record-file input
(standard MapReduce), this module provides the optimized input formats the
Manimal execution descriptor can select -- the "few modifications to
support B+Tree-indexed input formats and delta-compression" the paper
mentions for its Hadoop prototype (Section 2.2), plus the projection and
dictionary formats that "can be performed without any infrastructure-level
support at all".

Few modifications indeed: record, projected, delta, dictionary,
columnar and selection-index inputs (and every partition of a
partitioned dataset) are one block-file container
(:mod:`repro.storage.blockfile`) under different value codecs, block
layouts and footers, so they share one ``splits``/``open``
(:class:`BlockFileInput`); only the selection-index input has splits of
its own (one run of blocks per key range, and the rows of it to keep:
:class:`IndexRows`).  The optimizer's catalog copies -- selection
indexes included, which are sorted copies -- are all columnar
(:class:`ColumnarFileInput`); the row-major projected, delta and
dictionary inputs read what users write with the library writers.

And one scan, :func:`scan_blocks`, for the record path's split readers
and the batch path's column batches alike: every block is decoded whole
by the compiled scanner of its file's shape
(:func:`~repro.storage.blockscan.split_scanner`) -- or, for a columnar
file, by its column scan
(:meth:`~repro.storage.columnar.ColumnarFileReader.scanner`) --
charged its logical bytes (read off the wire) once, and charged every
field it captures of every record it delivers.  Its values are slotted records with
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
  ``map()`` (a selection index's residual).
"""

from __future__ import annotations

import copy
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import JobConfigError
from repro.mapreduce.keyspace import pair_sizes
from repro.storage.blockfile import BlockFileReader, BlockInfo
from repro.storage.blockscan import FULL_READ, ReadShape, split_scanner
from repro.storage.columnar import ColumnarFileReader
from repro.storage.delta import DeltaFileReader
from repro.storage.dictionary import DictionaryFileReader
from repro.storage.orderkeys import encode_key
from repro.storage.partitioned import (
    PartitionedDatasetInfo,
    PartitionStats,
    read_partitioned_info,
)
from repro.storage.recordfile import RecordFileReader
from repro.storage.serialization import Record, Schema, build_records

#: what :meth:`BlockFileInput.split_blocks` hands a scan: the open reader,
#: the split's blocks, and the rows of them to keep (``None``: all)
SplitBlocks = Tuple[BlockFileReader, List[BlockInfo], Optional["IndexRows"]]


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

    def split_blocks(self, split: InputSplit) -> "SplitBlocks":
        """What scanning ``split`` reads -- on the record path
        (:meth:`open`) and the batch path alike -- for a block input."""
        raise NotImplementedError

    def open(self, split: InputSplit) -> SplitReader:
        return _open_blocks(*self.split_blocks(split), self.shape)

    def with_shape(self, shape: ReadShape) -> "InputSource":
        """A copy of this input whose record-path scan builds ``shape``."""
        return _reshaped(self, shape)

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


def shaped_schema(schema: Schema, fields: Optional[Sequence[str]]
                  ) -> Schema:
    """The schema of the value records a scan capturing ``fields`` (``None``:
    all) of stored value schema ``schema`` yields: the records a projection
    file of the captured fields holds."""
    if fields is not None and schema.transparent:
        kept = [name for name in schema.field_names() if name in fields]
        if len(kept) < len(schema.fields):
            return schema.project(kept)
    return schema


class IndexRows:
    """A selection-index split: the run of blocks a key range's fences
    admit (:meth:`~repro.storage.columnar.ColumnarFileReader.range_blocks`),
    and the rows of it that its scan delivers.

    Only the run's two edge blocks can hold rows whose indexed field
    (the file's ``key_field``) lies outside the split's range: those are
    dropped -- they are not "skipped", the index never offered them.  Of
    the rest, the rows failing ``residual`` (the selection formula,
    re-checked because one field's ranges cannot express all of it) are
    dropped and counted as skipped.  ``shape`` is what deciding that
    reads: the indexed field, and what the residual reads.  It is the
    split's payload.
    """

    def __init__(self, reader: ColumnarFileReader, rng: "KeyRange",
                 residual: Any):
        stored = reader.stored_schema
        self.range = rng
        self.blocks = reader.range_blocks(rng.lo, rng.hi, rng.lo_inclusive,
                                          rng.hi_inclusive)
        self.edges = (0, len(self.blocks) - 1)
        self.field = reader.key_field
        self.order_key = partial(encode_key, stored.field(self.field).ftype)
        self.residual = residual
        reads = ReadShape(False, ()) if residual is None else residual.reads()
        #: the records the residual is evaluated on (an opaque copy's are
        #: the decoder's)
        self.schema = stored if reads.fields is None \
            or not reader.value_schema.transparent \
            else stored.project(reads.fields)
        self.shape = ReadShape(reads.decode_keys, None if reads.fields is None
                               else (*reads.fields, self.field))

    def widen(self, shape: ReadShape) -> ReadShape:
        """``shape`` and what choosing the rows reads (``fields`` None:
        every field)."""
        fields = None if shape.fields is None or self.shape.fields is None \
            else tuple(dict.fromkeys(shape.fields + self.shape.fields))
        return ReadShape(shape.decode_keys or self.shape.decode_keys, fields)

    def keep(self, position: int, column: Callable[[str], list],
             keys: Optional[Sequence[Any]], n: int,
             values: Optional[Sequence[Any]] = None
             ) -> Tuple[Sequence[int], int]:
        """The rows of the run's block ``position`` to deliver, and how
        many of the others the residual skipped; ``column(name)`` is a
        captured value column of the block, ``values`` its value records
        when the scan built them (else they are built from the columns)."""
        rows: Sequence[int] = range(n)
        if position in self.edges:
            rows = [i for i, value in enumerate(column(self.field))
                    if self.range.admits(self.order_key(value))]
        if self.residual is None:
            return rows, 0
        if values is None:
            values = build_records(self.schema, [
                column(name) for name in self.schema.field_names()], n)
        keys = keys or [_UNREAD_KEY] * n
        evaluate = self.residual.evaluate
        kept = [i for i in rows if evaluate(keys[i], values[i])]
        return kept, len(rows) - len(kept)


def scan_blocks(reader: BlockFileReader, blocks: Optional[List[BlockInfo]],
                scanner: Any, slots: Dict[str, int],
                rows: Optional[IndexRows] = None
                ) -> Iterator[Tuple[List[list], Optional[List[Any]], int, int,
                                    int]]:
    """The one block scan: each of ``blocks`` decoded whole by
    ``scanner`` (a compiled row-major or a columnar scan, whose columns
    ``slots`` names), as ``(columns, keys, rows, logical bytes, rows
    skipped)`` -- only the rows ``rows`` keeps, when given, so the mapper
    and the kernels see the same rows.  A block the scanner cannot prove
    raises what the sized reference decode raises."""
    for position, (payload, n) in enumerate(
            reader.iter_block_payloads(blocks)):
        columns, keys, logical = scanner.scan(reader, payload, n,
                                              rewalk=_reference_block)
        skipped = 0
        if rows is not None:
            kept, skipped = rows.keep(
                position, lambda name: columns[slots[name]], keys, n)
            if len(kept) < n:
                columns = [list(map(column.__getitem__, kept))
                           for column in columns]
                keys = keys and list(map(keys.__getitem__, kept))
                n = len(kept)
        yield columns, keys, n, logical, skipped


def _open_blocks(reader: BlockFileReader, blocks: List[BlockInfo],
                 rows: Optional[IndexRows], shape: ReadShape) -> SplitReader:
    """A split reader over ``blocks`` of the open block file ``reader``,
    which it closes when the scan ends.

    Every block decodes whole before its first record is yielded, and
    every value field ``shape`` -- widened to what ``rows`` reads --
    captures of every delivered record is charged.
    """
    if rows is not None:
        shape = rows.widen(shape)
    schema = shaped_schema(reader.stored_schema, shape.fields)
    scanner = (reader.scanner(shape) if isinstance(reader, ColumnarFileReader)
               else split_scanner(reader, shape))
    width = max(1, len(schema.fields))

    def finalize(sr_: SplitReader) -> None:
        sr_.stored_bytes += reader.bytes_read
        reader.close()

    def generate() -> Iterator[Tuple[Any, Any]]:
        if scanner is None:  # an opaque schema: the reference decode
            for position, (payload, n_records) in enumerate(
                    reader.iter_block_payloads(blocks)):
                pairs, logical = _reference_block(reader, payload, n_records)
                if rows is not None and pairs:
                    keys, values = zip(*pairs)
                    kept, skipped = rows.keep(position, lambda name: [
                        getattr(value, name) for value in values],
                        keys, n_records, values)
                    pairs = list(map(pairs.__getitem__, kept))
                    sr.skipped += skipped
                sr.fields += sum(map(_record_fields, map(_VALUE, pairs)))
                sr.logical_bytes += logical
                yield from pairs
            return
        slots = {name: i for i, name in enumerate(schema.field_names())}
        # the scanner's block figure is the logical-bytes charge
        for columns, keys, n, logical, skipped in scan_blocks(
                reader, blocks, scanner, slots, rows):
            sr.fields += n * width
            sr.logical_bytes += logical
            sr.skipped += skipped
            yield from zip(repeat(_UNREAD_KEY) if keys is None else keys,
                           build_records(schema, columns, n))

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

    def split_blocks(self, split: InputSplit) -> SplitBlocks:
        return self.reader_class(self.path), split.payload, None

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
    """A row-major projection file (``build_projection``): a record file
    that stores only some fields.  The optimizer's projection indexes are
    columnar copies (:class:`ColumnarFileInput`).

    The savings are the paper's: fewer stored bytes, and fewer fields to
    decode -- ``fields_deserialized`` charges the kept fields of every
    record, where a scan of the source charges all of them.
    """

    label = "projected-scan"


class ColumnarFileInput(BlockFileInput):
    """A catalog copy: a columnar file
    (:mod:`~repro.storage.columnar`) holding the source's records, or the
    analyzer-proved fields of them, column-major under per-column codecs.

    Every index the optimizer rewrites a source into -- projection,
    projection+delta, delta, dictionary -- is one of these; a scan
    decodes the columns its shape captures and passes over the rest.
    It is charged as the row-major copy of the same records is: the
    same ``logical_bytes`` (read off each block's header) and the same
    captured width per record; only ``stored_bytes`` differ.
    """

    reader_class = ColumnarFileReader
    label = "columnar-scan"


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

    def split_blocks(self, split: InputSplit) -> SplitBlocks:
        path, blocks = split.payload  # one partition's blocks
        return RecordFileReader(path), blocks, None

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


class SelectionIndexInput(ColumnarFileInput):
    """Selection-index input: scan only the ranges that can pass the filter.

    The index is a sorted columnar copy (:mod:`~repro.storage.columnar`,
    its indexed field's codec ``sorted``): the original
    (key, value) pairs -- the value projected, for a selection+projection
    index -- sorted on the indexed field, so a range read reconstructs
    exactly the map inputs the selection predicate admits.  Each range
    is one split: the run of blocks the copy's fences admit
    (:meth:`~repro.storage.columnar.ColumnarFileReader.range_blocks`),
    read by the one block scan like any columnar split, on the record
    path and the batch path alike.  The scan drops the edge blocks'
    out-of-range rows and the rows failing ``residual`` -- the selection
    formula: anything with ``evaluate(key, value)`` and ``reads()`` --
    before the mapper or a kernel sees them (:class:`IndexRows`).
    """

    label = "btree-scan"

    def __init__(self, path: str, ranges: Sequence[KeyRange],
                 residual: Any = None, tag: Optional[str] = None):
        super().__init__(path, tag)
        if not ranges:
            raise JobConfigError("selection-index input needs at least one range")
        self.ranges = list(ranges)
        self.residual = residual

    def splits(self, target: int) -> List[InputSplit]:
        # One split per range: ranges are disjoint DNF disjunct intervals.
        with ColumnarFileReader(self.path) as reader:
            return [InputSplit(self, IndexRows(reader, rng, self.residual))
                    for rng in self.ranges]

    def split_blocks(self, split: InputSplit) -> SplitBlocks:
        rows = split.payload
        return self.reader_class(self.path), rows.blocks, rows

    def describe(self) -> str:
        return f"btree-scan({self.path}, {len(self.ranges)} ranges)"


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
