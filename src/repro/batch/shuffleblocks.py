"""Typed column blocks for the parallel shuffle's spill data plane.

The pickle shuffle (:mod:`repro.mapreduce.shuffle`) moves every pair
across the map->reduce boundary as a Python tuple: spills pickle
decorated ``(sort_key, key, value)`` rows, the k-way merge compares
decoration tuples through ``heapq``, and reducers consume groups one
record at a time.  When the fluent lowering can *describe* a stage's
shuffle -- a primitive group key and typed aggregate inputs, the same
analyzer knowledge that drives the batch map executor -- none of that
per-pair object machinery is needed:

* **spill** encodes keys *in batch* with the order-preserving encodings
  of :mod:`repro.storage.orderkeys` (one ``struct.pack`` per run for
  fixed-width types), stable-sorts the run by flat ``bytes`` comparison,
  and writes fixed-size blocks whose value payload is **column-major**:
  each value column packs with one C-level ``struct`` call per block
  instead of a Python codec call per pair;
* **merge** streams those blocks with one buffered block per run
  (bounded memory) and gallops: each heap step emits the whole slice of
  the leading run that sorts before the next run's head, found by
  ``bisect`` on the encoded-key array instead of a heap pop per pair;
* **reduce** finds group boundaries by scanning encoded-key runs inside
  each merged slice and, for count and sum/min/max over integer columns,
  folds whole slices with the merges of the aggregate table
  (:data:`~repro.batch.spec.AGGREGATES`) the batch map executor's hash
  pre-aggregation uses -- keys decode once per *group*, and Records
  materialize only at the emit boundary.

Byte identity is preserved by construction, not by luck: for a single
declared key type the encoded-byte order equals
:func:`~repro.mapreduce.keyspace.sort_key` order and the encoding is
injective, so sort, merge tie-breaks (map-task order) and grouping all
agree exactly with the decorated pickle path.  Anything the codecs
cannot prove -- wrong runtime types from a lying UDF schema, integers
outside the signed 64-bit range, ``None`` keys -- falls back
*per run* to the pickle format at spill time, and a partition holding
any pickle run merges every run through the legacy decorated heap.
``DOUBLE`` group keys are never typed: ``sort_key`` treats ``-0.0`` and
``0.0`` as equal group keys but their order encodings differ, and NaN
does not encode at all.

See ``docs/execution-model.md`` for the fallback matrix.
"""

from __future__ import annotations

import heapq
import os
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Tuple, Union

from repro import faults
from repro.batch.spec import AGGREGATES
from repro.exceptions import (
    BTreeError,
    SerializationError,
    TransientTaskError,
)
from repro.storage.orderkeys import _SIGN_FLIP, decode_key
from repro.storage.serialization import FieldType, Schema

#: File magic for typed block runs.  Pickle streams begin with
#: ``b"\x80"``, so sniffing the first bytes tells the two formats apart.
MAGIC = b"TSB1"

#: Pairs per block: bounds writer batching and the one-block-per-run
#: buffer the streaming merge holds.
BLOCK_PAIRS = 4096

#: Per-block frame header: pair count, key-payload bytes, value-payload
#: bytes.
_BLOCK_HEADER = struct.Struct("<III")

#: Key types eligible for typed runs.  DOUBLE is deliberately absent:
#: ``sort_key`` groups ``-0.0`` with ``0.0`` but their order encodings
#: differ, and NaN keys do not encode; BYTES has no order encoding.
KEY_TYPES = (FieldType.INT, FieldType.LONG, FieldType.STRING, FieldType.BOOL)

#: Fixed encoded width per key type (``None`` = length-prefixed).
_KEY_WIDTH = {
    FieldType.INT: 8,
    FieldType.LONG: 8,
    FieldType.BOOL: 1,
}

@dataclass(frozen=True)
class ShuffleBlockSpec:
    """Analyzer-derived description of one stage's shuffle stream.

    Attached to :attr:`JobConf.shuffle_spec
    <repro.mapreduce.job.JobConf.shuffle_spec>` by the fluent lowering
    when an aggregate stage's group key and aggregate inputs are typed;
    never set by users directly.
    """

    #: declared type of the group key (restricted to :data:`KEY_TYPES`)
    key_type: FieldType
    #: declared type of each shuffled value component, in aggregate order
    value_types: Tuple[FieldType, ...]
    #: a pair's value is a tuple (several partial slots per pair)
    value_is_tuple: bool
    #: aggregate ops when the reduce side can fold blocks vectorized
    #: (every op one-slot and :meth:`~repro.batch.spec.Aggregate.folds`
    #: over its column); ``None`` sends the merged typed stream through
    #: the generic reducer.
    reduce_ops: Optional[Tuple[str, ...]] = None
    #: multi-aggregate output record schema (fold emits through it)
    agg_schema: Optional[Schema] = None

    @property
    def count_only(self) -> bool:
        """Always ``False``: ``count`` shuffles partial counts, so no
        spec can promise unit values a merge could skip reading."""
        return False

    def describe(self) -> str:
        values = ",".join(t.value for t in self.value_types)
        fold = "+".join(self.reduce_ops) if self.reduce_ops else "generic"
        return f"key={self.key_type.value} values={values} fold={fold}"


def aggregate_shuffle_spec(
    key_type: Optional[FieldType],
    aggs: Iterable[Tuple[str, Optional[FieldType]]],
    agg_schema: Optional[Schema] = None,
) -> Optional[ShuffleBlockSpec]:
    """Build the spec for a described ``group_by`` stage, or ``None``.

    ``aggs`` is ``(op, input column type)`` per aggregate in output
    order.  Each shuffles the slots of its declared partial
    (:data:`~repro.batch.spec.AGGREGATES`): its input column, or an
    ``INT`` for a literal (``count``'s partial counts, ``avg``'s row
    counts).  Returns ``None`` when the key type has no order encoding
    or an aggregate reading its input has an unknown column type --
    those stages keep the pickle shuffle wholesale.
    """
    if key_type not in KEY_TYPES:
        return None
    aggs = list(aggs)
    value_types: List[FieldType] = []
    for op, ftype in aggs:
        for slot in AGGREGATES[op].partial:
            if slot is None and ftype is None:
                return None
            value_types.append(ftype if slot is None else FieldType.INT)
    foldable = (len(aggs) == 1 or agg_schema is not None) and all(
        len(AGGREGATES[op].partial) == 1 and AGGREGATES[op].folds(ftype)
        for op, ftype in aggs
    )
    return ShuffleBlockSpec(
        key_type=key_type,
        value_types=tuple(value_types),
        value_is_tuple=len(value_types) > 1,
        reduce_ops=tuple(op for op, _ in aggs) if foldable else None,
        agg_schema=agg_schema if len(aggs) > 1 else None,
    )


def active_spec(conf: Any) -> Optional[ShuffleBlockSpec]:
    """The spec one job submission actually runs with, or ``None``.

    Resolved once by the submitting process (the same chokepoint shape
    the batch map path uses) and carried to workers in the job state: a
    combiner rewrites the shuffle stream mid-flight, so its presence
    keeps the whole job on the pickle path.
    """
    spec = conf.shuffle_spec
    if spec is None or conf.reducer is None or conf.combiner is not None:
        return None
    return spec


# -- spill: typed block writer ------------------------------------------------

#: Rejections the batch codecs raise (or pass through) that mean "this
#: run is not describable": wrong runtime types, integers outside the
#: 64-bit ranges (``struct.error``), unencodable surrogate strings.
_ENCODE_REJECTIONS = (
    BTreeError, SerializationError, struct.error, UnicodeEncodeError,
)

#: C-level key extractor for the run sort (pairs sort by raw key).
_PAIR_KEY = itemgetter(0)

#: A run's encoded keys: one packed blob for fixed-width key types
#: (sliced per block), a list of per-key encodings for strings.
KeyVector = Union[bytes, List[bytes]]


#: Exact runtime type each eligible key type accepts.
_KEY_PYTYPE = {
    FieldType.INT: int,
    FieldType.LONG: int,
    FieldType.STRING: str,
    FieldType.BOOL: bool,
}


def _check_keys(kt: FieldType, keys: Iterable[Any]) -> None:
    """One C-level type scan; rejects bools posing as ints (and any
    other lying runtime type) before a pack could silently coerce them.
    """
    expected = _KEY_PYTYPE.get(kt)
    if expected is None:
        raise SerializationError(f"key type {kt} has no order encoding")
    if set(map(type, keys)) - {expected}:
        raise SerializationError(
            f"key of the wrong runtime type for a {kt.value} key"
        )


def _encode_keys(kt: FieldType, keys: Iterable[Any]) -> "KeyVector":
    """Order-preserving batch key encode, byte-equal to ``encode_key``.

    Fixed-width key types return ONE packed blob for the whole run --
    a single C-level ``struct.pack``, no per-key bytes objects -- which
    :func:`_pack_block` slices per block.  Variable-width (string) keys
    return a list of per-key encodings.  Callers run :func:`_check_keys`
    first; out-of-range ints are caught by ``struct.error`` in the pack
    itself.
    """
    if kt in (FieldType.INT, FieldType.LONG):
        flipped = [key + _SIGN_FLIP for key in keys]
        return struct.pack(">%dQ" % len(flipped), *flipped)
    if kt is FieldType.BOOL:
        return bytes([1 if key else 0 for key in keys])
    return [key.encode("utf-8") for key in keys]


_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Exact runtime type each declared column type accepts.
_COLUMN_PYTYPE = {
    FieldType.INT: int,
    FieldType.LONG: int,
    FieldType.DOUBLE: float,
    FieldType.BOOL: bool,
    FieldType.STRING: str,
    FieldType.BYTES: bytes,
}


def _check_column(ftype: FieldType, col: Iterable[Any]) -> None:
    """Cheap full-column validation (one C-level type scan, no packing).

    Exact runtime-type checks guard fidelity, not just safety: ``True``
    in an INT column would round-trip as ``1`` and silently diverge from
    the pickle path the sequential runner replays.  After this passes,
    :func:`_encode_column` can only fail on unencodable surrogate
    strings -- which :func:`spill_typed_run` still catches before the
    file is opened.
    """
    expected = _COLUMN_PYTYPE.get(ftype)
    if expected is None:
        raise SerializationError(f"no typed column codec for {ftype}")
    if set(map(type, col)) - {expected}:
        raise SerializationError(
            f"value of the wrong runtime type in a {ftype.value} column"
        )
    if expected is int and col and (
        min(col) < _I64_MIN or max(col) > _I64_MAX
    ):
        raise SerializationError("integer value outside 64-bit range")


def _encode_column(ftype: FieldType, col: List[Any]) -> bytes:
    """Pack one validated value column with a single C call.

    Callers run :func:`_check_column` first; only surrogate strings can
    still fail here.
    """
    n = len(col)
    if ftype in (FieldType.INT, FieldType.LONG):
        return struct.pack("<%dq" % n, *col)
    if ftype is FieldType.DOUBLE:
        return struct.pack("<%dd" % n, *col)
    if ftype is FieldType.BOOL:
        return bytes(col)
    if ftype is FieldType.STRING:
        blobs = [v.encode("utf-8") for v in col]
        return struct.pack(
            "<%dI" % n, *[len(b) for b in blobs]
        ) + b"".join(blobs)
    return struct.pack("<%dI" % n, *[len(b) for b in col]) + b"".join(col)


def encode_typed_run(
    pairs: Iterable[Tuple[Any, Any]], spec: ShuffleBlockSpec
) -> Optional[Tuple[KeyVector, List[Any]]]:
    """Encode and stable-sort one run; ``None`` if any pair defeats it.

    Returns ``(encoded keys, raw values)`` sorted together by encoded
    key.  The sort compares *raw* keys with a C-level ``itemgetter`` --
    legal because for every eligible key type the order-preserving
    encoding makes raw order and byte order coincide -- and ``sorted``
    is stable, so equal keys keep emit order exactly like the pickle
    path's decorated sort.  Values stay raw Python objects here; they
    pack column-major per block in :func:`spill_typed_run`.  Any
    rejection (unorderable key mix, wrong runtime type, int outside
    64 bits, ``None``) aborts the whole run: mixing formats *within* a
    run could not preserve one total order.
    """
    if not isinstance(pairs, list):
        pairs = list(pairs)
    if not pairs:
        return _encode_keys(spec.key_type, []), []
    try:
        # Key types are vetted *before* the sort: a mistyped key then
        # costs one C-level type scan, not an O(n log n) detour, and a
        # vetted run can never hit an unorderable-key TypeError below.
        _check_keys(spec.key_type, map(_PAIR_KEY, pairs))
        spairs = sorted(pairs, key=_PAIR_KEY)
    except (TypeError, *_ENCODE_REJECTIONS):
        return None
    keys, values = zip(*spairs)
    try:
        if spec.value_is_tuple:
            n_fields = len(spec.value_types)
            if (set(map(type, values)) - {tuple}
                    or not all(len(v) == n_fields for v in values)):
                return None
            for ftype, col in zip(spec.value_types, zip(*values)):
                _check_column(ftype, col)
        else:
            _check_column(spec.value_types[0], values)
        ekeys = _encode_keys(spec.key_type, keys)
    except _ENCODE_REJECTIONS:
        return None
    return ekeys, list(values)


def _pack_values(values: List[Any], start: int, end: int,
                 spec: ShuffleBlockSpec) -> bytes:
    """Column-major value payload for one block's row slice."""
    if not spec.value_is_tuple:
        return _encode_column(spec.value_types[0], values[start:end])
    columns = zip(*values[start:end])
    return b"".join(
        _encode_column(ftype, list(col))
        for ftype, col in zip(spec.value_types, columns)
    )


def _pack_block(ekeys: KeyVector, values: List[Any], start: int,
                end: int, spec: ShuffleBlockSpec) -> bytes:
    width = _KEY_WIDTH.get(spec.key_type)
    if width is not None:
        # Fixed-width keys arrive as one packed blob; the block's key
        # payload is a single slice of it.
        kpayload = ekeys[start * width:end * width]
    else:
        blobs = ekeys[start:end]
        kpayload = struct.pack(
            "<%dI" % len(blobs), *[len(b) for b in blobs]
        ) + b"".join(blobs)
    vpayload = _pack_values(values, start, end, spec)
    return (
        _BLOCK_HEADER.pack(end - start, len(kpayload), len(vpayload))
        + kpayload
        + vpayload
    )


def spill_typed_run(
    path: str, pairs: List[Tuple[Any, Any]], spec: ShuffleBlockSpec
) -> Optional[str]:
    """Spill one run as typed blocks; ``None`` defers to the pickle path.

    Encoding happens fully before the file is touched, so the fallback
    decision never leaves a partial typed file behind.  The same
    ``shuffle.spill`` fault point and error taxonomy as
    :func:`repro.mapreduce.shuffle.write_run` apply: injected or real
    disk failures surface as retryable
    :class:`~repro.exceptions.TransientTaskError`, and attempt-suffixed
    run paths quarantine any half-written file of a killed attempt.
    """
    encoded = encode_typed_run(pairs, spec)
    if encoded is None:
        return None
    ekeys, values = encoded
    n = len(values)
    try:
        blocks = [
            _pack_block(ekeys, values, start,
                        min(start + BLOCK_PAIRS, n), spec)
            for start in range(0, n, BLOCK_PAIRS)
        ]
    except _ENCODE_REJECTIONS:
        # Surrogate strings slip past the cheap column checks; they are
        # caught here, before the file exists, so fallback stays clean.
        return None
    try:
        # Inside the try so injected disk-full/I/O faults surface as
        # retryable, exactly like the real OSErrors they simulate.
        faults.fault_point("shuffle.spill", path=path)
        with open(path, "wb") as f:
            f.write(MAGIC)
            for block in blocks:
                f.write(block)
    except OSError as exc:
        raise TransientTaskError(
            f"spill of shuffle run {os.path.basename(path)!r} failed: {exc}"
        ) from exc
    return path


def is_typed_run(path: str) -> bool:
    """Sniff a run file's format (typed blocks vs pickle frames)."""
    with open(path, "rb") as f:
        return f.read(len(MAGIC)) == MAGIC


# -- block reader -------------------------------------------------------------


def _slice_blobs(payload: bytes, pos: int, n: int
                 ) -> Tuple[List[bytes], int]:
    """Read one length-prefixed column: ``<nI`` lengths, then the data."""
    lens = struct.unpack_from("<%dI" % n, payload, pos)
    pos += n * 4
    blobs: List[bytes] = []
    append = blobs.append
    for length in lens:
        append(payload[pos:pos + length])
        pos += length
    return blobs, pos


def _decode_column(ftype: FieldType, payload: bytes, pos: int,
                   n: int) -> Tuple[List[Any], int]:
    """Unpack one value column, one C call for the fixed-width types."""
    if ftype in (FieldType.INT, FieldType.LONG):
        return list(struct.unpack_from("<%dq" % n, payload, pos)), pos + n * 8
    if ftype is FieldType.DOUBLE:
        return list(struct.unpack_from("<%dd" % n, payload, pos)), pos + n * 8
    if ftype is FieldType.BOOL:
        return [byte == 1 for byte in payload[pos:pos + n]], pos + n
    blobs, pos = _slice_blobs(payload, pos, n)
    if ftype is FieldType.STRING:
        return [b.decode("utf-8") for b in blobs], pos
    return blobs, pos


def _decode_values(payload: bytes, n: int,
                   spec: ShuffleBlockSpec) -> List[Any]:
    try:
        if not spec.value_is_tuple:
            values, pos = _decode_column(spec.value_types[0], payload, 0, n)
        else:
            columns = []
            pos = 0
            for ftype in spec.value_types:
                col, pos = _decode_column(ftype, payload, pos, n)
                columns.append(col)
            values = list(zip(*columns))
    except (struct.error, UnicodeDecodeError) as exc:
        raise SerializationError(
            f"corrupt typed shuffle block: {exc}"
        ) from exc
    if pos != len(payload):
        raise SerializationError(
            f"trailing bytes in typed shuffle block ({len(payload) - pos})"
        )
    return values


def iter_blocks(
    path: str, spec: ShuffleBlockSpec
) -> Iterator[Tuple[List[bytes], List[Any]]]:
    """Stream one typed run block by block (one block buffered at a time).

    Yields ``(encoded keys, decoded values)`` per block.
    """
    width = _KEY_WIDTH.get(spec.key_type)
    header_size = _BLOCK_HEADER.size
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise SerializationError(
                f"{os.path.basename(path)!r} is not a typed shuffle run"
            )
        while True:
            header = f.read(header_size)
            if not header:
                return
            if len(header) != header_size:
                raise SerializationError("truncated typed shuffle block")
            n, klen, vlen = _BLOCK_HEADER.unpack(header)
            kpayload = f.read(klen)
            if len(kpayload) != klen:
                raise SerializationError("truncated typed shuffle block")
            if width is not None:
                keys = [
                    kpayload[i:i + width]
                    for i in range(0, n * width, width)
                ]
            else:
                try:
                    keys, end = _slice_blobs(kpayload, 0, n)
                except struct.error as exc:
                    raise SerializationError(
                        f"corrupt typed shuffle block: {exc}"
                    ) from exc
                if end != klen:
                    raise SerializationError(
                        "truncated typed shuffle block"
                    )
            vpayload = f.read(vlen)
            if len(vpayload) != vlen:
                raise SerializationError("truncated typed shuffle block")
            yield keys, _decode_values(vpayload, n, spec)


# -- streaming block merge ----------------------------------------------------


class _RunCursor:
    """One run's merge state: the current block plus a read position."""

    __slots__ = ("blocks", "keys", "values", "pos")

    def __init__(self, path: str, spec: ShuffleBlockSpec):
        self.blocks = iter_blocks(path, spec)
        self.keys: List[bytes] = []
        self.values: List[Any] = []
        self.pos = 0

    def advance_block(self) -> bool:
        for keys, values in self.blocks:
            if keys:
                self.keys, self.values, self.pos = keys, values, 0
                return True
        return False


def merge_typed_chunks(
    paths: List[str], spec: ShuffleBlockSpec, need_values: bool = True
) -> Iterator[Tuple[List[bytes], List[Any], int, int]]:
    """Gallop-merge typed runs into sorted chunks, bounded buffers.

    ``paths`` must be in map-task order.  Yields ``(keys, values, lo,
    hi)``: the half-open slice ``[lo, hi)`` of one run's buffered block
    is the next piece of the merged stream.  Instead of a heap pop per
    pair, each step bisects the leading run's encoded-key array against
    the next run's head key and emits the whole qualifying slice --
    ties break toward earlier map tasks (``bisect_right`` when the
    leading run is the earlier task, ``bisect_left`` otherwise), which
    reproduces the stable merge of the pickle path exactly.
    ``need_values`` is accepted and ignored: every fold reads the value
    payloads (see :attr:`ShuffleBlockSpec.count_only`).
    """
    cursors: List[_RunCursor] = []
    for path in paths:
        cursor = _RunCursor(path, spec)
        if cursor.advance_block():
            cursors.append(cursor)
    if not cursors:
        return
    if len(cursors) == 1:
        cursor = cursors[0]
        while True:
            yield cursor.keys, cursor.values, cursor.pos, len(cursor.keys)
            if not cursor.advance_block():
                return
    # Heap of (head key, run order); run order doubles as the stable
    # tie-break toward earlier map tasks.
    heap = [(cur.keys[cur.pos], idx) for idx, cur in enumerate(cursors)]
    heapq.heapify(heap)
    while heap:
        _k0, i = heapq.heappop(heap)
        cursor = cursors[i]
        if not heap:
            # Only one live run left: drain it wholesale.
            while True:
                yield (cursor.keys, cursor.values, cursor.pos,
                       len(cursor.keys))
                if not cursor.advance_block():
                    return
        limit, j = heap[0]
        bisect = bisect_right if i < j else bisect_left
        exhausted = False
        while True:
            keys = cursor.keys
            hi = bisect(keys, limit, cursor.pos)
            if hi > cursor.pos:
                yield keys, cursor.values, cursor.pos, hi
                cursor.pos = hi
            if hi == len(keys):
                if not cursor.advance_block():
                    exhausted = True
                    break
                continue
            break
        if not exhausted:
            heapq.heappush(heap, (cursor.keys[cursor.pos], i))


# -- mixed-format partitions --------------------------------------------------


def iter_typed_decorated(
    path: str, spec: ShuffleBlockSpec
) -> Iterator[Tuple[Any, Any, Any]]:
    """Decode a typed run back into the decorated pickle-run stream.

    Used when a partition mixes formats (some map tasks' runs fell back
    to pickle): every run must merge under one comparison, so typed runs
    rejoin the ``(sort_key, key, value)`` representation.  Encoded-byte
    order equals ``sort_key`` order for the declared type, so the
    decoded stream is already sorted for the legacy heap.
    """
    from repro.mapreduce.keyspace import sort_key

    kt = spec.key_type
    for keys, values, lo, hi in merge_typed_chunks([path], spec):
        for idx in range(lo, hi):
            key = decode_key(kt, keys[idx])
            yield sort_key(key), key, values[idx]


def merge_mixed_runs(
    paths: List[str], spec: ShuffleBlockSpec
) -> Iterator[Tuple[Any, Any, Any]]:
    """Legacy decorated merge over a mix of typed and pickle runs."""
    from repro.mapreduce import shuffle

    streams = [
        iter_typed_decorated(path, spec)
        if is_typed_run(path)
        else shuffle.iter_run(path)
        for path in paths
    ]
    return heapq.merge(*streams, key=shuffle.DECORATION_KEY)


# -- reduce side: vectorized fold / generic typed reduce ----------------------


def fold_typed_chunks(spec: ShuffleBlockSpec,
                      chunks: Iterable[Tuple]) -> Any:
    """Fold the spec's aggregates over merged chunks in place.

    Group boundaries are encoded-key runs: ``bisect_right`` finds each
    key's run inside the chunk, each aggregate's C-level ``merge``
    (:data:`~repro.batch.spec.AGGREGATES`) folds its value slice, and
    its ``pairwise`` merge combines partials across chunk boundaries --
    ``count`` sums partial counts like ``sum`` does.  Keys decode once
    per group; output records materialize only at the emit boundary.
    Metric accounting mirrors the reduce loop of
    :func:`~repro.mapreduce.runtime.execute_reduce_partition` field for
    field.
    """
    from repro.mapreduce.keyspace import estimate_size
    from repro.mapreduce.runtime import ReduceTaskResult

    out = ReduceTaskResult(outputs=[])
    metrics = out.metrics
    outputs = out.outputs
    kt = spec.key_type
    assert spec.reduce_ops is not None
    aggs = [AGGREGATES[op] for op in spec.reduce_ops]
    merge0 = aggs[0].merge
    merges = [agg.merge for agg in aggs]
    pairwise = [agg.pairwise for agg in aggs]
    single = not spec.value_is_tuple
    schema = spec.agg_schema

    current: Optional[bytes] = None
    accs: List[Any] = []
    groups = 0
    input_records = 0
    output_bytes = 0

    def flush() -> None:
        nonlocal output_bytes
        key = decode_key(kt, current)
        value = accs[0] if single else schema.make(*accs)
        outputs.append((key, value))
        output_bytes += estimate_size(key) + estimate_size(value)

    for keys, values, lo, hi in chunks:
        pos = lo
        while pos < hi:
            key_bytes = keys[pos]
            run_end = bisect_right(keys, key_bytes, pos, hi)
            input_records += run_end - pos
            rows = values[pos:run_end]
            parts = ([merge0(rows)] if single else
                     [merge(col) for merge, col in zip(merges, zip(*rows))])
            if key_bytes != current:
                if current is not None:
                    flush()
                current = key_bytes
                groups += 1
                accs = parts
            else:
                accs = [fn(acc, part)
                        for fn, acc, part in zip(pairwise, accs, parts)]
            pos = run_end
    if current is not None:
        flush()

    metrics.reduce_groups += groups
    metrics.reduce_input_records += input_records
    metrics.reduce_output_records += len(outputs)
    metrics.reduce_output_bytes += output_bytes
    return out


def typed_groups(spec: ShuffleBlockSpec, chunks: Iterable[Tuple]
                 ) -> Iterator[Tuple[Any, List[Any]]]:
    """One ``(key, values)`` group per encoded-key run of a merged stream.

    For described-but-unfoldable aggregates (``avg``, min/max over
    strings or doubles): the key decodes once per group, never per pair,
    and each group's value list goes through ``conf.reducer`` in
    :func:`~repro.mapreduce.runtime.execute_reduce_partition`'s one
    reduce loop exactly like the pickle path's groups, so float
    accumulation order and emit semantics are untouched.
    """
    kt = spec.key_type
    current: Optional[bytes] = None
    group_values: List[Any] = []
    for keys, values, lo, hi in chunks:
        pos = lo
        while pos < hi:
            key_bytes = keys[pos]
            run_end = bisect_right(keys, key_bytes, pos, hi)
            if key_bytes != current:
                if current is not None:
                    yield decode_key(kt, current), group_values
                current = key_bytes
                group_values = []
            group_values += values[pos:run_end]
            pos = run_end
    if current is not None:
        yield decode_key(kt, current), group_values
