"""Spill-based shuffle: on-disk runs between the map and reduce phases.

The sequential dispatcher
(:func:`~repro.mapreduce.runtime.run_tasks_in_process`) shuffles through
memory -- every map task appends into shared per-partition lists.  The
worker pool's two paths cannot: map tasks run in separate processes, so
each task **spills** its per-partition output to a run file, and each
reduce task **merges** the runs addressed to its partition.  This module
is that disk format plus the merge; it is used only between worker
processes (a :class:`~repro.mapreduce.parallel.ParallelJobRunner` group
that runs in process shuffles through memory like any other).

Hot-path note: sorted runs travel **decorated** -- each pair is stored as
``(sort_key(key), key, value)`` -- so the shuffle computes each pair's
sort key exactly once, as one column per run
(:func:`~repro.mapreduce.keyspace.sort_keys`).  The spill sort is one
stable sort of an index permutation
(:func:`~repro.mapreduce.keyspace.sort_order`: on the raw keys when the
run's keys are all ``str``, all ``int`` or all ``bytes``, on the
decorations otherwise -- the same order, so the same run bytes).  The
k-way merge heap reads the stored decorations, and the reducer groups
the merged stream by them a :data:`SPILL_CHUNK_PAIRS` chunk at a time
(:func:`decorated_chunks`): the group boundaries are found once per
chunk, and a group still open at a chunk's end carries into the next.

Determinism contract (see ``docs/execution-model.md``):

* a *sorted* run holds one map task's decorated pairs for one partition,
  stable-sorted by the decoration;
* :func:`merge_decorated_runs` k-way merges runs **in map-task order**
  with a stable merge, which reproduces exactly the stable
  full-partition sort the sequential runner performs (equal keys surface
  in task order, and within a task in emit order);
* map-only jobs spill *unsorted*, undecorated runs and concatenate them
  in task order, because the sequential runner never sorts map-only
  output.

Run files are sequences of bounded pickle frames (at most
:data:`SPILL_CHUNK_PAIRS` pairs each) in a job-private temporary
directory; they exist only between the two phases of one run() call.
Readers stream frame by frame (:func:`iter_run`), so a k-way merge
buffers one frame per run instead of materializing every run.  This is
the only on-disk run format: every reducing stage, described or not,
spills, merges and reduces through it.
"""

from __future__ import annotations

import heapq
import os
import pickle
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Tuple

from repro import faults
from repro.exceptions import JobExecutionError, TransientTaskError
from repro.mapreduce.keyspace import sort_key, sort_keys, sort_order

#: Pickle protocol for spill files (private, same-interpreter lifetime).
SPILL_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Pairs per pickle frame in a spill file: bounds both the writer's
#: frame size and the memory a streaming reader holds per run.
SPILL_CHUNK_PAIRS = 2048

#: Reads the precomputed sort key out of a decorated (skey, key, value).
DECORATION_KEY = itemgetter(0)
_PAIR_KEY = itemgetter(0)
_PAIR_VALUE = itemgetter(1)
_ROW_KEY = itemgetter(1)
_ROW_VALUE = itemgetter(2)


def run_path(spill_dir: str, phase: str, task_index: int,
             partition: int, attempt: int = 0) -> str:
    """Canonical file name for one run: ``<phase>-t<task>-p<partition>``.

    Retried attempts (``attempt > 0``) get attempt-suffixed names, which
    is what quarantines a killed attempt's partial output: a retry never
    opens a path its dead sibling may have half-written, and only the
    paths returned by the *successful* attempt reach the merge.
    """
    stem = f"{phase}-t{task_index}-p{partition}"
    if attempt:
        stem += f"-a{attempt}"
    return os.path.join(spill_dir, f"{stem}.run")


def write_run(path: str, pairs: Iterable[Tuple[Any, ...]]) -> str:
    """Spill one run of (decorated or plain) pairs to ``path``.

    Written as a sequence of bounded pickle frames so readers can stream
    the run back without loading it whole; an empty run is an empty file
    (zero frames).
    """
    try:
        # Inside the try so injected disk-full/I/O faults surface as
        # retryable, exactly like the real OSErrors they simulate.
        faults.fault_point("shuffle.spill", path=path)
        if not isinstance(pairs, list):
            pairs = list(pairs)
        with open(path, "wb") as f:
            for start in range(0, len(pairs), SPILL_CHUNK_PAIRS):
                pickle.dump(pairs[start:start + SPILL_CHUNK_PAIRS], f,
                            protocol=SPILL_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise JobExecutionError(
            f"cannot spill shuffle run {os.path.basename(path)!r}: a key or "
            f"value is not picklable ({exc}); parallel execution needs "
            "picklable intermediate pairs -- fall back to the sequential "
            "runner for this job"
        ) from exc
    except OSError as exc:
        # Disk full / transient I/O while spilling: the task may succeed
        # on re-execution, so surface it as retryable instead of fatal.
        raise TransientTaskError(
            f"spill of shuffle run {os.path.basename(path)!r} failed: {exc}"
        ) from exc
    return path


def iter_run(path: str) -> Iterator[Tuple[Any, ...]]:
    """Stream one spilled run frame by frame (bounded memory).

    At most one :data:`SPILL_CHUNK_PAIRS`-sized frame is resident per
    consumer, which is what keeps the k-way merges below from
    materializing every run of a partition at once.
    """
    with open(path, "rb") as f:
        while True:
            try:
                chunk = pickle.load(f)
            except EOFError:
                return
            yield from chunk


def read_run(path: str) -> List[Tuple[Any, ...]]:
    """Load one spilled run back into memory."""
    return list(iter_run(path))


def decorate_pairs(
    pairs: Iterable[Tuple[Any, Any]]
) -> List[Tuple[Any, Any, Any]]:
    """Attach each pair's shuffle sort key: ``(sort_key(k), k, v)``
    (:func:`decorate_columns` of the pairs' two columns)."""
    if not isinstance(pairs, list):
        pairs = list(pairs)
    return decorate_columns(list(map(_PAIR_KEY, pairs)),
                            list(map(_PAIR_VALUE, pairs)))


def decorate_columns(keys: List[Any], values: List[Any]
                     ) -> List[Tuple[Any, Any, Any]]:
    """A key and a value column as decorated rows, ``(sort_key(k), k,
    v)``.

    The keys are sort-keyed as one column
    (:func:`~repro.mapreduce.keyspace.sort_keys`); everything downstream
    reuses the decoration.
    """
    return list(zip(sort_keys(keys), keys, values))


def sort_decorated_run(
    decorated: List[Tuple[Any, Any, Any]]
) -> List[Tuple[Any, Any, Any]]:
    """Stable-sort one task's decorated partition output in place.

    One stable sort of an index permutation
    (:func:`~repro.mapreduce.keyspace.sort_order`) over the raw keys when
    they are of one raw-ordered type, else over the decorations: the
    order is the stable sort by decoration either way, so equal keys keep
    emit order, the run file's bytes do not depend on which column was
    sorted, and keys of mixed types and values are never compared.
    """
    order, _column = sort_order(list(map(_ROW_KEY, decorated)),
                                list(map(DECORATION_KEY, decorated)))
    decorated[:] = map(decorated.__getitem__, order)
    return decorated


def merge_decorated_runs(
    paths: List[str]
) -> Iterator[Tuple[Any, Any, Any]]:
    """K-way merge decorated sorted runs into one decorated stream.

    ``paths`` must be ordered by map-task index.  ``heapq.merge`` breaks
    key ties toward earlier iterables, so the merged stream equals a
    stable sort of the task-order concatenation -- the exact stream the
    sequential runner reduces.  The heap compares precomputed
    decorations; ``sort_key`` is never re-derived.  Runs are streamed
    (:func:`iter_run`), so memory is bounded by one pickle frame per run
    rather than the partition's full volume.
    """
    runs = [iter_run(path) for path in paths]
    return heapq.merge(*runs, key=DECORATION_KEY)


def decorated_chunks(
    rows: Iterable[Tuple[Any, Any, Any]]
) -> Iterator[Tuple[List[Any], List[Any], List[Any]]]:
    """A decorated stream as ``(decorations, keys, values)`` columns, at
    most :data:`SPILL_CHUNK_PAIRS` rows at a time.

    The reduce loop groups a merged stream chunk by chunk, so it holds one
    chunk (plus the group still open) on top of the merge's one frame per
    run.
    """
    rows = iter(rows)
    while True:
        chunk = list(islice(rows, SPILL_CHUNK_PAIRS))
        if not chunk:
            return
        yield (list(map(DECORATION_KEY, chunk)), list(map(_ROW_KEY, chunk)),
               list(map(_ROW_VALUE, chunk)))


def merge_runs(paths: List[str], sorted_runs: bool = True
               ) -> Iterator[Tuple[Any, Any]]:
    """K-way merge *plain-pair* runs into one partition stream.

    Compatibility/map-only path: for unsorted runs (map-only jobs) the
    merge degenerates to task-order concatenation; sorted plain runs are
    decorated on read and merged through the same machinery as
    :func:`merge_decorated_runs`, so the ordering contract has a single
    implementation.  The reducing fast path spills decorated runs and
    uses :func:`merge_decorated_runs` directly.  Streamed like the
    decorated merge: one pickle frame per run resident at a time.
    """
    runs = [iter_run(path) for path in paths]
    if not sorted_runs:
        return chain.from_iterable(runs)
    decorated = [
        ((sort_key(key), key, value) for key, value in run) for run in runs
    ]
    merged = heapq.merge(*decorated, key=DECORATION_KEY)
    return ((key, value) for _skey, key, value in merged)
