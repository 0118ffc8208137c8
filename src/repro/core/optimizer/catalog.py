"""The Manimal catalog: a filesystem registry of precomputed indexes.

"Each run of an index generation program is tracked in the filesystem
catalog" (paper Section 2.2).  The optimizer consults this registry to
decide which indexed version of a job's input, if any, can serve a new
submission.

The catalog is a directory holding ``catalog.json`` plus the index files
themselves.  Entries record enough metadata for applicability checks
(source file and the identity of the bytes it held when the index was
built, index kind, indexed field, kept fields, delta fields) and for the
experiments' space-overhead accounting (byte sizes).

Because the catalog is the one piece of state concurrent engine
submissions share, mutation is crash- and concurrency-safe: every write
lands via a uniquely named temp file + atomic ``os.replace`` (a reader
never observes a half-written registry), mutating operations take an
advisory ``flock`` on ``.catalog.lock`` and re-read the registry first
(two processes sharing a directory serialize instead of losing each
other's updates), reads retry on a torn/partial file, and a process-local
re-entrant lock makes one ``Catalog`` safe to share across threads
(concurrent pipeline stages do).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

try:  # pragma: no cover - fcntl is POSIX-only; mirrors a Hadoop setting
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro import faults
from repro.exceptions import CatalogError
from repro.storage import input_identity

#: Attempts to read a registry that looks torn mid-read (non-atomic
#: filesystems, e.g. NFS) before giving up.
_READ_RETRIES = 5
_READ_RETRY_SLEEP = 0.02

#: Index kinds, ordered here for reference; planner ranking lives in
#: :mod:`repro.core.optimizer.planner`.
KIND_SELECTION = "selection"
KIND_SELECTION_PROJECTION = "selection+projection"
KIND_PROJECTION = "projection"
KIND_PROJECTION_DELTA = "projection+delta"
KIND_DELTA = "delta"
KIND_DICTIONARY = "dictionary"

ALL_KINDS = (
    KIND_SELECTION,
    KIND_SELECTION_PROJECTION,
    KIND_PROJECTION,
    KIND_PROJECTION_DELTA,
    KIND_DELTA,
    KIND_DICTIONARY,
)
#: The kinds built as one columnar copy of the source (the rest are
#: selection indexes).
COPY_KINDS = (
    KIND_PROJECTION,
    KIND_PROJECTION_DELTA,
    KIND_DELTA,
    KIND_DICTIONARY,
)

#: File suffix of a selection index (:mod:`repro.storage.indexfile`), and
#: of one in the retired page-codec B+Tree format
SELECTION_SUFFIX = ".sidx"
OLD_SELECTION_SUFFIX = ".btree"
#: File suffix of every rewrite-kind copy (projection, projection+delta,
#: delta, dictionary): a columnar file (:mod:`repro.storage.columnar`)
COLUMNAR_SUFFIX = ".col"
#: What each retired index file suffix held, for the planner's report.
#: No plan reads these files, and ``Manimal.build_indexes`` replaces them.
OLD_FORMATS = {
    OLD_SELECTION_SUFFIX: "page-codec B+Tree index(es)",
    ".proj": "row-major copy(ies)",
    ".projdelta": "row-major copy(ies)",
    ".delta": "row-major copy(ies)",
    ".dict": "row-major copy(ies)",
}


def old_format(index_path: str) -> Optional[str]:
    """What retired format the index file at ``index_path`` is in, told
    by its suffix without opening it; ``None`` for a current one."""
    return OLD_FORMATS.get(os.path.splitext(index_path)[1])


def _copy(items: Optional[List[Any]]) -> Optional[List[Any]]:
    return None if items is None else list(items)


@dataclass
class IndexEntry:
    """One registered index."""

    index_id: str
    kind: str
    source_path: str
    index_path: str
    #: field the index is sorted on (selection kinds)
    key_field: Optional[str] = None
    #: value fields physically present (projection kinds); None = all
    value_fields: Optional[List[str]] = None
    #: fields stored as deltas (delta kinds)
    delta_fields: Optional[List[str]] = None
    #: dictionary-compressed field (dictionary kind)
    dict_field: Optional[str] = None
    #: byte/record statistics for reporting
    stats: Dict[str, Any] = field(default_factory=dict)
    #: logical-clock timestamp of the last plan that used this index
    #: (drives budget eviction; 0 = never used)
    last_used: int = 0
    #: how many plans have used this index
    use_count: int = 0
    #: :func:`~repro.storage.input_identity` of the source, taken before
    #: the build read it; None (a hand-made or older entry) is never fresh
    source_identity: Optional[List[Any]] = None

    def built_from(self, identity: Sequence[Any]) -> bool:
        """Whether this index was built from the bytes ``identity`` names.

        The registry itself never asks (:meth:`Catalog.entries_for` is a
        raw query); whoever is about to *use* an entry does, passing the
        source's identity as it is on disk now.  An index in a retired
        format (told by its path, without opening it: :func:`old_format`)
        was built from nothing this version reads.
        """
        return (self.source_identity == list(identity)
                and old_format(self.index_path) is None)

    def space_overhead(self) -> Optional[float]:
        """Index size as a fraction of the source file size."""
        src = self.stats.get("source_bytes")
        idx = self.stats.get("index_bytes")
        if not src or idx is None:
            return None
        return idx / src

    def to_dict(self) -> Dict[str, Any]:
        """The entry as JSON-ready data, fields in declaration order;
        built field by field (``dataclasses.asdict`` deep-copies every
        value, and the catalog publishes every entry on every save)."""
        return {
            "index_id": self.index_id,
            "kind": self.kind,
            "source_path": self.source_path,
            "index_path": self.index_path,
            "key_field": self.key_field,
            "value_fields": _copy(self.value_fields),
            "delta_fields": _copy(self.delta_fields),
            "dict_field": self.dict_field,
            "stats": dict(self.stats),
            "last_used": self.last_used,
            "use_count": self.use_count,
            "source_identity": _copy(self.source_identity),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IndexEntry":
        return cls(**data)


def _build_key(program: Any) -> str:
    identity = list(input_identity(program.source_path))
    return f"{program.kind}:{program.key_field}:{identity}"


@dataclass
class DatasetEntry:
    """One registered partitioned dataset (alongside the index entries).

    The partition directory's sidecar (see
    :mod:`repro.storage.partitioned`) is the source of truth for zone
    maps; the catalog entry is the registry row that makes the dataset
    discoverable by path and carries summary statistics for the
    cost-based optimizer and space reporting.
    """

    dataset_id: str
    #: the partition directory
    path: str
    partition_by: Optional[str] = None
    mode: str = "hash"
    num_partitions: int = 0
    #: byte/record statistics for reporting (records, bytes)
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The entry as JSON-ready data (see :meth:`IndexEntry.to_dict`)."""
        return {
            "dataset_id": self.dataset_id,
            "path": self.path,
            "partition_by": self.partition_by,
            "mode": self.mode,
            "num_partitions": self.num_partitions,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DatasetEntry":
        return cls(**data)


class Catalog:
    """Load/store index entries under a catalog directory.

    ``space_budget_bytes`` caps the total size of registered index files
    (paper Section 2.2: which index to keep "depends partially on the
    system's index space budget").  When a new registration would exceed
    the budget, least-recently-used indexes are evicted (their files
    deleted) until it fits; an index larger than the whole budget is
    refused outright.
    """

    FILENAME = "catalog.json"

    #: allocates a unique, never-reused token per Catalog instance (keys
    #: the engine's plan cache; ``id()`` could be recycled by the gc)
    _INSTANCE_SEQ = 0
    _INSTANCE_SEQ_LOCK = threading.Lock()

    @staticmethod
    def tenant_catalog_dir(root: str, tenant: str) -> str:
        """The namespaced catalog directory for one tenant of a server.

        The query service gives every tenant its own ``catalog.json``
        (and index files) under one data root, so tenants share the
        execution engine but never each other's optimizer state::

            <root>/tenants/<tenant>/catalog/catalog.json

        The existing file-lock/transaction machinery then applies per
        tenant unchanged -- concurrent mutations within a tenant are
        serialized, and cross-tenant mutations never contend.
        """
        return os.path.join(root, "tenants", tenant, "catalog")

    def __init__(self, directory: str,
                 space_budget_bytes: Optional[int] = None):
        self.directory = directory
        self.space_budget_bytes = space_budget_bytes
        with Catalog._INSTANCE_SEQ_LOCK:
            Catalog._INSTANCE_SEQ += 1
            #: unique per instance; a plan cached against one Catalog
            #: object is never served to another (two instances observe
            #: external registrations at different times)
            self.instance_token = Catalog._INSTANCE_SEQ
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, self.FILENAME)
        self._lock_path = os.path.join(directory, ".catalog.lock")
        #: re-entrant: mutation helpers nest under the public operations
        self._lock = threading.RLock()
        self._entries: Dict[str, IndexEntry] = {}
        self._datasets: Dict[str, DatasetEntry] = {}
        #: why a synthesized index was not built, by kind, field and
        #: source identity
        self._declined: Dict[str, str] = {}
        self._counter = 0
        self._clock = 0
        #: bumped whenever the entry *set* changes (register/remove/evict,
        #: or external changes observed on refresh) -- the engine's plan
        #: cache keys on it.  LRU touches do not bump it: they never
        #: change which indexes are applicable.
        self.generation = 0
        if os.path.exists(self._path):
            self._load()

    # -- locking / consistency ----------------------------------------------

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Advisory inter-process lock over catalog mutations."""
        if fcntl is None:
            yield
            return
        with open(self._lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    @contextmanager
    def _mutate(self) -> Iterator[None]:
        """One read-modify-write transaction over the registry.

        Serializes against threads (re-entrant lock) and against other
        processes (advisory file lock), and re-reads the on-disk registry
        before applying the mutation so a concurrent engine submission's
        registration is never silently overwritten.
        """
        with self._lock:
            with self._file_lock():
                self._refresh()
                yield

    def _refresh(self) -> None:
        """Adopt external changes from disk (lock held by caller)."""
        if not os.path.exists(self._path):
            return
        before = (sorted(self._entries), sorted(self._datasets))
        self._load()
        if (sorted(self._entries), sorted(self._datasets)) != before:
            self.generation += 1

    def _load(self) -> None:
        data = self._read_registry()
        # Counters only ever grow; keep the max of disk and memory so ids
        # allocated by this process stay unique even if another process
        # saved an older counter in between.
        self._counter = max(self._counter, data.get("counter", 0))
        self._clock = max(self._clock, data.get("clock", 0))
        self._entries = {}
        for raw in data.get("entries", []):
            entry = IndexEntry.from_dict(raw)
            self._entries[entry.index_id] = entry
        self._datasets = {}
        for raw in data.get("datasets", []):
            ds = DatasetEntry.from_dict(raw)
            self._datasets[ds.dataset_id] = ds
        self._declined = dict(data.get("declined", {}))

    def _read_registry(self) -> Dict[str, Any]:
        """Parse ``catalog.json``, retrying on a torn/partial read."""
        last_error: Optional[Exception] = None
        for attempt in range(_READ_RETRIES):
            try:
                with open(self._path, "r", encoding="utf-8") as f:
                    return json.load(f)
            except FileNotFoundError:
                return {}
            except json.JSONDecodeError as exc:
                # Writers replace atomically, so a malformed file is a
                # non-atomic filesystem mid-write; retry briefly.
                last_error = exc
                time.sleep(_READ_RETRY_SLEEP * (attempt + 1))
            except OSError as exc:
                raise CatalogError(
                    f"unreadable catalog {self._path}: {exc}"
                ) from exc
        raise CatalogError(
            f"unreadable catalog {self._path}: {last_error}"
        ) from last_error

    def _save(self) -> None:
        """Atomically publish the registry (lock held by caller)."""
        data = {
            "counter": self._counter,
            "clock": self._clock,
            "entries": [e.to_dict() for e in self.sorted_entries()],
            "datasets": [d.to_dict() for d in self.sorted_datasets()],
        }
        if self._declined:  # a registry with none reads as it always did
            data["declined"] = self._declined
        # Unique temp name per writer: two processes saving concurrently
        # must not scribble over one shared ".tmp" path.
        fd, tmp = tempfile.mkstemp(
            prefix=self.FILENAME + ".", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(data, f, indent=2, sort_keys=True)
            # Chaos hook: a torn_write fault here truncates the temp
            # file and raises, simulating a writer dying mid-publish --
            # the os.replace below must never run on torn bytes, so the
            # published catalog.json stays intact.
            faults.fault_point("catalog.write", path=tmp)
            os.replace(tmp, self._path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    # -- mutation ------------------------------------------------------------

    def next_index_path(self, kind: str) -> str:
        """Allocate a fresh path for a new index file.

        Persisted immediately so two processes building indexes into one
        catalog directory can never be handed the same path.
        """
        with self._mutate():
            self._counter += 1
            self._save()
            safe_kind = kind.replace("+", "_")
            return os.path.join(
                self.directory, f"idx_{self._counter:05d}_{safe_kind}"
            )

    def register(self, entry: IndexEntry) -> None:
        if entry.kind not in ALL_KINDS:
            raise CatalogError(f"unknown index kind {entry.kind!r}")
        with self._mutate():
            if entry.index_id in self._entries:
                raise CatalogError(f"duplicate index id {entry.index_id!r}")
            incoming = int(entry.stats.get("index_bytes", 0))
            if self.space_budget_bytes is not None:
                if incoming > self.space_budget_bytes:
                    raise CatalogError(
                        f"index {entry.index_id!r} ({incoming} bytes) "
                        f"exceeds the catalog space budget "
                        f"({self.space_budget_bytes})"
                    )
                self._evict_to_fit(incoming)
            self._entries[entry.index_id] = entry
            self.generation += 1
            self._save()

    def _evict_to_fit(self, incoming: int) -> List[IndexEntry]:
        """Drop least-recently-used indexes until ``incoming`` bytes fit."""
        evicted: List[IndexEntry] = []
        assert self.space_budget_bytes is not None
        while (self.total_index_bytes() + incoming > self.space_budget_bytes
               and self._entries):
            victim = min(
                self._entries.values(),
                key=lambda e: (e.last_used, e.index_id),
            )
            evicted.append(victim)
            self._drop(victim)
        if evicted:
            self.generation += 1
            self._save()
        return evicted

    def _drop(self, entry: IndexEntry) -> None:
        """Forget one entry and delete its index file (lock held by caller)."""
        del self._entries[entry.index_id]
        try:
            os.remove(entry.index_path)
        except OSError:
            pass

    def total_index_bytes(self) -> int:
        with self._lock:
            return sum(int(e.stats.get("index_bytes", 0))
                       for e in self._entries.values())

    def touch(self, index_id: str) -> None:
        """Record a plan using this index (feeds LRU eviction)."""
        self.touch_many([index_id])

    def touch_many(self, index_ids: List[str]) -> None:
        """Record one plan's index usages in a single transaction.

        A plan may use several indexes; batching keeps the hot
        plan/replan path at one lock + one registry write instead of one
        per index.
        """
        with self._mutate():
            touched = False
            for index_id in index_ids:
                entry = self._entries.get(index_id)
                if entry is None:
                    continue
                self._clock += 1
                entry.last_used = self._clock
                entry.use_count += 1
                touched = True
            if touched:
                self._save()

    def make_entry_id(self) -> str:
        with self._mutate():
            self._counter += 1
            self._save()
            return f"index-{self._counter:05d}"

    def remove(self, index_id: str) -> None:
        """Drop one index: the registry row *and* its file."""
        with self._mutate():
            entry = self._entries.get(index_id)
            if entry is None:
                raise CatalogError(f"no index {index_id!r}")
            self._drop(entry)
            self.generation += 1
            self._save()

    # -- partitioned datasets ----------------------------------------------------

    def decline(self, program: Any, reason: str) -> None:
        """Record why index-generation ``program`` cannot build over its
        source's current bytes."""
        with self._mutate():
            self._declined[_build_key(program)] = reason
            self._save()

    def declined(self, program: Any) -> Optional[str]:
        """Why ``program`` was not built over its source's current
        bytes, if it was tried."""
        return self._declined.get(_build_key(program)) \
            if self._declined else None

    def register_dataset(self, entry: DatasetEntry) -> None:
        """Register a partitioned dataset (alongside the index entries).

        Re-registering a path replaces the previous entry: a rewritten
        dataset invalidates whatever the old sidecar said.
        """
        with self._mutate():
            path = os.path.abspath(entry.path)
            stale = [
                ds.dataset_id
                for ds in self._datasets.values()
                if os.path.abspath(ds.path) == path
            ]
            for dataset_id in stale:
                del self._datasets[dataset_id]
            self._datasets[entry.dataset_id] = entry
            self.generation += 1
            self._save()

    def make_dataset_id(self) -> str:
        with self._mutate():
            self._counter += 1
            self._save()
            return f"dataset-{self._counter:05d}"

    def sorted_datasets(self) -> List[DatasetEntry]:
        with self._lock:
            return [self._datasets[k] for k in sorted(self._datasets)]

    def dataset_for(self, path: str) -> Optional[DatasetEntry]:
        """The registered dataset at ``path``, or None."""
        target = os.path.abspath(path)
        for ds in self.sorted_datasets():
            if os.path.abspath(ds.path) == target:
                return ds
        return None

    # -- queries ----------------------------------------------------------------

    def sorted_entries(self) -> List[IndexEntry]:
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def entries_for(self, source_path: str,
                    kind: Optional[str] = None) -> List[IndexEntry]:
        """All (optionally kind-filtered) indexes over one source file."""
        source = os.path.abspath(source_path)
        out = [
            e
            for e in self.sorted_entries()
            if os.path.abspath(e.source_path) == source
            and (kind is None or e.kind == kind)
        ]
        return out

    def get(self, index_id: str) -> IndexEntry:
        with self._lock:
            entry = self._entries.get(index_id)
        if entry is None:
            raise CatalogError(f"no index {index_id!r}")
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
