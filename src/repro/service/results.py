"""The query-result cache: repeat submissions served without the pool.

Multi-tenant front doors see *repeat-heavy* workloads -- dashboards and
monitoring re-ask the same questions over slowly-changing inputs.  The
engine's analysis/plan memo caches (PR 4) already skip re-analysis and
re-planning, but the map/reduce work itself still re-runs.  This cache
closes that gap at the service layer: a finished query's serialized
result bytes are stored under a key that pins down *everything* the
answer depends on, and an identical later submission is answered from
memory without ever touching the worker pool.

The key is::

    (tenant,
     canonical op-list JSON,                 -- what is being asked
     (input_identity, ...),                  -- of which input bytes
     catalog generation)                     -- under which index set

* the op list is the client's own wire form, canonicalized with sorted
  keys -- two submissions with equal canonical JSON ask the same
  question (``repro.api.remote``);
* inputs are named by :func:`repro.storage.input_identity`, so
  rewriting an input invalidates by key mismatch;
* the tenant catalog's ``generation`` is bumped by every index
  register/remove/evict, so any catalog change -- which may change the
  chosen plan -- also invalidates.  Results are plan-independent by
  repo invariant, but a conservative key is cheap and makes the cache
  trivially correct.

Entries are stored under the key computed *at admission*; if the
catalog generation advances while the query runs, the stored key no
longer matches future lookups (generations only grow) and the entry is
simply never served.  Stale entries are evicted LRU by byte budget.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.api.remote import OpList, read_paths
from repro.storage import input_identity

CacheKey = Tuple[Any, ...]

#: Default budget for cached result payloads (bytes).
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


def result_cache_key(tenant: str, ops: OpList,
                     catalog_generation: int) -> CacheKey:
    """The full identity of one query's answer (see module docstring)."""
    canonical = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    inputs = tuple(input_identity(p) for p in read_paths(ops))
    return (tenant, canonical, inputs, catalog_generation)


class ResultCache:
    """LRU-by-bytes cache of serialized query results."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def get(self, key: CacheKey) -> Optional[bytes]:
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: CacheKey, payload: bytes) -> None:
        if len(payload) > self.capacity_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = payload
            self._bytes += len(payload)
            self.stores += 1
            while self._bytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
            }
