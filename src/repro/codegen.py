"""One code generator: generated Python source to a live function.

Four generators emit Python: the compiled block scanners
(:mod:`~repro.storage.blockscan`), the compiled block encoders
(:mod:`~repro.storage.blockwrite`), the predicate kernels
(:mod:`~repro.batch.kernels`) and the synthesized stage mappers and
reducers (:mod:`~repro.api.plan`).  Each hands its source to
:func:`load`, the one place under ``repro`` that compiles and executes a
string, and takes the names it defined out of the namespace it returns.

* **Inspectable.**  Source is compiled under a content-hashed synthetic
  filename, ``<repro.codegen:KIND:DIGEST>``, and registered in
  :mod:`linecache` on *every* load -- so ``inspect.getsource`` and
  tracebacks read generated code like a file, and a load after
  ``linecache.clearcache()`` is inspectable again.  That is what lets
  the static analyzer re-derive a synthesized stage's selection and
  projection from its source, exactly as from a hand-written ``map()``.
* **Cached.**  One process-wide cache maps a source to its code object,
  so a source is compiled once however many queries, plans or splits
  load it.  Stage sources inline their literals (the analyzer reads
  them), so fresh literals make fresh sources: the cache is a
  least-recently-loaded list of at most :data:`MAX_SOURCES` entries, and
  evicting one drops its code object and its ``linecache`` entry
  together.  Loads come from the service's worker threads too; the cache
  is guarded by one lock.
* **Per instance.**  Every load executes the code into a fresh
  namespace, a copy of the caller's ``bindings`` -- the constants a
  kernel binds by name, a stage's environment, a scanner's helpers -- so
  two loads of one source never share a literal or a function object.
"""

from __future__ import annotations

import hashlib
import linecache
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, NamedTuple, Optional

#: Every synthetic filename starts with this; the generator's kind and
#: the source's digest follow.
PREFIX = "<repro.codegen:"

#: Sources whose code objects (and ``linecache`` entries) are kept: above
#: the most distinct sources one process of the benchmark suite (about
#: 350) or the test suite (about 1,900) loads, measured in
#: ``docs/performance.md``, so neither evicts a scanner it reuses.
MAX_SOURCES = 2048


class _Compiled(NamedTuple):
    code: Any
    filename: str
    #: the ``linecache.cache`` value that registers the source
    registration: tuple


_CACHE: "OrderedDict[str, _Compiled]" = OrderedDict()
_LOCK = threading.Lock()


def load(source: str, kind: str,
         bindings: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Execute ``source`` into a fresh copy of ``bindings`` and return
    that namespace.  ``kind`` names the generator in the filename."""
    with _LOCK:
        compiled = _CACHE.get(source)
        if compiled is None:
            digest = hashlib.sha1(source.encode("utf-8")).hexdigest()[:16]
            filename = f"{PREFIX}{kind}:{digest}>"
            compiled = _CACHE[source] = _Compiled(
                compile(source, filename, "exec"), filename,
                (len(source), None, source.splitlines(keepends=True),
                 filename))
            while len(_CACHE) > MAX_SOURCES:
                _old, evicted = _CACHE.popitem(last=False)
                linecache.cache.pop(evicted.filename, None)
        else:
            _CACHE.move_to_end(source)
        linecache.cache[compiled.filename] = compiled.registration
    namespace = dict(bindings or ())
    exec(compiled.code, namespace)
    return namespace
