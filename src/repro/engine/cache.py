"""Fingerprint-keyed memoization for the analyzer and the planner.

Manimal is a long-lived service: the same mapper bytecode is submitted
again and again, and the optimizer re-answers the same "which catalog
index applies to this program over this file?" question per submission.
This module gives the engine two caches:

* **analysis cache** -- memoizes
  :meth:`ManimalAnalyzer.analyze_job
  <repro.core.analyzer.analyzer.ManimalAnalyzer.analyze_job>` results,
  keyed by a *code-object fingerprint*: the mapper/reducer bytecode
  (including nested code objects, closures and defaults), the folded
  instance members, the knowledge-base version, safe mode, and the
  :func:`~repro.storage.input_identity` of every input (schemas are read
  from file headers, so a rewritten file must invalidate);
  the same cache memoizes UDF-translation verdicts
  (:func:`~repro.core.analyzer.udf.analyze_udf`), keyed by
  :func:`udf_fingerprint`: the callable's bytecode and captured values
  plus the knowledge-base version;
* **plan cache** -- memoizes
  :meth:`Optimizer.plan <repro.core.optimizer.planner.Optimizer.plan>`
  results, keyed by the analysis fingerprint plus the catalog's
  *instance token* (plans cached against one ``Catalog`` object are
  never served to another) and its *generation* (bumped on
  register/remove/evict, **not** on LRU touches) -- so catalog
  applicability is decided once per (program, input identity, catalog
  contents).

Safety-first: fingerprinting is conservative.  Any value it cannot
reduce to a stable hashable token (reprs that embed memory addresses,
unreadable bytecode, exotic members) makes the whole fingerprint
``None`` and the submission simply runs uncached -- identical behavior,
no reuse.  A false *miss* costs a re-analysis; a false *hit* is never
produced from an address-bearing repr.
"""

from __future__ import annotations

import functools
import inspect
import re
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.storage import input_identity

#: reprs embedding object identities must never key a cache entry: the
#: address can be reused by a different object after a gc.
_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")

_MAX_DEPTH = 5
_MAX_REPR = 4096


class Unfingerprintable(Exception):
    """Raised internally when a value has no stable fingerprint."""


def fingerprint_value(value: Any, depth: int = 0) -> Hashable:
    """A stable hashable token for a submission-time constant."""
    if depth > _MAX_DEPTH:
        raise Unfingerprintable("nesting too deep")
    if value is None or isinstance(value, (bool, int, float, complex, str,
                                           bytes)):
        # Type and repr, not the value: ``1 == 1.0 == True`` and
        # ``0.0 == -0.0`` hash alike, but a cached UDF verdict folds the
        # constant into the code that runs, so they must not collide.
        return ("v", type(value).__name__, repr(value))
    if isinstance(value, (tuple, list)):
        return (
            "seq", type(value).__name__,
            tuple(fingerprint_value(v, depth + 1) for v in value),
        )
    if isinstance(value, (set, frozenset)):
        tokens = [fingerprint_value(v, depth + 1) for v in value]
        return ("set", tuple(sorted(tokens, key=repr)))
    if isinstance(value, dict):
        items = [
            (fingerprint_value(k, depth + 1), fingerprint_value(v, depth + 1))
            for k, v in value.items()
        ]
        return ("map", tuple(sorted(items, key=repr)))
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        # Schemas and friends serialize themselves canonically.
        try:
            return (
                "obj", type(value).__qualname__,
                fingerprint_value(to_dict(), depth + 1),
            )
        except Exception as exc:
            raise Unfingerprintable(f"to_dict failed: {exc}") from exc
    if isinstance(value, type):
        return ("cls", value.__module__, value.__qualname__)
    if callable(value):
        return fingerprint_callable(value, depth + 1)
    text = repr(value)
    if _ADDRESS_RE.search(text) or len(text) > _MAX_REPR:
        raise Unfingerprintable(f"unstable repr for {type(value).__name__}")
    return ("repr", type(value).__module__, type(value).__qualname__, text)


def _fingerprint_code(code: Any, depth: int = 0) -> Hashable:
    """Bytecode hash of one code object, nested code objects included."""
    if depth > _MAX_DEPTH:
        raise Unfingerprintable("code nesting too deep")
    consts = tuple(
        _fingerprint_code(c, depth + 1) if hasattr(c, "co_code")
        else fingerprint_value(c, depth + 1)
        for c in code.co_consts
    )
    return (
        "code", code.co_name, code.co_code, consts, code.co_names,
        code.co_varnames, code.co_freevars, code.co_argcount,
        code.co_kwonlyargcount, code.co_flags,
    )


def fingerprint_callable(fn: Any, depth: int = 0) -> Hashable:
    """Bytecode + closure-cell values + defaults of one function/method."""
    fn = getattr(fn, "__func__", fn)  # unwrap bound methods
    code = getattr(fn, "__code__", None)
    if code is None:
        name = getattr(fn, "__qualname__", None)
        module = getattr(fn, "__module__", None)
        if name is None:
            raise Unfingerprintable(f"opaque callable {fn!r}")
        return ("builtin", module, name)
    cells: Tuple[Hashable, ...] = ()
    closure = getattr(fn, "__closure__", None)
    if closure:
        try:
            cells = tuple(
                fingerprint_value(cell.cell_contents, depth + 1)
                for cell in closure
            )
        except ValueError as exc:  # empty cell
            raise Unfingerprintable("unset closure cell") from exc
    defaults = fingerprint_value(fn.__defaults__, depth + 1)
    return ("fn", _fingerprint_code(code, depth), cells, defaults)


def fingerprint_spec(spec: Any) -> Hashable:
    """Fingerprint a mapper/reducer spec (class or instance).

    Covers everything the analyzer reads: the per-record method bytecode
    (``map``/``reduce``/``setup``/``cleanup``/``__init__``), the wrapped
    function of ``FunctionMapper``/``FunctionReducer`` adapters, and the
    instance/class members folded as submission-time constants.
    Instantiates class specs exactly as the analyzer itself does.
    """
    # The analyzer's own member walk: exactly the values it folds as
    # submission-time constants, so exactly the values whose change must
    # invalidate a cached analysis.
    from repro.core.analyzer.analyzer import _instance_members

    if spec is None:
        return ("none",)
    instance = spec() if isinstance(spec, type) else spec
    cls = type(instance)
    methods = []
    for name in ("map", "reduce", "setup", "cleanup", "__init__"):
        method = getattr(cls, name, None)
        if method is not None and callable(method):
            methods.append((name, fingerprint_callable(method)))
    members = fingerprint_value(_instance_members(instance))
    return ("spec", cls.__module__, cls.__qualname__, tuple(methods), members)


def _fingerprint_udf(fn: Any) -> Hashable:
    if isinstance(fn, functools.partial):
        return ("partial", _fingerprint_udf(fn.func),
                fingerprint_value(fn.args), fingerprint_value(fn.keywords))
    if inspect.isfunction(fn):
        return fingerprint_callable(fn)
    if inspect.isroutine(fn) or inspect.isclass(fn):
        # Bound methods, builtins, classes: translation declines them on
        # sight, so any stable token serves.
        return ("routine", fingerprint_value(fn))
    # A callable instance: the methods the analyzer scans for member
    # assignments, and the members it folds as constants.  ``__init__``
    # is not scanned -- what it left behind is in the members.
    from repro.core.analyzer.analyzer import _instance_members
    from repro.core.analyzer.udf import scanned_methods

    cls = type(fn)
    methods = tuple(  # MRO + definition order: already deterministic
        (name, fingerprint_callable(method))
        for name, method in scanned_methods(cls)
    )
    return ("callable", cls.__module__, cls.__qualname__, methods,
            fingerprint_value(_instance_members(fn)))


def udf_fingerprint(kb: Any, fn: Any, arity: int) -> Optional[Hashable]:
    """The analysis-cache key of one UDF-translation verdict.

    Covers what :func:`~repro.core.analyzer.udf.analyze_udf` reads: the
    callable's bytecode, its closure cells, defaults and ``partial``
    arguments, a callable instance's methods and members, and the
    knowledge-base version.  A fresh instance with equal members hits;
    an edited body or a changed member misses.  Globals are not covered
    -- the analyzer treats a global read as opaque, and the one global
    it does accept (a ``map``'s ``make()`` receiver) is re-read from the
    concrete callable on every use.  ``None`` means "do not cache".
    """
    try:
        return ("udf", kb.fingerprint(), arity, _fingerprint_udf(fn))
    except Exception:  # noqa: BLE001 -- any user object may pass through
        # Unfingerprintable, but also whatever an arbitrary callable's
        # class does under vars()/repr() (``__slots__``, a raising
        # ``__repr__``): lowering must not fail where it used to work.
        return None


def analysis_fingerprint(analyzer: Any, conf: Any) -> Optional[Hashable]:
    """The analysis-cache key for one (analyzer, job) pair.

    ``None`` means "do not cache": some component of the job has no
    stable fingerprint, so the submission runs through the analyzer
    directly.  ``conf.name`` is deliberately excluded -- two jobs that
    differ only by name share one analysis (fixed up on hit).
    """
    try:
        inputs = []
        for source in conf.inputs:
            path = getattr(source, "path", None) or getattr(
                source, "index_path", None
            )
            if path is None:
                # Pathless inputs (InMemoryInput) are identified by their
                # payload, which has no stable fingerprint here -- and a
                # cached plan would carry the *first* job's input object
                # into later jobs.  Run uncached.
                raise Unfingerprintable(
                    f"pathless input {type(source).__name__}"
                )
            inputs.append((
                type(source).__module__, type(source).__qualname__,
                source.tag,
                input_identity(path),
                fingerprint_spec(conf.mapper_for(source.tag)),
            ))
        return (
            "analysis",
            ("kb", analyzer.kb.fingerprint()),
            ("safe", analyzer.safe_mode),
            ("sorted", conf.requires_sorted_output),
            ("reducer", fingerprint_spec(conf.reducer)),
            ("params", fingerprint_value(conf.params)),
            tuple(inputs),
        )
    except Unfingerprintable:
        return None


class MemoCache:
    """A small thread-safe LRU with hit/miss accounting."""

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
            }
