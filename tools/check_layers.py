#!/usr/bin/env python3
"""Check the layer rules ``docs/architecture.md`` promises.

1. Lower layers never import the front doors.  Every module under
   ``src/repro/{storage,mapreduce,batch,engine,core}`` is parsed with
   :mod:`ast`; any import, at module level *or* inside a function, of
   ``repro.api`` or ``repro.service`` (absolute or relative spelling)
   fails.
2. One input identity.  The attribute ``st_mtime_ns`` is read only
   under ``src/repro/storage/`` -- "what bytes is this input, right
   now" is :func:`repro.storage.input_identity`'s decision, and a
   second spelling of it elsewhere is a cache that can disagree.
3. No unargued environment knobs.  Every ``REPRO_*`` name spelled as a
   string literal under ``src/repro/`` -- which is how a name reaches
   ``os.environ``, directly or through a helper -- is on
   :data:`ENV_ALLOWED`.  A new knob is a new user-set selector between
   behaviours; it fails here until someone argues for it in the list.
4. One caller for one decision (:data:`SINGLE_CALLER`).
   ``plan_shared_groups`` and ``run_shared_group`` (defined in
   ``repro/batch/multiscan.py``) are *called* from one module only,
   ``repro/api/session.py`` -- ``run_plans``, which every door reaches,
   plus ``explain_many``'s read-only grouping report.  A second caller
   is a second grouping driver that can plan, validate and assemble
   results differently from the first.  ``build_scan_plan`` (defined in
   ``repro/batch/columns.py``) is called only from
   ``repro/batch/executor.py``, the home of ``batch_admission``: a
   second caller is a second copy of "can this spec be served over this
   input" that the map task, shared-scan grouping and ``explain`` can
   disagree with.
5. One aggregate table.  An op list -- a tuple, set or list literal, or
   a dict literal's keys, whose string constants are two or more
   aggregate op names (:data:`AGG_OPS`) and nothing else -- appears only
   in ``repro/batch/spec.py``, home of ``AGGREGATES``: any other one
   (supported ops, foldable ops, reducer templates) is a copy of the
   table kept in step by hand.  ``repro/storage`` sits below the table
   and is not checked: its zone-map ``min``/``max`` are keys of a
   persisted format, not aggregate ops.
6. One spill format.  The typed block shuffle is retired; what is left
   of ``repro/batch/shuffleblocks.py`` is a stub kept for the frozen
   benchmark suite.  No module under ``src/repro`` imports it, and it
   holds nothing but a docstring and ``def active_spec`` -- so the
   second run format cannot grow back behind the first.
7. One record decode.  The compiled block scanner is the only way record
   data leaves a block file; the per-record lazy decode is retired.  No
   module under ``src/repro`` defines :data:`LAZY_DEFS` (``LazyRecord``,
   ``decode_lazy``, ``skip_uvarint``) or passes a :data:`LAZY_KWARGS`
   keyword (``lazy_values``, ``lazy_keys``, ``field_counter``) to any
   call, and ``FieldDecodeCounter`` -- kept for the frozen benchmark
   suite's storage probe -- is named only where it is defined and where
   ``repro.storage`` exports it (:data:`COUNTER_HOMES`).
8. One sizer.  The shuffle's bookkeeping runs a column at a time
   (``total_size``, ``pair_sizes``, ``sort_keys``, ``stable_hashes`` in
   ``repro/mapreduce/keyspace.py``).  Outside ``keyspace.py`` the
   per-item ``estimate_size``, ``sort_key`` and ``stable_hash``
   (:data:`PER_ITEM`) are named -- called, or passed as a function --
   only in the functions of :data:`PER_ITEM_ALLOWED`, each with the
   reason a per-item call is right there; a per-pair loop anywhere else
   is the bookkeeping the column functions replaced.
9. One reduce loop.  A sorted partition is grouped once, by the
   boundaries of its sorted key column, and sorted once, as an index
   permutation by ``keyspace.sort_order`` -- which alone decides that a
   column of one raw-ordered type (:data:`RAW_ORDER`) may be sorted on
   its raw keys.  So in :data:`SHUFFLE_MODULES` (``runtime.py``,
   ``shuffle.py``, ``engine/pool.py``) nothing names ``groupby``; in the
   two modules that sort shuffle streams (:data:`STREAM_SORTERS`) nothing
   calls ``sorted`` or a ``.sort`` method; and :data:`RAW_ORDER` is named
   only inside ``keyspace.sort_order``.

10. One read-shape decision.  What the record path builds of a record
    is the analyzer's proof, attached by the optimizer: a
    ``with_shape`` call, or a store to an input's ``shape``, appears
    only under ``repro/core/optimizer/`` and in
    ``repro/mapreduce/formats.py`` (:data:`SHAPE_HOMES`), where the
    copies are made; and the unread-key sentinel (:data:`SENTINEL_NAMES`)
    is named only in ``formats.py`` -- a second spelling of it is a
    second door through which ``map()`` could be handed a key nobody
    decoded.

11. One reference encode.  Every record a block file stores goes
    through a compiled encoder (``repro/storage/blockwrite.py``); the
    per-field reference encode -- ``_encode_value``, the walk
    ``_encode_fields`` and the codecs' reference steps
    (:data:`REFERENCE_ENCODE`) -- is its error oracle, named only in
    ``repro/storage/serialization.py`` and in the encoder module's
    decline path (:data:`REFERENCE_HOMES`).  A second caller is a write
    path that interprets the schema per field again, and can drift from
    the compiled bytes.

12. One index format.  A selection index is a block file
    (``repro/storage/indexfile.py``); the page-codec B+Tree is kept only
    for the frozen benchmark suite's storage probe.  So outside
    ``repro/storage/__init__.py`` (:data:`BTREE_HOME`) nothing under
    ``src/repro`` imports ``repro.storage.btree`` (:data:`BTREE_MODULE`),
    and nothing defines or names the retired B+Tree read path
    (:data:`RETIRED_INDEX_NAMES`: ``entry_scanner``,
    ``frame_index_entry``, ``_IndexEntries``) -- a second index format
    would come back through either.

13. One stage order.  A pipeline runs its stages in chain order, and
    parallelism is decided below it, by the dispatcher that fans each
    stage's tasks out on the worker pool.  So nothing under
    ``src/repro`` imports the retired ``repro.engine.dag``
    (:data:`DAG_MODULE`) or names its stage scheduler
    (:data:`RETIRED_STAGE_NAMES`: ``StageDAG``, ``run_stage_tasks``),
    and no function under ``repro/{api,core,engine}``
    (:data:`NO_SCHEDULER_LAYERS`) takes a parameter called
    ``scheduler`` -- a second stage order would come back through any
    of them.  The service's ``FairScheduler`` orders *queries*, not
    stages, and is not checked.

Exit status 0 when every rule holds; 1 with a report otherwise.  Run from
anywhere: the repo root is located relative to this file.

Used by the CI ``docs`` job and by ``tests/test_layering.py``.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: packages that must not reach upward ...
LOWER_LAYERS = ("storage", "mapreduce", "batch", "engine", "core")
#: ... into these
FRONT_DOORS = ("repro.api", "repro.service")
#: the stat field only :func:`repro.storage.input_identity` may read
MTIME_ATTR = "st_mtime_ns"
#: every environment variable the package may read: the fault-injection
#: plan (tests, chaos CI) and the three RetryPolicy defaults
ENV_ALLOWED = frozenset({
    "REPRO_FAULTS",
    "REPRO_TASK_ATTEMPTS",
    "REPRO_TASK_TIMEOUT",
    "REPRO_POOL_REBUILDS",
})
_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_MULTISCAN = os.path.join("repro", "batch", "multiscan.py")
_SESSION = os.path.join("repro", "api", "session.py")
#: function name -> (module that defines it, the one module that may
#: call it): the shared-scan planner and group runner, and the scan
#: planner under the batch admission
SINGLE_CALLER = {
    "plan_shared_groups": (_MULTISCAN, _SESSION),
    "run_shared_group": (_MULTISCAN, _SESSION),
    "build_scan_plan": (os.path.join("repro", "batch", "columns.py"),
                        os.path.join("repro", "batch", "executor.py")),
}
#: the aggregate op names, and the one module that may list them
AGG_OPS = frozenset({"count", "sum", "min", "max", "avg"})
AGG_TABLE = os.path.join("repro", "batch", "spec.py")
#: the retired typed shuffle's stub, and the one name it may define
STUB_MODULE = "repro.batch.shuffleblocks"
STUB_NAME = "active_spec"
#: the retired lazy decode: names nothing may define, keywords nothing
#: may pass, and the probe's counter with the only modules that may name it
LAZY_DEFS = frozenset({"LazyRecord", "decode_lazy", "skip_uvarint"})
LAZY_KWARGS = frozenset({"lazy_values", "lazy_keys", "field_counter"})
COUNTER = "FieldDecodeCounter"
COUNTER_HOMES = (os.path.join("repro", "storage", "serialization.py"),
                 os.path.join("repro", "storage", "__init__.py"))


#: the per-item keyspace functions, their home, and the only functions
#: (module, qualified name) elsewhere that may name them -- with why
PER_ITEM = frozenset({"estimate_size", "sort_key", "stable_hash"})
KEYSPACE = os.path.join("repro", "mapreduce", "keyspace.py")
PER_ITEM_ALLOWED = {
    (os.path.join("repro", "mapreduce", "api.py"), "Partitioner.partition"):
        "the public per-key partitioner; the default route hashes a column",
    (os.path.join("repro", "mapreduce", "shuffle.py"), "merge_runs"):
        "decorates plain runs lazily as they stream, one pair at a time",
    (os.path.join("repro", "mapreduce", "job.py"), "JobResult.sorted_outputs"):
        "a sorted() key over a finished job's outputs, not a shuffle loop",
    (os.path.join("repro", "storage", "partitioned.py"), "_stable_field_hash"):
        "the partition writer routes each record as it is written",
}

#: rule 9: the modules of the one reduce loop, the two of them that sort
#: shuffle streams, and the raw-key condition with its one home
SHUFFLE_MODULES = (os.path.join("repro", "mapreduce", "runtime.py"),
                   os.path.join("repro", "mapreduce", "shuffle.py"),
                   os.path.join("repro", "engine", "pool.py"))
STREAM_SORTERS = SHUFFLE_MODULES[:2]
RAW_ORDER = "_RAW_ORDERED"
RAW_ORDER_HOME = (KEYSPACE, "sort_order")

#: rule 10: the record path's read shape and its unread-key sentinel
FORMATS = os.path.join("repro", "mapreduce", "formats.py")
SHAPE_HOMES = (os.path.join("repro", "core", "optimizer"), FORMATS)
SENTINEL_NAMES = frozenset({"_UNREAD_KEY", "_UnreadKey"})
#: the per-field reference encode, the module that owns it, and the
#: encoder module's decline path -- the only (module, scope)s naming it
REFERENCE_ENCODE = frozenset({"_encode_value", "_encode_fields",
                              "_reference_delta", "_reference_dictionary"})
SERIALIZATION = os.path.join("repro", "storage", "serialization.py")
_BLOCKWRITE = os.path.join("repro", "storage", "blockwrite.py")
REFERENCE_HOMES = frozenset({
    (_BLOCKWRITE, "WriteCodec.reference"),
    (_BLOCKWRITE, "WriteCodec._reference_delta"),
    (_BLOCKWRITE, "WriteCodec._reference_dictionary"),
})


#: rule 12: the retired page codec, the one module that may import it,
#: and the names of its retired read path
BTREE_MODULE = "repro.storage.btree"
BTREE_HOME = os.path.join("repro", "storage", "__init__.py")
RETIRED_INDEX_NAMES = frozenset({"entry_scanner", "frame_index_entry",
                                 "_IndexEntries"})

#: rule 13: the retired stage scheduler's module and names, and the
#: layers none of whose functions may take a ``scheduler`` parameter
DAG_MODULE = "repro.engine.dag"
RETIRED_STAGE_NAMES = frozenset({"StageDAG", "run_stage_tasks"})
NO_SCHEDULER_LAYERS = ("api", "core", "engine")
SCHEDULER_PARAM = "scheduler"


def imported_modules(tree: ast.AST, package: str) -> Iterator[Tuple[int, str]]:
    """(line, absolute module name) of every import anywhere in ``tree``.

    ``package`` is the dotted package of the module being parsed, used
    to resolve relative imports.  ``from pkg import name`` yields both
    ``pkg`` and ``pkg.name`` (``name`` may be a submodule).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[:len(parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def parsed_modules(top: str) -> Iterator[Tuple[str, ast.AST]]:
    """(path, parsed tree) of every module under ``top``, in sorted order."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as f:
                    yield path, ast.parse(f.read(), filename=path)


def violations(src: str = SRC) -> List[str]:
    found: List[str] = []
    for layer in LOWER_LAYERS:
        for path, tree in parsed_modules(os.path.join(src, "repro", layer)):
            package = os.path.relpath(
                os.path.dirname(path), src).replace(os.sep, ".")
            seen = set()
            for lineno, module in imported_modules(tree, package):
                door = next((d for d in FRONT_DOORS if module == d
                             or module.startswith(d + ".")), None)
                if door is not None and (lineno, door) not in seen:
                    seen.add((lineno, door))
                    found.append(
                        f"{os.path.relpath(path, REPO_ROOT)}:{lineno}: "
                        f"imports {module} ({layer} is below {door})"
                    )
    return found


def mtime_violations(src: str = SRC) -> List[str]:
    """Every read of ``st_mtime_ns`` outside ``repro/storage``."""
    storage = os.path.join(src, "repro", "storage") + os.sep
    return [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: reads "
        f"{MTIME_ATTR} (call repro.storage.input_identity instead)"
        for path, tree in parsed_modules(os.path.join(src, "repro"))
        if not path.startswith(storage)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == MTIME_ATTR
    ]


def env_violations(src: str = SRC) -> List[str]:
    """Every ``REPRO_*`` string literal not on :data:`ENV_ALLOWED`.

    Whole-literal matches only: prose that mentions a name (docstrings,
    messages) is a longer string and is not a read.
    """
    found = sorted(
        (os.path.relpath(path, REPO_ROOT), node.lineno, node.value)
        for path, tree in parsed_modules(os.path.join(src, "repro"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _ENV_NAME.fullmatch(node.value)
        and node.value not in ENV_ALLOWED
    )
    return [
        f"{path}:{lineno}: environment knob {name} is not on "
        f"tools/check_layers.py ENV_ALLOWED"
        for path, lineno, name in found
    ]


def single_caller_violations(src: str = SRC) -> List[str]:
    """Every call of a :data:`SINGLE_CALLER` name outside the two
    modules allowed to make one (bare name or attribute spelling)."""
    found: List[str] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
            home, caller = SINGLE_CALLER.get(name, (None, None))
            if home is None or path in (os.path.join(src, home),
                                        os.path.join(src, caller)):
                continue
            found.append(
                f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: "
                f"calls {name} (only {caller} may)"
            )
    return found


def op_list_violations(src: str = SRC) -> List[str]:
    """Every aggregate op list (rule 5) outside :data:`AGG_TABLE`."""
    found: List[str] = []
    storage = os.path.join(src, "repro", "storage") + os.sep
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        if path == os.path.join(src, AGG_TABLE) or path.startswith(storage):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            names = {item.value for item in items
                     if isinstance(item, ast.Constant)
                     and isinstance(item.value, str)}
            if len(names) >= 2 and names <= AGG_OPS:
                found.append(
                    f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}: "
                    f"lists aggregate ops {sorted(names)} (read {AGG_TABLE} "
                    f"AGGREGATES instead)"
                )
    return found


def stub_violations(src: str = SRC) -> List[str]:
    """Every import of :data:`STUB_MODULE` under ``src/repro``, and every
    top-level statement of it other than its docstring and
    ``def`` :data:`STUB_NAME` (rule 6)."""
    found: List[str] = []
    stub_path = os.path.join(src, *STUB_MODULE.split(".")) + ".py"
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        rel = os.path.relpath(path, REPO_ROOT)
        if path == stub_path:
            body = tree.body[1:] if ast.get_docstring(tree) else tree.body
            extra = [node for node in body
                     if not (isinstance(node, ast.FunctionDef)
                             and node.name == STUB_NAME)]
            if extra:
                found.append(
                    f"{rel}:{extra[0].lineno}: the {STUB_MODULE} stub may "
                    f"define only {STUB_NAME} ({len(extra)} other top-level "
                    f"statement(s))"
                )
            continue
        package = os.path.relpath(
            os.path.dirname(path), src).replace(os.sep, ".")
        found.extend(
            f"{rel}:{lineno}: imports {STUB_MODULE} (the retired typed "
            f"shuffle; spill through repro.mapreduce.shuffle)"
            for lineno in sorted({
                lineno for lineno, module in imported_modules(tree, package)
                if module == STUB_MODULE
            })
        )
    return found


def lazy_decode_violations(src: str = SRC) -> List[str]:
    """Every definition of a :data:`LAZY_DEFS` name, every call passing a
    :data:`LAZY_KWARGS` keyword, and every mention of :data:`COUNTER`
    outside :data:`COUNTER_HOMES`, under ``src/repro`` (rule 7)."""
    found: List[Tuple[str, int, str]] = []
    homes = {os.path.join(src, home) for home in COUNTER_HOMES}
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        rel = os.path.relpath(path, REPO_ROOT)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name in LAZY_DEFS:
                found.append((rel, node.lineno, f"defines {node.name}"))
            elif isinstance(node, ast.Call):
                found.extend((rel, node.lineno, f"passes {kw.arg}=")
                             for kw in node.keywords if kw.arg in LAZY_KWARGS)
            elif path not in homes and COUNTER in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)):
                found.append((rel, node.lineno, f"names {COUNTER}"))
    return [f"{rel}:{lineno}: {what} (the lazy decode is retired; "
            f"{COUNTER} is kept only for the frozen benchmark probe)"
            for rel, lineno, what in sorted(found)]


def _scoped_nodes(node: ast.AST, scope: str = ""
                  ) -> Iterator[Tuple[str, ast.AST]]:
    """(qualified name of the enclosing def/class, node) for every node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _scoped_nodes(child, inner)


def per_item_violations(src: str = SRC) -> List[str]:
    """Every use of a :data:`PER_ITEM` function under ``src/repro``
    outside ``keyspace.py`` and :data:`PER_ITEM_ALLOWED` (rule 8)."""
    found: List[Tuple[str, int, str, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        if module == KEYSPACE:
            continue
        for scope, node in _scoped_nodes(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in PER_ITEM and (module, scope) not in PER_ITEM_ALLOWED:
                found.append((os.path.relpath(path, REPO_ROOT), node.lineno,
                              name, scope or "<module>"))
    return [f"{rel}:{lineno}: {scope} uses the per-item {name} (size, sort "
            f"or hash a column: repro.mapreduce.keyspace total_size / "
            f"pair_sizes / sort_keys / stable_hashes)"
            for rel, lineno, name, scope in sorted(set(found))]


def reduce_loop_violations(src: str = SRC) -> List[str]:
    """Every ``groupby`` in :data:`SHUFFLE_MODULES`, every sort in
    :data:`STREAM_SORTERS`, and every use of :data:`RAW_ORDER` outside
    ``keyspace.sort_order``, under ``src/repro`` (rule 9)."""
    found: List[Tuple[str, int, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        rel = os.path.relpath(path, REPO_ROOT)
        for scope, node in _scoped_nodes(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if isinstance(node, ast.alias):
                name = node.name
            if module in SHUFFLE_MODULES and name == "groupby":
                found.append((rel, node.lineno, "names groupby (group by "
                              "the boundaries of the sorted key column)"))
            elif (module in STREAM_SORTERS and isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "sorted"
                       or getattr(node.func, "attr", None) == "sort")):
                found.append((rel, node.lineno, "sorts (a shuffle stream "
                              "is sorted by keyspace.sort_order)"))
            elif (name == RAW_ORDER and (module, scope) != RAW_ORDER_HOME
                  and not isinstance(getattr(node, "ctx", None), ast.Store)):
                found.append((rel, node.lineno, f"names {RAW_ORDER} (the "
                              "raw-key sort column is keyspace.sort_order's "
                              "decision)"))
    return [f"{rel}:{lineno}: {what}"
            for rel, lineno, what in sorted(set(found))]


def read_shape_violations(src: str = SRC) -> List[str]:
    """Every ``with_shape`` call or ``.shape`` store outside
    :data:`SHAPE_HOMES`, and every use of a :data:`SENTINEL_NAMES` name
    outside ``formats.py``, under ``src/repro`` (rule 10)."""
    found: List[Tuple[str, int, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        rel = os.path.relpath(path, REPO_ROOT)
        home = any(module == h or module.startswith(h + os.sep)
                   for h in SHAPE_HOMES)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.ClassDef))
                    else None)
            if name in SENTINEL_NAMES and module != FORMATS:
                found.append((rel, node.lineno, f"names {name} (the "
                              "unread-key sentinel lives in formats.py)"))
            elif home:
                continue
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "with_shape"):
                found.append((rel, node.lineno, "attaches a read shape "
                              "(only repro.core.optimizer does)"))
            elif (isinstance(node, ast.Attribute) and node.attr == "shape"
                  and isinstance(node.ctx, ast.Store)):
                found.append((rel, node.lineno, "stores a read shape "
                              "(only repro.core.optimizer attaches one)"))
    return [f"{rel}:{lineno}: {what}"
            for rel, lineno, what in sorted(set(found))]


def reference_encode_violations(src: str = SRC) -> List[str]:
    """Every use of a :data:`REFERENCE_ENCODE` name under ``src/repro``
    outside ``serialization.py`` and :data:`REFERENCE_HOMES` (rule 11)."""
    found: List[Tuple[str, int, str, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        if module == SERIALIZATION:
            continue
        for scope, node in _scoped_nodes(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in REFERENCE_ENCODE and \
                    (module, scope) not in REFERENCE_HOMES:
                found.append((os.path.relpath(path, REPO_ROOT), node.lineno,
                              name, scope or "<module>"))
    return [f"{rel}:{lineno}: {scope} uses the reference encode {name} "
            f"(encode through repro.storage.blockwrite; the walk is its "
            f"decline path's oracle)"
            for rel, lineno, name, scope in sorted(set(found))]


def index_format_violations(src: str = SRC) -> List[str]:
    """Every import of :data:`BTREE_MODULE` outside :data:`BTREE_HOME`,
    and every use of a :data:`RETIRED_INDEX_NAMES` name, under
    ``src/repro`` (rule 12)."""
    found: List[Tuple[str, int, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        rel = os.path.relpath(path, REPO_ROOT)
        if module != BTREE_HOME:
            package = os.path.dirname(module).replace(os.sep, ".")
            found.extend(
                (rel, lineno, f"imports {BTREE_MODULE} (a selection index "
                 "is an index file; the page codec is kept only for the "
                 "frozen benchmark probe)")
                for lineno, name in imported_modules(tree, package)
                if name == BTREE_MODULE)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (
                        ast.alias, ast.ClassDef, ast.FunctionDef)) else None)
            if name in RETIRED_INDEX_NAMES:
                found.append((rel, node.lineno, f"names {name} (the B+Tree "
                              "read path is retired)"))
    return [f"{rel}:{lineno}: {what}"
            for rel, lineno, what in sorted(set(found))]


def stage_order_violations(src: str = SRC) -> List[str]:
    """Every import of :data:`DAG_MODULE` and every use of a
    :data:`RETIRED_STAGE_NAMES` name under ``src/repro``, and every
    function under :data:`NO_SCHEDULER_LAYERS` taking a
    :data:`SCHEDULER_PARAM` parameter (rule 13)."""
    found: List[Tuple[str, int, str]] = []
    for path, tree in parsed_modules(os.path.join(src, "repro")):
        module = os.path.relpath(path, src)
        rel = os.path.relpath(path, REPO_ROOT)
        package = os.path.dirname(module).replace(os.sep, ".")
        found.extend(
            (rel, lineno, f"imports {DAG_MODULE} (pipelines run in chain "
             "order)")
            for lineno, name in imported_modules(tree, package)
            if name == DAG_MODULE)
        takes_params = module.split(os.sep)[1] in NO_SCHEDULER_LAYERS
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (
                        ast.alias, ast.ClassDef, ast.FunctionDef)) else None)
            if name in RETIRED_STAGE_NAMES:
                found.append((rel, node.lineno, f"names {name} (the stage "
                              "scheduler is retired)"))
            if takes_params and isinstance(node, (
                    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if any(arg.arg == SCHEDULER_PARAM for arg in
                       args.posonlyargs + args.args + args.kwonlyargs):
                    found.append((rel, node.lineno, "takes a "
                                  f"{SCHEDULER_PARAM!r} parameter (one "
                                  "stage order: chain order)"))
    return [f"{rel}:{lineno}: {what}"
            for rel, lineno, what in sorted(set(found))]


def main() -> int:
    upward, mtime, env = violations(), mtime_violations(), env_violations()
    single, ops = single_caller_violations(), op_list_violations()
    stub, lazy = stub_violations(), lazy_decode_violations()
    per_item, loop = per_item_violations(), reduce_loop_violations()
    shape, reference = read_shape_violations(), reference_encode_violations()
    index, order = index_format_violations(), stage_order_violations()
    for line in (upward + mtime + env + single + ops + stub + lazy + per_item
                 + loop + shape + reference + index + order):
        print(line)
    if upward:
        print(f"\n{len(upward)} upward import(s) into {FRONT_DOORS}")
    if mtime:
        print(f"\n{len(mtime)} read(s) of {MTIME_ATTR} outside repro.storage")
    if env:
        print(f"\n{len(env)} environment knob(s) off the allow-list")
    if single:
        print(f"\n{len(single)} call(s) of a single-caller function "
              f"outside its caller")
    if ops:
        print(f"\n{len(ops)} aggregate op list(s) outside {AGG_TABLE}")
    if stub:
        print(f"\n{len(stub)} use(s) or growth of the {STUB_MODULE} stub")
    if lazy:
        print(f"\n{len(lazy)} trace(s) of the retired lazy decode")
    if per_item:
        print(f"\n{len(per_item)} per-item sizing/sort-key/hash use(s) "
              f"outside the allow-list")
    if loop:
        print(f"\n{len(loop)} second reduce loop or sort column(s)")
    if shape:
        print(f"\n{len(shape)} read shape(s) attached or sentinel(s) named "
              f"outside their homes")
    if reference:
        print(f"\n{len(reference)} use(s) of the reference encode outside "
              f"serialization and the encoder's decline path")
    if index:
        print(f"\n{len(index)} use(s) of the retired B+Tree index path")
    if order:
        print(f"\n{len(order)} trace(s) of a second stage order")
    if (upward or mtime or env or single or ops or stub or lazy or per_item
            or loop or shape or reference or index or order):
        return 1
    print(f"OK: no module under src/repro/{{{','.join(LOWER_LAYERS)}}} "
          f"imports {' or '.join(FRONT_DOORS)}; {MTIME_ATTR} is read only "
          f"under src/repro/storage; every REPRO_* environment name is one "
          f"of {', '.join(sorted(ENV_ALLOWED))}; "
          + "; ".join(f"{name} is called only from {caller}"
                      for name, (_home, caller) in SINGLE_CALLER.items())
          + f"; aggregate ops are listed only in {AGG_TABLE}"
          + f"; nothing imports the {STUB_MODULE} stub"
          + "; nothing defines or asks for the lazy decode"
          + "; the per-item sizer, sort key and hash are used only in "
          + ", ".join(scope for _module, scope in PER_ITEM_ALLOWED)
          + "; the shuffle groups without groupby and sorts only through "
          + "keyspace.sort_order"
          + "; only repro.core.optimizer attaches a read shape and only "
          + "formats.py names the unread-key sentinel"
          + "; the reference encode is named only in serialization.py and "
          + "blockwrite's decline path"
          + f"; only {BTREE_HOME} imports {BTREE_MODULE} and nothing names "
          + "the retired B+Tree read path"
          + f"; nothing imports {DAG_MODULE} or names the stage scheduler, "
          + f"and no function under repro/{{{','.join(NO_SCHEDULER_LAYERS)}}} "
          + f"takes a {SCHEDULER_PARAM!r} parameter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
