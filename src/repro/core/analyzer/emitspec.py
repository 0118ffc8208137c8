"""Classic ``map()`` bodies as batch specs: the analyzer's emit proof.

The fluent lowering hands the batch executor a
:class:`~repro.batch.spec.BatchStageSpec` it built from its own operator
chain.  This module builds the same spec from an unmodified classic
``map(key, value, ctx)`` -- the paper's claim that the data operation can
be read out of free-form code, carried through to the executor.  It uses
the mapper analysis already done (the lowered IR, the use-def resolver,
the side-effect scan, the read shape) and the UDF translator's
evaluation-order rule
(:func:`repro.core.analyzer.udf._check_evaluation_order`), so a row on
which ``map()`` raises raises the same way in the kernel.

A mapper is described when:

* the ``map()`` that runs is the plain function the analyzer read, with
  no ``setup``/``cleanup`` of its own and no side effect (counters,
  member or container mutation, unknown calls, output);
* it has exactly one ``ctx.emit(K, V)``, no loop, and exactly one CFG
  path from entry to that emit, whose branch conditions become the
  spec's predicates (a condition taken on its false edge is ``not``-ed,
  never rewritten, so NaN compares as ``map()`` compares it);
* every condition, ``K`` and ``V`` is functional over key and value
  fields, folded ``__init__`` members and constants; ``V`` may also be
  a tuple of those or the whole value record, ``K`` and ``V`` the whole
  key;
* evaluating the predicates and then the emitted parts runs the
  operations ``map()`` runs on that path, in the same order, and nothing
  that can raise runs anywhere else in the body.

The spec emits ``(K, V)`` as written; a part that is not a value field,
the whole key or value, or a constant becomes one of its derived
values, which the kernel computes after the predicates, in emit order.

Anything else is a reason string; the stage then runs record-at-a-time,
exactly as before.  The verdict is part of the
:class:`~repro.core.analyzer.descriptors.InputAnalysis`, so the engine's
analysis cache holds it with everything else.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from repro.batch.kernels import compile_predicates
from repro.batch.spec import BatchStageSpec, column_ref, part_source
from repro.core.analyzer import ir
from repro.core.analyzer.cfg import CondJump
from repro.core.analyzer.conditions import SymbolicResolver
from repro.core.analyzer.descriptors import SideEffect
from repro.core.analyzer.lowering import LoweredFunction
from repro.core.analyzer.udf import (
    _check_evaluation_order,
    _Decline,
    _functional,
    _trace,
)
from repro.storage.blockscan import ReadShape
from repro.storage.serialization import Record, Schema
from repro.symbolic import ROLE_VALUE, SNot, SParam, STuple, SymExpr


def _evaluated(resolver: SymbolicResolver, stmt: ir.Stmt
               ) -> Optional[Tuple[str, SymExpr]]:
    """What a user-level statement evaluates, labelled; ``None`` for a
    lowering temporary (its operation is part of the user expression
    that reads it), a return, the emit, or a docstring."""
    if isinstance(stmt, ir.Assign):
        if stmt.target.startswith("%"):
            return None
        return (f"local {stmt.target!r}",
                resolver.resolve_at_stmt(stmt, stmt.expr))
    if isinstance(stmt, ir.ExprStmt) and not isinstance(stmt.expr, ir.Const):
        return (f"the statement on line {stmt.lineno}",
                resolver.resolve_at_stmt(stmt, stmt.expr))
    if isinstance(stmt, (ir.ExprStmt, ir.Emit, ir.Return)):
        return None
    raise _Decline(f"statement {type(stmt).__name__} on line {stmt.lineno}")


def _emit_path(lowered: LoweredFunction, emit: ir.Emit) -> List[int]:
    """The blocks of the one entry-to-emit path, in order."""
    cfg = lowered.cfg
    target = cfg.statement_block(emit)
    on_route = cfg.blocks_reaching(target)
    if cfg.entry not in on_route:
        raise _Decline("emit() is unreachable")
    path = [cfg.entry]
    while path[-1] != target:
        ahead = [b for b in cfg.block(path[-1]).successors()
                 if b in on_route]
        if len(ahead) != 1:
            raise _Decline("more than one path reaches emit()")
        path.append(ahead[0])
    return path


def _emit_value(value: SymExpr, read_shape: Optional[ReadShape]
                ) -> SymExpr:
    """Check ``V``'s shape: whole value, tuple or one expression."""
    if isinstance(value, STuple):
        if not value.items:
            raise _Decline("the emitted value is an empty tuple")
        if any(isinstance(item, SParam) and item.role == ROLE_VALUE
               for item in value.items):
            raise _Decline("a tuple value holds the whole value record")
    elif isinstance(value, SParam) and value.role == ROLE_VALUE \
            and read_shape is not None and read_shape.fields is not None:
        raise _Decline("the whole value is emitted from a narrowed read")
    return value


def _spec(predicates: List[SymExpr], key: SymExpr, value: SymExpr,
          read_shape: Optional[ReadShape],
          value_schema: Optional[Schema]) -> BatchStageSpec:
    """The spec emitting ``(key, value)``: every part the kernel has to
    compute becomes a derived value, named ``@i`` after its position
    among the emitted parts (no field is called that), and the scan
    captures what the record path's read shape captures."""
    derived: List[Tuple[str, SymExpr]] = []

    def gathered(part: SymExpr) -> SymExpr:
        if part_source(part) is None:
            derived.append((f"@{len(derived)}", part))
            part = column_ref(derived[-1][0])
        return part

    key = gathered(key)
    value = STuple([gathered(item) for item in value.items]) \
        if isinstance(value, STuple) else gathered(value)
    fields = read_shape.fields if read_shape else None
    if fields is None and value_schema and value_schema.transparent:
        fields = value_schema.field_names()
    return BatchStageSpec((key, value), predicates, derived or None,
                          None if fields is None else list(fields))


def _translate(lowered: LoweredFunction, resolver: SymbolicResolver,
               read_shape: Optional[ReadShape],
               value_schema: Optional[Schema]) -> BatchStageSpec:
    cfg = lowered.cfg
    roles = lowered.roles
    reassigned = sorted(
        name for name in (roles.self_name, roles.key_name, roles.value_name,
                          roles.ctx_name)
        if name is not None and name in lowered.local_names)
    if reassigned:
        raise _Decline(f"parameter {reassigned[0]!r} is reassigned")
    emits = lowered.emit_statements()
    if not emits:
        raise _Decline("map() never emits")
    if len(emits) > 1:
        raise _Decline(f"{len(emits)} emit() calls")
    if cfg.has_cycle():
        raise _Decline("a loop in map()")
    emit = emits[0]
    path = _emit_path(lowered, emit)

    # What map() evaluates on its way to the emit, in source order, and
    # the branch conditions that become the predicates.
    evaluated: List[SymExpr] = []
    predicates: List[SymExpr] = []
    covered: Set[int] = set()
    for position, block_id in enumerate(path):
        block = cfg.block(block_id)
        for stmt in block.stmts:
            if stmt is emit:
                break
            covered.add(stmt.stmt_id)
            found = _evaluated(resolver, stmt)
            if found is not None:
                evaluated.append(_functional(found[1], found[0]))
        if block_id == path[-1]:
            break
        term = block.terminator
        if isinstance(term, CondJump):
            cond = _functional(
                resolver.resolve_at_block_end(block_id, term.cond),
                "a path condition")
            taken = path[position + 1] == term.true_target
            predicates.append(cond if taken else SNot(cond))
            evaluated.append(predicates[-1])
    key = _functional(resolver.resolve_at_stmt(emit, emit.key),
                      "the emitted key")
    value = _emit_value(_functional(
        resolver.resolve_at_stmt(emit, emit.value), "the emitted value"),
        read_shape)
    if isinstance(key, SParam) and key.role == ROLE_VALUE:
        raise _Decline("the whole value record is emitted as the key")
    spec = _spec(predicates, key, value, read_shape, value_schema)
    parts = [key, *(value.items if isinstance(value, STuple) else (value,))]

    # Nothing that can raise may run where the kernel does not run it:
    # off the emit path, after the emit, or in a condition not taken.
    for block_id in sorted(cfg.reachable_from_entry()):
        block = cfg.block(block_id)
        unrun: List[SymExpr] = []
        for stmt in block.stmts:
            if stmt.stmt_id in covered or stmt is emit:
                continue
            found = _evaluated(resolver, stmt)
            if found is not None:
                unrun.append(found[1])
        term = block.terminator
        if isinstance(term, CondJump) and (
                block_id not in path or block_id == path[-1]):
            unrun.append(resolver.resolve_at_block_end(block_id, term.cond))
        for sym in unrun:
            ops: List[str] = []
            _trace(sym, ops)
            if ops:
                raise _Decline(
                    f"{ops[0]} is evaluated where map() does not emit, "
                    "and may raise")
    _check_evaluation_order(evaluated + parts, STuple(predicates + parts))

    shadowed = [name for name in spec.value_columns()
                if hasattr(Record, name)]
    if shadowed:
        raise _Decline(f"field(s) {shadowed} are shadowed by Record "
                       "attributes")
    if spec.project_columns is not None and not set(
            spec.value_columns()) <= set(spec.project_columns):
        raise _Decline("the read shape lacks a field the emit reads")
    try:
        compile_predicates(spec.predicates, spec.kernel_exprs())
    except TypeError as exc:
        raise _Decline(f"no kernel form: {exc}") from None
    return spec


def find_emit_spec(lowered: LoweredFunction, resolver: SymbolicResolver,
                   side_effects: List[SideEffect], lifecycle: bool,
                   plain: bool, read_shape: Optional[ReadShape],
                   value_schema: Optional[Schema]
                   ) -> Union[BatchStageSpec, str]:
    """The spec describing this ``map()``, or why there is none.

    ``lifecycle``: the mapper overrides ``setup`` or ``cleanup``;
    ``plain``: the ``map`` that runs is the function ``lowered`` was
    parsed from; ``read_shape``: what the record path captures of each
    record of ``value_schema`` (all of it, when the shape names no
    fields), which the spec captures too, so both paths decode (and are
    charged for) the same fields.  Never raises.
    """
    if not plain:
        return "the map() that runs is not the function the analyzer read"
    if lifecycle:
        return "setup()/cleanup() overridden (per-task state)"
    if side_effects:
        effect = side_effects[0]
        return f"side effect in map(): {effect.category} ({effect.detail})"
    try:
        return _translate(lowered, resolver, read_shape, value_schema)
    except _Decline as exc:
        return str(exc)
    except Exception as exc:  # noqa: BLE001 -- the analyzer's safety floor
        return f"analysis failed: {exc!r}"

