"""``findProject`` -- projection detection (paper Fig. 6).

Enumerates which serialized input fields the mapper can possibly need and
returns the complement: fields safe to drop from the on-disk file.

Field usage is collected by symbolically resolving every expression the
mapper evaluates and harvesting parameter-field references -- including
references that sit *inside* unresolvable (opaque) regions, which the
resolver tracks precisely for this purpose.  If a whole record value ever
escapes analysis (passed to an unknown call, stored whole, emitted whole),
every field is considered used.

One deliberate deviation from the paper, in the safe direction: the paper
counts only fields used by emits and by conditions on paths to emits,
optimizing away e.g. debug-print field reads (a dropped Java field
deserializes as a default value).  In this Python reproduction a dropped
field *raises* when read, so we keep any field that is read anywhere in
``map()``.  For data-centric mappers -- including every benchmark in the
paper's evaluation -- the two rules produce identical results, because
such mappers do not read fields they never use.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.analyzer import ir
from repro.core.analyzer.cfg import CondJump
from repro.core.analyzer.conditions import ROLE_KEY, ROLE_VALUE, SymbolicResolver
from repro.core.analyzer.descriptors import ProjectionDescriptor
from repro.core.analyzer.lowering import LoweredFunction
from repro.storage.serialization import Schema


#: the note of a projection declined because the value escapes whole
VALUE_ESCAPES = (
    "the whole value record escapes analysis (stored, emitted whole, or "
    "passed to unknown code); all fields must be kept"
)
#: the note of a projection declined because nothing can be dropped
EVERY_FIELD_USED = "every serialized value field is used by the mapper"


def collect_field_usage(
    lowered: LoweredFunction,
    resolver: SymbolicResolver,
) -> Tuple[set, set, set]:
    """(key fields used, value fields used, escaped roles) summary.

    ``escaped`` is the set of parameter roles whose whole record flowed
    through the mapper (emitted whole, stored, or entered unknown code);
    every field of an escaped record must be kept.
    """
    key_used: set = set()
    value_used: set = set()
    escaped: set = set()

    def harvest(sym, consumption: bool) -> None:
        """Collect field refs; track whole-record escapes.

        A bare record reference only counts as an escape at a *consumption*
        point (emit argument, member/container store, expression statement,
        return) or when it flowed into opaque code.  A plain local alias
        like ``v = value`` is not an escape: every later use of ``v``
        resolves right back through it.
        """
        from repro.core.analyzer.conditions import SOpaque, SParam

        for role, fname in sym.field_refs():
            if role == ROLE_KEY:
                key_used.add(fname)
            else:
                value_used.add(fname)
        for node in sym.walk():
            if isinstance(node, SOpaque):
                escaped.update(node.whole_params)
            elif consumption and isinstance(node, SParam):
                escaped.add(node.role)

    for block in lowered.cfg.blocks.values():
        for stmt in block.stmts:
            if isinstance(stmt, ir.Emit):
                harvest(resolver.resolve_at_stmt(stmt, stmt.key), True)
                harvest(resolver.resolve_at_stmt(stmt, stmt.value), True)
            elif isinstance(stmt, ir.Assign):
                harvest(resolver.resolve_at_stmt(stmt, stmt.expr), False)
            elif isinstance(stmt, (ir.AttrAssign, ir.ExprStmt)):
                harvest(resolver.resolve_at_stmt(stmt, stmt.expr), True)
            elif isinstance(stmt, ir.SubscriptAssign):
                harvest(resolver.resolve_at_stmt(stmt, stmt.obj), False)
                harvest(resolver.resolve_at_stmt(stmt, stmt.index), False)
                harvest(resolver.resolve_at_stmt(stmt, stmt.expr), True)
            elif isinstance(stmt, ir.Return) and stmt.expr is not None:
                harvest(resolver.resolve_at_stmt(stmt, stmt.expr), True)
        term = block.terminator
        if isinstance(term, CondJump):
            harvest(
                resolver.resolve_at_block_end(block.block_id, term.cond),
                False,
            )

    return key_used, value_used, escaped


def find_project(
    lowered: LoweredFunction,
    resolver: SymbolicResolver,
    key_schema: Optional[Schema],
    value_schema: Optional[Schema],
) -> Tuple[Optional[ProjectionDescriptor], List[str]]:
    """Run projection detection; returns (descriptor or None, notes)."""
    if value_schema is None:
        return None, ["no value schema metadata available for this input"]
    if not value_schema.transparent:
        # The Benchmark 1 miss: "the analyzer is thus unable to distinguish
        # between different fields in the serialized data."
        return None, [
            f"value schema {value_schema.name!r} uses custom opaque "
            "serialization; field boundaries are not visible"
        ]
    if not lowered.emit_statements():
        return None, ["mapper never emits; projection would drop everything"]

    key_used, value_used, escaped = collect_field_usage(lowered, resolver)
    if ROLE_VALUE in escaped:
        return None, [VALUE_ESCAPES]
    if ROLE_KEY in escaped and key_schema is not None:
        key_used.update(key_schema.field_names())

    value_names = value_schema.field_names()
    unknown = value_used - set(value_names)
    if unknown:
        return None, [
            f"mapper reads fields {sorted(unknown)} that the declared "
            f"schema {value_schema.name!r} does not define"
        ]
    used_value = [f for f in value_names if f in value_used]
    unused_value = [f for f in value_names if f not in value_used]

    if key_schema is not None and key_schema.transparent:
        key_names = key_schema.field_names()
        used_key = [f for f in key_names if f in key_used]
        unused_key = [f for f in key_names if f not in key_used]
    else:
        used_key, unused_key = [], []

    if not unused_value:
        return None, [EVERY_FIELD_USED]
    if not used_value:
        return None, [
            "mapper reads no value fields at all; projecting to an empty "
            "record is not supported"
        ]
    return (
        ProjectionDescriptor(
            used_value_fields=used_value,
            unused_value_fields=unused_value,
            used_key_fields=used_key,
            unused_key_fields=unused_key,
        ),
        [],
    )
