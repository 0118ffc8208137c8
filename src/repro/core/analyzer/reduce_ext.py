"""Appendix E extension: reduce-side GROUPBY/WHERE analysis.

Paper Appendix E: "the combined map-shuffle-reduce sequence is akin to a
GROUPBY query, with the map's output key as the GROUPBY value.  When
results from the reduce function are filtered with a conditional clause,
the user's program resembles a GROUPBY with a WHERE clause.  If we could
accurately predict which temporary map outputs will be removed by the
WHERE-related filtering clause inside reduce, then we could delete this
temporary data prior to shuffle-reduce without any impact on final program
output.  We have implemented some infrastructure to perform these
optimizations..."

This module is that infrastructure: it analyzes ``reduce()`` with the same
CFG/use-def machinery as ``findSelect`` and extracts a formula over the
*group key alone* that is true whenever the reducer may emit.  Groups whose
key fails the formula can be dropped before the shuffle -- their values
never influence output.

Safety conditions (all conservative):

* every emit in ``reduce()`` sits behind conditions that are functional
  and depend **only on the key parameter** (a condition touching the
  values iterable, members, or the context disqualifies the group filter
  -- e.g. ``if sum(values) > 10`` cannot be decided before the shuffle);
* the formula must not be trivially true (no filtering to exploit);
* the reducer must not emit from ``setup``/``cleanup``.

It also proves which inputs a group must hold a value from before
``reduce()`` can emit (:func:`find_required_inputs`): keys that no pair
of such an input carries name groups that emit nothing, which the
optimizer turns into a semijoin (:mod:`repro.mapreduce.semijoin`); and
it describes a reducer whose whole ``reduce()`` is one
``ctx.emit(key, sum(values))`` (or ``min`` / ``max``:
:func:`describe_reducer`), whose groups the reduce loop then folds a
column at a time without calling it.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.batch.spec import AGGREGATES, RECORD, part_source
from repro.core.analyzer.conditions import (
    ROLE_VALUE,
    Conjunct,
    MemberEnv,
    SelectionFormula,
    SymbolicResolver,
    conjunction_dnf,
    negate,
)
from repro.core.analyzer.dataflow import ReachingDefinitions
from repro.core.analyzer.lowering import lower_function
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
from repro.core.analyzer.udf import verified_definition
from repro.exceptions import UnsupportedConstructError
from repro.mapreduce.api import FunctionReducer, Reducer
from repro.mapreduce.formats import shaped_schema
from repro.storage.serialization import Schema


class GroupKeyFilter:
    """A provably safe pre-shuffle group filter."""

    def __init__(self, formula: SelectionFormula):
        self.formula = formula

    def __call__(self, key) -> bool:
        """Whether a group with this key can possibly produce output."""
        return self.formula.evaluate(key, None)

    def __repr__(self) -> str:
        return f"GroupKeyFilter({self.formula!r})"


def _depends_only_on_key(sym) -> bool:
    roles = {role for role, _ in sym.field_refs()}
    roles |= sym.whole_param_roles()
    return ROLE_VALUE not in roles


def _lifecycle_emit(cls: type) -> Optional[str]:
    """Why ``setup()``/``cleanup()`` may emit, or ``None`` when neither
    is overridden with an emit in its source."""
    for lifecycle in ("setup", "cleanup"):
        method = getattr(cls, lifecycle, None)
        base = getattr(Reducer, lifecycle, None)
        if method is not None and method is not base:
            try:
                source = textwrap.dedent(inspect.getsource(method))
            except (OSError, TypeError):
                return f"{lifecycle}() source unavailable"
            if ".emit(" in source or "emit (" in source:
                return (f"reducer emits from {lifecycle}(); group output "
                        "is not per-key decidable")
    return None


def find_reduce_key_filter(
    reducer: Reducer,
    kb: KnowledgeBase = DEFAULT_KB,
) -> Tuple[Optional[GroupKeyFilter], List[str]]:
    """Analyze a reducer for a key-only WHERE clause.

    Returns ``(filter or None, notes)``; notes explain refusals, matching
    the analyzer's evidence-trail convention.
    """
    notes: List[str] = []
    cls = type(reducer)

    lifecycle = _lifecycle_emit(cls)
    if lifecycle is not None:
        return None, [lifecycle]

    try:
        # a FunctionReducer's wrapped function, not its forwarding
        # `reduce`, carries the WHERE
        fn, is_method, _function = _reduce_function(reducer)
        lowered = lower_function(fn, is_method=is_method)
    except _Declined as exc:
        return None, [str(exc)]
    except UnsupportedConstructError as exc:
        return None, [f"reducer not analyzable: {exc}"]

    emits = lowered.emit_statements()
    if not emits:
        return None, ["reducer never emits"]

    cfg = lowered.cfg
    rd = ReachingDefinitions(cfg)
    members = MemberEnv(
        values={
            k: v
            for klass in reversed(cls.__mro__)
            for k, v in vars(klass).items()
            if not k.startswith("__") and not callable(v)
        },
        mutated=set(),  # conservative default; mutations surface as opaque
    )
    resolver = SymbolicResolver(lowered, rd, kb, members)

    disjuncts: List[Conjunct] = []
    for emit in emits:
        block_id = cfg.statement_block(emit)
        assert block_id is not None
        paths = cfg.paths_to_block(block_id)
        if paths is None:
            # Emits inside the values loop: reached for every group that
            # enters the loop at all -- treat as "may always emit" unless
            # loop entry itself is key-guarded.  Conservative: refuse.
            return None, [
                "emit is reachable through a loop; per-group output is "
                "not statically decidable"
            ]
        for path in paths:
            terms = []
            for branch_block, cond_expr, polarity in path:
                sym = resolver.resolve_at_block_end(branch_block, cond_expr)
                if not sym.is_functional():
                    return None, [
                        "reduce condition is not functional: "
                        + "; ".join(sym.opaque_reasons())
                    ]
                if not _depends_only_on_key(sym):
                    return None, [
                        "reduce condition depends on the group's values, "
                        "which are unavailable before the shuffle"
                    ]
                terms.append(sym if polarity else negate(sym))
            for conjunction in conjunction_dnf(terms):
                disjuncts.append(Conjunct(conjunction))

    seen = set()
    unique = []
    for disjunct in disjuncts:
        fp = repr(disjunct)
        if fp not in seen:
            seen.add(fp)
            unique.append(disjunct)
    formula = SelectionFormula(unique)
    if formula.is_trivially_true():
        return None, ["reducer may emit for any key; no WHERE clause found"]
    return GroupKeyFilter(formula), notes


# -- required inputs: the semijoin proof ---------------------------------------


class _Declined(Exception):
    """Why the required-input proof does not hold."""


def _reduce_function(reducer: Reducer
                     ) -> Tuple[ast.FunctionDef, bool, types.FunctionType]:
    """The parsed body ``reduce()`` calls, whether it is a method, and
    the live function: a plain function on the reducer's class, or the
    one a ``FunctionReducer`` wraps -- not replaced on the instance or
    by a subclass, not decorated, and the definition its file holds now
    (:func:`~repro.core.analyzer.udf.verified_definition`)."""
    cls = type(reducer)
    source_fn = getattr(reducer, "reduce_source_function", None)
    target = source_fn if source_fn is not None else cls.reduce
    if "reduce" in getattr(reducer, "__dict__", {}) or not isinstance(
            target, types.FunctionType) or (
            source_fn is not None and cls.reduce is not FunctionReducer.reduce):
        raise _Declined("reduce() is not a plain function")
    fn = verified_definition(target)
    if isinstance(fn, str):
        raise _Declined(f"reducer {fn}")
    if not isinstance(fn, ast.FunctionDef) or fn.decorator_list:
        # a lambda's source is its enclosing statement
        raise _Declined("reducer not analyzable: source is not a plain "
                        "function definition")
    return fn, source_fn is None, target


def _emitted_schema(ia: Any) -> Union[Schema, str]:
    """The schema of the records input ``ia``'s map() emits as its
    values, as its emit spec proves -- or why there is none."""
    spec = ia.batch_spec
    if spec is None:
        return f"map() has no emit spec ({ia.batch_decline})"
    source = part_source(spec.emit[1])
    if source is None or source[0] != RECORD:
        return "map() emits no record as its value"
    schema = source[1]
    if schema is None and ia.value_schema is not None:
        schema = shaped_schema(ia.value_schema, spec.project_columns)
    if schema is None or not schema.transparent:
        return "map() emits records of an opaque schema"
    return schema


def find_required_inputs(reducer: Reducer, inputs: Sequence[Any]
                         ) -> Union[Tuple[int, ...], str]:
    """Which inputs a group must hold a value from before ``reduce()``
    can emit, or why that is not proved.

    ``inputs`` are the job's :class:`InputAnalysis` entries; input *i*'s
    values are records of :func:`_emitted_schema`.  The proof admits one
    shape, a reduce-side join's::

        def reduce(self, key, values, ctx):
            ranks = []                  # lists that start empty ...
            visits = []
            for v in values:            # ... grow only in the one loop
                if v.schema.name == "Rankings":   # tests: schema names
                    ranks.append(v.pageRank)      # appends: v, its
                else:                             # fields, key,
                    visits.append((v.ip, v.rev))  # constants, tuples
            for rank in ranks:          # every emit sits in loops over
                for ip, rev in visits:  # the lists, and nothing else
                    ctx.emit(ip, (rank, rev))     # follows the loop

    Each input's schema name decides which lists it feeds; a list only
    one input feeds is empty for a group without that input, so an emit
    inside a loop over it requires that input.  For a group missing a
    required input, ``reduce()`` then appends, loops over lists and
    returns: no emit, no exception (every appended field is in its
    side's schema), no side effect.  It declines on an emit in
    ``setup``/``cleanup``, counters, stores to ``self`` or globals, any
    other use of ``values`` or of a list, and any statement outside the
    shape.
    """
    try:
        return _required_inputs(reducer, inputs)
    except _Declined as exc:
        return str(exc)


def _required_inputs(reducer: Reducer, inputs: Sequence[Any]
                     ) -> Tuple[int, ...]:
    lifecycle = _lifecycle_emit(type(reducer))
    if lifecycle is not None:
        raise _Declined(lifecycle)
    fn, is_method, _function = _reduce_function(reducer)
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args]
    self_name = params.pop(0) if is_method and params else None
    if len(params) != 3 or args.vararg or args.kwarg or args.kwonlyargs:
        raise _Declined("reduce() does not take (key, values, ctx)")
    key, values, ctx = params
    _check_effects(fn, self_name, values, ctx)

    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    lists: Dict[str, List[ast.expr]] = {}
    uses: Set[int] = set()  # the Name nodes of lists the shape allows
    while body and _list_init(body[0]) is not None:
        target = _list_init(body[0])
        if target.id in lists or target.id in params:
            raise _Declined(f"list {target.id!r} is assigned twice")
        lists[target.id] = []
        uses.add(id(target))
        body = body[1:]
    loop = body[0] if body else None
    if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Name)
            and loop.iter.id == values and isinstance(loop.target, ast.Name)
            and not loop.orelse):
        raise _Declined("reduce() does not start by collecting its values "
                        "into lists")
    v = loop.target.id
    _check_collect(loop.body, v, key, lists, uses)
    emits = _tail_emits(body[1:], (), ctx, lists, uses)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in lists \
                and id(node) not in uses:
            raise _Declined(f"collected list {node.id!r} is read outside "
                            "a loop over it")
    if not emits:
        raise _Declined("reducer never emits")

    feeders: Dict[str, Set[int]] = {name: set() for name in lists}
    for index, ia in enumerate(inputs):
        label = f"input[{index}]" + (f" {ia.input_tag!r}"
                                     if ia.input_tag is not None else "")
        schema = _emitted_schema(ia)
        if isinstance(schema, str):
            raise _Declined(f"{label}: {schema}")
        for name, expr in _reached(loop.body, v, schema.name):
            for node in ast.walk(expr):
                if isinstance(node, ast.Attribute) \
                        and not schema.has_field(node.attr):
                    raise _Declined(
                        f"{label} appends field {node.attr!r}, which its "
                        f"{schema.name} values lack")
            feeders[name].add(index)
    required = set(range(len(inputs)))
    for enclosing in emits:
        guaranteed: Set[int] = set()
        for name in enclosing:
            if not feeders[name]:  # never fed: the emit never runs
                guaranteed = set(range(len(inputs)))
                break
            if len(feeders[name]) == 1:
                guaranteed |= feeders[name]
        required &= guaranteed
    if not required:
        raise _Declined("reduce() may emit for a group missing any one "
                        "input")
    return tuple(sorted(required))


def _check_effects(fn: ast.FunctionDef, self_name: Optional[str],
                   values: str, ctx: str) -> None:
    """Decline a reduce() with an effect a skipped call would lose, or
    that reads ``values`` other than by one loop over them."""
    emit_bases = {id(node.value) for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and node.attr == "emit"}
    value_reads = 0
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            raise _Declined("reduce() stores to globals")
        if isinstance(node, (ast.Yield, ast.YieldFrom)) or (
                isinstance(node, ast.Return) and node.value is not None):
            raise _Declined("reduce() returns or yields pairs")
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name):
            if node.value.id == self_name and not isinstance(
                    node.ctx, ast.Load):
                raise _Declined(f"reduce() stores to {self_name}."
                                f"{node.attr}")
            if node.value.id == ctx and node.attr != "emit":
                raise _Declined(f"reduce() uses counters (ctx.{node.attr})"
                                if node.attr == "increment" else
                                f"reduce() uses ctx.{node.attr}")
        if isinstance(node, ast.Name):
            if node.id == ctx and id(node) not in emit_bases:
                raise _Declined("reduce() passes its context on")
            if node.id == values:
                value_reads += 1
    if value_reads != 1:
        raise _Declined("reduce() uses its values other than by one loop "
                        "over them")


def _list_init(stmt: ast.stmt) -> Optional[ast.Name]:
    """The target of ``name = []`` (annotated or not), else ``None``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.simple:
        target, value = stmt.target, stmt.value
    else:
        return None
    if isinstance(target, ast.Name) and isinstance(value, ast.List) \
            and not value.elts:
        return target
    return None


def _check_collect(stmts: List[ast.stmt], v: str, key: str,
                   lists: Dict[str, List[ast.expr]], uses: Set[int]
                   ) -> None:
    """The values loop's body: schema-name tests and appends, nothing
    else; records each list's appended expressions."""
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            _test_value(stmt.test, v, "")
            _check_collect(stmt.body, v, key, lists, uses)
            _check_collect(stmt.orelse, v, key, lists, uses)
        elif isinstance(stmt, ast.Pass):
            continue
        elif _append(stmt, lists) is not None:
            target, expr = _append(stmt, lists)
            if not _appendable(expr, v, key):
                raise _Declined("the values loop appends a computed value")
            lists[target.id].append(expr)
            uses.add(id(target))
        else:
            raise _Declined("the values loop does more than test schema "
                            "names and append")


def _append(stmt: ast.stmt, lists: Dict[str, Any]
            ) -> Optional[Tuple[ast.Name, ast.expr]]:
    """``(list name node, appended expression)`` of ``L.append(x)``."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value,
                                                         ast.Call):
        return None
    call = stmt.value
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "append"
            and isinstance(func.value, ast.Name) and func.value.id in lists
            and len(call.args) == 1 and not call.keywords
            and not isinstance(call.args[0], ast.Starred)):
        return func.value, call.args[0]
    return None


def _appendable(expr: ast.expr, v: str, key: str) -> bool:
    """An append that cannot raise: the value, a field of it, the key,
    a constant, or a tuple of those."""
    if isinstance(expr, ast.Tuple):
        return all(_appendable(item, v, key) for item in expr.elts)
    if isinstance(expr, ast.Attribute):
        return isinstance(expr.value, ast.Name) and expr.value.id == v
    return isinstance(expr, ast.Constant) or (
        isinstance(expr, ast.Name) and expr.id in (v, key))


def _test_value(node: ast.expr, v: str, name: str) -> Any:
    """A values-loop test's value for a value of schema ``name``; it may
    read only ``v.schema.name`` and constants (every operand is read, so
    one call checks the whole test)."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Tuple):
        return tuple(_test_value(item, v, name) for item in node.elts)
    if (isinstance(node, ast.Attribute) and node.attr == "name"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "schema"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == v):
        return name
    if isinstance(node, ast.BoolOp):
        # Python's value, not a bool: ``and`` gives the first falsy
        # operand, ``or`` the first truthy one, else the last
        operands = [_test_value(item, v, name) for item in node.values]
        stops = isinstance(node.op, ast.Or)
        return next((operand for operand in operands
                     if bool(operand) is stops), operands[-1])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return not _test_value(node.operand, v, name)
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and type(node.ops[0]) in _SCHEMA_TESTS:
        left = _test_value(node.left, v, name)
        right = _test_value(node.comparators[0], v, name)
        try:
            return _SCHEMA_TESTS[type(node.ops[0])](left, right)
        except TypeError:
            pass
    raise _Declined("a values-loop test reads more than the value's "
                    "schema name")


_SCHEMA_TESTS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.In: lambda a, b: a in b,
    ast.NotIn: lambda a, b: a not in b,
}


def _reached(stmts: List[ast.stmt], v: str, name: str
             ) -> Iterator[Tuple[str, ast.expr]]:
    """The ``(list, appended expression)`` pairs a value of schema
    ``name`` reaches in the checked values loop."""
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            branch = stmt.body if _test_value(stmt.test, v, name) \
                else stmt.orelse
            yield from _reached(branch, v, name)
        elif isinstance(stmt, ast.Expr):
            func = stmt.value.func
            yield func.value.id, stmt.value.args[0]


def _tail_emits(stmts: List[ast.stmt], enclosing: Tuple[str, ...], ctx: str,
                lists: Dict[str, List[ast.expr]], uses: Set[int]
                ) -> List[Tuple[str, ...]]:
    """The lists of the loops around each emit after the values loop,
    which may hold only loops over collected lists and emits."""
    emits: List[Tuple[str, ...]] = []
    for stmt in stmts:
        if isinstance(stmt, ast.For) and isinstance(stmt.iter, ast.Name) \
                and stmt.iter.id in lists and not stmt.orelse:
            name = stmt.iter.id
            if isinstance(stmt.target, ast.Tuple):
                width = len(stmt.target.elts)
                if not all(isinstance(item, ast.Name)
                           for item in stmt.target.elts) or not all(
                        isinstance(expr, ast.Tuple) and len(expr.elts) == width
                        for expr in lists[name]):
                    raise _Declined(f"a loop over {name!r} unpacks what "
                                    "its appends do not")
            elif not isinstance(stmt.target, ast.Name):
                raise _Declined(f"a loop over {name!r} stores into a "
                                "non-name")
            uses.add(id(stmt.iter))
            emits += _tail_emits(stmt.body, enclosing + (name,), ctx, lists,
                                 uses)
        elif (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
              and isinstance(stmt.value.func, ast.Attribute)
              and stmt.value.func.attr == "emit"
              and isinstance(stmt.value.func.value, ast.Name)
              and stmt.value.func.value.id == ctx):
            emits.append(enclosing)
        elif not isinstance(stmt, ast.Pass):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in lists:
                    raise _Declined(f"collected list {node.id!r} is read "
                                    "outside a loop over it")
            raise _Declined("after the values loop, reduce() does more than "
                            "loop over collected lists and emit")
    return emits


# -- described reducers: one emit of an aggregate's merge ----------------------

#: The ops a described reducer folds with: the :data:`AGGREGATES` entries
#: whose per-row partial is the value itself, whose finish is the merge,
#: and whose merge is the builtin of the op's name.
FOLD_OPS = tuple(op for op, agg in AGGREGATES.items()
                 if agg.partial == (None,) and agg.finish == "{0}"
                 and getattr(agg.merge, "__name__", None) == op)


def describe_reducer(reducer: Reducer) -> Tuple[Optional[str], Optional[str]]:
    """``(op, None)`` when the reducer's whole ``reduce()`` is::

        def reduce(self, key, values, ctx):
            ctx.emit(key, sum(values))      # or min / max: FOLD_OPS

    with the name resolving to the builtin ``AGGREGATES[op].merge`` --
    so a group's one output pair is the group's key and that builtin
    over its values, and the reduce loop may compute it a column at a
    time instead of calling ``reduce()`` -- else ``(None, why)``.  It
    declines an overridden ``setup``/``cleanup``, any use of ``self``,
    a loop, an emit of anything but the group's key, a statement beside
    the one emit, and a shadowed builtin.
    """
    try:
        return _fold_op(reducer), None
    except _Declined as exc:
        return None, str(exc)


def _fold_op(reducer: Reducer) -> str:
    for lifecycle in ("setup", "cleanup"):
        method = getattr(reducer, lifecycle, None)
        if getattr(method, "__func__", None) is not getattr(Reducer, lifecycle):
            raise _Declined(f"reducer overrides {lifecycle}()")
    fn, is_method, function = _reduce_function(reducer)
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args]
    self_name = params.pop(0) if is_method and params else None
    if len(params) != 3 or args.vararg or args.kwarg or args.kwonlyargs:
        raise _Declined("reduce() does not take (key, values, ctx)")
    key, values, ctx = params
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == self_name:
            raise _Declined(f"reduce() uses {self_name}.{node.attr}")
        if isinstance(node, ast.Name) and node.id == self_name:
            raise _Declined(f"reduce() uses {self_name}")

    def is_emit(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == ctx)

    loops = [node for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.While,
                                  ast.comprehension))]
    if loops:
        if any(is_emit(node) for loop in loops for node in ast.walk(loop)):
            raise _Declined("reduce() emits inside a loop")
        raise _Declined("reduce() accumulates its values in a loop")
    emits = [node for node in ast.walk(fn) if is_emit(node)]
    if not emits:
        raise _Declined("reducer never emits")
    if len(emits) > 1:
        raise _Declined("reduce() emits more than once")
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    [emit] = emits
    if len(body) != 1 or not isinstance(body[0], ast.Expr) \
            or body[0].value is not emit:
        raise _Declined("reduce() does more than emit one pair")
    if len(emit.args) != 2 or emit.keywords or any(
            isinstance(arg, ast.Starred) for arg in emit.args):
        raise _Declined("reduce() calls ctx.emit other than with (key, "
                        "value)")
    emitted_key, value = emit.args
    if not (isinstance(emitted_key, ast.Name) and emitted_key.id == key):
        raise _Declined(f"reduce() emits the key {ast.unparse(emitted_key)},"
                        " not its group's")
    op = value.func.id if (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and len(value.args) == 1 and not value.keywords
        and isinstance(value.args[0], ast.Name)
        and value.args[0].id == values) else None
    if op not in FOLD_OPS:
        wanted = ", ".join(f"{name}({values})" for name in FOLD_OPS)
        raise _Declined(f"reduce() emits {ast.unparse(value)}, not one of "
                        f"{wanted}")
    # the name must be the builtin when reduce() runs
    if op in params or op == self_name:
        raise _Declined(f"{op} is a parameter of reduce(), not the builtin")
    if op in function.__code__.co_freevars:
        raise _Declined(f"{op} is a closure variable, not the builtin")
    bound = function.__globals__.get(op, function.__builtins__.get(op))
    if bound is not AGGREGATES[op].merge:
        raise _Declined(f"{op} is rebound in {function.__module__}, not the "
                        "builtin")
    return op
