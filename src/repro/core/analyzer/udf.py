"""UDF translation: prove a ``filter(fn)`` / ``map(fn)`` callable is a
pure expression over its record and say which one.

The paper's thesis is that "free-form user code obscures the true data
operation" and static analysis of the *unmodified* program recovers it.
The mapper analyzer (:mod:`repro.core.analyzer.analyzer`) does that for
``map(key, value, ctx)`` bodies that ``emit``; this module does it for
the value-returning callables of the fluent API, with the same machinery
-- :func:`~repro.core.analyzer.lowering.lower_udf` to IR + CFG,
:class:`~repro.core.analyzer.dataflow.ReachingDefinitions`, and
:class:`~repro.core.analyzer.conditions.SymbolicResolver` with a member
environment -- and returns the body as :class:`SymExpr` trees over
``value.<field>`` references and constants.  The fluent lowering admits
those trees as they are (its ``expr_from_symbolic`` checks, it does
not convert: ``col()`` sugar builds the same nodes), after which the callable *is* a ``col()`` expression to every layer
downstream.

"Finding a false optimization is catastrophic", so the verdict is either
a proof or a reason:

* the callable must be a lambda, a plain function, an instance whose
  class defines ``__call__``, or a ``functools.partial`` of a function;
* its source must resolve to exactly one definition whose recompiled
  bytecode equals the live code object (a stale file, a decorator's
  wrapper, or two lambdas on one line all fail this);
* the body must be straight-line local assignments and one ``return``:
  no loops, branches, generators, or statements with side effects;
* every value must resolve to record fields, literals, and values fixed
  for the submission -- instance members no method assigns, closure
  cells, defaults, ``partial`` arguments -- through knowledge-base-pure
  operations; global reads and unknown calls stay opaque;
* inlining the locals into the returned expression must evaluate the
  same operations in the same order under the same conditions, so a row
  on which the original raises still raises the same way;
* a ``map`` must return ``key, <schema>.make(e1, ..., en)`` with the key
  passed through.

Whether the resulting trees stay inside the admitted subset of the
algebra (the operators stage mappers and kernels render), read only
fields the input schema has, and build the *declared* output schema is
the lowering's half of the check (it knows the schemas).
"""

from __future__ import annotations

import ast
import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.analyzer import ir
from repro.core.analyzer.analyzer import (
    _assigned_self_attrs,
    _instance_members,
    _source_ast,
)
from repro.core.analyzer.conditions import (
    ROLE_KEY,
    MemberEnv,
    SBool,
    SCall,
    SConst,
    SParam,
    SParamField,
    STuple,
    SymbolicResolver,
    SymExpr,
)
from repro.core.analyzer.dataflow import ReachingDefinitions
from repro.core.analyzer.lowering import LoweredFunction, ParamRoles, lower_udf
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
from repro.core.analyzer.sideeffects import find_side_effects
from repro.exceptions import UnsupportedConstructError

#: ``filter(fn)`` predicates take the value record, ``map(fn)``
#: transforms the key and the value record.
FILTER_ARITY = 1
MAP_ARITY = 2


@dataclass
class UdfAnalysis:
    """The verdict on one callable: symbolic form, or why not."""

    #: filter verdict: the predicate over ``value.<field>`` and constants
    predicate: Optional[SymExpr] = None
    #: map verdict: the ``make()`` arguments, in field order
    fields: Optional[Tuple[SymExpr, ...]] = None
    #: map verdict: the ``make()`` receiver when the callable captured it
    #: (closure cell, member, bound parameter) ...
    receiver: Any = None
    #: ... or the global name it is read from.  Globals are not part of a
    #: callable's fingerprint, so a memoized verdict re-reads this one
    #: from the concrete callable (see :meth:`make_receiver`).
    receiver_global: Optional[str] = None
    #: why translation declined (``None`` = proven)
    reason: Optional[str] = None

    def make_receiver(self, fn: Callable) -> Any:
        """The object ``fn``'s ``make()`` call is bound to, right now."""
        if self.receiver_global is None:
            return self.receiver
        return _unwrap(fn)[0].__globals__.get(self.receiver_global)


class _Decline(Exception):
    """Internal: the callable is outside the provable subset."""


# -- the callable: function, captured values, parameter roles -----------------


def _unwrap(fn: Any) -> Tuple[Any, Any, Tuple[Any, ...], Dict[str, Any]]:
    """``(function, instance or None, partial args, partial keywords)``."""
    args: Tuple[Any, ...] = ()
    keywords: Dict[str, Any] = {}
    if isinstance(fn, functools.partial):
        args, keywords, fn = fn.args, fn.keywords, fn.func
        if not inspect.isfunction(fn):
            raise _Decline("functools.partial of something other than a "
                           "plain function")
    if inspect.isfunction(fn):
        return fn, None, args, keywords
    if inspect.ismethod(fn):
        raise _Decline("bound method (its instance state is not captured "
                       "by value)")
    if inspect.isclass(fn) or inspect.isbuiltin(fn):
        raise _Decline("builtin or class callable: no Python body to read")
    cls = type(fn)
    call = inspect.getattr_static(cls, "__call__", None)
    if not inspect.isfunction(call):
        raise _Decline(f"{cls.__qualname__}.__call__ is not a plain method")
    if cls.__getattribute__ is not object.__getattribute__:
        raise _Decline(f"{cls.__qualname__} overrides __getattribute__")
    return call, fn, args, keywords


def _bind_parameters(
    function: Any, instance: Any, args: Tuple[Any, ...],
    keywords: Dict[str, Any], arity: int,
) -> Tuple[ParamRoles, Dict[str, Any]]:
    """Parameter roles plus every name whose value the call fixes."""
    code = function.__code__
    if code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                        | inspect.CO_ASYNC_GENERATOR):
        raise _Decline("generator-style or async UDF")
    if (code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
            or code.co_kwonlyargcount):
        raise _Decline("*args, **kwargs or keyword-only parameters")
    declared = list(code.co_varnames[:code.co_argcount])
    defaults = function.__defaults__ or ()
    default_of = dict(zip(declared[len(declared) - len(defaults):], defaults))
    params = list(declared)
    self_name = None
    if instance is not None:
        if not params:
            raise _Decline("__call__ takes no self parameter")
        self_name = params.pop(0)
    if len(args) > len(params):
        raise _Decline("partial binds more arguments than the function "
                       "takes")
    captured = dict(zip(params, args))
    params = params[len(args):]
    if len(params) < arity:
        raise _Decline(f"takes {len(params)} positional argument(s), "
                       f"the stage calls it with {arity}")
    data, extra = params[:arity], params[arity:]
    for name in keywords:
        if name not in extra:
            raise _Decline(f"partial keyword {name!r} does not bind a "
                           "trailing parameter")
    for name in extra:
        if name in keywords:
            captured[name] = keywords[name]
        elif name in default_of:
            captured[name] = default_of[name]
        else:
            raise _Decline(f"parameter {name!r} is unbound")
    for name, cell in zip(code.co_freevars, function.__closure__ or ()):
        try:
            captured[name] = cell.cell_contents
        except ValueError:
            raise _Decline(f"closure cell {name!r} is unset") from None
    roles = ParamRoles(
        self_name, data[0] if arity == MAP_ARITY else None, data[-1], None
    )
    return roles, captured


def scanned_methods(cls: type) -> List[Tuple[str, Any]]:
    """``(name, function)`` of every method definition in ``cls``'s MRO
    that may assign a member after construction -- what the immutability
    proof reads, hence what a verdict's cache key must cover."""
    return [
        (name, getattr(value, "__func__", value))
        for klass in cls.__mro__[:-1]
        for name, value in vars(klass).items()
        if (inspect.isfunction(value) or isinstance(value, classmethod))
        and name not in ("__init__", "__new__")
    ]


def _member_env(instance: Any) -> MemberEnv:
    """Members as the body will read them, and those any method assigns."""
    if instance is None:
        return MemberEnv()
    cls = type(instance)
    mutated: Set[str] = set()
    try:
        for _name, method in scanned_methods(cls):
            mutated |= _assigned_self_attrs(_source_ast(method))
    except (OSError, TypeError, SyntaxError, UnsupportedConstructError):
        raise _Decline(
            f"cannot read every method of {cls.__qualname__} to prove its "
            "members are never reassigned"
        ) from None
    # getattr_static: what ``self.x`` yields with no descriptor in the
    # way -- a property shadowing an instance entry stays a property
    # object here, which no constant can stand for.
    values = {name: inspect.getattr_static(instance, name)
              for name in _instance_members(instance)}
    return MemberEnv(values=values, mutated=mutated)


# -- source resolution ---------------------------------------------------------


def _const_keys(code: Any) -> List[Any]:
    return [
        _code_key(c) if inspect.iscode(c) else (type(c).__name__, repr(c))
        for c in code.co_consts
    ]


def _code_key(code: Any) -> Tuple[Any, ...]:
    """What two compilations of one definition agree on (no positions)."""
    return (
        code.co_code, code.co_names, code.co_varnames, code.co_freevars,
        code.co_cellvars, code.co_argcount, code.co_kwonlyargcount,
        tuple(_const_keys(code)),
    )


def _source_node(function: Any) -> Union[ast.FunctionDef, ast.Lambda]:
    """The one definition ``function`` was compiled from, verified.

    The whole source file is recompiled and must contain, at the
    definition's line, a code object equal to the live one: that is what
    rules out a file edited since import and a decorator's wrapper (whose
    code object is the wrapper's, not the definition's).  Compiling the
    file rather than the definition alone keeps every context the
    compiler looks at -- enclosing scopes for closures, module-level
    imports for attribute calls -- as it was.
    """
    code = function.__code__
    name, line = code.co_name, code.co_firstlineno
    try:
        lines, _ = inspect.findsource(function)
        tree = ast.parse("".join(lines))
        compiled = compile(tree, "<udf-verify>", "exec", dont_inherit=True)
    except (OSError, TypeError, SyntaxError, ValueError) as exc:
        raise _Decline(f"source unavailable: {exc}") from None
    kind = ast.Lambda if name == "<lambda>" else ast.FunctionDef
    nodes = [
        node for node in ast.walk(tree)
        if isinstance(node, kind) and node.lineno == line
        and getattr(node, "name", name) == name
    ]
    if len(nodes) > 1:
        raise _Decline(f"{len(nodes)} lambdas on source line {line}: which "
                       "one this is cannot be told")
    wanted = _code_key(code)
    stack, fresh = [compiled], False
    while stack and not fresh:
        candidate = stack.pop()
        fresh = (candidate.co_name == name
                 and candidate.co_firstlineno == line
                 and _code_key(candidate) == wanted)
        stack.extend(c for c in candidate.co_consts if inspect.iscode(c))
    if not nodes or not fresh:
        raise _Decline(
            f"source line {line} does not compile to the live bytecode of "
            f"{name!r} (edited file, or a decorator's wrapper)"
        )
    return nodes[0]


# -- body shape, resolution, evaluation order ----------------------------------


def _straight_line(lowered: LoweredFunction, roles: ParamRoles,
                   captured: Dict[str, Any]
                   ) -> Tuple[List[ir.Assign], ir.Return]:
    """The body's user assignments and its single value return."""
    cfg = lowered.cfg
    if cfg.has_cycle():
        raise _Decline("loop in the UDF body")
    if len(cfg.reachable_from_entry()) > 1:
        raise _Decline("branching control flow in the UDF body")
    fixed = set(captured) | {
        name for name in (roles.self_name, roles.key_name, roles.value_name)
        if name is not None
    }
    reassigned = sorted(fixed & lowered.local_names)
    if reassigned:
        raise _Decline(f"parameter or captured name {reassigned[0]!r} is "
                       "reassigned in the body")
    stmts = cfg.block(cfg.entry).stmts
    if not stmts or not isinstance(stmts[-1], ir.Return) \
            or stmts[-1].expr is None:
        raise _Decline("the body does not end by returning a value")
    for stmt in stmts[:-1]:
        if isinstance(stmt, ir.ExprStmt) and isinstance(stmt.expr, ir.Const):
            continue  # a docstring
        if not isinstance(stmt, ir.Assign):
            effects = find_side_effects(lowered)
            what = (f"{effects[0].category} ({effects[0].detail})"
                    if effects else repr(stmt))
            raise _Decline(f"side effect in the UDF body: {what}")
    # Lowering temporaries (``%tN``) hold operands of a user-level
    # expression, short-circuited ones included; only the user's own
    # assignments are unconditional evaluation points.
    assigns = [s for s in stmts[:-1]
               if isinstance(s, ir.Assign) and not s.target.startswith("%")]
    return assigns, stmts[-1]


def _functional(sym: SymExpr, what: str) -> SymExpr:
    if not sym.is_functional():
        raise _Decline(f"{what} is not functional: "
                       f"{sym.opaque_reasons()[0]}")
    return sym


def _trace(sym: SymExpr, out: List[str]) -> None:
    """Append the operations ``sym`` evaluates, in Python's order.

    Field reads and constants cannot raise and are left out.  A boolean
    operator contributes its left operand's operations and then itself
    as one unit: its right operand runs only when the left one lets it.
    """
    if isinstance(sym, SBool):
        _trace(sym.left, out)
        out.append(repr(sym))
        return
    for child in sym.children():
        _trace(child, out)
    if not isinstance(sym, (SConst, SParam, SParamField)):
        out.append(repr(sym))


def _check_evaluation_order(assigned: List[SymExpr], result: SymExpr) -> None:
    """Inlining must keep what is evaluated, in what order, and when.

    The original evaluates every assignment in turn and then the return
    expression; the inlined form evaluates the return expression alone,
    re-computing each local where it is used.  Re-computing a pure
    operation that already succeeded changes nothing, so both sides
    reduce to their first occurrences -- and those sequences must be
    equal.  ``a = v.x / v.y; return v.y != 0 and a > 1`` fails: the
    division moved behind the guard.
    """
    original: List[str] = []
    for sym in assigned:
        _trace(sym, original)
    inlined: List[str] = []
    _trace(result, inlined)
    original += inlined
    if list(dict.fromkeys(original)) != list(dict.fromkeys(inlined)):
        raise _Decline(
            "inlining local variables would change which operations run, "
            "or their order (an operation that can raise would move or "
            "become conditional)"
        )


class _WithMake(KnowledgeBase):
    """``kb`` plus ``<object>.make(...)`` record construction.

    ``Schema.make`` is deterministic, but the analyzer cannot know a
    receiver *is* a schema; what makes this knowledge safe is the final
    shape check -- the call must be the returned value itself, on a
    fixed receiver the lowering then compares with the declared schema.
    Anywhere else a ``make`` call has no column-expression form and
    declines there.
    """

    def __init__(self, kb: KnowledgeBase):
        self._kb = kb

    def is_pure_method(self, name: str) -> bool:
        return name == "make" or self._kb.is_pure_method(name)

    def is_pure_function(self, name: str) -> bool:
        return (name.count(".") == 1 and name.endswith(".make")) \
            or self._kb.is_pure_function(name)

    def function_impl(self, name: str) -> Any:
        return self._kb.function_impl(name)


def _map_verdict(function: Any, result: SymExpr, captured: Dict[str, Any],
                 analysis: UdfAnalysis) -> None:
    shape = "map() must return `key, <schema>.make(...)`"
    if not isinstance(result, STuple) or len(result.items) != 2:
        raise _Decline(shape)
    key, record = result.items
    if not isinstance(key, SParam) or key.role != ROLE_KEY:
        raise _Decline(f"{shape}: the key is not passed through")
    if not isinstance(record, SCall) or \
            record.name.rpartition(".")[2] != "make":
        raise _Decline(f"{shape}: the value is not a make() call")
    if record.receiver is not None:
        if not isinstance(record.receiver, SConst):
            raise _Decline(f"{shape}: make() is not called on a fixed "
                           "object")
        analysis.receiver = record.receiver.value
    else:
        name = record.name.rpartition(".")[0]
        if name in captured:
            analysis.receiver = captured[name]
        elif name in function.__globals__:
            analysis.receiver_global = name
        else:
            raise _Decline(f"{shape}: {name!r} is not defined")
    analysis.fields = record.args


def analyze_udf(fn: Callable, arity: int,
                kb: KnowledgeBase = DEFAULT_KB) -> UdfAnalysis:
    """Prove ``fn`` a pure expression over its record, or say why not.

    ``arity`` is :data:`FILTER_ARITY` for a ``filter`` predicate
    ``fn(value)`` or :data:`MAP_ARITY` for a ``map`` transform
    ``fn(key, value)``.  Never raises: anything outside the provable
    subset -- including a failure of the analysis itself -- is a verdict
    with a ``reason``, and the callable runs as written.
    """
    analysis = UdfAnalysis()
    try:
        function, instance, args, keywords = _unwrap(fn)
        roles, captured = _bind_parameters(
            function, instance, args, keywords, arity
        )
        node = _source_node(function)
        try:
            lowered = lower_udf(node, roles)
        except UnsupportedConstructError as exc:
            raise _Decline(f"unsupported construct: {exc}") from None
        assigns, ret = _straight_line(lowered, roles, captured)
        resolver = SymbolicResolver(
            lowered, ReachingDefinitions(lowered.cfg),
            _WithMake(kb) if arity == MAP_ARITY else kb,
            _member_env(instance), captured,
        )
        assigned = [
            _functional(resolver.resolve_at_stmt(stmt, stmt.expr),
                        f"local {stmt.target!r}")
            for stmt in assigns
        ]
        result = _functional(resolver.resolve_at_stmt(ret, ret.expr),
                             "the returned value")
        _check_evaluation_order(assigned, result)
        if arity == MAP_ARITY:
            _map_verdict(function, result, captured, analysis)
        else:
            analysis.predicate = result
    except _Decline as exc:
        analysis.reason = str(exc)
    except Exception as exc:  # noqa: BLE001 -- the analyzer's safety floor
        analysis.reason = f"analysis failed: {exc!r}"
    return analysis
