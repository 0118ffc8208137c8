"""Symbolic conditions, the functional test, and selection formulas.

This module turns IR expressions into *symbolic expressions* over the
mapper's inputs by chasing use-def chains back to their sources (the
``getUseDef`` expansion of the paper's Fig. 3), classifies every terminal
source, and provides:

* ``isFunc`` -- a resolved expression is *functional* iff it depends only
  on the map parameters and constants and uses only knowledge-base-pure
  operations (paper Section 3.2);
* evaluation -- functional expressions can be executed against concrete
  records, which is how the optimizer builds residual predicates and how
  the index-generation program decides what to index;
* :class:`SelectionFormula` -- the disjunctive-normal-form output of
  ``findSelect``: one conjunct per CFG path to an emit, each a list of
  (possibly negated) symbolic conditions.

Non-resolvable or non-functional dataflow never disappears silently: it
becomes an :class:`SOpaque` leaf carrying the *reason* (member read,
context read, unknown call, loop-carried value, multiple reaching
definitions), and any formula containing one is rejected.  The reasons are
surfaced in analysis reports -- they are the "why was this missed" column
of the Table 1 reproduction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.analyzer import ir
from repro.core.analyzer.dataflow import ReachingDefinitions
from repro.core.analyzer.lowering import LoweredFunction
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
# The node classes live in the leaf module every layer shares; they are
# re-exported here, where the analyzer builds them.
from repro.symbolic import (
    _CMP_IMPLS,
    _CMP_NEGATIONS,
    CMP_MIRROR,  # noqa: F401
    ROLE_KEY,
    ROLE_VALUE,
    SArith,
    SAttr,
    SBool,
    SCall,
    SCompare,
    SConst,
    SNot,
    SOpaque,
    SParam,
    SParamField,
    SSubscript,
    STuple,
    SymExpr,
)


# ---------------------------------------------------------------------------
# Member environment
# ---------------------------------------------------------------------------

class MemberEnv:
    """What the analyzer knows about ``self.X`` reads.

    ``values`` holds attribute values captured from the mapper *instance*
    at submission time -- the paper's "compiled MapReduce code plus user's
    parameters" (Fig. 1): configuration like thresholds is fixed per
    submission and may be folded in as a constant.  ``mutated`` holds
    attribute names assigned anywhere in the mapper's per-record methods;
    reading one of those at invocation entry is non-functional because the
    value depends on how many records were processed before (Fig. 2).
    """

    def __init__(self, values: Optional[Dict[str, Any]] = None,
                 mutated: Optional[Set[str]] = None):
        self.values = dict(values or {})
        self.mutated = set(mutated or ())

    def initial_read(self, attr: str) -> SymExpr:
        if attr in self.mutated:
            return SOpaque(
                f"member {attr!r} is mutated across invocations (Fig. 2)"
            )
        if attr in self.values:
            return SConst(self.values[attr])
        return SOpaque(f"member {attr!r} has unknown value")


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

#: Resolution point: either a statement or the end of a block
ResolutionPoint = Union[ir.Stmt, Tuple[str, int]]


class SymbolicResolver:
    """Resolves IR expressions to symbolic form via use-def chasing."""

    def __init__(self, lowered: LoweredFunction, rd: ReachingDefinitions,
                 kb: KnowledgeBase = DEFAULT_KB,
                 members: Optional[MemberEnv] = None,
                 captured: Optional[Dict[str, Any]] = None):
        self.lowered = lowered
        self.rd = rd
        self.kb = kb
        self.members = members or MemberEnv()
        #: non-local names whose value is fixed for the submission --
        #: closure cells, defaulted and ``functools.partial``-bound
        #: parameters of a UDF; read like instance members: as constants
        self.captured = captured or {}
        self.roles = lowered.roles

    # -- def lookup ----------------------------------------------------------

    def _lookup(self, at: ResolutionPoint, name: str) -> List[ir.Stmt]:
        if isinstance(at, tuple):
            return self.rd.defs_reaching_block_end(at[1]).get(name, [])
        return self.rd.reaching_def_for(at, name)

    @staticmethod
    def _point_key(at: ResolutionPoint) -> Tuple:
        if isinstance(at, tuple):
            return at
        return ("stmt", at.stmt_id)

    # -- public entry points ---------------------------------------------------

    def resolve_at_stmt(self, stmt: ir.Stmt, expr: ir.Expr) -> SymExpr:
        return self._resolve(expr, stmt, frozenset())

    def resolve_at_block_end(self, block_id: int, expr: ir.Expr) -> SymExpr:
        return self._resolve(expr, ("end", block_id), frozenset())

    # -- core ----------------------------------------------------------------

    def _resolve(self, expr: ir.Expr, at: ResolutionPoint,
                 in_progress: frozenset) -> SymExpr:
        roles = self.roles
        if isinstance(expr, ir.Const):
            return SConst(expr.value)

        if isinstance(expr, ir.VarRef):
            name = expr.name
            if name == roles.key_name:
                return SParam(ROLE_KEY)
            if name == roles.value_name:
                return SParam(ROLE_VALUE)
            if roles.self_name is not None and name == roles.self_name:
                return _SSelf()
            if name == roles.ctx_name:
                return SOpaque("context parameter read")
            return self._resolve_var(name, at, in_progress)

        if isinstance(expr, ir.FieldLoad):
            obj = self._resolve(expr.obj, at, in_progress)
            if isinstance(obj, _SSelf):
                return self._resolve_member(expr.attr, at, in_progress)
            if isinstance(obj, SParam):
                return SParamField(obj.role, (expr.attr,))
            if isinstance(obj, SParamField):
                return SParamField(obj.role, obj.path + (expr.attr,))
            if isinstance(obj, SOpaque):
                return SOpaque(
                    f"attribute {expr.attr!r} of {obj.reason}",
                    field_deps=obj.field_deps,
                    whole_params=obj.whole_params,
                )
            return SAttr(obj, expr.attr)

        if isinstance(expr, ir.MethodCall):
            recv = self._resolve(expr.obj, at, in_progress)
            args = [self._resolve(a, at, in_progress) for a in expr.args]
            if isinstance(recv, _SSelf):
                return self._opaque_from(
                    f"call to own method {expr.method!r} (may hide member "
                    "dependence)", args
                )
            if expr.method == "emit":
                return self._opaque_from("emit used as expression", args)
            if not self.kb.is_pure_method(expr.method):
                return self._opaque_from(
                    f"no built-in knowledge of method {expr.method!r}",
                    [recv, *args],
                )
            return SCall(expr.method, recv, args)

        if isinstance(expr, ir.FuncCall):
            args = [self._resolve(a, at, in_progress) for a in expr.args]
            name = expr.func
            if name.startswith("__global_attr__:"):
                return self._opaque_from(
                    f"global attribute {name.split(':', 1)[1]!r}", args
                )
            if name == "__has_next__":
                return self._opaque_from("loop iteration state", args)
            if not self.kb.is_pure_function(name):
                return self._opaque_from(
                    f"no built-in knowledge of function {name!r}", args
                )
            return SCall(name, None, args, impl=self.kb.function_impl(name))

        if isinstance(expr, ir.BinOp):
            left = self._resolve(expr.left, at, in_progress)
            right = self._resolve(expr.right, at, in_progress)
            if expr.op in ("and", "or"):
                return SBool(expr.op, left, right)
            if expr.op in _CMP_IMPLS:
                return SCompare(expr.op, left, right)
            return SArith(expr.op, left, right)

        if isinstance(expr, ir.UnaryOp):
            operand = self._resolve(expr.operand, at, in_progress)
            if expr.op == "not":
                return SNot(operand)
            return SArith(expr.op, operand, None)

        if isinstance(expr, ir.Subscript):
            return SSubscript(
                self._resolve(expr.obj, at, in_progress),
                self._resolve(expr.index, at, in_progress),
            )

        if isinstance(expr, ir.TupleExpr):
            return STuple(
                [self._resolve(i, at, in_progress) for i in expr.items]
            )

        if isinstance(expr, ir.IterElement):
            inner = self._resolve(expr.iterable, at, in_progress)
            return self._opaque_from("loop-carried element", [inner])

        return SOpaque(f"unhandled IR expression {type(expr).__name__}")

    def _resolve_var(self, name: str, at: ResolutionPoint,
                     in_progress: frozenset) -> SymExpr:
        key = (self._point_key(at), name)
        if key in in_progress:
            return SOpaque(f"cyclic definition of {name!r}")
        defs = self._lookup(at, name)
        if not defs:
            # A name the body assigns somewhere is a local: with no
            # reaching definition it is read before assignment, never
            # the captured value of the same name.
            if (name in self.captured
                    and name not in self.lowered.local_names):
                return SConst(self.captured[name])
            return SOpaque(f"undefined or global name {name!r}")
        if len(defs) > 1:
            deps: List[SymExpr] = [
                self._resolve_def(d, in_progress | {key}) for d in defs
            ]
            return self._opaque_from(
                f"multiple reaching definitions of {name!r}", deps
            )
        return self._resolve_def(defs[0], in_progress | {key})

    def _resolve_member(self, attr: str, at: ResolutionPoint,
                        in_progress: frozenset) -> SymExpr:
        """Member read: intra-invocation defs first, then the instance env."""
        self_name = self.roles.self_name
        pseudo = f"{self_name}.{attr}"
        key = (self._point_key(at), pseudo)
        if key in in_progress:
            return SOpaque(f"cyclic member definition of {attr!r}")
        defs = self._lookup(at, pseudo)
        if not defs:
            return self.members.initial_read(attr)
        if len(defs) > 1:
            deps = [self._resolve_def(d, in_progress | {key}) for d in defs]
            return self._opaque_from(
                f"multiple reaching definitions of member {attr!r}", deps
            )
        return self._resolve_def(defs[0], in_progress | {key})

    def _resolve_def(self, def_stmt: ir.Stmt, in_progress: frozenset) -> SymExpr:
        expr = def_stmt.expr  # Assign and AttrAssign both carry .expr
        return self._resolve(expr, def_stmt, in_progress)

    @staticmethod
    def _opaque_from(reason: str, parts: Sequence[SymExpr]) -> SOpaque:
        """Opaque node absorbing field/param dependencies of its parts."""
        field_deps: List[Tuple[str, str]] = []
        whole: Set[str] = set()
        for part in parts:
            field_deps.extend(part.field_refs())
            whole |= part.whole_param_roles()
        return SOpaque(reason, field_deps=field_deps, whole_params=whole)


class _SSelf(SOpaque):
    """Internal sentinel: a reference to the mapper instance itself.

    Subclasses :class:`SOpaque` so that if a bare ``self`` escapes into a
    surviving expression tree (e.g. as a pure-call argument), the tree is
    correctly judged non-functional.  Resolution normally consumes these
    sentinels before they surface (member reads, own-method calls).
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("bare self reference")

    def __repr__(self) -> str:
        return "<self>"


# ---------------------------------------------------------------------------
# Selection formulas (DNF)
# ---------------------------------------------------------------------------

class Conjunct:
    """One disjunct of the DNF: a conjunction of symbolic conditions."""

    def __init__(self, terms: Sequence[SymExpr]):
        self.terms = list(terms)

    def is_functional(self) -> bool:
        return all(t.is_functional() for t in self.terms)

    def evaluate(self, key: Any, value: Any) -> bool:
        return all(bool(t.evaluate(key, value)) for t in self.terms)

    def is_trivially_true(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "TRUE"
        return " AND ".join(repr(t) for t in self.terms)


class SelectionFormula:
    """DNF over path conditions: true iff the mapper may emit.

    "The selection algorithm constructs a conditional statement in
    disjunctive normal form, in which there is a disjunct for each unique
    path to an emit() statement" (paper Section 3.2).
    """

    def __init__(self, disjuncts: Sequence[Conjunct]):
        self.disjuncts = list(disjuncts)

    def is_functional(self) -> bool:
        return all(d.is_functional() for d in self.disjuncts)

    def is_trivially_true(self) -> bool:
        """True when some path emits unconditionally -- no selection to use."""
        return any(d.is_trivially_true() for d in self.disjuncts)

    def evaluate(self, key: Any, value: Any) -> bool:
        return any(d.evaluate(key, value) for d in self.disjuncts)

    def field_refs(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for disjunct in self.disjuncts:
            for term in disjunct.terms:
                out.extend(term.field_refs())
        return out

    def __repr__(self) -> str:
        if not self.disjuncts:
            return "FALSE"
        return " OR ".join(f"({d!r})" for d in self.disjuncts)


def negate(term: SymExpr) -> SymExpr:
    """Negate a condition, pushing through comparisons and De Morgan."""
    if isinstance(term, SCompare) and term.op in _CMP_NEGATIONS:
        return term.negated()
    if isinstance(term, SNot):
        return term.operand
    if isinstance(term, SBool):
        if term.op == "and":
            return SBool("or", negate(term.left), negate(term.right))
        return SBool("and", negate(term.left), negate(term.right))
    return SNot(term)


def flatten_conjunction(term: SymExpr) -> List[SymExpr]:
    """Split top-level ANDs into separate conjunct terms.

    ``a and b`` contributes two atoms to a conjunct, which is what lets
    the optimizer extract an interval from range tests like
    ``lo <= x and x <= hi``.  ORs are left intact (they stay one term;
    the residual predicate evaluates them exactly).
    """
    if isinstance(term, SBool) and term.op == "and":
        return flatten_conjunction(term.left) + flatten_conjunction(term.right)
    return [term]


#: Cap on DNF blow-up during normalization; beyond it, remaining boolean
#: structure stays as single atoms (safe: the residual evaluates exactly,
#: the index merely widens).
MAX_DNF_DISJUNCTS = 128


def term_dnf(term: SymExpr) -> List[List[SymExpr]]:
    """Normalize one boolean term into DNF (a list of conjunctions).

    A Python condition like ``(a and b) or c`` reaches the analyzer as a
    single path condition (one ``if``, one CFG edge); normalizing it here
    gives the same disjunct-per-alternative structure the paper gets from
    one-condition-per-path code, so the interval extractor sees atoms.
    """
    if isinstance(term, SBool):
        left = term_dnf(term.left)
        right = term_dnf(term.right)
        if term.op == "or":
            combined = left + right
        else:
            combined = [l + r for l in left for r in right]
        if len(combined) > MAX_DNF_DISJUNCTS:
            return [[term]]
        return combined
    if isinstance(term, SNot):
        inner = term.operand
        if isinstance(inner, (SBool, SNot)) or (
            isinstance(inner, SCompare) and inner.op in _CMP_NEGATIONS
        ):
            return term_dnf(negate(inner))
        return [[term]]
    return [[term]]


def conjunction_dnf(terms: Sequence[SymExpr]) -> List[List[SymExpr]]:
    """DNF of a conjunction of terms (a whole CFG path's conditions)."""
    combined: List[List[SymExpr]] = [[]]
    for term in terms:
        options = term_dnf(term)
        merged = [c + o for c in combined for o in options]
        if len(merged) > MAX_DNF_DISJUNCTS:
            # Too wide: keep the term as one atom in every conjunct.
            merged = [c + [term] for c in combined]
        combined = merged
    return combined
