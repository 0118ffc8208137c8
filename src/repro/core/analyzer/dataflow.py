"""Dataflow analysis: reaching definitions and use-def DAGs.

Implements the paper's Section 3.1 machinery: "the definition of a variable
at statement d is said to reach a use of that variable at statement u, as
long as u is reachable from d in the CFG, and there is no intervening
definition."  Reaching definitions are computed with the standard iterative
worklist algorithm over basic blocks; use-def chains are then expanded
recursively into the use-def *DAG* of ``getUseDef`` (Section 3.2):
"for each def node, analyzer treats the def as a new use and recursively
obtains its use-def chain, bottoming out when the uses have no more
dependent def statements inside the map()."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.analyzer import ir
from repro.core.analyzer.cfg import CFG


def def_name(stmt: ir.Stmt) -> Optional[str]:
    """Name defined by a statement, including member pseudo-variables.

    ``self.count = ...`` defines the pseudo-variable ``"self.count"`` so the
    analyzer can trace member dataflow *within* one invocation (the cross-
    invocation initial value is handled separately by the member
    environment; see :mod:`repro.core.analyzer.conditions`).
    """
    if isinstance(stmt, ir.Assign):
        return stmt.target
    if isinstance(stmt, ir.AttrAssign) and isinstance(stmt.obj, ir.VarRef):
        return f"{stmt.obj.name}.{stmt.attr}"
    return None


class ReachingDefinitions:
    """Reaching-definition facts for every statement of a CFG."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        # Collect definitions: var name -> set of defining stmt ids.
        self._stmt_by_id: Dict[int, ir.Stmt] = {}
        defs_of_var: Dict[str, Set[int]] = {}
        for block in cfg.blocks.values():
            for stmt in block.stmts:
                self._stmt_by_id[stmt.stmt_id] = stmt
                name = def_name(stmt)
                if name is not None:
                    defs_of_var.setdefault(name, set()).add(stmt.stmt_id)
        self._defs_of_var = defs_of_var

        # GEN/KILL per block.
        gen: Dict[int, Set[int]] = {}
        kill: Dict[int, Set[int]] = {}
        for block_id, block in cfg.blocks.items():
            g: Dict[str, int] = {}
            k: Set[int] = set()
            for stmt in block.stmts:
                name = def_name(stmt)
                if name is not None:
                    k |= defs_of_var[name]
                    g[name] = stmt.stmt_id
            gen[block_id] = set(g.values())
            kill[block_id] = k - set(g.values())

        # Iterative worklist to fixpoint.
        preds = cfg.predecessors()
        self._in: Dict[int, Set[int]] = {b: set() for b in cfg.blocks}
        out: Dict[int, Set[int]] = {b: set(gen[b]) for b in cfg.blocks}
        worklist = list(cfg.blocks)
        while worklist:
            block_id = worklist.pop()
            new_in: Set[int] = set()
            for pred in preds[block_id]:
                new_in |= out[pred]
            self._in[block_id] = new_in
            new_out = gen[block_id] | (new_in - kill[block_id])
            if new_out != out[block_id]:
                out[block_id] = new_out
                for succ in cfg.blocks[block_id].successors():
                    worklist.append(succ)
        self._out = out

    def statement(self, stmt_id: int) -> ir.Stmt:
        return self._stmt_by_id[stmt_id]

    def defs_reaching(self, stmt: ir.Stmt) -> Dict[str, List[ir.Assign]]:
        """Definitions of each variable that reach the *start* of ``stmt``.

        Walks the statement's block from its IN set, applying each earlier
        statement's gen/kill, so intra-block ordering is respected.
        """
        block_id = self.cfg.statement_block(stmt)
        if block_id is None:
            raise KeyError(f"statement {stmt!r} not in CFG")
        live: Dict[str, Set[int]] = {}
        for def_id in self._in[block_id]:
            def_stmt = self._stmt_by_id[def_id]
            name = def_name(def_stmt)
            assert name is not None
            live.setdefault(name, set()).add(def_id)
        for earlier in self.cfg.blocks[block_id].stmts:
            if earlier is stmt:
                break
            name = def_name(earlier)
            if name is not None:
                live[name] = {earlier.stmt_id}
        return {
            name: [self._stmt_by_id[i] for i in sorted(ids)]  # type: ignore[misc]
            for name, ids in live.items()
        }

    def defs_reaching_block_end(self, block_id: int) -> Dict[str, List[ir.Stmt]]:
        """Definitions live at the end of a block (for terminator conditions)."""
        live: Dict[str, Set[int]] = {}
        for def_id in self._in[block_id]:
            def_stmt = self._stmt_by_id[def_id]
            name = def_name(def_stmt)
            assert name is not None
            live.setdefault(name, set()).add(def_id)
        for stmt in self.cfg.blocks[block_id].stmts:
            name = def_name(stmt)
            if name is not None:
                live[name] = {stmt.stmt_id}
        return {
            name: [self._stmt_by_id[i] for i in sorted(ids)]
            for name, ids in live.items()
        }

    def reaching_def_for(self, stmt: ir.Stmt, var: str) -> List[ir.Stmt]:
        """All definitions of ``var`` reaching ``stmt`` (empty for params)."""
        return self.defs_reaching(stmt).get(var, [])


class UseDefNode:
    """A node of the use-def DAG: either a statement or a terminal source."""

    KIND_STMT = "stmt"
    KIND_PARAM = "param"
    KIND_CONST = "const"
    KIND_MEMBER = "member"
    KIND_CONTEXT = "context"
    KIND_GLOBAL = "global"
    KIND_LOOP = "loop-element"

    def __init__(self, kind: str, label: str, stmt: Optional[ir.Stmt] = None):
        self.kind = kind
        self.label = label
        self.stmt = stmt
        self.deps: List["UseDefNode"] = []

    def __repr__(self) -> str:
        return f"UseDefNode({self.kind}: {self.label})"


class UseDefDAG:
    """The recursive use-def DAG of one statement (``getUseDef`` in Fig. 3)."""

    def __init__(self, root: UseDefNode):
        self.root = root

    def nodes(self) -> List[UseDefNode]:
        seen: List[UseDefNode] = []
        stack = [self.root]
        visited: Set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            seen.append(node)
            stack.extend(node.deps)
        return seen

    def terminal_kinds(self) -> Set[str]:
        return {n.kind for n in self.nodes() if not n.deps and n.kind != "stmt"}

    def to_dot(self) -> str:
        """Graphviz rendering -- regenerates the paper's Figure 5."""
        lines = ["digraph usedef {", '  node [fontname="monospace"];']
        ids: Dict[int, str] = {}
        for i, node in enumerate(self.nodes()):
            ids[id(node)] = f"n{i}"
            shape = "box" if node.kind == "stmt" else "ellipse"
            label = node.label.replace('"', "'")
            lines.append(f'  n{i} [shape={shape}, label="{label}"];')
        for node in self.nodes():
            for dep in node.deps:
                lines.append(f"  {ids[id(node)]} -> {ids[id(dep)]};")
        lines.append("}")
        return "\n".join(lines)


def build_use_def_dag(
    stmt: ir.Stmt,
    exprs: List[ir.Expr],
    rd: ReachingDefinitions,
    roles,
) -> UseDefDAG:
    """Expand ``exprs`` (parts of ``stmt``) into the full use-def DAG.

    ``roles`` is the :class:`~repro.core.analyzer.lowering.ParamRoles` of
    the mapper; it classifies terminal uses into parameters, member reads,
    context reads, or globals.
    """
    root = UseDefNode(UseDefNode.KIND_STMT, repr(stmt), stmt)
    cache: Dict[Tuple[int, str], UseDefNode] = {}

    def expand_var(at: ir.Stmt, name: str) -> UseDefNode:
        key = (at.stmt_id, name)
        if key in cache:
            return cache[key]
        if name == roles.key_name or name == roles.value_name:
            node = UseDefNode(UseDefNode.KIND_PARAM, name)
        elif roles.self_name is not None and name == roles.self_name:
            node = UseDefNode(UseDefNode.KIND_MEMBER, name)
        elif name == roles.ctx_name:
            node = UseDefNode(UseDefNode.KIND_CONTEXT, name)
        else:
            defs = rd.reaching_def_for(at, name)
            if not defs:
                node = UseDefNode(UseDefNode.KIND_GLOBAL, name)
            else:
                node = UseDefNode(UseDefNode.KIND_STMT, f"defs of {name}")
                cache[key] = node
                for def_stmt in defs:
                    child = UseDefNode(
                        UseDefNode.KIND_STMT, repr(def_stmt), def_stmt
                    )
                    node.deps.append(child)
                    expand_expr(def_stmt, def_stmt.expr, child)
                return node
        cache[key] = node
        return node

    def expand_expr(at: ir.Stmt, expr: ir.Expr, parent: UseDefNode) -> None:
        if isinstance(expr, ir.Const):
            parent.deps.append(
                UseDefNode(UseDefNode.KIND_CONST, repr(expr.value))
            )
            return
        if isinstance(expr, ir.VarRef):
            parent.deps.append(expand_var(at, expr.name))
            return
        if isinstance(expr, ir.IterElement):
            node = UseDefNode(UseDefNode.KIND_LOOP, repr(expr))
            parent.deps.append(node)
            for child in expr.children():
                expand_expr(at, child, node)
            return
        for child in expr.children():
            expand_expr(at, child, parent)

    for expr in exprs:
        expand_expr(stmt, expr, root)
    return UseDefDAG(root)
