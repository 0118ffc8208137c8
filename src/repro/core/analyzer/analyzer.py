"""The Manimal analyzer facade.

"The analyzer examines a user's submitted MapReduce program and sends the
resulting optimization descriptor to the optimizer" (paper Section 2).
This module is the entry point: it extracts mapper source via
``inspect`` (the Python analogue of reading compiled class files through
ASM), lowers it to the IR, runs the four detectors, and packages
everything into a :class:`JobAnalysis`.

Per the paper, analysis is per-``map()`` and per input: a join-style job
with per-input mappers (Hadoop MultipleInputs) gets one
:class:`InputAnalysis` for each input file, which is how Benchmark 3's
selection on the UserVisits side is found even though the Rankings side
offers nothing.

Safety-first failure handling: *any* inability to model the code (source
unavailable, unsupported construct, exotic signature) degrades to "no
optimizations found", never to a wrong descriptor.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.analyzer.compression import find_delta, find_direct_operation
from repro.core.analyzer.conditions import MemberEnv, SymbolicResolver
from repro.core.analyzer.dataflow import ReachingDefinitions
from repro.core.analyzer.descriptors import (
    DELTA,
    DIRECT,
    PROJECT,
    SELECT,
    InputAnalysis,
    JobAnalysis,
)
from repro.core.analyzer.lowering import LoweredFunction, lower_function
from repro.core.analyzer.projection import (
    EVERY_FIELD_USED,
    VALUE_ESCAPES,
    find_project,
)
from repro.core.analyzer.purity import DEFAULT_KB, KnowledgeBase
from repro.core.analyzer.selection import find_select
from repro.core.analyzer.sideeffects import find_side_effects
from repro.exceptions import UnsupportedConstructError
from repro.mapreduce.api import FunctionMapper, Mapper
from repro.mapreduce.formats import (
    BlockFileInput,
    InputSource,
    PartitionedInput,
)
from repro.mapreduce.job import JobConf
from repro.storage import open_block_file
from repro.storage.blockscan import FULL_READ, ReadShape
from repro.storage.serialization import Schema


def _source_ast(target) -> ast.FunctionDef:
    """Parse the source of a function/method into its FunctionDef node."""
    source = textwrap.dedent(inspect.getsource(target))
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(node, ast.AsyncFunctionDef):
                raise UnsupportedConstructError("async mapper")
            return node
    raise UnsupportedConstructError("no function definition found in source")


def _assigned_self_attrs(fn: ast.FunctionDef) -> Set[str]:
    """Attribute names one method assigns on its first parameter."""
    if not fn.args.args:
        return set()
    self_name = fn.args.args[0].arg
    assigned: Set[str] = set()
    for node in ast.walk(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
            ):
                assigned.add(target.attr)
    return assigned


def _method_mutated_attrs(cls: type, self_name_hint: Optional[str] = None
                          ) -> Set[str]:
    """Attribute names assigned (``self.x = ...``) in per-record methods.

    ``__init__`` assignments are *not* counted: they happen once at
    submission time, so the analyzer may fold those values as constants
    ("compiled MapReduce code plus user's parameters", Fig. 1).  ``setup``
    is counted conservatively -- it runs per task, after submission.
    """
    mutated: Set[str] = set()
    for method_name in ("map", "setup", "cleanup", "reduce"):
        method = getattr(cls, method_name, None)
        if method is None:
            continue
        try:
            fn = _source_ast(method)
        except (OSError, TypeError, UnsupportedConstructError):
            continue
        mutated |= _assigned_self_attrs(fn)
    return mutated


def _instance_members(instance: Any) -> Dict[str, Any]:
    """Class + instance attributes visible as submission-time constants."""
    values: Dict[str, Any] = {}
    for klass in reversed(type(instance).__mro__):
        for name, value in vars(klass).items():
            if name.startswith("__") or callable(value):
                continue
            values[name] = value
    values.update(vars(instance))
    return values


def _overridden(instance: Any, method_name: str) -> bool:
    method = getattr(type(instance), method_name, None)
    base = getattr(Mapper, method_name, None)
    return method is not None and method is not base


def _method_emits(instance: Any, method_name: str) -> bool:
    """Whether a lifecycle method's source contains an emit call."""
    method = getattr(type(instance), method_name, None)
    if method is None:
        return False
    try:
        fn = _source_ast(method)
    except (OSError, TypeError, UnsupportedConstructError):
        return True  # cannot read it -> assume the worst
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            return True
    return False


#: builtins that read a frame's locals by name
_FRAME_READERS = frozenset({"locals", "vars", "eval", "exec"})


def _plain_map(instance: Any, fn: ast.FunctionDef,
               mutated: Set[str]) -> bool:
    """Whether the called ``map`` is the plain function ``fn`` was parsed
    from: defined on the mapper's own class, or the function a
    :class:`FunctionMapper` wraps; not inherited, decorated, or replaced
    on the instance -- now or by a per-task method, whose ``self.``
    stores are ``mutated`` -- and taking its key at the position the
    runtime passes it, with no ``*args`` / ``**kwargs``."""
    if "map" in getattr(instance, "__dict__", {}) or "map" in mutated:
        return False
    if isinstance(instance, FunctionMapper):
        index = 0
        plain = (type(instance).map is FunctionMapper.map
                 and isinstance(instance.map_source_function,
                                types.FunctionType))
    else:
        index = 1
        plain = isinstance(vars(type(instance)).get("map"),
                           types.FunctionType)
    args = fn.args
    return (plain and not fn.decorator_list and not args.vararg
            and not args.kwarg
            and len(args.posonlyargs + args.args) > index)


def _map_reads_key(instance: Any, fn: ast.FunctionDef, plain: bool) -> bool:
    """Whether ``map()`` may read its key parameter.

    ``False`` -- the record path may skip building keys -- only when
    the called ``map`` is ``plain`` (:func:`_plain_map`) and never names
    its key parameter nor ``locals`` / ``vars`` / ``eval`` / ``exec``
    anywhere in its body.  Field-usage analysis cannot decide this: a
    bare ``if key:`` is neither a field reference nor an escape there.
    """
    if not plain:
        return True
    params = fn.args.posonlyargs + fn.args.args
    key = params[0 if isinstance(instance, FunctionMapper) else 1].arg
    return any(
        isinstance(node, ast.Name) and (node.id == key
                                        or node.id in _FRAME_READERS)
        for node in ast.walk(fn)
    )


def _set_read_shape(result: InputAnalysis, reads_key: Optional[bool]
                    ) -> None:
    """What the record path must build of each record for this map():
    the key unless it is provably unread, and the projection's used
    fields when projection detection proved them -- so a captured scan
    yields exactly what a projection file of those fields would.
    ``reads_key`` is ``None`` for a map() the analyzer could not lower:
    it decodes in full."""
    key_schema, value_schema = result.key_schema, result.value_schema
    if (key_schema is None or value_schema is None
            or not (key_schema.transparent and value_schema.transparent)):
        result.read_shape, result.read_notes = FULL_READ, ["opaque schema"]
        return
    if reads_key is None:
        result.read_shape = FULL_READ
        result.read_notes = ["map() reads key", "map() not analyzable"]
        return
    notes = ["map() reads key"] if reads_key else []
    fields = None
    declined = result.notes.get(PROJECT, ())
    if result.projection is not None:
        fields = tuple(result.projection.used_value_fields)
    elif VALUE_ESCAPES in declined:
        notes.append("value escapes")
    elif EVERY_FIELD_USED in declined:
        notes.append("map() reads every value field")
    else:
        notes.append("no projection proved")
    result.read_shape = ReadShape(decode_keys=reads_key, fields=fields)
    result.read_notes = notes


def peek_schemas(source: InputSource) -> Tuple[Optional[Schema], Optional[Schema]]:
    """Read the (key, value) schemas declared by an input's file header."""
    try:
        if isinstance(source, BlockFileInput):
            # Whatever the format, the mapper sees the stored schema (a
            # dictionary file's compressed field is an INT code).
            with open_block_file(source.path) as reader:
                return reader.key_schema, reader.stored_schema
        if isinstance(source, PartitionedInput):
            info = source.info()
            return info.key_schema, info.value_schema
    except Exception:
        return None, None
    return None, None


def _describe(spec: Any) -> Tuple[Optional[str], Optional[str]]:
    """A reducer or combiner spec's fold op, or why it has none
    (``(None, None)`` for no spec)."""
    if spec is None:
        return None, None
    from repro.core.analyzer.reduce_ext import describe_reducer

    return describe_reducer(spec() if isinstance(spec, type) else spec)


class ManimalAnalyzer:
    """Static analysis of submitted jobs (paper Section 3).

    ``safe_mode`` implements the paper's footnote 2: "a Manimal 'safe
    mode' that avoids optimizations that modify side effects, at the
    possible cost of reduced optimization opportunities."  In safe mode a
    mapper with detected side effects (prints, file writes, counters,
    mutations) is denied the *selection* optimization, because skipping
    map invocations would also skip those effects.  Projection and
    compression are unaffected: they never change which records run.
    """

    def __init__(self, kb: KnowledgeBase = DEFAULT_KB,
                 safe_mode: bool = False):
        self.kb = kb
        self.safe_mode = safe_mode

    # -- job-level entry point -------------------------------------------------

    def analyze_job(self, conf: JobConf) -> JobAnalysis:
        """Analyze every (input, mapper) pair of a submitted job."""
        reduce_leaks = self.reduce_leaks_key(conf)
        analyses: List[InputAnalysis] = []
        for index, source in enumerate(conf.inputs):
            spec = conf.mapper_for(source.tag)
            instance = spec() if isinstance(spec, type) else spec
            key_schema, value_schema = peek_schemas(source)
            analyses.append(
                self.analyze_mapper(
                    instance,
                    key_schema,
                    value_schema,
                    input_index=index,
                    input_tag=source.tag,
                    reduce_leaks_key=reduce_leaks,
                    output_sort_required=conf.requires_sorted_output,
                )
            )

        # Appendix E: reduce-side GROUPBY/WHERE analysis.
        reduce_filter = None
        reduce_notes: List[str] = []
        if self.safe_mode and conf.reducer is not None:
            reduce_notes = [
                "safe mode: pre-shuffle group deletion withheld (it would "
                "skip reduce() invocations and any side effects in them)"
            ]
        elif conf.reducer is not None:
            from repro.core.analyzer.reduce_ext import find_reduce_key_filter

            reducer = (
                conf.reducer() if isinstance(conf.reducer, type)
                else conf.reducer
            )
            reduce_filter, reduce_notes = find_reduce_key_filter(
                reducer, self.kb
            )
        required = self._required_inputs(conf, analyses)
        reducer_fold, reducer_decline = _describe(conf.reducer)
        combiner_fold, combiner_decline = (
            (reducer_fold, reducer_decline) if conf.combiner is conf.reducer
            else _describe(conf.combiner))
        return JobAnalysis(
            job_name=conf.name,
            inputs=analyses,
            reduce_key_filter=reduce_filter,
            reduce_notes=reduce_notes,
            required_inputs=None if isinstance(required, str) else required,
            required_decline=required if isinstance(required, str) else None,
            reducer_fold=reducer_fold,
            reducer_decline=reducer_decline,
            combiner_fold=combiner_fold,
            combiner_decline=combiner_decline,
        )

    def _required_inputs(self, conf: JobConf,
                         analyses: List[InputAnalysis]
                         ) -> Union[Tuple[int, ...], str]:
        """The inputs every emitting group holds a value from (the
        semijoin proof), or why none are proved."""
        if conf.reducer is None:
            return "map-only job"
        if conf.combiner is not None:
            return "a combiner runs before the shuffle"
        if len(conf.inputs) < 2:
            return "one input: nothing to filter"
        if self.safe_mode:
            return ("safe mode: pre-shuffle group deletion withheld (it "
                    "would skip reduce() invocations)")
        from repro.core.analyzer.reduce_ext import find_required_inputs

        reducer = (conf.reducer() if isinstance(conf.reducer, type)
                   else conf.reducer)
        return find_required_inputs(reducer, analyses)

    # -- mapper-level analysis ---------------------------------------------------

    def analyze_mapper(
        self,
        instance: Mapper,
        key_schema: Optional[Schema],
        value_schema: Optional[Schema],
        input_index: int = 0,
        input_tag: Optional[str] = None,
        reduce_leaks_key: bool = True,
        output_sort_required: bool = False,
    ) -> InputAnalysis:
        result = InputAnalysis(
            input_index=input_index,
            input_tag=input_tag,
            mapper_name=type(instance).__name__,
            key_schema=key_schema,
            value_schema=value_schema,
        )

        parsed = self._lower_mapper(instance, result)
        if parsed is None:
            # Delta needs no code analysis -- schema metadata suffices.
            delta, delta_notes = find_delta(key_schema, value_schema)
            result.delta = delta
            for note in delta_notes:
                result.note(DELTA, note)
            _set_read_shape(result, reads_key=None)
            result.batch_decline = result.notes[SELECT][-1]
            return result
        fn_ast, lowered = parsed

        rd = ReachingDefinitions(lowered.cfg)
        members = MemberEnv(
            values=_instance_members(instance),
            mutated=_method_mutated_attrs(type(instance)),
        )
        resolver = SymbolicResolver(lowered, rd, self.kb, members)

        cleanup_emits = _overridden(instance, "cleanup") and _method_emits(
            instance, "cleanup"
        )
        setup_emits = _overridden(instance, "setup") and _method_emits(
            instance, "setup"
        )
        lifecycle_emits = cleanup_emits or setup_emits

        # Selection (Fig. 3).
        if lifecycle_emits:
            result.note(
                SELECT,
                "mapper emits from setup()/cleanup(); output is not a "
                "per-record function, so record skipping is unsafe",
            )
        else:
            formula, notes = find_select(lowered, resolver)
            if formula is not None:
                from repro.core.analyzer.descriptors import SelectionDescriptor

                result.selection = SelectionDescriptor(formula=formula)
            for note in notes:
                result.note(SELECT, note)

        # Projection (Fig. 6).  Lifecycle emits are safe here: fields those
        # emits use arrived through member stores in map(), which the field
        # harvest already covers.
        projection, notes = find_project(lowered, resolver, key_schema,
                                         value_schema)
        result.projection = projection
        for note in notes:
            result.note(PROJECT, note)

        # Delta-compression (Appendix C).
        delta, notes = find_delta(key_schema, value_schema)
        result.delta = delta
        for note in notes:
            result.note(DELTA, note)

        # Direct operation (Appendix C/D).
        if lifecycle_emits:
            result.note(
                DIRECT,
                "mapper emits from setup()/cleanup(); emitted keys are not "
                "analyzable per record",
            )
        else:
            direct, notes = find_direct_operation(
                lowered,
                resolver,
                value_schema,
                reduce_leaks_key=reduce_leaks_key,
                output_sort_required=output_sort_required,
            )
            result.direct = direct
            for note in notes:
                result.note(DIRECT, note)

        result.side_effects = find_side_effects(lowered)

        if self.safe_mode and result.side_effects and \
                result.selection is not None:
            effects = ", ".join(sorted({e.category
                                        for e in result.side_effects}))
            result.selection = None
            result.note(
                SELECT,
                "safe mode: selection withheld because skipping map "
                f"invocations would also skip side effects ({effects})",
            )
        plain = _plain_map(instance, fn_ast, members.mutated)
        _set_read_shape(result, _map_reads_key(instance, fn_ast, plain))

        # The emit proof as the batch executor's spec (the optimizer
        # attaches it to the job).
        from repro.core.analyzer.emitspec import find_emit_spec

        verdict = find_emit_spec(
            lowered, resolver, result.side_effects,
            lifecycle=(_overridden(instance, "setup")
                       or _overridden(instance, "cleanup")),
            plain=plain, read_shape=result.read_shape,
            value_schema=value_schema,
        )
        if isinstance(verdict, str):
            result.batch_decline = verdict
        else:
            result.batch_spec = verdict
        return result

    def _lower_mapper(self, instance: Mapper, result: InputAnalysis
                      ) -> Optional[Tuple[ast.FunctionDef, LoweredFunction]]:
        """Extract + lower the mapper's map function: its parsed source
        and IR, or None on failure."""
        try:
            if isinstance(instance, FunctionMapper):
                fn_ast = _source_ast(instance.map_source_function)
                return fn_ast, lower_function(fn_ast, is_method=False)
            fn_ast = _source_ast(type(instance).map)
            return fn_ast, lower_function(fn_ast, is_method=True)
        except UnsupportedConstructError as exc:
            for kind in (SELECT, PROJECT, DIRECT):
                result.note(kind, f"mapper not analyzable: {exc}")
            return None
        except (OSError, TypeError) as exc:
            for kind in (SELECT, PROJECT, DIRECT):
                result.note(kind, f"mapper source unavailable: {exc}")
            return None

    # -- reduce-side helper -------------------------------------------------------

    def reduce_leaks_key(self, conf: JobConf) -> bool:
        """Whether the reducer's output may carry its key (conservative).

        Used by direct-operation analysis: a compressed map output key is
        only safe when the reducer never emits data derived from the key.
        This is a light extension beyond the paper's map-only analysis
        (their Appendix E direction), kept deliberately conservative:
        any doubt means "leaks".
        """
        if conf.reducer is None:
            return True  # map-only: shuffle keys ARE the final output
        reducer = (
            conf.reducer() if isinstance(conf.reducer, type) else conf.reducer
        )
        try:
            # Adapters (FunctionReducer) expose the real body to inspect;
            # analyzing the adapter's forwarding `reduce` would wrongly
            # conclude the key never leaks.
            source_fn = getattr(reducer, "reduce_source_function", None)
            if source_fn is not None:
                fn_ast = _source_ast(source_fn)
                lowered = lower_function(fn_ast, is_method=False)
            else:
                fn_ast = _source_ast(type(reducer).reduce)
                lowered = lower_function(fn_ast, is_method=True)
        except (OSError, TypeError, UnsupportedConstructError):
            return True
        rd = ReachingDefinitions(lowered.cfg)
        resolver = SymbolicResolver(lowered, rd, self.kb, MemberEnv())
        # In reduce(self, key, values, ctx): role "key" is the group key.
        from repro.core.analyzer.conditions import ROLE_KEY

        for emit in lowered.emit_statements():
            for expr in (emit.key, emit.value):
                sym = resolver.resolve_at_stmt(emit, expr)
                if ROLE_KEY in sym.whole_param_roles() or any(
                    role == ROLE_KEY for role, _ in sym.field_refs()
                ):
                    return True
        return False
