"""The lazy, immutable :class:`Dataset` query builder.

A ``Dataset`` is a handle over a logical plan tree owned by a
:class:`~repro.api.session.Session`.  Every transformation returns a *new*
``Dataset``; nothing executes until an action (:meth:`collect`,
:meth:`write`) runs the lowered stage chain through Manimal.

Example::

    ds = session.read("webpages.rf")
    top = ds.filter(col("rank") > 990).select("url", "rank")
    rows = top.collect()            # plain scan the first time
    session.build_indexes(top)      # admin action, as in the paper
    rows2 = top.collect()           # now served from a B+Tree index
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.api.expressions import Expr
from repro.api.plan import (
    AggregateNode,
    AggSpec,
    FilterNode,
    JoinNode,
    LogicalNode,
    LoweredPlan,
    MapNode,
    SelectNode,
)
from repro.core.optimizer.planner import ExecutionDescriptor
from repro.core.pipeline import StageOutcome
from repro.exceptions import JobConfigError
from repro.mapreduce.job import JobResult
from repro.storage.serialization import Schema


@dataclass
class DatasetResult:
    """Everything one Dataset execution produced."""

    plan: LoweredPlan
    stages: List[StageOutcome]

    @property
    def result(self) -> JobResult:
        """The final stage's job result."""
        return self.stages[-1].outcome.result

    @property
    def rows(self) -> List[Tuple[Any, Any]]:
        """The final (key, value) pairs, in execution order."""
        return self.result.outputs

    def sorted_rows(self) -> List[Tuple[Any, Any]]:
        return self.result.sorted_outputs()

    @property
    def descriptor(self) -> ExecutionDescriptor:
        """The final stage's execution descriptor."""
        return self.stages[-1].outcome.descriptor

    def descriptors(self) -> List[ExecutionDescriptor]:
        return [stage.outcome.descriptor for stage in self.stages]

    @property
    def optimized(self) -> bool:
        return any(stage.outcome.optimized for stage in self.stages)

    def summary(self) -> str:
        lines = [f"dataset run {self.plan.name!r} "
                 f"({len(self.stages)} stage(s)):"]
        for stage in self.stages:
            lines.append(stage.outcome.descriptor.describe())
        return "\n".join(lines)


class Dataset:
    """An immutable, lazily evaluated relational query over record files."""

    def __init__(self, session: "Any", node: LogicalNode):
        self._session = session
        self._node = node
        self._probe_plan: Optional[LoweredPlan] = None
        #: the probe plan until a run takes it (see :meth:`_take_plan`)
        self._unrun_plan: Optional[LoweredPlan] = None
        self._take_lock = threading.Lock()

    def _probe(self) -> LoweredPlan:
        """A cached lowering used for validation and schema introspection.

        Datasets are immutable, so one probe plan serves every schema
        lookup -- and the first run, which needs no lowering of its own.
        """
        if self._probe_plan is None:
            self._probe_plan = self._unrun_plan = self._session.lower(self)
        return self._probe_plan

    def _take_plan(self) -> Optional[LoweredPlan]:
        """The probe plan for one run, at most once: its scratch paths are
        that run's, so a second run -- even concurrent, or in the same
        ``run_many`` -- gets ``None`` and lowers afresh."""
        with self._take_lock:
            plan, self._unrun_plan = self._unrun_plan, None
        return plan

    # -- transformations (each returns a new Dataset) ------------------------

    def _derive(self, node: LogicalNode) -> "Dataset":
        derived = Dataset(self._session, node)
        # Surface plan errors (unknown columns, missing schemas feeding a
        # downstream stage) at build time, not at collect() time.  One
        # lowering per derived Dataset makes chain construction quadratic
        # in query length, but queries are short and lowering is cheap
        # (~13ms for a 40-op chain); eager, precise errors win.
        derived._probe()
        return derived

    def filter(self, predicate: Union[Expr, Callable[[Any], bool]]
               ) -> "Dataset":
        """Keep records satisfying ``predicate``.

        Column expressions (``col('rank') > 10``) become exact selection
        hints the optimizer can serve from a B+Tree index.  A plain
        callable ``f(record) -> bool`` is handed to the analyzer first:
        when its body is provably a pure expression over the record's
        fields and values fixed at submission (``lambda v: v.rank > 10``,
        a ``__call__`` instance reading ``self.limit``, a
        ``functools.partial``), it is replaced by the equivalent column
        expression and optimized like one; otherwise it runs as written,
        opaque to optimization.  ``explain()`` shows the verdict and, for
        a decline, the reason (see ``docs/optimizations.md``).
        """
        if isinstance(predicate, Expr):
            # The sugar stops here: the plan holds the SymExpr itself.
            predicate = predicate.to_symbolic()
            schema = self.value_schema
            if schema is not None and schema.transparent:
                missing = sorted(
                    c for c in predicate.value_columns()
                    if not schema.has_field(c)
                )
                if missing:
                    raise JobConfigError(
                        f"filter references unknown column(s) {missing}; "
                        f"schema {schema.name!r} has {schema.field_names()}"
                    )
        elif not callable(predicate):
            raise JobConfigError(
                "filter() takes a column expression or a callable"
            )
        return self._derive(FilterNode(self._node, predicate))

    def select(self, *columns: str) -> "Dataset":
        """Keep only the named value columns (projection)."""
        if not columns:
            raise JobConfigError("select() needs at least one column")
        schema = self.value_schema
        if schema is not None and schema.transparent:
            missing = sorted(c for c in columns if not schema.has_field(c))
            if missing:
                raise JobConfigError(
                    f"select references unknown column(s) {missing}; "
                    f"schema {schema.name!r} has {schema.field_names()}"
                )
        return self._derive(SelectNode(self._node, tuple(columns)))

    def map(self, fn: Callable[[Any, Any], Tuple[Any, Any]],
            key_schema: Optional[Schema] = None,
            value_schema: Optional[Schema] = None) -> "Dataset":
        """Apply ``fn(key, value) -> (key, value)`` to every record.

        Supply the output schemas when the result feeds another stage
        (group_by/join) or is written to disk.  A transform of the shape
        ``return key, value_schema.make(e1, ..., en)`` whose expressions
        the analyzer can prove pure (field reads, arithmetic, values
        fixed at submission) becomes a computed projection: it keeps the
        stage on the vectorized path and narrows the scan to the fields
        it reads.  Anything else is an arbitrary transform, opaque to
        optimization, called once per record; ``explain()`` says which.
        """
        return self._derive(
            MapNode(self._node, fn, key_schema=key_schema,
                    value_schema=value_schema)
        )

    def group_by(self, column: str) -> "GroupedDataset":
        """Group by a value column; follow with ``.agg(...)``."""
        return GroupedDataset(self, column)

    def join(self, other: "Dataset", on: str) -> "Dataset":
        """Inner-join two datasets on an equality column."""
        if not isinstance(other, Dataset):
            raise JobConfigError("join() expects another Dataset")
        if other._session is not self._session:
            raise JobConfigError("cannot join datasets of different sessions")
        return self._derive(JoinNode(self._node, other._node, on))

    # -- schema introspection -------------------------------------------------

    def _final_schemas(self) -> Tuple[Optional[Schema], Optional[Schema]]:
        plan = self._probe()
        return plan.final.out_key_schema, plan.final.out_value_schema

    @property
    def key_schema(self) -> Optional[Schema]:
        return self._final_schemas()[0]

    @property
    def value_schema(self) -> Optional[Schema]:
        return self._final_schemas()[1]

    def columns(self) -> Optional[List[str]]:
        """Value column names, or None when the schema is unknown."""
        schema = self.value_schema
        return schema.field_names() if schema is not None else None

    # -- actions ----------------------------------------------------------------

    def run(self, build_indexes: bool = False,
            allowed_kinds: Optional[Sequence[str]] = None,
            parallelism: Optional[int] = None) -> DatasetResult:
        """Execute the lowered stage chain through Manimal.

        :param build_indexes: build synthesized indexes for the query's
            base inputs first (admin action).
        :param allowed_kinds: restrict which index kinds may be built.
        :param parallelism: worker-process count for this run, overriding
            the session default (0 = auto-detect CPUs); results are
            byte-identical regardless.
        :returns: a :class:`DatasetResult` with rows, per-stage execution
            descriptors, and metrics.
        """
        return self._session.run(self, build_indexes=build_indexes,
                                 allowed_kinds=allowed_kinds,
                                 parallelism=parallelism)

    def collect(self, build_indexes: bool = False,
                parallelism: Optional[int] = None) -> List[Tuple[Any, Any]]:
        """Run the query and return the final (key, value) pairs.

        ``parallelism`` fans each stage's map/reduce tasks out across
        that many worker processes (``ds.collect(parallelism=4)``).
        The returned pairs -- values *and* order -- are identical to a
        sequential run.
        """
        return self.run(build_indexes=build_indexes,
                        parallelism=parallelism).rows

    def write(self, path: str, build_indexes: bool = False,
              parallelism: Optional[int] = None,
              partition_by: Optional[str] = None,
              num_partitions: Optional[int] = None) -> DatasetResult:
        """Run and write the result to ``path`` as a record file.

        Rows are written in key-sorted order, so the bytes on disk do not
        depend on which execution plan the optimizer chose or which
        runner executed it.

        Pass ``partition_by`` (a value column) and/or ``num_partitions``
        to write a *partitioned dataset* instead: a directory of record
        files plus a per-partition statistics sidecar (record counts,
        byte sizes, min/max zone maps), registered in the session
        catalog.  Selective queries over ``session.read(path)`` then
        prune partitions whose zone maps exclude the predicate before
        reading them::

            ds.write("rankings.parts", partition_by="pagerank",
                     num_partitions=16)
            pruned = session.read("rankings.parts")
            pruned.filter(col("pagerank") > 990).collect()   # reads ~1/16
        """
        return self._session.write(self, path, build_indexes=build_indexes,
                                   parallelism=parallelism,
                                   partition_by=partition_by,
                                   num_partitions=num_partitions)

    def build_indexes(self, allowed_kinds: Optional[Sequence[str]] = None):
        """Admin action: build indexes for this query's base inputs."""
        return self._session.build_indexes(self, allowed_kinds=allowed_kinds)

    def explain(self) -> str:
        """Render the lowered stage chain with per-stage hints and plans."""
        return self._session.explain(self)

    def lower(self) -> LoweredPlan:
        """The stage chain this Dataset compiles to (for inspection)."""
        return self._session.lower(self)

    def __repr__(self) -> str:
        cols = self.columns()
        shown = f"columns={cols}" if cols is not None else "schema unknown"
        return f"Dataset({type(self._node).__name__}, {shown})"


class GroupedDataset:
    """Intermediate handle produced by :meth:`Dataset.group_by`."""

    def __init__(self, parent: Dataset, column: str):
        self._parent = parent
        self._column = column

    def agg(self, **aggs: Union[AggSpec, Tuple[str, Optional[str]]]
            ) -> Dataset:
        """Aggregate each group; keyword names become output columns.

        Values are :class:`AggSpec` helpers (``count()``, ``sum_of(col)``,
        ``min_of``/``max_of``/``avg_of``) or ``(op, column)`` tuples.
        """
        if not aggs:
            raise JobConfigError("agg() needs at least one aggregate")
        specs: List[Tuple[str, AggSpec]] = []
        for name, spec in aggs.items():
            if isinstance(spec, tuple):
                spec = AggSpec(*spec)
            if not isinstance(spec, AggSpec):
                raise JobConfigError(
                    f"aggregate {name!r} must be an AggSpec or (op, column)"
                )
            specs.append((name, spec))
        node = AggregateNode(self._parent._node, self._column, tuple(specs))
        return self._parent._derive(node)

    def count(self) -> Dataset:
        """Shorthand for ``.agg(count=count())``."""
        return self.agg(count=AggSpec("count"))
