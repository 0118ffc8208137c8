"""Job configuration and results.

A :class:`JobConf` is the analogue of a Hadoop job submission: mapper and
reducer classes, input sources, partitioning, and optional on-disk output.
It is also the unit the Manimal facade accepts -- the analyzer inspects
``conf.mapper``, and the optimizer rewrites ``conf.inputs`` into an
optimized execution descriptor without the user touching anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

from repro.exceptions import JobConfigError
from repro.mapreduce.api import Mapper, Partitioner, Reducer
from repro.mapreduce.counters import Counters
from repro.mapreduce.formats import InputSource
from repro.mapreduce.metrics import JobMetrics
from repro.storage.serialization import Schema

MapperSpec = Union[Mapper, Type[Mapper]]
ReducerSpec = Union[Reducer, Type[Reducer]]


@dataclass
class JobConf:
    """Everything needed to run one MapReduce job."""

    name: str
    mapper: MapperSpec
    reducer: Optional[ReducerSpec]
    inputs: List[InputSource]
    #: optional per-map-task combiner (a Reducer subclass/instance)
    combiner: Optional[ReducerSpec] = None
    num_reducers: int = 5
    partitioner: Partitioner = field(default_factory=Partitioner)
    #: if set (with schemas), reduce output is also written to this path
    output_path: Optional[str] = None
    output_key_schema: Optional[Schema] = None
    output_value_schema: Optional[Schema] = None
    #: per-input-tag mapper overrides (Hadoop MultipleInputs): join-style
    #: jobs give each input file its own mapper, which the analyzer then
    #: analyzes independently per input
    per_input_mappers: Dict[str, MapperSpec] = field(default_factory=dict)
    #: optional pre-shuffle group filter ``f(key) -> bool``; map outputs
    #: whose key fails are deleted before partitioning.  Set by the
    #: optimizer when the Appendix E reduce-side analysis proves the
    #: reducer cannot emit for such keys, or to a semijoin around that
    #: filter (:mod:`repro.mapreduce.semijoin`) -- never set by users
    #: directly.
    shuffle_filter: Optional[Callable[[Any], bool]] = None
    #: whether the user requires final output in sorted key order; relevant
    #: to direct-operation compression (paper footnote 1)
    requires_sorted_output: bool = False
    #: requested worker processes for this job; ``None`` defers to the
    #: runner the submitter chose, ``1`` forces sequential execution,
    #: ``0`` auto-detects the CPU count (see
    #: :func:`~repro.engine.pool.default_worker_count`), and ``>1``
    #: selects the spill-based
    #: :class:`~repro.mapreduce.parallel.ParallelJobRunner` wherever the
    #: job is run (``run_job``, ``Manimal.submit``, pipelines).  Output
    #: bytes are identical either way.
    parallelism: Optional[int] = None
    #: free-form parameters exposed to user code (thresholds etc.); these
    #: are the "user's parameters" in Fig. 1, and the analyzer treats them
    #: as constants for a given submission
    params: Dict[str, Any] = field(default_factory=dict)
    #: vectorized-execution specs per input tag (``None`` for the single
    #: untagged input), set by the optimizer's plan when a stage's map
    #: body is fully analyzer-described (a fluent stage's hints, or the
    #: analysis of a classic ``map()``).  The runtime then serves eligible map tasks through
    #: :mod:`repro.batch` and falls back to ``mapper`` otherwise; outputs
    #: are byte-identical either way, so every other component may ignore
    #: this field.  Never set by users directly.
    batch_specs: Dict[Any, Any] = field(default_factory=dict)
    #: the builtin (``sum``, ``min`` or ``max``) whose value over a
    #: group's values ``reducer`` / ``combiner`` emits with the group's
    #: key and nothing else, set by the optimizer's plan when the analyzer
    #: described the whole ``reduce()`` so.  The reduce loop then folds
    #: groups a column at a time instead of calling ``reduce()``; the
    #: output is byte-identical either way.  Never set by users directly.
    reducer_fold: Optional[Callable[[List[Any]], Any]] = None
    combiner_fold: Optional[Callable[[List[Any]], Any]] = None

    def __post_init__(self) -> None:
        if not self.inputs:
            raise JobConfigError(f"job {self.name!r} has no inputs")
        if self.num_reducers < 1:
            raise JobConfigError("num_reducers must be >= 1")
        if self.parallelism is not None and self.parallelism < 0:
            raise JobConfigError("parallelism must be >= 0 (0 = auto)")

    def mapper_for(self, tag: Optional[str]) -> MapperSpec:
        """The mapper spec used for an input with the given tag."""
        if tag is not None and tag in self.per_input_mappers:
            return self.per_input_mappers[tag]
        return self.mapper

    def make_mapper(self, tag: Optional[str] = None) -> Mapper:
        """Fresh mapper instance per map task (Hadoop semantics)."""
        spec = self.mapper_for(tag)
        return spec() if isinstance(spec, type) else spec

    def make_reducer(self) -> Optional[Reducer]:
        if self.reducer is None:
            return None
        return self.reducer() if isinstance(self.reducer, type) else self.reducer

    def make_combiner(self) -> Optional[Reducer]:
        if self.combiner is None:
            return None
        return (
            self.combiner() if isinstance(self.combiner, type) else self.combiner
        )

    def with_inputs(self, inputs: List[InputSource]) -> "JobConf":
        """Copy of this conf reading from different inputs.

        This is how the optimizer redirects a job at an index file while
        leaving the user's code untouched.
        """
        return JobConf(
            name=self.name,
            mapper=self.mapper,
            reducer=self.reducer,
            inputs=inputs,
            combiner=self.combiner,
            num_reducers=self.num_reducers,
            partitioner=self.partitioner,
            output_path=self.output_path,
            output_key_schema=self.output_key_schema,
            output_value_schema=self.output_value_schema,
            per_input_mappers=dict(self.per_input_mappers),
            shuffle_filter=self.shuffle_filter,
            requires_sorted_output=self.requires_sorted_output,
            parallelism=self.parallelism,
            params=dict(self.params),
            batch_specs=dict(self.batch_specs),
            reducer_fold=self.reducer_fold,
            combiner_fold=self.combiner_fold,
        )


@dataclass
class JobResult:
    """Outcome of one job run."""

    job_name: str
    outputs: List[Tuple[Any, Any]]
    counters: Counters
    metrics: JobMetrics

    def output_dict(self) -> Dict[Any, Any]:
        """Outputs as a dict (last write wins for duplicate keys)."""
        return dict(self.outputs)

    def sorted_outputs(self) -> List[Tuple[Any, Any]]:
        from repro.mapreduce.keyspace import sort_key

        return sorted(self.outputs, key=lambda kv: sort_key(kv[0]))
