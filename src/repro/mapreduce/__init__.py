"""The MapReduce execution fabric (Hadoop stand-in).

Public API:

* :class:`Mapper`, :class:`Reducer`, :class:`Context` -- the programming
  model user jobs are written against
* :class:`JobConf` / :func:`run_job` -- job submission
* input sources in :mod:`repro.mapreduce.formats`, including the optimized
  B+Tree / projected / delta / dictionary formats Manimal plans can select
* :class:`CostModel` -- deterministic 5-node cluster simulation
"""

from repro.mapreduce.api import (
    Context,
    FunctionMapper,
    FunctionReducer,
    IdentityMapper,
    IdentityReducer,
    Mapper,
    Partitioner,
    Reducer,
)
from repro.mapreduce.cost import PAPER_CLUSTER, CostModel, SimulatedTime
from repro.mapreduce.counters import Counters
from repro.mapreduce.formats import (
    ColumnarFileInput,
    DeltaFileInput,
    DictionaryFileInput,
    InMemoryInput,
    InputSource,
    InputSplit,
    KeyRange,
    PartitionedInput,
    ProjectedFileInput,
    RecordFileInput,
    SelectionIndexInput,
)
from repro.mapreduce.job import JobConf, JobResult
from repro.mapreduce.metrics import JobMetrics
from repro.mapreduce.parallel import ParallelJobRunner, resolve_runner
from repro.mapreduce.runtime import DEFAULT_RUNNER, LocalJobRunner, run_job

__all__ = [
    "Context",
    "CostModel",
    "Counters",
    "DEFAULT_RUNNER",
    "ColumnarFileInput",
    "DeltaFileInput",
    "DictionaryFileInput",
    "FunctionMapper",
    "FunctionReducer",
    "IdentityMapper",
    "IdentityReducer",
    "InMemoryInput",
    "InputSource",
    "InputSplit",
    "JobConf",
    "JobMetrics",
    "JobResult",
    "KeyRange",
    "LocalJobRunner",
    "Mapper",
    "PAPER_CLUSTER",
    "ParallelJobRunner",
    "PartitionedInput",
    "Partitioner",
    "ProjectedFileInput",
    "RecordFileInput",
    "Reducer",
    "SelectionIndexInput",
    "SimulatedTime",
    "resolve_runner",
    "run_job",
]
