"""Exception hierarchy for the Manimal reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Subsystems define more
specific subclasses below; they are grouped by the subsystem that raises
them (storage, mapreduce fabric, analyzer, optimizer).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-layer errors."""


class SerializationError(StorageError):
    """A record could not be encoded or decoded."""


class SchemaError(StorageError):
    """A schema definition is invalid or two schemas are incompatible."""


class FieldNotPresentError(StorageError, AttributeError):
    """A field was read from a record that does not carry it.

    Raised, for example, when user code touches a field that a projection
    index dropped.  A correct Manimal optimization never triggers this:
    the analyzer proves the field is unused before projecting it away.
    Inherits :class:`AttributeError` so attribute-protocol users (``getattr``
    with a default, ``hasattr``) behave naturally.
    """


class CorruptFileError(StorageError):
    """A storage file failed magic/structure validation."""


class BTreeError(StorageError):
    """Invalid B+Tree operation or structural invariant violation."""


# ---------------------------------------------------------------------------
# MapReduce fabric
# ---------------------------------------------------------------------------

class MapReduceError(ReproError):
    """Base class for execution-fabric errors."""


class JobConfigError(MapReduceError):
    """A job configuration is missing or has inconsistent settings."""


class JobExecutionError(MapReduceError):
    """A map or reduce task failed while running user code."""


class TransientTaskError(JobExecutionError):
    """A task failed for an infrastructure reason that may not recur.

    Raised for failures that re-executing the same deterministic task can
    plausibly survive: a spill write hitting a full disk, a worker lost
    mid-task, an injected chaos fault.  The worker pool re-dispatches
    tasks that fail with this class (bounded by
    :class:`~repro.engine.pool.RetryPolicy.max_task_attempts`) instead of
    failing the job; user-code failures raise the parent class and are
    never retried -- a deterministic task that raised once will raise
    again.
    """


class DeadlineExceededError(MapReduceError):
    """A task or request ran past its deadline.

    Not retryable by default: re-running the same work under the same
    deadline is expected to time out again.  Raised by the worker pool
    when a task exhausts its attempts by timing out, and by the query
    service when a request's deadline expires before dispatch.
    """


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------

class AnalyzerError(ReproError):
    """Base class for static-analysis errors."""


class LoweringError(AnalyzerError):
    """Python source could not be lowered to the analyzer IR."""


class UnsupportedConstructError(LoweringError):
    """The mapper uses a construct outside the analyzable subset.

    This mirrors the paper's best-effort stance: constructs we cannot
    model are not errors for the *user* -- the job still runs -- but the
    analyzer conservatively reports no optimizations for them.
    """


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class OptimizerError(ReproError):
    """Base class for optimizer errors."""


class CatalogError(OptimizerError):
    """The index catalog is missing, corrupt, or inconsistent."""
