"""Index-generation programs.

"Submitting a job for execution yields not just a program result, but also
an index-generation program.  This program is itself a MapReduce program,
and when executed generates an indexed version of the submitted job's
input data" (paper Section 2.2).  Whether to *run* it is the
administrator's decision, like creating an index in an RDBMS.

This module synthesizes those programs from analysis results.  The
selection index builder really is a MapReduce job on the execution fabric
(its shuffle provides the global sort a sorted copy needs); the
rewrite-style builders (projection / delta / dictionary) are map-only
record transformations implemented as streaming passes, which is exactly
what a map-only Hadoop job with a custom output format would do.  Every
kind writes one layout, a columnar file (:mod:`repro.storage.columnar`):
projection keeps fewer columns, delta and dictionary are the codecs of
theirs, and a selection index is the copy sorted on one field.

Per the paper, "the current analyzer always chooses the index program that
exploits as many optimizations as possible", with the one conflict rule
that selection is favored over delta-compression (footnote 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.analyzer.descriptors import InputAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.core.optimizer.predicates import compile_selection
from repro.exceptions import BTreeError, JobExecutionError, OptimizerError
from repro.mapreduce.api import Context, FunctionReducer, Mapper
from repro.mapreduce.formats import RecordFileInput
from repro.mapreduce.job import JobConf
from repro.mapreduce.runtime import LocalJobRunner
from repro.storage import input_identity
from repro.storage.columnar import INDEX_BLOCK_SIZE, ColumnarFileWriter, copy_columns
from repro.storage.columnfile import META_BASE_SCHEMA, META_KEPT_FIELDS
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileReader


#: Rows the selection-index reducer hands the writer per append: one
#: append per order key costs a call per distinct key, and a larger
#: buffer coexists with the job's shuffle data in memory.
SORTED_APPEND_ROWS = 512


class IndexDeclined(OptimizerError):
    """A selection index whose field holds a value with no index order
    (a NaN): the build is skipped, not failed."""


class _IndexEmitMapper(Mapper):
    """Map side of the selection-index job: emit (order key, the pair as
    one row of field values -- the key's, then the stored value's)."""

    def __init__(self, field_name: str, field_type,
                 kept: Optional[List[str]] = None):
        self.field_name = field_name
        self.field_type = field_type
        #: the value fields stored, in order (a selection+projection index)
        self.kept = kept

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        stored = value.as_tuple() if self.kept is None else tuple(
            getattr(value, name) for name in self.kept)
        ctx.emit(encode_key(self.field_type, getattr(value, self.field_name)),
                 key.as_tuple() + stored)


@dataclass
class IndexGenerationProgram:
    """A synthesized index builder for one input file."""

    kind: str
    source_path: str
    #: selection field (selection kinds)
    key_field: Optional[str] = None
    #: value fields kept (projection kinds); None keeps all
    value_fields: Optional[List[str]] = None
    #: numeric fields stored as deltas (delta kinds)
    delta_fields: Optional[List[str]] = None
    #: string field to dictionary-compress (dictionary kind)
    dict_field: Optional[str] = None
    #: the better index this one stands in for, and why that was not built
    skipped: Optional[str] = None

    def describe(self) -> str:
        parts = [f"kind={self.kind}", f"source={self.source_path}"]
        if self.key_field:
            parts.append(f"key_field={self.key_field}")
        if self.value_fields is not None:
            parts.append(f"fields={self.value_fields}")
        if self.delta_fields:
            parts.append(f"delta={self.delta_fields}")
        if self.dict_field:
            parts.append(f"dict={self.dict_field}")
        if self.skipped:
            parts.append(f"skipped {self.skipped}")
        return "IndexGenerationProgram(" + ", ".join(parts) + ")"

    # -- execution ------------------------------------------------------------

    def run(self, catalog: Catalog,
            runner: Optional[LocalJobRunner] = None) -> IndexEntry:
        """Build the index and register it in the catalog.

        The entry is stamped with the source's identity as it was
        *before* the build read it, and the source is checked again
        afterwards: an index over bytes that moved mid-build would be
        born stale.  A build that fails -- on a source that moved, a
        damaged source, any exception -- deletes its file and registers
        nothing, so the catalog's registry and its directory still agree.
        """
        stamp = input_identity(self.source_path)
        selection = self.kind in (cat.KIND_SELECTION,
                                  cat.KIND_SELECTION_PROJECTION)
        if not selection and self.kind not in cat.COPY_KINDS:
            raise OptimizerError(f"unknown index kind {self.kind!r}")
        index_path = catalog.next_index_path(self.kind) + cat.COLUMNAR_SUFFIX
        try:
            if selection:
                entry = self._build_selection(catalog, runner, index_path)
            else:
                entry = self._build_rewrite(catalog, index_path)
            if input_identity(self.source_path) != stamp:
                raise OptimizerError(
                    f"source changed during index build: {self.source_path}"
                )
        except BaseException:
            if os.path.exists(index_path):
                os.remove(index_path)
            raise
        entry.source_identity = list(stamp)
        catalog.register(entry)
        return entry

    def _build_selection(self, catalog: Catalog,
                         runner: Optional[LocalJobRunner],
                         index_path: str) -> IndexEntry:
        # The selection builder's reducer appends to a writer this process
        # holds, so this infrastructure job must not fan out to worker
        # processes.  Only a multi-process runner is downgraded; any other
        # caller-supplied runner (instrumented wrappers etc.) is honored.
        from repro.mapreduce.parallel import ParallelJobRunner

        if runner is None or isinstance(runner, ParallelJobRunner):
            runner = LocalJobRunner()
        if not self.key_field:
            raise OptimizerError("selection index needs a key_field")
        with RecordFileReader(self.source_path) as reader:
            key_schema = reader.key_schema
            value_schema = reader.value_schema
            source_bytes = reader.file_size()
            source_records = reader.count_records()
        if self.kind == cat.KIND_SELECTION_PROJECTION:
            if not self.value_fields:
                raise OptimizerError(
                    "selection+projection index needs value_fields"
                )
            keep = list(self.value_fields)
            if self.key_field not in keep:
                # The indexed field must survive projection: the residual
                # predicate may re-check it.
                keep.append(self.key_field)
            stored_schema = value_schema.project(keep)
        else:
            stored_schema = value_schema
        metadata = {
            "source_path": os.path.abspath(self.source_path),
            "source_records": source_records,
        }
        with ColumnarFileWriter(index_path, key_schema, stored_schema,
                                {self.key_field: "sorted"}, INDEX_BLOCK_SIZE,
                                metadata) as writer:
            pending: List[Tuple[Any, ...]] = []

            def flush() -> None:
                writer.append_columns(list(map(list, zip(*pending))),
                                      len(pending))
                pending.clear()

            def reduce(key: bytes, rows: List[Tuple[Any, ...]],
                       ctx: Any) -> None:
                pending.extend(rows)
                if len(pending) >= SORTED_APPEND_ROWS:
                    flush()

            job = JobConf(
                name=(f"index-gen:{self.kind}:"
                      f"{os.path.basename(self.source_path)}"),
                mapper=_IndexEmitMapper(
                    self.key_field, value_schema.field(self.key_field).ftype,
                    None if stored_schema is value_schema
                    else stored_schema.field_names()),
                # the shuffle hands over each order key's rows in order
                reducer=FunctionReducer(reduce),
                inputs=[RecordFileInput(self.source_path)],
                num_reducers=1,  # global sort order feeds the writer
            )
            try:
                runner.run(job)
            except JobExecutionError as exc:
                if isinstance(exc.__cause__, BTreeError):
                    raise IndexDeclined(str(exc.__cause__)) from exc
                raise
            flush()
        return IndexEntry(
            index_id=catalog.make_entry_id(),
            kind=self.kind,
            source_path=os.path.abspath(self.source_path),
            index_path=index_path,
            key_field=self.key_field,
            value_fields=(stored_schema.field_names() if self.kind
                          == cat.KIND_SELECTION_PROJECTION else None),
            stats={
                "source_bytes": source_bytes,
                "source_records": source_records,
                "index_bytes": os.path.getsize(index_path),
                "index_records": writer.records_written,
            },
        )

    def _build_rewrite(self, catalog: Catalog, index_path: str) -> IndexEntry:
        """Projection, delta, dictionary and projection+delta builds: one
        streaming copy of the source into a columnar file, differing in
        which fields are kept and which codec each column takes.
        """
        projecting = self.kind in (cat.KIND_PROJECTION, cat.KIND_PROJECTION_DELTA)
        with RecordFileReader(self.source_path) as reader:
            key_schema = reader.key_schema
            stored = reader.value_schema
            metadata = {"source_path": os.path.abspath(self.source_path)}
            if projecting:
                if not self.value_fields:
                    raise OptimizerError("projection index needs value_fields")
                stored = stored.project(self.value_fields)
                metadata[META_BASE_SCHEMA] = reader.value_schema.name
                metadata[META_KEPT_FIELDS] = stored.field_names()
            delta_fields = None
            codecs = {}
            if self.kind in (cat.KIND_DELTA, cat.KIND_PROJECTION_DELTA):
                delta_fields = [
                    name for name in (self.delta_fields
                                      or stored.numeric_field_names())
                    if stored.has_field(name)]
                if not delta_fields:
                    raise OptimizerError(
                        f"{self.kind} index has no numeric fields to delta-code"
                    )
                codecs = dict.fromkeys(delta_fields, "delta")
            elif self.kind == cat.KIND_DICTIONARY:
                if not self.dict_field:
                    raise OptimizerError("dictionary index needs dict_field")
                codecs = {self.dict_field: "dict"}
            with ColumnarFileWriter(index_path, key_schema, stored, codecs,
                                    metadata=metadata) as writer:
                records = copy_columns(reader, writer)
            source_bytes = reader.file_size()
        return IndexEntry(
            index_id=catalog.make_entry_id(),
            kind=self.kind,
            source_path=metadata["source_path"],
            index_path=index_path,
            value_fields=stored.field_names() if projecting else None,
            delta_fields=delta_fields,
            dict_field=(
                self.dict_field if self.kind == cat.KIND_DICTIONARY else None
            ),
            stats={
                "source_bytes": source_bytes,
                "source_records": records,
                "index_bytes": os.path.getsize(index_path),
                "index_records": records,
            },
        )


def synthesize_program(
    analysis: InputAnalysis,
    source_path: str,
    allowed_kinds: Optional[Sequence[str]] = None,
) -> Optional[IndexGenerationProgram]:
    """Choose the index program for one analyzed input.

    Combination policy (paper Section 2.2): exploit as many detected
    optimizations as a single physical index can -- selection combines
    with projection; projection combines with delta; selection conflicts
    with delta and wins (footnote 3).  ``allowed_kinds`` restricts the
    choice, which the single-optimization experiments (paper Section 4.3 /
    Appendix D) use to study one technique at a time.
    """
    allowed = set(allowed_kinds) if allowed_kinds is not None else set(cat.ALL_KINDS)

    selection = analysis.selection
    projection = analysis.projection
    delta = analysis.delta
    direct = analysis.direct

    index_field: Optional[str] = None
    if selection is not None and analysis.value_schema is not None:
        plan = compile_selection(selection.formula, analysis.value_schema)
        if plan is not None:
            index_field = plan.field_name

    if index_field is not None:
        if projection is not None and cat.KIND_SELECTION_PROJECTION in allowed:
            return IndexGenerationProgram(
                kind=cat.KIND_SELECTION_PROJECTION,
                source_path=source_path,
                key_field=index_field,
                value_fields=list(projection.used_value_fields),
            )
        if cat.KIND_SELECTION in allowed:
            return IndexGenerationProgram(
                kind=cat.KIND_SELECTION,
                source_path=source_path,
                key_field=index_field,
            )

    if projection is not None:
        deltable = (
            [f for f in (delta.fields if delta else [])
             if f in projection.used_value_fields]
        )
        if deltable and cat.KIND_PROJECTION_DELTA in allowed:
            return IndexGenerationProgram(
                kind=cat.KIND_PROJECTION_DELTA,
                source_path=source_path,
                value_fields=list(projection.used_value_fields),
                delta_fields=deltable,
            )
        if cat.KIND_PROJECTION in allowed:
            return IndexGenerationProgram(
                kind=cat.KIND_PROJECTION,
                source_path=source_path,
                value_fields=list(projection.used_value_fields),
            )

    if direct and cat.KIND_DICTIONARY in allowed:
        return IndexGenerationProgram(
            kind=cat.KIND_DICTIONARY,
            source_path=source_path,
            dict_field=direct[0].field_name,
        )

    if delta is not None and cat.KIND_DELTA in allowed:
        return IndexGenerationProgram(
            kind=cat.KIND_DELTA,
            source_path=source_path,
            delta_fields=list(delta.fields),
        )
    return None
