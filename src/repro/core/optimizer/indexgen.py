"""Index-generation programs.

"Submitting a job for execution yields not just a program result, but also
an index-generation program.  This program is itself a MapReduce program,
and when executed generates an indexed version of the submitted job's
input data" (paper Section 2.2).  Whether to *run* it is the
administrator's decision, like creating an index in an RDBMS.

This module synthesizes those programs from analysis results.  The
selection index builder really is a MapReduce job on the execution fabric
(its shuffle provides the global sort the B+Tree bulk loader needs); the
rewrite-style builders (projection / delta / dictionary) are map-only
record transformations implemented as streaming passes, which is exactly
what a map-only Hadoop job with a custom output format would do.

Per the paper, "the current analyzer always chooses the index program that
exploits as many optimizations as possible", with the one conflict rule
that selection is favored over delta-compression (footnote 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.analyzer.descriptors import InputAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.core.optimizer.predicates import compile_selection
from repro.exceptions import OptimizerError
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.formats import RecordFileInput, frame_index_entry
from repro.mapreduce.job import JobConf
from repro.mapreduce.runtime import LocalJobRunner
from repro.storage import input_identity
from repro.storage.btree import BTreeBuilder
from repro.storage.columnfile import (
    META_BASE_SCHEMA,
    META_KEPT_FIELDS,
    copy_records,
    project_record,
)
from repro.storage.delta import DeltaFileWriter
from repro.storage.dictionary import DictionaryFileWriter
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import Schema


class _IndexEmitMapper(Mapper):
    """Map side of the selection-index job: emit (encoded field, record)."""

    def __init__(self, field_name: str, field_type, key_schema: Schema,
                 value_schema: Schema, stored_schema: Schema):
        self.field_name = field_name
        self.field_type = field_type
        self.key_schema = key_schema
        self.value_schema = value_schema
        #: schema actually stored in the tree (projected for combined kind)
        self.stored_schema = stored_schema

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        index_key = encode_key(self.field_type, getattr(value, self.field_name))
        stored = value
        if self.stored_schema is not self.value_schema:
            stored = project_record(value, self.stored_schema)
        framed = frame_index_entry(
            self.key_schema.encode(key), self.stored_schema.encode(stored)
        )
        ctx.emit(index_key, framed)


class _BTreeWriterReducer(Reducer):
    """Reduce side: consume globally sorted keys, bulk-load the B+Tree."""

    def __init__(self, path: str, page_size: int, metadata: dict):
        self.path = path
        self.page_size = page_size
        self.metadata = metadata
        self.builder: Optional[BTreeBuilder] = None
        self.stats = None

    def setup(self, ctx: Context) -> None:
        self.builder = BTreeBuilder(self.path, self.page_size,
                                    metadata=self.metadata)

    def reduce(self, key: Any, values, ctx: Context) -> None:
        assert self.builder is not None
        for framed in values:
            self.builder.add(key, framed)

    def cleanup(self, ctx: Context) -> None:
        assert self.builder is not None
        self.stats = self.builder.finish()


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
    page_size: int = 4096

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
        return "IndexGenerationProgram(" + ", ".join(parts) + ")"

    # -- execution ------------------------------------------------------------

    def run(self, catalog: Catalog,
            runner: Optional[LocalJobRunner] = None) -> IndexEntry:
        """Build the index and register it in the catalog.

        The entry is stamped with the source's identity as it was
        *before* the build read it, and the source is checked again
        afterwards: an index over bytes that moved mid-build would be
        born stale, so its file is deleted and nothing is registered.
        """
        stamp = input_identity(self.source_path)
        if self.kind in (cat.KIND_SELECTION, cat.KIND_SELECTION_PROJECTION):
            # The selection builder's reducer bulk-loads the B+Tree and
            # reports stats through in-process instance state, so this
            # infrastructure job must not fan out to worker processes.
            # Only a multi-process runner is downgraded; any other
            # caller-supplied runner (instrumented wrappers etc.) is
            # honored as before.
            from repro.mapreduce.parallel import ParallelJobRunner

            if runner is None or isinstance(runner, ParallelJobRunner):
                runner = LocalJobRunner()
            entry = self._build_selection(catalog, runner)
        elif self.kind in _REWRITE_SUFFIX:
            entry = self._build_rewrite(catalog)
        else:
            raise OptimizerError(f"unknown index kind {self.kind!r}")
        if input_identity(self.source_path) != stamp:
            os.remove(entry.index_path)
            raise OptimizerError(
                f"source changed during index build: {self.source_path}"
            )
        entry.source_identity = list(stamp)
        catalog.register(entry)
        return entry

    def _build_selection(self, catalog: Catalog,
                         runner: LocalJobRunner) -> IndexEntry:
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
        field_type = value_schema.field(self.key_field).ftype

        index_path = catalog.next_index_path(self.kind) + ".btree"
        metadata = {
            "key_schema": key_schema.to_dict(),
            "value_schema": stored_schema.to_dict(),
            "key_field": self.key_field,
            "key_field_type": field_type.value,
            "source_path": os.path.abspath(self.source_path),
            "source_records": source_records,
        }
        reducer = _BTreeWriterReducer(index_path, self.page_size, metadata)
        conf = JobConf(
            name=f"index-gen:{self.kind}:{os.path.basename(self.source_path)}",
            mapper=_IndexEmitMapper(
                self.key_field, field_type, key_schema, value_schema,
                stored_schema,
            ),
            reducer=reducer,
            inputs=[RecordFileInput(self.source_path)],
            num_reducers=1,  # global sort order feeds the bulk loader
        )
        runner.run(conf)
        stats = reducer.stats
        assert stats is not None
        return IndexEntry(
            index_id=catalog.make_entry_id(),
            kind=self.kind,
            source_path=os.path.abspath(self.source_path),
            index_path=index_path,
            key_field=self.key_field,
            value_fields=(
                [f.name for f in stored_schema.fields]
                if self.kind == cat.KIND_SELECTION_PROJECTION
                else None
            ),
            stats={
                "source_bytes": source_bytes,
                "source_records": source_records,
                "index_bytes": stats.file_size,
                "index_records": stats.n_entries,
                "btree_pages": stats.n_pages,
                "btree_leaves": stats.n_leaves,
            },
        )

    def _build_rewrite(self, catalog: Catalog) -> IndexEntry:
        """Projection, delta, dictionary and projection+delta builds: one
        streaming copy of the source through a block-file writer, differing
        in which fields are kept and which value codec the writer applies.
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
            # The value codec: a writer class plus its one extra argument.
            delta_fields = None
            writer_class, codec_args = RecordFileWriter, ()
            if self.kind in (cat.KIND_DELTA, cat.KIND_PROJECTION_DELTA):
                delta_fields = list(
                    self.delta_fields or stored.numeric_field_names()
                )
                if projecting:
                    delta_fields = [f for f in delta_fields if stored.has_field(f)]
                if not delta_fields:
                    raise OptimizerError(
                        f"{self.kind} index has no numeric fields to delta-code"
                    )
                writer_class, codec_args = DeltaFileWriter, (delta_fields,)
            elif self.kind == cat.KIND_DICTIONARY:
                if not self.dict_field:
                    raise OptimizerError("dictionary index needs dict_field")
                writer_class, codec_args = DictionaryFileWriter, (self.dict_field,)

            index_path = (
                catalog.next_index_path(self.kind) + _REWRITE_SUFFIX[self.kind]
            )
            with writer_class(index_path, key_schema, stored, *codec_args,
                              metadata=metadata) as writer:
                records = copy_records(
                    reader, writer, stored if projecting else None
                )
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


#: Rewrite-style index kinds and their file suffixes.
_REWRITE_SUFFIX = {
    cat.KIND_PROJECTION: ".proj",
    cat.KIND_PROJECTION_DELTA: ".projdelta",
    cat.KIND_DELTA: ".delta",
    cat.KIND_DICTIONARY: ".dict",
}


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
