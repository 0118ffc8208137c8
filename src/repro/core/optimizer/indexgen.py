"""Index-generation programs.

"Submitting a job for execution yields not just a program result, but also
an index-generation program.  This program is itself a MapReduce program,
and when executed generates an indexed version of the submitted job's
input data" (paper Section 2.2).  Whether to *run* it is the
administrator's decision, like creating an index in an RDBMS.

This module synthesizes those programs from analysis results.  Every
kind runs as one copy of the source into one layout, a columnar file
(:mod:`repro.storage.columnar`), through
:func:`~repro.storage.columnar.copy_columns`: projection keeps fewer
columns, delta and dictionary are the codecs of theirs, and a selection
index is the copy sorted on one field -- the scanned rows ordered by a
stable sort on that field's order key, the global sort a Hadoop build
would get from its shuffle.

Per the paper, "the current analyzer always chooses the index program that
exploits as many optimizations as possible", with the one conflict rule
that selection is favored over delta-compression (footnote 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.analyzer.descriptors import InputAnalysis
from repro.core.optimizer import catalog as cat
from repro.core.optimizer.catalog import Catalog, IndexEntry
from repro.core.optimizer.predicates import compile_selection
from repro.exceptions import BTreeError, OptimizerError
from repro.storage import input_identity
from repro.storage.columnar import ColumnarFileWriter, copy_columns
from repro.storage.columnfile import META_BASE_SCHEMA, META_KEPT_FIELDS
from repro.storage.recordfile import RecordFileReader


class IndexDeclined(OptimizerError):
    """A selection index whose field holds a value with no index order
    (a NaN): the build is skipped, not failed."""


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

    def run(self, catalog: Catalog) -> IndexEntry:
        """Build the index and register it in the catalog.

        The entry is stamped with the source's identity as it was
        *before* the build read it, and the source is checked again
        afterwards: an index over bytes that moved mid-build would be
        born stale.  A build that fails -- on a source that moved, a
        damaged source, any exception -- deletes its file and registers
        nothing, so the catalog's registry and its directory still agree.
        """
        stamp = input_identity(self.source_path)
        if self.kind not in cat.ALL_KINDS:
            raise OptimizerError(f"unknown index kind {self.kind!r}")
        index_path = catalog.next_index_path(self.kind) + cat.COLUMNAR_SUFFIX
        try:
            entry = self._build(catalog, index_path)
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

    def _build(self, catalog: Catalog, index_path: str) -> IndexEntry:
        """One copy of the source into a columnar file: the kinds differ
        only in which value fields it keeps and which codec each column
        takes -- a selection kind's ``sorted`` field orders the rows.
        """
        sorted_copy = self.kind not in cat.COPY_KINDS
        projecting = self.kind in (cat.KIND_SELECTION_PROJECTION,
                                   cat.KIND_PROJECTION,
                                   cat.KIND_PROJECTION_DELTA)
        source_path = os.path.abspath(self.source_path)
        metadata: Dict[str, Any] = {"source_path": source_path}
        delta_fields = None
        codecs: Dict[str, str] = {}
        if sorted_copy:
            if not self.key_field:
                raise OptimizerError("selection index needs a key_field")
            codecs = {self.key_field: "sorted"}
        with RecordFileReader(self.source_path) as reader:
            stored = reader.value_schema
            if projecting:
                if not self.value_fields:
                    raise OptimizerError(f"{self.kind} index needs value_fields")
                keep = list(self.value_fields)
                if sorted_copy and self.key_field not in keep:
                    # The indexed field must survive projection: the
                    # residual predicate may re-check it.
                    keep.append(self.key_field)
                stored = stored.project(keep)
            if projecting and not sorted_copy:
                metadata[META_BASE_SCHEMA] = reader.value_schema.name
                metadata[META_KEPT_FIELDS] = stored.field_names()
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
            with ColumnarFileWriter(index_path, reader.key_schema, stored,
                                    codecs, metadata=metadata) as writer:
                try:
                    records = copy_columns(reader, writer)
                except BTreeError as exc:  # a value with no order key
                    raise IndexDeclined(str(exc)) from exc
            source_bytes = reader.file_size()
        return IndexEntry(
            index_id=catalog.make_entry_id(),
            kind=self.kind,
            source_path=source_path,
            index_path=index_path,
            key_field=self.key_field if sorted_copy else None,
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
