"""The generated-code corpus pinned by ``tests/golden/codegen.json``.

:func:`snapshot` lowers a fixed set of fluent queries -- the seeded
random chains of ``test_batch_equivalence.py`` (column-expression and
UDF chains), the callables of ``test_explain.py`` and the admitted UDF
shapes of ``test_udf_translation.py`` -- and records, per query, every
text the expression algebra feeds: synthesized stage-mapper source,
kernel source, ``explain()`` output, selection hints and the remote op
JSON -- plus, for two classic jobs (:data:`CLASSIC_JOBS`) and B3 over
its built indexes, the kernel the analyzer's emit spec compiles to and
their ``explain_job`` text,
the compiled block scanner's source for two batch scan
shapes (:data:`SCAN_SHAPES`) and two record-path ones
(:data:`SPLIT_SHAPES`), and the compiled block encoder's source for the
bare shape and each writer codec (:data:`ENCODER_SHAPES`).  The golden
was recorded at the commit *before* fluent ``Expr`` became sugar over
``SymExpr`` and must never change by accident: the stage source is
what the analyzer re-derives formulas from, and the op JSON is the
query service's result-cache identity.

The test modules are imported under pytest's own (top-level) names --
a second copy would re-register their opaque schemas.  Regenerate (only
when a change to generated text is intended)::

    PYTHONPATH=src:. python tests/golden_corpus.py
"""

import functools
import inspect
import json
import os
import random
import tempfile
from decimal import Decimal

import test_batch_equivalence as diff
import test_explain
import test_udf_translation

from repro.api.expressions import col, lit
from repro.api.plan import count, max_of
from repro.api.remote import op_filter
from repro.api.session import Session
from repro.batch.columns import build_scan_plan
from repro.batch.kernels import compile_predicates
from repro.batch.spec import BatchStageSpec, SRecord, column_ref
from repro.core.analyzer.analyzer import ManimalAnalyzer
from repro.explain import explain_job
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.formats import RecordFileInput
from repro.mapreduce.job import JobConf
from repro.storage.blockscan import split_scanner
from repro.storage.blockwrite import block_encoder, wire_kinds
from repro.storage.delta import DeltaFileReader, DeltaFileWriter
from repro.storage.dictionary import DictionaryFileWriter
from repro.storage.recordfile import RecordFileReader, RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    STRING_SCHEMA,
    Field,
    FieldType,
    Schema,
)
from repro.symbolic import ROLE_KEY, SConst, SParam
from tests.conftest import WEBPAGE, write_webpages

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "codegen.json")

#: Wire-form golden: ``Expr.to_dict`` JSON is the service's cache identity.
FROZEN_EXPRS = [
    col("a") > 1,
    col("a") >= lit(-3),
    (col("a") % 13 != 0) & ~(col("b") <= lit(2.5)),
    (col("a") + col("b") * 2 - 1) / 3 == lit("x"),
    (col("flag") == lit(None)) | (col("s") >= lit(b"ab")),
    (col("t") == lit(True)) | (col("t") != lit(False)),
    col("d") < lit(Decimal("1.50")),
    col("f") < lit(float("inf")),
    ~((col("a") < 1) | (col("b") > 2)) & (col("s") == "日x"),
]

#: One value field of every wire kind, so both shapes pin every skip step.
SCAN_VALUES = Schema("ScanGolden", [
    Field("name", FieldType.STRING),
    Field("a", FieldType.INT),
    Field("b", FieldType.LONG),
    Field("w", FieldType.DOUBLE),
    Field("ok", FieldType.BOOL),
    Field("raw", FieldType.BYTES),
])

#: The block-scan golden: an aggregate (keys skipped, two int captures)
#: and a map (keys decoded, one string capture) ...
SCAN_SHAPES = {
    "aggregate": BatchStageSpec(
        (column_ref("b"), SConst(1)),
        predicates=[(col("a") > 1).to_symbolic()], fold=["count"]),
    "map": BatchStageSpec(
        (SParam(ROLE_KEY), SRecord(SCAN_VALUES.project(["name"])))),
}
#: ... and the record path's: every value field captured, keys decoded,
#: over a record file and over a delta file delta-coding both ints.
SPLIT_SHAPES = {
    "record_path": (RecordFileWriter, RecordFileReader, ()),
    "record_path_delta": (DeltaFileWriter, DeltaFileReader, (["a", "b"],)),
}


#: The block-encoder golden: ``Schema.encode``'s bare shape and each
#: writer codec's framed one (LONG keys), over the all-kinds schema.
ENCODER_SHAPES = {
    "record": (RecordFileWriter, ()),
    "delta": (DeltaFileWriter, (["a", "b"],)),
    "dictionary": (DictionaryFileWriter, ("name",)),
}


class RankAboveMapper(Mapper):
    """B1's shape: a predicate, then a field emit."""

    def __init__(self, threshold=40):
        self.threshold = threshold

    def map(self, key, value, ctx: Context):
        if value.rank > self.threshold:
            ctx.emit(value.url, value.rank)


class RankByUrlMapper(Mapper):
    """B2's shape: an unconditional field emit."""

    def map(self, key, value, ctx: Context):
        ctx.emit(value.url, value.rank)


class SumValues(Reducer):
    def reduce(self, key, values, ctx: Context):
        ctx.emit(key, sum(values))


#: The classic-door golden: (mapper, reducer, combiner) per job.
CLASSIC_JOBS = {
    "b1-shaped": (RankAboveMapper(), None, None),
    "b2-shaped": (RankByUrlMapper, SumValues, SumValues),
}


def _classic_texts(path, root):
    """Each classic job's emit-spec kernel source and explain text."""
    out = {}
    for name, (mapper, reducer, combiner) in CLASSIC_JOBS.items():
        conf = JobConf(name=name, mapper=mapper, reducer=reducer,
                       combiner=combiner, inputs=[RecordFileInput(path)])
        [ia] = ManimalAnalyzer().analyze_job(conf).inputs
        spec = ia.batch_spec
        kernel = compile_predicates(spec.predicates, spec.kernel_exprs())
        out[name] = {
            "kernel": None if kernel is None else kernel.source,
            "explain": explain_job(conf).replace(root, "<ROOT>"),
        }
    return out


def _b3_texts(root):
    """B3's shape over its built indexes: the uservisits side's kernel,
    and the explain text that names the semijoin and the residual the
    selection index's range implies."""
    from repro.core.manimal import Manimal
    from repro.workloads.pavlo import benchmark3 as b3

    rankings = os.path.join(root, "rankings.rf")
    uservisits = os.path.join(root, "uservisits.rf")
    b3.generate_inputs(rankings, uservisits, 60, 400, n_urls=40)
    conf = b3.make_join_job(rankings, uservisits,
                            *b3.date_window_for_selectivity(0.05),
                            name="b3-shaped")
    catalog = os.path.join(root, "b3-catalog")
    Manimal(catalog).build_indexes(conf)
    spec = ManimalAnalyzer().analyze_job(conf).inputs[1].batch_spec
    kernel = compile_predicates(spec.predicates, spec.kernel_exprs())
    return {"kernel": kernel.source,
            "explain": explain_job(conf, catalog_dir=catalog)
            .replace(root, "<ROOT>")}


def _encoder_sources(root):
    sources = {"bare": block_encoder(
        (None, wire_kinds(SCAN_VALUES))).source}
    for name, (writer_class, extras) in ENCODER_SHAPES.items():
        path = os.path.join(root, f"{name}.enc")
        with writer_class(path, LONG_SCHEMA, SCAN_VALUES, *extras) as writer:
            sources[name] = block_encoder(writer._codec.write_shape).source
    return sources


def _split_scanner_source(root, name):
    writer, reader_class, extras = SPLIT_SHAPES[name]
    path = os.path.join(root, f"{name}.bin")
    with writer(path, LONG_SCHEMA, SCAN_VALUES, *extras):
        pass
    with reader_class(path) as reader:
        return split_scanner(reader).source


def _stage_texts(plan):
    """Every generated text of one lowered plan, stage by stage."""
    out = []
    for stage in plan.stages:
        conf = stage.conf
        mappers = {"": conf.mapper}
        mappers.update(conf.per_input_mappers or {})
        kernels = {}
        for ia in stage.hints.inputs:
            spec = ia.batch_spec
            if spec is None:
                continue
            kernel = compile_predicates(spec.predicates, spec.kernel_exprs())
            kernels[str(ia.input_tag)] = \
                None if kernel is None else kernel.source
        out.append({
            "mappers": {
                tag: inspect.getsource(m.map_source_function)
                for tag, m in mappers.items()
            },
            "kernels": kernels,
            "hints": [
                None if ia.selection is None else repr(ia.selection.formula)
                for ia in stage.hints.inputs
            ],
        })
    return out


def _query_texts(session, dataset, root):
    return {
        "stages": _stage_texts(session.lower(dataset, name="golden")),
        "explain": dataset.explain().replace(root, "<ROOT>"),
    }


def snapshot(root):
    """The whole corpus, generated under scratch directory ``root``."""
    queries = {}
    with Session(workdir=os.path.join(root, "work")) as session:
        # -- test_batch_equivalence: the seeded column-expression chains
        rng = random.Random(0xBA7C4)
        for schema_index in range(diff.N_SCHEMAS):
            schema = diff._random_schema(rng, schema_index)
            path = diff._write_dataset(root, rng, schema, schema_index)
            for chain_index in range(diff.CHAINS_PER_SCHEMA):
                seed = rng.randrange(2**32)
                dataset = diff._random_chain(
                    random.Random(seed), session.read(path), schema)
                queries[f"chain-{schema_index}-{chain_index}"] = \
                    _query_texts(session, dataset, root)

        # -- test_batch_equivalence: the seeded translated-UDF chains
        rng = random.Random(0x0DF5)
        for schema_index in range(5):
            schema = diff._random_schema(rng, schema_index)
            path = diff._write_dataset(root, rng, schema, schema_index)
            out = diff._udf_out_schema(schema, schema_index)
            for chain_index in range(8):
                seed = rng.randrange(2**32)
                dataset = diff._random_udf_chain(
                    random.Random(seed), session, path, schema, out,
                    lambda fn: fn)
                queries[f"udf-{schema_index}-{chain_index}"] = \
                    _query_texts(session, dataset, root)

        # -- test_explain / test_udf_translation: named callables
        pages_path = write_webpages(os.path.join(root, "pages.rf"), 60)
        pages = session.read(pages_path)
        named = {
            "explain-instance": pages.filter(test_explain.NotMultiple(13)),
            "explain-partial": pages.filter(functools.partial(
                test_explain.rank_not_multiple, 7)),
            "explain-opaque": pages.filter(test_explain.url_hash_even),
            "udf-def": pages.filter(test_udf_translation.above),
            "udf-local": pages.filter(test_udf_translation.above_with_local),
            "udf-instance": pages.filter(test_udf_translation.Above(45)),
            "udf-closure": pages.filter(
                test_udf_translation.closure_above(-4.5)),
            "udf-map": pages.map(test_udf_translation.doubled,
                                 value_schema=WEBPAGE).select("url", "rank"),
            "col-join": pages.filter(col("rank") > 40).select("url", "rank")
            .join(pages.filter((col("rank") < 45) | (col("url") == "x"))
                  .select("url", "content"), on="url"),
            # the stage shapes the chains above never lower to
            "opaque-map-agg": pages.map(
                test_udf_translation.rewrites_key, key_schema=STRING_SCHEMA,
                value_schema=WEBPAGE).group_by("rank").agg(n=count()),
            "udf-join-opaque": pages.map(
                test_udf_translation.doubled, value_schema=WEBPAGE)
            .join(pages.filter(test_explain.url_hash_even), on="url"),
            "agg-join": pages.group_by("url").agg(rank=max_of("rank"))
            .join(pages.select("url", "rank"), on="rank"),
            "bare-read": pages,
        }
        for name, dataset in named.items():
            queries[name] = _query_texts(session, dataset, root)

        classic = explain_job(test_explain._job(
            pages_path, test_explain.FilterMapper())).replace(root, "<ROOT>")
        classic_jobs = _classic_texts(pages_path, root)
        classic_jobs["b3-shaped"] = _b3_texts(root)

    # -- remote op JSON for seeded predicates, and the frozen wire list
    rng = random.Random(0x0F11)
    schema = diff._random_schema(rng, 0)
    visible = [f.name for f in schema.fields]
    ops = [
        json.dumps(op_filter(diff._random_predicate(rng, schema, visible)))
        for _ in range(40)
    ]
    return {
        "queries": queries,
        "classic_explain": classic,
        "classic_jobs": classic_jobs,
        "remote_ops": ops,
        "frozen_exprs": [json.dumps(e.to_dict()) for e in FROZEN_EXPRS],
        "frozen_sources": [expr.to_source("value") for expr in FROZEN_EXPRS],
        "scanners": {
            **{name: build_scan_plan(LONG_SCHEMA, SCAN_VALUES, spec)
               .scanner.source for name, spec in SCAN_SHAPES.items()},
            **{name: _split_scanner_source(root, name)
               for name in SPLIT_SHAPES},
        },
        "encoders": _encoder_sources(root),
    }


def main():
    with tempfile.TemporaryDirectory() as root:
        data = snapshot(root)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, ensure_ascii=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(data['queries'])} queries")


if __name__ == "__main__":
    main()
