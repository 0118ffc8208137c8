"""The generated-code corpus pinned by ``tests/golden/codegen.json``.

:func:`snapshot` lowers a fixed set of fluent queries -- the seeded
random chains of ``test_batch_equivalence.py`` (column-expression and
UDF chains), the callables of ``test_explain.py`` and the admitted UDF
shapes of ``test_udf_translation.py`` -- and records, per query, every
text the expression algebra feeds: synthesized stage-mapper source,
kernel source, ``explain()`` output, selection hints and the remote op
JSON -- plus the compiled block scanner's source for two scan shapes
(:data:`SCAN_SHAPES`).  The golden was recorded at the commit *before* fluent ``Expr``
became sugar over ``SymExpr`` and must never change by accident: the
stage source is what the analyzer re-derives formulas from, and the op
JSON is the query service's result-cache identity.

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
from repro.api.remote import op_filter
from repro.api.session import Session
from repro.batch.columns import build_scan_plan
from repro.batch.kernels import compile_predicates
from repro.batch.spec import BatchStageSpec
from repro.explain import explain_job
from repro.storage.serialization import LONG_SCHEMA, Field, FieldType, Schema
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
#: and a map (keys decoded, one string capture).
SCAN_SHAPES = {
    "aggregate": BatchStageSpec(
        kind="aggregate", predicates=[(col("a") > 1).to_symbolic()],
        group_column="b", aggs=[("count", None)]),
    "map": BatchStageSpec(
        kind="map", project_columns=["name"],
        out_value_schema=SCAN_VALUES.project(["name"])),
}


def _stage_texts(plan):
    """Every generated text of one lowered plan, stage by stage."""
    out = []
    for stage in plan.stages:
        conf = stage.conf
        mappers = {"": conf.mapper}
        mappers.update(conf.per_input_mappers or {})
        kernels = {}
        for tag, spec in conf.batch_specs.items():
            kernel = compile_predicates(spec.predicates, spec.derived_exprs())
            kernels[str(tag)] = None if kernel is None else kernel.source
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
        }
        for name, dataset in named.items():
            queries[name] = _query_texts(session, dataset, root)

        classic = explain_job(test_explain._job(
            pages_path, test_explain.FilterMapper())).replace(root, "<ROOT>")

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
        "remote_ops": ops,
        "frozen_exprs": [json.dumps(e.to_dict()) for e in FROZEN_EXPRS],
        "frozen_sources": [expr.to_source("value") for expr in FROZEN_EXPRS],
        "scanners": {
            name: build_scan_plan(LONG_SCHEMA, SCAN_VALUES, spec).scanner.source
            for name, spec in SCAN_SHAPES.items()
        },
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
