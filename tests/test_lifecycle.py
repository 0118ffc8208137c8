"""Lifecycle differential harness: answers stay right over the *life* of the
data, not just one ``submit``.

Each seeded sequence drives one catalog through a random interleaving of
the things that happen to a deployment -- files written and rewritten,
indexes built, evicted under a space budget and removed by hand, the
session reopened on the same catalog directory -- and, in between, reads
through both front doors (``Manimal.submit`` and the fluent ``Dataset``).
Every read must equal a plain-Python oracle computed from the rows the
harness itself last wrote, and no plan may name an index that was built
from bytes the source no longer holds.

The harness covers the in-process entry points; service ops and
append-by-rewrite are listed in ROADMAP.md as its remaining extensions.
"""

import builtins
import os
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.service.server as server_module
from repro import Session, col
from repro.core.manimal import Manimal
from repro.core.optimizer import catalog as cat
from repro.engine import ExecutionEngine
from repro.explain import explain_job
from repro.mapreduce import JobConf, Mapper, RecordFileInput, Reducer
from repro.service import QueryServer, deserialize_rows
from repro.service.protocol import decode_bytes
from repro.storage import input_identity, varint
from repro.storage.btree import BTreeBuilder
from repro.storage.orderkeys import encode_key
from repro.storage.recordfile import RecordFileWriter
from repro.storage.serialization import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Schema,
)
from tests.conftest import index_files, remote_read

PAGE = Schema("Page", [
    Field("url", FieldType.STRING),
    Field("rank", FieldType.INT),
    Field("topic", FieldType.STRING),
])

SEQUENCES_PER_SEED = 110     # two seeds -> 220 sequences
OPS_PER_SEQUENCE = 10
FILES = ("a.rf", "b.rf")
#: Indexes over these 20-59 row files are 0.4-1.9 KB: any one fits, two
#: usually do, a third does not -- so builds evict.
SPACE_BUDGET = 2_500


# -- the programs under test, and their plain-Python meaning -------------------


class RankCountMapper(Mapper):
    """``SELECT rank, COUNT(*) WHERE rank > t GROUP BY rank``: selection,
    projection and delta opportunities."""

    def __init__(self, threshold):
        self.threshold = threshold

    def map(self, key, value, ctx):
        if value.rank > self.threshold:
            ctx.emit(value.rank, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class TopicRankMapper(Mapper):
    """``topic`` is only ever a group key: the direct-operation shape a
    dictionary index serves."""

    def map(self, key, value, ctx):
        ctx.emit(value.topic, value.rank)


class AnonymousSumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(None, sum(values))


def rank_count_job(path, threshold):
    return JobConf(name="rank-count", mapper=RankCountMapper(threshold),
                   reducer=SumReducer, inputs=[RecordFileInput(path)])


def topic_sum_job(path, _threshold):
    return JobConf(name="topic-sum", mapper=TopicRankMapper,
                   reducer=AnonymousSumReducer,
                   inputs=[RecordFileInput(path)])


def oracle_rank_count(rows, threshold):
    return Counter(rank for _url, rank, _topic in rows if rank > threshold)


def oracle_topic_sum(rows, _threshold):
    sums = Counter()
    for _url, rank, topic in rows:
        sums[topic] += rank
    return Counter(sums.values())


CLASSIC = (
    (rank_count_job, oracle_rank_count, lambda out: Counter(dict(out))),
    (topic_sum_job, oracle_topic_sum,
     lambda out: Counter(total for _none, total in out)),
)
#: which kinds each classic job's index-generation program can be
CLASSIC_KINDS = (
    (cat.KIND_SELECTION, cat.KIND_SELECTION_PROJECTION, cat.KIND_PROJECTION,
     cat.KIND_PROJECTION_DELTA, cat.KIND_DELTA),
    (cat.KIND_DICTIONARY, cat.KIND_DELTA, cat.KIND_PROJECTION),
)


def fluent_filter(session, path, threshold):
    return (session.read(path).filter(col("rank") > threshold)
            .select("url", "rank"))


def fluent_agg(session, path, threshold):
    return (session.read(path).filter(col("rank") > threshold)
            .group_by("topic").agg(n=("count", None), top=("max", "rank")))


def oracle_fluent_filter(rows, threshold):
    return sorted((url, rank) for url, rank, _topic in rows
                  if rank > threshold)


def oracle_fluent_agg(rows, threshold):
    groups = {}
    for _url, rank, topic in rows:
        if rank > threshold:
            n, top = groups.get(topic, (0, rank))
            groups[topic] = (n + 1, max(top, rank))
    return sorted((topic, n, top) for topic, (n, top) in groups.items())


FLUENT = (
    (fluent_filter, oracle_fluent_filter,
     lambda rows: sorted((v.url, v.rank) for _key, v in rows)),
    (fluent_agg, oracle_fluent_agg,
     lambda rows: sorted((k, v.n, v.top) for k, v in rows)),
)


# -- one sequence ---------------------------------------------------------------


class Lifecycle:
    """One catalog directory, two source files, and what they should hold."""

    def __init__(self, root, rng, coverage):
        self.root = root
        self.rng = rng
        self.coverage = coverage
        self.catalog_dir = os.path.join(root, "cat")
        self.cost_based = rng.random() < 0.3
        self.rows = {}
        # Every version of a file gets a row count no earlier version of
        # it had, and rows are fixed-width, so every rewrite changes the
        # file's *size*.  That is deliberate: a same-size rewrite inside
        # one mtime tick is invisible to every size+mtime check -- the
        # engine caches before this harness existed, the catalog stamp
        # now -- and the harness would then be testing the file system's
        # clock, not the system.
        self.unused_counts = {
            name: rng.sample(range(20, 60), 40) for name in FILES
        }
        self.session = None
        self.reopen()
        for name in FILES:
            self.rewrite(name)

    def path(self, name):
        return os.path.join(self.root, name)

    def reopen(self):
        """A new process's view: everything reloaded from the directory."""
        if self.session is not None:
            self.session.close()
        self.session = Session(
            catalog_dir=self.catalog_dir, workdir=os.path.join(self.root, "w"),
            space_budget_bytes=SPACE_BUDGET, cost_based=self.cost_based,
        )
        self.system = self.session.system

    def rewrite(self, name):
        rng = self.rng
        rows = [(f"u{i:04d}", rng.randrange(100), f"topic{rng.randrange(4)}")
                for i in range(self.unused_counts[name].pop())]
        with RecordFileWriter(self.path(name), LONG_SCHEMA, PAGE,
                              block_size=1024) as writer:
            for i, row in enumerate(rows):
                writer.append(LONG_SCHEMA.make(i), PAGE.make(*row))
        self.rows[name] = rows

    # -- operations ---------------------------------------------------------

    def op_rewrite(self):
        self.rewrite(self.rng.choice(FILES))

    def op_build(self):
        rng = self.rng
        which = rng.randrange(len(CLASSIC))
        job = CLASSIC[which][0](self.path(rng.choice(FILES)),
                                rng.randrange(100))
        catalog = self.system.catalog
        live = {e.index_id for e in catalog.sorted_entries()
                if e.built_from(input_identity(e.source_path))}
        built = self.system.build_indexes(
            job, allowed_kinds=[rng.choice(CLASSIC_KINDS[which])])
        for entry in built:
            assert entry.built_from(input_identity(entry.source_path))
        # A *live* index that vanished during a build was evicted to fit
        # the budget (a stale one may just have been replaced).
        self.coverage["evicted"] += len(
            live - {e.index_id for e in catalog.sorted_entries()})

    def op_remove(self):
        entries = self.system.catalog.sorted_entries()
        if entries:
            self.system.catalog.remove(self.rng.choice(entries).index_id)

    def op_reopen(self):
        self.reopen()

    def op_submit(self):
        rng = self.rng
        make_job, oracle, shape = rng.choice(CLASSIC)
        name, threshold = rng.choice(FILES), rng.randrange(100)
        outcome = self.system.submit(
            make_job(self.path(name), threshold),
            build_indexes=rng.random() < 0.2,
            runner=2 if rng.random() < 0.03 else None,
        )
        self.check_plans([outcome.descriptor])
        assert shape(outcome.result.outputs) == \
            oracle(self.rows[name], threshold)

    def op_fluent(self):
        rng = self.rng
        build, oracle, shape = rng.choice(FLUENT)
        name, threshold = rng.choice(FILES), rng.randrange(100)
        build_indexes = rng.random() < 0.2
        # once drew a stage scheduler; kept so the seeded ops are unchanged
        rng.random()
        result = build(self.session, self.path(name), threshold).run(
            build_indexes=build_indexes,
        )
        self.check_plans(result.descriptors())
        assert shape(result.rows) == oracle(self.rows[name], threshold)

    OPS = (op_rewrite, op_build, op_remove, op_reopen, op_submit, op_fluent)
    WEIGHTS = (4, 4, 1, 1, 5, 5)

    # -- invariants ---------------------------------------------------------

    def check_plans(self, descriptors):
        """No plan names an index built from bytes its source lost."""
        for descriptor in descriptors:
            for plan in descriptor.plans:
                if plan.entry is not None:
                    assert plan.entry.built_from(
                        input_identity(plan.entry.source_path)), \
                        plan.describe()
                    self.coverage["index_used"] += 1
                elif plan.detail.startswith("stale:"):
                    self.coverage["stale_skipped"] += 1

    def check_disk(self):
        """The registry and the directory agree: no orphans, no ghosts."""
        registered = sorted(
            os.path.basename(e.index_path)
            for e in self.system.catalog.sorted_entries())
        assert index_files(self.catalog_dir) == registered
        assert self.system.catalog.total_index_bytes() <= SPACE_BUDGET

    def run(self):
        for _ in range(OPS_PER_SEQUENCE):
            [op] = self.rng.choices(self.OPS, self.WEIGHTS)
            self.coverage[op.__name__] += 1
            op(self)
        # Whatever happened, both doors still answer for both files.
        self.op_submit()
        self.op_fluent()
        self.check_disk()
        self.session.close()


@pytest.mark.parametrize("seed", [20110829, 4242])
def test_every_read_equals_the_oracle(tmp_path, seed):
    rng = random.Random(seed)
    coverage = Counter()
    for sequence in range(SEQUENCES_PER_SEED):
        root = tmp_path / f"s{sequence}"
        root.mkdir()
        try:
            Lifecycle(str(root), rng, coverage).run()
        except AssertionError as exc:
            raise AssertionError(
                f"seed {seed}, sequence {sequence}: {exc}") from exc
    # The harness only proves something while it keeps reaching the
    # interesting states; seeded, so these hold or fail deterministically.
    for counter in ("op_rewrite", "op_build", "op_remove", "op_reopen",
                    "op_submit", "op_fluent", "evicted", "index_used",
                    "stale_skipped"):
        assert coverage[counter] > 0, (counter, dict(coverage))


# -- an index in the retired page-codec B+Tree format ---------------------------


def _legacy_selection_index(system, path, rows):
    """Register a selection index on ``rank`` the way a catalog from
    before the index-file format holds one: written by the page-codec
    B+Tree builder, each entry framed ``uvarint klen | key | value``."""
    index_path = (system.catalog.next_index_path(cat.KIND_SELECTION)
                  + cat.OLD_SELECTION_SUFFIX)
    builder = BTreeBuilder(index_path, metadata={
        "key_schema": LONG_SCHEMA.to_dict(), "value_schema": PAGE.to_dict(),
        "key_field": "rank"})
    for i, row in sorted(enumerate(rows), key=lambda item: item[1][1]):
        kraw = LONG_SCHEMA.encode(LONG_SCHEMA.make(i))
        builder.add(encode_key(FieldType.INT, row[1]),
                    varint.encode_uvarint(len(kraw)) + kraw
                    + PAGE.encode(PAGE.make(*row)))
    builder.finish()
    entry = cat.IndexEntry(
        index_id=system.catalog.make_entry_id(), kind=cat.KIND_SELECTION,
        source_path=os.path.abspath(path), index_path=index_path,
        key_field="rank", stats={"index_bytes": os.path.getsize(index_path)},
        source_identity=list(input_identity(path)))
    system.catalog.register(entry)
    return entry


def test_old_format_index_is_refused_then_rebuilt(tmp_path, monkeypatch):
    path = str(tmp_path / "a.rf")
    rows = [(f"u{i:04d}", (i * 37) % 100, f"topic{i % 4}") for i in range(50)]
    with RecordFileWriter(path, LONG_SCHEMA, PAGE) as writer:
        for i, row in enumerate(rows):
            writer.append(LONG_SCHEMA.make(i), PAGE.make(*row))
    catalog_dir = str(tmp_path / "cat")
    system = Manimal(catalog_dir)
    old = _legacy_selection_index(system, path, rows)
    job = rank_count_job(path, 60)
    expected = oracle_rank_count(rows, 60)

    # planned without opening the old file: its path says what it is
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(os.path.abspath(str(file)))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    outcome = system.submit(job)
    monkeypatch.undo()
    assert os.path.abspath(old.index_path) not in opened
    plan = outcome.descriptor.plans[0]
    assert plan.entry is None and not outcome.optimized
    assert plan.detail == ("old format: 1 page-codec B+Tree index(es) "
                           "skipped; build_indexes rebuilds them")
    assert Counter(dict(outcome.result.outputs)) == expected
    assert "old format: 1 page-codec B+Tree index(es)" in explain_job(
        job, catalog_dir=catalog_dir)

    # the admin's build drops it, file and all, and builds the new format
    built = system.build_indexes(job, allowed_kinds=[cat.KIND_SELECTION])
    assert [e.kind for e in built] == [cat.KIND_SELECTION]
    assert not os.path.exists(old.index_path)
    assert [e.index_id for e in system.catalog.sorted_entries()] == \
        [built[0].index_id]
    assert index_files(catalog_dir) == [os.path.basename(built[0].index_path)]
    assert built[0].index_path.endswith(cat.SELECTION_SUFFIX)
    outcome = system.submit(job)
    assert outcome.descriptor.plans[0].entry.index_id == built[0].index_id
    assert "btree-scan(" in outcome.descriptor.describe()
    assert Counter(dict(outcome.result.outputs)) == expected


# -- the same life, lived through the query service ------------------------------

SERVICE_SEQUENCES_PER_SEED = 50
TENANTS = ("t", "u")
READ_THRESHOLDS = (10, 50, 90)
DERIVED = "derived.rf"


#: what :data:`FLUENT`'s builders need of a session: ``read``
_RemoteReader = SimpleNamespace(read=remote_read)


class ServiceLifecycle(Lifecycle):
    """Tenant ``t``'s catalog driven through server ops only; tenant ``u``
    reads the same files beside it, from a catalog of its own."""

    def __init__(self, root, rng, coverage, engine, window, served):
        self.engine = engine
        self.window = window
        self.served = served
        self.server = None
        super().__init__(root, rng, coverage)
        # the derived file exists once a remote write has produced it
        self.derived_counts = set()

    def reopen(self):
        if self.server is not None:
            self.server.close()
        self.server = QueryServer(
            os.path.join(self.root, "svc"), engine=self.engine,
            batch_window_seconds=self.window,
            space_budget_bytes=SPACE_BUDGET, cost_based=self.cost_based,
        )
        state = self.server.tenants.get(TENANTS[0])
        self.catalog_dir = state.catalog_dir
        self.system = state.session.system

    def call(self, tenant, **request):
        response = self.server.handle(dict(request, tenant=tenant))
        assert response["ok"], response
        return response

    def fetch(self, tenant, submitted):
        response = self.call(tenant, op="fetch", timeout=60,
                             job_id=submitted["job_id"])
        return deserialize_rows(decode_bytes(response["payload"]))

    def readable(self):
        return [name for name in self.rows if name in FILES
                or self.derived_counts]

    # -- operations ---------------------------------------------------------

    def op_build(self):
        rng = self.rng
        build, _oracle, _shape = rng.choice(FLUENT)
        name = rng.choice(self.readable())
        catalog = self.system.catalog
        live = {e.index_id for e in catalog.sorted_entries()
                if e.built_from(input_identity(e.source_path))}
        query = build(_RemoteReader, self.path(name), rng.randrange(100))
        built = self.fetch(TENANTS[0], self.call(
            TENANTS[0], op="catalog", action="build-indexes",
            query=query.ops, allowed_kinds=[rng.choice(cat.ALL_KINDS)]))
        listed = {e["index_id"]: e for e in self.call(
            TENANTS[0], op="catalog", action="list")["indexes"]}
        for entry in built:
            assert not listed[entry["index_id"]]["stale"]
        self.coverage["built"] += len(built)
        self.coverage["evicted"] += len(live - set(listed))

    def op_remove(self):
        listed = self.call(TENANTS[0], op="catalog", action="list")["indexes"]
        self.coverage["stale_listed"] += sum(e["stale"] for e in listed)
        if listed:
            self.call(TENANTS[0], op="catalog", action="drop-index",
                      index_id=self.rng.choice(listed)["index_id"])

    def op_remote_write(self):
        """(Re)write the derived file as a filter of a base file: a
        remote ``write`` over a path ``t`` may hold indexes on."""
        rng = self.rng
        source = rng.choice(FILES)
        # As for the base files: every version has a row count no
        # earlier version had, so every rewrite changes the size.
        counts = Counter(rank for _url, rank, _topic in self.rows[source])
        fresh = [t for t in range(100)
                 if sum(n for rank, n in counts.items() if rank > t)
                 not in self.derived_counts | {0}]
        if not fresh:
            return
        threshold = rng.choice(fresh)
        query = _RemoteReader.read(self.path(source)).filter(
            col("rank") > threshold)
        submitted = self.call(TENANTS[0], op="submit", query=query.ops,
                              write={"path": DERIVED})
        self.fetch(TENANTS[0], submitted)
        assert submitted["path"] == self.path(DERIVED)
        self.rows[DERIVED] = [row for row in self.rows[source]
                              if row[1] > threshold]
        self.derived_counts.add(len(self.rows[DERIVED]))
        self.coverage["remote_writes"] += 1

    def path(self, name):
        if name == DERIVED:
            return os.path.join(
                self.server.tenants.get(TENANTS[0]).data_dir, DERIVED)
        return super().path(name)

    def op_fluent(self):
        """One read, or two tenants' reads of one file submitted
        together -- which a batching window may serve as one dispatch."""
        rng = self.rng
        name = rng.choice(self.readable())
        reads = []
        for tenant in TENANTS[:rng.choice((1, 1, 2))]:
            build, oracle, shape = rng.choice(FLUENT)
            # few distinct literals, so repeats meet the result cache --
            # including repeats across a rewrite, which must miss
            threshold = rng.choice(READ_THRESHOLDS)
            options = {}
            if tenant == TENANTS[0] and rng.random() < 0.2:
                options["build_indexes"] = True
            # once drew a stage scheduler; kept so the seeded ops are
            # unchanged
            rng.random()
            query = build(_RemoteReader, self.path(name), threshold)
            submitted = self.call(tenant, op="submit", query=query.ops,
                                  options=options)
            self.coverage["cache_hits"] += submitted["cached"]
            reads.append((tenant, submitted, shape,
                          oracle(self.rows[name], threshold)))
        del self.served[:]
        for tenant, submitted, shape, expected in reads:
            assert shape(self.fetch(tenant, submitted)) == expected
        for results in self.served:
            self.coverage["window_batches"] += len(results) > 1
            for result in results:
                self.check_plans(result.descriptors())

    OPS = (Lifecycle.op_rewrite, op_build, op_remove, Lifecycle.op_reopen,
           op_remote_write, op_fluent)
    WEIGHTS = (4, 4, 1, 1, 2, 8)

    def run(self):
        for _ in range(OPS_PER_SEQUENCE):
            [op] = self.rng.choices(self.OPS, self.WEIGHTS)
            self.coverage[op.__name__] += 1
            op(self)
        self.op_fluent()
        self.check_disk()
        self.server.close()


@pytest.mark.parametrize("seed,window", [
    (20110829, 0.0), (4242, 0.02), (19, 0.0), (1106, 0.02),
])
def test_every_served_read_equals_the_oracle(tmp_path, monkeypatch,
                                             seed, window):
    rng = random.Random(seed)
    coverage = Counter()
    engine = ExecutionEngine(reap_scratch=False)
    served = []
    real_run_plans = server_module.run_plans

    def run_plans(items, **options):
        results = real_run_plans(items, **options)
        served.append(results)
        return results

    monkeypatch.setattr(server_module, "run_plans", run_plans)
    try:
        for sequence in range(SERVICE_SEQUENCES_PER_SEED):
            root = tmp_path / f"s{sequence}"
            root.mkdir()
            try:
                ServiceLifecycle(str(root), rng, coverage, engine, window,
                                 served).run()
            except AssertionError as exc:
                raise AssertionError(
                    f"seed {seed}, sequence {sequence}: {exc}") from exc
    finally:
        engine.shutdown()
    for counter in ("op_rewrite", "op_build", "op_remove", "op_reopen",
                    "op_remote_write", "op_fluent", "built", "evicted",
                    "index_used", "stale_skipped", "remote_writes",
                    "cache_hits"):
        assert coverage[counter] > 0, (counter, dict(coverage))
    assert (coverage["window_batches"] > 0) == (window > 0), dict(coverage)
