"""Every door a fluent query can come in by, as one differential.

``Dataset.run``, ``Session.run_many`` (of one, of compatible peers, of
incompatible peers) and a :class:`~repro.service.QueryServer` dispatch
(window 0, and held in a batching window with a peer from another
tenant) all end in :func:`repro.api.session.run_plans`, and every plan,
whether or not a shared scan ran its first stage, is assembled by
``ManimalPipeline.submit``.  So each door must hand back the *same
result object* as ``Dataset.run`` -- rows, per-stage descriptors, index
programs -- and a batch of one must do no grouping work.  An option no
door knows is refused before anything runs: a ``TypeError`` in-process,
a ``bad-request`` error frame from a server.  The route a cell took
(shared scan or solo) is asserted, not assumed.
"""

import re

import pytest

import repro.batch.multiscan as multiscan_module
import repro.service.server as server_module
from repro import Session, col
from repro.engine import ExecutionEngine
from repro.service import QueryServer
from repro.service.payload import serialize_rows
from repro.service.protocol import ERR_BAD_REQUEST, decode_bytes
from tests.conftest import remote_read, write_webpages

DOORS = ("run", "many_of_one", "many_compatible", "many_incompatible",
         "service_window_0", "service_window")
WINDOW = 0.3


def _aggregate(read, path, low):
    return (read(path).filter(col("rank") > low).group_by("rank")
            .agg(rank=("max", "rank"), n=("count", None)))


#: shape -> (file it scans, builder over a ``read(path)`` callable, doors
#: on which its first stage rides a shared scan with the compatible peer)
SHAPES = {
    "map_only_select": (
        "pages", lambda read, p: read(p).filter(col("rank") > 30)
        .select("url", "rank"), ("many_compatible", "service_window")),
    "typed_aggregate": (
        "pages", lambda read, p: read(p).filter(col("rank") > 5)
        .group_by("rank").agg(n=("count", None)),
        ("many_compatible", "service_window")),
    # two reads: the server holds only single-file queries in a window
    "aggregate_join": (
        "pages", lambda read, p: _aggregate(read, p, 5)
        .join(_aggregate(read, p, 9), on="rank"), ("many_compatible",)),
    # served from a B+Tree: not a record-file scan, so never shared
    "index_served_filter": (
        "indexed", lambda read, p: read(p).filter(col("rank") > 47)
        .select("url", "rank"), ()),
}


def _batch_size(door, shape):
    """Plans the door hands ``run_plans`` in the call serving ``shape``."""
    if door in ("many_compatible", "many_incompatible"):
        return 2
    if door == "service_window" and shape != "aggregate_join":
        return 2
    return 1


def _peer(read, path):
    return read(path).filter(col("rank") < 10).select("url")


def _normalised(text):
    """Stage names, scratch sequence numbers and directories removed."""
    text = re.sub(r"fluent-q\d+", "fluent-q#", text)
    text = re.sub(r"-\d+\.rf", "-#.rf", text)
    return re.sub(r"/[^\s()']*/", "", text)


def _index_programs(result):
    return [
        [None if p is None else _normalised(p.describe())
         for p in stage.outcome.index_programs]
        for stage in result.stages
    ]


class World:
    """Two files, one in-process Session and two servers on one engine,
    with spies on the two seams the matrix asserts about."""

    def __init__(self, root):
        self.engine = ExecutionEngine(max_workers=2, reap_scratch=False)
        self.paths = {
            "pages": write_webpages(root / "pages.rf", 400),
            "indexed": write_webpages(root / "indexed.rf", 400),
            "other": write_webpages(root / "other.rf", 60),
        }
        self.session = Session(workdir=str(root / "local"),
                               engine=self.engine)
        self.servers = {
            door: QueryServer(str(root / door), engine=self.engine,
                              result_cache_bytes=0,
                              batch_window_seconds=window)
            for door, window in (("service_window_0", 0.0),
                                 ("service_window", WINDOW))
        }
        index_query = SHAPES["index_served_filter"][1]
        index_query(self.session.read, self.paths["indexed"]).build_indexes(
            allowed_kinds=["selection"])
        # Both tenants build it: submissions share a window only at
        # equal catalog generations.
        for server in self.servers.values():
            for tenant in ("alice", "bob"):
                built = server.handle({
                    "op": "catalog", "action": "build-indexes",
                    "tenant": tenant, "allowed_kinds": ["selection"],
                    "query": index_query(remote_read,
                                         self.paths["indexed"]).ops,
                })
                self.fetch(server, tenant, built)
        self.grouping_calls = 0
        self.served = []

    def close(self):
        self.session.close()
        for server in self.servers.values():
            server.close()
        self.engine.shutdown()

    def install_spies(self, monkeypatch):
        real_groups = multiscan_module.plan_shared_groups
        real_run_plans = server_module.run_plans

        def plan_shared_groups(confs):
            self.grouping_calls += 1
            return real_groups(confs)

        def run_plans(items, **options):
            results = real_run_plans(items, **options)
            self.served.append((items, options, results))
            return results

        # run_plans imports the name at call time
        monkeypatch.setattr(multiscan_module, "plan_shared_groups",
                            plan_shared_groups)
        monkeypatch.setattr(server_module, "run_plans", run_plans)
        self.grouping_calls = 0
        del self.served[:]

    @staticmethod
    def fetch(server, tenant, submitted):
        assert submitted["ok"], submitted
        return server.handle({"op": "fetch", "tenant": tenant,
                              "job_id": submitted["job_id"], "timeout": 60})

    def execute(self, door, shape, **options):
        """Run ``shape`` through ``door``: (payload bytes, DatasetResult).

        Failures surface as the door's own error type: an exception
        in-process, an error frame (returned) from a server -- the
        submit's own when the server refused it at the door.
        """
        file, build, _sharing = SHAPES[shape]
        path = self.paths[file]
        if not door.startswith("service"):
            dataset = build(self.session.read, path)
            if door == "run":
                result = dataset.run(**options)
            elif door == "many_of_one":
                [result] = self.session.run_many([dataset], **options)
            else:
                peer = _peer(self.session.read,
                             path if door == "many_compatible"
                             else self.paths["other"])
                result, _ = self.session.run_many([dataset, peer], **options)
            return serialize_rows(result.rows), result

        server = self.servers[door]
        submits = [("alice", build(remote_read, path).ops)]
        if door == "service_window":
            submits.append(("bob", _peer(remote_read, path).ops))
        # Both submissions land inside one window; fetches wait it out.
        submitted = [
            server.handle({"op": "submit", "tenant": tenant, "query": ops,
                           "options": options})
            for tenant, ops in submits
        ]
        if not submitted[0]["ok"]:
            return submitted[0], None
        fetched = [self.fetch(server, tenant, sub)
                   for (tenant, _ops), sub in zip(submits, submitted)]
        if not fetched[0]["ok"]:
            return fetched[0], None
        alice = server.tenants.get("alice").session
        [(items, result)] = [
            (items, result)
            for items, _options, results in self.served
            for (session, _plan), result in zip(items, results)
            if session is alice
        ]
        assert len(items) == _batch_size(door, shape)
        return decode_bytes(fetched[0]["payload"]), result


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    w = World(tmp_path_factory.mktemp("doors"))
    yield w
    w.close()


@pytest.fixture
def spied(world, monkeypatch):
    world.install_spies(monkeypatch)
    return world


@pytest.fixture(scope="module")
def reference(world):
    """``Dataset.run`` per shape: what every other door must equal."""
    return {shape: world.execute("run", shape) for shape in SHAPES}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("door", DOORS)
def test_every_door_returns_the_solo_result(spied, reference, door, shape):
    want_bytes, want = reference[shape]
    got_bytes, got = spied.execute(door, shape)
    assert got_bytes == want_bytes
    assert _normalised(got.summary()) == _normalised(want.summary())
    assert _index_programs(got) == _index_programs(want)
    assert [stage.upstream for stage in got.stages] == \
        [stage.upstream for stage in want.stages]

    # a batch of one does no grouping work; a larger one asks once
    assert spied.grouping_calls == (_batch_size(door, shape) > 1)
    assert got.stages[0].outcome.result.metrics.shared_scan_groups == \
        (door in SHAPES[shape][2])


#: option name -> (run options, what the door's refusal must name)
BAD_OPTIONS = {
    "retired_scheduler": ({"scheduler": "dag"}, "scheduler"),
    "misspelled": ({"paralellism": 2}, "paralellism"),
    "non_numeric_deadline": ({"deadline_seconds": "soon"},
                             "deadline_seconds"),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bad", BAD_OPTIONS)
@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_an_unknown_option(spied, door, bad, shape):
    options, named = BAD_OPTIONS[bad]
    if door.startswith("service"):
        response, _ = spied.execute(door, shape, **options)
        assert not response["ok"]
        assert response["error"]["code"] == ERR_BAD_REQUEST
        assert repr(named) in response["error"]["message"]
    else:
        with pytest.raises(TypeError, match=named):
            spied.execute(door, shape, **options)
    assert spied.served == [] and spied.grouping_calls == 0


def test_a_held_singleton_is_a_batch_of_one(spied, reference):
    """Alone in its window, a query dispatches through the same call as
    at window 0, and does no grouping work."""
    server = spied.servers["service_window"]
    _file, build, _sharing = SHAPES["map_only_select"]
    submitted = server.handle({
        "op": "submit", "tenant": "alice",
        "query": build(remote_read, spied.paths["pages"]).ops,
    })
    fetched = spied.fetch(server, "alice", submitted)
    assert decode_bytes(fetched["payload"]) == \
        reference["map_only_select"][0]
    [(items, _options, _results)] = spied.served
    assert len(items) == 1
    assert spied.grouping_calls == 0


# -- one plan per stage per execution, on every door ---------------------------


def _use_counts(session):
    return {e.index_id: e.use_count
            for e in session.system.catalog.sorted_entries()}


def _bumps(session, action):
    before = _use_counts(session)
    action()
    after = _use_counts(session)
    return sorted(after[k] - before[k] for k in after if after[k] != before[k])


def test_an_index_is_touched_once_per_execution(world, tmp_path):
    """Planning bumps ``use_count`` (a registry write under the catalog
    lock, and the LRU eviction order); a door that plans a stage twice
    shows up here as +2."""
    path = world.paths["indexed"]
    narrow = write_webpages(tmp_path / "narrow.rf", 300)

    def served(read, low):    # B+Tree-served: never in a shared scan
        return read(path).filter(col("rank") > low).select("url", "rank")

    def projected(read, *columns):    # projection-served: shareable
        return read(narrow).select(*columns)

    session = world.session
    projected(session.read, "url", "rank").build_indexes(
        allowed_kinds=["projection"])
    assert _bumps(session, lambda: served(session.read, 47).run()) == [1]
    assert _bumps(session, lambda: session.run_many(
        [served(session.read, 46)])) == [1]
    # two executions of one index's query, ungrouped: one touch each
    assert _bumps(session, lambda: session.run_many(
        [served(session.read, 45), served(session.read, 44)])) == [2]
    grouped = []
    assert _bumps(session, lambda: grouped.extend(session.run_many(
        [projected(session.read, "url", "rank"),
         projected(session.read, "rank", "url")]))) == [2]
    assert all(r.stages[0].outcome.result.metrics.shared_scan_groups == 1
               for r in grouped)

    for door, server in world.servers.items():
        tenant = server.tenants.get("alice").session

        def submit(low):
            return server.handle({
                "op": "submit", "tenant": "alice",
                "query": served(remote_read, low).ops})

        def one():
            assert world.fetch(server, "alice", submit(43))["ok"]

        def two_in_a_window():
            first, second = submit(42), submit(41)
            assert world.fetch(server, "alice", first)["ok"]
            assert world.fetch(server, "alice", second)["ok"]

        assert _bumps(tenant, one) == [1], door
        assert _bumps(tenant, two_in_a_window) == [2], door

