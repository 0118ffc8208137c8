"""The five workloads: set-up, seeded op schedules, one-shot and staged runs.

Every workload is a closed loop over a schedule drawn from the seed.  A
*cycle* has a fixed composition of operation kinds (only the parameters
vary), so per-cycle rates are comparable and the latency percentiles fall
inside one kind's cluster instead of on the border between two.  All
configuration is the program's default; only paths are chosen here, so
that every file lands inside the run's work directory.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    JobConf,
    Manimal,
    PartitionedInput,
    RecordFileInput,
    Session,
    connect,
    run_job,
)
from repro.batch.multiscan import plan_shared_groups
from repro.core.optimizer.catalog import (
    KIND_DELTA,
    KIND_DICTIONARY,
)
from repro.mapreduce.metrics import JobMetrics
from repro.storage.partitioned import write_partitioned_dataset

from benchmarks.suite import ROOT, datasets, oracle, programs, staged
from benchmarks.suite.datasets import Table, scaled
from benchmarks.suite.metrics import dir_bytes, process_read_bytes
from benchmarks.suite.queries import Query, build
from benchmarks.suite.trace import NullTracer, Tracer

Pairs = List[Tuple[Any, Any]]
POOL = 16          # parameter values per program, drawn with replacement
PARTITIONS = 16


@dataclass
class Op:
    """One scheduled operation."""

    kind: str
    params: Tuple[Any, ...] = ()
    #: logical input rows of the datasets the op addresses
    rows: int = 0
    #: bytes of those datasets as plain record files
    plain_bytes: int = 0
    #: a ``run_many`` group: one call, its latency charged to each member
    members: Tuple["Op", ...] = ()


@dataclass
class Outcome:
    """What one executed op returned, for the oracle and the counters."""

    outputs: Optional[Pairs] = None
    metrics: List[JobMetrics] = field(default_factory=list)
    optimized: Optional[bool] = None
    cached: Optional[bool] = None
    #: timed part of the op when it is less than the whole call
    seconds: Optional[float] = None
    members: List["Outcome"] = field(default_factory=list)


class Workload:
    """Interface the runner drives; see the five subclasses below."""

    name = ""
    callers = 1

    def __init__(self, seed: int, scale: float):
        self.rng = random.Random(f"{seed}:{self.name}")
        self.tables: Dict[str, Table] = {}
        self.root = ""
        self._expected: Dict[Any, Pairs] = {}

    # -- lifecycle ------------------------------------------------------------

    def setup(self, root: str, tracer: Tracer) -> None:
        """Program-side set-up into the fresh directory ``root``."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what :meth:`setup` started (sessions, servers)."""

    def warm_ops(self) -> List[Tuple[Op, int]]:
        """(op, caller) pairs covering each op kind once."""
        raise NotImplementedError

    # -- schedule and execution -------------------------------------------------

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op, caller: int) -> Outcome:
        """The op through the one-shot public entry point."""
        raise NotImplementedError

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        """The same op through the staged entry points, with spans."""
        raise NotImplementedError

    def key(self, op: Op) -> Any:
        """What determines an op's rows: ops with equal keys return equal
        rows, so the oracle's answer and one copy of the output serve all."""
        return (op.kind, op.params)

    def expected(self, op: Op) -> Optional[Pairs]:
        """Oracle rows (memoized); None when the op returns no rows."""
        key = self.key(op)
        if key not in self._expected:
            self._expected[key] = self._oracle(op)
        return self._expected[key]

    def _oracle(self, op: Op) -> Optional[Pairs]:
        raise NotImplementedError

    # -- accounting ---------------------------------------------------------------

    def plain_bytes(self) -> int:
        """Bytes of the plain record files of user data."""
        raise NotImplementedError

    def catalog_bytes(self) -> int:
        """Bytes under the catalog directory: indexes plus metadata."""
        return dir_bytes(self._path("catalog"))

    def disk_bytes(self) -> int:
        """Bytes under the workload's data and catalog directories."""
        return dir_bytes(self._path("data")) + self.catalog_bytes()

    def external_read_bytes(self) -> Optional[int]:
        """Read-syscall bytes of a server child, when ops run out of process."""
        return None

    def probe_target(self) -> Tuple[str, Table, str, str]:
        """(record file, its table, an int column, a string column)."""
        raise NotImplementedError

    def programs(self) -> List[JobConf]:
        """The classic jobs this workload submits (analyzer probes)."""
        return []

    def engine(self) -> Optional[Any]:
        return None

    def counters(self) -> Dict[str, Any]:
        """The public counters the program exposes, as of now."""
        engine = self.engine()
        return {"engine": None if engine is None else engine.stats(),
                "service": None}

    def _path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)


def _zipf_multiset(n: int, alpha: float, total: int) -> List[int]:
    """``total`` draws over ranks ``0..n-1`` in exact Zipf proportions
    (largest-remainder rounding), so every cycle repeats the same mix."""
    weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(n), key=lambda r: shares[r] - counts[r],
                          reverse=True)
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return [rank for rank in range(n) for _ in range(counts[rank])]


def _pool(rng: random.Random, lo: int, hi: int, size: int = POOL
          ) -> List[int]:
    return [rng.randrange(lo, hi) for _ in range(size)]


def build_indexes(tracer: Tracer, system: Manimal, conf: JobConf,
                  allowed_kinds: Optional[Sequence[str]] = None) -> None:
    with tracer.span("core.optimizer.index_build") as span:
        entries = system.build_indexes(conf, allowed_kinds=allowed_kinds)
        span.counts["kinds"] = [entry.kind for entry in entries]


def _job_outcome(result: Any) -> Outcome:
    """Outcome of a ``ManimalResult``."""
    return Outcome(outputs=result.result.outputs,
                   metrics=[result.result.metrics],
                   optimized=result.optimized)


def _dataset_outcome(result: Any) -> Outcome:
    """Outcome of a ``DatasetResult``."""
    return Outcome(
        outputs=result.rows,
        metrics=[s.outcome.result.metrics for s in result.stages],
        optimized=result.optimized,
    )


# -- classic_pavlo ----------------------------------------------------------------


class ClassicPavlo(Workload):
    """The paper's Table 2: four unmodified programs via ``Manimal.submit``."""

    name = "classic_pavlo"
    #: p50 lands inside B3's cluster (5 of 9, above the three fast ops),
    #: p95 inside B2's (the slowest)
    CYCLE = ("b1", "b3", "b3", "b1", "b2", "b3", "b4", "b3", "b3")

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        n_rankings = scaled(4_000, scale)
        self.tables = {
            "rankings": datasets.rankings(self.rng, n_rankings),
            "uservisits": datasets.uservisits(
                self.rng, scaled(12_000, scale), min(n_rankings, 1_000)),
            "documents": datasets.documents(
                self.rng, scaled(200, scale), min(n_rankings, 500)),
        }
        # ~1-3 % of ranks pass; a window keeps exactly 2 % of the visits
        # (the log is in date order, so a row range is a date range).
        self.thresholds = _pool(self.rng, int(datasets.RANK_MAX * 0.97),
                                int(datasets.RANK_MAX * 0.99))
        dates = [row[1][2] for row in self.tables["uservisits"].rows]
        span = len(dates) // 50
        self.windows = [
            (dates[i], dates[i + span])
            for i in _pool(self.rng, 0, len(dates) - span)
        ]

    def setup(self, root: str, tracer: Tracer) -> None:
        self.root = root
        os.makedirs(self._path("data"))
        for name, table in self.tables.items():
            table.write(self._path("data", f"{name}.rf"))
        self.system = Manimal(self._path("catalog"))
        for kind in ("b1", "b2", "b3"):
            build_indexes(tracer, self.system, self._conf(self._op(kind, 0)))

    def _op(self, kind: str, pick: int) -> Op:
        t = self.tables
        if kind == "b1":
            return Op(kind, (self.thresholds[pick],), len(t["rankings"]),
                      self._size("rankings"))
        if kind == "b2":
            return Op(kind, (), len(t["uservisits"]), self._size("uservisits"))
        if kind == "b3":
            return Op(kind, self.windows[pick],
                      len(t["rankings"]) + len(t["uservisits"]),
                      self._size("rankings") + self._size("uservisits"))
        return Op(kind, (), len(t["documents"]), self._size("documents"))

    def _size(self, table: str) -> int:
        return os.path.getsize(self._path("data", f"{table}.rf"))

    def _conf(self, op: Op) -> JobConf:
        rankings = self._path("data", "rankings.rf")
        uservisits = self._path("data", "uservisits.rf")
        if op.kind == "b1":
            return programs.b1_job(rankings, *op.params)
        if op.kind == "b2":
            return programs.b2_job(uservisits)
        if op.kind == "b3":
            return programs.b3_job(rankings, uservisits, *op.params)
        return programs.b4_job(self._path("data", "documents.rf"))

    def warm_ops(self) -> List[Tuple[Op, int]]:
        return [(self._op(kind, 0), 0) for kind in ("b1", "b2", "b3", "b4")]

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        return [self._op(kind, rng.randrange(POOL)) for kind in self.CYCLE]

    def run(self, op: Op, caller: int) -> Outcome:
        return _job_outcome(self.system.submit(self._conf(op)))

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        outputs, metrics, descriptor = staged.submit(
            tracer, self.system, self._conf(op))
        return Outcome(outputs, [metrics], descriptor.optimized)

    def _oracle(self, op: Op) -> Pairs:
        t = self.tables
        if op.kind == "b1":
            return oracle.b1(t["rankings"], *op.params)
        if op.kind == "b2":
            return oracle.b2(t["uservisits"])
        if op.kind == "b3":
            return oracle.b3(t["rankings"], t["uservisits"], *op.params)
        return oracle.b4(t["documents"])

    def plain_bytes(self) -> int:
        return dir_bytes(self._path("data"))

    def probe_target(self) -> Tuple[str, Table, str, str]:
        return (self._path("data", "uservisits.rf"),
                self.tables["uservisits"], "adRevenue", "destURL")

    def programs(self) -> List[JobConf]:
        return [self._conf(op) for op, _caller in self.warm_ops()]

    def engine(self) -> Any:
        return self.system.engine


# -- fluent_dashboard ---------------------------------------------------------------


class FluentDashboard(Workload):
    """Analyzer-described fluent queries over one hot ten-column file."""

    name = "fluent_dashboard"
    #: S single collect, G run_many group of four, P pruned read: 24 + 4 + 4
    #: ops.  Singles are 75 % of the ops, so p50 is their median; the group
    #: members are the slowest 12.5 %, so p95 falls mid-way into theirs.
    CYCLE = "SSSPSSSSSSGSSSPSSSSSSPSSSSPSS"
    KINDS = ("lat_tail", "by_region", "path_range", "by_shard",
             "device_band", "region_users")
    #: the 24 single collects of a cycle
    SINGLES = (("lat_tail", "path_range", "by_shard", "device_band") * 5
               + ("by_region", "region_users") * 2)
    GROUP = ("by_region", "path_range", "by_shard", "device_band")

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.tables = {"events": datasets.events(self.rng,
                                                 scaled(6_000, scale))}
        rng = self.rng
        # Parameter ranges keep each query's selectivity (and so its cost)
        # nearly the same for every draw; results stay dashboard-sized.
        self.pools: Dict[str, List[Any]] = {
            "lat_tail": _pool(rng, 1_900, 1_940),
            "by_region": _pool(rng, 0, 6),
            "path_range": _pool(rng, 0, 100),
            "by_shard": _pool(rng, 0, 500),
            "device_band": _pool(rng, 0, 8_000),
            "region_users": [rng.choice(datasets.REGIONS)
                             for _ in range(POOL)],
            "pruned": _pool(rng, 9_500, 9_900),
        }

    @staticmethod
    def query(kind: str, p: Any) -> Query:
        if kind == "lat_tail":
            return Query("events", (("latency", ">", p),),
                         select=("region", "latency"))
        if kind == "by_region":
            return Query("events", (("shard", ">=", p),), group_by="region",
                         aggs=(("n", "count", None), ("s", "sum", "bytes")))
        if kind == "path_range":
            return Query("events", (("latency", ">", p),), group_by="path",
                         aggs=(("lo", "min", "latency"),
                               ("hi", "max", "latency")))
        if kind == "by_shard":
            return Query("events", (("score", ">", p),), group_by="shard",
                         aggs=(("n", "count", None),))
        if kind == "device_band":
            return Query("events",
                         (("score", ">", p), ("score", "<=", p + 2_000)),
                         group_by="device",
                         aggs=(("n", "count", None), ("s", "sum", "latency")))
        if kind == "region_users":
            return Query("events", (("region", "==", p), ("score", ">", 9_000)),
                         select=("user", "bytes"))
        return Query("parts", (("score", ">", p),), select=("user", "score"))

    def setup(self, root: str, tracer: Tracer) -> None:
        self.root = root
        os.makedirs(self._path("data"))
        self.events_path = self._path("data", "events.rf")
        self.parts_path = self._path("data", "events.parts")
        self.tables["events"].write(self.events_path)
        self.session = Session(catalog_dir=self._path("catalog"),
                               workdir=self._path("work"))
        self.session.read(self.events_path).write(
            self.parts_path, partition_by="score", num_partitions=PARTITIONS)
        self.events_bytes = os.path.getsize(self.events_path)

    def close(self) -> None:
        self.session.close()

    def _op(self, kind: str, rng: random.Random) -> Op:
        return Op(kind, (rng.choice(self.pools[kind]),),
                  len(self.tables["events"]), self.events_bytes)

    def _dataset(self, op: Op) -> Any:
        query = self.query(op.kind, *op.params)
        path = self.parts_path if query.table == "parts" else self.events_path
        return build(self.session, path, query)

    def warm_ops(self) -> List[Tuple[Op, int]]:
        rng = random.Random(0)
        ops = [self._op(kind, rng) for kind in self.KINDS + ("pruned",)]
        group = Op("group", members=tuple(self._op(k, rng)
                                          for k in self.GROUP))
        return [(op, 0) for op in ops + [group]]

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        singles = iter(self.SINGLES)
        ops: List[Op] = []
        for slot in self.CYCLE:
            if slot == "S":
                ops.append(self._op(next(singles), rng))
            elif slot == "P":
                ops.append(self._op("pruned", rng))
            else:
                ops.append(Op("group", members=tuple(
                    self._op(kind, rng) for kind in self.GROUP)))
        return ops

    def run(self, op: Op, caller: int) -> Outcome:
        if op.members:
            results = self.session.run_many(
                [self._dataset(member) for member in op.members])
            return Outcome(members=[_dataset_outcome(r) for r in results])
        return _dataset_outcome(self._dataset(op).run())

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        if not op.members:
            return Outcome(*staged.run_dataset(
                tracer, self.session, self._dataset(op)))
        # A fused scan has no per-member stages to take apart: the group
        # planner is timed on its own, then the group runs as one call.
        sets = [self._dataset(member) for member in op.members]
        candidates = []
        for ds in sets:
            stage0 = self.session.lower(ds).stages[0]
            descriptor = self.session.system.plan(stage0.conf, stage0.hints)
            chosen = stage0.conf.with_inputs(descriptor.chosen_inputs())
            chosen.shuffle_filter = descriptor.shuffle_filter
            candidates.append(chosen)
        with tracer.span("batch.shared_plan"):
            plan_shared_groups(candidates)
        with tracer.span("batch.shared_scan"):
            results = self.session.run_many(sets)
        return Outcome(members=[_dataset_outcome(r) for r in results])

    def _oracle(self, op: Op) -> Pairs:
        return oracle.eval_query(self.tables["events"],
                                 self.query(op.kind, *op.params))

    def plain_bytes(self) -> int:
        return self.events_bytes

    def probe_target(self) -> Tuple[str, Table, str, str]:
        return self.events_path, self.tables["events"], "latency", "path"

    def engine(self) -> Any:
        return self.session.engine


# -- udf_shuffle ------------------------------------------------------------------------


class UdfShuffle(Workload):
    """Opaque UDFs feeding high-cardinality shuffles, on two workers."""

    name = "udf_shuffle"
    #: p50 lands inside user_count's cluster (6 of 10), p95 in the middle
    #: of the slowest kind's
    CYCLE = ("user_count", "user_cost", "user_count", "join", "user_count",
             "latency_sum", "user_count", "user_cost", "user_count",
             "user_count")

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.tables = {
            "events": datasets.events(self.rng, scaled(5_000, scale)),
            "paths": datasets.paths_dim(),
        }
        # Narrow ranges: every draw keeps 91-96 % (moduli) or 84-90 %
        # (floors) of the rows, so an op's cost hardly depends on it.  Small
        # pools: nothing here is cached by parameter, and the rows of every
        # distinct op are held until they are verified -- in a parent the
        # workers are forked from, so its size is part of every op's cost.
        self.moduli = _pool(self.rng, 11, 23, size=4)
        self.floors = _pool(self.rng, 100, 160, size=4)
        self.parallelism = min(os.cpu_count() or 1, 2)

    def setup(self, root: str, tracer: Tracer) -> None:
        self.root = root
        os.makedirs(self._path("data"))
        os.makedirs(self._path("spill"))
        self.events_path = self._path("data", "events.rf")
        self.paths_path = self._path("data", "paths.rf")
        self.tables["events"].write(self.events_path)
        self.tables["paths"].write(self.paths_path)
        self.session = Session(catalog_dir=self._path("catalog"),
                               workdir=self._path("work"),
                               parallelism=self.parallelism)
        self.events_bytes = os.path.getsize(self.events_path)
        self.paths_bytes = os.path.getsize(self.paths_path)

    def close(self) -> None:
        self.session.close()

    def _op(self, kind: str, pick: int) -> Op:
        n, size = len(self.tables["events"]), self.events_bytes
        if kind == "user_cost":
            return Op(kind, (), n, size)
        if kind == "join":
            return Op(kind, (self.moduli[pick],),
                      n + len(self.tables["paths"]), size + self.paths_bytes)
        if kind == "user_count":
            return Op(kind, (self.moduli[pick],), n, size)
        return Op(kind, (self.floors[pick],), n, size)

    def _dataset(self, op: Op) -> Any:
        events = self.session.read(self.events_path)
        if op.kind == "user_cost":
            mapped = events.map(programs.to_user_latency,
                                key_schema=events.key_schema,
                                value_schema=programs.USER_LATENCY)
            return mapped.group_by("user").agg(
                n=("count", None), s=("sum", "cost"))
        keep = events.filter(programs.LatencyNotMultiple(*op.params))
        if op.kind == "join":
            return keep.select("path", "latency").join(
                self.session.read(self.paths_path), on="path")
        return keep.group_by("user").agg(n=("count", None))

    def warm_ops(self) -> List[Tuple[Op, int]]:
        return [(self._op(kind, 0), 0) for kind in
                ("user_cost", "join", "user_count", "latency_sum")]

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        return [self._op(kind, rng.randrange(len(self.moduli)))
                for kind in self.CYCLE]

    def run(self, op: Op, caller: int) -> Outcome:
        if op.kind == "latency_sum":
            conf = programs.user_latency_job(self.events_path, *op.params)
            return _job_outcome(self.session.system.submit(conf))
        return _dataset_outcome(self._dataset(op).run())

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        spill = self._path("spill")
        if op.kind == "latency_sum":
            conf = programs.user_latency_job(self.events_path, *op.params)
            outputs, metrics, descriptor = staged.submit(
                tracer, self.session.system, conf, spill_root=spill)
            return Outcome(outputs, [metrics], descriptor.optimized)
        return Outcome(*staged.run_dataset(
            tracer, self.session, self._dataset(op), spill_root=spill))

    def _oracle(self, op: Op) -> Pairs:
        events = self.tables["events"]
        if op.kind == "user_cost":
            return oracle.udf_user_cost(events)
        if op.kind == "join":
            return oracle.udf_join(events, self.tables["paths"], *op.params)
        if op.kind == "user_count":
            return oracle.udf_user_count(events, *op.params)
        return oracle.user_latency_sum(events, *op.params)

    def plain_bytes(self) -> int:
        return self.events_bytes + self.paths_bytes

    def probe_target(self) -> Tuple[str, Table, str, str]:
        return self.events_path, self.tables["events"], "latency", "user"

    def programs(self) -> List[JobConf]:
        return [programs.user_latency_job(self.events_path, self.floors[0])]

    def engine(self) -> Any:
        return self.session.engine


# -- service_mixed -------------------------------------------------------------------------


class ServiceMixed(Workload):
    """Two tenants of ``python -m repro.service``: repeats, misses, writes."""

    name = "service_mixed"
    callers = 2
    N_QUERIES = 24
    #: slots of the four queries that scan the tenant's derived file
    DERIVED_SLOTS = (2, 8, 14, 20)
    #: One cycle is 100 ops of fixed composition, reads in seeded order: one
    #: partitioned write (re-registers a dataset, bumping the catalog
    #: generation and so invalidating every cached result of the tenant),
    #: two overwrites of the derived file (invalidating the four queries
    #: that scan it), six reads with a literal never used before (certain
    #: misses) and 91 repeats of the 24 fixed queries in Zipf(1.1)
    #: proportions.  Repeats dominate, so the median op is a cache hit and
    #: p95 a miss.
    WRITE_PARTS, WRITE_FILE, FRESH, REPEATS = 1, 2, 6, 91

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.tables = {"events": datasets.events(self.rng,
                                                 scaled(4_000, scale))}
        kinds = FluentDashboard.KINDS
        rng = self.rng
        self.queries: List[Query] = []
        for slot in range(self.N_QUERIES):
            if slot in self.DERIVED_SLOTS:
                self.queries.append(Query(
                    "derived", (("score", ">", rng.randrange(9_000, 9_800)),),
                    group_by="user", aggs=(("n", "count", None),)))
            else:
                kind = kinds[slot % len(kinds)]
                param = {
                    "lat_tail": rng.randrange(1_900, 1_940),
                    "by_region": rng.randrange(0, 6),
                    "path_range": rng.randrange(0, 100),
                    "by_shard": rng.randrange(0, 500),
                    "device_band": rng.randrange(0, 8_000),
                    "region_users": datasets.REGIONS[slot % 5],
                }[kind]
                self.queries.append(FluentDashboard.query(kind, param))
        self.repeats = _zipf_multiset(self.N_QUERIES, 1.1, self.REPEATS)
        self._derived: Dict[int, Table] = {}
        # per-caller schedule state; cycles always complete, so what was
        # scheduled is what ran
        self.threshold = [8_200, 8_200]
        self.fresh = [0, 0]

    # -- set-up: data, server child, one connection per tenant ------------------

    def setup(self, root: str, tracer: Tracer) -> None:
        self.root = root
        os.makedirs(self._path("data"))
        self.events_path = self._path("data", "events.rf")
        self.tables["events"].write(self.events_path)
        self.events_bytes = os.path.getsize(self.events_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT])
        with tracer.span("service.start"):
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.service",
                 "--data-root", self._path("service")],
                stdout=subprocess.PIPE, env=env, text=True,
            )
            ready = self.server.stdout.readline().split()
            if len(ready) != 3 or ready[0] != "READY":
                raise RuntimeError(f"query server did not start: {ready!r}")
        self.sessions = [
            connect(ready[1], int(ready[2]), tenant=f"tenant{i}")
            for i in range(self.callers)
        ]
        self.derived_paths = [
            self._write_derived(caller, self.threshold[caller])
            for caller in range(self.callers)
        ]

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        # Killed, not drained: with every client gone nothing is in flight,
        # and a SIGTERM drain waits 5 s on the accept thread each time.
        self.server.kill()
        self.server.wait()
        self.server.stdout.close()

    def _derived_query(self, threshold: int) -> Query:
        return Query("events", (("score", ">", threshold),),
                     select=("user", "score"))

    def _write_derived(self, caller: int, threshold: int) -> str:
        ds = build(self.sessions[caller], self.events_path,
                   self._derived_query(threshold))
        return ds.write("derived.rf")

    def _write_parts(self, caller: int) -> str:
        ds = build(self.sessions[caller], self.events_path,
                   self._derived_query(9_000))
        return ds.write("hot.parts", partition_by="score", num_partitions=4)

    # -- schedule ---------------------------------------------------------------

    def _read(self, caller: int, slot: int) -> Op:
        n = len(self.tables["events"])
        if slot in self.DERIVED_SLOTS:
            threshold = self.threshold[caller]
            return Op("read", (slot, threshold),
                      len(self.derived_table(threshold)))
        return Op("read", (slot, None), n, self.events_bytes)

    def derived_table(self, threshold: int) -> Table:
        if threshold not in self._derived:
            events = self.tables["events"]
            i = events.idx
            rows = [
                (key, (v[i["user"]], v[i["score"]]))
                for key, v in events.rows if v[i["score"]] > threshold
            ]
            schema = events.value_schema.project(["user", "score"])
            self._derived[threshold] = Table("derived", schema, rows)
        return self._derived[threshold]

    def warm_ops(self) -> List[Tuple[Op, int]]:
        return [(self._read(caller, slot), caller)
                for slot in range(self.N_QUERIES)
                for caller in range(self.callers)]

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        # Writes sit at fixed places, each followed by a repeat it just
        # invalidated (the hottest query after the generation bump, a
        # derived-file query after an overwrite); everything else is
        # shuffled around them.  With the invalidations evenly spaced,
        # every cycle sees the same number of misses.
        reads: List[Any] = ["fresh"] * self.FRESH + list(self.repeats)
        reads.remove(0)
        after_file = rng.sample(
            [slot for slot in reads if slot in self.DERIVED_SLOTS],
            self.WRITE_FILE)
        for slot in after_file:
            reads.remove(slot)
        rng.shuffle(reads)
        slots: List[Any] = ["parts", 0] + reads
        stride = len(slots) // (self.WRITE_FILE + 1)
        for k, slot in enumerate(after_file, start=1):
            slots[k * stride:k * stride] = ["file", slot]
        n = len(self.tables["events"])
        ops: List[Op] = []
        for slot in slots:
            if slot == "parts":
                ops.append(Op("write_parts", (), n, self.events_bytes))
            elif slot == "file":
                self.threshold[caller] = rng.randrange(8_000, 8_400)
                ops.append(Op("write_file", (self.threshold[caller],), n,
                              self.events_bytes))
            elif slot == "fresh":
                self.fresh[caller] += 1
                ops.append(Op("fresh", (caller, self.fresh[caller]), n,
                              self.events_bytes))
            else:
                ops.append(self._read(caller, slot))
        return ops

    # -- execution ------------------------------------------------------------------

    def _fresh_query(self, op: Op) -> Query:
        _caller, n = op.params
        return Query("events", (("bytes", ">", 980_000 + n),),
                     select=("user", "bytes"))

    def _read_dataset(self, op: Op, caller: int) -> Any:
        if op.kind == "fresh":
            return build(self.sessions[caller], self.events_path,
                         self._fresh_query(op))
        query = self.queries[op.params[0]]
        if query.table == "derived":
            # the file's size is only known once the write before it ran
            op.plain_bytes = os.path.getsize(self.derived_paths[caller])
            return build(self.sessions[caller], self.derived_paths[caller],
                         query)
        return build(self.sessions[caller], self.events_path, query)

    def _write(self, op: Op, caller: int) -> None:
        if op.kind == "write_file":
            self._write_derived(caller, *op.params)
        else:
            self._write_parts(caller)

    def run(self, op: Op, caller: int) -> Outcome:
        if op.kind.startswith("write"):
            self._write(op, caller)
            return Outcome()
        return Outcome(outputs=self._read_dataset(op, caller).collect())

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        if op.kind.startswith("write"):
            with tracer.span("service.write"):
                self._write(op, caller)
            return Outcome()
        rows, cached = staged.collect_remote(
            tracer, self.sessions[caller], self._read_dataset(op, caller))
        return Outcome(outputs=rows, cached=cached)

    def _oracle(self, op: Op) -> Optional[Pairs]:
        events = self.tables["events"]
        if op.kind.startswith("write"):
            return None
        if op.kind == "fresh":
            return oracle.eval_query(events, self._fresh_query(op))
        slot, threshold = op.params
        table = events if threshold is None else self.derived_table(threshold)
        return oracle.eval_query(table, self.queries[slot])

    # -- accounting -------------------------------------------------------------------

    def _tenant_dirs(self, leaf: str) -> List[str]:
        base = self._path("service", "tenants")
        return [os.path.join(base, tenant, leaf)
                for tenant in sorted(os.listdir(base))]

    def plain_bytes(self) -> int:
        return self.events_bytes + sum(
            os.path.getsize(path) for path in self.derived_paths)

    def catalog_bytes(self) -> int:
        return sum(dir_bytes(d) for d in self._tenant_dirs("catalog"))

    def disk_bytes(self) -> int:
        return (dir_bytes(self._path("data")) + self.catalog_bytes()
                + sum(dir_bytes(d) for d in self._tenant_dirs("data")))

    def counters(self) -> Dict[str, Any]:
        return {"engine": None, "service": self.sessions[0].server_stats()}

    def external_read_bytes(self) -> int:
        return process_read_bytes(self.server.pid)

    def probe_target(self) -> Tuple[str, Table, str, str]:
        return self.events_path, self.tables["events"], "latency", "path"


# -- ingest_build -----------------------------------------------------------------------------


class IngestBuild(Workload):
    """The administrator's write path: files, partitions, every index kind.

    Each op writes or builds one structure (that is the timed part) and is
    then verified by one read through the new structure, whose rows go to
    the oracle and whose stored bytes go to ``read_amplification``.
    """

    name = "ingest_build"
    CYCLE = ("write_rankings", "write_uservisits", "write_documents",
             "partition_uservisits", "build_b1", "build_b2", "build_daily",
             "build_duration", "build_b3")
    SOURCE = {
        "write_rankings": "rankings", "write_uservisits": "uservisits",
        "write_documents": "documents", "partition_uservisits": "uservisits",
        "build_b1": "rankings", "build_b2": "uservisits",
        "build_daily": "uservisits", "build_duration": "uservisits",
        "build_b3": "uservisits",
    }

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        n_rankings = scaled(1_000, scale)
        self.tables = {
            "rankings": datasets.rankings(self.rng, n_rankings),
            "uservisits": datasets.uservisits(
                self.rng, scaled(2_000, scale), min(n_rankings, 500)),
            "documents": datasets.documents(
                self.rng, scaled(50, scale), min(n_rankings, 200)),
        }
        dates = [row[1][2] for row in self.tables["uservisits"].rows]
        self.window = (dates[len(dates) // 2],
                       dates[len(dates) // 2 + len(dates) // 50])
        self.threshold = int(datasets.RANK_MAX * 0.98)
        self.generation = 0

    def setup(self, root: str, tracer: Tracer) -> None:
        self.root = root
        self.generation = 0
        os.makedirs(root)

    def _dir(self, generation: int, *parts: str) -> str:
        return self._path(f"gen-{generation}", *parts)

    def _begin_cycle(self) -> int:
        """A fresh directory and catalog.  Earlier cycles stay on disk until
        the run's work directory goes: deleting them inside the loop would
        put the file system's delete cost into the timed writes."""
        self.generation += 1
        g = self.generation
        os.makedirs(self._dir(g, "data"))
        self.system = Manimal(self._dir(g, "catalog"))
        return g

    def _ops(self) -> List[Op]:
        g = self._begin_cycle()
        return [Op(kind, (g,), len(self.tables[self.SOURCE[kind]]))
                for kind in self.CYCLE]

    def warm_ops(self) -> List[Tuple[Op, int]]:
        return [(op, 0) for op in self._ops()]

    def cycle(self, rng: random.Random, caller: int) -> List[Op]:
        return self._ops()

    def _file(self, g: int, table: str) -> str:
        return self._dir(g, "data", f"{table}.rf")

    def _plan(self, op: Op) -> Tuple[Callable[[Tracer], None], JobConf, bool]:
        """(timed action, verifying read job, read goes through Manimal)."""
        (g,) = op.params
        rankings, visits = self._file(g, "rankings"), self._file(g, "uservisits")
        if op.kind.startswith("write_"):
            name = self.SOURCE[op.kind]
            table, path = self.tables[name], self._file(g, name)

            def write(tracer: Tracer) -> None:
                with tracer.span("storage.write", records=len(table)):
                    table.write(path)
            return write, _scan_job(RecordFileInput(path)), False
        if op.kind == "partition_uservisits":
            table = self.tables["uservisits"]
            directory = self._dir(g, "data", "uservisits.parts")

            def partition(tracer: Tracer) -> None:
                with tracer.span("storage.partition_write",
                                 records=len(table)):
                    write_partitioned_dataset(
                        directory, table.key_schema, table.value_schema,
                        table.records(), PARTITIONS, partition_by="visitDate")
            return partition, _scan_job(PartitionedInput(directory)), False
        conf, allowed = {
            "build_b1": (programs.b1_job(rankings, self.threshold), None),
            "build_b2": (programs.b2_job(visits), None),
            "build_daily": (programs.daily_job(visits), [KIND_DELTA]),
            "build_duration": (programs.duration_job(visits),
                               [KIND_DICTIONARY]),
            "build_b3": (programs.b3_job(rankings, visits, *self.window),
                         None),
        }[op.kind]
        return (lambda tracer: build_indexes(tracer, self.system, conf,
                                             allowed)), conf, True

    def _execute(self, op: Op, tracer: Optional[Tracer]) -> Outcome:
        action, conf, via_manimal = self._plan(op)
        started = time.perf_counter()
        action(tracer or NullTracer())
        seconds = time.perf_counter() - started
        op.plain_bytes = sum(os.path.getsize(source.path)
                             if isinstance(source, RecordFileInput)
                             else dir_bytes(source.path)
                             for source in conf.inputs)
        if tracer is None:
            if via_manimal:
                outcome = _job_outcome(self.system.submit(conf))
            else:
                result = run_job(conf)
                outcome = Outcome(result.outputs, [result.metrics], False)
        elif via_manimal:
            outputs, metrics, descriptor = staged.submit(
                tracer, self.system, conf)
            outcome = Outcome(outputs, [metrics], descriptor.optimized)
        else:
            outputs, metrics = staged.run_job(tracer, conf)
            outcome = Outcome(outputs, [metrics], False)
        outcome.seconds = seconds
        return outcome

    def run(self, op: Op, caller: int) -> Outcome:
        return self._execute(op, None)

    def run_staged(self, op: Op, caller: int, tracer: Tracer) -> Outcome:
        return self._execute(op, tracer)

    def key(self, op: Op) -> Any:
        return op.kind      # the cycle's directory does not change the rows

    def _oracle(self, op: Op) -> Pairs:
        t = self.tables
        if op.kind.startswith("write_") or op.kind == "partition_uservisits":
            return oracle.identity(t[self.SOURCE[op.kind]])
        if op.kind == "build_b1":
            return oracle.b1(t["rankings"], self.threshold)
        if op.kind == "build_b2":
            return oracle.b2(t["uservisits"])
        if op.kind == "build_daily":
            return oracle.daily(t["uservisits"])
        if op.kind == "build_duration":
            return oracle.duration(t["uservisits"])
        return oracle.b3(t["rankings"], t["uservisits"], *self.window)

    def _last(self) -> str:
        """The last complete cycle's directory (the newest may be cut short
        by a failed op; the one before it never is)."""
        if self.generation < 2:
            raise RuntimeError("no ingest cycle has completed yet")
        return self._dir(self.generation - 1)

    def plain_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self._last(), "data", name))
                   for name in ("rankings.rf", "uservisits.rf",
                                "documents.rf"))

    def catalog_bytes(self) -> int:
        return dir_bytes(os.path.join(self._last(), "catalog"))

    def disk_bytes(self) -> int:
        return dir_bytes(self._last())

    def probe_target(self) -> Tuple[str, Table, str, str]:
        return (os.path.join(self._last(), "data", "uservisits.rf"),
                self.tables["uservisits"], "adRevenue", "destURL")

    def programs(self) -> List[JobConf]:
        data = os.path.join(self._last(), "data")
        rankings = os.path.join(data, "rankings.rf")
        visits = os.path.join(data, "uservisits.rf")
        return [
            programs.b1_job(rankings, self.threshold),
            programs.b2_job(visits),
            programs.b3_job(rankings, visits, *self.window),
            programs.b4_job(os.path.join(data, "documents.rf")),
        ]

    def engine(self) -> Any:
        return self.system.engine


def _scan_job(source: Any) -> JobConf:
    """A map-only identity scan: reads every record back."""
    return JobConf(name="verify-scan", mapper=programs.IdentityMapper,
                   reducer=None, inputs=[source])


WORKLOADS = {
    cls.name: cls
    for cls in (ClassicPavlo, FluentDashboard, UdfShuffle, ServiceMixed,
                IngestBuild)
}
