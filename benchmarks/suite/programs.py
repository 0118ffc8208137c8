"""Benchmark-owned user programs, written as a user would write them.

The four Pavlo programs of the paper's Table 2 (B1 selection, B2
aggregation, B3 join, B4 opaque-UDF aggregation), two single-technique
programs that admit the delta and dictionary indexes, and the opaque
UDFs of the ``udf_shuffle`` workload.  Everything is module level so the
persistent worker pool can pickle it.

``GROUND_TRUTH`` is what a reader of each mapper finds by hand -- the
denominator of ``core.analyzer.detected_share`` (Table 1 recall).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from repro import (
    Context,
    Field,
    FieldType,
    JobConf,
    Mapper,
    RecordFileInput,
    Reducer,
    Schema,
)

# -- B1: selection -------------------------------------------------------------


class SelectionMapper(Mapper):
    """SELECT pageURL, pageRank FROM Rankings WHERE pageRank > X."""

    def __init__(self, threshold: int):
        self.threshold = threshold

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        if value.pageRank > self.threshold:
            ctx.emit(value.pageURL, value.pageRank)


def b1_job(rankings_path: str, threshold: int) -> JobConf:
    return JobConf(
        name="b1-selection",
        mapper=SelectionMapper(threshold),
        reducer=None,
        inputs=[RecordFileInput(rankings_path)],
    )


# -- B2: aggregation -----------------------------------------------------------


class AggregationMapper(Mapper):
    """SELECT sourceIP, SUM(adRevenue) FROM UserVisits GROUP BY sourceIP."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        ctx.emit(value.sourceIP, value.adRevenue)


class SumReducer(Reducer):
    """Sum per key (also used as a combiner)."""

    def reduce(self, key: Any, values: Iterable[Any], ctx: Context) -> None:
        ctx.emit(key, sum(values))


def b2_job(uservisits_path: str) -> JobConf:
    return JobConf(
        name="b2-aggregation",
        mapper=AggregationMapper,
        reducer=SumReducer,
        combiner=SumReducer,
        inputs=[RecordFileInput(uservisits_path)],
    )


# -- B3: join ------------------------------------------------------------------


class VisitsJoinMapper(Mapper):
    """Keep visits inside the date window; forward the whole record."""

    def __init__(self, date_lo: int, date_hi: int):
        self.date_lo = date_lo
        self.date_hi = date_hi

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        if value.visitDate >= self.date_lo and value.visitDate <= self.date_hi:
            ctx.emit(value.destURL, value)


class RankingsJoinMapper(Mapper):
    def map(self, key: Any, value: Any, ctx: Context) -> None:
        ctx.emit(value.pageURL, value)


class JoinReducer(Reducer):
    """Per URL: emit (sourceIP, (pageRank, adRevenue)) for each match."""

    def reduce(self, key: Any, values: Iterable[Any], ctx: Context) -> None:
        ranks: List[int] = []
        visits: List[Tuple[str, int]] = []
        for record in values:
            if record.schema.name == "Rankings":
                ranks.append(record.pageRank)
            else:
                visits.append((record.sourceIP, record.adRevenue))
        for rank in ranks:
            for source_ip, revenue in visits:
                ctx.emit(source_ip, (rank, revenue))


def b3_job(rankings_path: str, uservisits_path: str,
           date_lo: int, date_hi: int) -> JobConf:
    return JobConf(
        name="b3-join",
        mapper=RankingsJoinMapper,
        reducer=JoinReducer,
        inputs=[
            RecordFileInput(rankings_path, tag="rankings"),
            RecordFileInput(uservisits_path, tag="uservisits"),
        ],
        per_input_mappers={
            "rankings": RankingsJoinMapper,
            "uservisits": VisitsJoinMapper(date_lo, date_hi),
        },
    )


# -- B4: opaque-UDF aggregation (the built-in negative control) ----------------


class InlinkMapper(Mapper):
    """Count inlinks per URL; the per-document hash table that dedupes
    URLs is what hides the selection from the analyzer."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        seen: Dict[str, int] = {}
        for token in value.content.split():
            if token.startswith("http://") and token not in seen:
                seen[token] = 1
                ctx.emit(token, 1)


def b4_job(documents_path: str) -> JobConf:
    return JobConf(
        name="b4-udf-aggregation",
        mapper=InlinkMapper,
        reducer=SumReducer,
        combiner=SumReducer,
        inputs=[RecordFileInput(documents_path)],
    )


# -- single-technique programs (ingest_build) ----------------------------------


class DailySessionMapper(Mapper):
    """Reads all three integral fields, so the index is a delta file."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        ctx.emit(value.visitDate, (value.adRevenue, value.duration))


class DailySessionReducer(Reducer):
    def reduce(self, key: Any, values: Iterable[Any], ctx: Context) -> None:
        revenue = 0
        duration = 0
        for r, d in values:
            revenue += r
            duration += d
        ctx.emit(key, (revenue, duration))


def daily_job(uservisits_path: str) -> JobConf:
    return JobConf(
        name="daily-session",
        mapper=DailySessionMapper,
        reducer=DailySessionReducer,
        combiner=DailySessionReducer,
        inputs=[RecordFileInput(uservisits_path)],
    )


class DurationSumMapper(Mapper):
    """``destURL`` is only ever a map output key: eligible for direct
    operation on dictionary-compressed data."""

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        ctx.emit(value.destURL, value.duration)


class DurationSumReducer(Reducer):
    def reduce(self, key: Any, values: Iterable[Any], ctx: Context) -> None:
        ctx.emit(None, sum(values))


def duration_job(uservisits_path: str) -> JobConf:
    """Combiner-free: the whole (url, duration) stream crosses the shuffle."""
    return JobConf(
        name="duration-sum",
        mapper=DurationSumMapper,
        reducer=DurationSumReducer,
        inputs=[RecordFileInput(uservisits_path)],
    )


class IdentityMapper(Mapper):
    def map(self, key: Any, value: Any, ctx: Context) -> None:
        ctx.emit(key, value)


#: Optimizations a human finds in each program's mapper, per the paper's
#: Table 1 vocabulary.  B3 refers to its UserVisits side.
GROUND_TRUTH: Dict[str, Set[str]] = {
    "b1-selection": {"SELECT", "PROJECT", "DELTA"},
    "b2-aggregation": {"PROJECT", "DELTA"},
    "b3-join": {"SELECT", "DELTA"},
    "b4-udf-aggregation": {"SELECT"},
}


# -- udf_shuffle: opaque fluent UDFs and a classic combiner-free job -----------

USER_LATENCY = Schema("UserLatency", [
    Field("user", FieldType.STRING),
    Field("cost", FieldType.INT),
])


def to_user_latency(key: Any, value: Any) -> Tuple[Any, Any]:
    """An arithmetic/projection UDF the analyzer cannot see into."""
    return key, USER_LATENCY.make(value.user, value.latency * 2 + value.shard)


class LatencyNotMultiple:
    """A callable predicate (``latency % k != 0``), opaque to the optimizer."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, value: Any) -> bool:
        return value.latency % self.k != 0


class UserLatencyMapper(Mapper):
    def __init__(self, min_latency: int):
        self.min_latency = min_latency

    def map(self, key: Any, value: Any, ctx: Context) -> None:
        if value.latency * 3 % 1000 >= self.min_latency:
            ctx.emit(value.user, value.latency)


def user_latency_job(events_path: str, min_latency: int) -> JobConf:
    """Classic job, no combiner, high-cardinality key."""
    return JobConf(
        name="user-latency-sum",
        mapper=UserLatencyMapper(min_latency),
        reducer=SumReducer,
        inputs=[RecordFileInput(events_path)],
    )
