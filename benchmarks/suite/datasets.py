"""Benchmark-owned inputs: seeded tables kept as plain Python rows.

A :class:`Table` holds its *logical rows* in memory -- the oracle computes
expected results from them without touching ``repro`` -- and writes them
through the public ``Schema`` + ``RecordFileWriter`` surface only.  The
digest is a sha256 over the logical rows, so two commits provably ran the
same inputs even if a file format changed in between.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.storage import (
    LONG_SCHEMA,
    Field,
    FieldType,
    Record,
    RecordFileWriter,
    Schema,
)

Row = Tuple[int, Tuple[Any, ...]]

RANKINGS = Schema("Rankings", [
    Field("pageURL", FieldType.STRING),
    Field("pageRank", FieldType.INT),
    Field("avgDuration", FieldType.INT),
])

USERVISITS = Schema("UserVisits", [
    Field("sourceIP", FieldType.STRING),
    Field("destURL", FieldType.STRING),
    Field("visitDate", FieldType.LONG),
    Field("adRevenue", FieldType.INT),
    Field("userAgent", FieldType.STRING),
    Field("countryCode", FieldType.STRING),
    Field("languageCode", FieldType.STRING),
    Field("searchWord", FieldType.STRING),
    Field("duration", FieldType.INT),
])

DOCUMENTS = Schema("Documents", [Field("content", FieldType.STRING)])

#: The wide dashboard table: ten columns, low- and high-cardinality
#: strings, a clustered timestamp and uniform integers.
EVENTS = Schema("Events", [
    Field("region", FieldType.STRING),
    Field("device", FieldType.STRING),
    Field("status", FieldType.INT),
    Field("latency", FieldType.INT),
    Field("bytes", FieldType.LONG),
    Field("ts", FieldType.LONG),
    Field("user", FieldType.STRING),
    Field("path", FieldType.STRING),
    Field("score", FieldType.INT),
    Field("shard", FieldType.INT),
])

#: Small dimension table joined against ``Events.path``.
PATHS = Schema("Paths", [
    Field("path", FieldType.STRING),
    Field("owner", FieldType.STRING),
])

RANK_MAX = 10_000
SCORE_MAX = 10_000
LATENCY_MAX = 2_000
N_PATHS = 300
DATE_LO = 946_684_800           # 2000-01-01
DATE_STEP = 60                  # mean seconds between visits

REGIONS = ["us", "eu", "ap", "sa", "af"]
DEVICES = ["ios", "android", "web"]
STATUSES = [200, 200, 200, 200, 304, 404, 500]
_AGENTS = ["Mozilla/4.0", "Mozilla/5.0", "Opera/9.80", "Lynx/2.8", "curl/7.19"]
_COUNTRIES = ["US", "DE", "JP", "BR", "IN", "CN", "FR", "GB", "CA", "AU"]
_LANGS = ["en", "de", "ja", "pt", "hi", "zh", "fr", "es"]
_WORDS = [
    "database", "mapreduce", "hadoop", "index", "btree", "query", "join",
    "selection", "projection", "compression", "cluster", "optimizer",
]


@dataclass
class Table:
    """One generated dataset: schema plus logical ``(key, values)`` rows."""

    name: str
    value_schema: Schema
    rows: List[Row]
    key_schema: Schema = LONG_SCHEMA

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def idx(self) -> Dict[str, int]:
        """Field name -> position in a row's value tuple."""
        return {f.name: i for i, f in enumerate(self.value_schema.fields)}

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.value_schema.field_names()).encode("utf-8"))
        for row in self.rows:
            h.update(repr(row).encode("utf-8"))
        return h.hexdigest()

    def records(self) -> Iterator[Tuple[Record, Record]]:
        key_make, value_make = self.key_schema.make, self.value_schema.make
        for key, values in self.rows:
            yield key_make(key), value_make(*values)

    def write(self, path: str) -> None:
        """Write the table as one plain record file."""
        with RecordFileWriter(path, self.key_schema,
                              self.value_schema) as writer:
            for key, value in self.records():
                writer.append(key, value)


def page_url(i: int) -> str:
    return f"http://www.site{i % 1000}.example.com/page-{i}"


def _zipf_cum_weights(n: int, alpha: float = 1.0) -> List[float]:
    return list(accumulate(1.0 / (i ** alpha) for i in range(1, n + 1)))


def rankings(rng: random.Random, n: int) -> Table:
    rows = [
        (i, (page_url(i), rng.randrange(RANK_MAX), rng.randrange(10, 10_000)))
        for i in range(n)
    ]
    return Table("rankings", RANKINGS, rows)


def uservisits(rng: random.Random, n: int, n_urls: int) -> Table:
    """An access log in visit order: ``visitDate`` never decreases, the
    regime where delta compression pays; ``destURL`` is Zipf-popular."""
    urls = rng.choices(range(n_urls), cum_weights=_zipf_cum_weights(n_urls),
                       k=n)
    rows: List[Row] = []
    date = DATE_LO
    for i in range(n):
        date += rng.randrange(2 * DATE_STEP)
        rows.append((i, (
            f"{rng.randrange(1, 255)}.{rng.randrange(256)}."
            f"{rng.randrange(256)}.{rng.randrange(1, 255)}",
            page_url(urls[i]),
            date,
            rng.randrange(1, 10_000),
            rng.choice(_AGENTS),
            rng.choice(_COUNTRIES),
            rng.choice(_LANGS),
            rng.choice(_WORDS),
            rng.randrange(1, 1_000),
        )))
    return Table("uservisits", USERVISITS, rows)


def documents(rng: random.Random, n: int, n_urls: int) -> Table:
    cum = _zipf_cum_weights(n_urls)
    rows: List[Row] = []
    for i in range(n):
        tokens = rng.choices(_WORDS, k=60)
        links = rng.choices(range(n_urls), cum_weights=cum,
                            k=rng.randrange(1, 20))
        tokens += [page_url(j) for j in links]
        rng.shuffle(tokens)
        rows.append((i, (" ".join(tokens),)))
    return Table("documents", DOCUMENTS, rows)


def events(rng: random.Random, n: int) -> Table:
    """``user`` has about one distinct value per three rows."""
    n_users = max(1, n // 3)
    rows = [
        (i, (
            rng.choice(REGIONS),
            rng.choice(DEVICES),
            rng.choice(STATUSES),
            rng.randrange(1, LATENCY_MAX),
            rng.randrange(100, 1_000_000),
            1_600_000_000 + 3 * i + rng.randrange(3),
            f"user{rng.randrange(n_users)}",
            f"/p/{rng.randrange(N_PATHS)}",
            rng.randrange(SCORE_MAX),
            rng.randrange(64),
        ))
        for i in range(n)
    ]
    return Table("events", EVENTS, rows)


def paths_dim() -> Table:
    rows = [(i, (f"/p/{i}", f"team{i % 7}")) for i in range(N_PATHS)]
    return Table("paths", PATHS, rows)


def scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def print_digests(tables: Sequence[Table]) -> None:
    for table in tables:
        print(f"dataset {table.name}: rows={len(table)} "
              f"sha256={table.digest()}")
