"""The independent oracle: expected rows in plain Python, never via repro.

Every function here reads only :class:`~benchmarks.suite.datasets.Table`
rows (tuples) and returns ``(key, value)`` pairs in *plain* form; a
program output is converted to the same form by :func:`plain` (records
become sorted ``(field, value)`` tuples, so field order and record class
do not matter) and compared in canonical order by :func:`matches`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from benchmarks.suite.datasets import Row, Table
from benchmarks.suite.queries import COMPARE, Query

Pairs = List[Tuple[Any, Any]]


def plain(x: Any) -> Any:
    """A program value reduced to builtins (records -> sorted item tuples)."""
    to_dict = getattr(x, "to_dict", None)
    if to_dict is not None:
        return tuple(sorted((k, plain(v)) for k, v in to_dict().items()))
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    return x


def rec(**fields: Any) -> Tuple[Tuple[str, Any], ...]:
    """The plain form of a record with these fields."""
    return tuple(sorted(fields.items()))


def canonical(pairs: Iterable[Tuple[Any, Any]]) -> List[Tuple[Any, Any]]:
    return sorted(((plain(k), plain(v)) for k, v in pairs), key=repr)


def matches(output: Iterable[Tuple[Any, Any]], expected: Pairs) -> bool:
    return canonical(output) == sorted(expected, key=repr)


def _row_record(table: Table, row: Row) -> Tuple[Any, Any]:
    names = table.value_schema.field_names()
    return rec(value=row[0]), rec(**dict(zip(names, row[1])))


def identity(table: Table) -> Pairs:
    """Every row, as the (key record, value record) pair a scan yields."""
    return [_row_record(table, row) for row in table.rows]


# -- fluent queries -------------------------------------------------------------

_FOLD: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "sum": sum, "min": min, "max": max, "count": len,
}


def eval_query(table: Table, query: Query) -> Pairs:
    idx = table.idx
    tests = [(idx[c], COMPARE[op], lit) for c, op, lit in query.where]
    rows = [
        row for row in table.rows
        if all(test(row[1][i], lit) for i, test, lit in tests)
    ]
    if query.group_by is not None:
        groups: Dict[Any, List[Tuple[Any, ...]]] = defaultdict(list)
        g = idx[query.group_by]
        for _key, values in rows:
            groups[values[g]].append(values)
        out: Pairs = []
        for group, members in groups.items():
            folded = {
                name: _FOLD[op](
                    members if column is None
                    else [m[idx[column]] for m in members]
                )
                for name, op, column in query.aggs
            }
            # A single aggregate is emitted bare, several as one record.
            value = (next(iter(folded.values())) if len(folded) == 1
                     else rec(**folded))
            out.append((group, value))
        return out
    if query.select is None:
        return [_row_record(table, row) for row in rows]
    keep = [(name, idx[name]) for name in query.select]
    return [
        (rec(value=key), rec(**{name: values[i] for name, i in keep}))
        for key, values in rows
    ]


# -- the Pavlo programs -----------------------------------------------------------


def b1(rankings: Table, threshold: int) -> Pairs:
    return [(url, rank) for _k, (url, rank, _d) in rankings.rows
            if rank > threshold]


def b2(uservisits: Table) -> Pairs:
    totals: Dict[str, int] = defaultdict(int)
    for _k, values in uservisits.rows:
        totals[values[0]] += values[3]
    return list(totals.items())


def b3(rankings: Table, uservisits: Table, date_lo: int, date_hi: int
       ) -> Pairs:
    ranks: Dict[str, List[int]] = defaultdict(list)
    for _k, (url, rank, _d) in rankings.rows:
        ranks[url].append(rank)
    out: Pairs = []
    for _k, values in uservisits.rows:
        if date_lo <= values[2] <= date_hi:
            for rank in ranks.get(values[1], ()):
                out.append((values[0], (rank, values[3])))
    return out


def b4(documents: Table) -> Pairs:
    counts: Dict[str, int] = defaultdict(int)
    for _k, (content,) in documents.rows:
        for url in {t for t in content.split() if t.startswith("http://")}:
            counts[url] += 1
    return list(counts.items())


def daily(uservisits: Table) -> Pairs:
    totals: Dict[int, List[int]] = defaultdict(lambda: [0, 0])
    for _k, values in uservisits.rows:
        total = totals[values[2]]
        total[0] += values[3]
        total[1] += values[8]
    return [(date, tuple(total)) for date, total in totals.items()]


def duration(uservisits: Table) -> Pairs:
    totals: Dict[str, int] = defaultdict(int)
    for _k, values in uservisits.rows:
        totals[values[1]] += values[8]
    return [(None, total) for total in totals.values()]


# -- udf_shuffle ------------------------------------------------------------------


def udf_user_cost(events: Table) -> Pairs:
    """map(to_user_latency).group_by(user).agg(n=count, s=sum(cost))."""
    i = events.idx
    groups: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for _k, v in events.rows:
        group = groups[v[i["user"]]]
        group[0] += 1
        group[1] += v[i["latency"]] * 2 + v[i["shard"]]
    return [(user, rec(n=n, s=s)) for user, (n, s) in groups.items()]


def udf_join(events: Table, paths: Table, k: int) -> Pairs:
    """filter(latency % k != 0).select(path, latency).join(paths, on=path)."""
    i = events.idx
    owner = {path: own for _k, (path, own) in paths.rows}
    return [
        (v[i["path"]], rec(path=v[i["path"]], latency=v[i["latency"]],
                           owner=owner[v[i["path"]]]))
        for _k, v in events.rows
        if v[i["latency"]] % k != 0 and v[i["path"]] in owner
    ]


def udf_user_count(events: Table, k: int) -> Pairs:
    """filter(latency % k != 0).group_by(user).agg(n=count)."""
    i = events.idx
    counts: Dict[str, int] = defaultdict(int)
    for _k, v in events.rows:
        if v[i["latency"]] % k != 0:
            counts[v[i["user"]]] += 1
    return list(counts.items())


def user_latency_sum(events: Table, min_latency: int) -> Pairs:
    i = events.idx
    totals: Dict[str, int] = defaultdict(int)
    for _k, v in events.rows:
        if v[i["latency"]] * 3 % 1000 >= min_latency:
            totals[v[i["user"]]] += v[i["latency"]]
    return list(totals.items())
