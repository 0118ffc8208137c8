"""Declarative fluent queries: one description drives both sides.

A :class:`Query` is built into a ``Dataset`` (in-process ``Session``) or a
``RemoteDataset`` (service client) by :func:`build` -- both expose the
same fluent surface -- and evaluated in plain Python by
:func:`benchmarks.suite.oracle.eval_query`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro import col, count, max_of, min_of, sum_of

#: comparison spelling -> implementation, shared with the oracle
COMPARE: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "==": operator.eq,
}

_AGG = {"sum": sum_of, "min": min_of, "max": max_of}


@dataclass(frozen=True)
class Query:
    """``SELECT select | aggs FROM table WHERE where [GROUP BY group_by]``."""

    table: str
    #: conjunction of (column, comparison, literal)
    where: Tuple[Tuple[str, str, Any], ...] = ()
    select: Optional[Tuple[str, ...]] = None
    group_by: Optional[str] = None
    #: (output name, op, column); ``count`` has no column
    aggs: Tuple[Tuple[str, str, Optional[str]], ...] = ()


def build(session: Any, path: str, query: Query) -> Any:
    """The fluent chain for ``query`` over the record file at ``path``."""
    ds = session.read(path)
    for column, op, literal in query.where:
        ds = ds.filter(COMPARE[op](col(column), literal))
    if query.group_by is not None:
        aggs = {
            name: count() if op == "count" else _AGG[op](column)
            for name, op, column in query.aggs
        }
        return ds.group_by(query.group_by).agg(**aggs)
    if query.select is not None:
        ds = ds.select(*query.select)
    return ds
