"""Semijoin reduction of a described reduce-side join.

When the analyzer proves that ``reduce()`` emits only for a group holding
a value from input *B*
(:func:`repro.core.analyzer.reduce_ext.find_required_inputs`), a group
whose key no *B* pair carries emits nothing, raises nothing and changes
nothing, so every pair of it may be deleted before the shuffle: the join
runs as a semijoin (Bernstein & Chiu, JACM 1981).

Two objects carry that through a job, both as its
``JobConf.shuffle_filter`` (so every dispatcher ships them with the conf
and gives the same bytes):

* :class:`Semijoin` -- the optimizer's description, attached by
  :meth:`~repro.core.optimizer.planner.ExecutionDescriptor.apply`: which
  input is the build side and the batch spec whose key column it emits;
* :class:`KeySet` -- what the job driver
  (:func:`~repro.mapreduce.runtime.run_job_group`) resolves it to after a
  key-only pass over the build side's splits: the build side's keys, as
  the shuffle's own sort keys, so membership is the shuffle's group
  equality (all NaNs are one key; ``1 == 1.0 == True``; ``-0.0 == 0.0``).

Map tasks drop the pairs a :class:`KeySet` rejects before they are
sized -- the batch path after its kernel, before records are gathered --
and count them in ``shuffle_records_skipped``.  The job's Appendix E key
filter, if any, rides along as ``inner`` and runs where it always did.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import MapReduceError
from repro.mapreduce.keyspace import sort_keys


class Semijoin:
    """A semijoin not yet resolved: input ``build``'s keys (emitted by its
    batch ``spec``) filter every other input's pairs.  The driver
    resolves it, or runs the job with ``inner`` alone."""

    __slots__ = ("build", "spec", "inner")

    def __init__(self, build: int, spec: Any,
                 inner: Optional[Callable[[Any], bool]] = None):
        self.build = build
        self.spec = spec
        self.inner = inner

    def resolve(self, members: FrozenSet[Tuple]) -> "KeySet":
        return KeySet(members, self.inner)

    def __repr__(self) -> str:
        return f"Semijoin(build=input[{self.build}])"


class KeySet:
    """``key in K`` under the shuffle's group equality, then ``inner``."""

    __slots__ = ("members", "inner")

    def __init__(self, members: FrozenSet[Tuple],
                 inner: Optional[Callable[[Any], bool]] = None):
        #: the sort keys of every key the build side emits
        self.members = members
        self.inner = inner

    def mask(self, keys: Sequence[Any]) -> Optional[List[bool]]:
        """Per key, whether its group may emit; ``None`` keeps them all --
        for a key the shuffle cannot sort, which fails the task where it
        always did."""
        try:
            return list(map(self.members.__contains__, sort_keys(keys)))
        except MapReduceError:
            return None

    def drop(self, keys: List[Any], values: List[Any]
             ) -> Tuple[List[Any], List[Any], int]:
        """The key and value columns of the pairs whose group may emit,
        and how many were dropped."""
        keep = self.mask(keys)
        if keep is None or all(keep):
            return keys, values, 0
        kept = list(compress(keys, keep))
        return kept, list(compress(values, keep)), len(keys) - len(kept)
