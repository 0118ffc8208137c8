"""Tests for shuffle key normalization, hashing, and sizing."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import MapReduceError
from repro.mapreduce.keyspace import (
    _SIZE_DISPATCH,
    _canonical_bytes,
    _estimate_size_slow,
    estimate_size,
    sort_key,
    stable_hash,
)
from repro.storage.serialization import (
    Field,
    FieldType,
    Record,
    Schema,
    build_records,
    scanned_class,
)

PT = Schema("Pt", [Field("x", FieldType.INT), Field("y", FieldType.INT)])

SIMPLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)
KEYS = st.recursive(SIMPLE, lambda inner: st.tuples(inner, inner), max_leaves=6)


class TestSortKey:
    def test_numbers_interoperate(self):
        keys = [3, 1.5, 2, 0.1]
        assert sorted(keys, key=sort_key) == [0.1, 1.5, 2, 3]

    def test_mixed_types_totally_ordered(self):
        keys = ["b", 2, None, (1, 2), b"x", "a", 1]
        ordered = sorted(keys, key=sort_key)
        # Re-sorting is stable/idempotent: a total order exists.
        assert sorted(ordered, key=sort_key) == ordered
        assert ordered[0] is None

    def test_records_ordered_by_content(self):
        a, b = PT.make(1, 2), PT.make(1, 3)
        assert sort_key(a) < sort_key(b)

    def test_unhashable_type_rejected(self):
        with pytest.raises(MapReduceError):
            sort_key({"a": 1})

    @given(st.lists(KEYS, max_size=30))
    def test_sorting_never_crashes_and_is_consistent(self, keys):
        ordered = sorted(keys, key=sort_key)
        assert sorted(ordered, key=sort_key) == ordered


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("hello") == stable_hash("hello")
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_known_collision_resistance_smoke(self):
        values = [f"key-{i}" for i in range(1000)]
        assert len({stable_hash(v) for v in values}) > 990

    def test_records_hashable(self):
        assert stable_hash(PT.make(1, 2)) == stable_hash(PT.make(1, 2))
        assert stable_hash(PT.make(1, 2)) != stable_hash(PT.make(2, 1))

    @given(KEYS, KEYS)
    def test_equal_sort_keys_hash_equal(self, a, b):
        # Grouping correctness: keys the reduce phase would merge must land
        # in the same partition.  (1, 1.0 and True are one group.)
        if sort_key(a) == sort_key(b):
            assert stable_hash(a) == stable_hash(b)

    def test_numeric_aliases_share_partition(self):
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0.0) == stable_hash(-0.0) == stable_hash(0)

    def test_dict_rejected(self):
        with pytest.raises(MapReduceError):
            stable_hash({"a": 1})

    @pytest.mark.parametrize("text", [
        "x" * n for n in (0, 1, 127, 128, 16383, 16384)
    ] + ["naïve", "日本語" * 43, "é" * 64, "\U0001F600" * 4097])
    def test_str_fast_path_hashes_the_canonical_bytes(self, text):
        # byte lengths 0, 1, 127, 128, 16383, 16384 straddle the 1-, 2-
        # and 3-byte uvarint length prefixes; the rest are multi-byte UTF-8
        out = bytearray()
        _canonical_bytes(text, out)
        assert stable_hash(text) == zlib.crc32(bytes(out))


def _pre_pr_size(value):
    """``estimate_size`` of a record as the isinstance chain computes it."""
    if isinstance(value, Record):
        return 1 + sum(_pre_pr_size(v) for v in value.as_tuple())
    if isinstance(value, tuple):
        return 1 + sum(_pre_pr_size(v) for v in value)
    return _estimate_size_slow(value)


class TestEstimateSize:
    def test_small_ints_small(self):
        assert estimate_size(0) == 1
        assert estimate_size(1 << 40) > estimate_size(1)

    def test_strings_scale_with_length(self):
        assert estimate_size("x" * 100) > estimate_size("x") + 90

    def test_record_size_sums_fields(self):
        assert estimate_size(PT.make(1000, 1000)) >= 1 + 2 * estimate_size(1000)

    @given(KEYS)
    def test_always_positive(self, key):
        assert estimate_size(key) >= 1

    def test_record_fast_path_sizes_whatever_the_record_holds(self):
        # Record values are not type-checked: a str in an INT field and a
        # nested tuple are sized by what they are, as before
        odd = Record(PT, ["not an int", (1, ("a", b"bc"), None, 2.5)])
        assert estimate_size(odd) == _pre_pr_size(odd) == 1 + 11 + 17
        assert estimate_size(PT.make(-5, 1 << 40)) == _pre_pr_size(
            PT.make(-5, 1 << 40))

    def test_a_scanned_record_takes_the_record_fast_path(self):
        [scanned] = build_records(PT, [[300], [-2]], 1)
        assert type(scanned) is scanned_class(PT)
        assert estimate_size(scanned) == estimate_size(PT.make(300, -2))
        # sized once through the isinstance fallback, which registers
        # its type: the next one dispatches like a plain Record
        assert _SIZE_DISPATCH[type(scanned)] is _SIZE_DISPATCH[Record]
