"""Tests for shuffle key normalization, hashing, and sizing."""

import pickle
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MapReduceError
from repro.mapreduce import (
    InMemoryInput,
    JobConf,
    LocalJobRunner,
    Mapper,
    ParallelJobRunner,
    Reducer,
)
from repro.mapreduce.keyspace import (
    _SIZE_DISPATCH,
    _canonical_bytes,
    _estimate_size_slow,
    estimate_size,
    pair_sizes,
    sort_key,
    sort_keys,
    stable_hash,
    stable_hashes,
    total_size,
)
from repro.storage import varint
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


# -- column spellings: each is exactly its per-item spelling ---------------

WIDE = Schema("Wide", [Field("a", FieldType.INT), Field("b", FieldType.STRING),
                       Field("c", FieldType.DOUBLE)])
INT64_EDGES = [-(1 << 63), (1 << 63) - 1, -(1 << 62), 1 << 62, -64, 63, -65,
               64, 8191, 8192, -8193]
ODD_STRINGS = ["x" * 127, "x" * 128, "é" * 63, "é" * 64, "日本語" * 43,
               "naïve", "\ud800", "a\udfffb", ""]

INTS = st.one_of(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
                 st.integers(min_value=-200, max_value=200),
                 st.sampled_from(INT64_EDGES))
OUT_OF_RANGE = st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 70])
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), -0.0, 0.0, 1.0, -3.0, 2.0 ** 53, 2.0 ** 60, 1.5]))
TEXT = st.one_of(st.text(max_size=12), st.sampled_from(ODD_STRINGS))
BINARY = st.one_of(st.binary(max_size=12),
                   st.binary(max_size=12).map(bytearray))
ATOMS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT, BINARY)
TUPLES = st.lists(st.one_of(INTS, TEXT, FLOATS), max_size=3).map(tuple)
PLAIN_RECORDS = st.one_of(
    st.builds(PT.make, INTS, INTS),
    st.builds(WIDE.make, INTS, TEXT, FLOATS),
)
SCANNED_RECORDS = st.one_of(
    st.builds(lambda x, y: build_records(PT, [[x], [y]], 1)[0], INTS, INTS),
    st.builds(lambda a, b, c: build_records(WIDE, [[a], [b], [c]], 1)[0],
              INTS, TEXT, FLOATS),
)
ANY = st.one_of(ATOMS, TUPLES, PLAIN_RECORDS, SCANNED_RECORDS)
#: one element strategy per homogeneous column kind
KINDS = [st.none(), st.booleans(), INTS, FLOATS, TEXT, st.binary(max_size=9),
         st.binary(max_size=9).map(bytearray), TUPLES,
         st.tuples(INTS, TEXT), PLAIN_RECORDS, SCANNED_RECORDS]
HOMOGENEOUS = st.sampled_from(KINDS).flatmap(
    lambda kind: st.lists(kind, max_size=40))
MIXED = st.lists(ANY, max_size=40)
#: columns whose per-item loop raises: an unsizable / unkeyable value, an
#: int outside int64, a lone surrogate, planted among ordinary values
POISON = st.sampled_from([{"a": 1}, [1, 2], 1 << 64, "\udc80", (1, {})])
POISONED = st.tuples(MIXED, POISON, st.integers(min_value=0)).map(
    lambda t: t[0][:t[2] % (len(t[0]) + 1)] + [t[1]]
    + t[0][t[2] % (len(t[0]) + 1):])
COLUMNS = st.one_of(HOMOGENEOUS, MIXED, POISONED)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the subject
        return "raise", type(exc), str(exc)


class TestColumnSpellings:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(COLUMNS)
    def test_total_size_is_the_per_item_sum(self, column):
        assert _outcome(total_size, column) == _outcome(
            lambda c: sum(map(estimate_size, c)), column)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(COLUMNS)
    def test_sort_keys_are_the_per_item_keys(self, column):
        assert _outcome(sort_keys, column) == _outcome(
            lambda c: list(map(sort_key, c)), column)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(COLUMNS)
    def test_stable_hashes_are_the_per_item_hashes(self, column):
        assert _outcome(stable_hashes, column) == _outcome(
            lambda c: list(map(stable_hash, c)), column)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(ANY, ANY), max_size=30), POISON, POISON,
           st.integers(min_value=0), st.integers(min_value=0))
    def test_pair_sizes_raise_what_the_per_pair_loop_raises(
            self, pairs, bad_key, bad_value, at_key, at_value):
        keys = [k for k, _v in pairs] + [0, 0]
        values = [v for _k, v in pairs] + [0, 0]
        keys[at_key % len(keys)] = bad_key
        values[at_value % len(values)] = bad_value

        def per_pair(keys, values):
            key_bytes = value_bytes = 0
            for key, value in zip(keys, values):
                key_bytes += estimate_size(key)
                value_bytes += estimate_size(value)
            return key_bytes, value_bytes

        assert _outcome(pair_sizes, keys, values)[0] == "raise"
        assert _outcome(pair_sizes, keys, values) == _outcome(
            per_pair, keys, values)
        clean = [k for k, _v in pairs], [v for _k, v in pairs]
        assert _outcome(pair_sizes, *clean) == _outcome(per_pair, *clean)

    def test_empty_column(self):
        assert total_size([]) == 0
        assert sort_keys([]) == [] and stable_hashes([]) == []
        assert pair_sizes([], []) == (0, 0)

    def test_int64_edges_size_like_svarint_len(self):
        assert total_size(INT64_EDGES) == sum(map(estimate_size, INT64_EDGES))
        assert list(map(estimate_size, INT64_EDGES)) == \
            list(map(varint.svarint_len, INT64_EDGES))

    def test_ints_past_int64_are_sized_not_refused(self):
        # the zigzag varint's length, continued past 64 bits
        for big, size in ((1 << 63, 10), (-(1 << 63) - 1, 10),
                          (1 << 70, 11), (-(1 << 70), 11), (1 << 700, 101)):
            assert estimate_size(big) == size
            assert total_size(INT64_EDGES + [big]) == \
                total_size(INT64_EDGES) + size
            assert pair_sizes([big], [(big, "x")]) == (size, 1 + size + 2)

    def test_lone_surrogates_raise_the_per_item_encode_error(self):
        column = ["ok", "fine", "x\ud800y", "\udfff"]
        for fn, one in ((total_size, estimate_size),
                        (stable_hashes, stable_hash)):
            with pytest.raises(UnicodeEncodeError) as raised:
                fn(column)
            with pytest.raises(UnicodeEncodeError) as expected:
                one(column[2])
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("text", ODD_STRINGS[:-3] + ["", "a" * 200])
    def test_string_hash_heads_either_side_of_128_bytes(self, text):
        column = [text, "k", text + "z"]
        assert stable_hashes(column) == list(map(stable_hash, column))

    def test_records_of_two_schemas_and_two_kinds(self):
        scanned = build_records(WIDE, [[1, 300], ["a", "é"], [0.5, 2.0]], 2)
        column = scanned + [PT.make(1, -1), WIDE.make(7, "q", 1.0),
                            build_records(PT, [[5], [6]], 1)[0]]
        assert total_size(column) == sum(map(estimate_size, column))
        assert sort_keys(column) == list(map(sort_key, column))
        assert stable_hashes(column) == list(map(stable_hash, column))

    def test_nan_sort_keys_stay_one_group(self):
        column = [float("nan"), 1.0, float("-nan"), -0.0]
        assert repr(sort_keys(column)) == repr(list(map(sort_key, column)))


class MixedKeyMapper(Mapper):
    """Emits keys mixing 1 / 1.0 / True / NaN / str from int inputs."""

    KEYS = [1, 1.0, True, float("nan"), "one", 2, 2.5, "two", False, 0.0]

    def map(self, key, value, ctx):
        ctx.emit(self.KEYS[value % len(self.KEYS)], value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def test_mixed_numeric_keys_sequential_and_pooled_are_byte_identical():
    conf = JobConf(
        name="mixed-keys",
        mapper=MixedKeyMapper,
        reducer=SumReducer,
        inputs=[InMemoryInput([(i, i) for i in range(400)])],
        num_reducers=3,
    )
    seq = LocalJobRunner().run(conf)
    par = ParallelJobRunner(num_workers=2).run(conf)
    assert pickle.dumps(par.outputs) == pickle.dumps(seq.outputs)
    for field in ("shuffle_bytes", "shuffle_key_bytes", "map_output_bytes",
                  "reduce_groups", "reduce_output_bytes"):
        assert getattr(par.metrics, field) == getattr(seq.metrics, field)
    # 1, 1.0 and True are one group; NaN is one group
    assert seq.metrics.reduce_groups == 7
