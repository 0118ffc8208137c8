"""Property tests for order-preserving key encodings."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import BTreeError
from repro.storage.orderkeys import encode_key, successor
from repro.storage.serialization import FieldType

I64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
FINITE = st.floats(allow_nan=False, width=64)


class TestIntKeys:
    @given(I64)
    def test_int_and_long_share_a_fixed_width_key(self, v):
        key = encode_key(FieldType.INT, v)
        assert key == encode_key(FieldType.LONG, v) and len(key) == 8

    @given(I64, I64)
    def test_order_preserved(self, a, b):
        ea, eb = encode_key(FieldType.LONG, a), encode_key(FieldType.LONG, b)
        assert (a < b) == (ea < eb)
        assert (a == b) == (ea == eb)

    def test_out_of_range_rejected(self):
        with pytest.raises(BTreeError):
            encode_key(FieldType.INT, 1 << 63)

    def test_bool_rejected_as_int(self):
        with pytest.raises(BTreeError):
            encode_key(FieldType.INT, True)


class TestDoubleKeys:
    @given(FINITE)
    def test_int_valued_keys_equal_their_float(self, v):
        if v.is_integer():
            assert encode_key(FieldType.DOUBLE, int(v)) == \
                encode_key(FieldType.DOUBLE, v)

    @given(FINITE, FINITE)
    def test_order_preserved(self, a, b):
        ea = encode_key(FieldType.DOUBLE, a)
        eb = encode_key(FieldType.DOUBLE, b)
        assert (a < b) == (ea < eb)
        assert (a == b) == (ea == eb)

    def test_negative_zero_shares_the_zero_key(self):
        # -0.0 == 0.0, so an index range bounded at one must hold the other
        assert encode_key(FieldType.DOUBLE, -0.0) == \
            encode_key(FieldType.DOUBLE, 0.0) == encode_key(FieldType.DOUBLE, 0)

    def test_infinities_ordered(self):
        assert (
            encode_key(FieldType.DOUBLE, float("-inf"))
            < encode_key(FieldType.DOUBLE, -1.0)
            < encode_key(FieldType.DOUBLE, 0.0)
            < encode_key(FieldType.DOUBLE, float("inf"))
        )

    def test_nan_rejected(self):
        with pytest.raises(BTreeError):
            encode_key(FieldType.DOUBLE, float("nan"))


class TestStringKeys:
    @given(st.text(max_size=30), st.text(max_size=30))
    def test_order_preserved(self, a, b):
        ea = encode_key(FieldType.STRING, a)
        eb = encode_key(FieldType.STRING, b)
        assert (a < b) == (ea < eb)
        assert (a == b) == (ea == eb)


class TestBoolKeys:
    def test_order(self):
        assert encode_key(FieldType.BOOL, False) < encode_key(FieldType.BOOL,
                                                               True)


class TestMisc:
    def test_bytes_not_a_key_type(self):
        with pytest.raises(BTreeError):
            encode_key(FieldType.BYTES, b"x")

    @given(st.binary(max_size=20))
    def test_successor_strictly_greater_and_tight(self, raw):
        s = successor(raw)
        assert s > raw
        # Nothing fits strictly between raw and its successor.
        assert s == raw + b"\x00"
