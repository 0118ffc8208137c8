"""Unit + property tests for the varint/zigzag encodings."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SerializationError
from repro.storage import varint


class TestUvarint:
    def test_zero_is_one_byte(self):
        assert varint.encode_uvarint(0) == b"\x00"

    def test_small_values_one_byte(self):
        for v in range(128):
            assert len(varint.encode_uvarint(v)) == 1

    def test_128_needs_two_bytes(self):
        assert len(varint.encode_uvarint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            varint.encode_uvarint(-1)

    def test_too_large_rejected(self):
        with pytest.raises(SerializationError):
            varint.encode_uvarint(1 << 64)

    def test_max_u64_roundtrip(self):
        raw = varint.encode_uvarint((1 << 64) - 1)
        assert varint.decode_uvarint(raw) == ((1 << 64) - 1, len(raw))

    def test_decode_with_offset(self):
        buf = b"\xff" + varint.encode_uvarint(300)
        value, pos = varint.decode_uvarint(buf, 1)
        assert value == 300
        assert pos == len(buf)

    def test_truncated_raises(self):
        raw = varint.encode_uvarint(1 << 40)
        with pytest.raises(SerializationError):
            varint.decode_uvarint(raw[:-1])

    def test_overlong_raises(self):
        with pytest.raises(SerializationError):
            varint.decode_uvarint(b"\x80" * 11)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip(self, value):
        raw = varint.encode_uvarint(value)
        decoded, pos = varint.decode_uvarint(raw)
        assert decoded == value
        assert pos == len(raw)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_length_helper_matches(self, value):
        assert varint.uvarint_len(value) == len(varint.encode_uvarint(value))

    @given(st.integers(min_value=0, max_value=(1 << 63)),
           st.integers(min_value=0, max_value=(1 << 63)))
    def test_smaller_values_never_longer(self, a, b):
        lo, hi = sorted((a, b))
        assert varint.uvarint_len(lo) <= varint.uvarint_len(hi)


class TestZigzag:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4),
    ])
    def test_known_mapping(self, value, expected):
        assert varint.zigzag_encode(value) == expected

    def test_bounds(self):
        assert varint.zigzag_decode(varint.zigzag_encode(-(1 << 63))) == -(1 << 63)
        assert varint.zigzag_decode(varint.zigzag_encode((1 << 63) - 1)) == (1 << 63) - 1

    def test_out_of_range_rejected(self):
        with pytest.raises(SerializationError):
            varint.zigzag_encode(1 << 63)

    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip(self, value):
        assert varint.zigzag_decode(varint.zigzag_encode(value)) == value

    @given(st.integers(min_value=-(1 << 62), max_value=(1 << 62)))
    def test_small_magnitude_small_encoding(self, value):
        # The size-sensitivity property delta-compression relies on.
        raw = varint.encode_svarint(value)
        if -64 <= value < 64:
            assert len(raw) == 1


class TestSvarint:
    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_roundtrip(self, value):
        raw = varint.encode_svarint(value)
        decoded, pos = varint.decode_svarint(raw)
        assert decoded == value
        assert pos == len(raw)

    @given(st.lists(st.integers(min_value=-(1 << 31), max_value=1 << 31),
                    min_size=1, max_size=50))
    def test_concatenated_stream(self, values):
        buf = b"".join(varint.encode_svarint(v) for v in values)
        pos = 0
        out = []
        while pos < len(buf):
            v, pos = varint.decode_svarint(buf, pos)
            out.append(v)
        assert out == values


class TestOffsetHelpers:
    """The buffer-offset decode helpers behind the block-level readers."""

    def test_ten_byte_boundary(self):
        # 2**63 encodes to exactly MAX_VARINT_LEN bytes: the longest legal
        # varint must decode; one more continuation byte must not.
        raw = varint.encode_uvarint(1 << 63)
        assert len(raw) == varint.MAX_VARINT_LEN
        assert varint.decode_uvarint(raw) == (1 << 63, 10)
        overlong = b"\x80" * 10 + b"\x01"
        with pytest.raises(SerializationError):
            varint.decode_uvarint(overlong)

    def test_decode_rejects_64bit_overflow(self):
        # A terminating tenth byte may only carry bit 63: anything above
        # overflows u64.
        overflow = b"\x80" * 9 + b"\x02"
        with pytest.raises(SerializationError, match="overflows"):
            varint.decode_uvarint(overflow)
        top_bit_only = b"\x80" * 9 + b"\x01"
        assert varint.decode_uvarint(top_bit_only) == (1 << 63, 10)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=4))
    def test_end_bound_enforced(self, value, slack):
        # A decode window that stops short of the varint's last byte must
        # raise, never read past `end`.
        raw = varint.encode_uvarint(value)
        padded = raw + b"\xff" * slack
        assert varint.decode_uvarint(padded, 0, len(raw)) == (value, len(raw))
        if len(raw) > 1:
            with pytest.raises(SerializationError):
                varint.decode_uvarint(padded, 0, len(raw) - 1)

    def test_end_of_zero_window_raises(self):
        with pytest.raises(SerializationError):
            varint.decode_uvarint(b"\x01", 0, 0)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_memoryview_decode(self, value):
        raw = memoryview(b"\x00" + varint.encode_uvarint(value))
        assert varint.decode_uvarint(raw, 1) == (value, len(raw))


class TestStreamHelper:
    """read_uvarint_stream: the shared block-file framing reader."""

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                    min_size=1, max_size=8))
    def test_reads_concatenated_stream(self, values):
        import io

        f = io.BytesIO(b"".join(varint.encode_uvarint(v) for v in values))
        for value in values:
            decoded, n = varint.read_uvarint_stream(f)
            assert decoded == value
            assert n == varint.uvarint_len(value)
        assert f.read() == b""

    def test_truncated_stream_raises(self):
        import io

        raw = varint.encode_uvarint(1 << 40)
        with pytest.raises(SerializationError):
            varint.read_uvarint_stream(io.BytesIO(raw[:-1]))

    def test_overlong_stream_raises(self):
        import io

        with pytest.raises(SerializationError):
            varint.read_uvarint_stream(io.BytesIO(b"\x80" * 11))


class TestSvarintLen:
    @given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_matches_encoding(self, value):
        assert varint.svarint_len(value) == len(varint.encode_svarint(value))

    @pytest.mark.parametrize("value", [0, -1, 1, -(1 << 63), (1 << 63) - 1])
    def test_zigzag_extremes(self, value):
        raw = varint.encode_svarint(value)
        assert varint.svarint_len(value) == len(raw)
        assert varint.decode_svarint(raw) == (value, len(raw))
