"""Length-prefixed fields: decoders invert encoders and refuse short input."""

import pytest
from hypothesis import given, strategies as st

from crowdreg.encoding import dec_bytes, dec_str, enc_bytes, enc_int, enc_str
from crowdreg.errors import DecodeError, EncodeError

BAD_UTF8 = enc_bytes(b"\xff")


@given(field=st.binary(), text=st.text(), rest=st.binary())
def test_bytes_and_str_round_trip(field, text, rest):
    assert dec_bytes(enc_bytes(field) + rest) == (field, rest)
    assert dec_str(enc_str(text) + rest) == (text, rest)


@pytest.mark.parametrize(
    "data",
    [b"", b"\x00\x00", b"\x00\x00\x00\x04abc", enc_bytes(b"abc")[:-1], BAD_UTF8],
    ids=["empty", "short-prefix", "short-field", "cut-encoding", "bad-utf8"],
)
def test_truncated_input_raises(data):
    if data != BAD_UTF8:  # a bytes field may hold any bytes
        with pytest.raises(DecodeError):
            dec_bytes(data)
    with pytest.raises(DecodeError):
        dec_str(data)


def test_negative_integer_has_no_encoding():
    assert enc_int(0) == bytes(8)
    assert enc_int(2**64 - 1) == b"\xff" * 8
    with pytest.raises(EncodeError):
        enc_int(-1)
