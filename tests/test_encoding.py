"""Length-prefixed fields: the decoder inverts the encoder and refuses short input."""

import pytest
from hypothesis import given, strategies as st

from crowdreg.encoding import dec_bytes, enc_bytes, enc_int
from crowdreg.errors import DecodeError, EncodeError


@given(field=st.binary(), rest=st.binary())
def test_bytes_round_trip(field, rest):
    assert dec_bytes(enc_bytes(field) + rest) == (field, rest)


@pytest.mark.parametrize(
    "data",
    [b"", b"\x00\x00", b"\x00\x00\x00\x04abc", enc_bytes(b"abc")[:-1]],
    ids=["empty", "short-prefix", "short-field", "cut-encoding"],
)
def test_truncated_input_raises(data):
    with pytest.raises(DecodeError):
        dec_bytes(data)


def test_negative_integer_has_no_encoding():
    assert enc_int(0) == bytes(8)
    assert enc_int(2**64 - 1) == b"\xff" * 8
    with pytest.raises(EncodeError):
        enc_int(-1)
