"""Canonical byte serialization.

Length-prefixed fields in declared order, integers big-endian, digests raw.
Every structure that gets digested or signed round-trips through these
helpers so that two nodes always hash identical bytes.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import DecodeError, EncodeError


def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def dec_bytes(data: bytes) -> Tuple[bytes, bytes]:
    """Split one `enc_bytes` field off the front: (field, rest)."""
    n = int.from_bytes(data[:4], "big")
    if len(data) < 4 + n:
        raise DecodeError("truncated field")
    return data[4 : 4 + n], data[4 + n :]


def enc_str(s: str) -> bytes:
    return enc_bytes(s.encode("utf-8"))


def enc_int(n: int) -> bytes:
    if n < 0:
        raise EncodeError("canonical integers are non-negative")
    return n.to_bytes(8, "big")


def enc_seq(items: Iterable[bytes]) -> bytes:
    items = list(items)
    return len(items).to_bytes(4, "big") + b"".join(items)
