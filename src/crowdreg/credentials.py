"""Keys, signatures, digests, nonces, and an openable group-signature scheme.

Two interchangeable primitive suites sit behind one interface:

* ``ed25519`` (default): Ed25519 signatures and an X25519 sealed envelope,
  both deterministic for a fixed seed.
* ``hash``: a hash-based test-grade suite, orders of magnitude faster,
  for tests and high-volume benchmark runs. It preserves the verify-iff-signed
  contract against honest and scripted parties but offers no security
  against a key-holding forger.

One rule covers every key and seed of either suite: a one-byte suite tag
(0x01 ed25519, 0x02 hash) and exactly 32 key bytes, the size of Ed25519
(RFC 8032) and X25519 (RFC 7748) keys. `_key_part` is its one check, so
sign/verify dispatch on the tag without any global mode switch, and a key
that breaks the rule raises MalformedKeyError.

Signing, verifying, sealing and unsealing state is derived once per key,
not once per call: the parsed Ed25519 or X25519 key, or the hash suite's
sha256 state already fed the key's public part, closed over by one function
per key and use. A least-recently-used cache holds it for the 1,024 most
recently used keys of each of the four uses, so those key bytes stay in
memory while cached. A group credential derives its sealing entropy and the
encoded member public key that starts every opening once, when it is built.
Each fixed prefix of sealing (`b"seal-eph"`, `b"seal-mac"`, `b"stream"`) is
a sha256 state kept at module level, which every call copies; the keystream
copies its state once fed the seal's key for each 32-byte block.

The group scheme: every member of a group shares one group signing key; the
outer signature is an ordinary signature under that key, so it is a function
of (group key, message) only and identical across members. Accountability
comes from an opening envelope sealed to the registration authority: the
member's public key and an inner individual signature over the same
message. Both have one length per suite, so an opening's length does not
depend on who signed. Opening verifies the inner signature under the sealed
key and returns that key, so a member cannot frame another without breaking
the inner signature. Which participant holds the key, and whether it is a
member of the group, is decided by the caller from its own key table (see
`tokens.adjudicate`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Tuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .encoding import dec_bytes, enc_bytes
from .errors import (
    DecodeError,
    EmptyGroupError,
    MalformedKeyError,
    NotManagerError,
    OpeningInvalidError,
)

NONCE_LEN = 16


def digest(data: bytes) -> bytes:
    """32-byte collision-resistant digest of raw bytes."""
    return hashlib.sha256(data).digest()


def _h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


class Suite(str, Enum):
    ED25519 = "ed25519"
    HASH = "hash"


_TAG_ED = b"\x01"
_TAG_HASH = b"\x02"
_SUITE_TAG = {Suite.ED25519: _TAG_ED, Suite.HASH: _TAG_HASH}


def _key_part(key: bytes, what: str) -> Tuple[bytes, bytes]:
    """The suite tag and the 32 key bytes of `key`; raises MalformedKeyError
    unless `key` is a known suite tag followed by exactly 32 bytes."""
    tag, raw = key[:1], key[1:]
    if tag not in (_TAG_ED, _TAG_HASH):
        raise MalformedKeyError(f"unknown suite tag {tag.hex() or 'none'} in {what}")
    if len(raw) != 32:
        raise MalformedKeyError(f"{what} must be 32 bytes, got {len(raw)}")
    return tag, raw


def _seed_part(suite: Suite, seed: bytes) -> Tuple[bytes, bytes]:
    """`_key_part` of `seed` tagged with `suite`, which must be known."""
    if suite not in _SUITE_TAG:
        raise MalformedKeyError(f"unknown key suite {suite!r}")
    return _key_part(_SUITE_TAG[suite] + seed, "seed")


@dataclass(frozen=True, slots=True)
class KeyPair:
    """Individual asymmetric keypair; bytes are suite-tagged."""

    owner: str
    public: bytes
    secret: bytes


def keygen(owner: str, seed: bytes, suite: Suite = Suite.ED25519) -> KeyPair:
    """Deterministic keypair for a 32-byte seed (`_seed_part`)."""
    tag, raw = _seed_part(suite, seed)
    if tag == _TAG_ED:
        pub = Ed25519PrivateKey.from_private_bytes(raw).public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(owner, tag + pub, tag + raw)
    return KeyPair(owner, tag + _h(b"hashpub", raw), tag + raw)


@functools.lru_cache(maxsize=1024)
def _signer(secret: bytes) -> Callable[[bytes], bytes]:
    """The signing function of `secret`, checked by `_key_part`."""
    tag, raw = _key_part(secret, "secret key")
    if tag == _TAG_ED:
        return Ed25519PrivateKey.from_private_bytes(raw).sign
    keyed = hashlib.sha256(b"hashsig" + tag + _h(b"hashpub", raw))

    def hash_sign(message: bytes) -> bytes:
        state = keyed.copy()
        state.update(message)
        return state.digest()

    return hash_sign


def sign(secret: bytes, message: bytes) -> bytes:
    return _signer(secret)(message)


@functools.lru_cache(maxsize=1024)
def _verifier(public: bytes) -> Callable[[bytes, bytes], bool]:
    """The verifying function `(message, sig) -> bool` of `public`, checked
    by `_key_part`."""
    tag, raw = _key_part(public, "public key")
    if tag == _TAG_ED:
        key = Ed25519PublicKey.from_public_bytes(raw)

        def ed_verify(message: bytes, sig: bytes) -> bool:
            try:
                key.verify(sig, message)
                return True
            except (InvalidSignature, TypeError):  # TypeError: a signature that is not bytes
                return False

        return ed_verify
    keyed = hashlib.sha256(b"hashsig" + public)

    def hash_verify(message: bytes, sig: bytes) -> bool:
        state = keyed.copy()
        state.update(message)
        return sig == state.digest()

    return hash_verify


def verify(public: bytes, message: bytes, sig: bytes) -> bool:
    return _verifier(public)(message, sig)


# --- sealed envelopes (manager-only decryption) ---


_SEAL_EPH = hashlib.sha256(b"seal-eph")
_SEAL_MAC = hashlib.sha256(b"seal-mac")
_STREAM = hashlib.sha256(b"stream")


def _xor_stream(key: bytes, data: bytes) -> bytes:
    """XOR `data`, of any length, with the sha256 counter stream of `key`,
    as one integer. Block i is sha256(b"stream" + key + i), with i as 4
    bytes: a copy of `_STREAM` fed `key` once, copied again for each block."""
    n = len(data)
    keyed = _STREAM.copy()
    keyed.update(key)
    blocks = []
    for i in range((n + 31) // 32):
        state = keyed.copy()
        state.update(i.to_bytes(4, "big"))
        blocks.append(state.digest())
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(b"".join(blocks)[:n], "big")
    return mixed.to_bytes(n, "big")


def _seal_mac(key: bytes, ct: bytes) -> bytes:
    """The 16-byte tag sha256(b"seal-mac" + key + ct) of an envelope."""
    state = _SEAL_MAC.copy()
    state.update(key)
    state.update(ct)
    return state.digest()[:16]


def manager_keypair(owner: str, seed: bytes, suite: Suite = Suite.ED25519) -> KeyPair:
    """Decryption keypair for opening envelopes (distinct from signing keys),
    for a 32-byte seed (`_seed_part`)."""
    tag, raw = _seed_part(suite, seed)
    if tag == _TAG_ED:
        sk = X25519PrivateKey.from_private_bytes(raw)
        raw_sk = sk.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
        pub = sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(owner, tag + pub, tag + raw_sk)
    return KeyPair(owner, tag + _h(b"mgrpub", raw), tag + raw)


@functools.lru_cache(maxsize=1024)
def _sealer(manager_public: bytes) -> Callable[[bytes], Tuple[bytes, bytes]]:
    """The key agreement `eph_seed -> (eph_pub, stream key)` of sealing to
    `manager_public`, checked by `_key_part`: an X25519 exchange with the
    parsed manager key, or, for the hash suite, a copy of a sha256 state
    already fed `b"seal-key" + manager_public`. The function raises
    MalformedKeyError when the exchange yields no shared secret (a low-order
    manager key)."""
    tag, raw = _key_part(manager_public, "manager public key")
    if tag == _TAG_ED:
        manager = X25519PublicKey.from_public_bytes(raw)

        def ed_agree(eph_seed: bytes) -> Tuple[bytes, bytes]:
            eph = X25519PrivateKey.from_private_bytes(eph_seed)
            eph_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
            try:
                shared = eph.exchange(manager)
            except ValueError as exc:
                raise MalformedKeyError("low-order manager public key") from exc
            return eph_pub, _h(b"seal-key", shared, eph_pub)

        return ed_agree
    keyed = hashlib.sha256(b"seal-key" + manager_public)

    def hash_agree(eph_seed: bytes) -> Tuple[bytes, bytes]:
        state = keyed.copy()
        state.update(eph_seed)
        return eph_seed, state.digest()

    return hash_agree


def seal(manager_public: bytes, plaintext: bytes, entropy: bytes) -> bytes:
    """Encrypt to the manager. Deterministic for fixed (inputs, entropy)."""
    eph = _SEAL_EPH.copy()
    eph.update(entropy)
    eph.update(plaintext)
    eph_pub, key = _sealer(manager_public)(eph.digest())
    ct = _xor_stream(key, plaintext)
    return manager_public[:1] + eph_pub + _seal_mac(key, ct) + ct


@functools.lru_cache(maxsize=1024)
def _unsealer(manager_secret: bytes) -> Callable[[bytes], bytes]:
    """The stream key `eph_pub -> key` of envelopes sealed to the manager
    `manager_secret`, checked by `_key_part`: an X25519 exchange with the
    parsed secret key, or, for the hash suite, a copy of a sha256 state
    already fed `b"seal-key" + manager public`. The function raises
    NotManagerError when the exchange yields no shared secret (a low-order
    ephemeral key)."""
    tag, raw = _key_part(manager_secret, "manager secret key")
    if tag == _TAG_ED:
        sk = X25519PrivateKey.from_private_bytes(raw)

        def ed_key(eph_pub: bytes) -> bytes:
            try:
                shared = sk.exchange(X25519PublicKey.from_public_bytes(eph_pub))
            except ValueError as exc:
                raise NotManagerError("envelope does not open under this key") from exc
            return _h(b"seal-key", shared, eph_pub)

        return ed_key
    keyed = hashlib.sha256(b"seal-key" + tag + _h(b"mgrpub", raw))

    def hash_key(eph_pub: bytes) -> bytes:
        state = keyed.copy()
        state.update(eph_pub)
        return state.digest()

    return hash_key


def unseal(manager_secret: bytes, envelope: bytes) -> bytes:
    """Decrypt an envelope; raises MalformedKeyError for a secret that
    `_key_part` refuses, and NotManagerError on a wrong key or an envelope
    that does not open under it."""
    open_key = _unsealer(manager_secret)
    if len(envelope) < 49:
        raise NotManagerError("envelope too short")
    tag, eph_pub, mac, ct = envelope[:1], envelope[1:33], envelope[33:49], envelope[49:]
    if tag != manager_secret[:1]:
        raise NotManagerError("key suite mismatch")
    key = open_key(eph_pub)
    if _seal_mac(key, ct) != mac:
        raise NotManagerError("envelope does not open under this key")
    return _xor_stream(key, ct)


# --- nonces ---


@dataclass(frozen=True, slots=True)
class Nonce:
    value: bytes

    def hex(self) -> str:
        return self.value.hex()


class NonceFactory:
    """Issues distinct nonces deterministically from a seed: the n-th is a
    hash of the seed and n, cut to `NONCE_LEN` bytes. The hash state fed the
    seed is kept and copied for each nonce."""

    def __init__(self, seed: bytes):
        self._keyed = hashlib.sha256(b"nonce" + seed)
        self._counter = 0

    def next(self) -> Nonce:
        state = self._keyed.copy()
        state.update(self._counter.to_bytes(16, "big"))
        self._counter += 1
        return Nonce(state.digest()[:NONCE_LEN])


# --- groups ---


class GroupId(str, Enum):
    WORKERS = "workers"
    PLATFORMS = "platforms"
    REQUESTERS = "requesters"


@dataclass(frozen=True, slots=True)
class RaKeys:
    """The registration authority's signing pair plus manager decryption pair."""

    sign: KeyPair
    manager: KeyPair


def ra_keygen(seed: bytes, suite: Suite = Suite.ED25519) -> RaKeys:
    return RaKeys(
        sign=keygen("RA", _h(b"ra-sign", seed), suite),
        manager=manager_keypair("RA", _h(b"ra-mgr", seed), suite),
    )


@dataclass(frozen=True, slots=True)
class GroupCredential:
    """A member's signing material for one group. `opening_entropy`, the
    sealing entropy drawn from the member secret, and `opening_key`, the
    encoded member public key that every opening starts with, are derived
    when it is built (and rebuilt by `dataclasses.replace`), since they do
    not depend on the message."""

    group: GroupId
    member_key: KeyPair
    group_signing_key: bytes  # shared per group
    group_public: bytes
    manager_public: bytes
    opening_entropy: bytes = field(init=False, compare=False, repr=False)
    opening_key: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "opening_entropy", _h(b"open-ent", self.member_key.secret))
        object.__setattr__(self, "opening_key", enc_bytes(self.member_key.public))


@dataclass(frozen=True, slots=True)
class GroupSig:
    """A group signature; its holder names the group (a bundle entry's label)."""

    outer: bytes  # signature over the message under the group signing key
    opening: bytes  # sealed (member public key, inner individual signature)


def group_setup(
    group: GroupId,
    members: List[KeyPair],
    ra: RaKeys,
    seed: bytes,
    suite: Suite = Suite.ED25519,
) -> Dict[str, GroupCredential]:
    """Equip every member with the shared group key and the RA's manager key."""
    if not members:
        raise EmptyGroupError(f"group {group.value} has no members")
    group_key = keygen(f"group:{group.value}", _h(b"group", seed, group.value.encode()), suite)
    creds = {}
    for kp in members:
        creds[kp.owner] = GroupCredential(
            group=group,
            member_key=kp,
            group_signing_key=group_key.secret,
            group_public=group_key.public,
            manager_public=ra.manager.public,
        )
    return creds


def group_sign(cred: GroupCredential, message: bytes) -> GroupSig:
    """Sign under the group key; the opening seals the member public key and
    an inner signature by the member key."""
    outer = sign(cred.group_signing_key, message)
    inner = sign(cred.member_key.secret, message)
    opening = seal(cred.manager_public, cred.opening_key + enc_bytes(inner), cred.opening_entropy)
    return GroupSig(outer=outer, opening=opening)


def group_verify(group_public: bytes, message: bytes, gsig: GroupSig) -> bool:
    try:
        return verify(group_public, message, gsig.outer)
    except MalformedKeyError:
        return False


def group_open(ra: RaKeys, gsig: GroupSig, message: bytes) -> bytes:
    """The public key of the signer: unseal the opening and verify its
    inner signature over `message` under the sealed key. Whose key it is,
    and in which group, is for the caller to look up."""
    plain = unseal(ra.manager.secret, gsig.opening)  # NotManagerError on wrong key
    try:
        member_public, rest = dec_bytes(plain)
        inner_sig, rest = dec_bytes(rest)
    except DecodeError as exc:
        raise OpeningInvalidError("opening envelope is malformed") from exc
    if rest:
        raise OpeningInvalidError("opening envelope has bytes after the inner signature")
    try:
        inner_ok = verify(member_public, message, inner_sig)
    except MalformedKeyError as exc:
        raise OpeningInvalidError("member key in the opening is malformed") from exc
    if not inner_ok:
        raise OpeningInvalidError("inner signature does not match the message")
    return member_public
