"""Keys, signatures, digests, nonces, and an openable group-signature scheme.

Two interchangeable primitive suites sit behind one interface:

* ``ed25519`` (default): Ed25519 signatures and an X25519 sealed envelope,
  both deterministic for a fixed seed.
* ``hash``: a hash-based test-grade suite, orders of magnitude faster,
  for tests and high-volume benchmark runs. It preserves the verify-iff-signed
  contract against honest and scripted parties but offers no security
  against a key-holding forger.

Key bytes carry a one-byte suite tag so sign/verify dispatch without any
global mode switch.

Signing state is derived once per secret key, not once per signature: the
parsed Ed25519 key, or the hash suite's sha256 state already fed its
public key. A least-recently-used cache holds it for the 1,024 most
recently used keys, so those key bytes stay in memory while cached.
`verify` still parses the public key on every call.

The group scheme: every member of a group shares one group signing key; the
outer signature is an ordinary signature under that key, so it is a function
of (group key, message) only and identical across members. Accountability
comes from an opening envelope sealed to the registration authority: the
member id, the member's RA-issued certificate, and an inner individual
signature over the same message. Opening re-verifies both, so a member
cannot frame another without breaking the inner signature.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List

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

from .encoding import dec_bytes, dec_str, enc_bytes, enc_str
from .errors import (
    EmptyGroupError,
    MalformedKeyError,
    NotManagerError,
    OpeningInvalidError,
)

_TAG_ED = b"\x01"
_TAG_HASH = b"\x02"

NONCE_LEN = 16


def digest(data: bytes) -> bytes:
    """32-byte collision-resistant digest of raw bytes."""
    return hashlib.sha256(data).digest()


def _h(*parts: bytes) -> bytes:
    return hashlib.sha256(b"".join(parts)).digest()


class Suite(str, Enum):
    ED25519 = "ed25519"
    HASH = "hash"


@dataclass(frozen=True)
class KeyPair:
    """Individual asymmetric keypair; bytes are suite-tagged."""

    owner: str
    public: bytes
    secret: bytes


def keygen(owner: str, seed: bytes, suite: Suite = Suite.ED25519) -> KeyPair:
    """Deterministic keypair for a 32-byte seed."""
    if len(seed) != 32:
        raise MalformedKeyError(f"seed must be 32 bytes, got {len(seed)}")
    if suite == Suite.ED25519:
        sk = Ed25519PrivateKey.from_private_bytes(seed)
        pub = sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(owner, _TAG_ED + pub, _TAG_ED + seed)
    pub = _h(b"hashpub", seed)
    return KeyPair(owner, _TAG_HASH + pub, _TAG_HASH + seed)


@functools.lru_cache(maxsize=1024)
def _signer(secret: bytes) -> Callable[[bytes], bytes]:
    """The signing function of `secret`; raises MalformedKeyError unless the
    secret is a known suite tag and 32 key bytes."""
    tag, raw = secret[:1], secret[1:]
    if tag not in (_TAG_ED, _TAG_HASH):
        raise MalformedKeyError("unknown key suite tag")
    if len(raw) != 32:
        raise MalformedKeyError(f"secret key must be 32 bytes, got {len(raw)}")
    if tag == _TAG_ED:
        return Ed25519PrivateKey.from_private_bytes(raw).sign
    keyed = hashlib.sha256(b"hashsig" + _TAG_HASH + _h(b"hashpub", raw))

    def hash_sign(message: bytes) -> bytes:
        state = keyed.copy()
        state.update(message)
        return state.digest()

    return hash_sign


def sign(secret: bytes, message: bytes) -> bytes:
    return _signer(secret)(message)


def verify(public: bytes, message: bytes, sig: bytes) -> bool:
    if not public:
        raise MalformedKeyError("empty public key")
    tag, raw = public[:1], public[1:]
    if tag == _TAG_ED:
        if len(raw) != 32:
            raise MalformedKeyError("ed25519 public key must be 32 bytes")
        try:
            Ed25519PublicKey.from_public_bytes(raw).verify(sig, message)
            return True
        except InvalidSignature:
            return False
    if tag == _TAG_HASH:
        return sig == _h(b"hashsig", public, message)
    raise MalformedKeyError("unknown key suite tag")


# --- sealed envelopes (manager-only decryption) ---


def _xor_stream(key: bytes, data: bytes) -> bytes:
    """XOR `data` with the sha256 counter stream of `key`, as one integer."""
    n = len(data)
    stream = b"".join(
        _h(b"stream", key, counter.to_bytes(4, "big")) for counter in range((n + 31) // 32)
    )
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")
    return mixed.to_bytes(n, "big")


def manager_keypair(owner: str, seed: bytes, suite: Suite = Suite.ED25519) -> KeyPair:
    """Decryption keypair for opening envelopes (distinct from signing keys)."""
    if len(seed) != 32:
        raise MalformedKeyError("seed must be 32 bytes")
    if suite == Suite.ED25519:
        sk = X25519PrivateKey.from_private_bytes(seed)
        raw_sk = sk.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())
        pub = sk.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(owner, _TAG_ED + pub, _TAG_ED + raw_sk)
    pub = _h(b"mgrpub", seed)
    return KeyPair(owner, _TAG_HASH + pub, _TAG_HASH + seed)


def seal(manager_public: bytes, plaintext: bytes, entropy: bytes) -> bytes:
    """Encrypt to the manager. Deterministic for fixed (inputs, entropy)."""
    tag = manager_public[:1]
    if tag == _TAG_ED:
        eph_seed = _h(b"seal-eph", entropy, plaintext)
        eph = X25519PrivateKey.from_private_bytes(eph_seed)
        eph_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        shared = eph.exchange(X25519PublicKey.from_public_bytes(manager_public[1:]))
        key = _h(b"seal-key", shared, eph_pub)
    elif tag == _TAG_HASH:
        eph_pub = _h(b"seal-eph", entropy, plaintext)
        key = _h(b"seal-key", manager_public, eph_pub)
    else:
        raise MalformedKeyError("unknown key suite tag")
    ct = _xor_stream(key, plaintext)
    mac = _h(b"seal-mac", key, ct)[:16]
    return tag + eph_pub + mac + ct


def unseal(manager_secret: bytes, envelope: bytes) -> bytes:
    """Decrypt an envelope; raises NotManagerError on a wrong key or an
    envelope that does not open under it."""
    if len(envelope) < 49:
        raise NotManagerError("envelope too short")
    tag, eph_pub, mac, ct = envelope[:1], envelope[1:33], envelope[33:49], envelope[49:]
    if tag != manager_secret[:1]:
        raise NotManagerError("key suite mismatch")
    if tag == _TAG_ED:
        sk = X25519PrivateKey.from_private_bytes(manager_secret[1:])
        try:
            shared = sk.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        except ValueError as exc:  # a low-order ephemeral key yields no shared secret
            raise NotManagerError("envelope does not open under this key") from exc
        key = _h(b"seal-key", shared, eph_pub)
    else:
        key = _h(b"seal-key", _TAG_HASH + _h(b"mgrpub", manager_secret[1:]), eph_pub)
    if _h(b"seal-mac", key, ct)[:16] != mac:
        raise NotManagerError("envelope does not open under this key")
    return _xor_stream(key, ct)


# --- nonces ---


@dataclass(frozen=True)
class Nonce:
    value: bytes
    epoch: int

    def hex(self) -> str:
        return self.value.hex()


class NonceFactory:
    """Issues nonces unique within an epoch, deterministically from a seed."""

    def __init__(self, seed: bytes, epoch: int = 0):
        self._seed = seed
        self.epoch = epoch
        self._counter = 0

    def next(self) -> Nonce:
        value = _h(b"nonce", self._seed, enc_int_16(self.epoch), enc_int_16(self._counter))
        self._counter += 1
        return Nonce(value[:NONCE_LEN], self.epoch)


def enc_int_16(n: int) -> bytes:
    return n.to_bytes(16, "big")


# --- groups ---


class GroupId(str, Enum):
    WORKERS = "workers"
    PLATFORMS = "platforms"
    REQUESTERS = "requesters"


@dataclass(frozen=True)
class RaKeys:
    """The registration authority's signing pair plus manager decryption pair."""

    sign: KeyPair
    manager: KeyPair


def ra_keygen(seed: bytes, suite: Suite = Suite.ED25519) -> RaKeys:
    return RaKeys(
        sign=keygen("RA", _h(b"ra-sign", seed), suite),
        manager=manager_keypair("RA", _h(b"ra-mgr", seed), suite),
    )


@dataclass(frozen=True)
class GroupCredential:
    group: GroupId
    member: str
    member_key: KeyPair
    member_cert: bytes  # RA signature over (member public key, group)
    group_signing_key: bytes  # shared per group
    group_public: bytes
    manager_public: bytes


@dataclass(frozen=True)
class GroupSig:
    """A group signature; its holder names the group (a bundle entry's label)."""

    outer: bytes  # signature over the message under the group signing key
    opening: bytes  # sealed (member id, cert, inner individual signature)


def _cert_bytes(member_public: bytes, group: GroupId) -> bytes:
    return enc_bytes(member_public) + enc_str(group.value)


def group_setup(
    group: GroupId,
    members: List[KeyPair],
    ra: RaKeys,
    seed: bytes,
    suite: Suite = Suite.ED25519,
) -> Dict[str, GroupCredential]:
    """Equip every member with the shared group key and an RA certificate."""
    if not members:
        raise EmptyGroupError(f"group {group.value} has no members")
    group_key = keygen(f"group:{group.value}", _h(b"group", seed, group.value.encode()), suite)
    creds = {}
    for kp in members:
        cert = sign(ra.sign.secret, _cert_bytes(kp.public, group))
        creds[kp.owner] = GroupCredential(
            group=group,
            member=kp.owner,
            member_key=kp,
            member_cert=cert,
            group_signing_key=group_key.secret,
            group_public=group_key.public,
            manager_public=ra.manager.public,
        )
    return creds


def _opening_plaintext(cred: GroupCredential, inner_sig: bytes) -> bytes:
    return (
        enc_str(cred.member)
        + enc_bytes(cred.member_key.public)
        + enc_bytes(cred.member_cert)
        + enc_bytes(inner_sig)
    )


def group_sign(cred: GroupCredential, message: bytes) -> GroupSig:
    outer = sign(cred.group_signing_key, message)
    inner = sign(cred.member_key.secret, message)
    opening = seal(
        cred.manager_public,
        _opening_plaintext(cred, inner),
        entropy=_h(b"open-ent", cred.member_key.secret),
    )
    return GroupSig(outer=outer, opening=opening)


def group_verify(group_public: bytes, message: bytes, gsig: GroupSig) -> bool:
    try:
        return verify(group_public, message, gsig.outer)
    except MalformedKeyError:
        return False


def group_open(ra: RaKeys, group: GroupId, gsig: GroupSig, message: bytes) -> str:
    """Reveal the signer of `group`; verifies the member's certificate for
    that group and the inner signature."""
    plain = unseal(ra.manager.secret, gsig.opening)  # NotManagerError on wrong key
    try:
        member, rest = dec_str(plain)
        member_public, rest = dec_bytes(rest)
        member_cert, rest = dec_bytes(rest)
        inner_sig, rest = dec_bytes(rest)
    except Exception as exc:
        raise OpeningInvalidError("opening envelope is malformed") from exc
    if not verify(ra.sign.public, _cert_bytes(member_public, group), member_cert):
        raise OpeningInvalidError("member certificate does not verify")
    if not verify(member_public, message, inner_sig):
        raise OpeningInvalidError("inner signature does not match the message")
    return member

