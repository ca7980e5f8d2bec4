"""Keys, signatures, digests, nonces, and the group scheme's three properties."""

import hashlib
import random
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from crowdreg import credentials
from crowdreg.credentials import (
    GroupId,
    GroupSig,
    NonceFactory,
    Suite,
    digest,
    group_open,
    group_setup,
    group_sign,
    group_verify,
    keygen,
    manager_keypair,
    ra_keygen,
    seal,
    sign,
    unseal,
    verify,
)
from crowdreg.errors import (
    EmptyGroupError,
    MalformedKeyError,
    NotManagerError,
    OpeningInvalidError,
)


def seed(n: int) -> bytes:
    return n.to_bytes(32, "big")


@pytest.fixture(params=[Suite.ED25519, Suite.HASH], ids=["ed25519", "hash"])
def suite(request):
    return request.param


class TestKeysAndSignatures:
    def test_keygen_is_deterministic(self, suite):
        assert keygen("w1", seed(7), suite) == keygen("w1", seed(7), suite)

    def test_distinct_seeds_distinct_publics(self, suite):
        assert keygen("w1", seed(1), suite).public != keygen("w2", seed(2), suite).public

    def test_sign_verify_loop(self, suite):
        kp = keygen("w1", seed(3), suite)
        rng = random.Random(0)
        for _ in range(100):
            m = rng.randbytes(rng.randrange(0, 200))
            assert verify(kp.public, m, sign(kp.secret, m))

    def test_any_byte_change_invalidates(self, suite):
        kp = keygen("w1", seed(4), suite)
        m = b"hello tasks"
        sig = sign(kp.secret, m)
        assert not verify(kp.public, m + b"\x00", sig)

    def test_wrong_key_fails(self, suite):
        k1, k2 = keygen("a", seed(5), suite), keygen("b", seed(6), suite)
        sig = sign(k1.secret, b"m")
        assert not verify(k2.public, b"m", sig)

    def test_malformed_key_raises(self):
        with pytest.raises(MalformedKeyError):
            verify(b"", b"m", b"sig")
        with pytest.raises(MalformedKeyError):
            verify(b"\x09" + b"x" * 32, b"m", b"sig")
        with pytest.raises(MalformedKeyError):
            keygen("w", b"short")
        with pytest.raises(MalformedKeyError):
            sign(b"\x01" + b"x" * 5, b"m")
        with pytest.raises(MalformedKeyError):
            sign(b"\x02", b"m")

    def test_signatures_match_per_call_reference(self, suite):
        k1, k2 = keygen("a", seed(12), suite), keygen("b", seed(13), suite)
        credentials._signer.cache_clear()
        rng = random.Random(3)
        for length in range(0, 201, 5):
            m = rng.randbytes(length)
            for kp in (k1, k2, k1):
                assert sign(kp.secret, m) == _reference_sign(kp, m)


def _reference_sign(kp, message: bytes) -> bytes:
    """Signing with key state derived on every call; signatures must not change."""
    if kp.secret[:1] == b"\x01":
        return Ed25519PrivateKey.from_private_bytes(kp.secret[1:]).sign(message)
    return hashlib.sha256(b"hashsig" + kp.public + message).digest()


def _reference_xor_stream(key: bytes, data: bytes) -> bytes:
    """The original byte-by-byte stream XOR; seal's envelopes must not change."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out.extend(hashlib.sha256(b"stream" + key + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(x ^ y for x, y in zip(data, out[: len(data)]))


class TestSeal:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 200])
    def test_envelope_matches_byte_wise_reference(self, suite, length, monkeypatch):
        mgr = manager_keypair("RA", seed(10), suite)
        plaintext = random.Random(length).randbytes(length)
        with monkeypatch.context() as m:
            m.setattr(credentials, "_xor_stream", _reference_xor_stream)
            expected = seal(mgr.public, plaintext, entropy=seed(11))
        envelope = seal(mgr.public, plaintext, entropy=seed(11))
        assert envelope == expected
        assert unseal(mgr.secret, envelope) == plaintext

    @pytest.mark.parametrize("eph", [bytes(32), (1).to_bytes(32, "little")], ids=["zero", "one"])
    def test_low_order_ephemeral_key_does_not_open(self, eph):
        mgr = manager_keypair("RA", seed(10), Suite.ED25519)
        envelope = seal(mgr.public, b"member", entropy=seed(11))
        with pytest.raises(NotManagerError):
            unseal(mgr.secret, envelope[:1] + eph + envelope[33:])


class TestDigest:
    def test_repeatable(self):
        assert digest(b"m") == digest(b"m")

    def test_pinned_empty_digest(self):
        # sha256 of the empty string, computed once and frozen
        assert digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_extension_changes_digest(self):
        rng = random.Random(1)
        for _ in range(10_000):
            m = rng.randbytes(rng.randrange(0, 64))
            assert digest(m) != digest(m + b"\x00")

    def test_fixed_length(self):
        assert len(digest(b"")) == 32 == len(digest(b"x" * 10_000))


class TestNonces:
    def test_unique_within_epoch(self):
        factory = NonceFactory(seed(9), epoch=0)
        values = {factory.next().value for _ in range(5000)}
        assert len(values) == 5000

    def test_deterministic_stream(self):
        a = NonceFactory(seed(9), epoch=1)
        b = NonceFactory(seed(9), epoch=1)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_epoch_separates_streams(self):
        a = NonceFactory(seed(9), epoch=0).next()
        b = NonceFactory(seed(9), epoch=1).next()
        assert a.value != b.value


@pytest.fixture
def group(suite):
    ra = ra_keygen(seed(100), suite)
    members = [keygen(f"w{i}", seed(200 + i), suite) for i in range(3)]
    creds = group_setup(GroupId.WORKERS, members, ra, seed(300), suite)
    return ra, members, creds


class TestGroupScheme:
    def test_sign_then_verify(self, group):
        ra, members, creds = group
        gsig = group_sign(creds["w0"], b"task")
        assert group_verify(creds["w0"].group_public, b"task", gsig)

    def test_one_member_group_opens_to_member(self, suite):
        ra = ra_keygen(seed(101), suite)
        creds = group_setup(GroupId.WORKERS, [keygen("only", seed(201), suite)], ra, seed(301), suite)
        gsig = group_sign(creds["only"], b"m")
        assert group_verify(creds["only"].group_public, b"m", gsig)
        assert group_open(ra, GroupId.WORKERS, gsig, b"m") == "only"

    def test_empty_group_rejected(self, suite):
        with pytest.raises(EmptyGroupError):
            group_setup(GroupId.WORKERS, [], ra_keygen(seed(102), suite), seed(302), suite)

    @pytest.mark.parametrize("missing", ["group key", "member secret"])
    def test_credential_without_key_material_is_malformed(self, group, missing):
        _, _, creds = group
        cred = creds["w0"]
        if missing == "group key":
            cred = replace(cred, group_signing_key=b"")
        else:
            cred = replace(cred, member_key=replace(cred.member_key, secret=b""))
        with pytest.raises(MalformedKeyError):
            group_sign(cred, b"m")

    def test_two_signers_differ_only_in_opening(self, group):
        _, _, creds = group
        a = group_sign(creds["w0"], b"same message")
        b = group_sign(creds["w1"], b"same message")
        assert a.outer == b.outer  # anonymity: outer depends on (group key, message) only
        assert a.opening != b.opening

    def test_property1_random_outer_rejected(self, group):
        _, _, creds = group
        rng = random.Random(2)
        real = group_sign(creds["w0"], b"m")
        for _ in range(200):
            fake = GroupSig(rng.randbytes(len(real.outer)), real.opening)
            assert not group_verify(creds["w0"].group_public, b"m", fake)

    def test_non_member_key_cannot_sign(self, group):
        _, _, creds = group
        outsider = keygen("intruder", seed(999))
        forged = GroupSig(sign(outsider.secret, b"m"), b"")
        assert not group_verify(creds["w0"].group_public, b"m", forged)

    def test_property3_open_returns_signer(self, group):
        ra, _, creds = group
        for member in ("w0", "w1", "w2"):
            gsig = group_sign(creds[member], b"payload")
            assert group_open(ra, GroupId.WORKERS, gsig, b"payload") == member

    def test_open_with_wrong_message_fails(self, group):
        ra, _, creds = group
        gsig = group_sign(creds["w1"], b"m")
        with pytest.raises(OpeningInvalidError):
            group_open(ra, GroupId.WORKERS, gsig, b"m-prime")

    def test_open_with_non_manager_key_fails(self, group, suite):
        _, _, creds = group
        other_ra = ra_keygen(seed(555), suite)
        gsig = group_sign(creds["w0"], b"m")
        with pytest.raises(NotManagerError):
            group_open(other_ra, GroupId.WORKERS, gsig, b"m")

    def test_forged_opening_detected(self, group):
        """A member sealing someone else's id is caught by the cert+inner check."""
        ra, members, creds = group
        from crowdreg.credentials import seal, _opening_plaintext

        honest = group_sign(creds["w0"], b"m")
        # w0 tries to frame w1: reuse w0's inner signature under w1's name
        inner = sign(creds["w0"].member_key.secret, b"m")
        framed_cred = replace(creds["w1"], member_key=creds["w0"].member_key)
        forged_opening = seal(
            creds["w0"].manager_public,
            _opening_plaintext(framed_cred, inner),
            entropy=b"frame",
        )
        forged = GroupSig(honest.outer, forged_opening)
        with pytest.raises(OpeningInvalidError):
            group_open(ra, GroupId.WORKERS, forged, b"m")

    def test_open_for_another_group_fails(self, group):
        """The member certificate binds the group the RA is told to open for."""
        ra, _, creds = group
        gsig = group_sign(creds["w0"], b"m")
        assert group_open(ra, GroupId.WORKERS, gsig, b"m") == "w0"
        for other in (GroupId.PLATFORMS, GroupId.REQUESTERS):
            with pytest.raises(OpeningInvalidError):
                group_open(ra, other, gsig, b"m")
