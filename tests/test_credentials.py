"""Keys, signatures, digests, nonces, and the group scheme's three properties."""

import hashlib
import random
from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings, strategies as st

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
from crowdreg.encoding import enc_bytes
from crowdreg.errors import (
    CrowdregError,
    EmptyGroupError,
    MalformedKeyError,
    NotManagerError,
    OpeningInvalidError,
)


def seed(n: int) -> bytes:
    return n.to_bytes(32, "big")


# Keys that break the one key rule, and a well-formed X25519 key of low order.
BAD_KEYS = [b"", b"\x09" + bytes(32)] + [tag + b"k" * n for tag in (b"\x01", b"\x02") for n in (0, 1, 31, 33)]
LOW_ORDER_MANAGER = b"\x01" + bytes(32)
TAGGED_KEYS = st.builds(lambda tag, raw: tag + raw, st.sampled_from([b"\x01", b"\x02"]), st.binary(min_size=32, max_size=32))


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

    @pytest.mark.parametrize("sig", ["sig", None, 7], ids=["str", "none", "int"])
    def test_a_signature_that_is_not_bytes_does_not_verify(self, suite, sig):
        """The ed25519 key raises TypeError for it, which `verify` turns
        into False, as the hash suite's comparison gives."""
        kp = keygen("w1", seed(8), suite)
        assert verify(kp.public, b"m", sig) is False

    def test_malformed_key_raises(self):
        """The one key rule, each refusal made twice since no error is cached:
        no tag, an unknown tag, either tag without exactly 32 key bytes and,
        for `seal`, a low-order X25519 manager key; an unknown suite or a
        seed that is not 32 bytes."""
        for key in BAD_KEYS + [LOW_ORDER_MANAGER]:
            for _ in range(2):
                with pytest.raises(MalformedKeyError):
                    seal(key, b"m", entropy=b"e")
        for key in BAD_KEYS:
            for _ in range(2):
                with pytest.raises(MalformedKeyError):
                    sign(key, b"m")
                with pytest.raises(MalformedKeyError):
                    verify(key, b"m", b"sig")
                assert not group_verify(key, b"m", GroupSig(b"sig", b""))
                for envelope in (key[:1] + bytes(64), b""):  # the key is checked first
                    with pytest.raises(MalformedKeyError):
                        unseal(key, envelope)
        for make in (keygen, manager_keypair):
            for suite in (Suite.ED25519, Suite.HASH):
                for length in (0, 31, 33):
                    with pytest.raises(MalformedKeyError, match=f"seed must be 32 bytes, got {length}"):
                        make("w", bytes(length), suite)
            with pytest.raises(MalformedKeyError, match="unknown key suite 'rsa'"):
                make("w", seed(1), "rsa")
        with pytest.raises(MalformedKeyError):
            ra_keygen(seed(1), "rsa")

    @settings(max_examples=300, deadline=None)
    @given(key=st.binary(max_size=40) | TAGGED_KEYS, envelope=st.binary(max_size=80), message=st.binary(max_size=40))
    def test_any_key_bytes_give_a_result_or_a_typed_error(self, key, envelope, message):
        for call in (
            lambda: sign(key, message),
            lambda: verify(key, message, envelope[:64]),
            lambda: seal(key, message, entropy=envelope),
            lambda: unseal(key, key[:1] + envelope),
            lambda: group_verify(key, message, GroupSig(envelope[:64], envelope)),
        ):
            try:
                call()
            except CrowdregError:
                pass

    def test_signatures_match_per_call_reference(self, suite):
        k1, k2 = keygen("a", seed(12), suite), keygen("b", seed(13), suite)
        credentials._signer.cache_clear()
        rng = random.Random(3)
        for length in range(0, 201, 5):
            m = rng.randbytes(length)
            for kp in (k1, k2, k1):
                assert sign(kp.secret, m) == _reference_sign(kp, m)

    def test_verifies_match_per_call_reference(self, suite):
        k1, k2 = keygen("a", seed(12), suite), keygen("b", seed(13), suite)
        credentials._verifier.cache_clear()
        rng = random.Random(4)
        for length in range(0, 201, 5):
            m = rng.randbytes(length)
            for kp, signer in ((k1, k1), (k2, k2), (k1, k2), (k2, k1), (k1, k1)):
                for sig in (sign(signer.secret, m), rng.randbytes(64)):
                    assert verify(kp.public, m, sig) == _reference_verify(kp, m, sig)


def _reference_sign(kp, message: bytes) -> bytes:
    """Signing with key state derived on every call; signatures must not change."""
    if kp.secret[:1] == b"\x01":
        return Ed25519PrivateKey.from_private_bytes(kp.secret[1:]).sign(message)
    return hashlib.sha256(b"hashsig" + kp.public + message).digest()


def _reference_verify(kp, message: bytes, sig: bytes) -> bool:
    """Verifying with key state derived on every call; results must not change."""
    if kp.public[:1] == b"\x01":
        try:
            Ed25519PublicKey.from_public_bytes(kp.public[1:]).verify(sig, message)
            return True
        except InvalidSignature:
            return False
    return sig == hashlib.sha256(b"hashsig" + kp.public + message).digest()


def _reference_seal(manager_public: bytes, plaintext: bytes, entropy: bytes) -> bytes:
    """Sealing with the key agreement derived on every call; envelopes must
    not change."""
    eph_seed = hashlib.sha256(b"seal-eph" + entropy + plaintext).digest()
    if manager_public[:1] == b"\x01":
        eph = X25519PrivateKey.from_private_bytes(eph_seed)
        eph_pub = eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        shared = eph.exchange(X25519PublicKey.from_public_bytes(manager_public[1:]))
        key = hashlib.sha256(b"seal-key" + shared + eph_pub).digest()
    else:
        eph_pub = eph_seed
        key = hashlib.sha256(b"seal-key" + manager_public + eph_pub).digest()
    ct = _reference_xor_stream(key, plaintext)
    mac = hashlib.sha256(b"seal-mac" + key + ct).digest()[:16]
    return manager_public[:1] + eph_pub + mac + ct


def _reference_opening_plaintext(cred, inner_sig: bytes) -> bytes:
    """The opening plaintext: the member public key and the inner signature."""
    return enc_bytes(cred.member_key.public) + enc_bytes(inner_sig)


def _reference_group_sign(cred, message: bytes) -> GroupSig:
    """Group signing with every opening part derived on every call."""
    inner = sign(cred.member_key.secret, message)
    entropy = hashlib.sha256(b"open-ent" + cred.member_key.secret).digest()
    opening = _reference_seal(cred.manager_public, _reference_opening_plaintext(cred, inner), entropy)
    return GroupSig(sign(cred.group_signing_key, message), opening)


def _reference_xor_stream(key: bytes, data: bytes) -> bytes:
    """The original byte-by-byte stream XOR; seal's envelopes must not change."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out.extend(hashlib.sha256(b"stream" + key + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(x ^ y for x, y in zip(data, out[: len(data)]))


class TestSeal:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 73, 105, 200, 2049])
    def test_envelope_matches_byte_wise_reference(self, suite, length, monkeypatch):
        mgr = manager_keypair("RA", seed(10), suite)
        plaintext = random.Random(length).randbytes(length)
        with monkeypatch.context() as m:
            m.setattr(credentials, "_xor_stream", _reference_xor_stream)
            expected = seal(mgr.public, plaintext, entropy=seed(11))
        envelope = seal(mgr.public, plaintext, entropy=seed(11))
        assert envelope == expected == _reference_seal(mgr.public, plaintext, seed(11))
        assert unseal(mgr.secret, envelope) == plaintext

    @pytest.mark.parametrize("eph", [bytes(32), (1).to_bytes(32, "little")], ids=["zero", "one"])
    def test_low_order_ephemeral_key_does_not_open(self, eph):
        mgr = manager_keypair("RA", seed(10), Suite.ED25519)
        envelope = seal(mgr.public, b"member", entropy=seed(11))
        with pytest.raises(NotManagerError):
            unseal(mgr.secret, envelope[:1] + eph + envelope[33:])

    def test_short_envelope_does_not_open(self, suite):
        mgr = manager_keypair("RA", seed(10), suite)
        envelope = seal(mgr.public, b"", entropy=seed(11))
        assert len(envelope) == 49 and unseal(mgr.secret, envelope) == b""
        with pytest.raises(NotManagerError, match="envelope too short"):
            unseal(mgr.secret, envelope[:-1])

    def test_envelope_of_the_other_suite_does_not_open(self, suite):
        other = Suite.HASH if suite == Suite.ED25519 else Suite.ED25519
        envelope = seal(manager_keypair("RA", seed(10), other).public, b"member", entropy=seed(11))
        with pytest.raises(NotManagerError, match="key suite mismatch"):
            unseal(manager_keypair("RA", seed(10), suite).secret, envelope)


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
        factory = NonceFactory(seed(9))
        values = {factory.next().value for _ in range(5000)}
        assert len(values) == 5000

    def test_deterministic_stream(self):
        a = NonceFactory(seed(9))
        b = NonceFactory(seed(9))
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_stream_matches_per_nonce_formula(self):
        factory = NonceFactory(seed(9))
        for counter in range(300):
            expected = hashlib.sha256(b"nonce" + seed(9) + counter.to_bytes(16, "big")).digest()[:16]
            assert factory.next().value == expected


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
        assert group_open(ra, gsig, b"m") == creds["only"].member_key.public

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
        ra, members, creds = group
        for kp in members:
            gsig = group_sign(creds[kp.owner], b"payload")
            assert group_open(ra, gsig, b"payload") == kp.public

    def test_open_with_wrong_message_fails(self, group):
        ra, _, creds = group
        gsig = group_sign(creds["w1"], b"m")
        with pytest.raises(OpeningInvalidError):
            group_open(ra, gsig, b"m-prime")

    def test_open_with_non_manager_key_fails(self, group, suite):
        _, _, creds = group
        other_ra = ra_keygen(seed(555), suite)
        gsig = group_sign(creds["w0"], b"m")
        with pytest.raises(NotManagerError):
            group_open(other_ra, gsig, b"m")

    def test_forged_opening_detected(self, group):
        """A member sealing someone else's key is caught by the inner check."""
        ra, members, creds = group
        honest = group_sign(creds["w0"], b"m")
        # w0 tries to frame w1: seal w1's key with w0's inner signature
        inner = sign(creds["w0"].member_key.secret, b"m")
        forged_opening = seal(
            creds["w0"].manager_public,
            _reference_opening_plaintext(creds["w1"], inner),
            entropy=b"frame",
        )
        forged = GroupSig(honest.outer, forged_opening)
        with pytest.raises(OpeningInvalidError, match="inner signature"):
            group_open(ra, forged, b"m")

    @pytest.mark.parametrize(
        "plaintext",
        [b"", enc_bytes(b"\x02" + bytes(32))[:-1], enc_bytes(b"\x02" + bytes(32))],
        ids=["empty", "cut-key", "no-inner-signature"],
    )
    def test_undecodable_opening_is_invalid(self, group, plaintext):
        ra, _, creds = group
        honest = group_sign(creds["w0"], b"m")
        forged = GroupSig(honest.outer, seal(ra.manager.public, plaintext, entropy=b"junk"))
        with pytest.raises(OpeningInvalidError):
            group_open(ra, forged, b"m")

    def test_an_opening_with_trailing_bytes_is_invalid(self, group):
        """Else a signer could make its openings stand out by their length."""
        ra, _, creds = group
        honest = group_sign(creds["w0"], b"m")
        inner = sign(creds["w0"].member_key.secret, b"m")
        plaintext = _reference_opening_plaintext(creds["w0"], inner) + b"junk"
        padded = GroupSig(honest.outer, seal(ra.manager.public, plaintext, entropy=b"pad"))
        assert len(padded.opening) == len(honest.opening) + 4
        with pytest.raises(OpeningInvalidError, match="bytes after the inner signature"):
            group_open(ra, padded, b"m")

    def test_malformed_member_key_in_an_opening_is_invalid(self, group):
        """An opening whose sealed member key does not parse gets the
        opening's typed error, not the key's."""
        ra, _, creds = group
        honest = group_sign(creds["w0"], b"m")
        for member_public in (b"\x02", b"\x02xxx", b"\x01" + b"x" * 5, b"\x09" + b"x" * 32):
            plaintext = enc_bytes(member_public) + enc_bytes(b"sig")
            forged = GroupSig(honest.outer, seal(ra.manager.public, plaintext, entropy=b"junk"))
            for _ in range(2):
                with pytest.raises(OpeningInvalidError):
                    group_open(ra, forged, b"m")


class TestOpeningParts:
    """Sealing state is kept per manager key and opening parts per
    credential; the bytes equal those derived on every call."""

    def test_group_signatures_match_per_call_reference(self, group):
        ra, _, creds = group
        rng = random.Random(5)
        for length in (0, 1, 31, 32, 33, 200):
            m = rng.randbytes(length)
            for member in ("w0", "w1", "w2", "w0"):
                cred = creds[member]
                gsig = group_sign(cred, m)
                assert gsig == _reference_group_sign(cred, m)
                inner = sign(cred.member_key.secret, m)
                assert unseal(ra.manager.secret, gsig.opening) == _reference_opening_plaintext(cred, inner)

    def test_open_names_the_signer_with_caches_cleared(self, group):
        ra, members, creds = group
        for kp in members:
            credentials._sealer.cache_clear()
            gsig = group_sign(creds[kp.owner], b"payload")
            credentials._unsealer.cache_clear()
            assert group_open(ra, gsig, b"payload") == kp.public

    def test_replaced_credential_opens_to_the_new_member(self, group):
        ra, members, creds = group
        w0, w1 = creds["w0"], creds["w1"]
        swapped = replace(w0, member_key=members[1])
        assert swapped.opening_entropy == w1.opening_entropy != w0.opening_entropy
        gsig = group_sign(swapped, b"m")
        assert gsig == _reference_group_sign(swapped, b"m") == group_sign(w1, b"m")
        assert group_open(ra, gsig, b"m") == members[1].public
