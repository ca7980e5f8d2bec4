"""The verification payload is encoded once, when it is built: its kept
bytes are the field-by-field encoding of honest and forged payloads alike,
and a field of a type it does not encode raises EncodeError."""

from dataclasses import replace

import pytest

from crowdreg.credentials import GroupSig, Nonce, Suite, group_sign
from crowdreg.deployment import Deployment
from crowdreg.encoding import enc_bytes
from crowdreg.errors import EncodeError
from crowdreg.ledger import Transaction, TxKind
from crowdreg.payload import VerificationPayload, token_pub_msg
from tests.payload_reference import reference_bytes


def spent(suite):
    """A deployment, the bundle of w1's process "t1" (an e-token entry, then
    a v-token entry) and the digest of another submission."""
    d = Deployment(("w1", "w2"), ("p1",), ("r1",), ["((w1, *, *), <, 3)", "((w1, *, *), >, 1)"], suite, b"payload")
    _, bundle, _ = d.spend("w1", "p1", "r1", "t1")
    return d, bundle, d.submit("other", "p1").digest


def _with_sigs(bundle, edit):
    entry = bundle.entries[0]
    edited = replace(entry, group_sigs=tuple(edit(list(entry.group_sigs))))
    return replace(bundle, entries=(edited,) + bundle.entries[1:])


def _with_entry(bundle, **changes):
    return replace(bundle, entries=(replace(bundle.entries[0], **changes),) + bundle.entries[1:])


def _swap_sigs(sigs):
    (g0, s0, sig0), (g1, s1, sig1) = sigs[:2]
    return [(g0, s0, sig1), (g1, s1, sig0)] + sigs[2:]


def _bad_opening(sigs):
    group, scope, gsig = sigs[0]
    return [(group, scope, replace(gsig, opening=gsig.opening[:1] + bytes(32) + gsig.opening[33:]))] + sigs[1:]


def _extra_token_scope(d):
    def edit(sigs, entry):
        token_msg = token_pub_msg(entry.nonce) + enc_bytes(entry.ra_sig)
        return sigs + [("workers", "token", group_sign(d.creds["w1"], token_msg))]

    return edit


# Each builds, from an honest bundle, the payload of a forgery that the tests
# of `tokens.check`, adjudication and the pipeline build with
# `dataclasses.replace`.
FORGERIES = {
    "honest": lambda d, b, other: VerificationPayload("t1", (b,)),
    "empty": lambda d, b, other: VerificationPayload("t1", ()),
    "payload-task-id": lambda d, b, other: VerificationPayload("some-other-task", (b,)),
    "bundle-task-id": lambda d, b, other: VerificationPayload("t1", (replace(b, task_id="some-other-task"),)),
    "ra-sig": lambda d, b, other: VerificationPayload("t1", (_with_entry(b, ra_sig=b"\x99" * 64),)),
    "task-digest": lambda d, b, other: VerificationPayload("t1", (_with_entry(b, task_digest=other),)),
    "nonce": lambda d, b, other: VerificationPayload("t1", (_with_entry(b, nonce=Nonce(b"\x5a" * 16)),)),
    "auditors-label": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [("auditors", s[0][1], s[0][2])] + s),)
    ),
    "auditors-relabel": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [("auditors", s[0][1], s[0][2])] + s[1:]),)
    ),
    "token-scope-relabel": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [("workers", "token", s[0][2])] + s[1:]),)
    ),
    "drop-workers": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [x for x in s if x[0] != "workers"]),)
    ),
    "drop-requesters": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [x for x in s if x[0] != "requesters"]),)
    ),
    "swap-entries": lambda d, b, other: VerificationPayload("t1", (_with_sigs(b, lambda s: [s[1], s[0], s[2]]),)),
    "swap-sigs": lambda d, b, other: VerificationPayload("t1", (_with_sigs(b, _swap_sigs),)),
    "extra-token-scope": lambda d, b, other: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: _extra_token_scope(d)(s, b.entries[0])),)
    ),
    "bad-opening": lambda d, b, other: VerificationPayload("t1", (_with_sigs(b, _bad_opening),)),
    "entry-twice": lambda d, b, other: VerificationPayload("t1", (replace(b, entries=(b.entries[0],) * 2),)),
    "bundle-twice": lambda d, b, other: VerificationPayload("t1", (b, b)),
}


@pytest.mark.parametrize("suite", list(Suite))
@pytest.mark.parametrize("forgery", list(FORGERIES))
def test_the_kept_bytes_are_the_field_encoding(suite, forgery):
    """The bytes are kept when the payload is built and equal a fresh walk
    of its fields; so are a rebuild's. A verification of those bytes keeps
    the payload as its side-car."""
    d, bundle, other = spent(suite)
    payload = FORGERIES[forgery](d, bundle, other)
    assert payload.serialize() == reference_bytes(payload)
    assert replace(payload).serialize() == payload.serialize()
    tx = Transaction(TxKind.VERIFICATION, "t1", payload.serialize(), ("p1",), bundle=payload)
    assert tx.bundle is payload and tx.payload is payload.serialize()


def _gsig(bundle):
    return bundle.entries[0].group_sigs[0][2]


# Each builds, from an honest bundle, a payload with one field of a type its
# encoding does not take.
MISTYPED = {
    "bundles-none": lambda b: VerificationPayload("t1", None),
    "task-id-int": lambda b: VerificationPayload(7, ()),
    "bundles-list": lambda b: VerificationPayload("t1", [b]),
    "bundle-str": lambda b: VerificationPayload("t1", ("bundle",)),
    "bundle-task-id-none": lambda b: VerificationPayload("t1", (replace(b, task_id=None),)),
    "entries-list": lambda b: VerificationPayload("t1", (replace(b, entries=list(b.entries)),)),
    "entry-bytes": lambda b: VerificationPayload("t1", (replace(b, entries=(b"entry",)),)),
    "nonce-bytes": lambda b: VerificationPayload("t1", (_with_entry(b, nonce=b.entries[0].nonce.value),)),
    "nonce-value-str": lambda b: VerificationPayload("t1", (_with_entry(b, nonce=Nonce("nonce")),)),
    "ra-sig-bytearray": lambda b: VerificationPayload("t1", (_with_entry(b, ra_sig=bytearray(b.entries[0].ra_sig)),)),
    "task-digest-none": lambda b: VerificationPayload("t1", (_with_entry(b, task_digest=None),)),
    "group-sigs-list": lambda b: VerificationPayload("t1", (_with_entry(b, group_sigs=list(b.entries[0].group_sigs)),)),
    "group-sig-list": lambda b: VerificationPayload("t1", (_with_sigs(b, lambda s: [list(s[0])] + s[1:]),)),
    "group-sig-pair": lambda b: VerificationPayload("t1", (_with_sigs(b, lambda s: [s[0][1:]] + s[1:]),)),
    "group-label-bytes": lambda b: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [(b"workers", s[0][1], s[0][2])] + s[1:]),)
    ),
    "gsig-bytes": lambda b: VerificationPayload("t1", (_with_sigs(b, lambda s: [s[0][:2] + (b"sig",)] + s[1:]),)),
    "gsig-outer-bytearray": lambda b: VerificationPayload(
        "t1", (_with_sigs(b, lambda s: [s[0][:2] + (GroupSig(bytearray(_gsig(b).outer), _gsig(b).opening),)] + s[1:]),)
    ),
}


@pytest.mark.parametrize("field", list(MISTYPED))
def test_a_field_of_a_type_the_encoding_does_not_take_raises_when_built(field):
    """Before, a list or another mutable value was encoded as it stood, and
    `None`, an int or a `Nonce` missing was an AttributeError or TypeError."""
    _, bundle, _ = spent(Suite.HASH)
    with pytest.raises(EncodeError):
        MISTYPED[field](bundle)
