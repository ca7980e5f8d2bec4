"""The payload of a verification transaction: the spend bundles of one task.

A `BundleEntry` spends one token, a `SpendBundle` holds the entries of one
contribution, and a `VerificationPayload` the bundles of one task. The
payload's bytes are what a verification transaction's digest and commit
certificate cover, so they are encoded once, when the `VerificationPayload`
is built, and `serialize()` returns them. The same walk checks that every
field it reads has the immutable type it encodes: a tuple, a str, bytes, a
`Nonce` of bytes or a `GroupSig` of bytes. Any other type raises
EncodeError, so no field can change under the kept bytes.

`ledger` keeps a payload as a verification's side-car and `tokens` builds and
checks it; both import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .credentials import GroupId, GroupSig, Nonce
from .encoding import enc_bytes, enc_str
from .errors import EncodeError
from .regulation import ROLES

ROLE_GROUP = {
    "worker": GroupId.WORKERS,
    "platform": GroupId.PLATFORMS,
    "requester": GroupId.REQUESTERS,
}

# The (group, scope) label of each group signature an entry carries, in
# `ROLES` order.
ENTRY_LABELS = tuple((ROLE_GROUP[role].value, "token_task") for role in ROLES)

# Each label of `ENTRY_LABELS` -> its encoding in a `VerificationPayload`'s bytes.
_ENCODED_LABELS = {label: enc_str(label[0]) + enc_str(label[1]) for label in ENTRY_LABELS}


def token_pub_msg(nonce: Nonce) -> bytes:
    return enc_bytes(nonce.value)


def token_task_msg(token_msg: bytes, ra_sig: bytes, task_digest: bytes) -> bytes:
    """The message every group signature of an entry signs: the token's
    public part `token_msg` (its `token_pub_msg`) and RA signature, bound to
    a task."""
    return token_msg + enc_bytes(ra_sig) + enc_bytes(task_digest)


def _count(items: tuple, what: str) -> bytes:
    """The `enc_seq` count of `items`, which must be a tuple."""
    if type(items) is not tuple:
        raise EncodeError(f"{what} {items!r} is not a tuple")
    return len(items).to_bytes(4, "big")


def _encode_str(text: str, what: str) -> bytes:
    if type(text) is not str:
        raise EncodeError(f"{what} {text!r} is not a str")
    return enc_str(text)


def _encode_entry(entry: "BundleEntry", parts: List[bytes]) -> None:
    """Append the encoding of `entry` to `parts`: its `token_pub_msg`, RA
    signature and task digest, then its group signatures, each under its
    label; raise EncodeError unless every field has the type it encodes."""
    if type(entry) is not BundleEntry:
        raise EncodeError(f"bundle entry {entry!r} is not a BundleEntry")
    nonce, ra_sig, task_digest = entry.nonce, entry.ra_sig, entry.task_digest
    if (
        type(nonce) is not Nonce or type(nonce.value) is not bytes
        or type(ra_sig) is not bytes or type(task_digest) is not bytes
    ):
        raise EncodeError(f"nonce {nonce!r}, RA signature and task digest are not a Nonce of bytes and bytes")
    parts += (
        enc_bytes(nonce.value), enc_bytes(ra_sig), enc_bytes(task_digest), _count(entry.group_sigs, "group signatures")
    )
    for sig in entry.group_sigs:
        if type(sig) is not tuple or len(sig) != 3 or type(sig[0]) is not str or type(sig[1]) is not str:
            raise EncodeError(f"group signature {sig!r} is not a (str, str, GroupSig) tuple")
        group, scope, gsig = sig
        if type(gsig) is not GroupSig or type(gsig.outer) is not bytes or type(gsig.opening) is not bytes:
            raise EncodeError(f"group signature {gsig!r} is not a GroupSig of bytes")
        label = _ENCODED_LABELS.get((group, scope))
        if label is None:  # not an `ENTRY_LABELS` label; `check` calls it forged
            label = enc_str(group) + enc_str(scope)
        parts += (label, enc_bytes(gsig.outer), enc_bytes(gsig.opening))


@dataclass(frozen=True, slots=True)
class BundleEntry:
    """One token spend: public token part plus three group signatures.

    The entry deliberately names no regulation and no participant. The
    worker, platform and requester groups each sign `token_task_msg` once,
    in `ROLES` order; signing the task-bound message also shows consent to
    the token it starts with. Every field is a signature or is covered by
    one: the nonce by the RA signature, and the nonce, RA signature and task
    digest by the group signatures.
    """

    nonce: Nonce
    ra_sig: bytes
    task_digest: bytes
    group_sigs: Tuple[Tuple[str, str, GroupSig], ...]  # ENTRY_LABELS, each with its sig


@dataclass(frozen=True, slots=True)
class SpendBundle:
    """All token spends backing one crowdworking process."""

    task_id: str
    entries: Tuple[BundleEntry, ...]

    def nonces(self) -> List[bytes]:
        return [e.nonce.value for e in self.entries]


@dataclass(frozen=True, slots=True)
class VerificationPayload:
    """The spend bundles of every contribution of one task, and their bytes.

    The bytes are the task id, then the bundles, each its task id and its
    entries (`_encode_entry`), every sequence after its count. They
    are encoded when the payload is built (and rebuilt by
    `dataclasses.replace`), and take no part in comparison.
    """

    task_id: str
    bundles: Tuple[SpendBundle, ...]
    _bytes: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parts = [_encode_str(self.task_id, "task id"), _count(self.bundles, "bundles")]
        for bundle in self.bundles:
            if type(bundle) is not SpendBundle:
                raise EncodeError(f"bundle {bundle!r} is not a SpendBundle")
            parts += (_encode_str(bundle.task_id, "bundle task id"), _count(bundle.entries, "entries"))
            for entry in bundle.entries:
                _encode_entry(entry, parts)
        object.__setattr__(self, "_bytes", b"".join(parts))

    def serialize(self) -> bytes:
        """The payload's canonical bytes, encoded when it was built."""
        return self._bytes
