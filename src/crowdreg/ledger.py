"""Per-platform DAG ledger views.

Each platform keeps its own view: its internal submissions and claims,
cross-platform submissions and claims it is involved in, and every
verification transaction. A block's identity digest covers only the
canonical transaction bytes, so the same transaction deduplicates across
views; parent edges are recorded per view (a verification block for a task
the platform is not involved in parents to genesis, since its task chain is
absent from that view). The global ledger is the union of all views.

Immutability comes from the commit certificate: a vote counts only if its
signature verifies over `commit_msg(digest, sender)`, and the digest is
derived from the transaction bytes, so a block whose data changed carries a
digest that no vote signed.

A record's shape is checked once, when it is built, and a malformed one
raises `InvalidBlockError` (the rule is in the `Transaction` and
`TransactionBlock` docstrings). The fields the validators read are then
immutable values covered by the digest or the certificate, so the validators
decide only the ledger's rules, and a record that passed them cannot change
afterwards.

Every view checks every verification block, so the same block is admitted
once per view. Two memos make the repeats free without skipping a check
whose inputs changed. A block remembers the topology and the voters' keys
its certificate verified under (`certified`); only a different topology
object or key can change the answer. A view remembers the value
`(digest, seq, last_seq, parents)` of the last block its `refusal` admitted
(`LedgerView`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .credentials import KeyPair, sign, verify
from .credentials import digest as hash_digest
from .encoding import enc_bytes, enc_int, enc_seq, enc_str
from .errors import CycleDetectedError, GapError, InvalidBlockError
from .topology import Topology


class TxKind(str, Enum):
    SUBMISSION = "submission"
    CLAIM = "claim"
    VERIFICATION = "verification"
    GENESIS = "genesis"


@dataclass(frozen=True, slots=True)
class Transaction:
    """One ledger transaction; `payload` is opaque task/contribution bytes.

    `involved_platforms` is a tuple of distinct str, `parent_submission`
    bytes and `prior_claims` a tuple of bytes, or InvalidBlockError is
    raised before the digest is computed. For verification transactions the
    payload is the canonical spend-bundle serialization and `bundle` holds
    the parsed object for validators (it is excluded from identity and
    equality; `tokens.check` requires it to serialize to the payload).
    """

    kind: TxKind
    task_id: str
    payload: bytes
    involved_platforms: Tuple[str, ...]
    required_contributions: int = 0
    parent_submission: bytes = b""
    prior_claims: Tuple[bytes, ...] = ()
    bundle: Optional[object] = field(default=None, compare=False, repr=False)
    digest: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        involved, parent, claims = self.involved_platforms, self.parent_submission, self.prior_claims
        if type(involved) is not tuple or not set(map(type, involved)) <= {str} or len(set(involved)) != len(involved):
            raise InvalidBlockError(f"involved platforms {involved!r} are not a tuple of distinct str")
        if type(parent) is not bytes or type(claims) is not tuple or not set(map(type, claims)) <= {bytes}:
            raise InvalidBlockError(f"parents {parent!r}, {claims!r} are not bytes and a tuple of bytes")
        object.__setattr__(self, "digest", hash_digest(self.serialize()))

    def serialize(self) -> bytes:
        return b"".join(
            (
                enc_str(self.kind.value),
                enc_str(self.task_id),
                enc_bytes(self.payload),
                enc_seq(enc_str(p) for p in self.involved_platforms),
                enc_int(self.required_contributions),
                enc_bytes(self.parent_submission),
                enc_seq(enc_bytes(d) for d in self.prior_claims),
            )
        )

    def content_parents(self) -> Tuple[bytes, ...]:
        """View-independent parent digests implied by the task structure."""
        if self.kind == TxKind.SUBMISSION:
            return (GENESIS_DIGEST,)
        if self.kind in (TxKind.CLAIM, TxKind.VERIFICATION):
            return (self.parent_submission,) + self.prior_claims
        return ()


def commit_msg(digest: bytes, sender: str) -> bytes:
    """The bytes a node signs to vote for committing the block `digest`."""
    return b"commit" + digest + sender.encode()


@dataclass(frozen=True, slots=True)
class CertVote:
    """One node's vote to commit a block. `certified` reads only `sender` and
    `signature`, which must sign `commit_msg(block.digest, sender)`; `tag`,
    `platform`, `digest` and `signed_bytes` are not read."""

    tag: str
    sender: str
    platform: str
    digest: bytes
    signed_bytes: bytes
    signature: bytes


def certify(
    digest: bytes, topology: Topology, node_keys: Mapping[str, KeyPair], platforms: Iterable[str]
) -> Tuple[CertVote, ...]:
    """Commit votes for the block `digest` from the first `local_majority`
    nodes of each of `platforms`, signed with their keys in `node_keys`.

    They stand in for the votes the platforms' nodes would cast by consensus,
    which this package does not build.
    """
    votes = []
    for pid in platforms:
        for node in topology.nodes_of(pid)[: topology.local_majority(pid)]:
            msg = commit_msg(digest, node)
            votes.append(CertVote("commit", node, pid, digest, msg, sign(node_keys[node].secret, msg)))
    return tuple(votes)


@dataclass(frozen=True, slots=True)
class TransactionBlock:
    """A transaction with its per-platform sequence numbers and certificate.

    `seq` is a tuple of (platform, number) pairs, a str and an int of at
    least 0 (so not a bool), with each platform once, and `commit_cert` is a
    tuple of `CertVote`; anything else raises InvalidBlockError.
    `certified_under` is set by `certified` once the certificate has a
    quorum: the topology and the key each vote verified under, in
    certificate order. It is not part of the block's identity, and
    `dataclasses.replace` builds a block without it.
    """

    tx: Transaction
    seq: Tuple[Tuple[str, int], ...]  # platform -> sequence number
    commit_cert: Tuple[CertVote, ...]
    certified_under: Optional[Tuple[Topology, Tuple[bytes, ...]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if type(self.seq) is not tuple or type(self.commit_cert) is not tuple:
            raise InvalidBlockError(f"sequence numbers {self.seq!r} or the certificate are not a tuple")
        for vote in self.commit_cert:
            if type(vote) is not CertVote:
                raise InvalidBlockError(f"certificate entry {vote!r} is not a CertVote")
        for entry in self.seq:
            platform, number = entry if type(entry) is tuple and len(entry) == 2 else (None, None)
            if type(platform) is not str or type(number) is not int or number < 0:  # not isinstance: a bool is refused
                raise InvalidBlockError(f"sequence entry {entry!r} is not a (platform, int >= 0) pair")
        if len(dict(self.seq)) != len(self.seq):
            raise InvalidBlockError(f"sequence numbers {self.seq!r} name a platform twice")

    @property
    def digest(self) -> bytes:
        return self.tx.digest


_GENESIS_TX = Transaction(
    kind=TxKind.GENESIS, task_id="genesis", payload=b"", involved_platforms=()
)
GENESIS_DIGEST = _GENESIS_TX.digest


def genesis_block(platforms: Iterable[str]) -> TransactionBlock:
    return TransactionBlock(
        tx=_GENESIS_TX,
        seq=tuple((p, 0) for p in sorted(platforms)),
        commit_cert=(),
    )


def relevant_to(tx: Transaction, platform: str) -> bool:
    """The three-clause view rule: own/involving tasks plus all verifications."""
    if tx.kind in (TxKind.GENESIS, TxKind.VERIFICATION):
        return True
    return platform in tx.involved_platforms


class LedgerView:
    """One platform's append-ordered view of the DAG ledger.

    `append_block` keeps three indexes of the nonces its verification blocks
    spend: nonce -> digest of the first block committing it
    (`committed_nonces`), nonce -> that block's first entry spending it
    (`committed_entry`), and the commit log: each nonce in the order it was
    first committed in this view, appended exactly when the indexes gain it.
    They hold because blocks enter the view only through `append_block`. All
    three only grow, so readers never rescan the view or re-walk a block's
    bundles, and a reader that remembers its position in the log reads only
    the commits since (`commit_log`).

    The view also remembers one value for the last block `refusal`
    admitted: its digest, its `seq`, the `last_seq` it was admitted at, and
    its parents in this view. `append_block` does not ask `refusal` again
    for a block with equal digest and `seq` while `last_seq` is unchanged,
    and appends the remembered parents. The digest covers every field
    `refusal` reads, and only `append_block` changes the view, advancing
    `last_seq`; so an equal block, such as the certified copy of an
    admitted unsigned block, gets the same answer.
    """

    def __init__(self, platform: str, all_platforms: Iterable[str]):
        self.platform = platform
        gb = genesis_block(all_platforms)
        self.blocks: Dict[bytes, TransactionBlock] = {gb.digest: gb}
        self.order: List[bytes] = [gb.digest]
        self.view_parents: Dict[bytes, Tuple[bytes, ...]] = {gb.digest: ()}
        self.last_seq = 0
        self._committed: Dict[bytes, bytes] = {}
        self._entries: Dict[bytes, object] = {}
        self._log: List[bytes] = []
        self._admitted: tuple = ()  # (digest, seq, last_seq, parents)

    def refusal(self, block: TransactionBlock) -> Optional[InvalidBlockError]:
        """The error `append_block` raises for `block`, or None if this view
        takes it. A verification of a task this platform is not involved in
        may lack its task's chain and then parents to genesis."""
        tx = block.tx
        if block.digest in self.blocks:
            return InvalidBlockError("block already appended")
        if not relevant_to(tx, self.platform):
            return InvalidBlockError(
                f"{tx.kind.value} of {tx.involved_platforms} does not belong in view {self.platform}"
            )
        seq = dict(block.seq).get(self.platform)
        if seq is None:
            return InvalidBlockError(f"block carries no sequence number for {self.platform}")
        if seq <= self.last_seq:
            return InvalidBlockError(f"sequence {seq} already occupied in view {self.platform}")
        if seq != self.last_seq + 1:
            return GapError(f"view {self.platform}: appending seq {seq} but last committed is {self.last_seq}")
        content = tx.content_parents()
        if not content:  # a genesis-kind block
            return InvalidBlockError(f"a block without parents would be a second root of view {self.platform}")
        missing = [p.hex()[:12] for p in content if p not in self.blocks]
        if missing and (tx.kind != TxKind.VERIFICATION or self.platform in tx.involved_platforms):
            return InvalidBlockError(f"parents missing from view {self.platform}: {missing}")
        self._admitted = (block.digest, block.seq, self.last_seq, (GENESIS_DIGEST,) if missing else content)
        return None

    def append_block(self, block: TransactionBlock) -> None:
        if self._admitted[:3] != (block.digest, block.seq, self.last_seq):
            error = self.refusal(block)
            if error is not None:
                raise error
        self.blocks[block.digest] = block
        self.order.append(block.digest)
        self.view_parents[block.digest] = self._admitted[3]
        self.last_seq += 1
        if block.tx.kind == TxKind.VERIFICATION and block.tx.bundle is not None:
            for bundle in block.tx.bundle.bundles:
                for entry in bundle.entries:
                    nonce = entry.nonce.value
                    if nonce not in self._committed:
                        self._committed[nonce] = block.digest
                        self._entries[nonce] = entry
                        self._log.append(nonce)

    def committed_nonces(self) -> Mapping[bytes, bytes]:
        """Read-only nonce value -> digest of the first committed verification
        tx spending it, in commit order."""
        return MappingProxyType(self._committed)

    def committed_entry(self, nonce_value: bytes) -> Optional[object]:
        """The first entry spending the nonce in the verification tx that
        `committed_nonces` names, or None if the nonce is not committed."""
        return self._entries.get(nonce_value)

    def commit_log(self, start: int = 0) -> List[bytes]:
        """The nonces first committed in this view, in commit order, from
        position `start` of the log on."""
        return self._log[start:]

    def dump_lines(self) -> List[str]:
        lines = []
        for d in self.order:
            block = self.blocks[d]
            lines.append(
                json.dumps(
                    {
                        "digest": d.hex(),
                        "kind": block.tx.kind.value,
                        "task": block.tx.task_id,
                        "seq": {p: s for p, s in sorted(block.seq)},
                        "parents": [p.hex() for p in self.view_parents[d]],
                        "cert_count": len(block.commit_cert),
                    },
                    sort_keys=True,
                )
            )
        return lines


def certified(block: TransactionBlock, topology: Topology, keys: Dict[str, bytes]) -> bool:
    """True iff every involved platform is in the topology and the block's
    certificate carries a quorum; this does not depend on any view.

    Every vote must come from a topology node with a key in `keys` and sign
    `commit_msg(block.digest, sender)`; it counts for the sender's platform in
    the topology. A platform is satisfied by votes from `local_majority` of
    its nodes. A verification block needs `global_platform_quorum()`
    satisfied platforms, and any other block needs every involved platform
    satisfied and fails if it names none.

    A True result is remembered on the block (`certified_under`). A later
    call with the same topology object and the same key for every voter
    returns True without verifying again; a block's fields are immutable
    values, so nothing else could change the answer. False is never
    remembered.
    """
    memo = block.certified_under
    if memo is not None and memo[0] is topology and memo[1] == tuple(keys.get(v.sender) for v in block.commit_cert):
        return True
    tx = block.tx
    if not topology.platforms.keys() >= set(tx.involved_platforms):
        return False
    signers: Dict[str, Set[str]] = {}
    voter_keys = []
    for vote in block.commit_cert:
        platform = topology.node_platform.get(vote.sender)
        key = keys.get(vote.sender)
        if platform is None or key is None:
            return False
        if not verify(key, commit_msg(block.digest, vote.sender), vote.signature):
            return False
        signers.setdefault(platform, set()).add(vote.sender)
        voter_keys.append(key)
    satisfied = {p for p, nodes in signers.items() if len(nodes) >= topology.local_majority(p)}
    if tx.kind == TxKind.VERIFICATION:
        quorum = len(satisfied) >= topology.global_platform_quorum()
    else:
        quorum = bool(tx.involved_platforms) and satisfied.issuperset(tx.involved_platforms)
    if quorum:
        object.__setattr__(block, "certified_under", (topology, tuple(voter_keys)))
    return quorum


def validate_block(view: LedgerView, block: TransactionBlock, topology: Topology, keys: Dict[str, bytes]) -> bool:
    """True iff `view` takes the block (`LedgerView.refusal`) and it is
    `certified`. Both answers are remembered, so validating one block on
    every view verifies its certificate once, and the `append_block` that
    follows on each view does not ask `refusal` again."""
    return view.refusal(block) is None and certified(block, topology, keys)


@dataclass(slots=True)
class GlobalDag:
    nodes: Dict[bytes, TransactionBlock]
    edges: Set[Tuple[bytes, bytes]]  # (child, parent)


def union_dag(views: List[LedgerView]) -> GlobalDag:
    """Union of the views; digests deduplicate nodes; must be acyclic."""
    nodes: Dict[bytes, TransactionBlock] = {}
    edges: Set[Tuple[bytes, bytes]] = set()
    for view in views:
        for d in view.order:
            nodes.setdefault(d, view.blocks[d])
            for parent in view.view_parents[d]:
                edges.add((d, parent))
    # Kahn's algorithm over parent edges
    indeg = {d: 0 for d in nodes}
    children: Dict[bytes, List[bytes]] = {d: [] for d in nodes}
    for child, parent in edges:
        indeg[child] += 1
        children[parent].append(child)
    queue = [d for d, deg in indeg.items() if deg == 0]
    seen = 0
    while queue:
        d = queue.pop()
        seen += 1
        for c in children[d]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if seen != len(nodes):
        raise CycleDetectedError("union of views contains a cycle")
    return GlobalDag(nodes=nodes, edges=edges)
