"""Per-platform DAG ledger views.

Each platform keeps its own view: its internal submissions and claims,
cross-platform submissions and claims it is involved in, and every
verification transaction. A block's identity digest covers only the
canonical transaction bytes, so the same transaction deduplicates across
views; parent edges are recorded per view (a verification block for a task
the platform is not involved in parents to genesis, since its task chain is
absent from that view). The global ledger is the union of all views.

Immutability comes from the commit certificate: every vote in the
certificate signs exactly `commit_msg(digest, sender)`, so any change to the
block data breaks either the digest or a quorum of signatures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .credentials import digest as hash_digest
from .credentials import verify
from .encoding import enc_bytes, enc_int, enc_seq, enc_str
from .errors import CycleDetectedError, GapError, InvalidBlockError
from .topology import Topology


class TxKind(str, Enum):
    SUBMISSION = "submission"
    CLAIM = "claim"
    VERIFICATION = "verification"
    GENESIS = "genesis"


@dataclass(frozen=True)
class Transaction:
    """One ledger transaction; `payload` is opaque task/contribution bytes.

    For verification transactions the payload is the canonical spend-bundle
    serialization and `bundle` holds the parsed object for validators (it is
    excluded from identity and equality; `tokens.check` requires it to
    serialize to the payload).
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


@dataclass(frozen=True)
class CertVote:
    """One signed consensus message supporting a committed block."""

    tag: str
    sender: str
    platform: str
    digest: bytes
    signed_bytes: bytes
    signature: bytes


@dataclass(frozen=True)
class TransactionBlock:
    tx: Transaction
    seq: Tuple[Tuple[str, int], ...]  # platform -> sequence number
    commit_cert: Tuple[CertVote, ...]

    @property
    def digest(self) -> bytes:
        return self.tx.digest

    def seq_map(self) -> Dict[str, int]:
        return dict(self.seq)


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

    `append_block` keeps the committed-nonce index and the commit log: each
    nonce in the order it was first committed in this view, appended exactly
    when the index gains it. Both only grow, so readers never rescan the view,
    and a reader that remembers its position in the log reads only the
    commits since (`commit_log`).
    """

    def __init__(self, platform: str, all_platforms: Iterable[str]):
        self.platform = platform
        gb = genesis_block(all_platforms)
        self.blocks: Dict[bytes, TransactionBlock] = {gb.digest: gb}
        self.order: List[bytes] = [gb.digest]
        self.view_parents: Dict[bytes, Tuple[bytes, ...]] = {gb.digest: ()}
        self.last_seq = 0
        self._committed: Dict[bytes, bytes] = {}
        self._log: List[bytes] = []

    def _effective_parents(self, block: TransactionBlock) -> Tuple[bytes, ...]:
        content = block.tx.content_parents()
        if all(p in self.blocks for p in content):
            return content
        if block.tx.kind == TxKind.VERIFICATION and self.platform not in block.tx.involved_platforms:
            return (GENESIS_DIGEST,)
        missing = [p.hex()[:12] for p in content if p not in self.blocks]
        raise InvalidBlockError(f"parents missing from view {self.platform}: {missing}")

    def append_block(self, block: TransactionBlock) -> None:
        if block.digest in self.blocks:
            raise InvalidBlockError("block already appended")
        if not relevant_to(block.tx, self.platform):
            raise InvalidBlockError(
                f"{block.tx.kind.value} of {block.tx.involved_platforms} "
                f"does not belong in view {self.platform}"
            )
        seqs = block.seq_map()
        if self.platform not in seqs:
            raise InvalidBlockError(f"block carries no sequence number for {self.platform}")
        seq = seqs[self.platform]
        if 0 <= seq <= self.last_seq:
            raise InvalidBlockError(f"sequence {seq} already occupied in view {self.platform}")
        if seq != self.last_seq + 1:
            raise GapError(
                f"view {self.platform}: appending seq {seq} but last committed is {self.last_seq}"
            )
        parents = self._effective_parents(block)
        self.blocks[block.digest] = block
        self.order.append(block.digest)
        self.view_parents[block.digest] = parents
        self.last_seq = seq
        if block.tx.kind == TxKind.VERIFICATION and block.tx.bundle is not None:
            for nonce in block.tx.bundle.nonces():
                if nonce not in self._committed:
                    self._committed[nonce] = block.digest
                    self._log.append(nonce)

    def parents_of(self, digest: bytes) -> Tuple[bytes, ...]:
        return self.view_parents[digest]

    def committed_nonces(self) -> Mapping[bytes, bytes]:
        """Read-only nonce value -> digest of the first committed verification
        tx spending it, in commit order."""
        return MappingProxyType(self._committed)

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


def _cert_requirements(tx: Transaction, topology: Topology) -> Tuple[Dict[str, int], int]:
    """Per-platform signer thresholds and the minimum platform count, for a
    transaction whose involved platforms are all in the topology."""
    if tx.kind == TxKind.VERIFICATION:
        need = {pid: topology.local_majority(pid) for pid in topology.platform_ids}
        return need, topology.global_platform_quorum()
    need = {pid: topology.local_majority(pid) for pid in tx.involved_platforms}
    return need, len(tx.involved_platforms)


def validate_block(
    view: LedgerView,
    block: TransactionBlock,
    topology: Topology,
    keys: Dict[str, bytes],
) -> bool:
    """True iff parents resolve, digests agree, every involved platform is in
    the topology, and the cert meets quorum."""
    tx = block.tx
    if hash_digest(tx.serialize()) != block.digest:
        return False
    if not topology.platforms.keys() >= set(tx.involved_platforms):
        return False
    try:
        view._effective_parents(block)
    except InvalidBlockError:
        return False
    need, min_platforms = _cert_requirements(tx, topology)
    signers: Dict[str, Set[str]] = {}
    for vote in block.commit_cert:
        if vote.digest != block.digest:
            return False
        if vote.signed_bytes != commit_msg(block.digest, vote.sender):
            return False
        if vote.sender not in keys or not verify(keys[vote.sender], vote.signed_bytes, vote.signature):
            return False
        if topology.node_platform.get(vote.sender) != vote.platform:
            return False
        signers.setdefault(vote.platform, set()).add(vote.sender)
    satisfied = [p for p, nodes in signers.items() if p in need and len(nodes) >= need[p]]
    if len(satisfied) < min_platforms:
        return False
    if tx.kind != TxKind.VERIFICATION and set(need) - set(satisfied):
        return False
    return True


@dataclass
class GlobalDag:
    nodes: Dict[bytes, TransactionBlock]
    edges: Set[Tuple[bytes, bytes]]  # (child, parent)


def union_dag(views: List[LedgerView]) -> GlobalDag:
    """Union of the views; digests deduplicate nodes; must be acyclic."""
    nodes: Dict[bytes, TransactionBlock] = {}
    edges: Set[Tuple[bytes, bytes]] = set()
    for view in views:
        for d in view.order:
            block = view.blocks[d]
            prev = nodes.get(d)
            if prev is not None and prev.tx.serialize() != block.tx.serialize():
                raise CycleDetectedError("two views disagree on a block digest")
            nodes.setdefault(d, block)
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
