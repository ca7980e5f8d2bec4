"""One deployment: the participants, keys, budgets and ledger views of a run,
and the steps a crowdworking process takes through them.

A process has its platform's view admit its task's submission, spends tokens
for it, commits the submission, wraps the bundle in a verification
transaction, has `tokens.check` rule on it and commits it. Every
commit is certified by `ledger.certify`, and a block enters the views only if
its certificate is `ledger.certified` and no view it enters refuses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import credentials, ledger, regulation, tokens
from .errors import ConfigError, InvalidBlockError, UnknownParticipantError
from .ledger import LedgerView, Transaction, TransactionBlock, TxKind
from .topology import make_topology


class Deployment:
    """Registry, keys, group credentials, regulations, wallets and one ledger
    view per platform, all derived from `seed`.

    Each key seed is `credentials.digest(seed + b"/" + label)`, the label
    being "ra", "key:<participant>", "node:<node>", "group:<role>", "generate"
    or "contrib". The platforms run on `make_topology(len(platforms))`: crash
    failures, f=1, and ids p1..pN. An id the registry does not list in the
    role a step needs raises UnknownParticipantError.
    """

    def __init__(
        self, workers: Sequence[str], platforms: Sequence[str], requesters: Sequence[str],
        regulations: Sequence[str], suite: credentials.Suite, seed: bytes,
        declared_tuples: Optional[Sequence[Tuple[str, str, str]]] = None,
    ):
        def derive(label: str) -> bytes:
            return credentials.digest(seed + b"/" + label.encode())

        self.topology = make_topology(len(platforms))
        if sorted(platforms) != self.topology.platform_ids:
            raise ConfigError(f"platform ids must be {self.topology.platform_ids}, got {list(platforms)}")
        self.registry = regulation.ParticipantRegistry(tuple(workers), tuple(platforms), tuple(requesters))
        self.ra = credentials.ra_keygen(derive("ra"), suite)
        self.keys = {pid: credentials.keygen(pid, derive("key:" + pid), suite) for pid in self.registry.all_ids()}
        self.publics = {pid: kp.public for pid, kp in self.keys.items()}
        self.node_keys = {n: credentials.keygen(n, derive("node:" + n), suite) for n in self.topology.all_nodes()}
        self.node_publics = {node: kp.public for node, kp in self.node_keys.items()}
        self.creds: Dict[str, credentials.GroupCredential] = {}
        for role, group in tokens.ROLE_GROUP.items():
            members = [self.keys[pid] for pid in self.registry.group(role)]
            self.creds.update(credentials.group_setup(group, members, self.ra, derive("group:" + role), suite))
        group_publics = {cred.group.value: cred.group_public for cred in self.creds.values()}
        self.check_keys = tokens.CheckKeys(self.ra.sign.public, group_publics)

        parsed = [regulation.parse_regulation(text) for text in regulations]
        self.regs = regulation.expand_all(parsed, self.registry)
        self.plan = regulation.compute_budget(self.regs, self.registry)
        self.wallets, self.ra_ledger = tokens.generate(
            self.plan, self.registry, self.ra, derive("generate"), declared_tuples=declared_tuples
        )
        self.contrib = credentials.NonceFactory(derive("contrib"))
        self.views = [LedgerView(p, self.topology.platform_ids) for p in self.topology.platform_ids]
        self.view_of = {view.platform: view for view in self.views}

    def _require(self, role: str, participant: str) -> None:
        if participant not in self.registry.group(role):
            raise UnknownParticipantError(f"{participant!r} is not a registered {role}")

    def submit(self, task_id: str, platform: str) -> Transaction:
        """Commit a one-contribution task of `platform`; raises
        InvalidBlockError if the view refuses it, as it does a repeat."""
        tx, admitted = self._submission(task_id, platform)
        self._seal(*admitted)
        return tx

    def _submission(self, task_id: str, platform: str):
        """The submission of a one-contribution task of `platform` and what
        `_admit` returned for it; raises InvalidBlockError if the view
        refuses it."""
        payload = f"task:{task_id}".encode()
        tx = Transaction(TxKind.SUBMISSION, task_id, payload, (platform,), required_contributions=1)
        admitted = self._admit(tx, None)
        if admitted is None:
            raise InvalidBlockError(f"view {platform} refused the submission of {task_id}")
        return tx, admitted

    def spend(
        self, worker: str, platform: str, requester: str, task_id: str, stolen=None, refuse=None
    ) -> Tuple[tokens.ProcessContext, tokens.SpendBundle, Transaction]:
        """Submit the task, run `tokens.spend` with `stolen` and `refuse`, and
        wrap the bundle in the task's verification transaction, which is
        neither checked nor committed.

        The platform's view is asked for a refusal of the submission first,
        and the submission commits only once `tokens.spend` has returned, so
        a refused spend leaves the views, like the wallets, as they were and
        the task can be retried."""
        for role, participant in zip(regulation.ROLES, (worker, platform, requester)):
            self._require(role, participant)
        sub, admitted = self._submission(task_id, platform)
        process = tokens.ProcessContext(worker, platform, requester, task_id, sub.digest)
        regs = regulation.applicable(self.regs, process.tuple_())
        bundle = tokens.spend(
            process, regs, self.wallets, self.view_of[platform], self.creds, self.keys[platform], self.contrib,
            refuse=refuse, stolen=stolen,
        )
        self._seal(*admitted)
        return process, bundle, tokens.verification_tx(task_id, platform, sub.digest, [bundle])

    def check(self, tx: Transaction) -> tokens.Verdict:
        return tokens.check(tx, self.views, self.check_keys)

    def commit(self, tx: Transaction, platforms: Optional[Sequence[str]] = None) -> bool:
        """Certify `tx` and append it to the views of `platforms`, without a
        `check`. It is certified by, and by default goes to, every topology
        platform that `ledger.relevant_to` gives it to: every platform for a
        verification, its involved platforms for any other transaction. One
        rule admits the block: no target view has a `refusal` for it, asked
        once before any vote is signed, and it is `ledger.certified`, checked
        once for all views. So a verification whose side-car `bundle` is not
        its payload's encoding, or is missing, is refused even unchecked. It
        enters every target view, or none and False is returned. A target
        platform with no view raises UnknownParticipantError, and one named
        twice InvalidBlockError, before any view changes."""
        admitted = self._admit(tx, platforms)
        if admitted is None:
            return False
        signers, views, unsigned = admitted
        try:
            block = self._certify(signers, unsigned)
        except InvalidBlockError:  # not certified; an append error below reaches the caller
            return False
        for view in views:
            view.append_block(block)
        return True

    def _admit(self, tx: Transaction, platforms: Optional[Sequence[str]]):
        """`commit`'s first half: (signers, target views, unsigned block), or
        None if a target view has a `refusal` for the block. The signers are
        the topology's platforms that `ledger.relevant_to` gives `tx` to, in
        topology order; an involved platform outside the topology fails
        `certified`."""
        signers = [p for p in self.topology.platform_ids if ledger.relevant_to(tx, p)]
        targets = signers if platforms is None else platforms
        for p in targets:
            self._require("platform", p)
        views = [self.view_of[p] for p in targets]
        unsigned = TransactionBlock(tx, tuple((view.platform, view.last_seq + 1) for view in views), ())
        if any(view.refusal(unsigned) is not None for view in views):  # reads no certificate
            return None
        return signers, views, unsigned

    def _certify(self, signers, unsigned: TransactionBlock) -> TransactionBlock:
        """`unsigned` with the votes of `signers`. A block whose certificate
        is not `ledger.certified`, as one naming a platform outside the
        topology, raises InvalidBlockError."""
        tx = unsigned.tx
        block = TransactionBlock(tx, unsigned.seq, ledger.certify(tx.digest, self.topology, self.node_keys, signers))
        if not ledger.certified(block, self.topology, self.node_publics):
            raise InvalidBlockError(f"the certificate of {tx.kind.value} {tx.task_id} has no quorum")
        return block

    def _seal(self, signers, views, unsigned: TransactionBlock) -> None:
        """The second half of `submit` and `spend`, for views unchanged since
        `_admit`: certify the block (`_certify`) and append it to every view."""
        block = self._certify(signers, unsigned)
        for view in views:
            view.append_block(block)

    def process(
        self, worker: str, platform: str, requester: str, task_id: str, stolen=None, refuse=None
    ) -> Tuple[tokens.ProcessContext, tokens.SpendBundle, Transaction, tokens.Verdict]:
        """`spend`, then `check` and commit the verification transaction if it
        is VALID; returns what `spend` does and the verdict."""
        process, bundle, tx = self.spend(worker, platform, requester, task_id, stolen, refuse)
        verdict = self.check(tx)
        if verdict == tokens.Verdict.VALID and not self.commit(tx):
            raise InvalidBlockError(f"the views refused the verification of {task_id}")
        return process, bundle, tx, verdict

    def scan(self, participant: str) -> List[tokens.AlertReport]:
        if participant not in self.wallets:
            raise UnknownParticipantError(f"{participant!r} is not registered")
        return tokens.scan(participant, self.wallets[participant], self.views)

    def adjudicate(self, alert: tokens.AlertReport) -> tokens.AdjudicationVerdict:
        return tokens.adjudicate(self.ra, alert, self.views, self.registry, self.ra_ledger, self.publics)
