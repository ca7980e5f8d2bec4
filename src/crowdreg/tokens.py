"""Anonymous token budgets: generation, spending, checking, proofs, alerts.

e-tokens realize enforceable (upper-bound) regulations: each expanded pattern
gets a pool of RA-signed nonces, a copy held by every target; spending one
consumes one unit of budget. v-tokens realize verifiable (lower-bound)
regulations: one nonce per (concrete tuple, slot) and three RA bindings,
one per role, each certifying only "this nonce's tuple has `element` in
`role`". The tuple's three members hold the same bindings and disclose them
as proof of participation. The RA issues the whole budget up front, one pool
at a time: each holder receives its copies of a pattern's or a tuple's
tokens in one batch, and the three copies of a v-token share one bytes value
holding its three bindings.

A binding names no holder, so a proof is bound to its prover by a rule, not
by a signature: `prove` and `verify_proof` take only a prover that the
regulation's pattern names. A verified binding then puts the prover in the
nonce's tuple, so a proof still shows that the prover held every nonce it
discloses. This is a protocol decision: a holder that the pattern does not
name, such as a platform proving `(w1, *, *)`, cannot prove the regulation,
though it holds the tokens. Each disclosed binding is its own signature and
reveals nothing about the other roles, so no salted leaves are needed for
minimal disclosure.

On the ledger a spend reveals only token public parts, group signatures and
a task digest; the contribution id stays in the platform's signed request,
which only the worker and the requester keep. Nothing ties an entry to a
regulation or to an identity; accountability comes from the opening envelope
held by the registration authority, which has one length per suite whoever
signed. A holder can therefore spend its own token on another participant's
regulation, as a platform paying for its worker's, and no scan tells.
One thing a payload does show: a bundle has one entry per applicable
regulation, so its entry count tells how many regulations the process's
tuple falls under. That count is the same for every tuple when every
regulation quantifies with `forall`, but per-id regulations would make it
identifying; hiding it is out of scope here.

Every participant scans the ledger for misuse of its tokens (`scan`). Scans
are incremental in the manner of a Certificate Transparency monitor: each
wallet remembers how far it has read each view's commit log, the nonces that
call for an alert and the spend transcripts that are still open, so a scan
reads only what changed since the last one. The views' new commits usually
agree: a verification is committed to every view as one transaction, so each
view logs the same nonce objects in the same order. A scan therefore checks
each distinct slice of new commits against the wallet once, not once per
view; a view that got a commit the others did not has a slice of its own.

Spends and audits read indexes instead of whole wallets: each wallet keeps
its unspent pools in nonce order and its spent v-tokens in a nonce-ordered
list, and each ledger view keeps the entry that first committed each nonce.
The wallet indexes hold because records change only through
`Wallet.receive` and `Wallet.mark_spent`.

The registration authority keeps its rulings in the same way: its `RaLedger`
remembers what `adjudicate` derived from evidence alone, so ruling on an
alert again re-checks only the ledger views.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
from types import MappingProxyType
from typing import Container, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .credentials import (
    GroupCredential,
    KeyPair,
    Nonce,
    NonceFactory,
    RaKeys,
    group_sign,
    group_verify,
    group_open,
    sign,
    verify,
)
from .encoding import enc_bytes, enc_seq, enc_str
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    InsufficientEvidenceError,
    MalformedEvidenceError,
    OpeningInvalidError,
    SignatureRefusedError,
)
from .ledger import LedgerView, Transaction, TxKind
from .payload import (  # re-exported: `tokens.SpendBundle` and the rest stay where callers find them
    ENTRY_LABELS,
    ROLE_GROUP,
    BundleEntry,
    SpendBundle,
    VerificationPayload,
    token_pub_msg,
    token_task_msg,
)
from .regulation import (
    BudgetPlan,
    ParticipantRegistry,
    Regulation,
    RegulationKind,
    TriplePattern,
    ROLES,
)

# The position of each role's binding among the three that a
# `VTokenRecord.priv` concatenates.
ROLE_INDEX = {role: i for i, role in enumerate(ROLES)}

# Full cartesian v-token generation above this many tuples requires an
# explicit declared-tuple list.
VTOKEN_TUPLE_CAP = 4096


def request_msg(task_digest: bytes, contribution_id: bytes, nonces: Sequence[Nonce]) -> bytes:
    """The message of a platform's signed spend request: the task, the
    contribution and every token it spends."""
    return enc_bytes(task_digest) + enc_bytes(contribution_id) + enc_seq(token_pub_msg(n) for n in nonces)


def vpriv_leaf(role: str, element: str) -> bytes:
    """The role part of an RA binding, after the nonce's `token_pub_msg`."""
    return enc_str(role) + enc_str(element)


def vpriv_msg(nonce: Nonce, role: str, element: str) -> bytes:
    """The message of the RA binding that the tuple of `nonce` has `element`
    in `role`; every holder of the nonce holds the same binding."""
    return token_pub_msg(nonce) + vpriv_leaf(role, element)


@dataclass(slots=True)
class ETokenRecord:
    """One e-token copy as held in a wallet."""

    pattern: TriplePattern
    nonce: Nonce
    ra_sig: bytes
    spent: bool = False
    task_digest: Optional[bytes] = None


@dataclass(slots=True)
class VTokenRecord:
    """One v-token copy; same nonce is shared by all three tuple members.

    `priv` is the nonce's three RA bindings concatenated in `ROLES` order,
    one bytes value that the three members' copies share. One RA key signs
    all three, so they have equal length; `binding` cuts out one.
    """

    tuple_: Tuple[str, str, str]
    nonce: Nonce
    ra_sig: bytes
    priv: bytes
    spent: bool = False
    task_digest: Optional[bytes] = None

    def binding(self, role: str) -> bytes:
        """The RA binding in `role`: the RA signature over
        `vpriv_msg(nonce, role, element)`, where `element` is the tuple's
        member in `role`."""
        size = len(self.priv) // len(ROLES)
        start = ROLE_INDEX[role] * size
        return self.priv[start:start + size]


@dataclass(frozen=True, slots=True)
class Transcript:
    """A platform's spend request, signed over the task, the contribution and
    the nonces it spent (`request_msg`), kept by the worker and the requester
    as evidence should the platform not commit. It holds the only copy of the
    request: no ledger entry carries the contribution id or the signature."""

    platform: str
    task_digest: bytes
    contribution_id: bytes
    nonces: Tuple[Nonce, ...]
    request_sig: bytes


@dataclass(slots=True)
class _ScanState:
    """How far a wallet's scans of one views list have read, and what they
    found: a Certificate Transparency monitor's last checked tree head."""

    log_cursors: List[int]  # per view, the length of its commit log already read
    changed_cursor: int  # the length of the wallet's change log already read
    alerts: Dict[bytes, BundleEntry] = field(default_factory=dict)  # nonce -> committing entry
    transcript_cursor: int = 0
    open_transcripts: List[Transcript] = field(default_factory=list)  # a nonce committed in no view


_nonce_value = attrgetter("nonce.value")


@dataclass(slots=True)
class Wallet:
    """One participant's token copies and spend transcripts.

    Records change only through `receive`, which adds one pool's records at
    a time, and `mark_spent`, and transcripts are only appended; the indexes
    below rely on that. `receive` keeps the nonce index that
    `received_nonces` and `mark_spent` read; both log the nonce of each
    record they add or change. Each pool has a lookup order, sorted on
    the pool's first `unspent_etoken`/`unspent_vtoken` lookup with the lowest
    nonce last and dropped by `receive`; lookups pop spent records off its
    end. `mark_spent` files each v-token record it marks into a list in
    nonce-value order, the only records `prove` reads. For each views list
    it was scanned with (keyed by the view objects), the wallet keeps a scan
    state: a cursor into each view's commit log, into its own change log and
    into `transcripts`, the nonces that raise a relay alert, and the
    transcripts still open. A views list never scanned starts from empty
    state, so its first scan reads everything.
    """

    owner: str
    etokens: Dict[TriplePattern, List[ETokenRecord]] = field(default_factory=dict)
    vtokens: Dict[Tuple[str, str, str], List[VTokenRecord]] = field(default_factory=dict)
    transcripts: List[Transcript] = field(default_factory=list)
    _by_nonce: Dict[bytes, object] = field(default_factory=dict, init=False, repr=False)
    _changed: List[bytes] = field(default_factory=list, init=False, repr=False)
    _orders: Dict[object, list] = field(default_factory=dict, init=False, repr=False)  # pool key -> records
    _spent_vtokens: List[VTokenRecord] = field(default_factory=list, init=False, repr=False)  # by nonce
    _scans: Dict[Tuple[LedgerView, ...], _ScanState] = field(default_factory=dict, init=False, repr=False)

    def receive(self, records: Sequence) -> None:
        """Add the records of one pool, in issue order: copies of e-tokens of
        one pattern or of v-tokens of one tuple. An empty batch changes
        nothing."""
        if not records:
            return
        first = records[0]
        if isinstance(first, ETokenRecord):
            key, pools = first.pattern, self.etokens
        else:
            key, pools = first.tuple_, self.vtokens
        pools.setdefault(key, []).extend(records)
        self._orders.pop(key, None)
        values = list(map(_nonce_value, records))
        self._by_nonce.update(zip(values, records))
        self._changed.extend(values)

    def received_nonces(self) -> Mapping[bytes, object]:
        """Read-only nonce value -> the record holding it."""
        return MappingProxyType(self._by_nonce)

    def unspent_etoken(self, pattern: TriplePattern, exclude: Container[bytes]) -> Optional[ETokenRecord]:
        """The unspent e-token of `pattern` with the lowest nonce not in `exclude`."""
        return self._lowest_unspent(self.etokens, pattern, exclude)

    def unspent_vtoken(self, tup: Tuple[str, str, str], exclude: Container[bytes]) -> Optional[VTokenRecord]:
        """The unspent v-token of `tup` with the lowest nonce not in `exclude`."""
        return self._lowest_unspent(self.vtokens, tup, exclude)

    def _lowest_unspent(self, pools, key, exclude: Container[bytes]):
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = sorted(pools.get(key, ()), key=_nonce_value, reverse=True)
        while order and order[-1].spent:
            order.pop()
        for rec in reversed(order):
            if not rec.spent and rec.nonce.value not in exclude:
                return rec
        return None

    def mark_spent(self, nonce_value: bytes, task_digest: bytes) -> None:
        rec = self._by_nonce.get(nonce_value)
        if rec is not None:
            if not rec.spent and isinstance(rec, VTokenRecord):
                insort(self._spent_vtokens, rec, key=_nonce_value)
            rec.spent = True
            rec.task_digest = task_digest
            self._changed.append(nonce_value)

    def _scan_state(self, views: Sequence[LedgerView]) -> _ScanState:
        """The scan state of `views`, empty the first time they are scanned.

        Changes logged before then are not read: the first scan reads every
        commit log from the start and so checks every nonce on the ledger.
        """
        key = tuple(views)
        state = self._scans.get(key)
        if state is None:
            state = self._scans[key] = _ScanState([0] * len(key), len(self._changed))
        return state

    def dump_lines(self) -> List[str]:
        """One JSON line per token record, then one per spend transcript."""
        lines = []
        for kind, pools in (("e", self.etokens), ("v", self.vtokens)):
            for recs in pools.values():
                for rec in recs:
                    row = {
                        "owner": self.owner,
                        "kind": kind,
                        "nonce_hex": rec.nonce.hex(),
                        "spent": rec.spent,
                    }
                    if rec.task_digest is not None:
                        row["task_digest"] = rec.task_digest.hex()
                    lines.append(json.dumps(row, sort_keys=True))
        for t in self.transcripts:
            row = {
                "owner": self.owner,
                "kind": "transcript",
                "platform": t.platform,
                "task_digest": t.task_digest.hex(),
                "contribution_id": t.contribution_id.hex(),
                "nonces_hex": [n.hex() for n in t.nonces],
                "request_sig": t.request_sig.hex(),
            }
            lines.append(json.dumps(row, sort_keys=True))
        return lines


@dataclass(frozen=True, slots=True)
class IssueRecord:
    """The holders of one pool's tokens, filed under each of its nonces."""

    holders: Tuple[str, ...]


class RaLedger:
    """The registration authority's private state: the issue record of every
    nonce, one shared by each pool's nonces, and the rulings the RA kept
    from evidence that cannot change.

    `adjudicate` keeps a relay verdict per (reporter, nonce), with the entry,
    RA keys and registry it was derived for and the member it named with the
    key it opened, and, under each (platform public key, request signature)
    that verified, the transcript it verified for. Neither depends on the
    ledger views, which `adjudicate` reads again on every call.
    """

    def __init__(self):
        self.records: Dict[bytes, IssueRecord] = {}
        self._relay_rulings: Dict[Tuple[str, bytes], tuple] = {}  # -> (entry, ra, registry, named, key, verdict)
        self._verified_requests: Dict[Tuple[bytes, bytes], Transcript] = {}

    def issue(self, nonces: Sequence[Nonce], holders: Tuple[str, ...]) -> None:
        """File one record of `holders` under every nonce of one pool. A
        nonce issued before, or twice in `nonces`, raises and files none."""
        record = IssueRecord(holders)
        shared = dict.fromkeys([n.value for n in nonces], record)
        if len(shared) != len(nonces) or not self.records.keys().isdisjoint(shared):
            raise ConfigError("nonce issued twice")
        self.records.update(shared)

    def get(self, nonce_value: bytes) -> Optional[IssueRecord]:
        return self.records.get(nonce_value)


def generate(
    plan: BudgetPlan,
    registry: ParticipantRegistry,
    ra: RaKeys,
    seed: bytes,
    public_keys: Optional[Dict[str, bytes]] = None,
    declared_tuples: Optional[Sequence[Tuple[str, str, str]]] = None,
) -> Tuple[Dict[str, Wallet], RaLedger]:
    """Issue all wallets; every nonce is recorded exactly once.

    Nonces are drawn pool by pool: `count` for each e-token pattern of the
    plan, then `theta_min` for each tuple. The RA files one issue record per
    pool, and every holder gets its copies of a whole pool in one
    `Wallet.receive` call. Every RA signature is its own `sign` call: one
    per nonce over `token_pub_msg`, and for a v-token also one per role over
    `vpriv_msg`, so e-token nonces + 4 × v-token nonces in all. The tuple's
    three members get copies that share one `priv`. `public_keys` is not
    read.
    """
    nonces = NonceFactory(seed)
    wallets = {pid: Wallet(pid) for pid in registry.all_ids()}
    ra_ledger = RaLedger()
    ra_secret = ra.sign.secret

    for pattern, count in plan.etokens:
        holder_ids = tuple(ident for _, ident in pattern.targets())
        issued = [nonces.next() for _ in range(count)]
        ra_sigs = [sign(ra_secret, token_pub_msg(nonce)) for nonce in issued]
        ra_ledger.issue(issued, holder_ids)
        for ident in holder_ids:
            wallets[ident].receive(
                [ETokenRecord(pattern, nonce, ra_sig) for nonce, ra_sig in zip(issued, ra_sigs)]
            )

    if declared_tuples is not None:
        tuples = list(declared_tuples)
    else:
        total = len(registry.workers) * len(registry.platforms) * len(registry.requesters)
        if total > VTOKEN_TUPLE_CAP:
            raise ConfigError(
                f"{total} tuples exceed the v-token cap {VTOKEN_TUPLE_CAP}; "
                "declare the participant tuples explicitly"
            )
        tuples = list(registry.tuples())

    for tup in tuples:
        issued = [nonces.next() for _ in range(plan.theta_min)]
        ra_ledger.issue(issued, tup)
        pub_msgs = [token_pub_msg(nonce) for nonce in issued]
        ra_sigs = [sign(ra_secret, pub_msg) for pub_msg in pub_msgs]
        # `pub_msg + leaf` is vpriv_msg(nonce, role, element), in `ROLES` order.
        w_leaf, p_leaf, r_leaf = [vpriv_leaf(role, element) for role, element in zip(ROLES, tup)]
        privs = [
            sign(ra_secret, pub_msg + w_leaf) + sign(ra_secret, pub_msg + p_leaf) + sign(ra_secret, pub_msg + r_leaf)
            for pub_msg in pub_msgs
        ]
        for owner in tup:
            wallets[owner].receive(
                [VTokenRecord(tup, nonce, ra_sig, priv) for nonce, ra_sig, priv in zip(issued, ra_sigs, privs)]
            )

    return wallets, ra_ledger


# --- spending ---


def verification_tx(
    task_id: str, platform: str, parent_submission: bytes, bundles: Sequence[SpendBundle]
) -> Transaction:
    """The verification transaction of `platform`'s task: the payload is the
    bundles' `VerificationPayload` bytes, and the parsed payload rides along
    as `Transaction.bundle`, which `Transaction` keeps because its bytes are
    the payload itself."""
    body = VerificationPayload(task_id, tuple(bundles))
    return Transaction(
        TxKind.VERIFICATION, task_id, body.serialize(), (platform,), parent_submission=parent_submission, bundle=body
    )


@dataclass(frozen=True, slots=True)
class ProcessContext:
    worker: str
    platform: str
    requester: str
    task_id: str
    task_digest: bytes

    def tuple_(self) -> Tuple[str, str, str]:
        return (self.worker, self.platform, self.requester)


def spend(
    process: ProcessContext,
    applicable_regs: Sequence[Regulation],
    wallets: Dict[str, Wallet],
    ledger_view: LedgerView,
    creds: Dict[str, GroupCredential],
    platform_key: KeyPair,
    contrib_nonces: NonceFactory,
    refuse=None,
    stolen: Optional[Dict[str, ETokenRecord]] = None,
) -> SpendBundle:
    """Run the spend interaction for one process and assemble the bundle.

    For each applicable enforceable pattern the role-ordered first target
    holding an unspent token initiates; for verifiable regulations the
    platform spends one of its own v-tokens. Once every token is picked, the
    platform signs its request over the task, the contribution and the
    picked nonces, and then all three participants co-sign every entry. The
    signed request is kept only in the worker's and the requester's
    `Transcript`, not in the entries.
    `stolen` lets a scripted thief substitute a foreign token for a pattern
    (the relay attack); `refuse` lets a scripted participant decline to
    sign. Wallets change only once every entry is co-signed, so a refused or
    budget-exhausted spend leaves them as they were.
    """
    committed = ledger_view.committed_nonces()

    contribution_id = contrib_nonces.next().value
    picks: List[object] = []  # e- and v-token records, in entry order

    e_patterns: List[TriplePattern] = []
    v_needed = False
    for reg in applicable_regs:
        if reg.kind == RegulationKind.ENFORCEABLE:
            if reg.pattern not in e_patterns:
                e_patterns.append(reg.pattern)
        else:
            v_needed = True

    for pattern in e_patterns:
        rec = stolen.get(pattern) if stolen else None
        if rec is None:
            for role, ident in pattern.targets():
                candidate = wallets[ident].unspent_etoken(pattern, committed)
                if candidate is not None:
                    rec = candidate
                    break
        if rec is None:
            raise BudgetExhaustedError(
                f"no unspent e-token for pattern {pattern.render()}; process must not proceed"
            )
        picks.append(rec)

    if v_needed:
        vrec = wallets[process.platform].unspent_vtoken(process.tuple_(), committed)
        if vrec is not None:
            picks.append(vrec)

    spends = tuple(rec.nonce for rec in picks)  # marked spent in every holder's wallet after assembly
    request_sig = sign(platform_key.secret, request_msg(process.task_digest, contribution_id, spends))
    entries = tuple(_make_entry(rec, process, creds, refuse) for rec in picks)

    for nonce in spends:
        for participant in process.tuple_():
            wallets[participant].mark_spent(nonce.value, process.task_digest)

    if spends:
        t = Transcript(process.platform, process.task_digest, contribution_id, spends, request_sig)
        wallets[process.worker].transcripts.append(t)
        wallets[process.requester].transcripts.append(t)

    return SpendBundle(task_id=process.task_id, entries=entries)


def _make_entry(rec, process: ProcessContext, creds: Dict[str, GroupCredential], refuse) -> BundleEntry:
    """The entry spending the token of `rec`, co-signed by the process's
    worker, platform and requester."""
    bound = token_task_msg(token_pub_msg(rec.nonce), rec.ra_sig, process.task_digest)
    sigs = []
    for label, participant in zip(ENTRY_LABELS, process.tuple_()):
        if refuse is not None and refuse(participant, rec.nonce):
            raise SignatureRefusedError(f"{participant} refused to sign nonce {rec.nonce.hex()}")
        sigs.append(label + (group_sign(creds[participant], bound),))
    return BundleEntry(rec.nonce, rec.ra_sig, process.task_digest, tuple(sigs))


# --- checking ---


class Verdict(str, Enum):
    VALID = "valid"
    FORGED = "forged"
    REPLAYED = "replayed"


@dataclass(frozen=True, slots=True)
class CheckKeys:
    ra_sign_public: bytes
    group_publics: Dict[str, bytes]  # GroupId value -> group public key


def check(
    tx: Transaction,
    ledger_views: Sequence[LedgerView],
    keys: CheckKeys,
) -> Verdict:
    """Verdict on a verification transaction, run before it commits.

    It reads the side-car `tx.bundle`, which `Transaction` kept only if its
    bytes, encoded once when it was built, are exactly the payload bytes
    that the transaction digest and the commit certificate cover; a
    transaction without one, including any that is not a verification, is
    `FORGED`. So `check` encodes no payload, and every entry it reads has
    the types its encoding checked. Each entry's `token_pub_msg` is built
    once: the RA signature is verified over it, and the group signatures
    over the `token_task_msg` built from it. The bundle and each of its
    spend bundles must name the transaction's task. The task names are
    compared after the replay checks, so a bundle resubmitted verbatim under
    another transaction is `REPLAYED`.
    """
    payload = tx.bundle
    if payload is None:
        return Verdict.FORGED
    ra_public, group_publics, task_digest = keys.ra_sign_public, keys.group_publics, tx.parent_submission
    seen: Set[bytes] = set()
    for bundle in payload.bundles:
        for entry in bundle.entries:
            token_msg = token_pub_msg(entry.nonce)
            if not verify(ra_public, token_msg, entry.ra_sig):
                return Verdict.FORGED
            if entry.task_digest != task_digest:
                return Verdict.FORGED
            if len(entry.group_sigs) != len(ENTRY_LABELS):
                return Verdict.FORGED
            for (group, scope, _), (label_group, label_scope) in zip(entry.group_sigs, ENTRY_LABELS):
                if group != label_group or scope != label_scope:
                    return Verdict.FORGED
            bound = token_task_msg(token_msg, entry.ra_sig, task_digest)
            for group, _, gsig in entry.group_sigs:
                group_public = group_publics.get(group)
                if group_public is None or not group_verify(group_public, bound, gsig):
                    return Verdict.FORGED
            if entry.nonce.value in seen:
                return Verdict.REPLAYED
            seen.add(entry.nonce.value)
    for view in ledger_views:
        committed = view.committed_nonces()
        for nonce_value in seen:
            owner_digest = committed.get(nonce_value)
            if owner_digest is not None and owner_digest != tx.digest:
                return Verdict.REPLAYED
    task_ids = {payload.task_id, *(bundle.task_id for bundle in payload.bundles)}
    if task_ids != {tx.task_id}:
        return Verdict.FORGED
    return Verdict.VALID


# --- alerts ---


class AlertKind(str, Enum):
    RELAY = "relay"
    PLATFORM_FAILURE = "platform_failure"


@dataclass(frozen=True, slots=True)
class AlertReport:
    """An alert and its evidence: the on-ledger entry of a relay alert, or
    the spend transcript of a platform-failure alert."""

    reporter: str
    kind: AlertKind
    entry: Optional[BundleEntry] = None
    transcript: Optional[Transcript] = None

    @property
    def nonce(self) -> Optional[Nonce]:
        return self.entry.nonce if self.entry is not None else None

    @property
    def platform(self) -> Optional[str]:
        return self.transcript.platform if self.transcript is not None else None

    @property
    def task_digest(self) -> Optional[bytes]:
        evidence = self.entry if self.entry is not None else self.transcript
        return evidence.task_digest if evidence is not None else None


def _committing_entry(views: Sequence[LedgerView], nonce_value: bytes) -> Optional[BundleEntry]:
    """The entry of the first view's verification tx committing the nonce."""
    for view in views:
        entry = view.committed_entry(nonce_value)
        if entry is not None:
            return entry
    return None


def scan(participant: str, wallet: Wallet, ledger_views: Sequence[LedgerView]) -> List[AlertReport]:
    """Both scans of one participant: its relay alerts, then its
    platform-failure alerts."""
    relay = scan_and_alert(participant, wallet, ledger_views)
    return relay + scan_platform_failure(participant, wallet, ledger_views, {})


def scan_and_alert(
    participant: str,
    wallet: Wallet,
    ledger_views: Sequence[LedgerView],
) -> List[AlertReport]:
    """Relay detection: my nonce is on the ledger, but I never spent it or
    spent it for another task than the entry of the first view committing it
    names. One alert per such nonce, in ascending nonce-value order.

    Like a Certificate Transparency monitor (RFC 6962 §5.3), the wallet's
    scan state for `ledger_views` remembers how far earlier calls read. A
    call takes only the commit-log entries each view gained since, filters
    each distinct slice of them against the wallet's nonces in one set
    operation, then re-derives the committing entry only of the wallet's
    nonces that are new on some view or whose record changed since; an
    alert's entry changes only when its nonce reaches an earlier view. Each
    nonce is re-derived on its own, so the order of re-checks does not
    matter. Its cost is proportional to the new commits and record changes
    plus the current alerts, not to history.

    Views that committed the same verifications since the last call hold
    equal slices: each appends the same transaction, so their logs hold the
    same nonce objects and comparing two slices is an identity test per
    element. A slice equal to one already filtered in this call is not
    filtered again, so with every view in step a new commit is checked
    once, not once per view. A view that got a commit alone, as a partial or
    late delivery, has a slice that differs and is filtered on its own.
    """
    state = wallet._scan_state(ledger_views)
    mine = wallet.received_nonces()
    recheck = set(wallet._changed[state.changed_cursor:])
    state.changed_cursor = len(wallet._changed)
    matched: List[List[bytes]] = []
    for i, view in enumerate(ledger_views):
        new = view.commit_log(state.log_cursors[i])
        state.log_cursors[i] += len(new)
        if new not in matched:
            matched.append(new)
            recheck |= mine.keys() & new
    for nonce_value in recheck:
        entry = _committing_entry(ledger_views, nonce_value)
        rec = mine[nonce_value]
        if entry is not None and (not rec.spent or rec.task_digest != entry.task_digest):
            state.alerts[nonce_value] = entry
        else:
            state.alerts.pop(nonce_value, None)
    if not state.alerts:
        return []
    return [
        AlertReport(participant, AlertKind.RELAY, entry=state.alerts[n]) for n in sorted(state.alerts)
    ]


def scan_platform_failure(
    participant: str,
    wallet: Wallet,
    ledger_views: Sequence[LedgerView],
    platform_public_keys: Dict[str, bytes],
) -> List[AlertReport]:
    """One alert per signed spend request with a token committed in no view,
    in the order the wallet kept the transcripts. `platform_public_keys` is
    not read.

    Incremental like `scan_and_alert`: a call tests only the transcripts
    still open after the last call on `ledger_views` and those kept since.
    A transcript whose nonces are all committed stays closed, since views
    only grow, so the cost is proportional to the new and the open
    transcripts, and a call with neither reads no view. Each nonce's test
    stops at the first view committing it.
    """
    state = wallet._scan_state(ledger_views)
    new = wallet.transcripts[state.transcript_cursor:]
    state.transcript_cursor += len(new)
    if not new and not state.open_transcripts:
        return []
    committed = [view.committed_nonces() for view in ledger_views]
    still_open = []
    for t in chain(state.open_transcripts, new):
        for n in t.nonces:
            value = n.value
            for c in committed:
                if value in c:
                    break
            else:  # in no view
                still_open.append(t)
                break
    state.open_transcripts = still_open
    return [
        AlertReport(participant, AlertKind.PLATFORM_FAILURE, transcript=t)
        for t in still_open
    ]


class VerdictKind(str, Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"


@dataclass(frozen=True, slots=True)
class AdjudicationVerdict:
    kind: VerdictKind
    subject: str  # culprit on true positive, reporter on false positive
    detail: str


def adjudicate(
    ra: RaKeys,
    alert: AlertReport,
    ledger_views: Sequence[LedgerView],
    registry: ParticipantRegistry,
    ra_ledger: RaLedger,
    public_keys: Dict[str, bytes],
) -> AdjudicationVerdict:
    """Open the evidence and rule for or against the reporter.

    Call it for a platform-failure alert only after the commit timeout has
    expired: a token still missing from the ledger then counts against the
    platform. Its transcript must hold a str platform, a bytes task digest,
    contribution id and request signature, and a tuple of `Nonce`s of
    bytes; anything else raises MalformedEvidenceError before the
    transcript is kept.

    Like a wallet's scan state, `ra_ledger` remembers what earlier calls
    derived from evidence alone, and each call re-derives what depends on
    the views. Every call checks that a relay alert's entry is still the
    entry of the first view committing its nonce; the verdict after that
    check is kept for the reporter, entry, RA keys and registry it was
    derived for, and holds while `public_keys` still gives the member it
    named the key the opening held, so a repeat makes no `unseal`,
    `group_open` or `verify`. A transcript's request signature is verified
    once per platform key; the transcript is kept under that key and
    signature, so a repeat compares it with the kept one and hashes none.
    Which of its nonces no view has committed is checked on every call. A
    call that raises keeps nothing, so it raises again. A repeat costs one
    committing-entry lookup per view for a relay alert, and one lookup per
    view and nonce for a platform-failure alert, not an opening or a
    signature check.
    """
    if alert.kind == AlertKind.RELAY:
        entry = alert.entry
        if type(entry) is not BundleEntry:
            raise MalformedEvidenceError("relay alert must carry the on-ledger entry")
        if _committing_entry(ledger_views, entry.nonce.value) != entry:
            raise MalformedEvidenceError("evidence entry does not match the ledger")
        key = (alert.reporter, entry.nonce.value)
        kept = ra_ledger._relay_rulings.get(key)
        if kept is not None and kept[:3] == (entry, ra, registry) and public_keys.get(kept[3]) == kept[4]:
            return kept[5]
        named, opened_key, verdict = _adjudicate_relay(ra, alert.reporter, entry, registry, ra_ledger, public_keys)
        ra_ledger._relay_rulings[key] = (entry, ra, registry, named, opened_key, verdict)
        return verdict
    if alert.kind == AlertKind.PLATFORM_FAILURE:
        return _adjudicate_platform_failure(alert, ledger_views, ra_ledger, public_keys)
    raise MalformedEvidenceError(f"no adjudication path for alert kind {alert.kind!r}")


def _adjudicate_relay(ra, reporter, entry, registry, ra_ledger, public_keys) -> Tuple[str, bytes, AdjudicationVerdict]:
    """The signer, its opened key and the verdict on `reporter`'s relay
    alert against `entry`, which the views commit: open the signature of the
    reporter's group, name the member of the reporter's role whose public
    key it holds and compare it with the token's holder in that role."""
    issue = ra_ledger.get(entry.nonce.value)
    if issue is None:
        raise MalformedEvidenceError("nonce was never issued")
    if reporter not in issue.holders:
        raise MalformedEvidenceError("reporter never held this token")
    role = registry.role_of(reporter)
    group = ROLE_GROUP[role]
    gsig = next((s for g, _, s in entry.group_sigs if g == group.value), None)
    if gsig is None:
        raise MalformedEvidenceError("entry carries no signature for the group")
    opened_key = group_open(ra, gsig, token_task_msg(token_pub_msg(entry.nonce), entry.ra_sig, entry.task_digest))
    opened = next((m for m in registry.group(role) if public_keys.get(m) == opened_key), None)
    if opened is None:
        raise OpeningInvalidError(f"{group.value} signature opens to a key no {role} holds")
    legit = next((h for h in issue.holders if registry.role_of(h) == role), None)
    if opened != legit:
        return opened, opened_key, AdjudicationVerdict(
            VerdictKind.TRUE_POSITIVE,
            opened,
            f"{group.value} signature opens to {opened}, legitimate holder is {legit}",
        )
    return opened, opened_key, AdjudicationVerdict(
        VerdictKind.FALSE_POSITIVE,
        reporter,
        f"{group.value} signature opens to the legitimate holder {legit}",
    )


def _adjudicate_platform_failure(alert, ledger_views, ra_ledger, public_keys) -> AdjudicationVerdict:
    t = alert.transcript
    if type(t) is not Transcript:
        raise MalformedEvidenceError("platform-failure alert must carry a signed request")
    if (
        type(t.platform) is not str or type(t.nonces) is not tuple
        or type(t.task_digest) is not bytes or type(t.contribution_id) is not bytes or type(t.request_sig) is not bytes
    ):
        raise MalformedEvidenceError("request transcript fields are not a str platform, bytes and a tuple of nonces")
    for n in t.nonces:  # a loop, not all(): adjudication repeats at every audit
        if type(n) is not Nonce or type(n.value) is not bytes:
            raise MalformedEvidenceError(f"request transcript nonce {n!r} is not a Nonce of bytes")
    platform_public = public_keys.get(t.platform)
    if platform_public is None:
        raise MalformedEvidenceError(f"unknown platform {t.platform}")
    kept = ra_ledger._verified_requests.get((platform_public, t.request_sig))
    if kept is not t and kept != t:  # keyed by the signature, so a repeat hashes no transcript
        if not verify(platform_public, request_msg(t.task_digest, t.contribution_id, t.nonces), t.request_sig):
            raise MalformedEvidenceError("request transcript signature does not verify")
        ra_ledger._verified_requests[(platform_public, t.request_sig)] = t
    committed = [view.committed_nonces() for view in ledger_views]
    missing = set()
    for n in t.nonces:
        for nonces in committed:
            if n.value in nonces:
                break
        else:
            missing.add(n.value)
    if missing:
        return AdjudicationVerdict(
            VerdictKind.TRUE_POSITIVE,
            t.platform,
            f"{len(missing)} requested token(s) never committed after timeout",
        )
    return AdjudicationVerdict(
        VerdictKind.FALSE_POSITIVE,
        alert.reporter,
        "all requested tokens are committed; platform was slow but correct",
    )


# --- proofs ---


@dataclass(frozen=True, slots=True)
class ProofComponent:
    """One committed v-token of a proof and its RA bindings, one per target
    of the regulation's pattern: `verify_proof` checks each with one
    `verify`. The bindings are the ones every holder of the nonce holds;
    the proof's prover must be one of the targets."""

    nonce: Nonce
    bindings: Tuple[bytes, ...]  # the nonce's RA bindings, in `pattern.targets()` order


@dataclass(frozen=True, slots=True)
class Proof:
    regulation: Regulation
    prover: str
    components: Tuple[ProofComponent, ...]


def prove(
    participant: str,
    reg: Regulation,
    wallet: Wallet,
    ledger_views: Sequence[LedgerView],
) -> Proof:
    """Assemble threshold+1 committed v-token components, minimally disclosed.

    Visits only the prover's spent v-tokens, in nonce-value order, and stops
    at the `threshold + 1`-th that matches the pattern and is committed in
    every view, as `verify_proof` requires; those are the components, in
    that order. Each component holds the record's `binding` in each target
    role. It signs and verifies nothing. A participant that the
    regulation's pattern does not name raises InsufficientEvidenceError,
    since `verify_proof` would refuse its proof; so does every participant
    for a pattern that names none.
    """
    if reg.kind != RegulationKind.VERIFIABLE:
        raise InsufficientEvidenceError("proofs apply to verifiable regulations only")
    if not ledger_views:
        raise InsufficientEvidenceError("no ledger views to prove against")
    targets = reg.pattern.targets()
    if participant not in [ident for _, ident in targets]:
        raise InsufficientEvidenceError(f"{reg.pattern.render()} does not name {participant}")
    needed = reg.threshold + 1
    committed = [view.committed_nonces() for view in ledger_views]
    matches = reg.pattern.matches
    candidates = []
    for rec in wallet._spent_vtokens:
        if matches(rec.tuple_):
            value = rec.nonce.value
            for c in committed:
                if value not in c:
                    break
            else:  # in every view
                candidates.append(rec)
                if len(candidates) == needed:
                    break
    if len(candidates) < needed:
        raise InsufficientEvidenceError(
            f"{len(candidates)} qualifying committed v-tokens, need {needed}"
        )
    components = tuple(
        ProofComponent(rec.nonce, tuple([rec.binding(role) for role, _ in targets])) for rec in candidates
    )
    return Proof(regulation=reg, prover=participant, components=components)


def verify_proof(
    proof: Proof,
    ledger_views: Sequence[LedgerView],
    ra_sign_public: bytes,
) -> bool:
    """Check the prover, RA bindings, ledger commitment on every view, and
    distinctness.

    The prover must be a participant that the regulation's pattern names;
    a verified binding then puts it in the nonce's tuple. The regulation
    must be a `Regulation` with a `TriplePattern` and an int threshold (not
    a bool), the components a tuple, and each component a `ProofComponent`
    with a `Nonce` of bytes and a tuple of bindings; anything else fails.
    Each target's `vpriv_leaf` is encoded once per proof, so a binding costs
    one concatenation after its nonce's `token_pub_msg` and one `verify`: a
    proof that passes makes `len(components) * len(targets)` of them.
    """
    reg, components = proof.regulation, proof.components
    if type(reg) is not Regulation or type(components) is not tuple or reg.kind != RegulationKind.VERIFIABLE:
        return False
    if type(reg.threshold) is not int or type(reg.pattern) is not TriplePattern:  # not isinstance: a bool fails
        return False
    if len(components) < reg.threshold + 1:
        return False
    targets = reg.pattern.targets()
    if not ledger_views or proof.prover not in [ident for _, ident in targets]:
        return False
    leaves = [vpriv_leaf(role, element) for role, element in targets]
    per_view = [view.committed_nonces() for view in ledger_views]
    seen = set()
    for comp in components:
        if (
            type(comp) is not ProofComponent
            or type(comp.nonce) is not Nonce
            or type(comp.nonce.value) is not bytes
            or type(comp.bindings) is not tuple
            or len(comp.bindings) != len(leaves)
        ):
            return False
        value = comp.nonce.value
        if value in seen:
            return False
        seen.add(value)
        head = token_pub_msg(comp.nonce)
        for leaf, sig in zip(leaves, comp.bindings):
            if not verify(ra_sign_public, head + leaf, sig):
                return False
        for nonces in per_view:
            if value not in nonces:
                return False
    return True


def dump_wallets(wallets: Dict[str, Wallet]) -> List[str]:
    lines: List[str] = []
    for owner in sorted(wallets):
        lines.extend(wallets[owner].dump_lines())
    return lines
