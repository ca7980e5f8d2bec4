"""Anonymous token budgets: generation, spending, checking, proofs, alerts.

e-tokens realize enforceable (upper-bound) regulations: each expanded pattern
gets a pool of RA-signed nonces, a copy held by every target; spending one
consumes one unit of budget. v-tokens realize verifiable (lower-bound)
regulations: one nonce per (concrete tuple, slot), with each of the three
participants holding owner-specific RA bindings they can later disclose as
proof of participation.

On the ledger a spend reveals only token public parts, group signatures and
a task digest; the contribution id stays in the platform's signed request,
which only the worker and the requester keep. Nothing ties an entry to a
regulation or to an identity; accountability comes from the opening envelope
held by the registration authority.

Every participant scans the ledger for misuse of its tokens (`scan`). Scans
are incremental in the manner of a Certificate Transparency monitor: each
wallet remembers how far it has read each view's commit log, which nonces
raise an alert and which spend transcripts are still open, so a scan reads
only what changed since the last one.
"""

from __future__ import annotations

import json
from collections import ChainMap
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from types import MappingProxyType
from typing import Container, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .credentials import (
    GroupCredential,
    GroupId,
    GroupSig,
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
from .encoding import enc_bytes, enc_int, enc_seq, enc_str
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    InsufficientEvidenceError,
    MalformedEvidenceError,
    SignatureRefusedError,
)
from .ledger import LedgerView, Transaction, TxKind
from .regulation import (
    BudgetPlan,
    ParticipantRegistry,
    Regulation,
    RegulationKind,
    TriplePattern,
    ROLES,
)

ROLE_GROUP = {
    "worker": GroupId.WORKERS,
    "platform": GroupId.PLATFORMS,
    "requester": GroupId.REQUESTERS,
}

# The (group, scope) label of each group signature an entry carries, in
# `ROLES` order.
ENTRY_LABELS = tuple((ROLE_GROUP[role].value, "token_task") for role in ROLES)

# Full cartesian v-token generation above this many tuples requires an
# explicit declared-tuple list.
VTOKEN_TUPLE_CAP = 4096


def token_pub_msg(nonce: Nonce) -> bytes:
    return enc_bytes(nonce.value) + enc_int(nonce.epoch)


def token_task_msg(nonce: Nonce, ra_sig: bytes, task_digest: bytes) -> bytes:
    """The message every group signature of an entry signs: the token's
    public part and RA signature, bound to a task."""
    return token_pub_msg(nonce) + enc_bytes(ra_sig) + enc_bytes(task_digest)


def request_msg(task_digest: bytes, contribution_id: bytes, nonces: Sequence[Nonce]) -> bytes:
    """The message of a platform's signed spend request: the task, the
    contribution and every token it spends."""
    return enc_bytes(task_digest) + enc_bytes(contribution_id) + enc_seq(token_pub_msg(n) for n in nonces)


def vpriv_head(pub_msg: bytes, owner: str) -> bytes:
    """The owner part of an RA binding, after the nonce's `token_pub_msg`."""
    return pub_msg + enc_str(owner)


def vpriv_leaf(role: str, element: str) -> bytes:
    """The role part of an RA binding, after its `vpriv_head`."""
    return enc_str(role) + enc_str(element)


def vpriv_msg(nonce: Nonce, owner: str, role: str, element: str) -> bytes:
    """The message of the RA binding that `owner` holds `nonce` in `role`
    of a tuple whose `role` member is `element`."""
    return vpriv_head(token_pub_msg(nonce), owner) + vpriv_leaf(role, element)


@dataclass
class ETokenRecord:
    """One e-token copy as held in a wallet."""

    pattern: TriplePattern
    nonce: Nonce
    ra_sig: bytes
    spent: bool = False
    task_digest: Optional[bytes] = None


@dataclass
class VTokenRecord:
    """One v-token copy; same nonce is shared by all three tuple members."""

    tuple_: Tuple[str, str, str]
    nonce: Nonce
    ra_sig: bytes
    priv: Dict[str, bytes]  # role -> RA binding signature for the wallet owner
    spent: bool = False
    task_digest: Optional[bytes] = None


@dataclass(frozen=True)
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


@dataclass
class _ScanState:
    """How far a wallet's scans of one views list have read, and what they
    found: a Certificate Transparency monitor's last checked tree head."""

    log_cursors: List[int]  # per view, the length of its commit log already read
    changed_cursor: int  # the length of the wallet's change log already read
    alerts: Dict[bytes, BundleEntry] = field(default_factory=dict)  # nonce -> committing entry
    transcript_cursor: int = 0
    open_transcripts: List[Transcript] = field(default_factory=list)  # a nonce committed in no view


@dataclass
class Wallet:
    """One participant's token copies and spend transcripts.

    Records change only through `receive` and `mark_spent`, and transcripts
    are only appended. `receive` keeps the nonce index that
    `received_nonces` and `mark_spent` read; both log the nonce whose record
    they changed. For each views list it was scanned with (keyed by the view
    objects), the wallet keeps a scan state: a cursor into each view's commit
    log, into its own change log and into `transcripts`, the nonces that
    raise a relay alert, and the transcripts still open. A views list never
    scanned starts from empty state, so its first scan reads everything.
    """

    owner: str
    etokens: Dict[TriplePattern, List[ETokenRecord]] = field(default_factory=dict)
    vtokens: Dict[Tuple[str, str, str], List[VTokenRecord]] = field(default_factory=dict)
    transcripts: List[Transcript] = field(default_factory=list)
    _by_nonce: Dict[bytes, object] = field(default_factory=dict, init=False, repr=False)
    _changed: List[bytes] = field(default_factory=list, init=False, repr=False)
    _scans: Dict[Tuple[LedgerView, ...], _ScanState] = field(default_factory=dict, init=False, repr=False)

    def receive(self, rec) -> None:
        """Add an e- or v-token record to its pool and to the nonce index."""
        if isinstance(rec, ETokenRecord):
            self.etokens.setdefault(rec.pattern, []).append(rec)
        else:
            self.vtokens.setdefault(rec.tuple_, []).append(rec)
        self._by_nonce[rec.nonce.value] = rec
        self._changed.append(rec.nonce.value)

    def received_nonces(self) -> Mapping[bytes, object]:
        """Read-only nonce value -> the record holding it."""
        return MappingProxyType(self._by_nonce)

    def unspent_etoken(self, pattern: TriplePattern, exclude: Container[bytes]) -> Optional[ETokenRecord]:
        return _lowest_unspent(self.etokens.get(pattern, ()), exclude)

    def unspent_vtoken(self, tup: Tuple[str, str, str], exclude: Container[bytes]) -> Optional[VTokenRecord]:
        return _lowest_unspent(self.vtokens.get(tup, ()), exclude)

    def mark_spent(self, nonce_value: bytes, task_digest: bytes) -> None:
        rec = self._by_nonce.get(nonce_value)
        if rec is not None:
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
        return lines


def _lowest_unspent(recs, exclude: Container[bytes]):
    """The unspent record with the lowest nonce not in `exclude`, or None."""
    return min(
        [r for r in recs if not r.spent and r.nonce.value not in exclude],
        key=lambda r: r.nonce.value,
        default=None,
    )


@dataclass(frozen=True)
class IssueRecord:
    nonce: Nonce
    holders: Tuple[str, ...]


class RaLedger:
    """The registration authority's private record of issued nonces."""

    def __init__(self):
        self.records: Dict[bytes, IssueRecord] = {}

    def add(self, record: IssueRecord) -> None:
        if record.nonce.value in self.records:
            raise ValueError("nonce issued twice")
        self.records[record.nonce.value] = record

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

    `public_keys` is not read.
    """
    nonces = NonceFactory(seed)
    wallets = {pid: Wallet(pid) for pid in registry.all_ids()}
    ra_ledger = RaLedger()

    for pattern, count in plan.etokens:
        targets = pattern.targets()
        holder_ids = tuple(ident for _, ident in targets)
        for _ in range(count):
            nonce = nonces.next()
            ra_sig = sign(ra.sign.secret, token_pub_msg(nonce))
            ra_ledger.add(IssueRecord(nonce, holder_ids))
            for ident in holder_ids:
                wallets[ident].receive(ETokenRecord(pattern, nonce, ra_sig))

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

    # Each binding is vpriv_msg(nonce, owner, role, element), assembled from
    # parts shared by the tuple, the nonce and the owner.
    for tup in tuples:
        leaves = [(role, vpriv_leaf(role, element)) for role, element in zip(ROLES, tup)]
        for _ in range(plan.theta_min):
            nonce = nonces.next()
            pub_msg = token_pub_msg(nonce)
            ra_sig = sign(ra.sign.secret, pub_msg)
            ra_ledger.add(IssueRecord(nonce, tup))
            for owner in tup:
                head = vpriv_head(pub_msg, owner)
                priv = {role: sign(ra.sign.secret, head + leaf) for role, leaf in leaves}
                wallets[owner].receive(VTokenRecord(tup, nonce, ra_sig, priv))

    return wallets, ra_ledger


# --- spending ---


@dataclass(frozen=True)
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

    def serialize(self) -> bytes:
        sig_parts = []
        for group, scope, gsig in self.group_sigs:
            sig_parts.append(
                enc_str(group) + enc_str(scope) + enc_bytes(gsig.outer) + enc_bytes(gsig.opening)
            )
        return b"".join(
            (
                token_pub_msg(self.nonce),
                enc_bytes(self.ra_sig),
                enc_bytes(self.task_digest),
                enc_seq(sig_parts),
            )
        )


@dataclass(frozen=True)
class SpendBundle:
    """All token spends backing one crowdworking process."""

    task_id: str
    entries: Tuple[BundleEntry, ...]

    def nonces(self) -> List[bytes]:
        return [e.nonce.value for e in self.entries]

    def serialize(self) -> bytes:
        return enc_str(self.task_id) + enc_seq(e.serialize() for e in self.entries)


@dataclass(frozen=True)
class VerificationPayload:
    """The spend bundles of every contribution of one task."""

    task_id: str
    bundles: Tuple[SpendBundle, ...]

    def nonces(self) -> List[bytes]:
        out: List[bytes] = []
        for b in self.bundles:
            out.extend(b.nonces())
        return out

    def serialize(self) -> bytes:
        return enc_str(self.task_id) + enc_seq(b.serialize() for b in self.bundles)


@dataclass(frozen=True)
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
    bound = token_task_msg(rec.nonce, rec.ra_sig, process.task_digest)
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


@dataclass(frozen=True)
class CheckKeys:
    ra_sign_public: bytes
    group_publics: Dict[str, bytes]  # GroupId value -> group public key


def check(
    verification_tx: Transaction,
    ledger_views: Sequence[LedgerView],
    keys: CheckKeys,
) -> Verdict:
    """Verdict on a verification transaction, run before it commits.

    The parsed bundle must serialize to exactly the payload bytes that the
    transaction digest and the commit certificate cover.
    """
    payload = verification_tx.bundle
    if (
        verification_tx.kind != TxKind.VERIFICATION
        or payload is None
        or payload.serialize() != verification_tx.payload
    ):
        return Verdict.FORGED
    seen: Set[bytes] = set()
    for bundle in payload.bundles:
        for entry in bundle.entries:
            if not verify(keys.ra_sign_public, token_pub_msg(entry.nonce), entry.ra_sig):
                return Verdict.FORGED
            if entry.task_digest != verification_tx.parent_submission:
                return Verdict.FORGED
            if tuple((g, s) for g, s, _ in entry.group_sigs) != ENTRY_LABELS:
                return Verdict.FORGED
            bound = token_task_msg(entry.nonce, entry.ra_sig, entry.task_digest)
            for group, _, gsig in entry.group_sigs:
                group_public = keys.group_publics.get(group)
                if group_public is None or not group_verify(group_public, bound, gsig):
                    return Verdict.FORGED
            if entry.nonce.value in seen:
                return Verdict.REPLAYED
            seen.add(entry.nonce.value)
    for view in ledger_views:
        committed = view.committed_nonces()
        for nonce_value in seen:
            owner_digest = committed.get(nonce_value)
            if owner_digest is not None and owner_digest != verification_tx.digest:
                return Verdict.REPLAYED
    return Verdict.VALID


# --- alerts ---


class AlertKind(str, Enum):
    RELAY = "relay"
    PLATFORM_FAILURE = "platform_failure"


@dataclass(frozen=True)
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


def _committed(views: Sequence[LedgerView]) -> ChainMap:
    """nonce value -> committing tx digest, from the first view that has it."""
    return ChainMap(*(view.committed_nonces() for view in views))


def _committing_entry(views: Sequence[LedgerView], nonce_value: bytes) -> Optional[BundleEntry]:
    """The entry of the first view's verification tx committing the nonce."""
    for view in views:
        tx_digest = view.committed_nonces().get(nonce_value)
        if tx_digest is not None:
            bundles = view.blocks[tx_digest].tx.bundle.bundles
            return next(e for b in bundles for e in b.entries if e.nonce.value == nonce_value)
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
    call visits only the commit-log entries each view gained since, and
    re-derives the committing entry only of the wallet's nonces that are new
    on some view or whose record changed since; an alert's entry changes only
    when its nonce reaches an earlier view. Its cost is proportional to the
    new commits and record changes plus the current alerts, not to history.
    """
    state = wallet._scan_state(ledger_views)
    mine = wallet.received_nonces()
    recheck: List[bytes] = []
    for i, view in enumerate(ledger_views):
        new = view.commit_log(state.log_cursors[i])
        state.log_cursors[i] += len(new)
        recheck.extend(n for n in new if n in mine)
    recheck.extend(wallet._changed[state.changed_cursor:])
    state.changed_cursor = len(wallet._changed)
    for nonce_value in dict.fromkeys(recheck):
        entry = _committing_entry(ledger_views, nonce_value)
        rec = mine[nonce_value]
        if entry is not None and (not rec.spent or rec.task_digest != entry.task_digest):
            state.alerts[nonce_value] = entry
        else:
            state.alerts.pop(nonce_value, None)
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
    transcripts.
    """
    state = wallet._scan_state(ledger_views)
    new = wallet.transcripts[state.transcript_cursor:]
    state.transcript_cursor += len(new)
    committed = _committed(ledger_views)
    state.open_transcripts = [
        t
        for t in chain(state.open_transcripts, new)
        if any(n.value not in committed for n in t.nonces)
    ]
    return [
        AlertReport(participant, AlertKind.PLATFORM_FAILURE, transcript=t)
        for t in state.open_transcripts
    ]


class VerdictKind(str, Enum):
    TRUE_POSITIVE = "true_positive"
    FALSE_POSITIVE = "false_positive"


@dataclass(frozen=True)
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
    platform.
    """
    if alert.kind == AlertKind.RELAY:
        return _adjudicate_relay(ra, alert, ledger_views, registry, ra_ledger)
    if alert.kind == AlertKind.PLATFORM_FAILURE:
        return _adjudicate_platform_failure(alert, ledger_views, public_keys)
    raise MalformedEvidenceError(f"no adjudication path for {alert.kind.value}")


def _adjudicate_relay(ra, alert, ledger_views, registry, ra_ledger) -> AdjudicationVerdict:
    entry = alert.entry
    if entry is None:
        raise MalformedEvidenceError("relay alert must carry the on-ledger entry")
    if _committing_entry(ledger_views, entry.nonce.value) != entry:
        raise MalformedEvidenceError("evidence entry does not match the ledger")
    issue = ra_ledger.get(entry.nonce.value)
    if issue is None:
        raise MalformedEvidenceError("nonce was never issued")
    if alert.reporter not in issue.holders:
        raise MalformedEvidenceError("reporter never held this token")
    role = registry.role_of(alert.reporter)
    group = ROLE_GROUP[role]
    gsig = next((s for g, _, s in entry.group_sigs if g == group.value), None)
    if gsig is None:
        raise MalformedEvidenceError("entry carries no signature for the group")
    opened = group_open(ra, group, gsig, token_task_msg(entry.nonce, entry.ra_sig, entry.task_digest))
    legit = next((h for h in issue.holders if registry.role_of(h) == role), None)
    if opened != legit:
        return AdjudicationVerdict(
            VerdictKind.TRUE_POSITIVE,
            opened,
            f"{group.value} signature opens to {opened}, legitimate holder is {legit}",
        )
    return AdjudicationVerdict(
        VerdictKind.FALSE_POSITIVE,
        alert.reporter,
        f"{group.value} signature opens to the legitimate holder {legit}",
    )


def _adjudicate_platform_failure(alert, ledger_views, public_keys) -> AdjudicationVerdict:
    t = alert.transcript
    if t is None:
        raise MalformedEvidenceError("platform-failure alert must carry a signed request")
    platform_public = public_keys.get(t.platform)
    if platform_public is None:
        raise MalformedEvidenceError(f"unknown platform {t.platform}")
    if not verify(platform_public, request_msg(t.task_digest, t.contribution_id, t.nonces), t.request_sig):
        raise MalformedEvidenceError("request transcript signature does not verify")
    committed = _committed(ledger_views)
    missing = {n.value for n in t.nonces if n.value not in committed}
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


@dataclass(frozen=True)
class ProofComponent:
    nonce: Nonce
    bindings: Tuple[bytes, ...]  # the prover's RA bindings, in `pattern.targets()` order


@dataclass(frozen=True)
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
    """Assemble threshold+1 committed v-token components, minimally disclosed."""
    if reg.kind != RegulationKind.VERIFIABLE:
        raise InsufficientEvidenceError("proofs apply to verifiable regulations only")
    needed = reg.threshold + 1
    committed = _committed(ledger_views)
    target_roles = [role for role, _ in reg.pattern.targets()]
    candidates = []
    for tup, recs in wallet.vtokens.items():
        if not reg.pattern.matches(tup):
            continue
        for rec in recs:
            if rec.spent and rec.nonce.value in committed:
                candidates.append(rec)
    candidates.sort(key=lambda r: r.nonce.value)
    if len(candidates) < needed:
        raise InsufficientEvidenceError(
            f"{len(candidates)} qualifying committed v-tokens, need {needed}"
        )
    components = tuple(
        ProofComponent(rec.nonce, tuple(rec.priv[role] for role in target_roles))
        for rec in candidates[:needed]
    )
    return Proof(regulation=reg, prover=participant, components=components)


def verify_proof(
    proof: Proof,
    ledger_views: Sequence[LedgerView],
    ra_sign_public: bytes,
) -> bool:
    """Check RA bindings, ledger commitment on every view, and distinctness."""
    reg = proof.regulation
    if reg.kind != RegulationKind.VERIFIABLE:
        return False
    if len(proof.components) < reg.threshold + 1:
        return False
    nonce_values = [c.nonce.value for c in proof.components]
    if len(set(nonce_values)) != len(nonce_values):
        return False
    targets = reg.pattern.targets()
    if not ledger_views:
        return False
    per_view = [view.committed_nonces() for view in ledger_views]
    for comp in proof.components:
        if len(comp.bindings) != len(targets):
            return False
        for (role, element), sig in zip(targets, comp.bindings):
            if not verify(ra_sign_public, vpriv_msg(comp.nonce, proof.prover, role, element), sig):
                return False
        if any(comp.nonce.value not in nonces for nonces in per_view):
            return False
    return True


def dump_wallets(wallets: Dict[str, Wallet]) -> List[str]:
    lines: List[str] = []
    for owner in sorted(wallets):
        lines.extend(wallets[owner].dump_lines())
    return lines
