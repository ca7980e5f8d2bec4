"""The crowdworking pipeline the benchmark drives, one seeded world at a time.

Per process: submission -> ``regulation.applicable`` -> ``tokens.spend`` ->
``tokens.check`` -> commit certificate signed by node keys ->
``ledger.validate_block`` on every view -> ``append_block`` to every view.
Periodic and period-end audits run the scans, proofs and adjudication.

Library functions are called through their modules (``tokens.spend``, not a
name imported from ``tokens``) so the tracer's wrappers see every call.
Every outcome is compared with the outcome the workload expects; a wrong one
is counted in ``Outcomes`` and the run goes on.
"""

from __future__ import annotations

import copy
import gc
import hashlib
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import process_time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from crowdreg import credentials, ledger, regulation, tokens
from crowdreg.errors import CrowdregError, CycleDetectedError, SignatureRefusedError
from crowdreg.topology import FailureModel, make_topology

from . import checks
from .speed import SpeedClock
from .workloads import Inputs, Slot


class Rejected(Exception):
    """The pipeline refused a step that the workload expects to succeed."""


def verification_tx(
    task_id: str,
    platform: str,
    parent_submission: bytes,
    bundles: Sequence[tokens.SpendBundle],
    payload: Optional[bytes] = None,
) -> ledger.Transaction:
    """Build a verification transaction for spend bundles.

    This is the only place that passes the side-car ``Transaction.bundle``
    (ROADMAP item 3 removes it). ``payload`` replaces the canonical bytes to
    forge a transaction whose payload is not its bundle.
    """
    body = tokens.VerificationPayload(task_id=task_id, bundles=tuple(bundles))
    return ledger.Transaction(
        kind=ledger.TxKind.VERIFICATION,
        task_id=task_id,
        payload=body.serialize() if payload is None else payload,
        involved_platforms=(platform,),
        parent_submission=parent_submission,
        bundle=body,
    )


@dataclass
class Outcomes:
    """Operations attempted and the wrong outcomes among them, by kind."""

    attempted: int = 0
    failed: Counter = field(default_factory=Counter)

    def record(self, ok: bool, kind: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed[kind] += 1

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed.update(other.failed)


@dataclass
class Committed:
    process: tokens.ProcessContext
    bundle: tokens.SpendBundle


@dataclass
class RoundResult:
    # Times are this single-threaded process's CPU times, scaled to the
    # reference speed by ``speed.SpeedClock``.
    setups_s: List[float]  # this round's set-up, then the throwaway ones
    latencies_ms: Dict[int, float]  # slot index -> latency of a committed process
    slots_s: List[float]  # every slot's time, attacks included; scans and audits excluded
    scans_ms: List[float]
    audits_s: List[float]  # one per checkpoint, the period-end audit last
    outcomes: Outcomes
    alerts_raised: int
    adjudications: Counter  # verdict kind -> count
    payload_bytes: int
    wallets_sha256: str
    views_sha256: str


class World:
    """Registry, keys, credentials, regulations, wallets and ledger views."""

    def __init__(self, inputs: Inputs, tracer=None):
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        suite = credentials.Suite(inputs.workload.suite)
        seed = inputs.key_seed

        def derive(label: str) -> bytes:
            return credentials.digest(seed + b"/" + label.encode())

        self.registry = regulation.ParticipantRegistry(
            inputs.workers, inputs.platforms, inputs.requesters
        )
        self.ra = credentials.ra_keygen(derive("ra"), suite)
        self.keys = {
            pid: credentials.keygen(pid, derive("key:" + pid), suite)
            for pid in self.registry.all_ids()
        }
        self.publics = {pid: kp.public for pid, kp in self.keys.items()}
        self.topology = make_topology(len(inputs.platforms), FailureModel.CRASH, f=1)
        self.node_keys = {
            node: credentials.keygen(node, derive("node:" + node), suite)
            for node in self.topology.all_nodes()
        }
        self.node_publics = {node: kp.public for node, kp in self.node_keys.items()}
        self.creds: Dict[str, credentials.GroupCredential] = {}
        for role, group in tokens.ROLE_GROUP.items():
            members = [self.keys[pid] for pid in self.registry.group(role)]
            self.creds.update(
                credentials.group_setup(group, members, self.ra, derive("group:" + role), suite)
            )
        group_publics = {cred.group.value: cred.group_public for cred in self.creds.values()}
        self.check_keys = tokens.CheckKeys(self.ra.sign.public, group_publics)

        with span("regulation.compile"):
            parsed = [regulation.parse_regulation(text) for text in inputs.regulations]
            self.regs = regulation.expand_all(parsed, self.registry)
            self.plan = regulation.compute_budget(self.regs, self.registry)
        self.wallets, self.ra_ledger = tokens.generate(
            self.plan,
            self.registry,
            self.ra,
            derive("generate"),
            self.publics,
            declared_tuples=inputs.declared_tuples,
        )
        self.contrib = credentials.NonceFactory(derive("contrib"))
        self.platform_ids = self.topology.platform_ids
        self.views = [ledger.LedgerView(p, self.platform_ids) for p in self.platform_ids]
        self.view_of = {view.platform: view for view in self.views}
        self.next_seq = {p: 1 for p in self.platform_ids}

    # --- ledger writes ---

    def certificate(self, tx: ledger.Transaction, platforms: Sequence[str]):
        """Commit votes from a local majority of each platform's nodes."""
        votes = []
        for pid in platforms:
            for node in self.topology.nodes_of(pid)[: self.topology.local_majority(pid)]:
                body = b"commit" + tx.digest + node.encode()
                votes.append(
                    ledger.CertVote(
                        tag="commit",
                        sender=node,
                        platform=pid,
                        digest=tx.digest,
                        signed_bytes=body,
                        signature=credentials.sign(self.node_keys[node].secret, body),
                    )
                )
        return tuple(votes)

    def _commit(self, tx: ledger.Transaction, platforms: Sequence[str]) -> bool:
        block = ledger.TransactionBlock(
            tx, tuple((p, self.next_seq[p]) for p in platforms), self.certificate(tx, platforms)
        )
        views = [self.view_of[p] for p in platforms]
        for view in views:
            if not ledger.validate_block(view, block, self.topology, self.node_publics):
                return False
        for view in views:
            view.append_block(block)
        for p in platforms:
            self.next_seq[p] += 1
        return True

    def submit(self, task_id: str, platform: str) -> Tuple[ledger.Transaction, bool]:
        tx = ledger.Transaction(
            kind=ledger.TxKind.SUBMISSION,
            task_id=task_id,
            payload=f"task:{task_id}".encode(),
            involved_platforms=(platform,),
            required_contributions=1,
        )
        return tx, self._commit(tx, (platform,))

    def commit_verification(self, tx: ledger.Transaction) -> bool:
        return self._commit(tx, self.platform_ids)

    # --- token interaction ---

    def spend(self, slot: Slot, task_id: str, sub: ledger.Transaction, stolen=None, refuse=None):
        process = tokens.ProcessContext(slot.worker, slot.platform, slot.requester, task_id, sub.digest)
        regs = regulation.applicable(self.regs, process.tuple_())
        bundle = tokens.spend(
            process,
            regs,
            self.wallets,
            self.view_of[slot.platform],
            self.creds,
            self.keys[slot.platform],
            self.contrib,
            refuse=refuse,
            stolen=stolen,
        )
        return process, bundle

    def check(self, tx: ledger.Transaction) -> tokens.Verdict:
        return tokens.check(tx, self.views, self.check_keys)

    def scan(self, participant: str) -> List[tokens.AlertReport]:
        wallet = self.wallets[participant]
        return tokens.scan_and_alert(participant, wallet, self.views) + tokens.scan_platform_failure(
            participant, wallet, self.views, self.publics
        )

    def adjudicate(self, alert: tokens.AlertReport) -> tokens.AdjudicationVerdict:
        return tokens.adjudicate(
            self.ra, alert, self.views, self.registry, self.ra_ledger, self.publics
        )

    def wallet_state(self, owners: Sequence[str]):
        """Snapshot of the owners' token records, restorable after a failed spend."""
        records = [
            (rec, rec.spent, rec.task_digest)
            for owner in owners
            for pool in (self.wallets[owner].etokens, self.wallets[owner].vtokens)
            for recs in pool.values()
            for rec in recs
        ]
        transcripts = {owner: len(self.wallets[owner].transcripts) for owner in owners}
        return records, transcripts

    def restore(self, state) -> None:
        records, transcripts = state
        for rec, spent, task_digest in records:
            rec.spent, rec.task_digest = spent, task_digest
        for owner, length in transcripts.items():
            del self.wallets[owner].transcripts[length:]

    def dump_hashes(self) -> Tuple[str, str]:
        wallets = "\n".join(tokens.dump_wallets(self.wallets)).encode()
        views = "\n".join(line for view in self.views for line in view.dump_lines()).encode()
        return hashlib.sha256(wallets).hexdigest(), hashlib.sha256(views).hexdigest()


def _alert_key(alert: tokens.AlertReport) -> tuple:
    if alert.kind == tokens.AlertKind.RELAY:
        return (alert.reporter, alert.kind.value, alert.nonce.value)
    return (alert.reporter, alert.kind.value, alert.platform, alert.task_digest)


def _refuse_second_entry(requester: str):
    """The requester co-signs the first entry of a spend and refuses the next."""
    first: List[bytes] = []

    def refuse(participant: str, nonce: credentials.Nonce) -> bool:
        if not first:
            first.append(nonce.value)
        return participant == requester and nonce.value != first[0]

    return refuse


class Round:
    """One period: set up a world, run every slot, scan, audit and check."""

    def __init__(self, inputs: Inputs, tracer=None):
        self.inputs = inputs
        self.tracer = tracer
        self.outcomes = Outcomes()
        self.latencies_ms: Dict[int, float] = {}
        self.scans_ms: List[float] = []
        self.audits_s: List[float] = []
        self.verdicts: Counter = Counter()  # of the latest audit
        self.filed: Dict[tuple, tokens.AlertReport] = {}
        # alert key -> (verdict kind, subject) the adjudicator must return
        self.expected: Dict[tuple, Tuple[tokens.VerdictKind, str]] = {}
        self.committed_nonces: Dict[bytes, List[bytes]] = {}  # tx digest -> nonces
        self.last_committed: Optional[Committed] = None
        self.stolen: Set[bytes] = set()  # nonces already stolen, committed by the thief
        self.payload_bytes = 0
        self.latency_s: Optional[float] = None  # CPU time of the slot's process

    def _phase(self, name: str, process: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.process = process

    def run(self) -> RoundResult:
        # Every round starts from the same heap; the collector stays on
        # during the round, since its pauses are part of the program's cost.
        gc.collect()
        self._phase("setup")
        clock = self.clock = SpeedClock()
        t0 = clock.start()
        self.world = World(self.inputs, self.tracer)
        setups_s = [clock.time(t0)]

        every = self.inputs.workload.checkpoint_every
        slots = self.inputs.slots
        participants = self.world.registry.all_ids()
        # Each participant scans once per checkpoint interval, at its own
        # offset, so scans of every ledger size interleave with processes.
        scans_after: Dict[int, List[str]] = {}
        for j, participant in enumerate(participants):
            scans_after.setdefault(j * every // len(participants), []).append(participant)
        interim = (len(slots) - 1) // every
        # Untraced rounds also time throwaway set-ups a third and two thirds
        # of the way through, so set-up samples span the run like the others.
        extra_setups = {interim // 3, 2 * interim // 3} if self.tracer is None else set()
        slots_s = []
        for slot in slots:
            self._phase("process", slot.index)
            self.latency_s = None
            t0 = clock.start()
            self._slot(slot)
            elapsed = process_time() - t0
            scale = clock.scale()
            slots_s.append(elapsed * scale)
            if self.latency_s is not None:
                self.latencies_ms[slot.index] = self.latency_s * scale * 1e3
            for participant in scans_after.get(slot.index % every, ()):
                self._scan(participant)
            if slot.index % every == every - 1 and slot.index + 1 < len(slots):
                # Interim outcomes are not counted: the period-end audit
                # judges every alert and proof again.
                self._audit_timed(Outcomes())
                if (slot.index + 1) // every in extra_setups:
                    t0 = clock.start()
                    World(self.inputs)
                    setups_s.append(clock.time(t0))
        for participant in participants:
            self._scan(participant)
        self._audit_timed(self.outcomes)
        self._check_invariants()
        self._phase("setup")
        wallets_sha, views_sha = self.world.dump_hashes()
        return RoundResult(
            setups_s=setups_s,
            latencies_ms=self.latencies_ms,
            slots_s=slots_s,
            scans_ms=self.scans_ms,
            audits_s=self.audits_s,
            outcomes=self.outcomes,
            alerts_raised=len(self.filed),
            adjudications=self.verdicts,
            payload_bytes=self.payload_bytes,
            wallets_sha256=wallets_sha,
            views_sha256=views_sha,
        )

    def _audit_timed(self, outcomes: Outcomes) -> None:
        self._phase("audit")
        t0 = self.clock.start()
        self.verdicts = self._audit(outcomes)
        self.audits_s.append(self.clock.time(t0))

    # --- process slots ---

    def _slot(self, slot: Slot) -> None:
        try:
            ok, kind = getattr(self, "_" + slot.kind)(slot)
        except Rejected as exc:
            ok, kind = False, str(exc)
        except CrowdregError as exc:
            ok, kind = False, type(exc).__name__
        except Exception as exc:  # a wrong outcome to count, never a crash
            ok, kind = False, f"exception.{type(exc).__name__}"
        self.outcomes.record(ok, f"{slot.kind}.{kind}")

    def _submit(self, task_id: str, platform: str) -> ledger.Transaction:
        sub, ok = self.world.submit(task_id, platform)
        if not ok:
            raise Rejected("submission_invalid")
        return sub

    def _process(self, slot: Slot, stolen=None):
        """The full pipeline for one process; returns (ok, outcome label)."""
        world = self.world
        task_id = f"t{slot.index}"
        t0 = process_time()
        sub = self._submit(task_id, slot.platform)
        process, bundle = world.spend(slot, task_id, sub, stolen=stolen)
        tx = verification_tx(task_id, slot.platform, sub.digest, [bundle])
        verdict = world.check(tx)
        if verdict != tokens.Verdict.VALID:
            return False, f"verdict.{verdict.value}"
        if not world.commit_verification(tx):
            return False, "block_invalid"
        self.latency_s = process_time() - t0
        self.payload_bytes += len(sub.payload) + len(tx.payload)
        self.committed_nonces[tx.digest] = bundle.nonces()
        self.last_committed = Committed(process, bundle)
        return True, "ok"

    def _honest(self, slot: Slot):
        return self._process(slot)

    def _relay_theft(self, slot: Slot):
        """The worker pays with a copy of another worker's unspent token."""
        pattern = regulation.TriplePattern(slot.victim, "*", "*")
        own = regulation.TriplePattern(slot.worker, "*", "*")
        recs = self.world.wallets[slot.victim].etokens[pattern]
        unspent = [r for r in recs if not r.spent and r.nonce.value not in self.stolen]
        rec = copy.deepcopy(max(unspent, key=lambda r: r.nonce.value))
        ok, outcome = self._process(slot, stolen={own: rec})
        if ok:
            self.stolen.add(rec.nonce.value)
            key = (slot.victim, tokens.AlertKind.RELAY.value, rec.nonce.value)
            self.expected[key] = (tokens.VerdictKind.TRUE_POSITIVE, slot.worker)
        return ok, outcome

    def _expect_verdict(self, tx: ledger.Transaction, want: tokens.Verdict):
        got = self.world.check(tx)
        return got == want, f"verdict.{got.value}"

    def _replay(self, slot: Slot):
        """A committed bundle resubmitted verbatim under a new transaction."""
        done = self.last_committed
        tx = verification_tx(
            f"t{slot.index}-replay", done.process.platform, done.process.task_digest, [done.bundle]
        )
        return self._expect_verdict(tx, tokens.Verdict.REPLAYED)

    def _bad_ra_sig(self, slot: Slot):
        done = self.last_committed
        entry = replace(done.bundle.entries[0], ra_sig=slot.junk)
        bundle = replace(done.bundle, entries=(entry,) + done.bundle.entries[1:])
        tx = verification_tx(
            f"t{slot.index}-badra", done.process.platform, done.process.task_digest, [bundle]
        )
        return self._expect_verdict(tx, tokens.Verdict.FORGED)

    def _forge_for_new_task(self, slot: Slot, group_sigs=None):
        """A committed entry re-bound to a fresh submission's task digest."""
        done = self.last_committed
        task_id = f"t{slot.index}"
        sub = self._submit(task_id, slot.platform)
        entry = done.bundle.entries[0]
        entry = replace(entry, task_digest=sub.digest, group_sigs=group_sigs or entry.group_sigs)
        bundle = tokens.SpendBundle(task_id=task_id, entries=(entry,))
        return verification_tx(task_id, slot.platform, sub.digest, [bundle])

    def _task_swap(self, slot: Slot):
        return self._expect_verdict(self._forge_for_new_task(slot), tokens.Verdict.FORGED)

    def _unknown_group(self, slot: Slot):
        """Seed defect (b): an unknown group label makes check raise KeyError."""
        sigs = self.last_committed.bundle.entries[0].group_sigs
        forged = (("auditors", sigs[0][1], sigs[0][2]),) + sigs
        return self._expect_verdict(self._forge_for_new_task(slot, forged), tokens.Verdict.FORGED)

    def _spend_uncommitted(self, slot: Slot):
        """Spend for a process whose verification never reaches the ledger."""
        task_id = f"t{slot.index}"
        sub = self._submit(task_id, slot.platform)
        process, bundle = self.world.spend(slot, task_id, sub)
        for reporter in (slot.worker, slot.requester):
            key = (reporter, tokens.AlertKind.PLATFORM_FAILURE.value, slot.platform, sub.digest)
            self.expected[key] = (tokens.VerdictKind.TRUE_POSITIVE, slot.platform)
        return task_id, sub, bundle

    def _platform_failure(self, slot: Slot):
        self._spend_uncommitted(slot)
        return True, "ok"

    def _payload_mismatch(self, slot: Slot):
        """Seed defect (a): check reads the side-car bundle, not the payload."""
        task_id, sub, bundle = self._spend_uncommitted(slot)
        tx = verification_tx(task_id, slot.platform, sub.digest, [bundle], payload=slot.junk)
        return self._expect_verdict(tx, tokens.Verdict.FORGED)

    def _refusal(self, slot: Slot):
        """Seed defect (c): a refused spend must leave every wallet unchanged."""
        world = self.world
        task_id = f"t{slot.index}"
        sub = self._submit(task_id, slot.platform)
        owners = (slot.worker, slot.platform, slot.requester)
        before = world.wallet_state(owners)
        dumps = [world.wallets[o].dump_lines() for o in owners]
        try:
            world.spend(slot, task_id, sub, refuse=_refuse_second_entry(slot.requester))
        except SignatureRefusedError:
            pass
        else:
            return False, "not_refused"
        changed = dumps != [world.wallets[o].dump_lines() for o in owners] or any(
            len(world.wallets[o].transcripts) != n for o, n in before[1].items()
        )
        # Undo the partial spend so the defect is counted once, not again by
        # every later check that trips over the diverged copies.
        world.restore(before)
        return not changed, "wallet_changed" if changed else "ok"

    # --- audits ---

    def _scan(self, participant: str) -> None:
        self._phase("scan")
        t0 = self.clock.start()
        alerts = self.world.scan(participant)
        self.scans_ms.append(self.clock.time(t0) * 1e3)
        for alert in alerts:
            # A platform does not report its own failure.
            if alert.platform != participant:
                self.filed.setdefault(_alert_key(alert), alert)

    def _audit(self, outcomes: Outcomes) -> Counter:
        """Prove and verify every verifiable regulation and adjudicate every
        alert filed so far. Before the period end a prover may still lack
        evidence; only the period-end audit's outcomes are counted."""
        world = self.world
        for reg in world.regs:
            if reg.kind != regulation.RegulationKind.VERIFIABLE:
                continue
            prover = reg.pattern.targets()[0][1]
            try:
                proof = tokens.prove(prover, reg, world.wallets[prover], world.views)
                ok = tokens.verify_proof(proof, world.views, world.ra.sign.public)
                kind = "proof.rejected"
            except CrowdregError as exc:
                ok, kind = False, f"proof.{type(exc).__name__}"
            except Exception as exc:
                ok, kind = False, f"proof.exception.{type(exc).__name__}"
            outcomes.record(ok, kind)

        cases = []
        for key in sorted(set(self.filed) | set(self.expected), key=repr):
            alert = self.filed.get(key)
            if alert is None:
                outcomes.record(False, f"alert.missing.{key[1]}")
                continue
            want = self.expected.get(key)
            if want is None:
                outcomes.record(False, f"alert.unexpected.{key[1]}")
            cases.append((alert, want))

        verdicts = Counter()
        for alert, want in cases:
            label = f"adjudicate.{alert.kind.value}"
            try:
                verdict = world.adjudicate(alert)
            except CrowdregError as exc:
                outcomes.record(False, f"{label}.{type(exc).__name__}")
                continue
            except Exception as exc:
                outcomes.record(False, f"{label}.exception.{type(exc).__name__}")
                continue
            verdicts[verdict.kind.value] += 1
            if want is not None:
                outcomes.record(
                    (verdict.kind, verdict.subject) == want, f"{label}.{verdict.kind.value}"
                )
        return verdicts

    def _check_invariants(self) -> None:
        world = self.world
        record = self.outcomes.record
        record(not checks.accounting(world.wallets, world.ra_ledger), "invariant.issued_spent_unspent")
        record(not checks.copies_disagree(world.wallets), "invariant.copies_agree")
        record(
            not checks.committed_twice(world.views, self.committed_nonces),
            "invariant.committed_once",
        )
        try:
            ledger.union_dag(world.views)
            acyclic = True
        except CycleDetectedError:
            acyclic = False
        record(acyclic, "invariant.union_acyclic")
