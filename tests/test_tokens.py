"""Token engine: generation, spending, checking, alerts, proofs, indexes."""

import copy
import gc
import sqlite3
from collections import Counter
from collections.abc import Mapping
from contextlib import closing, contextmanager
from dataclasses import replace
from itertools import chain
from types import MappingProxyType

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from crowdreg import credentials, ledger, tokens
from crowdreg.credentials import (
    Nonce,
    Suite,
    digest,
    group_sign,
    ra_keygen,
    verify,
)
from crowdreg.deployment import Deployment
from crowdreg.encoding import enc_bytes, enc_seq, enc_str
from crowdreg.errors import (
    BudgetExhaustedError,
    ConfigError,
    CrowdregError,
    InsufficientEvidenceError,
    MalformedEvidenceError,
    NotManagerError,
    OpeningInvalidError,
    SignatureRefusedError,
    UnknownParticipantError,
)
from crowdreg.ledger import LedgerView, TxKind
from crowdreg.regulation import (
    U_TABLE,
    BudgetPlan,
    ParticipantRegistry,
    ROLES,
    RegulationKind,
    TriplePattern,
    to_sql,
)
from crowdreg.tokens import (
    VTOKEN_TUPLE_CAP,
    AlertKind,
    AlertReport,
    ETokenRecord,
    IssueRecord,
    Proof,
    ProofComponent,
    SpendBundle,
    VerdictKind,
    Verdict,
    VerificationPayload,
    dump_wallets,
    generate,
    prove,
    scan,
    scan_and_alert,
    scan_platform_failure,
    token_pub_msg,
    verification_tx,
    verify_proof,
    vpriv_msg,
)
from pipebench import checks
from pipebench.pipeline import World
from pipebench.workloads import WORKLOADS, make_inputs
from tests.payload_reference import reference_bytes


def deploy(regulations, workers=("w1", "w2"), platforms=("p1",), requesters=("r1",), suite=Suite.ED25519):
    return Deployment(workers, platforms, requesters, regulations, suite, b"test-seed")


def broken(regs, rows):
    """The regulations whose `to_sql` query does not hold over a table `u`
    of the process tuples `rows`."""
    with closing(sqlite3.connect(":memory:")) as db:
        db.execute(U_TABLE)
        db.executemany("INSERT INTO u VALUES (?, ?, ?)", rows)
        return [reg for reg in regs if db.execute(*to_sql(reg)).fetchall() != [(1,)]]


def pools_of(wallets, bundle):
    """Per entry, the pool its nonce was issued to: "e" or "v"."""
    pools = {}
    for wallet in wallets.values():
        for kind, pool in (("e", wallet.etokens), ("v", wallet.vtokens)):
            pools.update((r.nonce.value, kind) for recs in pool.values() for r in recs)
    return [pools[e.nonce.value] for e in bundle.entries]


def refuse_second_entry():
    """A refusal hook: the requester co-signs the first entry and refuses the next."""
    signed = []

    def refuse(participant, nonce):
        if nonce.value not in signed:
            signed.append(nonce.value)
        return participant == "r1" and len(signed) == 2

    return refuse


def one_entry_payload(entry):
    """The bytes of a payload of task "t" whose one bundle holds only `entry`."""
    return VerificationPayload("t", (SpendBundle("t", (entry,)),)).serialize()


def around_entry(fields):
    """What `one_entry_payload` encodes around an entry's `fields`: the task
    ids and the counts."""
    return enc_str("t") + enc_seq([enc_str("t") + enc_seq([fields])])


def issued_per_record(plan, registry, ra, seed, declared_tuples=None):
    """The issuance that `generate` batches per pool, done nonce by nonce and
    copy by copy, each role's binding signed once per nonce over its own
    `vpriv_msg` and given to every holder.

    Returns, per owner, its pools ({key: [(nonce, ra_sig, bindings or None)]})
    and the nonce values in the order it received them, and the RA's issue
    records by nonce value.
    """
    nonces = credentials.NonceFactory(seed)
    pools = {pid: {} for pid in registry.all_ids()}
    received = {pid: [] for pid in registry.all_ids()}
    issued = {}
    for pattern, count in plan.etokens:
        holders = tuple(ident for _, ident in pattern.targets())
        for _ in range(count):
            nonce = nonces.next()
            ra_sig = credentials.sign(ra.sign.secret, token_pub_msg(nonce))
            issued[nonce.value] = IssueRecord(holders)
            for holder in holders:
                pools[holder].setdefault(pattern, []).append((nonce, ra_sig, None))
                received[holder].append(nonce.value)
    for tup in registry.tuples() if declared_tuples is None else declared_tuples:
        for _ in range(plan.theta_min):
            nonce = nonces.next()
            ra_sig = credentials.sign(ra.sign.secret, token_pub_msg(nonce))
            issued[nonce.value] = IssueRecord(tup)
            bindings = tuple(
                credentials.sign(ra.sign.secret, vpriv_msg(nonce, role, element)) for role, element in zip(ROLES, tup)
            )
            for owner in tup:
                pools[owner].setdefault(tup, []).append((nonce, ra_sig, bindings))
                received[owner].append(nonce.value)
    return pools, received, issued


def issued_fields(rec):
    """A wallet record as `issued_per_record` lists it."""
    bindings = None if isinstance(rec, ETokenRecord) else tuple(rec.binding(role) for role in ROLES)
    return (rec.nonce, rec.ra_sig, bindings)


# A pattern held by two targets, two forall patterns (one overlapping the
# first pattern) and a one-target pattern: theta_min 2.
ISSUE_REGS = ["((w1, p1, *), <, 3)", "((forall, *, *), <, 4)", "((forall, forall, *), <, 5)", "((*, *, r1), <, 5)"]


class TestGenerate:
    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize(
        "declared", [None, [("w2", "p2", "r1"), ("w1", "p1", "r1"), ("w2", "p2", "r1")]], ids=["all", "declared"]
    )
    def test_batched_issuance_equals_per_record_issuance(self, suite, declared, monkeypatch):
        w = deploy(ISSUE_REGS, platforms=("p1", "p2"), suite=suite)
        assert w.plan.theta_min == 2 and ((TriplePattern("w1", "p1", "*"), 2) in w.plan.etokens)
        signs = []
        real_sign = tokens.sign

        def counted_sign(secret, message):
            signs.append(message)
            return real_sign(secret, message)

        monkeypatch.setattr(tokens, "sign", counted_sign)
        wallets, ra_ledger = generate(w.plan, w.registry, w.ra, digest(b"gen-seed"), declared_tuples=declared)
        monkeypatch.undo()
        pools, received, issued = issued_per_record(w.plan, w.registry, w.ra, digest(b"gen-seed"), declared)

        etoken_count = sum(count for _, count in w.plan.etokens)
        vtoken_count = len(ra_ledger.records) - etoken_count
        if declared is None:
            assert vtoken_count == w.plan.vtoken_total
        else:
            assert vtoken_count == len(declared) * w.plan.theta_min
        assert len(signs) == etoken_count + 4 * vtoken_count
        assert list(ra_ledger.records.items()) == list(issued.items())
        for owner, wallet in wallets.items():
            held = list(chain(wallet.etokens.items(), wallet.vtokens.items()))
            assert [(key, list(map(issued_fields, recs))) for key, recs in held] == list(pools[owner].items())
            for key, recs in held:
                assert all(
                    (r.pattern if isinstance(r, ETokenRecord) else r.tuple_) == key
                    and not r.spent and r.task_digest is None
                    for r in recs
                )
            # A tuple declared twice puts the r1 wallet's pools out of receive
            # order, so the index's order is compared with the reference's.
            index, walk = wallet.received_nonces(), walked_received(wallet)
            assert list(index) == list(dict.fromkeys(received[owner]))
            assert index.keys() == walk.keys() and all(index[n] is rec for n, rec in walk.items())
            assert wallet._changed == received[owner]
            lookups = ((wallet.unspent_etoken, wallet.etokens), (wallet.unspent_vtoken, wallet.vtokens))
            for lookup, pools_of_kind in lookups:
                for key, recs in pools_of_kind.items():
                    lowest = walked_unspent(recs, ())
                    for exclude in ((), {lowest.nonce.value}):
                        assert lookup(key, exclude) is walked_unspent(recs, exclude)

    def test_issuance_keeps_no_container_per_record(self):
        """With the collector off, `generate` leaves at most one tracked
        object per record, one per nonce (its `Nonce`), four per pool (the
        RA's one `IssueRecord` per pool among them) and ten per wallet: a
        tuple or other container kept per record, per binding or per issue
        record exceeds it."""
        w = deploy(["((forall, *, *), <, 41)", "((w1, p1, *), <, 41)"], platforms=("p1", "p2"), suite=Suite.HASH)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            wallets, ra_ledger = generate(w.plan, w.registry, w.ra, digest(b"gen-seed"))
            tracked = gc.get_count()[0] - before
        finally:
            gc.enable()
        pools = [
            recs for wallet in wallets.values() for recs in chain(wallet.etokens.values(), wallet.vtokens.values())
        ]
        records = sum(map(len, pools))
        assert (records, len(ra_ledger.records), len(pools)) == (4 * 40 + 12 * 40, 3 * 40 + 4 * 40, 16)
        assert tracked <= records + len(ra_ledger.records) + 4 * len(pools) + 10 * len(wallets)

    def test_each_target_holds_every_copy(self):
        w = deploy(["((w1, p1, r1), <, 26)"])
        pattern = TriplePattern("w1", "p1", "r1")
        for holder in ("w1", "p1", "r1"):
            recs = w.wallets[holder].etokens[pattern]
            assert len(recs) == 25
        nonces = {r.nonce.value for r in w.wallets["w1"].etokens[pattern]}
        assert nonces == {r.nonce.value for r in w.wallets["p1"].etokens[pattern]}

    def test_zero_count_pattern_gets_empty_wallets(self):
        w = deploy(["((w1, p1, r1), <, 1)"])
        assert w.wallets["w1"].etokens.get(TriplePattern("w1", "p1", "r1"), []) == []

    def test_vtoken_counts_follow_theta_min_formula(self):
        w = deploy(["((w, p1, r1), <, 3)"], workers=("w",))
        assert w.plan.theta_min == 2
        tup = ("w", "p1", "r1")
        for owner in tup:
            assert len(w.wallets[owner].vtokens[tup]) == 2
        v_nonces = {
            rec.nonce.value
            for wallet in w.wallets.values()
            for recs in wallet.vtokens.values()
            for rec in recs
        }
        assert len(v_nonces) == 2 * 1 * 1 * 1 == w.plan.vtoken_total
        assert all(w.ra_ledger.get(n).holders == tup for n in v_nonces)

    @pytest.mark.parametrize("suite", list(Suite))
    def test_bindings_verify_under_vpriv_msg(self, suite):
        """Every holder's copy of a v-token carries the same three bindings."""
        w = deploy(["((forall, *, *), <, 3)"], platforms=("p1", "p2"), suite=suite)
        bindings, privs = 0, {}
        for owner, wallet in w.wallets.items():
            for tup, recs in wallet.vtokens.items():
                for rec in recs:
                    privs.setdefault(rec.nonce.value, []).append(rec.priv)
                    assert rec.priv == b"".join(rec.binding(role) for role in ROLES)
                    for role, element in zip(ROLES, tup):
                        msg = vpriv_msg(rec.nonce, role, element)
                        assert verify(w.ra.sign.public, msg, rec.binding(role))
                        bindings += 1
        # 4 tuples, theta_min 2, 3 owners per nonce, 3 roles per owner
        assert bindings == 4 * 2 * 3 * 3
        assert len(privs) == 4 * 2 and all(len(p) == 3 and len(set(p)) == 1 for p in privs.values())

    def test_each_signing_key_is_parsed_once(self, monkeypatch):
        w = deploy(["((w1, *, *), <, 3)", "((forall, *, *), <, 3)"])
        credentials._signer.cache_clear()
        signers, parses = set(), []
        real_sign, real_parse = credentials.sign, Ed25519PrivateKey.from_private_bytes

        def counted_sign(secret, message):
            signers.add(secret)
            return real_sign(secret, message)

        def counted_parse(data):
            parses.append(data)
            return real_parse(data)

        monkeypatch.setattr(credentials, "sign", counted_sign)
        monkeypatch.setattr(tokens, "sign", counted_sign)
        monkeypatch.setattr(ledger, "sign", counted_sign)
        monkeypatch.setattr(Ed25519PrivateKey, "from_private_bytes", counted_parse)
        w.wallets, w.ra_ledger = generate(w.plan, w.registry, w.ra, digest(b"gen-seed"))
        w.process("w1", "p1", "r1", "t1")
        assert w.plan.theta_min > 0 and len(signers) > 1
        assert len(parses) <= len(signers)

    def test_each_public_key_is_parsed_once(self, monkeypatch):
        w = deploy(["((w1, *, *), <, 5)", "((forall, *, *), <, 5)"], platforms=("p1", "p2"))
        credentials._verifier.cache_clear()
        verified, parses = set(), []
        real_verify, real_parse = credentials.verify, Ed25519PublicKey.from_public_bytes

        def counted_verify(public, message, sig):
            verified.add(public)
            return real_verify(public, message, sig)

        def counted_parse(data):
            parses.append(data)
            return real_parse(data)

        for module in (credentials, tokens, ledger):
            monkeypatch.setattr(module, "verify", counted_verify)
        monkeypatch.setattr(Ed25519PublicKey, "from_public_bytes", counted_parse)
        for i in range(3):
            assert w.process("w1", ("p1", "p2")[i % 2], "r1", f"t{i}")[3] == Verdict.VALID
        assert len(verified) > 1
        assert sorted(parses) == sorted(public[1:] for public in verified)

    def test_all_nonces_unique_across_epoch(self):
        w = deploy(["((forall, *, *), <, 5)"])
        issued = sum(count for _, count in w.plan.etokens) + w.plan.vtoken_total
        assert len(w.ra_ledger.records) == issued == 2 * 4 + 2 * 4
        first = Nonce(next(iter(w.ra_ledger.records)))
        fresh = Nonce(digest(b"fresh"))
        for batch in ([first], [fresh, first], [fresh, fresh]):
            with pytest.raises(ConfigError, match="nonce issued twice"):
                w.ra_ledger.issue(batch, ("w2",))
            assert len(w.ra_ledger.records) == issued and w.ra_ledger.get(fresh.value) is None
        w.ra_ledger.issue([fresh], ("w2",))
        assert w.ra_ledger.get(fresh.value) == IssueRecord(("w2",))

    def test_wallet_dump_shape(self):
        import json

        w = deploy(["((w1, *, *), <, 2)"])
        rows = [json.loads(line) for line in dump_wallets(w.wallets)]
        assert all({"owner", "kind", "nonce_hex", "spent"} <= set(r) for r in rows)

    def test_full_tuple_generation_is_capped(self):
        ra = ra_keygen(digest(b"ra-seed"))
        plan = BudgetPlan(etokens=(), theta_min=0, vtoken_total=0)

        def registry(workers):
            return ParticipantRegistry(tuple(f"w{i}" for i in range(workers)), ("p1",), ("r1",))

        generate(plan, registry(VTOKEN_TUPLE_CAP), ra, digest(b"gen-seed"))
        with pytest.raises(ConfigError):
            generate(plan, registry(VTOKEN_TUPLE_CAP + 1), ra, digest(b"gen-seed"))
        generate(
            plan, registry(VTOKEN_TUPLE_CAP + 1), ra, digest(b"gen-seed"),
            declared_tuples=[("w0", "p1", "r1")],
        )


class TestSpend:
    def test_budget_exhaustion_at_second_spend(self):
        w = deploy(["((w1, *, *), <, 2)"])  # one token
        w.process("w1", "p1", "r1", "t1")
        with pytest.raises(BudgetExhaustedError):
            w.process("w1", "p1", "r1", "t2")

    def test_budgets_end_processes_where_the_queries_end(self):
        """Honest processes cycle over the tuples until one is refused. Each
        `<` query holds over those that went through, and the refused tuple
        would break one: so a budget grants T-1 tokens, not T or T-2."""
        w = deploy(["((forall, *, *), <, 4)", "((*, forall, *), <, 3)"], platforms=("p1", "p2"), suite=Suite.HASH)
        done = []
        with pytest.raises(BudgetExhaustedError):
            for i, tup in enumerate(list(w.registry.tuples()) * 2):
                w.process(*tup, f"t{i}")
                done.append(tup)
        assert broken(w.regs, done) == []
        assert broken(w.regs, done + [tup]) == [next(r for r in w.regs if r.pattern.platform == "p1")]
        assert done == list(w.registry.tuples())

    def test_single_target_platform_initiates_all_cosign(self):
        w = deploy(["((*, p1, *), <, 3)"])
        _, bundle, _, verdict = w.process("w1", "p1", "r1", "t1")
        [entry] = bundle.entries
        assert [(g, s) for g, s, _ in entry.group_sigs] == [
            ("workers", "token_task"), ("platforms", "token_task"), ("requesters", "token_task")
        ]
        assert verdict == Verdict.VALID
        # the platform's wallet paid
        pattern = TriplePattern("*", "p1", "*")
        assert sum(1 for r in w.wallets["p1"].etokens[pattern] if r.spent) == 1

    def test_worker_initiates_when_worker_is_a_target(self):
        w = deploy(["((w1, p1, r1), <, 3)"])
        w.process("w1", "p1", "r1", "t1")
        pattern = TriplePattern("w1", "p1", "r1")
        assert any(r.spent for r in w.wallets["w1"].etokens[pattern])

    def test_lowest_nonce_spent_first(self):
        w = deploy(["((w1, *, *), <, 4)"])
        pattern = TriplePattern("w1", "*", "*")
        lowest = min(r.nonce.value for r in w.wallets["w1"].etokens[pattern])
        _, bundle, _, _ = w.process("w1", "p1", "r1", "t1")
        assert bundle.entries[0].nonce.value == lowest
        received = ETokenRecord(pattern, Nonce(bytes(32)), b"")  # a one-record batch after the pool's first lookup
        w.wallets["w1"].receive([received])
        assert w.wallets["w1"].unspent_etoken(pattern, ()) is received

    def test_refusal_surfaces(self):
        w = deploy(["((w1, *, *), <, 3)"])
        with pytest.raises(SignatureRefusedError):
            w.process("w1", "p1", "r1", "t1", refuse=lambda participant, nonce: participant == "r1")

    def test_refused_second_entry_changes_no_wallet(self):
        w = deploy(["((w1, *, *), <, 3)", "((*, p1, *), <, 3)"])
        before = dump_wallets(w.wallets)
        with pytest.raises(SignatureRefusedError):
            w.process("w1", "p1", "r1", "t1", refuse=refuse_second_entry())
        assert dump_wallets(w.wallets) == before

    def test_exhausted_second_pattern_changes_no_wallet(self):
        w = deploy(["((w1, *, *), <, 3)", "((*, p1, *), <, 1)"])  # no token for p1
        before = dump_wallets(w.wallets)
        with pytest.raises(BudgetExhaustedError):
            w.process("w1", "p1", "r1", "t1")
        assert dump_wallets(w.wallets) == before

    def test_one_transcript_per_spend_for_worker_and_requester(self):
        w = deploy(["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"])
        process, bundle, _, _ = w.process("w1", "p1", "r1", "t1")
        assert pools_of(w.wallets, bundle) == ["e", "v"]
        for pid in ("w1", "r1"):
            [t] = w.wallets[pid].transcripts
            assert t.platform == "p1" and t.task_digest == process.task_digest
            assert t.nonces == tuple(e.nonce for e in bundle.entries)
        assert w.wallets["p1"].transcripts == []

    @pytest.mark.parametrize("suite", list(Suite))
    def test_entry_carries_only_what_its_signatures_cover(self, suite):
        w = deploy(["((w1, *, *), <, 3)"], suite=suite)
        _, bundle, tx = w.spend("w1", "p1", "r1", "t1")
        [entry] = bundle.entries
        labelled = enc_seq(
            enc_str(g) + enc_str(s) + enc_bytes(sig.outer) + enc_bytes(sig.opening)
            for g, s, sig in entry.group_sigs
        )
        assert one_entry_payload(entry) == around_entry(
            token_pub_msg(entry.nonce) + enc_bytes(entry.ra_sig) + enc_bytes(entry.task_digest) + labelled
        )
        [transcript] = w.wallets["w1"].transcripts
        assert transcript.request_sig not in tx.payload


class TestCheck:
    def test_fresh_valid_bundle(self):
        w = deploy(["((w1, *, *), <, 3)"])
        _, _, tx = w.spend("w1", "p1", "r1", "tx1")
        assert w.check(tx) == Verdict.VALID

    def test_second_submission_of_same_nonce_is_replayed(self):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, _, _ = w.process("w1", "p1", "r1", "t1")  # committed
        sub2 = w.submit("replay-task", "p1")
        entry = replace(bundle.entries[0], task_digest=sub2.digest)
        replay_tx = verification_tx("replay-task", "p1", sub2.digest, [SpendBundle("replay-task", (entry,))])
        # the group signatures bind the first task's digest
        assert w.check(replay_tx) == Verdict.FORGED
        # same bundle resubmitted verbatim under a new tx is cleanly replayed
        dup_tx = verification_tx("dup", "p1", process.task_digest, [bundle])
        assert w.check(dup_tx) == Verdict.REPLAYED

    @pytest.mark.parametrize("where", ["payload", "bundle"])
    def test_task_id_other_than_the_transactions_is_forged(self, where):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, tx = w.spend("w1", "p1", "r1", "t1")
        assert w.check(tx) == Verdict.VALID
        if where == "payload":
            body = VerificationPayload("some-other-task", (bundle,))
        else:
            body = VerificationPayload(process.task_id, (replace(bundle, task_id="some-other-task"),))
        forged = replace(tx, payload=body.serialize(), bundle=body)
        assert w.check(forged) == Verdict.FORGED

    def test_random_ra_sig_is_forged(self):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, _ = w.spend("w1", "p1", "r1", "tf")
        bad_entry = replace(bundle.entries[0], ra_sig=b"\x99" * 64)
        tx = verification_tx("tf", "p1", process.task_digest, [replace(bundle, entries=(bad_entry,))])
        assert w.check(tx) == Verdict.FORGED

    def test_task_digest_mismatch_is_forged(self):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, _ = w.spend("w1", "p1", "r1", "tm")
        other = w.submit("other", "p1")
        swapped = replace(bundle.entries[0], task_digest=other.digest)
        tx = verification_tx("tm", "p1", process.task_digest, [replace(bundle, entries=(swapped,))])
        assert w.check(tx) == Verdict.FORGED

    def test_payload_other_than_the_bundle_bytes_is_forged(self):
        w = deploy(["((w1, *, *), <, 3)"])
        _, _, tx = w.spend("w1", "p1", "r1", "t1")
        assert w.check(tx) == Verdict.VALID
        forged = replace(tx, payload=b"anything")
        assert w.check(forged) == Verdict.FORGED

    def test_entry_bytes_equal_the_field_encoding(self):
        """Known labels come encoded from a map; any other is encoded as given."""
        w = deploy(["((w1, *, *), <, 3)"], suite=Suite.HASH)
        _, bundle, _ = w.spend("w1", "p1", "r1", "t1")
        [entry] = bundle.entries
        (_, scope, gsig), *rest = entry.group_sigs
        relabelled = [
            entry,
            replace(entry, group_sigs=(("auditors", scope, gsig), *rest)),
            replace(entry, group_sigs=(("workers", "token", gsig), *rest)),
        ]
        for e in relabelled:
            sig_parts = [
                enc_str(g) + enc_str(s) + enc_bytes(sig.outer) + enc_bytes(sig.opening) for g, s, sig in e.group_sigs
            ]
            fields = token_pub_msg(e.nonce) + enc_bytes(e.ra_sig) + enc_bytes(e.task_digest) + enc_seq(sig_parts)
            assert one_entry_payload(e) == around_entry(fields)
        assert len({one_entry_payload(e) for e in relabelled}) == 3

    def test_unknown_group_label_is_forged(self):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, _ = w.spend("w1", "p1", "r1", "t1")
        entry = bundle.entries[0]
        _, scope, gsig = entry.group_sigs[0]
        extra = replace(entry, group_sigs=(("auditors", scope, gsig),) + entry.group_sigs)
        tx = verification_tx(process.task_id, "p1", process.task_digest, [replace(bundle, entries=(extra,))])
        assert w.check(tx) == Verdict.FORGED

    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize(
        "edit",
        ["drop-workers", "drop-platforms", "drop-requesters", "swap-entries", "swap-sigs",
         "extra-token-scope"],
    )
    def test_entry_without_exactly_one_bound_signature_per_group_is_forged(self, suite, edit):
        w = deploy(["((w1, *, *), <, 3)"], suite=suite)
        process, bundle, tx = w.spend("w1", "p1", "r1", "t1")
        assert w.check(tx) == Verdict.VALID
        [entry] = bundle.entries
        sigs = list(entry.group_sigs)
        if edit.startswith("drop-"):
            sigs = [s for s in sigs if s[0] != edit[len("drop-"):]]
        elif edit == "swap-entries":
            sigs[0], sigs[1] = sigs[1], sigs[0]
        elif edit == "swap-sigs":
            (g0, s0, sig0), (g1, s1, sig1) = sigs[:2]
            sigs[:2] = [(g0, s0, sig1), (g1, s1, sig0)]
        else:
            # a valid group signature over the token alone, which no entry may carry
            token_msg = token_pub_msg(entry.nonce) + enc_bytes(entry.ra_sig)
            sigs.append(("workers", "token", group_sign(w.creds["w1"], token_msg)))
        forged = replace(entry, group_sigs=tuple(sigs))
        tx = verification_tx(process.task_id, "p1", process.task_digest, [replace(bundle, entries=(forged,))])
        assert w.check(tx) == Verdict.FORGED

    @pytest.mark.parametrize("where", ["one-bundle", "two-bundles"])
    def test_a_nonce_twice_in_one_payload_is_replayed(self, where):
        w = deploy(["((w1, *, *), <, 3)"])
        process, bundle, tx = w.spend("w1", "p1", "r1", "t1")
        [entry] = bundle.entries
        bundles = [replace(bundle, entries=(entry, entry))] if where == "one-bundle" else [bundle, bundle]
        doubled = verification_tx(process.task_id, "p1", process.task_digest, bundles)
        assert w.check(tx) == Verdict.VALID
        assert w.check(doubled) == Verdict.REPLAYED


class TestAlerts:
    def test_honest_run_produces_no_alerts(self):
        w = deploy(["((w1, *, *), <, 4)"])
        w.process("w1", "p1", "r1", "t1")
        w.process("w1", "p1", "r1", "t2")
        for pid in w.registry.all_ids():
            assert w.scan(pid) == []

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="no entry names its regulation, so a platform's own e-token pays for its worker's, unseen",
    )
    def test_a_platform_paying_for_its_workers_regulation_is_enforced_or_attributed(self):
        """w1's third process on p1 spends one of p1's own e-tokens in place
        of w1's: it must be refused, or a scan must raise an alert that
        names a culprit."""
        w = deploy(["((forall, *, *), <, 3)", "((*, forall, *), <, 10)"], suite=Suite.HASH)
        verdicts = [w.process("w1", "p1", "r1", f"t{i}")[3] for i in range(2)]
        own = max(
            (r for r in w.wallets["p1"].etokens[TriplePattern("*", "p1", "*")] if not r.spent),
            key=lambda r: r.nonce.value,
        )
        try:
            verdicts.append(w.process("w1", "p1", "r1", "t2", stolen={TriplePattern("w1", "*", "*"): copy.deepcopy(own)})[3])
        except BudgetExhaustedError:
            pass
        done = [("w1", "p1", "r1")] * verdicts.count(Verdict.VALID)
        rulings = [w.adjudicate(alert) for pid in w.registry.all_ids() for alert in w.scan(pid)]
        attributed = any(v.kind == VerdictKind.TRUE_POSITIVE and v.subject in ("w1", "p1") for v in rulings)
        assert broken(w.regs, done) == [] or attributed

    @staticmethod
    def steal_and_spend(w):
        """w2 steals one of w1's tokens and spends it on w2's own process."""
        victim_pattern = TriplePattern("w1", "*", "*")
        stolen_rec = copy.deepcopy(w.wallets["w1"].etokens[victim_pattern][0])
        # w2 substitutes the stolen token when asked to pay from its own pool
        stolen = {TriplePattern("w2", "*", "*"): stolen_rec}
        assert w.process("w2", "p1", "r1", "stolen-task", stolen=stolen)[3] == Verdict.VALID
        return stolen_rec

    def test_relay_alert_fires_for_stolen_token(self):
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        stolen_rec = self.steal_and_spend(w)
        alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
        assert [a.kind for a in alerts] == [AlertKind.RELAY]
        assert alerts[0].nonce.value == stolen_rec.nonce.value

    def test_relay_alerts_come_in_nonce_order(self):
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        pool = sorted(w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")], key=lambda r: r.nonce.value)
        for i, rec in enumerate((pool[-1], pool[0])):  # the later theft has the lower nonce
            w.process("w2", "p1", "r1", f"t{i}", stolen={TriplePattern("w2", "*", "*"): copy.deepcopy(rec)})
            alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
            assert len(alerts) == i + 1
        assert [a.nonce.value for a in alerts] == [pool[0].nonce.value, pool[-1].nonce.value]

    def test_adjudicate_names_the_thief(self):
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        self.steal_and_spend(w)
        alert = scan_and_alert("w1", w.wallets["w1"], w.views)[0]
        verdict = w.adjudicate(alert)
        assert verdict.kind == VerdictKind.TRUE_POSITIVE
        assert verdict.subject == "w2"

    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_a_transcript_is_open_iff_a_nonce_is_in_no_view(self, reverse):
        """Of three views, the first commits nonce a, the second nonce b and
        none nonce c: the transcript of (a, b) is closed, those of (c,) and
        (a, c) stay open, in the wallet's order, until a view commits c."""
        a, b, c = (Nonce(bytes([i]) * 16) for i in (1, 2, 3))
        wallet = tokens.Wallet("w1")
        wallet.transcripts = [
            tokens.Transcript("p1", b"task", bytes([i]), nonces, b"sig")
            for i, nonces in enumerate(((c,), (a, b), (a, c)))
        ]
        views = [CommittedIn(a), CommittedIn(b), CommittedIn()]
        order = views[::-1] if reverse else views
        for _ in range(2):
            alerts = scan_platform_failure("w1", wallet, order, {})
            assert [al.transcript for al in alerts] == [wallet.transcripts[0], wallet.transcripts[2]]
        views[2].committed[c.value] = b"digest"
        assert scan_platform_failure("w1", wallet, order, {}) == []

    def test_a_reporter_missing_from_the_registry_gets_a_typed_error(self):
        """w1 holds the stolen token by the issue records, but the registry the
        RA is given does not list w1."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        self.steal_and_spend(w)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        without_w1 = ParticipantRegistry(("w2",), ("p1",), ("r1",))
        for _ in range(2):
            with pytest.raises(UnknownParticipantError):
                tokens.adjudicate(w.ra, alert, w.views, without_w1, w.ra_ledger, w.publics)
        assert w.adjudicate(alert).subject == "w2"

    @pytest.mark.parametrize("eph", [bytes(32), (1).to_bytes(32, "little")], ids=["zero", "one"])
    def test_low_order_opening_key_fails_adjudication_with_a_typed_error(self, eph):
        """The thief's worker signature carries an opening whose X25519
        ephemeral key has low order; `check` does not open it, so it commits.
        The RA keeps no failed ruling, so every adjudication raises."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        stolen_rec = copy.deepcopy(w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")][0])
        process, bundle, _ = w.spend("w2", "p1", "r1", "t1", stolen={TriplePattern("w2", "*", "*"): stolen_rec})
        [entry] = bundle.entries
        (group, scope, gsig), *rest = entry.group_sigs
        bad = replace(gsig, opening=gsig.opening[:1] + eph + gsig.opening[33:])
        forged = replace(entry, group_sigs=((group, scope, bad), *rest))
        tx = verification_tx(process.task_id, "p1", process.task_digest, [replace(bundle, entries=(forged,))])
        assert w.check(tx) == Verdict.VALID
        assert w.commit(tx)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        for _ in range(2):
            with pytest.raises(CrowdregError):
                w.adjudicate(alert)

    def test_an_opening_sealed_with_another_roles_key_is_invalid(self):
        """The thief's worker signature carries an opening that seals r1's
        key and r1's inner signature: it opens, but to no worker, so the RA
        names nobody and keeps no ruling."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        stolen_rec = copy.deepcopy(w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")][0])
        process, bundle, _ = w.spend("w2", "p1", "r1", "t1", stolen={TriplePattern("w2", "*", "*"): stolen_rec})
        [entry] = bundle.entries
        (group, scope, gsig), *rest = entry.group_sigs
        message = tokens.token_task_msg(tokens.token_pub_msg(entry.nonce), entry.ra_sig, entry.task_digest)
        r1 = w.keys["r1"]
        plaintext = enc_bytes(r1.public) + enc_bytes(credentials.sign(r1.secret, message))
        opening = credentials.seal(w.ra.manager.public, plaintext, b"r1's")
        assert credentials.group_open(w.ra, replace(gsig, opening=opening), message) == r1.public
        forged = replace(entry, group_sigs=((group, scope, replace(gsig, opening=opening)), *rest))
        tx = verification_tx(process.task_id, "p1", process.task_digest, [replace(bundle, entries=(forged,))])
        assert w.check(tx) == Verdict.VALID and w.commit(tx)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        for _ in range(2):
            with pytest.raises(OpeningInvalidError, match="no worker holds"):
                w.adjudicate(alert)

    def test_a_ruling_is_kept_only_while_the_named_member_keeps_the_opened_key(self, monkeypatch):
        """With w1's and w2's keys swapped in `public_keys`, the opened key is
        w1's, so the alert is ruled afresh against its reporter; with w2
        given an unknown key the opening names nobody; with the keys restored
        the thief is named again. Each fresh ruling unseals once."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        self.steal_and_spend(w)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        assert w.adjudicate(alert).subject == "w2"
        swapped = {**w.publics, "w1": w.publics["w2"], "w2": w.publics["w1"]}
        unknown = {**w.publics, "w2": w.publics["p1"]}
        calls = count_calls(monkeypatch, ((credentials, "unseal"),))
        verdict = tokens.adjudicate(w.ra, alert, w.views, w.registry, w.ra_ledger, swapped)
        assert (verdict.kind, verdict.subject) == (VerdictKind.FALSE_POSITIVE, "w1")
        with pytest.raises(OpeningInvalidError):
            tokens.adjudicate(w.ra, alert, w.views, w.registry, w.ra_ledger, unknown)
        assert w.adjudicate(alert).subject == "w2"
        assert w.adjudicate(alert).subject == "w2"
        assert calls == {"unseal": 3}

    def test_wrong_task_variant_raises_alert(self):
        w = deploy(["((w1, *, *), <, 4)"])
        _, bundle, _, _ = w.process("w1", "p1", "r1", "t1")
        # tamper with the victim's wallet record to simulate a spend the
        # owner made for a different task than the one committed
        rec = w.wallets["w1"].received_nonces()[bundle.entries[0].nonce.value]
        rec.task_digest = digest(b"some other task")
        alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
        assert [a.kind for a in alerts] == [AlertKind.RELAY]

    def test_self_alert_is_false_positive(self):
        w = deploy(["((w1, *, *), <, 4)"])
        _, bundle, _, _ = w.process("w1", "p1", "r1", "t1")
        spurious = AlertReport(reporter="w1", kind=AlertKind.RELAY, entry=bundle.entries[0])
        verdict = w.adjudicate(spurious)
        assert verdict.kind == VerdictKind.FALSE_POSITIVE
        assert verdict.subject == "w1"

    def test_platform_failure_alert_and_verdicts(self):
        w = deploy(["((w1, *, *), <, 4)"])
        w.spend("w1", "p1", "r1", "lost")  # never committed: the platform "fails"
        alerts = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        assert [a.kind for a in alerts] == [AlertKind.PLATFORM_FAILURE]
        verdict = w.adjudicate(alerts[0])
        assert verdict.kind == VerdictKind.TRUE_POSITIVE
        assert verdict.subject == "p1"

    def test_uncommitted_spend_alerts_once_per_reporter(self):
        w = deploy(["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"])
        w.spend("w1", "p1", "r1", "t1")  # an e- and a v-token the platform never commits
        for pid in ("w1", "r1"):
            alerts = scan_platform_failure(pid, w.wallets[pid], w.views, w.publics)
            assert [a.kind for a in alerts] == [AlertKind.PLATFORM_FAILURE]
            verdict = w.adjudicate(alerts[0])
            assert (verdict.kind, verdict.subject) == (VerdictKind.TRUE_POSITIVE, "p1")
        assert scan_platform_failure("p1", w.wallets["p1"], w.views, w.publics) == []

    @pytest.mark.parametrize(
        "changes",
        [{"platform": "p2"}, {"task_digest": b"\x5a" * 32}, {"platform": "p2", "task_digest": b"\x5a" * 32}],
        ids=["relabelled", "junk-digest", "both"],
    )
    def test_transcript_edited_after_signing_is_malformed(self, changes):
        """Also after the RA verified the genuine transcript's signature."""
        w = deploy(["((w1, *, *), <, 4)"], platforms=("p1", "p2"))
        w.spend("w1", "p1", "r1", "t1")
        [alert] = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        assert w.adjudicate(alert).subject == "p1"
        forged = replace(alert, transcript=replace(alert.transcript, **changes))
        assert forged.platform == changes.get("platform", "p1")
        with pytest.raises(MalformedEvidenceError):
            w.adjudicate(forged)

    def test_transcript_with_swapped_nonce_is_malformed(self):
        """A committed spend's transcript with its nonce swapped for one of the
        reporter's unspent tokens, which the platform never requested, also
        after the RA verified the genuine transcript's signature."""
        w = deploy(["((w1, *, *), <, 4)"])
        w.process("w1", "p1", "r1", "t1")
        [transcript] = w.wallets["w1"].transcripts
        genuine = AlertReport("w1", AlertKind.PLATFORM_FAILURE, transcript=transcript)
        assert w.adjudicate(genuine).kind == VerdictKind.FALSE_POSITIVE
        unspent = w.wallets["w1"].unspent_etoken(TriplePattern("w1", "*", "*"), ())
        swapped = replace(transcript, nonces=(unspent.nonce,))
        alert = AlertReport("w1", AlertKind.PLATFORM_FAILURE, transcript=swapped)
        assert scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics) == []
        with pytest.raises(MalformedEvidenceError):
            w.adjudicate(alert)

    def test_slow_but_correct_platform_is_false_positive(self):
        w = deploy(["((w1, *, *), <, 4)"])
        w.process("w1", "p1", "r1", "t1")  # committed in the end
        [transcript] = w.wallets["w1"].transcripts
        stale = AlertReport(reporter="w1", kind=AlertKind.PLATFORM_FAILURE, transcript=transcript)
        verdict = w.adjudicate(stale)
        assert verdict.kind == VerdictKind.FALSE_POSITIVE

    def test_kept_rulings_hold_only_for_the_keys_and_registry_they_came_from(self):
        """After the RA ruled on a relay and a platform-failure alert, another
        RA cannot open the entry, a registry that lists the reporter as a
        requester opens the requester signature, and another key for the
        platform does not verify its request."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        self.steal_and_spend(w)
        w.spend("w1", "p1", "r1", "lost")
        relay, failure = scan("w1", w.wallets["w1"], w.views)
        assert w.adjudicate(relay).subject == "w2" and w.adjudicate(failure).subject == "p1"
        with pytest.raises(NotManagerError):
            tokens.adjudicate(ra_keygen(b"another RA"), relay, w.views, w.registry, w.ra_ledger, w.publics)
        as_requester = ParticipantRegistry(("w2",), ("p1",), ("r1", "w1"))
        verdict = tokens.adjudicate(w.ra, relay, w.views, as_requester, w.ra_ledger, w.publics)
        assert (verdict.kind, verdict.subject) == (VerdictKind.TRUE_POSITIVE, "r1")
        with pytest.raises(MalformedEvidenceError):
            tokens.adjudicate(w.ra, failure, w.views, w.registry, w.ra_ledger, {"p1": w.publics["w1"]})
        assert w.adjudicate(relay).subject == "w2" and w.adjudicate(failure).subject == "p1"

    def test_fabricated_evidence_rejected(self):
        w = deploy(["((w1, *, *), <, 4)"])
        _, bundle, _, _ = w.process("w1", "p1", "r1", "t1")
        fake = AlertReport(reporter="w2", kind=AlertKind.RELAY, entry=bundle.entries[0])  # never held it
        with pytest.raises(MalformedEvidenceError):
            w.adjudicate(fake)

    @pytest.mark.parametrize(
        "kind, message",
        [
            (AlertKind.RELAY, "must carry the on-ledger entry"),
            (AlertKind.PLATFORM_FAILURE, "must carry a signed request"),
            ("bogus", "no adjudication path for alert kind 'bogus'"),
            (None, "no adjudication path for alert kind None"),
        ],
        ids=["relay", "platform-failure", "unknown-kind", "no-kind"],
    )
    def test_an_alert_without_evidence_or_a_known_kind_is_malformed(self, kind, message):
        w = deploy(["((w1, *, *), <, 4)"])
        with pytest.raises(MalformedEvidenceError, match=message):
            w.adjudicate(AlertReport("w1", kind))

    @pytest.mark.parametrize("forgery", ["nonce", "group-sig"])
    def test_a_committed_entry_the_ra_cannot_attribute_is_malformed(self, forgery):
        """w1's entry, with its nonce replaced by one the RA never issued or
        without the workers' signature, is committed without a check."""
        w = deploy(["((w1, *, *), <, 4)"])
        process, bundle, _ = w.spend("w1", "p1", "r1", "t1")
        [entry] = bundle.entries
        if forgery == "nonce":
            forged, message = replace(entry, nonce=Nonce(b"\x5a" * 16)), "never issued"
        else:
            sigs = tuple(s for s in entry.group_sigs if s[0] != "workers")
            forged, message = replace(entry, group_sigs=sigs), "no signature for the group"
        tx = verification_tx(process.task_id, "p1", process.task_digest, [replace(bundle, entries=(forged,))])
        assert w.commit(tx)
        with pytest.raises(MalformedEvidenceError, match=message):
            w.adjudicate(AlertReport("w1", AlertKind.RELAY, entry=forged))

    def test_a_transcript_of_an_unknown_platform_is_malformed(self):
        w = deploy(["((w1, *, *), <, 4)"])
        w.spend("w1", "p1", "r1", "lost")
        [alert] = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        forged = replace(alert, transcript=replace(alert.transcript, platform="p9"))
        with pytest.raises(MalformedEvidenceError, match="unknown platform p9"):
            w.adjudicate(forged)

    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize(
        "field, value",
        [
            ("entry", "entry"),
            ("entry", 7),
            ("transcript", "transcript"),
            ("transcript", b"transcript"),
            ("request_sig", "sig"),
            ("request_sig", None),
            ("request_sig", 7),
            ("request_sig", ["x"]),
            ("nonces", ["x"]),
            ("nonces", ("x",)),
            ("nonces", (Nonce("x"),)),
            ("platform", ["p1"]),
            ("platform", None),
            ("contribution_id", "x"),
            ("task_digest", "x"),
        ],
        ids=[
            "entry-str", "entry-int", "transcript-str", "transcript-bytes", "sig-str", "sig-none", "sig-int",
            "sig-list", "nonces-list", "nonces-of-str", "nonce-of-str", "platform-list", "platform-none",
            "contribution-str", "task-digest-str",
        ],
    )
    def test_evidence_of_another_type_is_malformed(self, suite, field, value):
        """A relay alert's entry, a platform-failure alert's transcript or
        a field of the transcript of another type."""
        w = deploy(["((w1, *, *), <, 4)"], suite=suite)
        w.spend("w1", "p1", "r1", "lost")
        [alert] = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        if field == "entry":
            forged = AlertReport("w1", AlertKind.RELAY, entry=value)
        elif field == "transcript":
            forged = replace(alert, transcript=value)
        else:
            forged = replace(alert, transcript=replace(alert.transcript, **{field: value}))
        with pytest.raises(MalformedEvidenceError):
            w.adjudicate(forged)


class CommittedIn:
    """A stand-in ledger view that has committed `nonces`."""

    def __init__(self, *nonces):
        self.committed = {n.value: b"digest" for n in nonces}

    def committed_nonces(self):
        return MappingProxyType(self.committed)


class CountedWalks(Mapping):
    """A read-only mapping that counts in `counts[key]` each walk over it."""

    def __init__(self, data, counts, key):
        self._data, self._counts, self._key = data, counts, key

    def __getitem__(self, k):
        return self._data[k]

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        self._counts[self._key] += 1
        return iter(self._data)


@contextmanager
def counting_reads(objs, counts, key):
    """Within the block, count in `counts[key]` each attribute read of any of
    the dataclass instances `objs`."""
    classes, bases = {}, [type(obj) for obj in objs]
    for obj, base in zip(objs, bases):
        if base not in classes:

            def __getattribute__(self, name, _base=base):
                counts[key] += 1
                return _base.__getattribute__(self, name)

            # no slots of its own, so `__class__` assignment keeps the slotted layout
            namespace = {"__slots__": (), "__getattribute__": __getattribute__}
            classes[base] = type(f"Counted{base.__name__}", (base,), namespace)
        object.__setattr__(obj, "__class__", classes[base])  # frozen ones too
    try:
        yield
    finally:
        for obj, base in zip(objs, bases):
            object.__setattr__(obj, "__class__", base)


OPENING_OPS = ((tokens, "group_open"), (tokens, "verify"), (credentials, "unseal"), (credentials, "verify"))
PROOF_OPS = tuple(
    (module, name) for module in (tokens, credentials) for name in ("sign", "verify", "group_sign", "group_verify")
)


def count_calls(monkeypatch, names):
    """A Counter of the calls to each `(module, name)` of `names`, patched
    for the rest of the test."""
    calls = Counter()
    for module, name in names:
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestOpCounts:
    @pytest.mark.parametrize("suite", list(Suite))
    def test_one_etoken_process_signs_and_verifies_once_per_role(self, suite, monkeypatch):
        w = deploy(["((w1, *, *), <, 3)"], suite=suite)
        calls = Counter()
        for name in ("sign", "verify", "group_sign", "group_verify"):
            def counted(*args, _real=getattr(tokens, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(tokens, name, counted)
        _, bundle, tx = w.spend("w1", "p1", "r1", "t1")
        assert pools_of(w.wallets, bundle) == ["e"]
        assert calls == {"sign": 1, "group_sign": 3}
        calls.clear()
        assert w.check(tx) == Verdict.VALID
        assert calls == {"verify": 1, "group_verify": 3}

    @staticmethod
    def scan_counts(k):
        """Per participant, the commit-log entries visited per view and the
        committing entries derived by a first scan, a repeat scan, and a scan
        after one more commit, in an honest two-view world with `k` commits
        before the first scan."""
        counts = Counter()
        real_log, real_entry = LedgerView.commit_log, tokens._committing_entry

        def counted_log(view, start=0):
            new = real_log(view, start)
            counts[view.platform] += len(new)
            return new

        def counted_entry(views, nonce_value):
            counts["derived"] += 1
            return real_entry(views, nonce_value)

        w = deploy(
            ["((forall, *, *), <, 30)", "((*, forall, *), <, 60)", "((w1, *, *), >, 25)"],
            platforms=("p1", "p2"), suite=Suite.HASH,
        )
        for i in range(k):
            w.process(("w1", "w2")[i % 2], ("p1", "p2")[i // 2 % 2], "r1", f"t{i}")

        def scan_all():
            out = {}
            for pid in w.registry.all_ids():
                counts.clear()
                assert w.scan(pid) == []
                out[pid] = dict(counts)
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(LedgerView, "commit_log", counted_log)
            m.setattr(tokens, "_committing_entry", counted_entry)
            first, repeat = scan_all(), scan_all()
            _, bundle, _, _ = w.process("w1", "p1", "r1", "last")
            return first, repeat, scan_all(), bundle, w

    def test_scans_read_only_the_commits_since_the_last_scan(self):
        first, repeat, after, bundle, w = self.scan_counts(2)
        assert pools_of(w.wallets, bundle) == ["e", "e", "v"]
        earlier = [n for n in w.views[0].commit_log() if n not in bundle.nonces()]
        assert len(earlier) == 5  # (w1, p1): 2 e-tokens and a v-token; (w2, p1): 2 e-tokens
        for pid in w.registry.all_ids():
            mine = [n for n in earlier if n in w.wallets[pid].received_nonces()]
            assert first[pid] == {"p1": 5, "p2": 5, **({"derived": len(mine)} if mine else {})}
            assert repeat[pid] == {"p1": 0, "p2": 0}
            held = sum(n in w.wallets[pid].received_nonces() for n in bundle.nonces())
            assert after[pid] == {"p1": 3, "p2": 3, **({"derived": held} if held else {})}
        assert sum(a.get("derived", 0) for a in after.values()) == 5  # w1 2, p1 2, r1 1
        assert self.scan_counts(20)[1:3] == (repeat, after)

    def test_a_relay_scan_reads_each_distinct_new_slice_once(self, monkeypatch):
        """In three views holding the same commits, a scan checks each new
        commit against the wallet once, not once per view. A theft committed
        to p1 only, then an honest process to every view, make p1's slice
        differ from p2's and p3's, which agree; after the theft's late
        delivery to p2 and p3, only their slices are new. Each distinct
        slice is read, and the alerts are the full rescan's."""
        reads = Counter()

        class CountedLog(list):
            def __iter__(self):
                reads["nonces"] += len(self)
                return super().__iter__()

        real_log = LedgerView.commit_log
        monkeypatch.setattr(LedgerView, "commit_log", lambda view, start=0: CountedLog(real_log(view, start)))
        w = deploy(
            ["((forall, *, *), <, 6)", "((*, forall, *), <, 6)"], platforms=("p1", "p2", "p3"), suite=Suite.HASH
        )

        def scan_all():
            """Per participant, the nonces its relay scan read, and its alerts."""
            out = {}
            for pid, wallet in w.wallets.items():
                reads.clear()
                alerts = scan_and_alert(pid, wallet, w.views)
                assert Counter(alerts) == Counter(rescanned_relay(pid, wallet, w.views))
                out[pid] = (reads["nonces"], [a.nonce for a in alerts])
            return out

        honest = [w.process("w1", "p1", "r1", f"t{i}")[1] for i in range(2)]
        committed = sum(len(bundle.nonces()) for bundle in honest)
        assert committed == 4 and all(len(view.commit_log()) == committed for view in w.views)
        assert scan_all() == {pid: (committed, []) for pid in w.wallets}
        assert scan_all() == {pid: (0, []) for pid in w.wallets}

        pool = w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")]
        stolen = {TriplePattern("w2", "*", "*"): copy.deepcopy(walked_unspent(pool, ()))}
        _, theft, tx = w.spend("w2", "p1", "r1", "theft", stolen=stolen)
        assert w.check(tx) == Verdict.VALID and w.commit(tx, ["p1"])
        _, bundle, _, verdict = w.process("w2", "p2", "r1", "after")
        assert verdict == Verdict.VALID
        alert = [theft.entries[0].nonce]
        assert scan_all() == {
            pid: (len(theft.nonces()) + 2 * len(bundle.nonces()), alert if pid == "w1" else []) for pid in w.wallets
        }
        assert w.commit(tx, ["p2", "p3"])
        assert scan_all() == {pid: (len(theft.nonces()), alert if pid == "w1" else []) for pid in w.wallets}

    @staticmethod
    def history_reads(k):
        """What a proof, repeat pool lookups, and relay scans and
        adjudication read of history, in a two-view world after `k` committed
        processes and one committed relay theft: walks over the prover's
        v-tokens, reads of the spent records of the looked-up pools, and
        reads of any block's `tx.bundle`. Each result is also checked against
        its full walk."""
        reads = Counter(vtokens=0, spent_records=0, bundles=0)
        w = deploy(
            ["((forall, *, *), <, 60)", "((w1, *, *), >, 1)"], platforms=("p1", "p2"), suite=Suite.HASH
        )
        for i in range(k):
            w.process(("w1", "w2")[i % 2], ("p1", "p2")[i // 2 % 2], "r1", f"t{i}")
        w1, p1 = w.wallets["w1"], w.wallets["p1"]
        victim = TriplePattern("w1", "*", "*")
        stolen = copy.deepcopy(walked_unspent(w1.etokens[victim], ()))
        theft = w.process("w2", "p1", "r1", "theft", stolen={TriplePattern("w2", "*", "*"): stolen})
        assert theft[3] == Verdict.VALID

        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        expected = walked_proof("w1", reg, w1, w.views)
        assert isinstance(expected, Proof)
        w1.vtokens = CountedWalks(w1.vtokens, reads, "vtokens")
        assert prove("w1", reg, w1, w.views) == expected

        committed = w.views[0].committed_nonces()
        for lookup, recs, key in (
            (w1.unspent_etoken, w1.etokens[victim], victim),
            (p1.unspent_vtoken, p1.vtokens[("w1", "p1", "r1")], ("w1", "p1", "r1")),
        ):
            first = lookup(key, committed)
            assert first is walked_unspent(recs, committed)
            with counting_reads([rec for rec in recs if rec.spent], reads, "spent_records"):
                assert lookup(key, committed) is first

        txs = {b.tx.digest: b.tx for v in w.views for b in v.blocks.values()}
        with counting_reads([tx.bundle for tx in txs.values() if tx.bundle is not None], reads, "bundles"):
            alerts = [a for pid in w.registry.all_ids() for a in w.scan(pid)]
            assert [(a.reporter, a.kind, a.nonce) for a in alerts] == [("w1", AlertKind.RELAY, stolen.nonce)]
            verdict = w.adjudicate(alerts[0])
        assert (verdict.kind, verdict.subject) == (VerdictKind.TRUE_POSITIVE, "w2")
        return dict(reads)

    def test_audits_spends_and_relay_scans_read_no_history(self):
        assert self.history_reads(4) == self.history_reads(16) == {
            "vtokens": 0,
            "spent_records": 0,
            "bundles": 0,
        }

    @pytest.mark.parametrize("suite", list(Suite))
    def test_a_fresh_relay_ruling_unseals_and_verifies_once(self, suite, monkeypatch):
        """The opening holds the signer's key, so the one `verify` is the
        inner signature's; membership is a lookup in `public_keys`."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"], suite=suite)
        TestAlerts.steal_and_spend(w)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        calls = count_calls(monkeypatch, OPENING_OPS)
        assert w.adjudicate(alert).subject == "w2"
        assert calls == {"group_open": 1, "unseal": 1, "verify": 1}

    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize("pattern", ["(w1, *, *)", "(w1, p1, *)", "(w1, p1, r1)"])
    def test_a_proof_verifies_once_per_disclosed_binding(self, suite, pattern, monkeypatch):
        w = deploy(["((forall, *, *), <, 9)", f"({pattern}, >, 2)"], suite=suite)
        for i in range(3):
            w.process("w1", "p1", "r1", f"t{i}")
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        calls = count_calls(monkeypatch, PROOF_OPS)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert calls == {}
        assert verify_proof(proof, w.views, w.ra.sign.public)
        assert len(proof.components) == 3
        assert calls == {"verify": len(proof.components) * len(reg.pattern.targets())}

    def test_group_setup_signs_nothing(self, monkeypatch):
        ra = ra_keygen(b"ra", Suite.HASH)
        members = [credentials.keygen(f"w{i}", bytes([i]) * 32, Suite.HASH) for i in range(3)]
        calls = count_calls(monkeypatch, ((credentials, "sign"),))
        creds = credentials.group_setup(credentials.GroupId.WORKERS, members, ra, b"group", Suite.HASH)
        assert len(creds) == 3 and calls == {}

    def test_the_history_hash_set_up_signs_once_per_nonce_and_role(self, monkeypatch):
        """The seed-1 benchmark set-up issues 1,220 e-token and 7,320 v-token
        nonces: one RA signature per nonce, and three role bindings per
        v-token nonce that its three holders share, 1,220 + 4 × 7,320."""
        calls = count_calls(monkeypatch, ((tokens, "sign"),))
        world = World(make_inputs(WORKLOADS["history-hash"], 1))
        assert len(world.ra_ledger.records) == 1220 + 7320
        assert calls == {"sign": 30500}

    def test_a_repeat_adjudication_opens_and_verifies_nothing(self, monkeypatch):
        """A spend of w1 is never committed, and w2 commits a theft of w1's
        lowest unspent token to p2 only. Ruling again on w1's relay alert and
        on w1's and r1's platform-failure alerts makes no `group_open`,
        `unseal` or `verify`. Once w1 spends the stolen token itself and p1, the earlier
        view, commits it, the relay alert's entry no longer matches, and an
        alert on w1's own entry gets its own ruling."""
        w = deploy(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"], platforms=("p1", "p2"), suite=Suite.HASH)
        w.spend("w1", "p1", "r1", "lost")
        pool = w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")]
        stolen = {TriplePattern("w2", "*", "*"): copy.deepcopy(walked_unspent(pool, ()))}
        _, _, theft = w.spend("w2", "p2", "r1", "theft", stolen=stolen)
        assert w.check(theft) == Verdict.VALID and w.commit(theft, ["p2"])
        alerts = w.scan("w1") + w.scan("r1")
        assert [a.kind for a in alerts] == [AlertKind.RELAY] + [AlertKind.PLATFORM_FAILURE] * 2
        first = [w.adjudicate(a) for a in alerts]
        assert [(v.kind, v.subject) for v in first] == [(VerdictKind.TRUE_POSITIVE, s) for s in ("w2", "p1", "p1")]

        calls = count_calls(monkeypatch, OPENING_OPS)
        assert [w.adjudicate(a) for a in alerts] == first
        assert calls == {}

        _, bundle, own = w.spend("w1", "p1", "r1", "own")
        assert bundle.entries[0].nonce == alerts[0].nonce
        assert w.commit(own, ["p1"])
        for _ in range(2):
            with pytest.raises(MalformedEvidenceError):
                w.adjudicate(alerts[0])
        verdict = w.adjudicate(AlertReport("w1", AlertKind.RELAY, entry=bundle.entries[0]))
        assert (verdict.kind, verdict.subject) == (VerdictKind.FALSE_POSITIVE, "w1")

    def test_a_repeat_platform_failure_ruling_verifies_and_hashes_no_transcript(self, monkeypatch):
        """Ruling again on a platform-failure alert, or on an equal copy of
        its transcript, makes no `verify` and no `Transcript.__hash__` call.
        Another key for the platform verifies again, and a transcript that
        carries the kept signature over other nonces is verified, and
        refused."""
        w = deploy(["((w1, *, *), <, 4)"], suite=Suite.HASH)
        w.spend("w1", "p1", "r1", "lost")
        [alert] = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        first = w.adjudicate(alert)
        assert (first.kind, first.subject) == (VerdictKind.TRUE_POSITIVE, "p1")

        hashes = Counter()
        transcript_hash = tokens.Transcript.__hash__

        def counted_hash(transcript):
            hashes["Transcript.__hash__"] += 1
            return transcript_hash(transcript)

        monkeypatch.setattr(tokens.Transcript, "__hash__", counted_hash)
        calls = count_calls(monkeypatch, ((tokens, "verify"),))
        copied = replace(alert, transcript=replace(alert.transcript))
        assert copied.transcript is not alert.transcript
        assert w.adjudicate(alert) == w.adjudicate(copied) == first
        assert calls == {} and hashes == {}

        with pytest.raises(MalformedEvidenceError, match="does not verify"):
            tokens.adjudicate(w.ra, alert, w.views, w.registry, w.ra_ledger, {**w.publics, "p1": w.publics["w1"]})
        assert calls == {"verify": 1}
        unspent = w.wallets["w1"].unspent_etoken(TriplePattern("w1", "*", "*"), ())
        swapped = replace(alert.transcript, nonces=(unspent.nonce,))
        with pytest.raises(MalformedEvidenceError, match="does not verify"):
            w.adjudicate(replace(alert, transcript=swapped))
        assert calls == {"verify": 2} and hashes == {}
        assert w.adjudicate(alert) == first and calls == {"verify": 2}


class TestProofs:
    def proved_after(self, processes, suite=Suite.ED25519):
        """A deployment after `processes` processes of w1, and w1's verifiable regulation."""
        w = deploy(["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"], suite=suite)
        for i in range(processes):
            w.process("w1", "p1", "r1", f"t{i}")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind == RegulationKind.VERIFIABLE)
        return w, reg

    def test_five_processes_prove_threshold_four(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert len(proof.components) == 5
        assert verify_proof(proof, w.views, w.ra.sign.public)

    def test_four_processes_insufficient(self):
        w, reg = self.proved_after(4)
        with pytest.raises(InsufficientEvidenceError):
            prove("w1", reg, w.wallets["w1"], w.views)

    def test_single_process_proof_of_size_one(self):
        w = deploy(["((forall, *, *), <, 9)", "((w1, p1, r1), >, 0)"])
        w.process("w1", "p1", "r1", "t1")
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert len(proof.components) == 1
        assert verify_proof(proof, w.views, w.ra.sign.public)

    def test_proof_of_a_non_verifiable_regulation_fails(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        # the same pattern and threshold with the upper-bound comparator
        enforceable = replace(reg, kind=RegulationKind.ENFORCEABLE)
        assert not verify_proof(replace(proof, regulation=enforceable), w.views, w.ra.sign.public)
        with pytest.raises(InsufficientEvidenceError, match="verifiable regulations only"):
            prove("w1", enforceable, w.wallets["w1"], w.views)

    def test_proof_with_too_few_components_fails(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert verify_proof(proof, w.views, w.ra.sign.public)
        assert not verify_proof(replace(proof, components=proof.components[:-1]), w.views, w.ra.sign.public)

    def test_proof_checked_against_no_views_fails(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert not verify_proof(proof, [], w.ra.sign.public)
        with pytest.raises(InsufficientEvidenceError, match="no ledger views"):
            prove("w1", reg, w.wallets["w1"], [])

    def test_only_tokens_committed_in_every_view_are_components(self):
        """Of four processes, the first two are committed to p1 only, and
        spend w1's two lowest v-token nonces: the proof takes the other two."""
        w = deploy(["((w1, *, *), <, 9)", "((w1, *, *), >, 1)"], workers=("w1",), platforms=("p1", "p2"))
        for i in range(4):
            _, _, tx = w.spend("w1", "p1", "r1", f"t{i}")
            assert w.check(tx) == Verdict.VALID
            assert w.commit(tx, ["p1"] if i < 2 else None)
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        on_p2 = w.views[1].committed_nonces()
        assert [c.nonce.value in on_p2 for c in proof.components] == [True, True]
        assert verify_proof(proof, w.views, w.ra.sign.public)

    def test_duplicate_nonce_fails_verification(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        doubled = replace(proof, components=proof.components[:-1] + (proof.components[0],))
        assert not verify_proof(doubled, w.views, w.ra.sign.public)

    def test_unspent_nonce_fails_verification(self):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        # forge a component around an issued-but-unspent v-token
        unspent = next(
            rec
            for recs in w.wallets["w1"].vtokens.values()
            for rec in recs
            if not rec.spent
        )
        bindings = tuple(unspent.binding(role) for role, _ in reg.pattern.targets())
        fake = ProofComponent(nonce=unspent.nonce, bindings=bindings)
        tampered = replace(proof, components=proof.components[:-1] + (fake,))
        assert not verify_proof(tampered, w.views, w.ra.sign.public)

    @pytest.mark.parametrize("edit", ["other-prover", "binding-dropped", "binding-added"])
    def test_relabelled_or_rebound_proof_fails(self, edit):
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert verify_proof(proof, w.views, w.ra.sign.public)
        first = proof.components[0]
        assert first.bindings  # (w1, *, *) targets the worker
        spare = w.wallets["w1"].received_nonces()[first.nonce.value].binding("platform")
        if edit == "other-prover":
            tampered = replace(proof, prover="w2")
        else:
            bindings = first.bindings[:-1] if edit == "binding-dropped" else first.bindings + (spare,)
            tampered = replace(proof, components=(replace(first, bindings=bindings),) + proof.components[1:])
        assert not verify_proof(tampered, w.views, w.ra.sign.public)


    def test_a_regulation_naming_no_participant_has_no_proof(self):
        """Its components would carry no binding, so any committed nonces,
        e-tokens' included, would prove it, as r1's proof of three nonces it
        never spent. The pattern names no participant, so no prover can be
        named and nobody proves it."""
        w = deploy(
            ["((forall, *, *), <, 6)", "((*, *, *), >, 2)"], platforms=("p1", "p2", "p3"), suite=Suite.HASH
        )
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        for i in range(3):
            w.process("w1", "p1", "r1", f"t{i}")
            with pytest.raises(InsufficientEvidenceError, match=r"\(\*, \*, \*\) does not name w1"):
                prove("w1", reg, w.wallets["w1"], w.views)
        committed = list(w.views[0].committed_nonces())[:3]
        assert any(isinstance(w.wallets["w1"].received_nonces()[n], ETokenRecord) for n in committed)
        forged = Proof(reg, "r1", tuple(ProofComponent(Nonce(n), ()) for n in committed))
        assert not verify_proof(forged, w.views, w.ra.sign.public)
        assert not walked_verify_proof(forged, w.views, w.ra.sign.public)

    @pytest.mark.parametrize("prover", [None, 1, b"w1", ("w1",)], ids=["none", "int", "bytes", "tuple"])
    def test_a_prover_that_is_not_a_str_fails(self, prover):
        """Before, encoding it raised a bare AttributeError or TypeError."""
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert not verify_proof(replace(proof, prover=prover), w.views, w.ra.sign.public)

    def test_a_proof_discloses_only_the_bindings_of_its_targets(self):
        """(w1, *, *) names the worker only: each component carries its
        nonce's worker binding and nothing of the platform or the requester,
        and neither of those bindings passes in its place."""
        w, reg = self.proved_after(5)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        held = [w.wallets["w1"].received_nonces()[c.nonce.value] for c in proof.components]
        assert [c.bindings for c in proof.components] == [(rec.binding("worker"),) for rec in held]
        comps = proof.components
        for role in ("platform", "requester"):
            for i, rec in enumerate(held):
                swapped = replace(comps[i], bindings=(rec.binding(role),))
                tampered = replace(proof, components=comps[:i] + (swapped,) + comps[i + 1:])
                assert not verify_proof(tampered, w.views, w.ra.sign.public)

    def test_a_holder_the_pattern_does_not_name_cannot_prove(self):
        """p1 holds every v-token w1 spent with it, with the same bindings,
        but (w1, *, *) names only w1: p1 gets no proof, and w1's components
        under p1's name do not verify."""
        w = deploy(["((forall, *, *), <, 9)", "((w1, *, *), >, 2)"])
        for i in range(3):
            w.process("w1", "p1", "r1", f"t{i}")
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        with pytest.raises(InsufficientEvidenceError, match=r"\(w1, \*, \*\) does not name p1"):
            prove("p1", reg, w.wallets["p1"], w.views)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert verify_proof(proof, w.views, w.ra.sign.public)
        assert not verify_proof(replace(proof, prover="p1"), w.views, w.ra.sign.public)
        assert not walked_verify_proof(replace(proof, prover="p1"), w.views, w.ra.sign.public)

    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize(
        "edit",
        [
            "bindings-none", "binding-str", "binding-int", "component-tuple", "nonce-bytes",
            "nonce-value-str", "nonce-value-none", "nonce-value-int",
            "components-none", "components-list", "regulation-none",
            "threshold-str", "threshold-bool", "pattern-str",
        ],
    )
    def test_a_proof_with_a_part_of_another_type_fails(self, suite, edit):
        w, reg = self.proved_after(5, suite)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        first, rest = proof.components[0], proof.components[1:]
        component = {
            "bindings-none": replace(first, bindings=None),
            "binding-str": replace(first, bindings=("sig",)),
            "binding-int": replace(first, bindings=(7,)),
            "component-tuple": (first.nonce, first.bindings),
            "nonce-bytes": replace(first, nonce=first.nonce.value),
            "nonce-value-str": replace(first, nonce=Nonce("x")),
            "nonce-value-none": replace(first, nonce=Nonce(None)),
            "nonce-value-int": replace(first, nonce=Nonce(7)),
        }.get(edit)
        tampered = {
            "components-none": replace(proof, components=None),
            "components-list": replace(proof, components=list(proof.components)),
            "regulation-none": replace(proof, regulation=None),
            "threshold-str": replace(proof, regulation=replace(reg, threshold=str(reg.threshold))),
            "threshold-bool": replace(proof, regulation=replace(reg, threshold=True)),
            "pattern-str": replace(proof, regulation=replace(reg, pattern=reg.pattern.render())),
        }.get(edit) or replace(proof, components=(component,) + rest)
        assert verify_proof(proof, w.views, w.ra.sign.public)
        assert verify_proof(tampered, w.views, w.ra.sign.public) is False

    EDITS = [
        "honest", "prover-swapped", "binding-byte-flipped", "component-duplicated", "component-dropped",
        "uncommitted-nonce", "etoken-nonce", "nonce-on-one-view", "threshold-raised", "kind-flipped",
        "first-view-only", "no-views",
    ]

    @pytest.mark.parametrize("edit", EDITS)
    def test_verify_proof_agrees_with_the_walked_loop(self, edit):
        """A two-target regulation on two views: four processes committed
        to both, one to p1 only. Each edit changes one thing of an honest
        proof or of the views it is checked against; only the honest proof
        and the first view alone verify."""
        w = deploy(
            ["((forall, *, *), <, 9)", "((w1, p1, *), >, 2)"], platforms=("p1", "p2"), suite=Suite.HASH
        )
        for i in range(4):
            _, bundle, _, _ = w.process("w1", "p1", "r1", f"t{i}")
        _, partial, tx = w.spend("w1", "p1", "r1", "partial")
        assert w.commit(tx, ["p1"])
        reg = next(r for r in w.regs if r.kind == RegulationKind.VERIFIABLE)
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        first, comps, views = proof.components[0], proof.components, w.views
        roles = [role for role, _ in reg.pattern.targets()]
        assert len(roles) == 2

        def component(rec):
            return ProofComponent(rec.nonce, tuple(rec.binding(role) for role in roles))

        received = w.wallets["w1"].received_nonces()
        unspent = next(rec for recs in w.wallets["w1"].vtokens.values() for rec in recs if not rec.spent)
        etoken = next(e.nonce for e, pool in zip(bundle.entries, pools_of(w.wallets, bundle)) if pool == "e")
        on_p1 = next(e.nonce for e, pool in zip(partial.entries, pools_of(w.wallets, partial)) if pool == "v")
        flipped = first.bindings[1][:-1] + bytes([first.bindings[1][-1] ^ 1])
        tampered = {
            "honest": proof,
            "prover-swapped": replace(proof, prover="w2"),
            "binding-byte-flipped": replace(
                proof, components=(replace(first, bindings=(first.bindings[0], flipped)),) + comps[1:]
            ),
            "component-duplicated": replace(proof, components=comps[:-1] + (first,)),
            "component-dropped": replace(proof, components=comps[:-1]),
            "uncommitted-nonce": replace(proof, components=(component(unspent),) + comps[1:]),
            "etoken-nonce": replace(proof, components=(replace(first, nonce=etoken),) + comps[1:]),
            "nonce-on-one-view": replace(proof, components=(component(received[on_p1.value]),) + comps[1:]),
            "threshold-raised": replace(proof, regulation=replace(reg, threshold=reg.threshold + 1)),
            "kind-flipped": replace(proof, regulation=replace(reg, kind=RegulationKind.ENFORCEABLE)),
        }.get(edit, proof)
        checked = {"first-view-only": views[:1], "no-views": []}.get(edit, views)
        verified = verify_proof(tampered, checked, w.ra.sign.public)
        assert verified == walked_verify_proof(tampered, checked, w.ra.sign.public)
        assert verified == (edit in ("honest", "first-view-only"))
        if edit == "nonce-on-one-view":
            assert verify_proof(tampered, views[:1], w.ra.sign.public)


# --- indexes kept by the ledger view and the wallet ---


def scanned_committed(view):
    """The full rescan of a view that its committed-nonce index replaces."""
    out = {}
    for d in view.order:
        tx = view.blocks[d].tx
        if tx.kind == TxKind.VERIFICATION and tx.bundle is not None:
            for bundle in tx.bundle.bundles:
                for nonce in bundle.nonces():
                    out.setdefault(nonce, d)
    return out


def walked_entry(view, nonce_value):
    """The walk of the committing transaction that the view's nonce -> entry
    index replaces: its first entry spending the nonce."""
    tx_digest = view.committed_nonces().get(nonce_value)
    if tx_digest is None:
        return None
    bundles = view.blocks[tx_digest].tx.bundle.bundles
    return next(e for b in bundles for e in b.entries if e.nonce.value == nonce_value)


def walked_unspent(recs, exclude):
    """The walk over a whole pool that the wallet's lookup order replaces."""
    return min(
        [r for r in recs if not r.spent and r.nonce.value not in exclude],
        key=lambda r: r.nonce.value,
        default=None,
    )


def walked_proof(participant, reg, wallet, views):
    """The walk over every v-token of the prover that its spent list
    replaces, taking those committed in every view: the proof, or the
    message of the InsufficientEvidenceError."""
    if participant not in [ident for _, ident in reg.pattern.targets()]:
        return f"{reg.pattern.render()} does not name {participant}"
    committed = [view.committed_nonces() for view in views]
    candidates = sorted(
        (
            rec
            for tup, recs in wallet.vtokens.items()
            if reg.pattern.matches(tup)
            for rec in recs
            if rec.spent and all(rec.nonce.value in c for c in committed)
        ),
        key=lambda r: r.nonce.value,
    )
    needed = reg.threshold + 1
    if len(candidates) < needed:
        return f"{len(candidates)} qualifying committed v-tokens, need {needed}"
    roles = [role for role, _ in reg.pattern.targets()]
    components = tuple(
        ProofComponent(rec.nonce, tuple(rec.binding(role) for role in roles)) for rec in candidates[:needed]
    )
    return Proof(reg, participant, components)


def walked_verify_proof(proof, views, ra_sign_public):
    """The per-component loop `verify_proof` replaces: each binding's whole
    `vpriv_msg` encoded from its three fields. Like `verify_proof`, it takes
    only a prover that the pattern names, but it does not check the types
    of the proof's parts."""
    reg = proof.regulation
    if reg.kind != RegulationKind.VERIFIABLE:
        return False
    if len(proof.components) < reg.threshold + 1:
        return False
    nonce_values = [c.nonce.value for c in proof.components]
    if len(set(nonce_values)) != len(nonce_values):
        return False
    targets = reg.pattern.targets()
    if not views or proof.prover not in [ident for _, ident in targets]:
        return False
    per_view = [view.committed_nonces() for view in views]
    for comp in proof.components:
        if len(comp.bindings) != len(targets):
            return False
        for (role, element), sig in zip(targets, comp.bindings):
            if not verify(ra_sign_public, vpriv_msg(comp.nonce, role, element), sig):
                return False
        if any(comp.nonce.value not in nonces for nonces in per_view):
            return False
    return True


def proved(participant, reg, wallet, views):
    """`prove`'s proof, or the message of its InsufficientEvidenceError."""
    try:
        return prove(participant, reg, wallet, views)
    except InsufficientEvidenceError as exc:
        return str(exc)


def walked_received(wallet):
    """The walk over every pool that the wallet's nonce index replaces."""
    out = {}
    for pool in (wallet.etokens, wallet.vtokens):
        for recs in pool.values():
            for rec in recs:
                out[rec.nonce.value] = rec
    return out


def rescanned_relay(participant, wallet, views):
    """The full rescan `scan_and_alert` replaces: every nonce of the wallet
    against every view, the first view committing it deciding."""
    alerts = []
    for nonce_value, rec in wallet.received_nonces().items():
        for view in views:
            entry = walked_entry(view, nonce_value)
            if entry is not None:
                if not rec.spent or rec.task_digest != entry.task_digest:
                    alerts.append(AlertReport(participant, AlertKind.RELAY, entry=entry))
                break
    return alerts


def rescanned_platform_failure(participant, wallet, views):
    """The full rescan `scan_platform_failure` replaces: every transcript the
    wallet kept, against every view."""
    return [
        AlertReport(participant, AlertKind.PLATFORM_FAILURE, transcript=t)
        for t in wallet.transcripts
        if any(all(n.value not in view.committed_nonces() for view in views) for n in t.nonces)
    ]


def theft(w, worker, platform, pick):
    """The `stolen` argument of `worker`'s spend on `platform`: by `pick`, the
    lowest or the highest e-token of the other worker or of the platform, or
    None if that owner holds no such e-token."""
    victim = "w2" if worker == "w1" else "w1"
    owner, pattern = (
        (platform, TriplePattern("*", platform, "*")) if pick % 2 else (victim, TriplePattern(victim, "*", "*"))
    )
    recs = w.wallets[owner].etokens.get(pattern, ())
    rec = (min, max)[pick // 2](recs, key=lambda r: r.nonce.value, default=None)
    return rec and {TriplePattern(worker, "*", "*"): copy.deepcopy(rec)}


def ruling(w, alert, ra_ledger):
    """`adjudicate`'s verdict on `alert` in `w`, or the type of the
    CrowdregError it raised."""
    try:
        return tokens.adjudicate(w.ra, alert, w.views, w.registry, ra_ledger, w.publics)
    except CrowdregError as exc:
        return type(exc)


# The ed25519 set-up has three verifiable regulations to prove; in the hash
# set-up, drawn two times in three, every platform holds e-tokens to steal.
STEALABLE = (["((forall, *, *), <, 6)", "((*, forall, *), <, 6)", "((w1, *, *), >, 1)"], Suite.HASH)
PROVABLE = (
    ["((forall, *, *), <, 4)", "((w1, *, *), >, 1)", "((w1, p1, *), >, 0)", "((*, p2, *), >, 0)"], Suite.ED25519
)
WORKERS = st.sampled_from(["w1", "w2"])
PLATFORM = st.integers(min_value=0, max_value=2)  # an index, taken modulo the views
PICK = st.sampled_from([None, 0, 1, 2, 3])  # None for an honest spend, else a `theft`
SETUP = st.sampled_from([PROVABLE, STEALABLE, STEALABLE])


@settings(max_examples=30, stateful_step_count=20, deadline=None)
class DeploymentMachine(RuleBasedStateMachine):
    """Spends, honest or relay thefts by `theft`, committed to every view, to
    their platform's view only ("partial") or to none ("lost"); honest
    spends until the budget refuses one; late commits of lost spends,
    unchecked replays; replays through `check`, which must check REPLAYED;
    unchecked commits of a payload with a side-car that is not its encoding
    or with none, which every view refuses; refusals, and a checked theft
    of the other worker's lowest e-token on no view, which must check
    VALID. After every step each committed side-car encodes its payload,
    the indexes, proofs and scans equal walks and rescans, every alert
    filed so far gets the same ruling from the kept RA ledger as from a
    fresh one, every kept transcript is ruled as its holder's scan holds
    it, the tokens are accounted for, and the regulations' SQL queries hold
    over the processes. A scan of the views in reverse order is a step of
    its own, so that it covers several steps."""

    @initialize(n_views=st.integers(min_value=2, max_value=3), setup=SETUP)
    def deploy(self, n_views, setup):
        regulations, suite = setup
        self.w = deploy(regulations, platforms=("p1", "p2", "p3")[:n_views], suite=suite)
        self.verifiable = [r for r in self.w.regs if r.kind == RegulationKind.VERIFIABLE]
        self.tasks = 0
        self.done, self.undelivered, self.filed = [], [], {}
        self.honest, self.spent = [], []  # process tuples; (tuple, nonce values) of every spend

    def platform(self, p):
        return self.w.views[p % len(self.w.views)].platform

    def task(self):
        self.tasks += 1
        return f"t{self.tasks}"

    def spend(self, worker, p, pick, delivery):
        """False if there is no token to steal or the budget refuses the spend."""
        platform = self.platform(p)
        stolen = None if pick is None else theft(self.w, worker, platform, pick)
        if pick is not None and stolen is None:
            return False
        try:
            process, bundle, tx = self.w.spend(worker, platform, "r1", self.task(), stolen=stolen)
        except BudgetExhaustedError:
            return False
        self.spent.append((process.tuple_(), [e.nonce.value for e in bundle.entries]))
        if pick is None:
            self.honest.append(process.tuple_())
        if delivery == "lost":
            self.undelivered.append(tx)
        else:
            assert self.w.commit(tx, [platform] if delivery == "partial" else None)
            self.done.append((process, bundle))
        return True

    @rule(worker=WORKERS, p=PLATFORM, pick=PICK)
    def commit(self, worker, p, pick):
        self.spend(worker, p, pick, "commit")

    @rule(worker=WORKERS, p=PLATFORM, pick=PICK)
    def partial(self, worker, p, pick):
        self.spend(worker, p, pick, "partial")

    @rule(worker=WORKERS, p=PLATFORM, pick=PICK)
    def lost(self, worker, p, pick):
        self.spend(worker, p, pick, "lost")

    @rule(worker=WORKERS, p=PLATFORM)
    def exhaust(self, worker, p):
        """Honest spends, each committed, until the budget refuses one."""
        while self.spend(worker, p, None, "commit"):
            pass

    @rule(worker=WORKERS, p=PLATFORM)
    def checked_theft(self, worker, p):
        victim = "w2" if worker == "w1" else "w1"
        on_ledger = {n for view in self.w.views for n in view.committed_nonces()}
        rec = walked_unspent(self.w.wallets[victim].etokens[TriplePattern(victim, "*", "*")], on_ledger)
        if rec is not None:
            stolen = {TriplePattern(worker, "*", "*"): copy.deepcopy(rec)}
            try:
                process, bundle, _, verdict = self.w.process(worker, self.platform(p), "r1", self.task(), stolen=stolen)
            except BudgetExhaustedError:
                return
            assert verdict == Verdict.VALID
            self.spent.append((process.tuple_(), [e.nonce.value for e in bundle.entries]))

    @precondition(lambda self: self.undelivered)
    @rule()
    def late(self):
        assert self.w.commit(self.undelivered.pop(0))

    @precondition(lambda self: self.done)
    @rule()
    def replay(self):
        process, bundle = self.done[-1]
        assert self.w.commit(verification_tx(self.task(), process.platform, process.task_digest, [bundle]))

    @precondition(lambda self: self.done)
    @rule()
    def checked_replay(self):
        """The last done bundle under a new task checks REPLAYED."""
        process, bundle = self.done[-1]
        tx = verification_tx(self.task(), process.platform, process.task_digest, [bundle])
        assert self.w.check(tx) == Verdict.REPLAYED

    @precondition(lambda self: self.done)
    @rule(side_car=st.booleans())
    def forge_payload(self, side_car):
        """The last done bundle under a new task, unchecked, with a payload
        that is not its encoding or with no side-car: every view refuses it."""
        process, bundle = self.done[-1]
        tx = verification_tx(self.task(), process.platform, process.task_digest, [bundle])
        if side_car:
            forged = replace(tx, payload=VerificationPayload(tx.task_id, ()).serialize())
        else:
            forged = replace(tx, bundle=None)
        before = [list(view.order) for view in self.w.views]
        assert self.w.check(forged) == Verdict.FORGED
        assert not self.w.commit(forged)
        assert [view.order for view in self.w.views] == before

    @rule(worker=WORKERS, p=PLATFORM)
    def refuse(self, worker, p):
        try:
            self.w.spend(worker, self.platform(p), "r1", self.task(), refuse=refuse_second_entry())
        except (BudgetExhaustedError, SignatureRefusedError):
            pass

    def scanned(self, views):
        """Every participant's alerts from its scans of `views`, checked against full rescans."""
        alerts = []
        for pid, wallet in self.w.wallets.items():
            relay = scan_and_alert(pid, wallet, views)
            assert Counter(relay) == Counter(rescanned_relay(pid, wallet, views))
            assert [a.nonce.value for a in relay] == sorted(a.nonce.value for a in relay)
            failures = scan_platform_failure(pid, wallet, views, self.w.publics)
            assert failures == rescanned_platform_failure(pid, wallet, views)
            assert scan(pid, wallet, views) == relay + failures
            alerts += relay + failures
        return alerts

    @rule()
    def scan_reversed(self):
        self.scanned(self.w.views[::-1])

    @invariant()
    def view_indexes_match_walks(self):
        for view in self.w.views:
            assert list(view.committed_nonces().items()) == list(scanned_committed(view).items())
            for nonce_value in self.w.ra_ledger.records:
                assert view.committed_entry(nonce_value) is walked_entry(view, nonce_value)

    @invariant()
    def committed_bundles_encode_their_payloads(self):
        for view in self.w.views:
            for block in view.blocks.values():
                if block.tx.kind == TxKind.VERIFICATION:
                    assert reference_bytes(block.tx.bundle) == block.tx.payload

    @invariant()
    def wallet_indexes_match_walks(self):
        excludes = [()] + [view.committed_nonces() for view in self.w.views]
        for wallet in self.w.wallets.values():
            index, walk = wallet.received_nonces(), walked_received(wallet)
            assert list(index) == list(walk)
            assert all(index[n] is rec for n, rec in walk.items())
            lookups = ((wallet.unspent_etoken, wallet.etokens), (wallet.unspent_vtoken, wallet.vtokens))
            for lookup, pools in lookups:
                for key, recs in pools.items():
                    for exclude in excludes:
                        assert lookup(key, exclude) is walked_unspent(recs, exclude)

    @invariant()
    def proofs_match_walks(self):
        for reg in self.verifiable:
            for _, prover in reg.pattern.targets():
                wallet = self.w.wallets[prover]
                proof = proved(prover, reg, wallet, self.w.views)
                assert proof == walked_proof(prover, reg, wallet, self.w.views)
                if not isinstance(proof, str):
                    assert verify_proof(proof, self.w.views, self.w.ra.sign.public)
                    assert walked_verify_proof(proof, self.w.views, self.w.ra.sign.public)

    @invariant()
    def regulations_hold_over_the_processes(self):
        """Every `<` query holds over the honest spends, whatever became of
        them. Every `>` query that `prove` proves holds over the processes,
        thefts included, whose nonces every view commits."""
        assert broken([r for r in self.w.regs if r.kind == RegulationKind.ENFORCEABLE], self.honest) == []
        committed = [view.committed_nonces() for view in self.w.views]
        done = [tup for tup, nonces in self.spent if all(n in c for c in committed for n in nonces)]
        proven = [
            reg for reg in self.verifiable for _, prover in reg.pattern.targets()
            if not isinstance(proved(prover, reg, self.w.wallets[prover], self.w.views), str)
        ]
        assert broken(proven, done) == []

    @invariant()
    def scans_match_rescans_and_kept_rulings_match_fresh(self):
        """An alert stays filed once its nonce no longer raises it."""
        self.filed.update(dict.fromkeys(self.scanned(self.w.views)))
        fresh = tokens.RaLedger()
        for nonce_value, record in self.w.ra_ledger.records.items():
            fresh.issue([Nonce(nonce_value)], record.holders)
        for alert in self.filed:
            assert ruling(self.w, alert, self.w.ra_ledger) == ruling(self.w, alert, fresh)

    @invariant()
    def scanner_and_ra_agree_on_platform_failures(self):
        """Every kept transcript, filed or not, is ruled against its platform
        if its holder's scan holds it open, and against its holder otherwise:
        the scan and the RA apply one rule, a requested nonce in no view."""
        for pid, wallet in self.w.wallets.items():
            held_open = [a.transcript for a in scan_platform_failure(pid, wallet, self.w.views, self.w.publics)]
            for t in wallet.transcripts:
                alert = AlertReport(pid, AlertKind.PLATFORM_FAILURE, transcript=t)
                verdict = ruling(self.w, alert, self.w.ra_ledger)
                if t in held_open:
                    assert (verdict.kind, verdict.subject) == (VerdictKind.TRUE_POSITIVE, t.platform)
                else:
                    assert (verdict.kind, verdict.subject) == (VerdictKind.FALSE_POSITIVE, pid)

    @invariant()
    def tokens_are_accounted_for(self):
        """issued = spent + unspent, and all holders' copies of a token agree."""
        assert checks.accounting(self.w.wallets, self.w.ra_ledger) == []
        assert checks.copies_disagree(self.w.wallets) == []


TestDeploymentMachine = DeploymentMachine.TestCase


def test_a_filed_alert_is_ruled_afresh_once_an_earlier_view_commits_its_nonce():
    """w2's theft of w1's lowest e-token is committed to p2 only, then w1's
    own spend of it to every view, so p1 commits w1's entry first: w1's
    alert on the theft, which named w2, is now malformed evidence."""
    m = DeploymentMachine()
    m.deploy(n_views=2, setup=STEALABLE)
    m.partial(worker="w2", p=1, pick=0)
    m.scans_match_rescans_and_kept_rulings_match_fresh()
    (alert,) = m.filed
    assert (alert.reporter, ruling(m.w, alert, m.w.ra_ledger).subject) == ("w1", "w2")
    m.commit(worker="w1", p=0, pick=None)
    m.scans_match_rescans_and_kept_rulings_match_fresh()
    assert list(m.filed) == [alert] and m.w.scan("w1") == []
    assert ruling(m.w, alert, m.w.ra_ledger) is MalformedEvidenceError
