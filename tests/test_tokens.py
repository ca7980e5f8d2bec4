"""Token engine: generation, spending, checking, alerts, proofs, indexes."""

import copy
from collections import Counter
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings, strategies as st

from crowdreg import credentials, tokens
from crowdreg.credentials import (
    GroupId,
    NonceFactory,
    Suite,
    digest,
    keygen,
    group_setup,
    group_sign,
    ra_keygen,
    verify,
)
from crowdreg.encoding import enc_bytes, enc_seq, enc_str
from crowdreg.errors import (
    BudgetExhaustedError,
    ConfigError,
    CrowdregError,
    InsufficientEvidenceError,
    MalformedEvidenceError,
    SignatureRefusedError,
)
from crowdreg.ledger import LedgerView, Transaction, TransactionBlock, TxKind
from crowdreg.regulation import (
    BudgetPlan,
    ParticipantRegistry,
    ROLES,
    TriplePattern,
    applicable,
    compute_budget,
    expand_all,
    parse_regulation,
)
from crowdreg.tokens import (
    ROLE_GROUP,
    VTOKEN_TUPLE_CAP,
    AlertKind,
    AlertReport,
    CheckKeys,
    IssueRecord,
    ProcessContext,
    ProofComponent,
    VerdictKind,
    Verdict,
    VerificationPayload,
    adjudicate,
    check,
    dump_wallets,
    generate,
    prove,
    scan,
    scan_and_alert,
    scan_platform_failure,
    spend,
    token_pub_msg,
    verify_proof,
    vpriv_msg,
)

class World:
    """Registry, keys, credentials, wallets for a tiny crowdworking setup."""

    def __init__(self, reg_texts, workers=("w1", "w2"), platforms=("p1",), requesters=("r1",),
                 suite=Suite.ED25519):
        self.registry = ParticipantRegistry(workers, platforms, requesters)
        self.ra = ra_keygen(digest(b"ra-seed"), suite)
        self.keys = {
            pid: keygen(pid, digest(b"key:" + pid.encode()), suite)
            for pid in self.registry.all_ids()
        }
        self.publics = {pid: kp.public for pid, kp in self.keys.items()}
        self.creds = {}
        for role, group in ROLE_GROUP.items():
            members = [self.keys[pid] for pid in self.registry.group(role)]
            self.creds.update(
                group_setup(group, members, self.ra, digest(b"grp:" + role.encode()), suite)
            )
        self.group_publics = {
            g.value: next(
                c.group_public for c in self.creds.values() if c.group == g
            )
            for g in GroupId
        }
        self.regs = expand_all([parse_regulation(t) for t in reg_texts], self.registry)
        self.plan = compute_budget(self.regs, self.registry)
        self.wallets, self.ra_ledger = generate(self.plan, self.registry, self.ra, digest(b"gen-seed"))
        self.check_keys = CheckKeys(self.ra.sign.public, self.group_publics)
        self.contrib = NonceFactory(digest(b"contrib"), epoch=0)
        self.views = [LedgerView(p, platforms) for p in platforms]
        self._task_seq = 0
        self._view_seq = {p: 0 for p in platforms}

    def submission(self, task_id, platform="p1"):
        tx = Transaction(
            kind=TxKind.SUBMISSION,
            task_id=task_id,
            payload=f"task:{task_id}".encode(),
            involved_platforms=(platform,),
            required_contributions=1,
        )
        self._append(tx, platform)
        return tx

    def _append(self, tx, platform):
        view = next(v for v in self.views if v.platform == platform)
        self._view_seq[platform] += 1
        view.append_block(
            TransactionBlock(tx, ((platform, self._view_seq[platform]),), ())
        )

    def run_process(self, worker, requester="r1", platform="p1", task_id=None, commit=True,
                    stolen=None, refuse=None):
        """Spend for one process and optionally commit its verification tx."""
        if task_id is None:
            self._task_seq += 1
            task_id = f"t{self._task_seq}"
        sub = self.submission(task_id, platform)
        process = ProcessContext(worker, platform, requester, task_id, sub.digest)
        regs = applicable(self.regs, process.tuple_())
        view = next(v for v in self.views if v.platform == platform)
        bundle = spend(
            process, regs, self.wallets, view, self.creds,
            self.keys[platform], self.contrib, refuse=refuse, stolen=stolen,
        )
        tx = self.verification_tx(task_id, platform, sub, [bundle])
        if commit:
            self.commit(tx)
        return process, sub, bundle, tx

    def verification_tx(self, task_id, platform, sub, bundles):
        payload = VerificationPayload(task_id=task_id, bundles=tuple(bundles))
        return Transaction(
            kind=TxKind.VERIFICATION,
            task_id=task_id,
            payload=payload.serialize(),
            involved_platforms=(platform,),
            parent_submission=sub.digest,
            bundle=payload,
        )

    def commit(self, tx, views=None):
        for view in self.views if views is None else views:
            self._view_seq[view.platform] += 1
            view.append_block(
                TransactionBlock(tx, ((view.platform, self._view_seq[view.platform]),), ())
            )

    def pools_of(self, bundle):
        """Per entry, the pool its nonce was issued to: "e" or "v"."""
        pools = {}
        for wallet in self.wallets.values():
            for kind, pool in (("e", wallet.etokens), ("v", wallet.vtokens)):
                pools.update((r.nonce.value, kind) for recs in pool.values() for r in recs)
        return [pools[e.nonce.value] for e in bundle.entries]

    def wallet_state(self):
        """Every wallet's dump and transcript list."""
        transcripts = {pid: list(wallet.transcripts) for pid, wallet in self.wallets.items()}
        return dump_wallets(self.wallets), transcripts


def refuse_second_entry():
    """A refusal hook: the requester co-signs the first entry and refuses the next."""
    signed = []

    def refuse(participant, nonce):
        if nonce.value not in signed:
            signed.append(nonce.value)
        return participant == "r1" and len(signed) == 2

    return refuse


class TestGenerate:
    def test_each_target_holds_every_copy(self):
        w = World(["((w1, p1, r1), <, 26)"])
        pattern = TriplePattern("w1", "p1", "r1")
        for holder in ("w1", "p1", "r1"):
            recs = w.wallets[holder].etokens[pattern]
            assert len(recs) == 25
        nonces = {r.nonce.value for r in w.wallets["w1"].etokens[pattern]}
        assert nonces == {r.nonce.value for r in w.wallets["p1"].etokens[pattern]}

    def test_zero_count_pattern_gets_empty_wallets(self):
        w = World(["((w1, p1, r1), <, 1)"])
        assert w.wallets["w1"].etokens.get(TriplePattern("w1", "p1", "r1"), []) == []

    def test_vtoken_counts_follow_theta_min_formula(self):
        w = World(["((w, p1, r1), <, 3)"], workers=("w",), platforms=("p1",), requesters=("r1",))
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
        w = World(["((forall, *, *), <, 3)"], platforms=("p1", "p2"), suite=suite)
        bindings = 0
        for owner, wallet in w.wallets.items():
            for tup, recs in wallet.vtokens.items():
                for rec in recs:
                    assert list(rec.priv) == list(ROLES)
                    for role, element in zip(ROLES, tup):
                        msg = vpriv_msg(rec.nonce, owner, role, element)
                        assert verify(w.ra.sign.public, msg, rec.priv[role])
                        bindings += 1
        # 4 tuples, theta_min 2, 3 owners per nonce, 3 roles per owner
        assert bindings == 4 * 2 * 3 * 3

    def test_each_signing_key_is_parsed_once(self, monkeypatch):
        w = World(["((w1, *, *), <, 3)", "((forall, *, *), <, 3)"])
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
        monkeypatch.setattr(Ed25519PrivateKey, "from_private_bytes", counted_parse)
        w.wallets, w.ra_ledger = generate(w.plan, w.registry, w.ra, digest(b"gen-seed"))
        w.run_process("w1")
        assert w.plan.theta_min > 0 and len(signers) > 1
        assert len(parses) <= len(signers)

    def test_all_nonces_unique_across_epoch(self):
        w = World(["((forall, *, *), <, 5)"])
        issued = sum(count for _, count in w.plan.etokens) + w.plan.vtoken_total
        assert len(w.ra_ledger.records) == issued == 2 * 4 + 2 * 4
        first = next(iter(w.ra_ledger.records.values()))
        with pytest.raises(ValueError):
            w.ra_ledger.add(IssueRecord(first.nonce, ("w2",)))

    def test_wallet_dump_shape(self):
        import json

        w = World(["((w1, *, *), <, 2)"])
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
        w = World(["((w1, *, *), <, 2)"])  # one token
        w.run_process("w1")
        with pytest.raises(BudgetExhaustedError):
            w.run_process("w1")

    def test_single_target_platform_initiates_all_cosign(self):
        w = World(["((*, p1, *), <, 3)"])
        process, sub, bundle, tx = w.run_process("w1", commit=False)
        [entry] = bundle.entries
        assert [(g, s) for g, s, _ in entry.group_sigs] == [
            ("workers", "token_task"), ("platforms", "token_task"), ("requesters", "token_task")
        ]
        assert check(tx, w.views, w.check_keys) == Verdict.VALID
        # the platform's wallet paid
        pattern = TriplePattern("*", "p1", "*")
        assert sum(1 for r in w.wallets["p1"].etokens[pattern] if r.spent) == 1

    def test_worker_initiates_when_worker_is_a_target(self):
        w = World(["((w1, p1, r1), <, 3)"])
        w.run_process("w1")
        pattern = TriplePattern("w1", "p1", "r1")
        assert any(r.spent for r in w.wallets["w1"].etokens[pattern])

    def test_lowest_nonce_spent_first(self):
        w = World(["((w1, *, *), <, 4)"])
        pattern = TriplePattern("w1", "*", "*")
        lowest = min(r.nonce.value for r in w.wallets["w1"].etokens[pattern])
        _, _, bundle, _ = w.run_process("w1")
        assert bundle.entries[0].nonce.value == lowest

    def test_refusal_surfaces(self):
        w = World(["((w1, *, *), <, 3)"])
        with pytest.raises(SignatureRefusedError):
            w.run_process("w1", refuse=lambda participant, nonce: participant == "r1")

    def test_refused_second_entry_changes_no_wallet(self):
        w = World(["((w1, *, *), <, 3)", "((*, p1, *), <, 3)"])
        before = w.wallet_state()
        with pytest.raises(SignatureRefusedError):
            w.run_process("w1", refuse=refuse_second_entry())
        assert w.wallet_state() == before

    def test_exhausted_second_pattern_changes_no_wallet(self):
        w = World(["((w1, *, *), <, 3)", "((*, p1, *), <, 1)"])  # no token for p1
        before = w.wallet_state()
        with pytest.raises(BudgetExhaustedError):
            w.run_process("w1")
        assert w.wallet_state() == before

    def test_one_transcript_per_spend_for_worker_and_requester(self):
        w = World(["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"])
        _, sub, bundle, _ = w.run_process("w1")
        assert w.pools_of(bundle) == ["e", "v"]
        for pid in ("w1", "r1"):
            [t] = w.wallets[pid].transcripts
            assert t.platform == "p1" and t.task_digest == sub.digest
            assert t.nonces == tuple(e.nonce for e in bundle.entries)
        assert w.wallets["p1"].transcripts == []

    @pytest.mark.parametrize("suite", list(Suite))
    def test_entry_carries_only_what_its_signatures_cover(self, suite):
        w = World(["((w1, *, *), <, 3)"], suite=suite)
        _, _, bundle, tx = w.run_process("w1", commit=False)
        [entry] = bundle.entries
        labelled = enc_seq(
            enc_str(g) + enc_str(s) + enc_bytes(sig.outer) + enc_bytes(sig.opening)
            for g, s, sig in entry.group_sigs
        )
        assert entry.serialize() == (
            token_pub_msg(entry.nonce) + enc_bytes(entry.ra_sig) + enc_bytes(entry.task_digest) + labelled
        )
        [transcript] = w.wallets["w1"].transcripts
        assert transcript.request_sig not in tx.payload


class TestCheck:
    def test_fresh_valid_bundle(self):
        w = World(["((w1, *, *), <, 3)"])
        sub = w.submission("tx1")
        process = ProcessContext("w1", "p1", "r1", "tx1", sub.digest)
        bundle = spend(
            process, applicable(w.regs, process.tuple_()), w.wallets, w.views[0],
            w.creds, w.keys["p1"], w.contrib,
        )
        tx = w.verification_tx("tx1", "p1", sub, [bundle])
        assert check(tx, w.views, w.check_keys) == Verdict.VALID

    def test_second_submission_of_same_nonce_is_replayed(self):
        w = World(["((w1, *, *), <, 3)"])
        process, sub, bundle, tx = w.run_process("w1")  # committed
        sub2 = w.submission("replay-task")
        replay_tx = Transaction(
            kind=TxKind.VERIFICATION,
            task_id="replay-task",
            payload=b"replayed",
            involved_platforms=("p1",),
            parent_submission=sub2.digest,
            bundle=VerificationPayload(
                "replay-task",
                (type(bundle)(task_id="replay-task", entries=(
                    type(bundle.entries[0])(
                        nonce=bundle.entries[0].nonce,
                        ra_sig=bundle.entries[0].ra_sig,
                        task_digest=sub2.digest,
                        group_sigs=bundle.entries[0].group_sigs,
                    ),
                )),),
            ),
        )
        verdict = check(replay_tx, w.views, w.check_keys)
        assert verdict in (Verdict.REPLAYED, Verdict.FORGED)
        # same bundle resubmitted verbatim under a new tx is cleanly replayed
        dup_tx = w.verification_tx("dup", "p1", sub, [bundle])
        assert check(dup_tx, w.views, w.check_keys) == Verdict.REPLAYED

    def test_random_ra_sig_is_forged(self):
        from dataclasses import replace

        w = World(["((w1, *, *), <, 3)"])
        sub = w.submission("tf")
        process = ProcessContext("w1", "p1", "r1", "tf", sub.digest)
        bundle = spend(
            process, applicable(w.regs, process.tuple_()), w.wallets, w.views[0],
            w.creds, w.keys["p1"], w.contrib,
        )
        bad_entry = replace(bundle.entries[0], ra_sig=b"\x99" * 64)
        bad_bundle = type(bundle)(task_id="tf", entries=(bad_entry,))
        tx = w.verification_tx("tf", "p1", sub, [bad_bundle])
        assert check(tx, w.views, w.check_keys) == Verdict.FORGED

    def test_task_digest_mismatch_is_forged(self):
        from dataclasses import replace

        w = World(["((w1, *, *), <, 3)"])
        sub = w.submission("tm")
        process = ProcessContext("w1", "p1", "r1", "tm", sub.digest)
        bundle = spend(
            process, applicable(w.regs, process.tuple_()), w.wallets, w.views[0],
            w.creds, w.keys["p1"], w.contrib,
        )
        other = w.submission("other")
        swapped = replace(bundle.entries[0], task_digest=other.digest)
        tx = w.verification_tx("tm", "p1", sub, [type(bundle)(task_id="tm", entries=(swapped,))])
        assert check(tx, w.views, w.check_keys) == Verdict.FORGED

    def test_payload_other_than_the_bundle_bytes_is_forged(self):
        w = World(["((w1, *, *), <, 3)"])
        _, _, _, tx = w.run_process("w1", commit=False)
        assert check(tx, w.views, w.check_keys) == Verdict.VALID
        forged = replace(tx, payload=b"anything")
        assert check(forged, w.views, w.check_keys) == Verdict.FORGED

    def test_unknown_group_label_is_forged(self):
        w = World(["((w1, *, *), <, 3)"])
        process, sub, bundle, _ = w.run_process("w1", commit=False)
        entry = bundle.entries[0]
        _, scope, gsig = entry.group_sigs[0]
        extra = replace(entry, group_sigs=(("auditors", scope, gsig),) + entry.group_sigs)
        tx = w.verification_tx(process.task_id, "p1", sub, [replace(bundle, entries=(extra,))])
        assert check(tx, w.views, w.check_keys) == Verdict.FORGED

    @pytest.mark.parametrize("suite", list(Suite))
    @pytest.mark.parametrize(
        "edit",
        ["drop-workers", "drop-platforms", "drop-requesters", "swap-entries", "swap-sigs",
         "extra-token-scope"],
    )
    def test_entry_without_exactly_one_bound_signature_per_group_is_forged(self, suite, edit):
        w = World(["((w1, *, *), <, 3)"], suite=suite)
        process, sub, bundle, tx = w.run_process("w1", commit=False)
        assert check(tx, w.views, w.check_keys) == Verdict.VALID
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
        tx = w.verification_tx(process.task_id, "p1", sub, [replace(bundle, entries=(forged,))])
        assert check(tx, w.views, w.check_keys) == Verdict.FORGED


class TestAlerts:
    def test_honest_run_produces_no_alerts(self):
        w = World(["((w1, *, *), <, 4)"])
        w.run_process("w1")
        w.run_process("w1")
        for pid in w.registry.all_ids():
            assert scan(pid, w.wallets[pid], w.views) == []

    def steal_and_spend(self, w):
        """w2 steals one of w1's tokens and spends it on w2's own process."""
        import copy

        victim_pattern = TriplePattern("w1", "*", "*")
        stolen_rec = copy.deepcopy(w.wallets["w1"].etokens[victim_pattern][0])
        # w2 substitutes the stolen token when asked to pay from its own pool
        process, sub, bundle, tx = w.run_process(
            "w2", stolen={TriplePattern("w2", "*", "*"): stolen_rec}, task_id="stolen-task"
        )
        return stolen_rec, process, tx

    def test_relay_alert_fires_for_stolen_token(self):
        w = World(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        stolen_rec, process, tx = self.steal_and_spend(w)
        alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
        assert [a.kind for a in alerts] == [AlertKind.RELAY]
        assert alerts[0].nonce.value == stolen_rec.nonce.value

    def test_relay_alerts_come_in_nonce_order(self):
        w = World(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        pool = sorted(w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")], key=lambda r: r.nonce.value)
        for i, rec in enumerate((pool[-1], pool[0])):  # the later theft has the lower nonce
            w.run_process("w2", stolen={TriplePattern("w2", "*", "*"): copy.deepcopy(rec)})
            alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
            assert len(alerts) == i + 1
        assert [a.nonce.value for a in alerts] == [pool[0].nonce.value, pool[-1].nonce.value]

    def test_adjudicate_names_the_thief(self):
        w = World(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        self.steal_and_spend(w)
        alert = scan_and_alert("w1", w.wallets["w1"], w.views)[0]
        verdict = adjudicate(
            w.ra, alert, w.views, w.registry, w.ra_ledger, w.publics
        )
        assert verdict.kind == VerdictKind.TRUE_POSITIVE
        assert verdict.subject == "w2"

    @pytest.mark.parametrize("eph", [bytes(32), (1).to_bytes(32, "little")], ids=["zero", "one"])
    def test_low_order_opening_key_fails_adjudication_with_a_typed_error(self, eph):
        """The thief's worker signature carries an opening whose X25519
        ephemeral key has low order; `check` does not open it, so it commits."""
        w = World(["((w1, *, *), <, 4)", "((forall, *, *), <, 9)"])
        stolen_rec = copy.deepcopy(w.wallets["w1"].etokens[TriplePattern("w1", "*", "*")][0])
        process, sub, bundle, _ = w.run_process(
            "w2", stolen={TriplePattern("w2", "*", "*"): stolen_rec}, commit=False
        )
        [entry] = bundle.entries
        (group, scope, gsig), *rest = entry.group_sigs
        bad = replace(gsig, opening=gsig.opening[:1] + eph + gsig.opening[33:])
        forged = replace(entry, group_sigs=((group, scope, bad), *rest))
        tx = w.verification_tx(process.task_id, "p1", sub, [replace(bundle, entries=(forged,))])
        assert check(tx, w.views, w.check_keys) == Verdict.VALID
        w.commit(tx)
        [alert] = scan_and_alert("w1", w.wallets["w1"], w.views)
        with pytest.raises(CrowdregError):
            adjudicate(w.ra, alert, w.views, w.registry, w.ra_ledger, w.publics)

    def test_wrong_task_variant_raises_alert(self):
        w = World(["((w1, *, *), <, 4)"])
        process, sub, bundle, tx = w.run_process("w1")
        # tamper with the victim's wallet record to simulate a spend the
        # owner made for a different task than the one committed
        rec = w.wallets["w1"].received_nonces()[bundle.entries[0].nonce.value]
        rec.task_digest = digest(b"some other task")
        alerts = scan_and_alert("w1", w.wallets["w1"], w.views)
        assert [a.kind for a in alerts] == [AlertKind.RELAY]

    def test_self_alert_is_false_positive(self):
        w = World(["((w1, *, *), <, 4)"])
        process, sub, bundle, tx = w.run_process("w1")
        from crowdreg.tokens import AlertReport

        spurious = AlertReport(reporter="w1", kind=AlertKind.RELAY, entry=bundle.entries[0])
        verdict = adjudicate(w.ra, spurious, w.views, w.registry, w.ra_ledger, w.publics)
        assert verdict.kind == VerdictKind.FALSE_POSITIVE
        assert verdict.subject == "w1"

    def test_platform_failure_alert_and_verdicts(self):
        w = World(["((w1, *, *), <, 4)"])
        sub = w.submission("lost")
        process = ProcessContext("w1", "p1", "r1", "lost", sub.digest)
        spend(
            process, applicable(w.regs, process.tuple_()), w.wallets, w.views[0],
            w.creds, w.keys["p1"], w.contrib,
        )  # never committed: the platform "fails"
        alerts = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        assert [a.kind for a in alerts] == [AlertKind.PLATFORM_FAILURE]
        verdict = adjudicate(w.ra, alerts[0], w.views, w.registry, w.ra_ledger, w.publics)
        assert verdict.kind == VerdictKind.TRUE_POSITIVE
        assert verdict.subject == "p1"

    def test_uncommitted_spend_alerts_once_per_reporter(self):
        w = World(["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"])
        w.run_process("w1", commit=False)  # an e- and a v-token the platform never commits
        for pid in ("w1", "r1"):
            alerts = scan_platform_failure(pid, w.wallets[pid], w.views, w.publics)
            assert [a.kind for a in alerts] == [AlertKind.PLATFORM_FAILURE]
            verdict = adjudicate(w.ra, alerts[0], w.views, w.registry, w.ra_ledger, w.publics)
            assert (verdict.kind, verdict.subject) == (VerdictKind.TRUE_POSITIVE, "p1")
        assert scan_platform_failure("p1", w.wallets["p1"], w.views, w.publics) == []

    @pytest.mark.parametrize(
        "changes",
        [{"platform": "p2"}, {"task_digest": b"\x5a" * 32}, {"platform": "p2", "task_digest": b"\x5a" * 32}],
        ids=["relabelled", "junk-digest", "both"],
    )
    def test_transcript_edited_after_signing_is_malformed(self, changes):
        w = World(["((w1, *, *), <, 4)"], platforms=("p1", "p2"))
        w.run_process("w1", commit=False)
        [alert] = scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics)
        forged = replace(alert, transcript=replace(alert.transcript, **changes))
        assert forged.platform == changes.get("platform", "p1")
        with pytest.raises(MalformedEvidenceError):
            adjudicate(w.ra, forged, w.views, w.registry, w.ra_ledger, w.publics)

    def test_transcript_with_swapped_nonce_is_malformed(self):
        """A committed spend's transcript with its nonce swapped for one of the
        reporter's unspent tokens, which the platform never requested."""
        w = World(["((w1, *, *), <, 4)"])
        w.run_process("w1")
        [transcript] = w.wallets["w1"].transcripts
        unspent = w.wallets["w1"].unspent_etoken(TriplePattern("w1", "*", "*"), ())
        swapped = replace(transcript, nonces=(unspent.nonce,))
        alert = AlertReport("w1", AlertKind.PLATFORM_FAILURE, transcript=swapped)
        assert scan_platform_failure("w1", w.wallets["w1"], w.views, w.publics) == []
        with pytest.raises(MalformedEvidenceError):
            adjudicate(w.ra, alert, w.views, w.registry, w.ra_ledger, w.publics)

    def test_slow_but_correct_platform_is_false_positive(self):
        w = World(["((w1, *, *), <, 4)"])
        process, sub, bundle, tx = w.run_process("w1")  # committed in the end
        from crowdreg.tokens import AlertReport

        [transcript] = w.wallets["w1"].transcripts
        stale = AlertReport(reporter="w1", kind=AlertKind.PLATFORM_FAILURE, transcript=transcript)
        verdict = adjudicate(w.ra, stale, w.views, w.registry, w.ra_ledger, w.publics)
        assert verdict.kind == VerdictKind.FALSE_POSITIVE

    def test_fabricated_evidence_rejected(self):
        w = World(["((w1, *, *), <, 4)"])
        process, sub, bundle, tx = w.run_process("w1")
        from crowdreg.tokens import AlertReport
        from dataclasses import replace

        fake = AlertReport(reporter="w2", kind=AlertKind.RELAY, entry=bundle.entries[0])  # never held it
        with pytest.raises(MalformedEvidenceError):
            adjudicate(w.ra, fake, w.views, w.registry, w.ra_ledger, w.publics)


class TestOpCounts:
    @pytest.mark.parametrize("suite", list(Suite))
    def test_one_etoken_process_signs_and_verifies_once_per_role(self, suite, monkeypatch):
        w = World(["((w1, *, *), <, 3)"], suite=suite)
        calls = Counter()
        for name in ("sign", "verify", "group_sign", "group_verify"):
            def counted(*args, _real=getattr(tokens, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(tokens, name, counted)
        process, sub, bundle, tx = w.run_process("w1", commit=False)
        assert w.pools_of(bundle) == ["e"]
        assert calls == {"sign": 1, "group_sign": 3}
        calls.clear()
        assert check(tx, w.views, w.check_keys) == Verdict.VALID
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

        w = World(
            ["((forall, *, *), <, 30)", "((*, forall, *), <, 60)", "((w1, *, *), >, 25)"],
            platforms=("p1", "p2"), suite=Suite.HASH,
        )
        for i in range(k):
            w.run_process(("w1", "w2")[i % 2], platform=("p1", "p2")[i // 2 % 2])

        def scan_all():
            out = {}
            for pid in w.registry.all_ids():
                counts.clear()
                assert scan(pid, w.wallets[pid], w.views) == []
                out[pid] = dict(counts)
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(LedgerView, "commit_log", counted_log)
            m.setattr(tokens, "_committing_entry", counted_entry)
            first, repeat = scan_all(), scan_all()
            _, _, bundle, _ = w.run_process("w1")
            return first, repeat, scan_all(), bundle, w

    def test_scans_read_only_the_commits_since_the_last_scan(self):
        first, repeat, after, bundle, w = self.scan_counts(2)
        assert w.pools_of(bundle) == ["e", "e", "v"]
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


class TestProofs:
    def make_world(self):
        return World(
            ["((forall, *, *), <, 9)", "((w1, *, *), >, 4)"],
            workers=("w1", "w2"),
        )

    def test_five_processes_prove_threshold_four(self):
        w = self.make_world()
        for _ in range(5):
            w.run_process("w1")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind.value == "verifiable")
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert len(proof.components) == 5
        assert verify_proof(proof, w.views, w.ra.sign.public)

    def test_four_processes_insufficient(self):
        w = self.make_world()
        for _ in range(4):
            w.run_process("w1")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind.value == "verifiable")
        with pytest.raises(InsufficientEvidenceError):
            prove("w1", reg, w.wallets["w1"], w.views)

    def test_single_process_proof_of_size_one(self):
        w = World(["((forall, *, *), <, 9)", "((w1, p1, r1), >, 0)"])
        w.run_process("w1")
        reg = next(r for r in w.regs if r.kind.value == "verifiable")
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert len(proof.components) == 1
        assert verify_proof(proof, w.views, w.ra.sign.public)

    def test_duplicate_nonce_fails_verification(self):
        from dataclasses import replace

        w = self.make_world()
        for _ in range(5):
            w.run_process("w1")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind.value == "verifiable")
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        doubled = replace(proof, components=proof.components[:-1] + (proof.components[0],))
        assert not verify_proof(doubled, w.views, w.ra.sign.public)

    def test_unspent_nonce_fails_verification(self):
        w = self.make_world()
        for _ in range(5):
            w.run_process("w1")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind.value == "verifiable")
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        # forge a component around an issued-but-unspent v-token
        unspent = next(
            rec
            for recs in w.wallets["w1"].vtokens.values()
            for rec in recs
            if not rec.spent
        )
        bindings = tuple(unspent.priv[role] for role, _ in reg.pattern.targets())
        fake = ProofComponent(nonce=unspent.nonce, bindings=bindings)
        tampered = replace(proof, components=proof.components[:-1] + (fake,))
        assert not verify_proof(tampered, w.views, w.ra.sign.public)

    @pytest.mark.parametrize("edit", ["other-prover", "binding-dropped", "binding-added"])
    def test_relabelled_or_rebound_proof_fails(self, edit):
        w = self.make_world()
        for _ in range(5):
            w.run_process("w1")
        reg = next(r for r in w.regs if r.pattern.worker == "w1" and r.kind.value == "verifiable")
        proof = prove("w1", reg, w.wallets["w1"], w.views)
        assert verify_proof(proof, w.views, w.ra.sign.public)
        first = proof.components[0]
        assert first.bindings  # (w1, *, *) targets the worker
        spare = w.wallets["w1"].received_nonces()[first.nonce.value].priv["platform"]
        if edit == "other-prover":
            tampered = replace(proof, prover="w2")
        else:
            bindings = first.bindings[:-1] if edit == "binding-dropped" else first.bindings + (spare,)
            tampered = replace(proof, components=(replace(first, bindings=bindings),) + proof.components[1:])
        assert not verify_proof(tampered, w.views, w.ra.sign.public)


# --- indexes kept by the ledger view and the wallet ---


def scanned_committed(view):
    """The full rescan of a view that its committed-nonce index replaces."""
    out = {}
    for d in view.order:
        tx = view.blocks[d].tx
        if tx.kind == TxKind.VERIFICATION and tx.bundle is not None:
            for nonce in tx.bundle.nonces():
                out.setdefault(nonce, d)
    return out


def walked_received(wallet):
    """The walk over every pool that the wallet's nonce index replaces."""
    out = {}
    for pool in (wallet.etokens, wallet.vtokens):
        for recs in pool.values():
            for rec in recs:
                out[rec.nonce.value] = rec
    return out


STEP = st.tuples(
    st.sampled_from(["commit", "partial", "replay", "refuse", "lost"]),
    st.sampled_from(["w1", "w2"]),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=20, deadline=None)
@given(n_views=st.integers(min_value=2, max_value=3), steps=st.lists(STEP, max_size=10))
def test_indexes_match_full_scans(n_views, steps):
    """Commits to all or some views, replays committed without a check,
    refused and exhausted spends: after every step each view's index equals
    a rescan of the view and each wallet's index equals a walk of its pools."""
    platforms = ("p1", "p2", "p3")[:n_views]
    w = World(["((forall, *, *), <, 4)", "((w1, *, *), >, 1)"], platforms=platforms)
    done = []
    for i, (kind, worker, p) in enumerate(steps):
        platform = platforms[p % n_views]
        try:
            if kind == "replay":
                if done:
                    process, sub, bundle = done[-1]
                    replay = w.verification_tx(f"replay{i}", process.platform, sub, [bundle])
                    w.commit(replay)
            elif kind == "refuse":
                w.run_process(worker, platform=platform, refuse=refuse_second_entry())
            else:
                process, sub, bundle, tx = w.run_process(worker, platform=platform, commit=False)
                if kind != "lost":
                    w.commit(tx, w.views[:1] if kind == "partial" else None)
                    done.append((process, sub, bundle))
        except (BudgetExhaustedError, SignatureRefusedError):
            pass
        for view in w.views:
            assert list(view.committed_nonces().items()) == list(scanned_committed(view).items())
        for wallet in w.wallets.values():
            index, walk = wallet.received_nonces(), walked_received(wallet)
            assert list(index) == list(walk)
            assert all(index[n] is rec for n, rec in walk.items())


def rescanned_relay(participant, wallet, views):
    """The full rescan `scan_and_alert` replaces: every nonce of the wallet
    against every view, the first view committing it deciding."""
    alerts = []
    for nonce_value, rec in wallet.received_nonces().items():
        for view in views:
            tx_digest = view.committed_nonces().get(nonce_value)
            if tx_digest is not None:
                bundles = view.blocks[tx_digest].tx.bundle.bundles
                entry = next(e for b in bundles for e in b.entries if e.nonce.value == nonce_value)
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


SCAN_STEP = st.tuples(
    st.sampled_from(
        ["commit", "partial", "lost", "late", "replay", "refuse", "steal", "steal-partial", "steal-lost"]
    ),
    st.sampled_from(["w1", "w2"]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=100, deadline=None)
@given(n_views=st.integers(min_value=2, max_value=3), steps=st.lists(SCAN_STEP, max_size=14))
def test_incremental_scans_match_full_rescans(n_views, steps):
    """Spends committed to all views, to one or to none, late commits of
    uncommitted spends, replays, refusals, and relay thefts of the lowest or
    the highest token of the other worker or of the platform, spent or not:
    after every
    step each participant's scans of the views equal a full rescan, and so
    do its scans of the views in reverse order, made only every other step
    so that one scan covers several steps."""
    platforms = ("p1", "p2", "p3")[:n_views]
    w = World(
        ["((forall, *, *), <, 6)", "((*, forall, *), <, 6)", "((w1, *, *), >, 1)"],
        platforms=platforms, suite=Suite.HASH,
    )
    done, lost = [], []
    for i, (kind, worker, p, pick) in enumerate(steps):
        platform = platforms[p % n_views]
        try:
            if kind == "replay":
                if done:
                    process, sub, bundle = done[-1]
                    w.commit(w.verification_tx(f"replay{i}", process.platform, sub, [bundle]))
            elif kind == "late":
                if lost:
                    w.commit(lost.pop(0))
            elif kind == "refuse":
                w.run_process(worker, platform=platform, refuse=refuse_second_entry())
            else:
                stolen = None
                if kind.startswith("steal"):
                    victim = "w2" if worker == "w1" else "w1"
                    owner, pattern = (
                        (platform, TriplePattern("*", platform, "*")) if pick % 2
                        else (victim, TriplePattern(victim, "*", "*"))
                    )
                    rec = (min, max)[pick // 2](w.wallets[owner].etokens[pattern], key=lambda r: r.nonce.value)
                    stolen = {TriplePattern(worker, "*", "*"): copy.deepcopy(rec)}
                process, sub, bundle, tx = w.run_process(
                    worker, platform=platform, commit=False, stolen=stolen
                )
                if kind.endswith("lost"):
                    lost.append(tx)
                else:
                    w.commit(tx, [w.views[p % n_views]] if kind.endswith("partial") else None)
                    done.append((process, sub, bundle))
        except (BudgetExhaustedError, SignatureRefusedError):
            pass
        orders = [w.views, w.views[::-1]] if i % 2 else [w.views]
        for pid, wallet in w.wallets.items():
            for views in orders:
                relay = scan_and_alert(pid, wallet, views)
                assert Counter(relay) == Counter(rescanned_relay(pid, wallet, views))
                assert [a.nonce.value for a in relay] == sorted(a.nonce.value for a in relay)
                failures = scan_platform_failure(pid, wallet, views, w.publics)
                assert failures == rescanned_platform_failure(pid, wallet, views)
                assert scan(pid, wallet, views) == relay + failures
