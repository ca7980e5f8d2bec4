"""The deployment: the benchmark's world from the same inputs, commits
that reach every target view or none, and ids outside the registry."""

import json
from dataclasses import replace

import pytest

from crowdreg import ledger, payload, tokens
from crowdreg.credentials import Suite
from crowdreg.deployment import Deployment
from crowdreg.errors import (
    BudgetExhaustedError,
    ConfigError,
    InvalidBlockError,
    SignatureRefusedError,
    UnknownParticipantError,
)
from crowdreg.ledger import Transaction, TransactionBlock, TxKind, certify, validate_block
from crowdreg.tokens import Verdict, VerificationPayload, dump_wallets, verification_tx
from pipebench import pipeline
from pipebench.workloads import WORKLOADS, make_inputs
from tests.counting import count_calls


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_inputs_give_the_benchmark_worlds_dumps(workload):
    """The first 20 slots, on every platform, run as honest processes
    through both pipelines."""
    inputs = make_inputs(WORKLOADS[workload], 3, 80)
    world = pipeline.World(inputs)
    deployment = Deployment(
        inputs.workers, inputs.platforms, inputs.requesters, inputs.regulations,
        Suite(inputs.workload.suite), inputs.key_seed, inputs.declared_tuples,
    )
    for slot in inputs.slots[:20]:
        task_id = f"t{slot.index}"
        sub, ok = world.submit(task_id, slot.platform)
        _, bundle = world.spend(slot, task_id, sub)
        tx = pipeline.verification_tx(task_id, slot.platform, sub.digest, [bundle])
        assert ok and world.check(tx) == Verdict.VALID and world.commit_verification(tx)
        *_, verdict = deployment.process(slot.worker, slot.platform, slot.requester, task_id)
        assert verdict == Verdict.VALID
    assert dump_wallets(deployment.wallets) == dump_wallets(world.wallets)
    assert [view.dump_lines() for view in deployment.views] == [view.dump_lines() for view in world.views]
    blocks = [[view.blocks[d] for d in view.order] for view in deployment.views]
    assert blocks == [[view.blocks[d] for d in view.order] for view in world.views]  # certificates too


def test_commit_reaches_every_view_or_none():
    d = Deployment(("w1",), ("p3", "p1", "p2"), ("r1",), ["((w1, *, *), <, 3)"], Suite.HASH, b"atomic")
    sub = Transaction(TxKind.SUBMISSION, "t1", b"task:t1", ("p2",), 1)
    tx = verification_tx("t1", "p2", sub.digest, [])
    before = [list(view.order) for view in d.views]
    assert not d.commit(tx)  # p1 would take it; p2 lacks its parent submission
    assert [view.order for view in d.views] == before
    assert d.commit(sub) and d.commit(tx)
    assert [view.order[-1] for view in d.views] == [tx.digest] * 3
    assert [view.last_seq for view in d.views] == [1, 2, 1]
    with pytest.raises(InvalidBlockError):
        d.submit("t1", "p2")  # already submitted
    assert not d.commit(tx)
    assert [view.last_seq for view in d.views] == [1, 2, 1]


@pytest.mark.parametrize(
    "threshold, refuse, refused",
    [(2, None, BudgetExhaustedError), (9, lambda participant, nonce: participant == "r1", SignatureRefusedError)],
    ids=["budget", "signature"],
)
def test_a_refused_spend_commits_no_submission_and_a_retry_is_refused_again(threshold, refuse, refused):
    """The view is asked about the submission before `tokens.spend` runs,
    and the submission commits only after it returns. Before, the refused
    second process moved p1's `last_seq` from 2 to 3, and a retry of its
    task raised InvalidBlockError."""
    d = Deployment(("w1",), ("p1",), ("r1",), [f"((w1, *, *), <, {threshold})"], Suite.HASH, b"retry")
    d.process("w1", "p1", "r1", "t1")
    before = dump_wallets(d.wallets), [list(view.order) for view in d.views]
    with pytest.raises(InvalidBlockError, match="refused the submission of t1"):
        d.process("w1", "p1", "r1", "t1", refuse=refuse)  # asked before the budget or a signer
    for _ in range(2):
        with pytest.raises(refused):
            d.process("w1", "p1", "r1", "t2", refuse=refuse)
        assert d.view_of["p1"].last_seq == 2
        assert (dump_wallets(d.wallets), [view.order for view in d.views]) == before


def test_platform_ids_must_be_the_topologys():
    with pytest.raises(ConfigError):
        Deployment(("w1",), ("p1", "p3"), ("r1",), ["((w1, *, *), <, 3)"], Suite.HASH, b"ids")


def three_platforms(suite=Suite.HASH):
    return Deployment(("w1",), ("p1", "p2", "p3"), ("r1",), ["((forall, *, *), <, 5)"], suite, b"three")


@pytest.mark.parametrize("suite", [Suite.HASH, Suite.ED25519])
def test_a_process_verifies_each_commit_vote_once(suite, monkeypatch):
    """Two votes certify the submission and six the verification; before
    the certificate was checked once for all views, the verification's six
    were checked on each of the three views, 20 in all."""
    d = three_platforms(suite)
    calls = count_calls(monkeypatch, ((ledger, "verify"),))
    *_, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert calls == {"verify": 8}


def test_a_process_asks_each_target_view_for_a_refusal_once(monkeypatch):
    """One refusal for the submission and one per view for the
    verification; before the memo covered the certified copy, `append_block`
    asked every view again, 8 in all."""
    d = three_platforms()
    calls = count_calls(monkeypatch, ((ledger.LedgerView, "refusal"),))
    *_, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert [view.platform for view, _ in calls.args["refusal"]] == ["p1", "p1", "p2", "p3"]


def test_a_process_encodes_its_payload_once_and_check_none(monkeypatch):
    """One encoding walk, where `tokens.verification_tx` builds the payload,
    and one entry encoding per entry inside it. `serialize()` returns the
    kept bytes, which are the transaction's payload object itself, so
    `Transaction`'s side-car comparison and `check` encode nothing. Before,
    `serialize()` walked the payload on every call, and a process walked it
    twice: for the payload and in that comparison."""
    d = three_platforms()
    real_walk, real_entry, real_check = VerificationPayload.__post_init__, payload._encode_entry, tokens.check
    in_check, walks, entries = [], [], []

    def walked(body):
        walks.append(bool(in_check))
        return real_walk(body)

    def encoded(entry, parts):
        entries.append(bool(in_check))
        return real_entry(entry, parts)

    def checking(*args):
        in_check.append(True)
        try:
            return real_check(*args)
        finally:
            in_check.pop()

    monkeypatch.setattr(VerificationPayload, "__post_init__", walked)
    monkeypatch.setattr(payload, "_encode_entry", encoded)
    monkeypatch.setattr(tokens, "check", checking)
    _, bundle, tx, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert walks == [False]
    assert entries == [False] * len(bundle.entries)
    assert tx.payload is tx.bundle.serialize()


def views_state(d):
    """Each view's block order and nonce index."""
    return [(list(view.order), dict(view.committed_nonces())) for view in d.views]


def test_a_side_car_that_is_not_the_payloads_encoding_is_forged_and_refused():
    """The payload spends nothing and the side-car spends w1's token.
    Before, `commit` indexed that nonce in all three views, and the honest
    transaction then checked REPLAYED."""
    d = three_platforms()
    process, _, tx = d.spend("w1", "p1", "r1", "t1")
    empty = VerificationPayload("t1", ()).serialize()
    mismatched = Transaction(
        TxKind.VERIFICATION, "t1", empty, ("p1",), parent_submission=process.task_digest, bundle=tx.bundle
    )
    before = views_state(d)
    assert d.check(mismatched) == Verdict.FORGED
    assert not d.commit(mismatched)
    assert views_state(d) == before
    assert d.check(tx) == Verdict.VALID


def test_a_verification_rebuilt_from_its_payload_alone_is_refused_on_every_view():
    """The rebuild has the honest digest and no side-car. Before, every
    view appended it and indexed no nonce."""
    d = three_platforms()
    _, _, tx = d.spend("w1", "p1", "r1", "t1")
    rebuilt = replace(tx, bundle=None)
    assert rebuilt.digest == tx.digest
    unsigned = TransactionBlock(rebuilt, tuple((view.platform, view.last_seq + 1) for view in d.views), ())
    for view in d.views:
        with pytest.raises(InvalidBlockError, match="not its bundle's encoding"):
            view.append_block(unsigned)
    before = views_state(d)
    assert not d.commit(rebuilt)
    assert views_state(d) == before
    assert d.check(tx) == Verdict.VALID and d.commit(tx)


def test_a_twin_under_another_contribution_count_is_replayed_once_the_honest_one_commits():
    """Same bundle and a new digest: it spends the nonces the honest
    transaction committed."""
    d = three_platforms()
    _, _, tx = d.spend("w1", "p1", "r1", "t1")
    twin = replace(tx, required_contributions=7)
    assert twin.digest != tx.digest and twin.bundle is tx.bundle
    assert d.check(tx) == Verdict.VALID and d.commit(tx)
    assert d.check(twin) == Verdict.REPLAYED


def test_a_second_commit_of_a_verification_is_refused_on_every_view(monkeypatch):
    """The views refuse the repeat before any vote is signed; the first
    commit signs two votes for the submission and six for the verification."""
    d = three_platforms()
    calls = count_calls(monkeypatch, ((ledger, "sign"),))
    *_, tx, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert calls == {"sign": 8}
    cert = certify(tx.digest, d.topology, d.node_keys, d.topology.platform_ids)
    again = TransactionBlock(tx, tuple((view.platform, view.last_seq + 1) for view in d.views), cert)
    assert ledger.certified(again, d.topology, d.node_publics)
    assert [validate_block(view, again, d.topology, d.node_publics) for view in d.views] == [False] * 3
    before = [list(view.order) for view in d.views]
    calls.clear()
    assert not d.commit(tx)
    assert [view.order for view in d.views] == before
    assert calls == {}


def test_a_valid_verification_the_views_refuse_raises_and_enters_no_view(monkeypatch):
    d = three_platforms()
    view = d.view_of["p3"]
    takes = view.refusal

    def refuses_verifications(block):
        if block.tx.kind == TxKind.VERIFICATION:
            return InvalidBlockError("this view takes no verification")
        return takes(block)

    monkeypatch.setattr(view, "refusal", refuses_verifications)
    with pytest.raises(InvalidBlockError, match="the views refused the verification of t1"):
        d.process("w1", "p1", "r1", "t1")
    kinds = [[v.blocks[digest].tx.kind for digest in v.order] for v in d.views]
    assert kinds == [[TxKind.GENESIS, TxKind.SUBMISSION], [TxKind.GENESIS], [TxKind.GENESIS]]
    assert [dict(v.committed_nonces()) for v in d.views] == [{}, {}, {}]


@pytest.mark.parametrize(
    "worker, platform, requester",
    [("w9", "p1", "r1"), ("p1", "p1", "r1"), ("w1", "p9", "r1"), ("w1", "p1", "r9"), ("w1", "r1", "p1")],
    ids=["unregistered-worker", "platform-as-worker", "unregistered-platform", "unregistered-requester",
         "swapped-roles"],
)
def test_a_process_with_an_id_outside_its_role_is_refused_before_any_write(worker, platform, requester):
    d = three_platforms()
    before = dump_wallets(d.wallets), [list(view.order) for view in d.views]
    with pytest.raises(UnknownParticipantError):
        d.process(worker, platform, requester, "t1")
    assert (dump_wallets(d.wallets), [view.order for view in d.views]) == before


def test_commit_refuses_unknown_platforms():
    d = three_platforms()
    sub = Transaction(TxKind.SUBMISSION, "t1", b"task:t1", ("p1",), 1)
    with pytest.raises(UnknownParticipantError):
        d.commit(sub, ["p9"])
    outside = Transaction(TxKind.SUBMISSION, "t2", b"task:t2", ("p1", "p9"), 1)
    assert not d.commit(outside)  # certified by p1 only, and p9 is not in the topology
    assert [view.last_seq for view in d.views] == [0, 0, 0]
    with pytest.raises(UnknownParticipantError):
        d.scan("w9")


def test_commit_returns_false_only_for_a_certificate_without_quorum(monkeypatch):
    """An InvalidBlockError from a view's append reaches the caller of
    `commit`; only `_certify`'s is turned into False."""

    def refuse(view, block):
        raise InvalidBlockError("append refused")

    d = three_platforms()
    monkeypatch.setattr(ledger.LedgerView, "append_block", refuse)
    with pytest.raises(InvalidBlockError, match="append refused"):
        d.commit(Transaction(TxKind.SUBMISSION, "t1", b"task:t1", ("p1",), 1))


def test_a_commit_naming_a_view_twice_raises_before_any_write():
    """The block's `seq` would name the platform twice; before, the first
    append went through and the second raised."""
    d = three_platforms()
    sub = Transaction(TxKind.SUBMISSION, "t1", b"task:t1", ("p1",), 1)
    with pytest.raises(InvalidBlockError, match="name a platform twice"):
        d.commit(sub, ["p1", "p1"])
    assert [view.last_seq for view in d.views] == [0, 0, 0]


def test_wallet_dumps_carry_the_spend_transcripts():
    d = three_platforms()
    d.process("w1", "p2", "r1", "t1")
    rows = [json.loads(line) for line in dump_wallets(d.wallets)]
    transcripts = [row for row in rows if row["kind"] == "transcript"]
    assert [row["owner"] for row in transcripts] == ["r1", "w1"]
    (t,) = d.wallets["w1"].transcripts
    assert transcripts[1] == {
        "owner": "w1",
        "kind": "transcript",
        "platform": "p2",
        "task_digest": t.task_digest.hex(),
        "contribution_id": t.contribution_id.hex(),
        "nonces_hex": [n.hex() for n in t.nonces],
        "request_sig": t.request_sig.hex(),
    }


@pytest.mark.parametrize("suite", list(Suite))
def test_an_openings_length_does_not_depend_on_the_signer(suite):
    """Workers and requesters whose ids differ in length run every tuple
    once: every opening on every view, of any group, has one length, and
    payloads of one shape have one length whoever signed them."""
    deployment = Deployment(
        ("a", "bob", "w10"), ("p1", "p2"), ("r", "requester2"),
        ["((forall, *, *), <, 9)", "((*, *, forall), <, 9)"], suite, b"anonymity",
    )
    for i, (worker, platform, requester) in enumerate(deployment.registry.tuples()):
        *_, verdict = deployment.process(worker, platform, requester, f"t{i:02d}")
        assert verdict == Verdict.VALID
    txs = [view.blocks[d].tx for view in deployment.views for d in view.order]
    verifications = [tx for tx in txs if tx.kind == TxKind.VERIFICATION]
    assert len(verifications) == 2 * 12
    openings = {
        len(gsig.opening)
        for tx in verifications
        for bundle in tx.bundle.bundles
        for entry in bundle.entries
        for _, _, gsig in entry.group_sigs
    }
    assert openings == {{Suite.HASH: 122, Suite.ED25519: 154}[suite]}
    assert len({len(tx.payload) for tx in verifications}) == 1
