"""The deployment: the benchmark's world from the same inputs, commits
that reach every target view or none, and ids outside the registry."""

import json

import pytest

from crowdreg import ledger
from crowdreg.credentials import Suite
from crowdreg.deployment import Deployment
from crowdreg.errors import ConfigError, InvalidBlockError, UnknownParticipantError
from crowdreg.ledger import Transaction, TransactionBlock, TxKind, certify, validate_block
from crowdreg.tokens import Verdict, dump_wallets, verification_tx
from pipebench import pipeline
from pipebench.workloads import WORKLOADS, make_inputs


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
    real, calls = ledger.verify, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ledger, "verify", counted)
    *_, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert len(calls) == 8


def test_a_process_asks_each_target_view_for_a_refusal_once(monkeypatch):
    """One refusal for the submission and one per view for the
    verification; before the memo covered the certified copy, `append_block`
    asked every view again, 8 in all."""
    d = three_platforms()
    real, calls = ledger.LedgerView.refusal, []

    def counted(view, block):
        calls.append(view.platform)
        return real(view, block)

    monkeypatch.setattr(ledger.LedgerView, "refusal", counted)
    *_, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert calls == ["p1", "p1", "p2", "p3"]


def test_a_second_commit_of_a_verification_is_refused_on_every_view(monkeypatch):
    """The views refuse the repeat before any vote is signed; the first
    commit signs two votes for the submission and six for the verification."""
    d = three_platforms()
    real, signs = ledger.sign, []

    def counted(*args):
        signs.append(args)
        return real(*args)

    monkeypatch.setattr(ledger, "sign", counted)
    *_, tx, verdict = d.process("w1", "p1", "r1", "t1")
    assert verdict == Verdict.VALID
    assert len(signs) == 8
    cert = certify(tx.digest, d.topology, d.node_keys, d.topology.platform_ids)
    again = TransactionBlock(tx, tuple((view.platform, view.last_seq + 1) for view in d.views), cert)
    assert ledger.certified(again, d.topology, d.node_publics)
    assert [validate_block(view, again, d.topology, d.node_publics) for view in d.views] == [False] * 3
    before = [list(view.order) for view in d.views]
    signs.clear()
    assert not d.commit(tx)
    assert [view.order for view in d.views] == before
    assert signs == []


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
