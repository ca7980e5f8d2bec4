"""The deployment: the benchmark's world from the same inputs, and commits
that reach every target view or none."""

import pytest

from crowdreg.credentials import Suite
from crowdreg.deployment import Deployment
from crowdreg.errors import ConfigError, InvalidBlockError
from crowdreg.ledger import Transaction, TxKind
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
    transcripts = {pid: wallet.transcripts for pid, wallet in deployment.wallets.items()}
    assert transcripts == {pid: wallet.transcripts for pid, wallet in world.wallets.items()}  # not in the dumps
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
