"""Every pipebench workload runs clean and keeps its bytes: a short seeded
round fails no operation and dumps the pinned wallets and views. A traced
`history-hash` round keeps its commit-vote verifies per process.

A change that alters the dump bytes on purpose edits `PINNED` and says why.
"""

import functools

import pytest

from pipebench.pipeline import Round
from pipebench.tracer import Tracer
from pipebench.workloads import WORKLOADS, make_inputs

# sha256 of the wallet dump and of the view dumps after a seed-3, 80-slot round.
PINNED = {
    "audit-adversarial": (
        "33b9e7516fa6675a744b57f5c2248d4d9c1beaa905d7ce9b0e3dd4b7da245a57",
        "85098b3e2400a3e87eeb00946032b029f9e96e4567d1ac93b71adaf63d60e58d",
    ),
    "crypto-ed25519": (
        "1b5b2a83696b8889ca0d2d46d8f2f62b00ef7f95783b1af6979eb8a779c5e7b6",
        "e85a0102f4c779507305cb747632c12d9e7392416c26d5871ad173e305f0c2f3",
    ),
    "history-hash": (
        "3c3f46ebd7d04c5ab3cb523135cb6b0f797983d6bb5af018f7e51eb59a2adaf7",
        "f2600f400d228c86a6cd08b944f69e466aea61c1e5555ef7415c96b9a973df3b",
    ),
    "seed-defects": (
        "1244b208cba82e9b2bd3348f5ffd1e75fca2ea9e783d2e354d2f39fd9f493165",
        "5d4f97c63b17ad600104d76c1b1c0e66af464dfac0f7a7e2e5924876366470d3",
    ),
}


@functools.lru_cache(maxsize=None)
def short_round(workload):
    return Round(make_inputs(WORKLOADS[workload], 3, 80)).run()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_round_fails_no_operation(workload):
    result = short_round(workload)
    assert result.outcomes.attempted > 0
    assert dict(result.outcomes.failed) == {}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_round_dumps_the_pinned_bytes(workload):
    result = short_round(workload)
    assert (result.wallets_sha256, result.views_sha256) == PINNED[workload]


def test_a_history_hash_process_verifies_each_commit_vote_once():
    """The benchmark validates each verification on all three views, then
    appends it to each; the certificate is verified on the first view only:
    two votes for the submission and six for the verification (20 when every
    view verified them)."""
    tracer = Tracer()
    with tracer.installed():
        result = Round(make_inputs(WORKLOADS["history-hash"], 3, 80), tracer).run()
    committed = len(result.latencies_ms)
    assert committed == 80
    assert dict(result.outcomes.failed) == {}
    assert tracer.calls_of("process", "credentials.verify", "ledger.validate_block") == 8 * committed
