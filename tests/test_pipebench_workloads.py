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
        "c6bee14fe9cca297a8b55ee44e1c543c2315d94377c2a295bf28f295e056bca4",
    ),
    "crypto-ed25519": (
        "1b5b2a83696b8889ca0d2d46d8f2f62b00ef7f95783b1af6979eb8a779c5e7b6",
        "59d1547f10dd82b580b9456ec6c77d43ba93ada76d6f6d0382cf7f5c9cbfdfdb",
    ),
    "history-hash": (
        "3c3f46ebd7d04c5ab3cb523135cb6b0f797983d6bb5af018f7e51eb59a2adaf7",
        "8535342706651cad7e6a77c1b4c1b842c5d78272f6c2eb0c8eb54583bbbb1938",
    ),
    "seed-defects": (
        "1244b208cba82e9b2bd3348f5ffd1e75fca2ea9e783d2e354d2f39fd9f493165",
        "adbf0a648289b35eaf9c7eb307418688890f3e4666bc0c5a027961639131b72c",
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
