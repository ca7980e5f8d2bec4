"""Fast checks of the benchmark itself: determinism and failure accounting."""

from pipebench.bench import KNOWN_DEFECTS
from pipebench.pipeline import Round
from pipebench.tracer import Tracer
from pipebench.workloads import WORKLOADS, make_inputs

SMALL = 80  # slots; every attack kind comes up once


def traced_round(workload: str, seed: int):
    tracer = Tracer()
    with tracer.installed():
        result = Round(make_inputs(WORKLOADS[workload], seed, SMALL), tracer).run()
    return result, tracer


def test_same_seed_repeats_counts_and_dumps():
    first, t1 = traced_round("seed-defects", 3)
    second, t2 = traced_round("seed-defects", 3)
    assert t1.calls == t2.calls
    assert t1.counts == t2.counts
    assert (first.wallets_sha256, first.views_sha256) == (second.wallets_sha256, second.views_sha256)
    assert first.outcomes == second.outcomes


def test_other_seed_gives_other_world():
    first, _ = traced_round("history-hash", 3)
    other, _ = traced_round("history-hash", 4)
    assert first.wallets_sha256 != other.wallets_sha256


def test_tracer_leaves_library_unwrapped():
    from crowdreg import credentials, ledger, tokens

    originals = (credentials.sign, tokens.sign, ledger.verify, tokens.Wallet.received_nonces)
    traced_round("history-hash", 3)
    assert (credentials.sign, tokens.sign, ledger.verify, tokens.Wallet.received_nonces) == originals


def test_only_known_seed_defects_fail():
    clean, _ = traced_round("audit-adversarial", 3)
    assert clean.outcomes.failed == {}
    probed, _ = traced_round("seed-defects", 3)
    assert set(probed.outcomes.failed) <= set(KNOWN_DEFECTS)


def test_every_timed_workload_commits_1000_processes():
    for name in ("history-hash", "crypto-ed25519", "audit-adversarial"):
        slots = make_inputs(WORKLOADS[name], 1).slots
        assert sum(s.kind in ("honest", "relay_theft") for s in slots) >= 1000, name
