"""One benchmark run: repeat a workload's round until the time is up, then
report end-to-end metrics (untraced) or per-layer metrics (traced)."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .pipeline import Outcomes, Round
from .tracer import Tracer
from .workloads import WORKLOADS, make_inputs

OUT_DIR = Path(__file__).resolve().parent / "out"
# Rounds an untraced run makes at least. Times are scaled to the reference
# speed (speed.py). Every round of one seed runs the same slots, scans and
# audits in the same order, so each timed item (a process, a slot, a scan, a
# checkpoint audit) is taken as the median of its times over the rounds,
# which damps the noise the scaling leaves on single items. Every workload
# commits at least 1000 processes per round, so p99 has ten samples beyond it.
MIN_ROUNDS = 3

# Wrong outcomes that come from the three defects ROADMAP item 3 names.
KNOWN_DEFECTS = {
    "payload_mismatch.verdict.valid": "(a) check validates the side-car Transaction.bundle, not the payload bytes",
    "unknown_group.exception.KeyError": "(b) an entry with an unknown group label makes check raise KeyError",
    "refusal.wallet_changed": "(c) a refused spend leaves the initiator's copy marked spent",
}


def calibrate() -> dict:
    """Fixed CPU work, recorded next to the metrics so slow machines show."""
    t0 = perf_counter()
    h = b"calibrate"
    for _ in range(20000):
        h = hashlib.sha256(h).digest()
    sha_end = perf_counter()
    key = Ed25519PrivateKey.from_private_bytes(bytes(32))
    key.sign(b"warm up")
    t1 = perf_counter()
    for i in range(300):
        key.sign(i.to_bytes(4, "big"))
    t2 = perf_counter()
    return {"sha256_ms": (sha_end - t0) * 1e3, "ed25519_sign_ms": (t2 - t1) * 1e3}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (result line, detail) for one run."""
    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, seed)
    calibration = {"start": calibrate()}
    started = perf_counter()
    if trace:
        metrics, detail = _traced(workload, inputs, seed, started + seconds)
    else:
        metrics, detail = _untraced(inputs, started + seconds)
    calibration["end"] = calibrate()
    if trace:
        for name in ("sha256_ms", "ed25519_sign_ms"):
            both = (calibration["start"][name], calibration["end"][name])
            metrics[f"calib.{name}"] = _metric(statistics.mean(both), "ms")
    outcomes: Outcomes = detail.pop("outcomes")
    failed = sum(outcomes.failed.values())
    hashes = {(d["wallets_sha256"], d["views_sha256"]) for d in detail["rounds"]}
    deterministic = len(hashes) == 1 and detail.get("counts_repeat", True)
    detail.update(
        workload=workload_name,
        seed=seed,
        calibration=calibration,
        deterministic=deterministic,
        attempted=outcomes.attempted,
        failed=failed,
        failed_ratio=failed / outcomes.attempted,
        failed_by_kind=dict(sorted(outcomes.failed.items())),
    )
    result = {
        "correct": deterministic and not failed,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def _round_detail(result) -> dict:
    return {
        "setups_s": result.setups_s,
        "process_s": sum(result.slots_s),
        "audit_s": sum(result.audits_s),
        "completed": len(result.latencies_ms),
        "wallets_sha256": result.wallets_sha256,
        "views_sha256": result.views_sha256,
    }


def _time_left(deadline: float, last: float) -> bool:
    """Whether another round, as long as the last one, ends by the deadline."""
    return perf_counter() + last <= deadline


def _item_medians(per_round) -> list:
    """Item by item, the median of the rounds' times of the same item."""
    return [statistics.median(times) for times in zip(*per_round)]


def _untraced(inputs, deadline: float) -> tuple:
    results, last = [], 0.0
    while len(results) < MIN_ROUNDS or _time_left(deadline, last):
        t0 = perf_counter()
        results.append(Round(inputs).run())
        last = perf_counter() - t0
    outcomes = Outcomes()
    for r in results:
        outcomes.merge(r.outcomes)
    committed = sorted(set.intersection(*(set(r.latencies_ms) for r in results)))
    latencies = _item_medians([r.latencies_ms[i] for i in committed] for r in results)
    scans = _item_medians(r.scans_ms for r in results)
    setups = [s for r in results for s in r.setups_s]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "process_p50_ms": _metric(statistics.median(latencies), "ms"),
        "process_p99_ms": _metric(statistics.quantiles(latencies, n=100)[98], "ms"),
        "processes_per_s": _metric(
            len(latencies) / sum(_item_medians(r.slots_s for r in results)), "1/s"
        ),
        "scan_p50_ms": _metric(statistics.median(scans), "ms"),
        "audit_s": _metric(sum(_item_medians(r.audits_s for r in results)), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "rounds": [_round_detail(r) for r in results],
        "process_samples": len(latencies),
        "scan_samples": len(scans),
        "outcomes": outcomes,
    }
    return metrics, detail


def _count_snapshot(tracer: Tracer) -> dict:
    return {
        "calls": {"|".join(k): n for k, n in sorted(tracer.calls.items())},
        "counts": {"|".join(k): n for k, n in sorted(tracer.counts.items())},
    }


def _delta(after: dict, before: dict) -> dict:
    return {
        part: {k: n - before[part].get(k, 0) for k, n in after[part].items()}
        for part in after
    }


def _traced(workload, inputs, seed: int, deadline: float) -> tuple:
    """Alternate untraced and traced rounds, so the tracing overhead is
    measured on the same machine state; per-layer numbers come from the
    traced rounds and a traced quarter-size probe of the same workload."""
    tracer = Tracer()
    plain, traced, per_round_counts, last = [], [], [], 0.0
    # Two traced rounds at least, so that the counts are compared.
    while len(traced) < 2 or _time_left(deadline, last):
        t0 = perf_counter()
        if len(plain) <= len(traced):
            plain.append(Round(inputs).run())
        else:
            before = _count_snapshot(tracer)
            with tracer.installed():
                traced.append(Round(inputs, tracer).run())
            per_round_counts.append(_delta(_count_snapshot(tracer), before))
        last = perf_counter() - t0

    quarter = Tracer()
    with quarter.installed():
        probe = Round(make_inputs(workload, seed, inputs.processes // 4), quarter).run()

    outcomes = Outcomes()
    for r in plain + traced + [probe]:
        outcomes.merge(r.outcomes)
    rounds = len(traced)
    slots = rounds * inputs.processes
    quarter_slots = inputs.processes // 4
    t = tracer

    def per_slot(name: str) -> float:
        return t.self_s[("process", name)] * 1e3 / slots

    def per_call(names, phases=("process", "scan", "audit")) -> float:
        """Self time of the named layers per call of the first one."""
        total = sum(t.self_s[(ph, n)] for ph in phases for n in names)
        calls = sum(t.calls_of(ph, names[0]) for ph in phases)
        return total * 1e3 / calls if calls else 0.0

    def growth(counter: str) -> tuple:
        full = t.counts[("process", counter)] / slots
        small = quarter.counts[("process", counter)] / quarter_slots
        return full, small, full / small if small else 0.0

    blocks, blocks_q, blocks_g = growth("ledger.blocks_scanned")
    records, records_q, records_g = growth("tokens.wallet.records_scanned")
    adjudications = sum((r.adjudications for r in traced), start=Counter())
    verdict_total = sum(adjudications.values())
    m = {
        "tokens.wallet.records_scanned_per_process": _metric(records, "count"),
        "tokens.wallet.records_scanned_per_process.quarter_n": _metric(records_q, "count"),
        "tokens.wallet.records_scanned_per_process.growth": _metric(records_g, "ratio"),
        "tokens.spend.self_ms": _metric(per_slot("tokens.spend"), "ms"),
        "tokens.check.self_ms": _metric(per_slot("tokens.check"), "ms"),
        "tokens.generate.self_s": _metric(t.self_s[("setup", "tokens.generate")] / rounds, "s"),
        "tokens.generate.ra_signs": _metric(
            t.calls_of("setup", "credentials.sign", "tokens.generate") / rounds, "count"
        ),
        "tokens.scan.self_ms": _metric(
            per_call(("tokens.scan_and_alert", "tokens.scan_platform_failure")), "ms"
        ),
        "tokens.adjudicate.self_ms": _metric(per_call(("tokens.adjudicate",)), "ms"),
        "tokens.prove.self_ms": _metric(per_call(("tokens.prove",)), "ms"),
        "tokens.verify_proof.self_ms": _metric(per_call(("tokens.verify_proof",)), "ms"),
        "tokens.alerts.raised": _metric(sum(r.alerts_raised for r in traced) / rounds, "count"),
        "tokens.alerts.true_positive_ratio": _metric(
            adjudications["true_positive"] / verdict_total if verdict_total else 0.0, "ratio"
        ),
        "ledger.blocks_scanned_per_process": _metric(blocks, "count"),
        "ledger.blocks_scanned_per_process.quarter_n": _metric(blocks_q, "count"),
        "ledger.blocks_scanned_per_process.growth": _metric(blocks_g, "ratio"),
        "ledger.committed_nonces.calls_per_process": _metric(
            t.counts[("process", "ledger.committed_nonces.calls")] / slots, "count"
        ),
        "ledger.validate_block.self_ms": _metric(per_slot("ledger.validate_block"), "ms"),
        "ledger.cert_votes_verified_per_process": _metric(
            t.calls_of("process", "credentials.verify", "ledger.validate_block") / slots, "count"
        ),
        "ledger.append_block.self_ms": _metric(per_slot("ledger.append_block"), "ms"),
        "ledger.payload_bytes_per_process": _metric(
            sum(r.payload_bytes for r in traced) / slots, "bytes"
        ),
    }
    for name in ("sign", "verify", "seal", "group_sign", "group_verify"):
        layer = f"credentials.{name}"
        m[f"{layer}.calls_per_process"] = _metric(t.calls_of("process", layer) / slots, "count")
        m[f"{layer}.self_ms"] = _metric(per_slot(layer), "ms")
    m["credentials.group_open.calls"] = _metric(
        sum(t.calls_of(ph, "credentials.group_open") for ph in ("process", "scan", "audit")) / rounds,
        "count",
    )
    m["credentials.group_open.self_ms"] = _metric(per_call(("credentials.group_open",)), "ms")
    m["regulation.compile.self_s"] = _metric(t.self_s[("setup", "regulation.compile")] / rounds, "s")
    m["regulation.applicable.self_ms"] = _metric(per_slot("regulation.applicable"), "ms")
    m["trace.overhead_ratio"] = _metric(
        statistics.median(sum(r.slots_s) for r in traced)
        / statistics.median(sum(r.slots_s) for r in plain),
        "ratio",
    )

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    counts = per_round_counts[0]
    detail = {
        "rounds": [_round_detail(r) for r in plain + traced],
        "traced_rounds": rounds,
        "counts_repeat": all(c == counts for c in per_round_counts),
        "counts_sha256": hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest(),
        "counts_per_round": counts,
        "spans_file": str(spans_path.relative_to(OUT_DIR.parent.parent)),
        "outcomes": outcomes,
    }
    return m, detail
