"""Workload definitions and the seeded inputs each one feeds the pipeline.

Everything here is derived from the workload and the seed alone; the library
sees only the participant ids, regulation texts and process tuples built here.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HONEST = "honest"
# Attacks whose expected outcome the library already delivers.
ATTACKS = ("relay_theft", "replay", "bad_ra_sig", "task_swap", "platform_failure")
# Probes of the three known seed defects (ROADMAP item 3 a-c).
DEFECT_PROBES = ("payload_mismatch", "unknown_group", "refusal")
# Platforms in every workload: make_topology's crash platforms p1..p3, f=1.
PLATFORMS = 3


@dataclass(frozen=True)
class Workload:
    """Sizes and mix of one workload; README.md says why each exists."""

    name: str
    suite: str  # credentials.Suite value
    processes: int
    workers: int
    requesters: int
    # Each worker always works for one (platform, requester) pair, and only
    # those tuples receive v-tokens; otherwise pairs are drawn per process.
    fixed_pairs: bool
    # Roles that get a ((forall ...), <, budget) regulation.
    limited_roles: Tuple[str, ...]
    # The RA audits every this many slots; each participant scans once per interval.
    checkpoint_every: int
    attack_every: int  # every this-many-th slot is an attack; 0: none
    attacks: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="history-hash",
            suite="hash",
            processes=1200,
            workers=20,
            requesters=2,
            fixed_pairs=False,
            limited_roles=("worker",),
            checkpoint_every=100,
            attack_every=0,
            attacks=(),
        ),
        Workload(
            name="crypto-ed25519",
            suite="ed25519",
            processes=1000,
            workers=50,
            requesters=4,
            fixed_pairs=True,
            limited_roles=("worker", "platform", "requester"),
            checkpoint_every=100,
            attack_every=0,
            attacks=(),
        ),
        Workload(
            name="audit-adversarial",
            suite="hash",
            processes=1100,
            workers=20,
            requesters=2,
            fixed_pairs=False,
            limited_roles=("worker",),
            checkpoint_every=50,
            attack_every=10,
            attacks=ATTACKS,
        ),
        Workload(
            name="seed-defects",
            suite="hash",
            processes=1000,
            workers=20,
            requesters=2,
            fixed_pairs=False,
            limited_roles=("worker",),
            checkpoint_every=50,
            attack_every=10,
            attacks=ATTACKS + DEFECT_PROBES,
        ),
    )
}


@dataclass(frozen=True)
class Slot:
    """One process slot: an honest process or an attack on the pipeline."""

    index: int
    worker: str
    platform: str
    requester: str
    kind: str
    victim: Optional[str] = None  # relay_theft: whose token is stolen
    junk: bytes = b""  # bad_ra_sig / payload_mismatch: forged bytes


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    processes: int
    key_seed: bytes
    workers: Tuple[str, ...]
    platforms: Tuple[str, ...]
    requesters: Tuple[str, ...]
    regulations: Tuple[str, ...]
    slots: Tuple[Slot, ...]
    declared_tuples: Optional[Tuple[Tuple[str, str, str], ...]]


def make_inputs(workload: Workload, seed: int, processes: Optional[int] = None) -> Inputs:
    """Build the participants, regulations and process slots for one seed."""
    n = processes or workload.processes
    rng = random.Random(f"{workload.name}:{seed}:{n}")
    workers = tuple(f"w{i}" for i in range(1, workload.workers + 1))
    # Platform ids must match make_topology's p1..pN.
    platforms = tuple(f"p{i}" for i in range(1, PLATFORMS + 1))
    requesters = tuple(f"r{i}" for i in range(1, workload.requesters + 1))

    order = [workers[i % len(workers)] for i in range(n)]
    rng.shuffle(order)
    pair_of = {
        w: (platforms[i % len(platforms)], requesters[(i // len(platforms)) % len(requesters)])
        for i, w in enumerate(workers)
    }
    attack_cycle: List[str] = []
    slots = []
    for i, worker in enumerate(order):
        if workload.fixed_pairs:
            platform, requester = pair_of[worker]
        else:
            platform, requester = rng.choice(platforms), rng.choice(requesters)
        kind = HONEST
        if workload.attack_every and i % workload.attack_every == workload.attack_every - 1:
            if not attack_cycle:
                attack_cycle = list(workload.attacks)
                rng.shuffle(attack_cycle)
            kind = attack_cycle.pop()
        victim = rng.choice([w for w in workers if w != worker]) if kind == "relay_theft" else None
        junk = rng.randbytes(32) if kind in ("bad_ra_sig", "payload_mismatch") else b""
        slots.append(Slot(i, worker, platform, requester, kind, victim, junk))

    # Budgets cover each participant's busiest case: its own slots plus every
    # token stolen from it, with one spare.
    load = Counter()
    for s in slots:
        load[s.worker] += 1
        load[s.platform] += 1
        load[s.requester] += 1
        if s.victim:
            load[s.victim] += 1
    groups = {"worker": workers, "platform": platforms, "requester": requesters}
    positions = {"worker": "(forall, *, *)", "platform": "(*, forall, *)", "requester": "(*, *, forall)"}
    regs = [
        f"({positions[role]}, <, {max(load[p] for p in groups[role]) + 2})"
        for role in workload.limited_roles
    ]
    # Each platform proves a quarter of its fair share of one checkpoint
    # interval, so every checkpoint audit, the first included, proves and
    # verifies the same amount whatever the seed.
    regs.append(f"((*, forall, *), >, {workload.checkpoint_every // (4 * len(platforms))})")

    declared = None
    if workload.fixed_pairs:
        declared = tuple(sorted({(s.worker, s.platform, s.requester) for s in slots}))

    return Inputs(
        workload=workload,
        processes=n,
        key_seed=f"{workload.name}:{seed}".encode(),
        workers=workers,
        platforms=platforms,
        requesters=requesters,
        regulations=tuple(regs),
        slots=tuple(slots),
        declared_tuples=declared,
    )
