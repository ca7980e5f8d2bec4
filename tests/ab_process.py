"""Time the honest processes and the scans of another checkout's `crowdreg`
against this working tree's, interleaved in one interpreter.

    python tests/ab_process.py PARENT [--workload history-hash] [--seed 1] [--slots N] [--reps 5]

PARENT is the root of another checkout, typically of the parent commit, made
for example with `git worktree add /tmp/parent HEAD~1`. Give `.` for an A/A
run of the working tree against itself, which shows the tool's own noise.

Each side's `src/crowdreg` is loaded under a package name of its own, and this
checkout's `pipebench/pipeline.py` is loaded once against each, so both
sides run pipebench's own `Round` unedited. Each rep builds one world per
side from the same seed-N inputs and walks the slots in order; odd reps
build the worlds in the other order.

Every honest slot runs `Round._process` on both sides, in alternating
order, and its `latency_s` (the CPU time that `process_p50_ms` scales) is
taken; every other slot runs untimed through `Round._slot`, so attacks
change both worlds alike. After each slot, every scan that `Round.run`
schedules there (each participant once per checkpoint interval, at its own
offset, and all of them after the last slot) calls
`World.scan(participant)` on both sides; its CPU time (what `scan_p50_ms`
scales) is taken. Which side scans first alternates with each scan, not
with the slot: scans fall on a few fixed slot offsets. Each side files its
alerts as `Round._scan` does. Audits are left out, since no process or scan
reads what they change.

It prints, for the processes and for the scans, the median and quartiles of
the per-item ratio (this tree over PARENT) and each side's median item time,
and exits 1 if the two worlds' `dump_hashes()`, outcomes or filed alerts
differ after any rep. Stdlib only, and not collected by pytest.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ITEMS = {"process": "processes", "scan": "scans"}  # item -> its plural


def load_package(name: str, directory: Path, modules):
    """The package in `directory` under the name `name`, with `modules` imported."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in modules:
        importlib.import_module(f"{name}.{module}")
    return package


def load_side(side: str, checkout: Path):
    """(pipeline, workloads) of this checkout's pipebench, loaded against the
    `crowdreg` of `checkout`. While pipebench's modules load, the name
    `crowdreg` and its submodules stand for that side's package; afterwards
    the import system is as it was."""
    source = checkout / "src" / "crowdreg"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"no crowdreg package under {source}")
    modules = sorted(p.stem for p in source.glob("*.py") if p.stem != "__init__")
    package = load_package(f"crowdreg_{side}", source, modules)
    aliases = {"crowdreg": package, **{f"crowdreg.{m}": getattr(package, m) for m in modules}}
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        bench = load_package(f"pipebench_{side}", ROOT / "pipebench", ("workloads", "pipeline"))
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return bench.pipeline, bench.workloads


def run_rep(sides, workload: str, seed: int, slots: int, rep: int):
    """One interleaved round: (per-item times by item and side, rounds by
    side), the items being "process" and "scan". Each round's `filed` gets
    its side's alerts. Odd reps build the worlds, and start each pair of
    slots and of scans, in the other order."""
    first = SIDES if rep % 2 == 0 else SIDES[::-1]
    rounds, inputs = {}, {}
    for side in first:
        pipeline, workloads = sides[side]
        inputs[side] = workloads.make_inputs(workloads.WORKLOADS[workload], seed, slots)
        rounds[side] = pipeline.Round(inputs[side])
        rounds[side].world = pipeline.World(inputs[side])
    every = inputs[SIDES[0]].workload.checkpoint_every
    participants = rounds[SIDES[0]].world.registry.all_ids()
    scans_after = {}
    for j, participant in enumerate(participants):
        scans_after.setdefault(j * every // len(participants), []).append(participant)
    times = {item: {side: [] for side in SIDES} for item in ITEMS}

    def scan(participant):
        scans = times["scan"]
        for side in first if len(scans[SIDES[0]]) % 2 == 0 else first[::-1]:
            r = rounds[side]
            t0 = process_time()
            alerts = r.world.scan(participant)
            scans[side].append(process_time() - t0)
            for alert in alerts:
                if alert.platform != participant:  # as `Round._scan` files them
                    r.filed.setdefault(sides[side][0]._alert_key(alert), alert)

    gc.collect()
    for i, slot in enumerate(inputs[SIDES[0]].slots):
        order = first if i % 2 == 0 else first[::-1]
        if slot.kind != "honest":
            for side in order:
                rounds[side]._slot(inputs[side].slots[i])
        else:
            latencies = {}
            for side in order:
                r = rounds[side]
                r.latency_s = None
                try:
                    ok, kind = r._process(inputs[side].slots[i])
                except Exception as exc:  # counted as a wrong outcome, as `Round._slot` does
                    ok, kind = False, type(exc).__name__
                r.outcomes.record(ok, f"honest.{kind}")
                latencies[side] = r.latency_s
            if None not in latencies.values():
                for side in SIDES:
                    times["process"][side].append(latencies[side])
        for participant in scans_after.get(slot.index % every, ()):
            scan(participant)
    for participant in participants:
        scan(participant)
    return times, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", default="history-hash")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--slots", type=int, default=None, help="slots per round (default: the workload's)")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    sides = {"parent": load_side("parent", args.parent.resolve()), "change": load_side("change", ROOT)}
    ratios, status = {item: [] for item in ITEMS}, 0
    for rep in range(args.reps):
        times, rounds = run_rep(sides, args.workload, args.seed, args.slots, rep)
        medians = []
        for item, items in ITEMS.items():
            ratios[item] += [c / p for p, c in zip(times[item]["parent"], times[item]["change"])]
            parent, change = (statistics.median(times[item][side]) * 1e3 for side in SIDES)
            medians.append(f"{len(times[item]['change'])} {items}, median ms parent {parent:.4f} change {change:.4f}")
        hashes = {side: r.world.dump_hashes() for side, r in rounds.items()}
        outcomes = {side: (r.outcomes.attempted, dict(r.outcomes.failed)) for side, r in rounds.items()}
        filed = {side: list(r.filed) for side, r in rounds.items()}
        if hashes["parent"] != hashes["change"] or outcomes["parent"] != outcomes["change"]:
            print(f"rep {rep}: the worlds differ: dumps {hashes}, outcomes {outcomes}")
            status = 1
        if filed["parent"] != filed["change"]:
            print(f"rep {rep}: the filed alerts differ: {filed}")
            status = 1
        attempted, failed = outcomes["change"]
        print(
            f"rep {rep}: {'; '.join(medians)}; {attempted} slots, {len(filed['change'])} alerts filed,"
            f" failed {failed or 0}"
        )
    for item, items in ITEMS.items():
        q1, q2, q3 = statistics.quantiles(ratios[item], n=4)
        print(
            f"{args.workload} seed {args.seed}: median per-{item} ratio change/parent {q2:.4f}"
            f" (quartiles {q1:.4f}-{q3:.4f}, {len(ratios[item])} {items}, {args.reps} reps)"
        )
    print(f"worlds {'equal' if status == 0 else 'DIFFER'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
