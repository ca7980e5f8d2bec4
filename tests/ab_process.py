"""Time the honest processes of another checkout's `crowdreg` against this
working tree's, interleaved in one interpreter.

    python tests/ab_process.py PARENT [--workload history-hash] [--seed 1] [--slots N] [--reps 5]

PARENT is the root of another checkout, typically of the parent commit, made
for example with `git worktree add /tmp/parent HEAD~1`. Give `.` for an A/A
run of the working tree against itself, which shows the tool's own noise.

Each side's `src/crowdreg` is loaded under a package name of its own, and this
checkout's `pipebench/pipeline.py` is loaded once against each, so both
sides run pipebench's own `Round` unedited. Each rep builds one world per
side from the same seed-N inputs and walks the slots in order: every honest
slot runs `Round._process` on both sides, in alternating order (odd reps
also build the worlds in the other order), and its `latency_s` (the CPU
time that `process_p50_ms` scales) is taken; every other
slot runs untimed through `Round._slot`, so attacks change both worlds alike.
Scans and audits are left out, since no process reads what they change.

It prints the median and quartiles of the per-process ratio (this tree over
PARENT) and each side's median process time, and exits 1 if the two worlds'
`dump_hashes()` or outcomes differ after any rep. Stdlib only, and not
collected by pytest.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


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
    """One interleaved round: (per-process times by side, dump hashes by
    side, outcomes by side). Odd reps build the worlds and start each pair
    of processes in the other order."""
    rounds, inputs = {}, {}
    first = SIDES if rep % 2 == 0 else SIDES[::-1]
    for side in first:
        pipeline, workloads = sides[side]
        inputs[side] = workloads.make_inputs(workloads.WORKLOADS[workload], seed, slots)
        rounds[side] = pipeline.Round(inputs[side])
        rounds[side].world = pipeline.World(inputs[side])
    times = {side: [] for side in sides}
    gc.collect()
    for i, slot in enumerate(inputs[SIDES[0]].slots):
        order = first if i % 2 == 0 else first[::-1]
        if slot.kind != "honest":
            for side in order:
                rounds[side]._slot(inputs[side].slots[i])
            continue
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
            for side in sides:
                times[side].append(latencies[side])
    hashes = {side: r.world.dump_hashes() for side, r in rounds.items()}
    outcomes = {side: (r.outcomes.attempted, dict(r.outcomes.failed)) for side, r in rounds.items()}
    return times, hashes, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", default="history-hash")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--slots", type=int, default=None, help="slots per round (default: the workload's)")
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    sides = {"parent": load_side("parent", args.parent.resolve()), "change": load_side("change", ROOT)}
    ratios, medians, status = [], {side: [] for side in SIDES}, 0
    for rep in range(args.reps):
        times, hashes, outcomes = run_rep(sides, args.workload, args.seed, args.slots, rep)
        ratios += [c / p for p, c in zip(times["parent"], times["change"])]
        for side in SIDES:
            medians[side].append(statistics.median(times[side]) * 1e3)
        if hashes["parent"] != hashes["change"] or outcomes["parent"] != outcomes["change"]:
            print(f"rep {rep}: the worlds differ: dumps {hashes}, outcomes {outcomes}")
            status = 1
        attempted, failed = outcomes["change"]
        print(
            f"rep {rep}: {len(times['change'])} processes, median ms parent {medians['parent'][-1]:.4f}"
            f" change {medians['change'][-1]:.4f}, {attempted} slots, failed {failed or 0}"
        )
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"{args.workload} seed {args.seed}: median per-process ratio change/parent {q2:.4f}"
        f" (quartiles {q1:.4f}-{q3:.4f}, {len(ratios)} processes, {args.reps} reps); "
        f"dumps {'equal' if status == 0 else 'DIFFER'}"
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
