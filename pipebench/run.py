"""Run the crowdreg pipeline benchmark.

    python3 pipebench/run.py --workload history-hash --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it is
the run's detail (rounds, dump hashes, per-kind failures, calibration).
``--workload all`` runs every workload untraced and traced in child
processes and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_all(seed: int, seconds: int) -> int:
    from pipebench.bench import KNOWN_DEFECTS
    from pipebench.workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, check=True,
            ).stdout.splitlines()
            detail, result = json.loads(out[-2]), json.loads(out[-1])
            print(f"\n== {name} ({'traced' if trace else 'untraced'}): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_ratio={detail['failed_ratio']:.6f}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:52s} {v['value']:14.4f} {v['unit']}")
            for kind, n in detail["failed_by_kind"].items():
                print(f"  failed {kind:45s} {n:6d}  {KNOWN_DEFECTS.get(kind, 'not a known seed defect')}")
            summary[f"{name}/trace{trace}"] = {"result": result, "failed_by_kind": detail["failed_by_kind"]}
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crowdreg").is_dir():
        print(f"no crowdreg sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)

    from pipebench.bench import run
    from pipebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
