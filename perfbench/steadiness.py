"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/steadiness.py --workload cli-reports --runs 10

The runs are untraced and use seeds 1 to --runs. The spread is the distance
between the first and third quartile of the runs' values, as a share of
their median, next to the metric's bound in BENCHMARK.json. The runs' result
lines are appended to .perfbench-out/steadiness-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench-out" / f"steadiness-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in range(1, args.runs + 1):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']}"
              f" of {result['attempted']}", flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = summary.quartile_spread(values) if len(values) > 1 else 0.0
        bound = bounds[name]
        print(f"{name:34} median {statistics.median(values):12.6g}  spread {spread:6.3f}"
              f"  bound {bound}  {'ok' if spread < bound / 3 else 'ABOVE a third of bound'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
