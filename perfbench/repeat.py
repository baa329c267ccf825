#!/usr/bin/env python3
"""Check that a workload repeats exactly across runs.

    python3 perfbench/repeat.py --workload fixed_points --seed 1 --seconds 30

Runs the benchmark once untraced and twice traced with the same seed, then
checks that every pass of the three runs produced byte-identical outputs
and that the two traced runs report identical count metrics.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        return result, json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()

    runs = [run(args.workload, args.seed, args.seconds, trace) for trace in (0, 1, 1)]
    digests = {p["digest"] for _, record in runs for p in record["passes"]}
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
        for result, _ in runs[1:]
    ]
    problems = []
    if len(digests) != 1:
        problems.append(f"{len(digests)} distinct outputs across passes")
    problems += [f"{name}: {a} != {counts[1][name]}" for name, a in counts[0].items() if a != counts[1][name]]
    problems += [f"run {i} not correct" for i, (result, _) in enumerate(runs) if not result["correct"]]
    for line in problems:
        print(line)
    passes = sum(len(record["passes"]) for _, record in runs)
    print(f"{args.workload} seed {args.seed}: {passes} passes, {len(counts[0])} counts: "
          + ("identical" if not problems else "DIFFERENT"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
