"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] [--seeds N]

Runs the benchmark once per seed 1..N (default 10; 5 while tuning), one
run at a time, with the ``run_seconds`` of BENCHMARK.json, and prints for
each end-to-end metric the median and the distance between the first and
third quartile as a share of the median, next to a third of the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} seeds")
        for name, vals in values.items():
            q1, _, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / median(vals)
            flag = "" if spread < bounds[name] / 3 else "  WIDE"
            ok &= not flag
            print(f"  {name:<14} median {median(vals):12.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {bounds[name] / 3:.4f}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
