#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload thermal_iv --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially, for ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median over seeds and
(Q3 - Q1) / median beside a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [str(ROOT)] + [p for p in sys.path
                             if Path(p or ".").resolve() != ROOT / "perfbench"]

from perfbench.stats import iqr_share, median  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{\"correct\""):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        spread = iqr_share(v) if len(v) >= 2 else float("nan")
        print(f"{m['name']:16} {median(v):12.6g} {spread:8.4f} "
              f"{m['bound'] / 3:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
