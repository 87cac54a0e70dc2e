"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload curves --seeds 1-10

Runs are sequential, from the repository root, with the ``run_seconds`` of
BENCHMARK.json.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  The per-run values are saved to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for seed in seeds(args.seeds):
        runs[seed] = run(args.workload, seed, bench["run_seconds"], 0)["metrics"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                           for k, v in runs[seed].items()), flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps(runs, indent=1))
    print(f"{'metric':44} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} bound")
    for name in next(iter(runs.values())):
        values = [r[name]["value"] for r in runs.values()]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:44} {med:11.5g} {q1:11.5g} {q3:11.5g} {(q3 - q1) / med:7.3f} "
              f"{bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
