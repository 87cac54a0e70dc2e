"""Check that traced runs repeat their counts, and measure the tracing cost.

    python3 perfbench/check_trace.py --workload bresinsky --seed 1

Runs the workload once untraced and twice traced, with the same seed and
the ``run_seconds`` of BENCHMARK.json.  Every count metric must be equal in
the two traced runs.  The tracing overhead is the traced corpus wall time
minus the untraced one.  Exits 1 if a count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from spread import ROOT, run
from tracing import Tracer


def span_cost(n: int = 200_000) -> float:
    """Seconds a span adds to one call: a traced no-op against a bare one."""
    def noop():
        return None
    traced = Tracer().wrap("noop", noop)
    times = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append(time.perf_counter() - t0)
    return (times[1] - times[0]) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    plain = run(args.workload, args.seed, seconds, 0)["metrics"]
    first, second = (run(args.workload, args.seed, seconds, 1)["metrics"] for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    differ = [k for k in counts if first[k]["value"] != second[k]["value"]]
    for k, v in first.items():
        print(f"{k:44} {v['value']:>12.6g} {second[k]['value']:>12.6g} {v['unit']}")
    traced = [first["trace.wall_s"]["value"], second["trace.wall_s"]["value"]]
    untraced = plain["wall_s"]["value"]
    spans = first["trace.spans"]["value"]
    print(f"untraced wall_s {untraced:.4f} s; traced {traced[0]:.4f} s and {traced[1]:.4f} s; "
          f"overhead {min(traced) - untraced:+.4f} s "
          f"({(min(traced) - untraced) / untraced:+.1%}) over {spans} spans")
    cost = span_cost()
    print(f"a span costs {cost * 1e6:.2f} us, so {spans} spans add about "
          f"{cost * spans:.3f} s ({cost * spans / untraced:.2%} of the untraced wall_s)")
    if differ:
        print("counts differ between traced runs: " + ", ".join(differ))
        return 1
    print(f"all {len(counts)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
