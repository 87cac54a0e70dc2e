"""Record the reference outputs that the benchmark compares against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

For every pool entry (the two Bresinsky commands, the betti pool and the
curve pool) it stores the digest of the operation's canonical output and
its cost: the median of its times over two passes, in the reference
seconds of ``run.calibrate``.  The costs only sort each pool into cost
bands and pick the pinned operations, so that every seeded corpus holds
inputs of the same sizes.  An output that fails the structural checks is
not recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import workloads  # noqa: E402
from run import ROOT, load_program, run_pass  # noqa: E402

REPEATS = 2


def measure(ops) -> dict:
    """Digest and cost of each operation, keyed as in reference.json."""
    times: list[list[float]] = [[] for _ in ops]
    digests = []
    for r in range(REPEATS):
        for i, rec in enumerate(run_pass(load_program(ROOT), ops)):
            bad = [rec.failure] if rec.failure else workloads.problems(rec.op, rec.out, None)
            if bad:
                raise SystemExit(f"{rec.op}: {'; '.join(bad)}")
            if r == 0:
                digests.append(workloads.digest(workloads.canonical(rec.op, rec.out)))
            times[i].append(rec.ref_seconds)
    return {workloads.ref_key(op): {"digest": d, "cost_s": round(statistics.median(t), 4)}
            for op, d, t in zip(ops, digests, times)}


def main() -> int:
    groups = {
        "bresinsky": [("bresinsky", q2) for q2 in corpus.BRESINSKY_Q2],
        "betti": [("betti", g) for g in corpus.betti_pool()],
        "curve": [("curve", g) for g in corpus.curve_pool()],
    }
    ref = {kind: measure(ops) for kind, ops in groups.items()}
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in ref.values())} outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
