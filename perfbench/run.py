"""Benchmark runner for monocurves.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process, one thread, closed loop: the next
operation starts when the previous one returns.  A run makes whole passes
over the workload's corpus (drawn from the seed), at least three and more
while the next fits in S seconds, importing the program afresh before each.
Every output is checked, outside the timed region.

Times are in reference seconds: each block of operations is bracketed by a
fixed calibration kernel, which converts measured seconds to those of a
machine running at a fixed speed (see ``calibrate``).  Each corpus
operation's time is its median over the passes; the end-to-end metrics
(``--trace 0``) are taken over those times.  The per-layer metrics
(``--trace 1``) come from spans recorded around the program's public
functions during the fastest pass, so their counts repeat exactly.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output is correct, 1 when one is not, and 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("bresinsky", "curves", "semigroups")


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path):
    """Import ``monocurves`` afresh from ``root/src``, and only from there."""
    src = (root / "src").resolve()
    if not (src / "monocurves" / "__init__.py").is_file():
        raise ProgramMissing(f"no monocurves package under {src}")
    for name in [n for n in sys.modules if n.split(".")[0] == "monocurves"]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mc = importlib.import_module("monocurves")
    importlib.import_module("monocurves.cli")
    if Path(mc.__file__).resolve().parent != src / "monocurves":
        raise ProgramMissing(f"monocurves was imported from {mc.__file__}")
    return mc


def _costs(ref, kind):
    return {tuple(map(int, k.split(","))): v["cost_s"] for k, v in ref[kind].items()}


def setup(workload: str, seed: int):
    """Import the program, load the reference outputs, draw the corpus."""
    load_program(ROOT)
    ref = json.loads((HERE / "reference.json").read_text())
    if workload == "bresinsky":
        ops = corpus.bresinsky_corpus(seed, _costs(ref, "betti"))
    elif workload == "curves":
        ops = corpus.curves_corpus(seed, _costs(ref, "curve"))
    else:
        ops = corpus.semigroups_corpus(seed)
    return ref, ops


# ---- calibration -------------------------------------------------------------
#
# A shared machine runs fast or slow by up to a third, in spells from under a
# second to minutes.  Every timed interval is therefore bracketed by a fixed
# calibration kernel, and its time is converted to reference seconds: the
# seconds it would take on a machine where the kernel takes CAL_REFERENCE_S.

CAL_REFERENCE_S = 0.020
BLOCK_S = 0.2            # operations are calibrated in blocks of about this length
_CAL_EXPS = [tuple((i * k) % 5 for k in (1, 2, 3, 5, 7, 11)) for i in range(13)]
_CAL_TABLE = bytearray(b"\x01\x00\x01") * 70_000
_ZERO = Fraction(0)


def calibration_kernel(n: int = 1500) -> int:
    """Fixed work in the style of the program's inner loops: exponent tuples
    added through zip and hashed, and rational coefficients summed in a dict,
    as in polynomial division; then a table of 210 000 flags read into a
    tuple, as in building a semigroup's membership table."""
    terms: dict = {}
    for i in range(n):
        exp = tuple(a + b for a, b in zip(_CAL_EXPS[i % 13], _CAL_EXPS[i % 7]))
        terms[exp] = terms.get(exp, _ZERO) + Fraction(i, i % 9 + 1)
    table = tuple(bool(_CAL_TABLE[i]) for i in range(len(_CAL_TABLE)))
    return len(terms) + len(table)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second between two calibrations."""
    return 2 * CAL_REFERENCE_S / (before + after)


@dataclass
class Record:
    op: tuple
    seconds: float           # measured
    out: object = None
    failure: str | None = None
    detail: str = ""
    ref_seconds: float = math.nan


def _run_one(mc, i, op, tracer) -> Record:
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        out = workloads.call(mc, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Record(op, time.perf_counter() - t0, None,
                      workloads.classify_exception(mc, exc), repr(exc))
    return Record(op, time.perf_counter() - t0, out, workloads.exit_class(op, out))


def run_pass(mc, ops, tracer=None) -> list:
    """One pass over the corpus, in blocks of about BLOCK_S seconds with a
    calibration before and after each; every operation of a block is scaled
    by the mean speed of its two calibrations."""
    records = []
    before, block, block_start = calibrate(), [], time.perf_counter()
    for i, op in enumerate(ops):
        block.append(_run_one(mc, i, op, tracer))
        if time.perf_counter() - block_start >= BLOCK_S or i == len(ops) - 1:
            after = calibrate()
            for rec in block:
                rec.ref_seconds = rec.seconds * scale(before, after)
            records += block
            before, block, block_start = after, [], time.perf_counter()
    return records


MIN_PASSES = 3


@dataclass
class Outcome:
    records: list          # every operation run, over all passes
    times: list            # per corpus operation, its median over the passes, in reference s
    pass_walls: list       # measured corpus time of each pass (operations only)
    traced: tuple = ()     # (spans, pass wall) of the fastest traced pass


def execute(ops, seconds: float, ref, tracer=None) -> Outcome:
    """Closed loop: whole passes over the corpus, at least MIN_PASSES, and
    more while the next one fits in ``seconds``.

    The program is imported afresh before each pass, so no state, and no
    cache, outlives a pass; within a pass no input repeats.  Outputs are
    checked after each pass, outside the timed region.
    """
    start = time.perf_counter()
    per_op: list[list[float]] = [[] for _ in ops]
    out = Outcome([], [], [])
    last = 0.0             # elapsed time of the last pass, calibration and checks included
    while len(out.pass_walls) < MIN_PASSES or time.perf_counter() - start + last < seconds:
        pass_start = time.perf_counter()
        mc = load_program(ROOT)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            done = run_pass(mc, ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = sum(rec.seconds for rec in done)
        out.pass_walls.append(wall)
        if tracer is not None and (not out.traced or wall < out.traced[1]):
            out.traced = (tracer.spans, wall)
        for i, rec in enumerate(done):
            per_op[i].append(rec.ref_seconds)
        check(done, ref)
        out.records += done
        last = time.perf_counter() - pass_start
    out.times = [statistics.median(t) for t in per_op]
    return out


def check(records, ref) -> None:
    """Mark every wrong output; runs after the timed region."""
    for rec in records:
        if rec.failure is not None:
            continue
        kind = rec.op[0]
        digest = None
        if kind != "semigroup":
            digest = ref[kind][workloads.ref_key(rec.op)]["digest"]
        try:
            found = workloads.problems(rec.op, rec.out, digest)
        except Exception as exc:  # an unreadable output is a wrong one
            found = [f"check raised {exc!r}"]
        if found:
            rec.failure, rec.detail = workloads.WRONG, "; ".join(found)
        rec.out = None


def end_to_end(times, setup_times) -> dict:
    pct = statistics.quantiles(times, n=100, method="inclusive")
    return {
        "wall_s": (sum(times), "s"),
        "op_p50_s": (pct[49], "s"),
        "op_p90_s": (pct[89], "s"),
        "op_max_s": (max(times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


SETUP_REPEATS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="monocurves benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    try:
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ref, ops = setup(args.workload, args.seed)
            took = time.perf_counter() - t0
            after = calibrate()
            setup_times.append(took * scale(before, after))
            before = after
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    outcome = execute(ops, args.seconds, ref, tracer)
    records = outcome.records
    passes = len(outcome.pass_walls)
    if tracer is not None:
        tracer.spans, fastest_wall = outcome.traced
        metrics = tracer.layer_metrics(0, len(ops), fastest_wall, sum(outcome.times))
    else:
        metrics = end_to_end(outcome.times, setup_times)

    failed = [r for r in records if r.failure is not None]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{passes} passes over a corpus of {len(ops)} operations "
          f"(measured pass times {', '.join(f'{w:.3f}' for w in outcome.pass_walls)} s, "
          f"in reference seconds {sum(r.ref_seconds for r in records):.3f} s over all passes)")
    print(f"attempted {len(records)}, failed {len(failed)}, "
          f"error_rate {len(failed) / len(records):.6g}; by class: "
          + ", ".join(f"{c} {sum(r.failure == c for r in failed)}"
                      for c in workloads.FAILURE_CLASSES))
    for rec in failed[:10]:
        print(f"  failed {rec.op}: {rec.failure} {rec.detail}", file=sys.stderr)
    slowest = max(range(len(ops)), key=outcome.times.__getitem__)
    print(f"slowest operation {ops[slowest]}: {outcome.times[slowest]:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"(times in reference seconds are each corpus operation's median over "
          f"{passes} passes; latency percentiles interpolate over its {len(ops)} "
          f"operations; setup_s is the median of {SETUP_REPEATS} set-ups; per-layer "
          f"self times are measured seconds of the fastest pass)")
    if tracer is not None:
        print(f"spans of the fastest pass written to "
              f"{tracer.dump(HERE / 'out', args.workload, args.seed, 0, len(ops))}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
