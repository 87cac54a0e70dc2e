"""The benchmark's recorded outputs reproduce.

``perfbench/reference.json`` holds the digest of the canonical output of
every pool operation of the benchmark (the Bresinsky commands, the betti
pool and the curve pool), recorded from the seed commit.  This runs each
one through the benchmark's own ``workloads.call`` and ``canonical`` and
compares digests, so a change that alters any pool output fails here.  It
reads ``perfbench/`` and writes nothing there.
"""

import json
from pathlib import Path

import pytest

import monocurves
import monocurves.cli  # noqa: F401  (workloads.call reaches main as monocurves.cli)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.slow
def test_pool_outputs_match_recorded_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    import workloads

    ref = json.loads((PERFBENCH / "reference.json").read_text())
    pools = {
        "bresinsky": [("bresinsky", q2) for q2 in corpus.BRESINSKY_Q2],
        "betti": [("betti", g) for g in corpus.betti_pool()],
        "curve": [("curve", g) for g in corpus.curve_pool()],
    }
    assert {kind: len(ops) for kind, ops in pools.items()} == {
        kind: len(entries) for kind, entries in ref.items()}
    differ = []
    for kind, ops in pools.items():
        for op in ops:
            out = workloads.call(monocurves, op)
            got = workloads.digest(workloads.canonical(op, out))
            if got != ref[kind][workloads.ref_key(op)]["digest"]:
                differ.append(op)
    assert not differ, differ
