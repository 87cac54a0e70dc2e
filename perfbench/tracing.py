"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every binding a caller
resolves: the defining module, every module that did ``from .x import f``
and the package namespace.  Methods of ``NumericalSemigroup`` are replaced
on the class.  A span records its name, start, end, parent span, operation
id and one count taken from its arguments or result.  Spans stay in memory
and are written out once the run ends.

Untraced on purpose: ``NumericalSemigroup.contains`` and the order keys of
``MonomialOrder`` (the ``orders`` layer), and ``Polynomial`` methods.  They
are leaves called millions of times; their time lands in their callers'
self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "families", "toric", "groebner", "poly", "resolution",
          "semigroup", "derivations")


def _size(args, kwargs, result):
    return len(result.generators)


def _sizes(args, kwargs, result):
    return len(args[0]), len(result.generators)


def _division(args, kwargs, result):
    return len(args[0].terms), not result.remainder


def _syzygies(args, kwargs, result):
    return sum(result.ranks[2:])


def _units(args, kwargs, result):
    return (sum(args[0].ranks) - sum(result.ranks)) // 2


# module -> function name -> count taken at the span (or None)
FUNCTIONS = {
    "cli": {"main": None},
    "families": {"verify_bresinsky": None, "bresinsky_sequence": None,
                 "bresinsky_generators": None, "bresinsky_order": None,
                 "concatenation_semigroup": None, "family_sweep": None},
    "toric": {"parametrization_kernel": _size, "defining_ideal": None,
              "minimal_generators": None, "eta_check": None, "monomial_curve": None},
    "groebner": {"buchberger": _sizes, "reduce_basis": None,
                 "is_groebner_basis": None, "homogenize_basis": None,
                 "normal_form": None},
    "poly": {"divide": _division, "s_polynomial": None,
             "parse_polynomial": None, "poly_to_str": None},
    "resolution": {"free_resolution": _syzygies, "minimalize": _units,
                   "betti_numbers": None, "schreyer_syzygies": None},
    "semigroup": {"new_semigroup": None},
    "derivations": {"derivation_rank": None, "delta_prime": None},
}
SEMIGROUP_METHODS = {"__init__": "build", "basic_invariants": "basic_invariants",
                     "is_symmetric": "is_symmetric", "apery_set": "apery_set",
                     "gaps": "gaps", "genus": "genus"}
SEMIGROUP_QUERIES = tuple(f"semigroup.{m}" for m in SEMIGROUP_METHODS.values()
                          if m != "build")

# caller of a buchberger span -> the share it is reported under
BUCHBERGER_CALLERS = {"toric.parametrization_kernel": "elim",
                      "toric.minimal_generators": "mingens",
                      "resolution.free_resolution": "resolution",
                      "families.verify_bresinsky": "check"}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, op id, count or None]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Start a new list of spans; install() wraps into the current one."""
        self.spans, self.op, self._stack = [], -1, []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "monocurves"]
        replace = {}
        for layer, funcs in FUNCTIONS.items():
            module = sys.modules[f"monocurves.{layer}"]
            for fname, count in funcs.items():
                fn = getattr(module, fname)
                replace[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn, count))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replace[id(value)][1])
        cls = sys.modules["monocurves.semigroup"].NumericalSemigroup
        for meth, short in SEMIGROUP_METHODS.items():
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(f"semigroup.{short}", fn))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _slice(self, first_op: int, n_ops: int) -> tuple[int, int]:
        """Span index range of operations first_op .. first_op + n_ops - 1,
        which is contiguous since operations run one after another."""
        ops = [sp[4] for sp in self.spans]
        lo = next((i for i, op in enumerate(ops) if op >= first_op), len(ops))
        hi = next((i for i in range(lo, len(ops)) if ops[i] >= first_op + n_ops), len(ops))
        return lo, hi

    def dump(self, directory: Path, workload: str, seed: int, first_op: int,
             n_ops: int) -> Path:
        """Write the spans of one pass; parent indices count from its first span."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{workload}-{seed}.jsonl.gz"
        lo, hi = self._slice(first_op, n_ops)
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, op, count in self.spans[lo:hi]:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent - lo if parent >= 0 else -1,
                                     "op": op - first_op, "count": count}) + "\n")
        return path

    def layer_metrics(self, first_op: int, n_ops: int, pass_wall: float,
                      corpus_wall: float) -> dict:
        """Per-layer metrics over the spans of one pass over the corpus.

        ``pass_wall`` is that pass's wall time, the base of every share;
        ``corpus_wall`` is the corpus time in reference seconds, each
        operation at its median over the passes, reported as trace.wall_s
        to compare with the untraced wall_s.
        """
        lo, hi = self._slice(first_op, n_ops)
        spans = self.spans[lo:hi]
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent - lo] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        by_parent = defaultdict(int)        # (parent name, name) -> calls
        buchberger_s = defaultdict(float)   # caller share -> inclusive seconds
        n = defaultdict(int)                # counts taken at the spans
        outside = pass_wall
        for k, (name, t0, t1, parent, _, count) in enumerate(spans):
            pname = self.spans[parent][0] if parent >= 0 else None
            calls[name] += 1
            incl_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child[k]
            by_parent[pname, name] += 1
            if parent < 0:
                outside -= t1 - t0
            if name == "groebner.buchberger":
                buchberger_s[BUCHBERGER_CALLERS.get(pname, "reorder")] += t1 - t0
            if count is None:       # no count, or the call raised
                continue
            if name == "poly.divide":
                n["dividend_terms"] += count[0]
                n["zero_remainders"] += count[1]
            elif name == "groebner.buchberger":
                n["additions"] += count[1] - count[0]
                if pname == "toric.parametrization_kernel":
                    n["elim_basis"] += count[1]
            else:
                n[name] += count

        def layer_self(prefixes):
            return sum(v for k, v in self_s.items() if k.startswith(prefixes))

        divisions = by_parent["groebner.buchberger", "poly.divide"]
        builds = calls["semigroup.build"]
        m = {
            "toric.parametrization_kernel.calls": (calls["toric.parametrization_kernel"], "count"),
            "toric.parametrization_kernel.self_s": (self_s["toric.parametrization_kernel"], "s"),
            "toric.elim_basis_size": (n["elim_basis"], "count"),
            "toric.kernel_size": (n["toric.parametrization_kernel"], "count"),
            "groebner.buchberger.calls": (calls["groebner.buchberger"], "count"),
            "groebner.buchberger.self_s": (self_s["groebner.buchberger"], "s"),
            "groebner.buchberger.divisions": (divisions, "count"),
            "groebner.buchberger.additions": (n["additions"], "count"),
            "groebner.buchberger.useful_ratio": (n["additions"] / divisions if divisions else 0.0,
                                                 "ratio"),
        }
        for caller in ("elim", "mingens", "resolution", "reorder", "check"):
            m[f"groebner.buchberger.{caller}_s"] = (buchberger_s[caller], "s")
        divides = calls["poly.divide"]
        m.update({
            "groebner.reduce_basis.calls": (calls["groebner.reduce_basis"], "count"),
            "groebner.reduce_basis.self_s": (self_s["groebner.reduce_basis"], "s"),
            "groebner.is_groebner_basis.self_s": (self_s["groebner.is_groebner_basis"], "s"),
            "poly.divide.calls": (divides, "count"),
            "poly.divide.self_s": (self_s["poly.divide"], "s"),
            "poly.divide.zero_ratio": (n["zero_remainders"] / divides if divides else 0.0,
                                       "ratio"),
            "poly.divide.dividend_terms": (n["dividend_terms"], "count"),
            "poly.s_polynomial.calls": (calls["poly.s_polynomial"], "count"),
            "poly.s_polynomial.self_s": (self_s["poly.s_polynomial"], "s"),
            "toric.minimal_generators.calls": (calls["toric.minimal_generators"], "count"),
            "toric.minimal_generators.self_s": (self_s["toric.minimal_generators"], "s"),
            "toric.minimal_generators.buchberger_calls":
                (by_parent["toric.minimal_generators", "groebner.buchberger"], "count"),
            "resolution.free_resolution.self_s": (self_s["resolution.free_resolution"], "s"),
            "resolution.syzygies": (n["resolution.free_resolution"], "count"),
            "resolution.minimalize.self_s": (self_s["resolution.minimalize"], "s"),
            "resolution.units_cancelled": (n["resolution.minimalize"], "count"),
            "semigroup.builds": (builds, "count"),
            "semigroup.builds_per_op": (builds / n_ops, "ratio"),
            "semigroup.build_s": (self_s["semigroup.build"] + self_s["semigroup.new_semigroup"],
                                  "s"),
            "semigroup.query_s": (sum(self_s[q] for q in SEMIGROUP_QUERIES), "s"),
            "derivations.derivation_rank.self_s": (layer_self("derivations."), "s"),
            "families.verify_bresinsky.self_s": (self_s["families.verify_bresinsky"], "s"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
        })
        for layer in LAYERS:
            m[f"layer.{layer}.self_share"] = (layer_self(layer + ".") / pass_wall, "ratio")
        m["layer.untraced.self_share"] = (outside / pass_wall, "ratio")
        m["share.elimination"] = (incl_s["toric.parametrization_kernel"] / pass_wall, "ratio")
        m["share.mingens_resolution"] = (
            sum(incl_s[f] for f in ("toric.minimal_generators", "resolution.free_resolution",
                                    "resolution.minimalize")) / pass_wall, "ratio")
        m["trace.spans"] = (len(spans), "count")
        m["trace.wall_s"] = (corpus_wall, "s")
        return m
