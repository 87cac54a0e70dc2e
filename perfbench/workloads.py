"""What one operation of each workload calls, and how its output is checked.

Operations call the program through its public API only, resolving every
function on the ``monocurves`` package at call time, so that the tracer's
wrappers see each call.  Checks run after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from oracle import facts

# failure classes, in the order they are reported
VALIDATION = "validation"    # CLI exit 1, or ValueError / OverflowError
GUARD = "guard"              # CLI exit 2, or ComputationLimitExceeded
EXCEPTION = "exception"      # anything else raised, AssertionError included
WRONG = "wrong_output"       # ran, but an output check failed
FAILURE_CLASSES = (VALIDATION, GUARD, EXCEPTION, WRONG)


def ref_key(op) -> str:
    kind, arg = op
    return str(arg) if kind == "bresinsky" else ",".join(map(str, arg))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


# ---- operations -------------------------------------------------------------

def _cli(mc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mc.cli.main(argv + ["--format", "json"])
    return rc, out.getvalue()


def _curve(mc, gens):
    s = mc.new_semigroup(gens)
    pres = mc.parametrization_kernel(gens)
    mini = mc.minimal_generators(pres)
    res = mc.minimalize(mc.free_resolution(pres))
    eta = mc.eta_check(pres)
    kraft = mc.derivation_rank(s)
    gb = mc.reduce_basis(mc.buchberger(pres.generators,
                                       mc.MonomialOrder.grevlex(len(gens))))
    hom = mc.homogenize_basis(gb)
    return s.minimal_generators, pres, mini, res, eta, kraft, gb, hom


def _semigroup(mc, gens):
    s = mc.new_semigroup(gens)
    inv = s.basic_invariants()
    symmetric = s.is_symmetric()
    apery = s.apery_set(s.multiplicity).elements
    kraft = mc.derivation_rank(s)
    return inv, symmetric, apery, kraft.delta_prime, kraft.mu


def call(mc, op):
    """Run one operation; returns its raw output, or raises."""
    kind, arg = op
    if kind == "bresinsky":
        return _cli(mc, ["bresinsky", "--q2", str(arg), "--verify"])
    if kind == "betti":
        return _cli(mc, ["betti", *map(str, arg)])
    if kind == "curve":
        return _curve(mc, arg)
    if kind == "semigroup":
        return _semigroup(mc, arg)
    raise ValueError(f"unknown operation kind {kind!r}")


def exit_class(op, out) -> str | None:
    """Failure class of a CLI operation's exit code (None for success)."""
    if op[0] not in ("bresinsky", "betti") or out[0] == 0:
        return None
    return {1: VALIDATION, 2: GUARD}.get(out[0], EXCEPTION)


def classify_exception(mc, exc: BaseException) -> str:
    if isinstance(exc, mc.ComputationLimitExceeded):
        return GUARD
    if isinstance(exc, (ValueError, OverflowError)):
        return VALIDATION
    return EXCEPTION


# ---- canonical outputs and checks ------------------------------------------

def canonical(op, out) -> str:
    """Deterministic text of an operation's output, digested for the
    comparison with the outputs recorded from the seed commit."""
    kind, _ = op
    if kind in ("bresinsky", "betti"):
        return out[1]
    if kind == "curve":
        mins, pres, mini, res, eta, kraft, gb, hom = out
        return json.dumps({
            "semigroup": list(mins),
            "kernel": [str(g) for g in pres.generators],
            "minimal_generators": [str(g) for g in mini.generators],
            "beta1": mini.beta1,
            "resolution": res.to_json_dict(),
            "eta": eta,
            "delta_prime": sorted(kraft.delta_prime),
            "mu": kraft.mu,
            "grevlex": [str(g) for g in gb.generators],
            "homogenized": [str(g) for g in hom],
        }, sort_keys=True)
    raise ValueError(f"no recorded output for {kind!r}")


def _betti_problems(gens, ranks) -> list[str]:
    """Resolution facts that hold for every monomial curve."""
    problems = []
    if sum((-1) ** i * r for i, r in enumerate(ranks)) != 0:
        problems.append(f"ranks {ranks} have nonzero alternating sum")
    if len(ranks) - 1 != len(gens) - 1:
        problems.append(f"length {len(ranks) - 1} is not e - 1 = {len(gens) - 1}")
    t = facts(gens).type
    if ranks[-1] != t:
        problems.append(f"last Betti number {ranks[-1]} is not the type {t}")
    return problems


def problems(op, out, ref) -> list[str]:
    """Everything wrong with an output; empty when it is correct.

    ``ref`` is the recorded digest (None for semigroups, whose whole output
    the oracle recomputes).
    """
    kind, arg = op
    found: list[str] = []
    if kind in ("bresinsky", "betti"):
        payload = json.loads(out[1])
        if kind == "bresinsky":
            q2 = arg
            want = [2 * q2, 4 * (q2 - 1), 2 * q2 - 3]
            if payload.get("beta") != want:
                found.append(f"beta {payload.get('beta')} is not {want}")
            if payload.get("gb") is not True or payload.get("generates") is not True:
                found.append("gb or generates is not true")
        else:
            found += _betti_problems(arg, [1] + payload["betti"])
    elif kind == "curve":
        mins, pres, mini, res, eta, kraft, gb, hom = out
        if tuple(mins) != tuple(arg):
            found.append(f"minimal generators {mins}")
        if res.betti[0] != mini.beta1:
            found.append(f"beta1 {mini.beta1} is not the first Betti number {res.betti[0]}")
        found += _betti_problems(arg, res.ranks)
        if eta is not True:
            found.append("a kernel generator does not vanish on the curve")
        pf = facts(arg).pseudo_frobenius
        if sorted(kraft.delta_prime) != list(pf) or kraft.mu != len(pf) + 1:
            found.append("delta' is not PF(S)")
    elif kind == "semigroup":
        inv, symmetric, apery, delta_prime, mu = out
        f = facts(arg)
        got = (inv.multiplicity, inv.embedding_dimension, inv.frobenius,
               inv.conductor, inv.genus, symmetric, apery, sorted(delta_prime), mu)
        want = (f.multiplicity, f.embedding_dimension, f.frobenius, f.conductor,
                f.genus, f.symmetric, f.apery, list(f.pseudo_frobenius), f.type + 1)
        if got != want:
            found.append("invariants differ from the Apéry oracle")
        return found
    if ref is not None and digest(canonical(op, out)) != ref:
        found.append("output differs from the seed commit's")
    return found
