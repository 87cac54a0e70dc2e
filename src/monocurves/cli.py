"""Command-line interface with deterministic text and JSON output."""

from __future__ import annotations

import argparse
import json
import sys

from .derivations import derivation_rank
from .families import (_concatenation_generators, bresinsky_generators,
                       bresinsky_sequence, family_sweep, sweep_to_text,
                       verify_bresinsky)
from .groebner import (ComputationLimitExceeded, GroebnerBasis, buchberger,
                       homogenize_basis, reduce_basis)
from .orders import _KINDS, MonomialOrder
from .resolution import betti_numbers, free_resolution, minimalize
from .semigroup import NumericalSemigroup
from .toric import MonomialCurve, defining_ideal, minimal_generators

SCHEMA = "monocurves/1"

DEFAULT_MAX_VARS = 6
DEFAULT_MAX_CONDUCTOR = 10_000
DEFAULT_MAX_GB = 5000
_GUARDS = {"--max-vars": DEFAULT_MAX_VARS, "--max-conductor": DEFAULT_MAX_CONDUCTOR,
           "--max-gb": DEFAULT_MAX_GB}


class _Parser(argparse.ArgumentParser):
    # exit 1 on anything malformed; exit 2 is reserved for guard violations
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bound(text: str) -> int:
    """A guard flag's value: an int >= 0, else a usage error (exit 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _guard(ok: bool, what: str):
    if not ok:
        raise ComputationLimitExceeded(what)


def _check_guards(gens, args):
    _guard(len(gens) <= args.max_vars,
           f"{len(gens)} variables exceed the bound {args.max_vars}")
    _check_conductor(gens, args)


def _check_conductor(gens, args):
    if len(gens) > 1:
        # conductor is bounded by n0 * np; cheap to test before any table is built
        _guard(min(gens) * max(gens) <= args.max_conductor,
               f"conductor bound {min(gens) * max(gens)} exceeds {args.max_conductor}")


def _semigroup(gens, args) -> NumericalSemigroup:
    if any(g < 1 for g in gens):
        raise ValueError("generators must be positive integers")
    _check_guards(gens, args)
    return NumericalSemigroup(gens)


def _curve(gens, args) -> MonomialCurve:
    # monomial_curve would build the semigroup again only to validate these
    return MonomialCurve(_semigroup(gens, args).minimal_generators)


def _order_for(args, curve) -> MonomialOrder:
    n = len(curve.variables)
    try:
        perm = tuple(int(x) for x in args.perm.split(",")) if args.perm else tuple(range(n))
    except ValueError:
        raise ValueError("--perm wants comma-separated variable indices, "
                         f"got {args.perm!r}") from None
    weights = curve.weights if args.order == "weighted" else None
    return MonomialOrder(args.order, n, perm, weights)


def _basis_under(order, pres, args) -> GroebnerBasis:
    # pres carries the reduced basis under its own order; the zero ideal has none
    if order == pres.order or not pres.generators:
        return GroebnerBasis(pres.generators, order)
    return reduce_basis(buchberger(pres.generators, order, max_basis=args.max_gb))


def _parse_range(text: str) -> list[int]:
    """An integer n, or the inclusive range lo:hi with lo <= hi."""
    lo, sep, hi = text.partition(":")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise ValueError(f"range {text!r} is not an integer or lo:hi") from None
    if hi < lo:
        raise ValueError(f"range {text!r} is empty: {hi} < {lo}")
    return list(range(lo, hi + 1))


# ---- commands: each returns (payload dict, text lines) ---------------------

def _cmd_semigroup(args):
    s = _semigroup(args.generators, args)
    inv = s.basic_invariants()
    payload = {
        "generators": list(s.minimal_generators),
        "m": inv.multiplicity, "e": inv.embedding_dimension,
        "F": inv.frobenius, "c": inv.conductor, "genus": inv.genus,
        "symmetric": s.is_symmetric(), "gaps": sorted(s.gaps()),
    }
    text = [
        f"semigroup <{', '.join(map(str, s.minimal_generators))}>",
        f"multiplicity {inv.multiplicity}, embedding dimension {inv.embedding_dimension}",
        f"frobenius {inv.frobenius}, conductor {inv.conductor}, genus {inv.genus}",
        f"symmetric: {'yes' if payload['symmetric'] else 'no'}",
        "gaps: " + (" ".join(map(str, payload["gaps"])) or "none"),
    ]
    return payload, text


def _cmd_ideal(args):
    curve = _curve(args.generators, args)
    pres = defining_ideal(curve, max_basis=args.max_gb)
    mini = minimal_generators(pres)
    payload = {
        "generators": list(curve.exponents),
        "variables": list(curve.variables),
        "weights": list(curve.weights),
        "minimal_generators": [str(g) for g in mini.generators],
        "beta1": mini.beta1,
    }
    text = [f"defining ideal of the curve t -> {tuple(curve.exponents)}",
            f"beta1 = {mini.beta1}"]
    text += [f"  {g}" for g in mini.generators]
    return payload, text


def _cmd_groebner(args):
    curve = _curve(args.generators, args)
    pres = defining_ideal(curve, max_basis=args.max_gb)
    order = _order_for(args, curve)
    gb = _basis_under(order, pres, args)
    payload = {
        "generators": list(curve.exponents),
        "order": {"kind": order.kind, "perm": list(order.perm),
                  "weights": list(order.weights) if order.weights else None},
        "basis": [str(g) for g in gb.generators],
        "size": len(gb.generators),
    }
    text = [f"reduced Groebner basis ({order.kind}), {len(gb.generators)} elements"]
    text += [f"  {g}" for g in gb.generators]
    return payload, text


def _cmd_resolution(args):
    curve = _curve(args.generators, args)
    pres = defining_ideal(curve, max_basis=args.max_gb)
    res = free_resolution(pres)
    if not args.non_minimal:
        res = minimalize(res)
    payload = res.to_json_dict()
    payload["generators"] = list(curve.exponents)
    return payload, res.to_text().splitlines()


def _cmd_betti(args):
    curve = _curve(args.generators, args)
    betti = betti_numbers(curve)
    payload = {"generators": list(curve.exponents), "betti": betti}
    return payload, [f"betti numbers: {betti}"]


def _cmd_bresinsky(args):
    inst = bresinsky_sequence(args.q2)
    _check_conductor(inst.n, args)
    payload = {
        "q2": inst.q2, "q1": inst.q1, "d1": inst.d1, "n": list(inst.n),
        "generators": [str(g) for g in bresinsky_generators(inst)],
    }
    text = [f"bresinsky q2={inst.q2}: n = {inst.n}",
            f"|S| = {len(payload['generators'])}"]
    text += [f"  {g}" for g in payload["generators"]]
    if args.verify:
        report = verify_bresinsky(inst, max_basis=args.max_gb)
        payload.update({
            "beta": list(report.betti),
            "gb": report.is_gb,
            "generates": report.generates,
        })
        text.append(f"beta = {list(report.betti)} (expected {list(report.expected_betti)})")
        text.append(f"groebner basis: {report.is_gb}, generates: {report.generates}")
    return payload, text


def _cmd_concat_sweep(args):
    params = [(a, d, b, args.p)
              for a in _parse_range(args.a)
              for d in _parse_range(args.d)
              for b in _parse_range(args.b)]
    # the count of _concatenation_generators(a, d, b, p), checked before any
    # generator is built: p is the same at every grid point
    count = max(args.p - 1, 0) + 2
    _guard(count <= args.max_vars, f"{count} variables exceed the bound {args.max_vars}")
    for a, d, b, p in params:
        _check_guards(_concatenation_generators(a, d, b, p), args)
    rows = family_sweep("concatenation", params, max_basis=args.max_gb)
    payload = {"rows": rows}
    return payload, sweep_to_text(rows).splitlines()


def _cmd_derivations(args):
    s = _semigroup(args.generators, args)
    data = derivation_rank(s)
    payload = {
        "generators": list(s.minimal_generators),
        "delta_prime": sorted(data.delta_prime),
        "mu": data.mu,
        "generator_exponents": sorted(data.generator_exponents),
    }
    text = [f"delta' = {payload['delta_prime']}",
            f"mu(Der) = {data.mu}",
            f"derivation exponents: {payload['generator_exponents']}"]
    return payload, text


def _cmd_homogenize(args):
    curve = _curve(args.generators, args)
    pres = defining_ideal(curve, max_basis=args.max_gb)
    gb = _basis_under(MonomialOrder.grevlex(len(curve.variables)), pres, args)
    hom = homogenize_basis(gb, args.homvar)
    payload = {
        "generators": list(curve.exponents),
        "homvar": args.homvar,
        "basis": [str(g) for g in hom],
    }
    text = [f"homogenized Groebner basis (grevlex, homvar {args.homvar})"]
    text += [f"  {g}" for g in hom]
    return payload, text


def _arguments(*extra, gens=True, guards=_GUARDS):
    """A command's add_arguments: its generators unless gens is false,
    --format, the guards it reads, then each (flag, options) of extra."""
    def add(p):
        if gens:
            p.add_argument("generators", nargs="+", type=int,
                           help="semigroup generators")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in guards:
            p.add_argument(flag, type=_bound, default=_GUARDS[flag])
        for flag, options in extra:
            p.add_argument(flag, **options)
    return add


# a command takes only the guards it reads: no Groebner basis is built by
# semigroup, derivations and betti, and a Bresinsky curve always has 4 variables
_NO_BASIS = ("--max-vars", "--max-conductor")
_RANGE = {"required": True, "help": "value or range lo:hi"}

# name: (handler, help, add_arguments), in the order the help lists them
_COMMANDS = {
    "semigroup": (_cmd_semigroup, "invariants, gaps, symmetry",
                  _arguments(guards=_NO_BASIS)),
    "ideal": (_cmd_ideal, "minimal generators of the defining ideal", _arguments()),
    "groebner": (_cmd_groebner, "reduced Groebner basis of the defining ideal", _arguments(
        ("--order", {"choices": _KINDS, "default": "weighted"}),
        ("--perm", {"help": "comma-separated variable priority, e.g. 2,1,0,3"}))),
    "resolution": (_cmd_resolution, "graded free resolution", _arguments(
        ("--non-minimal", {"action": "store_true",
                           "help": "emit the raw Schreyer resolution"}))),
    "betti": (_cmd_betti, "Betti numbers of the defining ideal",
              _arguments(guards=_NO_BASIS)),
    "bresinsky": (_cmd_bresinsky, "Bresinsky instance and verification", _arguments(
        ("--q2", {"type": int, "required": True}), ("--verify", {"action": "store_true"}),
        gens=False, guards=("--max-conductor", "--max-gb"))),
    "concat-sweep": (_cmd_concat_sweep, "sweep concatenation semigroups over a grid",
                     _arguments(("--a", _RANGE), ("--d", _RANGE), ("--b", _RANGE),
                                ("--p", {"type": int, "default": 3}), gens=False)),
    "derivations": (_cmd_derivations, "Kraft data of the derivation module",
                    _arguments(guards=_NO_BASIS)),
    "homogenize": (_cmd_homogenize, "homogenized Groebner basis (projective closure)",
                   _arguments(("--homvar", {"default": "h"}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, as ``main`` builds it for help and errors."""
    return _parser(_COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    parser = _Parser(prog="monocurves",
                     description="numerical semigroups, monomial curves, "
                                 "Groebner bases and free resolutions")
    # one command alone keeps the usage line argparse derives from all; the
    # full parser leaves metavar unset: its errors name the argument by it
    metavar = {} if len(names) == len(_COMMANDS) else {
        "metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in names:
        _, summary, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build the parser of the command named alone; anything else (no command,
    # -h, an unknown name, an option first) gets every command's, as for help
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = _parser(names).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload, text = _COMMANDS[args.command][0](args)
    except ComputationLimitExceeded as exc:
        print(f"error: computation exceeds configured bounds ({exc})",
              file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
