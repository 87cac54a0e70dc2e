"""Bresinsky's four-variable curves and concatenations of arithmetic sequences."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .groebner import ComputationLimitExceeded, buchberger
from .orders import MonomialOrder
from .poly import Polynomial
from .resolution import betti_numbers
from .semigroup import NumericalSemigroup
from .toric import MonomialCurve, _apery_kernel, eta_check, parametrization_kernel

_BRESINSKY_VARS = ("x1", "x2", "x3", "x4")

# what family_sweep records as a row's error: bad parameters and size guards
_ROW_ERRORS = (ValueError, OverflowError, ComputationLimitExceeded)


@dataclass(frozen=True)
class BresinskyInstance:
    """Sequence (q1*q2, q1*d1, q1*q2 + d1, q2*d1) with q1 = q2+1, d1 = q2-1.

    Variable x_i carries weight n[i-1]; this assignment is the one under
    which every listed generator is weighted-homogeneous.
    """
    q2: int
    q1: int
    d1: int
    n: tuple[int, int, int, int]
    variables: tuple[str, str, str, str] = _BRESINSKY_VARS

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return self.n


def bresinsky_sequence(q2: int) -> BresinskyInstance:
    if not isinstance(q2, int) or q2 < 4 or q2 % 2:
        raise ValueError("q2 must be an even integer >= 4")
    q1, d1 = q2 + 1, q2 - 1
    # gcd(n) = 1 needs no check: gcd(q1*q2, q2*d1) = q2, gcd(q2, q1*d1) = 1
    n = (q1 * q2, q1 * d1, q1 * q2 + d1, q2 * d1)
    return BresinskyInstance(q2, q1, d1, n)


def bresinsky_generators(inst: BresinskyInstance) -> list[Polynomial]:
    """The 2*q2 binomials: the f_mu family, the h_m family, g1 and g2."""
    q1, q2, d1 = inst.q1, inst.q2, inst.d1
    vars4 = inst.variables

    def binom(plus, minus):
        return Polynomial(vars4, {tuple(plus): 1, tuple(minus): -1})

    gens = []
    for mu in range(1, q2 + 1):
        gens.append(binom((mu - 1, 0, q2 - mu, 0), (0, q2 - mu, 0, mu + 1)))
    for m in range(1, q2 - 1):
        gens.append(binom((m, 0, 0, q1 - m), (0, q2 - m, m, 0)))
    gens.append(binom((d1, 0, 0, 0), (0, q2, 0, 0)))
    gens.append(binom((0, 0, 1, 1), (1, 1, 0, 0)))
    return gens


def bresinsky_order() -> MonomialOrder:
    """Lex order induced by x3 > x2 > x1 > x4."""
    return MonomialOrder.lex(4, perm=(2, 1, 0, 3))


@dataclass(frozen=True)
class BresinskyReport:
    generates: bool
    is_gb: bool
    betti_match: bool
    betti: tuple[int, ...]
    expected_betti: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.generates and self.is_gb and self.betti_match


def verify_bresinsky(inst: BresinskyInstance, *,
                     max_basis: int | None = None) -> BresinskyReport:
    """Check the three claims about the generating set S of the instance:

    it equals the defining ideal (mutual reduction to zero), it is a
    Groebner basis under lex x3 > x2 > x1 > x4, and its Betti numbers are
    (2*q2, 4*(q2-1), 2*q2-3).  The kernel serves the first check alone:
    ``betti_numbers`` reads the Betti numbers off the Koszul homology of
    k[S]/(t^(q2*d1)) over Ap(S, q2*d1), x4 having the least weight.
    """
    gens = bresinsky_generators(inst)
    # buchberger appends to S exactly when some S-pair leaves a remainder
    s_gb = buchberger(gens, bresinsky_order(), max_basis=max_basis)
    is_gb = len(s_gb) == len(gens)

    kernel = parametrization_kernel(inst.n, inst.variables, max_basis=max_basis)
    kernel_gb = kernel.groebner_basis()
    generates = (all(not kernel_gb.normal_form(g) for g in gens)
                 and all(not s_gb.normal_form(g) for g in kernel.generators))

    betti = tuple(betti_numbers(MonomialCurve(inst.n)))
    expected = (2 * inst.q2, 4 * (inst.q2 - 1), 2 * inst.q2 - 3)
    return BresinskyReport(generates, is_gb, betti == expected, betti, expected)


@dataclass(frozen=True)
class ConcatenationInstance:
    """Generators a, a+d, ..., a+(p-2)d followed by b, b+d with d not
    dividing b - a."""
    a: int
    d: int
    b: int
    p: int
    generators: tuple[int, ...]


def _concatenation_generators(a: int, d: int, b: int, p: int) -> tuple[int, ...]:
    return tuple(a + i * d for i in range(p - 1)) + (b, b + d)


def concatenation_semigroup(a: int, d: int, b: int, p: int):
    """Validated instance plus its numerical semigroup.

    Raises ValueError when the arithmetic conditions fail or when the
    concatenated set is not a minimal generating system.
    """
    for name, v in (("a", a), ("d", d), ("b", b), ("p", p)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    if p < 3:
        raise ValueError("p must be at least 3")
    if gcd(a, d) != 1:
        raise ValueError("a and d must be coprime")
    if b <= a + (p - 2) * d:
        raise ValueError("b must exceed a + (p-2)*d")
    if (b - a) % d == 0:
        raise ValueError("d must not divide b - a")
    gens = _concatenation_generators(a, d, b, p)
    semigroup = NumericalSemigroup(gens)
    if semigroup.minimal_generators != gens:
        raise ValueError(f"{gens} is not a minimal generating system")
    return ConcatenationInstance(a, d, b, p, gens), semigroup


def _curve_row(semigroup: NumericalSemigroup, *, max_basis: int | None = None) -> dict:
    # the kernel under its x_low order, before any step under the output
    # order, for eta_check alone; the Betti numbers take no kernel
    gens = semigroup.minimal_generators
    pres = _apery_kernel(gens, max_basis=max_basis)
    betti = betti_numbers(MonomialCurve(gens))
    return {
        "beta": betti,
        "beta1": betti[0],
        "frobenius": semigroup.frobenius,
        "symmetric": semigroup.is_symmetric(),
        "eta_ok": eta_check(pres),
    }


_SWEEP_PARAMS = {"bresinsky": ("q2",), "concatenation": ("a", "d", "b", "p")}


def family_sweep(family: str, params: Iterable, *,
                 max_basis: int | None = None) -> list[dict]:
    """Batch the full pipeline over a parameter range.

    Invalid parameters and exceeded size guards are recorded as the row's
    error and never abort the sweep; any other exception, such as a broken
    internal invariant, propagates.
    """
    if family not in _SWEEP_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    names = _SWEEP_PARAMS[family]
    rows = []
    for values in params:
        values = (values,) if len(names) == 1 else tuple(values)
        row: dict = {"family": family, "params": dict(zip(names, values, strict=True))}
        try:
            if family == "bresinsky":
                gens = bresinsky_sequence(*values).n
                semigroup = NumericalSemigroup(gens)
            else:
                inst, semigroup = concatenation_semigroup(*values)
                gens = inst.generators
            row["n"] = list(gens)
            row.update(_curve_row(semigroup, max_basis=max_basis))
            row["error"] = None
        except _ROW_ERRORS as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def sweep_to_text(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        params = " ".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
        if row.get("error"):
            lines.append(f"{params}: error: {row['error']}")
        else:
            lines.append(f"{params}: n={row['n']} beta={row['beta']} "
                         f"F={row['frobenius']} symmetric={row['symmetric']}")
    return "\n".join(lines)
