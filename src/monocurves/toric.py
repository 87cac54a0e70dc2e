"""Defining ideals of monomial curves from their lattices, minimal generators."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import gcd
from operator import add, itemgetter, le, sub
from typing import Sequence

from .groebner import GroebnerBasis, _complete, _complete_with
from .orders import MonomialOrder
from .poly import (Polynomial, _check_variables, divide, exp_add, exp_lcm,
                   exp_sub)
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class MonomialCurve:
    """Affine curve t -> (t^n0, ..., t^np) for a minimal generator sequence,
    in the variables x0, ..., xp."""
    exponents: tuple[int, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(len(self.exponents)))

    @property
    def weights(self) -> tuple[int, ...]:
        return self.exponents


def monomial_curve(exponents: Sequence[int]) -> MonomialCurve:
    exponents = tuple(exponents)
    minimal = NumericalSemigroup(exponents).minimal_generators
    if minimal != exponents:
        raise ValueError(f"{exponents} is not a sorted minimal generating "
                         f"sequence (minimal system is {minimal})")
    return MonomialCurve(exponents)


@dataclass(frozen=True)
class GradedIdealPresentation:
    """Weighted-homogeneous generators of an ideal, with their grading.

    ``generators`` form a Groebner basis with respect to ``order`` unless
    ``minimal_generators`` built the presentation: then they are merely a
    minimal generating set and ``beta1`` holds their count.
    ``free_resolution`` takes only the basis, raising ValueError otherwise.
    """
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    order: MonomialOrder
    generators: tuple[Polynomial, ...]
    beta1: int | None = None

    def groebner_basis(self) -> GroebnerBasis:
        return GroebnerBasis(self.generators, self.order)


def _lattice_basis(exponents: tuple[int, ...]) -> list[tuple[int, ...]]:
    """A basis of the lattice {v : sum v_i n_i = 0}.

    Integer column operations (Euclid on the entries) reduce the row n to
    a single entry gcd(n) = 1; the other columns of the unimodular matrix
    that did it span the kernel.
    """
    n = len(exponents)
    row = list(exponents)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    live = list(range(n))
    while len(live) > 1:
        piv = min(live, key=lambda j: row[j])
        for j in live:
            if j != piv:
                q = row[j] // row[piv]
                row[j] -= q * row[piv]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[piv])]
        live = [j for j in live if row[j]]
    return [tuple(cols[j]) for j in range(n) if j != live[0]]


def _normal_form(m: tuple[int, ...], basis) -> tuple[int, ...]:
    """Rewrite the monomial m by the first binomial (lead, tail) of basis
    whose lead divides it, x^m -> x^(m - lead + tail), until none does."""
    while True:
        for lead, tail in basis:
            if all(map(le, lead, m)):
                m = tuple(map(add, map(sub, m, lead), tail))
                break
        else:
            return m


def _spair_remainder(basis, key, i: int, j: int):
    """The S-pair of x^a - x^b and x^c - x^d is x^(L-c+d) - x^(L-a+b) with
    L = lcm(a, c); its remainder on division by the monic binomials of basis
    is the difference of the two normal forms, oriented by key, or None."""
    (a, b), (c, d) = basis[i], basis[j]
    lcm = exp_lcm(a, c)
    p = _normal_form(exp_add(exp_sub(lcm, a), b), basis)
    q = _normal_form(exp_add(exp_sub(lcm, c), d), basis)
    if p == q:
        return None
    return (p, q) if key(p) > key(q) else (q, p)


def _reduced(basis, key) -> list:
    """The reduced basis: leads that another lead divides are dropped, then
    each tail is brought to normal form against the others in turn."""
    kept = []
    for g in sorted(basis, key=lambda g: key(g[0])):
        if not any(all(map(le, h[0], g[0])) for h in kept):
            kept.append(g)
    for i, (lead, tail) in enumerate(kept):
        kept[i] = (lead, _normal_form(tail, kept[:i] + kept[i + 1:]))
    return kept


def parametrization_kernel(exponents: Sequence[int],
                           variables: Sequence[str] | None = None, *,
                           max_basis: int | None = None) -> GradedIdealPresentation:
    """Reduced Groebner basis of the kernel of x_i -> t^(exponents[i]).

    Works for any positive exponent assignment with gcd 1; the exponents
    need not be sorted or distinct.  The kernel is the toric ideal of the
    lattice L = {v : sum v_i n_i = 0}, the saturation of the ideal of the
    binomials x^(v+) - x^(v-) of a lattice basis by the product of all
    variables (Sturmfels, Groebner Bases and Convex Polytopes, ch. 12).
    One variable at a time, the basis is completed under the weighted
    grevlex order with weights n_i and x_i last, and x_i is divided out of
    each element, which leaves a Groebner basis of the saturation by x_i
    (Bayer and Stillman).  The last variable is x_p, so the last
    completion already runs under the output order.  max_basis bounds
    every intermediate basis (ComputationLimitExceeded).

    Every ideal on the way is binomial, so the loop holds each monic
    binomial x^lead - x^tail as the exponent pair (lead, tail) and runs the
    pair queue of ``_complete_with`` on it: dividing a monomial by a monic
    binomial gives a monomial, so the remainder of x^p - x^q is the
    difference of the two first-match normal forms, zero exactly when they
    meet.  The steps, the intermediate bases and the output are those of the
    same loop on Polynomials; the pairs become Polynomials once, at the end.
    """
    exponents = tuple(exponents)
    if not exponents or any(not isinstance(n, int) or n < 1 for n in exponents):
        raise ValueError("exponents must be positive integers")
    g = 0
    for n in exponents:
        g = gcd(g, n)
    if g != 1:
        raise ValueError("exponents must have gcd 1")
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    else:
        variables = tuple(variables)
        if len(variables) != len(exponents):
            raise ValueError("one variable per exponent")
        _check_variables(variables)
    basis = [(tuple(max(a, 0) for a in v), tuple(max(-a, 0) for a in v))
             for v in _lattice_basis(exponents)]
    nvars = len(exponents)
    order = MonomialOrder.weighted(exponents)
    for i in range(nvars):
        step = order if i == nvars - 1 else MonomialOrder.weighted(
            exponents, tuple(j for j in range(nvars) if j != i) + (i,))
        key = step.key
        basis = [(u, v) if key(u) > key(v) else (v, u) for u, v in basis]
        _complete_with(basis, itemgetter(0), partial(_spair_remainder, basis, key),
                       0, max_basis)
        saturated = []
        for u, v in basis:
            k = min(u[i], v[i])
            saturated.append((u[:i] + (u[i] - k,) + u[i + 1:],
                              v[:i] + (v[i] - k,) + v[i + 1:]))
        basis = _reduced(saturated, key)
    return GradedIdealPresentation(
        variables, exponents, order,
        tuple(Polynomial._raw(variables, {u: 1, v: -1}) for u, v in basis))


def defining_ideal(curve: MonomialCurve, *,
                   max_basis: int | None = None) -> GradedIdealPresentation:
    """Groebner presentation of the prime ideal of relations of the curve."""
    return parametrization_kernel(curve.exponents, curve.variables,
                                  max_basis=max_basis)


def minimal_generators(pres: GradedIdealPresentation) -> GradedIdealPresentation:
    """Greedy graded minimalization; the retained count is beta_1.

    Generators are scanned by increasing weighted degree and one is dropped
    exactly when it reduces to zero against the ideal of those already
    retained.  Graded Nakayama makes the count independent of tie order.
    One Groebner basis grows along the scan: only new pairs are completed.
    The generators are weighted-homogeneous with positive weights, so a
    basis truncated at D, the largest generator degree, decides membership
    in every degree up to D: no pair whose lcm lies above D is queued.
    """
    weights, order = pres.weights, pres.order
    for g in pres.generators:
        if not g.is_weighted_homogeneous(weights):
            raise ValueError(f"non-homogeneous generator {g}")
    ordered = sorted(pres.generators,
                     key=lambda g: (g.weighted_degree(weights), g.sort_key()))
    bound = (weights, max((g.weighted_degree(weights) for g in ordered), default=0))
    retained: list[Polynomial] = []
    basis: list[Polynomial] = []
    for g in ordered:
        if basis and not divide(g, basis, order).remainder:
            continue
        retained.append(g)
        basis.append(g.monic(order))
        _complete(basis, order, len(basis) - 1, bound=bound)
    return replace(pres, generators=tuple(retained), beta1=len(retained))


def eta_check(pres: GradedIdealPresentation,
              exponents: Sequence[int] | None = None) -> bool:
    """True iff every generator vanishes under x_i -> t^(exponents[i])."""
    exponents = tuple(exponents) if exponents is not None else pres.weights
    target = ("t",)
    images = [Polynomial.monomial(target, (e,)) for e in exponents]
    return all(not g.substitute(images) for g in pres.generators)
