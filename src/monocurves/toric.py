"""Defining ideals of monomial curves from their lattices, minimal generators."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import gcd
from typing import Sequence

from .groebner import (GroebnerBasis, PackedBinomials, basis_run, binomial_pairs,
                       binomial_polynomials, binomial_run)
from .orders import MonomialOrder
from .poly import Polynomial, _check_variables, weighted_degree
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


def parametrization_kernel(exponents: Sequence[int],
                           variables: Sequence[str] | None = None, *,
                           max_basis: int | None = None) -> GradedIdealPresentation:
    """Reduced Groebner basis of the kernel of x_i -> t^(exponents[i]).

    Works for any positive exponent assignment with gcd 1; the exponents
    need not be sorted or distinct.  The kernel I(S) is the toric ideal of
    the lattice L = {v : sum v_i n_i = 0}, the saturation of the ideal I_B
    of the binomials x^(v+) - x^(v-) of a lattice basis by the product of
    all variables (Sturmfels, Groebner Bases and Convex Polytopes, ch. 12).
    A saturation step by x_i completes the basis under the weighted grevlex
    order with weights n_i and x_i last, then divides x_i out of each
    element, which leaves a Groebner basis of the saturation by x_i (Bayer
    and Stillman), and reduces it.  max_basis bounds every intermediate
    basis (ComputationLimitExceeded); a max_basis that is not None or an
    int >= 0 raises ValueError.

    ``_certified_kernel`` gives I(S) under the order with a certified
    variable last; one more step by x_p, the last variable, completes and
    reduces it under the output order, none when that variable is x_p.

    Every ideal on the way is binomial, so each step runs on the binomial
    engine of ``groebner`` (``PackedBinomials``), count included, under
    ``_widening``.  The pairs become Polynomials at the end of each call.
    """
    pres = _certified_kernel(exponents, variables, max_basis)
    order = MonomialOrder.weighted(pres.weights)
    if pres.order == order:
        return pres
    pairs, _ = _saturation(pres.weights, order.nvars - 1, max_basis, 0,
                           binomial_pairs(pres.generators))
    return replace(pres, order=order,
                   generators=tuple(binomial_polynomials(pres.variables, pairs, order)))


def _certified_kernel(exponents: Sequence[int], variables: Sequence[str] | None = None,
                      max_basis: int | None = None) -> GradedIdealPresentation:
    """I(S), the kernel of ``parametrization_kernel``, as its reduced basis
    under the weighted grevlex order with the certified variable x_z last.

    The first step saturates by the variable x_low of least weight m.  Its
    result J = I_B : x_low^oo is certified to be I(S) when exactly m
    monomials in the other variables are divisible by no x_low-free lead:
    x_low is a nonzerodivisor on R/J and on R/I(S), J lies in I(S), and
    with x_low last in(J + (x_low)) = in(J) + (x_low), so R/(J, x_low) has
    that many dimensions and maps onto R/(I(S), x_low) = k[S]/(t^m), which
    has |Ap(S, m)| = m.  Equal dimensions give (J, x_low) = (I(S), x_low),
    and graded Nakayama J = I(S).  The count is never below m and stops at
    m + 1.  Then x_z is x_low.  Otherwise, unless x_low is x_p, the next
    step saturates by x_p and is certified the same way, with n_p in place
    of m.  Failing that, every variable other than x_low and x_p is
    saturated in turn, and then x_p again.  After a fallback x_z is x_p.
    """
    exponents = tuple(exponents)
    if not exponents or any(type(n) is not int or n < 1 for n in exponents):
        raise ValueError("exponents must be positive integers")
    if gcd(*exponents) != 1:
        raise ValueError("exponents must have gcd 1")
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    else:
        variables = tuple(variables)
        if len(variables) != len(exponents):
            raise ValueError("one variable per exponent")
        _check_variables(variables)
    pairs = [(tuple(max(a, 0) for a in v), tuple(max(-a, 0) for a in v))
             for v in _lattice_basis(exponents)]
    low, last = exponents.index(min(exponents)), len(exponents) - 1
    z = low
    pairs, count = _saturation(exponents, z, max_basis, exponents[z] + 1, pairs)
    if count != exponents[z] and z != last:
        z = last
        pairs, count = _saturation(exponents, z, max_basis, exponents[z] + 1, pairs)
    if count != exponents[z]:
        for i in [i for i in range(last) if i != low] + [last]:
            pairs, _ = _saturation(exponents, i, max_basis, 0, pairs)
    order = _last_order(exponents, z)
    return GradedIdealPresentation(variables, exponents, order,
                                   tuple(binomial_polynomials(variables, pairs, order)))


def _last_order(exponents, i: int) -> MonomialOrder:
    """The weighted grevlex order of the exponents with x_i last."""
    return MonomialOrder.weighted(
        exponents, tuple(j for j in range(len(exponents)) if j != i) + (i,))


def _saturation(exponents, i: int, max_basis, limit: int, pairs):
    """The saturation step by x_i on the binomials pairs, under the weighted
    grevlex order with x_i last: (the reduced basis, the count of its
    standard monomials free of x_i up to limit)."""
    return binomial_run(pairs, _last_order(exponents, i),
                        partial(_saturation_step, i, max_basis, limit))


def _saturation_step(i: int, max_basis, limit: int, binomials: PackedBinomials):
    """Complete, divide x_i out, reduce, count: the step of ``_saturation``."""
    binomials.complete(max_basis=max_basis)
    binomials.saturate(i)
    binomials.reduce()
    return binomials.pairs(), binomials.standard_count(i, limit)


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
    kept = basis_run(ordered, order, partial(_scan, bound))
    return replace(pres, generators=tuple(ordered[k] for k in kept), beta1=len(kept))


def _scan(bound, basis) -> list[int]:
    """The greedy scan of ``minimal_generators`` on a basis of ``basis_run``:
    the indices of the elements it keeps, the basis grown along the scan."""
    candidates, basis.basis = basis.basis, []
    kept = []
    for k, g in enumerate(candidates):
        if basis.contains(g):
            continue
        kept.append(k)
        basis.basis.append(g)
        basis.complete(len(basis.basis) - 1, bound=bound)
    return kept


def eta_check(pres: GradedIdealPresentation,
              exponents: Sequence[int] | None = None) -> bool:
    """True iff every generator vanishes under x_i -> t^(exponents[i]).

    A term c*x^u maps to c*t^(u . exponents), so a generator vanishes
    exactly when, in each weighted degree, its coefficients sum to zero.
    """
    exponents = tuple(exponents) if exponents is not None else pres.weights
    if pres.generators and len(exponents) != len(pres.variables):
        raise ValueError("need one image per variable")
    for g in pres.generators:
        sums: dict[int, int] = {}
        for exp, c in g.terms.items():
            d = weighted_degree(exp, exponents)
            sums[d] = sums.get(d, 0) + c
        if any(sums.values()):
            return False
    return True
