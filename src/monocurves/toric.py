"""Defining ideals of monomial curves via elimination, minimal generators."""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Sequence

from .groebner import GroebnerBasis, _complete, buchberger, reduce_basis
from .orders import MonomialOrder
from .poly import Polynomial, divide
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


def parametrization_kernel(exponents: Sequence[int],
                           variables: Sequence[str] | None = None, *,
                           max_basis: int | None = None) -> GradedIdealPresentation:
    """Reduced Groebner basis of the kernel of x_i -> t^(exponents[i]).

    Works for any positive exponent assignment with gcd 1; the exponents
    need not be sorted.  The computation eliminates a single parameter
    variable: start from the relations x_i - t^(n_i) under a block order
    putting t first, then keep the t-free part of the basis, which is a
    Groebner basis of the kernel under the weighted grevlex order with
    weights n_i.
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
    ambient = ("t",) + variables
    n = len(ambient)
    elim_order = MonomialOrder.elimination(n, 1, weights=(1,) + exponents)
    gens = []
    for i, e in enumerate(exponents):
        xi = Polynomial.variable(ambient, i + 1)
        te = Polynomial.monomial(ambient, (e,) + (0,) * (n - 1))
        gens.append(xi - te)
    full = buchberger(gens, elim_order, max_basis=max_basis)
    x_order = MonomialOrder.weighted(exponents)
    kept = []
    for fpoly in full.generators:
        if all(exp[0] == 0 for exp in fpoly.terms):
            kept.append(Polynomial._raw(variables,
                                        {exp[1:]: c for exp, c in fpoly.terms.items()}))
    if kept:
        kept = list(reduce_basis(GroebnerBasis(kept, x_order)).generators)
    return GradedIdealPresentation(variables, exponents, x_order, tuple(kept))


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
    """
    weights, order = pres.weights, pres.order
    for g in pres.generators:
        if not g.is_weighted_homogeneous(weights):
            raise ValueError(f"non-homogeneous generator {g}")
    ordered = sorted(pres.generators,
                     key=lambda g: (g.weighted_degree(weights), g.sort_key()))
    retained: list[Polynomial] = []
    basis: list[Polynomial] = []
    for g in ordered:
        if basis and not divide(g, basis, order).remainder:
            continue
        retained.append(g)
        basis.append(g.monic(order))
        _complete(basis, order, len(basis) - 1)
    return replace(pres, generators=tuple(retained), beta1=len(retained))


def eta_check(pres: GradedIdealPresentation,
              exponents: Sequence[int] | None = None) -> bool:
    """True iff every generator vanishes under x_i -> t^(exponents[i])."""
    exponents = tuple(exponents) if exponents is not None else pres.weights
    target = ("t",)
    images = [Polynomial.monomial(target, (e,)) for e in exponents]
    return all(not g.substitute(images) for g in pres.generators)
