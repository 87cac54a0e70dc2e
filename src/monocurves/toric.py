"""Defining ideals of monomial curves read off their Apery sets, minimal
generators."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import partial
from math import gcd
from typing import Sequence

from .groebner import (ComputationLimitExceeded, GroebnerBasis, PackedBinomials, basis_run,
                       binomial_pairs, binomial_polynomials, binomial_run, check_max_basis)
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


def parametrization_kernel(exponents: Sequence[int],
                           variables: Sequence[str] | None = None, *,
                           max_basis: int | None = None) -> GradedIdealPresentation:
    """Reduced Groebner basis of the kernel I(S) of x_i -> t^(exponents[i]).

    Works for any positive exponent assignment with gcd 1; the exponents
    need not be sorted or distinct.  Each graded piece of k[S] has
    dimension at most 1, so under any term order the standard monomials of
    I(S) are exactly the fibre minima, one for each degree in S (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 4).  Take the weighted grevlex
    order with x_low, the first variable of least weight m, last.  The
    minimum of the fibre of degree d carries the largest power x_low^k that
    leaves d - k*m in S, so w = d - k*m lies in Ap(S, m) = {w in S : w - m
    not in S}, and the standard monomials are the x_low^k * mu(w), mu(w) the
    least x_low-free monomial of degree w.  A minimal lead c is x_low-free
    (c / x_low would be standard, and so c), is no mu(w) and has every
    c / x_i a mu: c = mu(w) * x_i.  Its tail is its normal form, the least
    x_low^k * mu(w') of its fibre, w' the element of Ap(S, m) congruent to
    deg c mod m.  ``_apery_kernel`` builds that basis with no completion.

    Unless x_low is x_p, the last variable, one step on the binomial engine
    of ``groebner`` (``PackedBinomials``, under ``_widening``) then
    completes and reduces it under the output order, x_p last: the basis
    already generates I(S), which is prime, so nothing is saturated.  The
    output order is not built from fibre minima too, which would take a
    pass on Z/n_p instead of Z/m.

    max_basis bounds the x_low basis and every basis of the output step
    (ComputationLimitExceeded); a max_basis that is not None or an int >= 0
    raises ValueError before any work.
    """
    pres = _apery_kernel(exponents, variables, max_basis)
    order = MonomialOrder.weighted(pres.weights)
    if pres.order == order:
        return pres
    pairs = binomial_run(binomial_pairs(pres.generators), order,
                         partial(_completion, max_basis))
    return replace(pres, order=order,
                   generators=tuple(binomial_polynomials(pres.variables, pairs, order)))


def _completion(max_basis, binomials: PackedBinomials):
    """Complete and reduce: the output step of ``parametrization_kernel``."""
    binomials.complete(max_basis=max_basis)
    binomials.reduce()
    return binomials.pairs()


def _apery_kernel(exponents: Sequence[int], variables: Sequence[str] | None = None,
                  max_basis: int | None = None) -> GradedIdealPresentation:
    """I(S), the kernel of ``parametrization_kernel``, as its reduced basis
    {c - x_low^k * mu(w')} under the weighted grevlex order with x_low last.

    ``_fibre_minima`` finds every mu(w), w in Ap(S, m), by one shortest-path
    pass on Z/m, and each lead c = mu(w) * x_i is met once, from c / x_i
    with x_i the last variable of c: O(m * e^2) work in all.  The basis is
    sorted by lead, as ``PackedBinomials.reduce`` leaves it.  max_basis
    bounds its size (ComputationLimitExceeded).
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
    check_max_basis(max_basis)
    e, low = len(exponents), exponents.index(min(exponents))
    m = exponents[low]
    others = tuple(j for j in range(e) if j != low)
    order = MonomialOrder.weighted(exponents, others + (low,))
    minima = _fibre_minima(exponents, others, m)
    standard = set(minima.values())
    pairs = []
    for u in minima.values():
        # c = u * x_i with x_i no earlier than the last variable of u
        for i in reversed(others):
            c = u[:i] + (u[i] + 1,) + u[i + 1:]
            if c not in standard and all(
                    not c[j] or c[:j] + (c[j] - 1,) + c[j + 1:] in standard for j in others):
                if max_basis is not None and len(pairs) >= max_basis:
                    raise ComputationLimitExceeded(
                        f"Groebner basis exceeded {max_basis} elements")
                degree = weighted_degree(c, exponents)
                tail = minima[degree % m]
                k = (degree - weighted_degree(tail, exponents)) // m
                pairs.append((c, tail[:low] + (k,) + tail[low + 1:]))
            if u[i]:
                break
    pairs.sort(key=lambda pair: order.key(pair[0]))
    return GradedIdealPresentation(variables, exponents, order,
                                   tuple(binomial_polynomials(variables, pairs, order)))


def _fibre_minima(exponents: tuple[int, ...], others: tuple[int, ...],
                  m: int) -> dict[int, tuple[int, ...]]:
    """{w mod m: mu(w)} over w in Ap(S, m): the least x_low-free monomial of
    each residue class, by Dijkstra on Z/m (Boecker and Liptak 2007).

    A path adds one variable x_i, i in others, at a time, and costs the key
    (weighted degree, -u[others[-1]], ..., -u[others[0]]) of its monomial u:
    the order's key restricted to x_low-free monomials.  The key is additive
    and each step raises it, so the first path settled at a residue is its
    least monomial, of the least degree w there, which is the element of
    Ap(S, m) in that class.  The pass stops once all m residues are settled.

    The heap holds each key packed into one int, degree * B^r minus the
    exponents as the r digits below it in base B = m + 1, r = len(others),
    u[others[-1]] the most significant: ints compare as the keys do while
    every digit is at most m.  Each mu(w) has total degree at most m - 1 (a
    longer one holds a block of generators summing to a multiple of m, so
    w - m would lie in S), and a pushed path is one step longer than a
    settled one.  A key determines its monomial, so the heap holds keys alone.
    """
    e, rank, base = len(exponents), len(others), m + 1
    top = base ** rank
    steps = [(exponents[i], exponents[i] * top - base ** (rank - 1 - pos))
             for pos, i in enumerate(reversed(others))]
    settled: dict[int, int] = {}
    heap = [0]
    while len(settled) < m:
        key = heapq.heappop(heap)
        r = -(-key // top) % m
        if r in settled:
            continue
        settled[r] = key
        for weight, step in steps:
            if (r + weight) % m not in settled:
                heapq.heappush(heap, key + step)
    minima = {}
    for r, key in settled.items():
        digits = -(-key // top) * top - key
        u = [0] * e
        for i in others:
            digits, u[i] = divmod(digits, base)
        minima[r] = tuple(u)
    return minima


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
