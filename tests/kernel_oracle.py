"""Test oracles for the toric kernel and the binomial engine.

``elimination_kernel``: start from the relations x_i - t^(n_i) under a
block order putting t first; the t-free part of the completed basis is a
Groebner basis of the kernel under the weighted grevlex order with weights
n_i.  Slow, but independent of the fibre minima of
``parametrization_kernel``.

``polynomial_kernel``: the toric ideal of the lattice {v : v.n = 0}, the
saturation of the ideal of a lattice basis by every variable (Sturmfels,
Groebner Bases and Convex Polytopes, ch. 12), on ``Polynomial`` objects with
S-polynomials and ``divide``; the lattice basis is its own
(``lattice_basis``).  It then takes the steps of ``parametrization_kernel``
from the reduced basis under the order with x_low last, so it gives the same
bases and the same ``max_basis`` outcomes.

``restart_minimal_generators``: the greedy scan of ``minimal_generators``
with the completion rerun from scratch after each generator it keeps.

All of them complete and reduce by their own ``Polynomial`` loops,
``polynomial_complete`` and ``polynomial_reduce``, never by ``buchberger``
or ``reduce_basis``: on binomial input those run the engine they check.
"""

from __future__ import annotations

import heapq
from operator import le

from elimination_order import elimination

from monocurves import ComputationLimitExceeded, MonomialOrder, Polynomial
from monocurves.poly import divide, exp_coprime, exp_divides, exp_lcm, s_polynomial


def elimination_relations(exponents):
    """The relations x_i - t^(n_i) in the ring Q[t, x0, ..., xp]."""
    ambient = ("t",) + tuple(f"x{i}" for i in range(len(exponents)))
    n = len(ambient)
    return [Polynomial.variable(ambient, i + 1)
            - Polynomial.monomial(ambient, (e,) + (0,) * (n - 1))
            for i, e in enumerate(exponents)]


def elimination_order(exponents):
    return elimination(len(exponents) + 1, 1, weights=(1,) + tuple(exponents))


def elimination_kernel(exponents, variables=None):
    """(generators, order) of the reduced kernel basis, by elimination."""
    exponents = tuple(exponents)
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    elim = elimination_order(exponents)
    full = [g.monic(elim) for g in elimination_relations(exponents)]
    polynomial_complete(full, elim)
    order = MonomialOrder.weighted(exponents)
    kept = [Polynomial._raw(tuple(variables),
                            {exp[1:]: c for exp, c in g.terms.items()})
            for g in full if all(exp[0] == 0 for exp in g.terms)]
    return tuple(polynomial_reduce(kept, order)), order


def polynomial_complete(basis, order, max_basis=None):
    """Complete the monic list basis in place: pairs by least lcm total
    degree, then index; coprime leads never queued; the chain criterion."""
    pairs = []
    pending = set()
    leads = [g.leading(order)[0] for g in basis]

    def add_pairs(k):
        lead_k = leads[k]
        for i in range(k):
            if not exp_coprime(leads[i], lead_k):
                heapq.heappush(pairs, (sum(exp_lcm(leads[i], lead_k)), i, k))
                pending.add((i, k))

    def chained(i, j):
        lcm = exp_lcm(leads[i], leads[j])
        for k, lead_k in enumerate(leads):
            if (k != i and k != j and all(map(le, lead_k, lcm))
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for k in range(len(basis)):
        add_pairs(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if chained(i, j):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        if not s:
            continue
        r = divide(s, basis, order).remainder
        if not r:
            continue
        if max_basis is not None and len(basis) >= max_basis:
            raise ComputationLimitExceeded(
                f"Groebner basis exceeded {max_basis} elements")
        basis.append(r.monic(order))
        leads.append(basis[-1].leading(order)[0])
        add_pairs(len(basis) - 1)


def polynomial_reduce(basis, order):
    """The reduced basis of a Groebner basis, as a list: leads that another
    lead divides are dropped, then each element is divided by the others in
    turn and made monic."""
    kept = []
    for g in sorted((g.monic(order) for g in basis),
                    key=lambda g: order.key(g.leading(order)[0])):
        if not any(exp_divides(h.leading(order)[0], g.leading(order)[0]) for h in kept):
            kept.append(g)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        if others:
            kept[i] = divide(kept[i], others, order).remainder.monic(order)
    return kept


def saturate(basis, i):
    """Divide each binomial by the largest power of x_i dividing both terms."""
    out = []
    for g in basis:
        k = min(exp[i] for exp in g.terms)
        if k:
            g = Polynomial._raw(g.variables, {exp[:i] + (exp[i] - k,) + exp[i + 1:]: c
                                              for exp, c in g.terms.items()})
        out.append(g)
    return out


def lattice_basis(exponents):
    """A basis of the lattice {v : v.n = 0}, gcd(n) = 1: with g_k the gcd of
    n_0, ..., n_k and c.(n_0, ..., n_(k-1)) = g_(k-1) by Bezout, the vectors
    (n_k / g_k) c - (g_(k-1) / g_k) e_k for k >= 1.  They are triangular in
    the coordinates 1..p with diagonal product n_0, the index in Z^p of the
    lattice's projection, which forgets nothing as n_0 > 0."""
    n = len(exponents)
    basis, coeffs, g = [], [1] + [0] * (n - 1), exponents[0]
    for k in range(1, n):
        a, b, h = bezout(g, exponents[k])
        v = [exponents[k] // h * c for c in coeffs]
        v[k] = -(g // h)
        basis.append(tuple(v))
        coeffs = [a * c for c in coeffs]
        coeffs[k] = b
        g = h
    return basis


def bezout(x, y):
    """(a, b, g) with a*x + b*y = g = gcd(x, y), by extended Euclid."""
    a0, b0, a1, b1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        a0, b0, a1, b1 = a1, b1, a0 - q * a1, b0 - q * b1
    return a0, b0, x


def last_order(exponents, i):
    """The weighted grevlex order of the exponents with x_i last."""
    return MonomialOrder.weighted(
        exponents, tuple(j for j in range(len(exponents)) if j != i) + (i,))


def change_order(basis, order, max_basis=None):
    """The reduced basis of the ideal of basis under order."""
    basis = [b.monic(order) for b in basis]
    polynomial_complete(basis, order, max_basis)
    return polynomial_reduce(basis, order)


def polynomial_kernel(exponents, variables=None, max_basis=None):
    """(generators, order) of the reduced kernel basis: the lattice basis
    ideal saturated by every variable in turn, the last one last, with no
    bound.  Then, as parametrization_kernel: the reduced basis under the
    order with x_low last, refused when it has more than max_basis
    elements, and unless x_low is the last variable one completion under
    the output order, bounded by max_basis.  ComputationLimitExceeded as
    parametrization_kernel."""
    exponents = tuple(exponents)
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    variables = tuple(variables)
    basis = [Polynomial._raw(variables, {tuple(max(a, 0) for a in v): 1,
                                         tuple(max(-a, 0) for a in v): -1})
             for v in lattice_basis(exponents)]
    nvars = len(exponents)
    for i in range(nvars):
        basis = saturate(change_order(basis, last_order(exponents, i)), i)
    low = exponents.index(min(exponents))
    basis = change_order(basis, last_order(exponents, low))
    if max_basis is not None and len(basis) > max_basis:
        raise ComputationLimitExceeded(f"Groebner basis exceeded {max_basis} elements")
    order = MonomialOrder.weighted(exponents)
    if low != nvars - 1:
        basis = change_order(basis, order, max_basis)
    return tuple(basis), order


def restart_minimal_generators(pres):
    """The greedy scan with the Polynomial loop of the oracle rerun from
    scratch on the retained generators after each one it keeps: the oracle
    for the growing basis (buchberger would run the engine under test)."""
    weights, order = pres.weights, pres.order
    ordered = sorted(pres.generators,
                     key=lambda g: (g.weighted_degree(weights), g.sort_key()))
    retained, basis = [], None
    for g in ordered:
        if basis is not None and not divide(g, basis, order).remainder:
            continue
        retained.append(g)
        basis = [h.monic(order) for h in retained]
        polynomial_complete(basis, order)
    return tuple(retained)
