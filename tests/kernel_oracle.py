"""Test oracles for the toric kernel and the binomial engine.

``elimination_kernel``: start from the relations x_i - t^(n_i) under a
block order putting t first; the t-free part of the completed basis is a
Groebner basis of the kernel under the weighted grevlex order with weights
n_i.  Slow, but independent of the lattice computation in
``parametrization_kernel``.

``polynomial_kernel``: the lattice loop of ``parametrization_kernel`` run on
``Polynomial`` objects, with S-polynomials and ``divide``.  It takes the
same steps as the binomial engine, the certificate included, which it
counts by its own scan of exponent tuples (``staircase_count``), so it
gives the same bases and the same ``max_basis`` outcomes.

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
from monocurves.toric import _lattice_basis


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


def staircase_count(leads, i, nvars, limit):
    """The number of exponent vectors with no x_i that no lead free of x_i
    divides, counted up to limit: a breadth-first scan by total degree."""
    leads = [lead for lead in leads if not lead[i]]
    count, layer = 0, [(0,) * nvars]
    while layer and count < limit:
        layer = [u for u in layer if not any(exp_divides(lead, u) for lead in leads)]
        count += len(layer)
        layer = {u[:j] + (u[j] + 1,) + u[j + 1:]
                 for u in layer for j in range(nvars) if j != i}
    return min(count, limit)


def polynomial_kernel(exponents, variables=None, max_basis=None):
    """(generators, order) of the reduced kernel basis, by the lattice loop
    on Polynomials in the steps of parametrization_kernel: saturate by the
    first variable of least weight m; unless m standard monomials free of
    it remain, saturate by the last variable and count n_p the same way
    (skipped when the first variable was the last); unless that count
    certifies, saturate by every other variable, the last one last.  Then
    finish by one step under the output order unless the last step was by
    the last variable.  ComputationLimitExceeded as parametrization_kernel."""
    exponents = tuple(exponents)
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    variables = tuple(variables)
    basis = [Polynomial._raw(variables, {tuple(max(a, 0) for a in v): 1,
                                         tuple(max(-a, 0) for a in v): -1})
             for v in _lattice_basis(exponents)]
    nvars = len(exponents)

    def step(basis, i):
        order = MonomialOrder.weighted(
            exponents, tuple(j for j in range(nvars) if j != i) + (i,))
        basis = [b.monic(order) for b in basis]
        polynomial_complete(basis, order, max_basis)
        basis = polynomial_reduce(saturate(basis, i), order)
        return basis, [g.leading(order)[0] for g in basis]

    def certified(leads, i):
        return staircase_count(leads, i, nvars, exponents[i] + 1) == exponents[i]

    low, last = exponents.index(min(exponents)), nvars - 1
    z = low
    basis, leads = step(basis, z)
    if not certified(leads, z) and z != last:
        z = last
        basis, leads = step(basis, z)
    if not certified(leads, z):
        for i in [i for i in range(last) if i != low] + [last]:
            basis, _ = step(basis, i)
    if z != last:
        basis, _ = step(basis, last)
    return tuple(basis), MonomialOrder.weighted(exponents)


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
