"""The toric kernel by elimination of the parameter: the test oracle.

Start from the relations x_i - t^(n_i) under a block order putting t first;
the t-free part of the completed basis is a Groebner basis of the kernel
under the weighted grevlex order with weights n_i.  Slow, but independent
of the lattice computation in ``parametrization_kernel``.
"""

from __future__ import annotations

from monocurves import (GroebnerBasis, MonomialOrder, Polynomial, buchberger,
                        reduce_basis)


def elimination_relations(exponents):
    """The relations x_i - t^(n_i) in the ring Q[t, x0, ..., xp]."""
    ambient = ("t",) + tuple(f"x{i}" for i in range(len(exponents)))
    n = len(ambient)
    return [Polynomial.variable(ambient, i + 1)
            - Polynomial.monomial(ambient, (e,) + (0,) * (n - 1))
            for i, e in enumerate(exponents)]


def elimination_order(exponents):
    return MonomialOrder.elimination(len(exponents) + 1, 1, weights=(1,) + tuple(exponents))


def elimination_kernel(exponents, variables=None):
    """(generators, order) of the reduced kernel basis, by elimination."""
    exponents = tuple(exponents)
    if variables is None:
        variables = tuple(f"x{i}" for i in range(len(exponents)))
    full = buchberger(elimination_relations(exponents), elimination_order(exponents))
    order = MonomialOrder.weighted(exponents)
    kept = [Polynomial._raw(tuple(variables),
                            {exp[1:]: c for exp, c in g.terms.items()})
            for g in full.generators if all(exp[0] == 0 for exp in g.terms)]
    if kept:
        kept = list(reduce_basis(GroebnerBasis(kept, order)).generators)
    return tuple(kept), order
