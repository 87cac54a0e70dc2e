"""Buchberger's algorithm, basis verification, normal forms, homogenization."""

from __future__ import annotations

import heapq
from operator import le
from typing import Iterable, Sequence

from .orders import MonomialOrder
from .poly import (_VARIABLE, DivisionRecord, Polynomial, divide, exp_coprime,
                   exp_divides, exp_lcm, s_polynomial, weighted_degree)


class ComputationLimitExceeded(RuntimeError):
    """Raised when a configured size guard stops a computation."""


class GroebnerBasis:
    """Ordered list of monic generators plus S-pair reduction transcripts.

    Transcripts are built on demand: for a pair with coprime leading
    monomials the combination -(g - Lm g)*f + (f - Lm f)*g is taken as the
    reduction to zero, every other pair is divided against the basis.
    ``transcript`` raises ValueError for a pair that leaves a remainder;
    ``is_groebner_basis`` reports such records instead.
    """

    def __init__(self, generators: Iterable[Polynomial], order: MonomialOrder):
        gens = tuple(generators)
        if any(not g for g in gens):
            raise ValueError("zero polynomial in basis")
        self.generators = tuple(g.monic(order) for g in gens)
        self.order = order

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, i):
        return self.generators[i]

    @property
    def leading_exponents(self):
        return tuple(g.leading(self.order)[0] for g in self.generators)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.generators:
            return f
        return divide(f, self.generators, self.order).remainder

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)

    def _spair_record(self, i: int, j: int) -> DivisionRecord:
        gi, gj = self.generators[i], self.generators[j]
        lead_i, lead_j = gi.leading(self.order)[0], gj.leading(self.order)[0]
        if not exp_coprime(lead_i, lead_j):
            return divide(s_polynomial(gi, gj, self.order), self.generators, self.order)
        lt_i = Polynomial._raw(gi.variables, {lead_i: 1})
        lt_j = Polynomial._raw(gj.variables, {lead_j: 1})
        quots = [Polynomial.zero(gi.variables) for _ in self.generators]
        quots[i] = -(gj - lt_j)
        quots[j] = gi - lt_i
        return DivisionRecord(tuple(quots), Polynomial.zero(gi.variables),
                              via_coprime_criterion=True)

    def transcript(self, i: int, j: int) -> DivisionRecord:
        if not 0 <= i < j < len(self.generators):
            raise ValueError("transcript wants a pair i < j of basis indices")
        rec = self._spair_record(i, j)
        if rec.remainder:
            raise ValueError(f"not a Groebner basis: pair ({i}, {j}) "
                             "does not reduce to zero")
        return rec

    def spair_transcripts(self) -> dict[tuple[int, int], DivisionRecord]:
        n = len(self.generators)
        return {(i, j): self.transcript(i, j) for i in range(n) for j in range(i + 1, n)}


def _complete_with(basis: list, lead, reduce, first: int,
                   max_basis: int | None = None, bound=None) -> None:
    """The pair queue of Buchberger's algorithm, for any representation.

    Completes basis in place, queueing only the pairs with an element from
    index first on: basis[:first] is a Groebner basis.  lead(g) is the
    leading exponent of an element; reduce(i, j) returns the monic
    remainder of the S-pair (i, j) on division by basis, or None when it
    reduces to zero.  Pairs pop by least lcm total degree, ties by index.

    Pairs with coprime leading monomials are never queued.  A popped pair
    (i, j) is skipped by the chain criterion when some other leading
    monomial lead_k divides lcm(lead_i, lead_j) and neither (i, k) nor
    (j, k) is still queued (Gebauer and Moeller 1988).  bound = (weights, D)
    truncates at weighted degree D: no pair whose lcm lies above D is
    queued.  The chain criterion stays sound under it, as the pairs (i, k)
    and (j, k) it relies on have lcms dividing lcm(lead_i, lead_j).
    """
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []
    pending: set[tuple[int, int]] = set()
    leads = [lead(g) for g in basis]
    weights, top = bound if bound is not None else ((), None)

    def add_pairs(k):
        lead_k = leads[k]
        for i in range(k):
            if not exp_coprime(leads[i], lead_k):
                lcm = exp_lcm(leads[i], lead_k)
                if top is None or weighted_degree(lcm, weights) <= top:
                    heapq.heappush(pairs, (sum(lcm), i, k, lcm))
                    pending.add((i, k))

    def chained(i, j, lcm):
        for k, lead_k in enumerate(leads):
            if (k != i and k != j and all(map(le, lead_k, lcm))
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    for k in range(first, len(basis)):
        add_pairs(k)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        pending.discard((i, j))
        if chained(i, j, lcm):
            continue
        r = reduce(i, j)
        if r is None:
            continue
        if max_basis is not None and len(basis) >= max_basis:
            raise ComputationLimitExceeded(
                f"Groebner basis exceeded {max_basis} elements")
        basis.append(r)
        leads.append(lead(r))
        add_pairs(len(basis) - 1)


def _complete(basis: list[Polynomial], order: MonomialOrder, first: int,
              max_basis: int | None = None, bound=None) -> None:
    """_complete_with on monic Polynomials: each S-polynomial is divided
    by the basis and a nonzero remainder joins it made monic."""

    def reduce(i, j):
        s = s_polynomial(basis[i], basis[j], order)
        r = divide(s, basis, order).remainder if s else s
        return r.monic(order) if r else None

    _complete_with(basis, lambda g: g.leading(order)[0], reduce, first,
                   max_basis, bound)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder, *,
               max_basis: int | None = None) -> GroebnerBasis:
    """Complete gens to a Groebner basis.

    Input generators are kept (made monic) and completions are appended, so
    a set that already is a Groebner basis comes back unchanged.  Pair
    selection is the normal strategy: least lcm total degree first, ties by
    pair index, which makes runs reproducible.  Pairs with coprime leading
    monomials are skipped: their S-polynomial always reduces to zero.  So
    is a pair (i, j) whose lcm another leading monomial lead_k divides once
    neither (i, k) nor (j, k) is still queued: Buchberger's chain criterion.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    if any(not g for g in gens):
        raise ValueError("zero polynomial among generators")
    if any(g.variables != gens[0].variables for g in gens):
        raise ValueError("generators live in different ambients")
    basis = [g.monic(order) for g in gens]
    _complete(basis, order, 0, max_basis)
    return GroebnerBasis(basis, order)


def is_groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder):
    """Buchberger's criterion: (all S-pairs reduce to zero, S-pair records)."""
    gb = GroebnerBasis(gens, order)
    n = len(gb)
    records = {(i, j): gb._spair_record(i, j)
               for i in range(n) for j in range(i + 1, n)}
    return all(not rec.remainder for rec in records.values()), records


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis; zero iff f is in the ideal."""
    return gb.normal_form(f)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The reduced Groebner basis: monic, auto-reduced, sorted, unique."""
    order = gb.order
    if not gb.generators:
        return gb
    # drop generators whose leading monomial another one divides
    kept: list[Polynomial] = []
    for g in sorted(gb.generators, key=lambda g: order.key(g.leading(order)[0])):
        lead = g.leading(order)[0]
        if not any(exp_divides(h.leading(order)[0], lead) for h in kept):
            kept.append(g)
    # one tail-reduction pass: reduction never moves a leading monomial, so
    # an element stays reduced when the others are reduced after it
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        if others:
            kept[i] = divide(kept[i], others, order).remainder.monic(order)
    return GroebnerBasis(kept, order)


def homogenize_basis(gb: GroebnerBasis, homvar: str = "h") -> list[Polynomial]:
    """Homogenize each generator to its total degree with a fresh variable.

    Only valid under a degree-compatible order: then the output is again a
    Groebner basis and cuts out the projective closure.  homvar must be a
    variable name that parse_polynomial reads back: letters, then digits.
    """
    if not gb.order.degree_compatible:
        raise ValueError("homogenization needs a degree-compatible order")
    if not _VARIABLE.fullmatch(homvar):
        raise ValueError(f"homogenizing variable {homvar!r} is not a name")
    ambient = gb.generators[0].variables if gb.generators else ()
    if homvar in ambient:
        raise ValueError(f"homogenizing variable {homvar!r} is not fresh")
    new_vars = ambient + (homvar,)
    out = []
    for g in gb.generators:
        d = g.total_degree()
        out.append(Polynomial._raw(
            new_vars, {e + (d - sum(e),): c for e, c in g.terms.items()}))
    return out
