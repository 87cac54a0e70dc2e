"""Buchberger's algorithm, basis verification, normal forms, homogenization."""

from __future__ import annotations

import heapq
from operator import le
from typing import Iterable, Sequence

from .orders import MonomialOrder
from .poly import (_VARIABLE, DivisionRecord, Polynomial, divide, exp_add, exp_coprime,
                   exp_divides, exp_lcm, exp_sub, s_polynomial, weighted_degree)


class ComputationLimitExceeded(RuntimeError):
    """Raised when a configured size guard stops a computation."""


# ---- S-pair division on term maps {(pos, exp): c} ---------------------------

def divisor_index(leads) -> dict:
    """pos -> the (k, exp) of the elements k with leading monomial (pos,
    exp), by index: the divisors argument of ``module_divide``."""
    divisors: dict = {}
    for k, (pos, exp) in enumerate(leads):
        divisors.setdefault(pos, []).append((k, exp))
    return divisors


def spair_vector(elements, i: int, j: int, u, v) -> dict:
    """The term map of u e_i - v e_j for term-map elements e."""
    spair = {(pos, exp_add(u, exp)): c for (pos, exp), c in elements[i].items()}
    for (pos, exp), c in elements[j].items():
        mm = (pos, exp_add(v, exp))
        s = spair.get(mm, 0) - c
        if s:
            spair[mm] = s
        else:
            del spair[mm]
    return spair


def module_divide(p: dict, divisors, elements, key):
    """Divide the vector with term map p (consumed) by monic term-map
    elements; returns (quotients as one term map {(k, exp): c}, remainder).

    divisors[pos] lists, by index, the (k, exp) of the elements k with
    leading monomial (pos, exp) under the module order key: ring division's
    first match, restricted to the leading position (for elements of R^1,
    ``divide``'s quotients).  Each module monomial is ranked by key once.
    """
    quots: dict = {}
    rem: dict = {}
    ranks = {mm: key(mm) for mm in p}
    while p:
        best = max(p, key=ranks.__getitem__)
        c = p[best]
        pos, exp = best
        for k, dexp in divisors.get(pos, ()):
            if exp_divides(dexp, exp):
                # best falls at every step, so each quotient term is new
                qexp = exp_sub(exp, dexp)
                quots[k, qexp] = c
                for (tpos, texp), tc in elements[k].items():
                    mm = (tpos, exp_add(qexp, texp))
                    s = p.get(mm, 0) - c * tc
                    if s:
                        p[mm] = s
                        if mm not in ranks:
                            ranks[mm] = key(mm)
                    elif mm in p:
                        del p[mm]
                break
        else:
            rem[best] = c
            del p[best]
    return quots, rem


class GroebnerBasis:
    """Ordered list of monic generators plus S-pair reduction transcripts.

    Transcripts are built on demand: for a pair with coprime leading
    monomials the combination -(g - Lm g)*f + (f - Lm f)*g is taken as the
    reduction to zero, every other pair is divided against the basis by
    ``module_divide`` on term maps, the division the Schreyer resolution
    runs on every level.  ``transcript`` (and its term-map form
    ``transcript_terms``) raises ValueError for a pair that leaves a
    remainder; ``is_groebner_basis`` reports such records instead.
    """

    def __init__(self, generators: Iterable[Polynomial], order: MonomialOrder):
        gens = tuple(generators)
        if any(not g for g in gens):
            raise ValueError("zero polynomial in basis")
        self.generators = tuple(g.monic(order) for g in gens)
        self.order = order
        self._term_maps = None

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

    def _sparse(self):
        """(elements, leads, divisors, key) of the S-pair division: the
        generators as term maps {(0, exp): c}, built on first use."""
        if self._term_maps is None:
            elements = [{(0, exp): c for exp, c in g.terms.items()} for g in self.generators]
            leads = [(0, exp) for exp in self.leading_exponents]
            ring_key = self.order.key
            self._term_maps = (elements, leads, divisor_index(leads),
                               lambda mm: ring_key(mm[1]))
        return self._term_maps

    def _spair_division(self, i: int, j: int):
        """(quotients {(k, exp): c}, remainder {(0, exp): c}) of S-pair (i, j)."""
        elements, leads, divisors, key = self._sparse()
        lead_i, lead_j = leads[i][1], leads[j][1]
        if exp_coprime(lead_i, lead_j):
            quots = {(i, exp): -c for (_, exp), c in elements[j].items() if exp != lead_j}
            quots.update(((j, exp), c) for (_, exp), c in elements[i].items() if exp != lead_i)
            return quots, {}
        lcm = exp_lcm(lead_i, lead_j)
        spair = spair_vector(elements, i, j, exp_sub(lcm, lead_i), exp_sub(lcm, lead_j))
        return module_divide(spair, divisors, elements, key)

    def _record(self, i: int, j: int, quots: dict, rem: dict) -> DivisionRecord:
        variables = self.generators[0].variables
        coords: list[dict] = [{} for _ in self.generators]
        for (k, exp), c in quots.items():
            coords[k][exp] = c
        leads = self._sparse()[1]
        return DivisionRecord(tuple(Polynomial._raw(variables, q) for q in coords),
                              Polynomial._raw(variables, {exp: c for (_, exp), c in rem.items()}),
                              via_coprime_criterion=exp_coprime(leads[i][1], leads[j][1]))

    def _spair_record(self, i: int, j: int) -> DivisionRecord:
        return self._record(i, j, *self._spair_division(i, j))

    def transcript_terms(self, i: int, j: int) -> dict:
        """The quotients of ``transcript(i, j)`` as one term map {(k, exp): c}."""
        if not 0 <= i < j < len(self.generators):
            raise ValueError("transcript wants a pair i < j of basis indices")
        quots, rem = self._spair_division(i, j)
        if rem:
            raise ValueError(f"not a Groebner basis: pair ({i}, {j}) "
                             "does not reduce to zero")
        return quots

    def transcript(self, i: int, j: int) -> DivisionRecord:
        return self._record(i, j, self.transcript_terms(i, j), {})

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
