"""Buchberger's algorithm, basis verification, normal forms, homogenization."""

from __future__ import annotations

import heapq
from functools import partial
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .orders import MonomialOrder
from .poly import (_VARIABLE, DivisionRecord, MonomialCodec, Polynomial, _overflow, _set_lead,
                   divide, exp_add, exp_coprime, exp_divides, exp_lcm, exp_sub, s_polynomial,
                   weighted_degree)

EXPONENT_BITS = 16      # the narrowest field width ``_widening`` tries


class ComputationLimitExceeded(RuntimeError):
    """Raised when a configured size guard stops a computation."""


# ---- module orders and S-pair division on packed term maps ------------------

class SchreyerOrder:
    """Module order on one level of a Schreyer resolution, as one integer key.

    Level 0 is R^1 under the ring order (``rank_one``).  ``next(leads)``
    gives the order on the syzygies of a level whose elements have the
    leading monomials leads[k] = (pos, exp): (k, u) ranks as (pos, u * exp)
    does one level down, ties going to the smaller k.  With this order the
    Schreyer generators of the syzygy module are already a Groebner basis.
    ``codec`` packs the monomials of the level ordered; ``next`` passes it
    on.

    Unwound to level 0, position k carries the offset off[k], the product
    of the leading monomials along its chain of positions p0 = 0, p1, ...,
    k, and tierank[k], the rank of the chain (-p0, -p1, ..., -k) among the
    level's chains.  With R positions and K the ring order's
    ``integer_key``, the key is linear in u:

        key((k, u)) = R * K(u + off[k]) + tierank[k],

    so the module monomial with the larger key is the larger one, and
    multiplying by a ring monomial v adds ``step(v)`` = R * K(v).  K is
    exact on every u + off[k] with u below twice codec.limit: any sum of
    two packed exponent vectors, before its guard bits are checked.
    """

    __slots__ = ("ring_order", "codec", "offsets", "tierank", "rank", "steps", "bases")

    def __init__(self, ring_order: MonomialOrder, codec: MonomialCodec, offsets, tierank):
        self.ring_order, self.codec = ring_order, codec
        self.offsets = tuple(offsets)
        self.tierank = tuple(tierank)
        self.rank = len(self.offsets)
        # R * K, one coefficient per variable
        self.steps = tuple(self.rank * c for c in ring_order.integer_key(
            [2 * codec.limit + max(col) for col in zip(*self.offsets)]))
        self.bases = tuple(self.step(off) + t for off, t in zip(self.offsets, self.tierank))

    @classmethod
    def rank_one(cls, ring_order: MonomialOrder, codec: MonomialCodec) -> "SchreyerOrder":
        return cls(ring_order, codec, [(0,) * ring_order.nvars], [0])

    def next(self, leads) -> "SchreyerOrder":
        """The order on the syzygies of elements with leading monomials leads."""
        chains = sorted(range(len(leads)), key=lambda k: (self.tierank[leads[k][0]], -k))
        tierank = [0] * len(leads)
        for rank, k in enumerate(chains):
            tierank[k] = rank
        return SchreyerOrder(self.ring_order, self.codec,
                             [exp_add(exp, self.offsets[pos]) for pos, exp in leads],
                             tierank)

    def step(self, u) -> int:
        return sum(map(mul, self.steps, u))

    def key(self, mm) -> int:
        pos, u = mm
        return self.step(u) + self.bases[pos]


class PackedLevel:
    """The monic elements of one level as packed terms, and their S-pairs.

    elements[k] lists the terms (m, key, c) of element k, m packed by the
    order's codec and key its ``order`` key; tails[k] leaves out the leading
    monomial leads[k] = (pos, exp).  divisors[pos] lists, by index,
    (k << shift, m, key, tail) of the elements k that lead at pos.
    """

    __slots__ = ("codec", "order", "elements", "tails", "leads", "divisors")

    def __init__(self, order: SchreyerOrder, term_maps, leads):
        codec = order.codec
        shift, exponents, step, bases = codec.shift, codec.exponents, order.step, order.bases
        self.codec, self.order, self.leads = codec, order, list(leads)
        self.elements = [[(m, step(exponents(m)) + bases[m >> shift], c) for m, c in t.items()]
                         for t in term_maps]
        self.tails, self.divisors = [], {}
        for k, ((pos, exp), terms) in enumerate(zip(self.leads, self.elements)):
            lead = codec.pack(pos, exp)
            self.tails.append([term for term in terms if term[0] != lead])
            self.divisors.setdefault(pos, []).append(
                (k << shift, lead, order.key((pos, exp)), self.tails[-1]))

    def coordinates(self, term_map, rank: int) -> list[dict]:
        """The term maps {exp: c} at positions 0, ..., rank - 1 of a packed
        term map {m: c} of the level."""
        unpack = self.codec.unpack
        coords: list[dict] = [{} for _ in range(rank)]
        for m, c in term_map.items():
            pos, exp = unpack(m)
            coords[pos][exp] = c
        return coords

    def spair_division(self, i: int, j: int, u, v):
        """(quotients {packed (k, q): c}, remainder {packed: c}) of the S-pair
        u e_i - v e_j on division by the level: the one S-pair division,
        behind ``GroebnerBasis`` and every level of the resolution.

        On R^1 a pair with coprime leading monomials takes the closed form
        -(g - Lm g)*f + (f - Lm f)*g.  Any other pair is divided like ring
        division: the largest term first, reduced by the first element, by
        index, whose leading monomial divides it.  Each term carries its key
        and the key of a product is the key of the term plus that of the
        quotient, so nothing is ranked here.  An exponent that leaves the
        packed range raises OverflowError.
        """
        shift, guard = self.codec.shift, self.codec.guard
        tails = self.tails
        if self.order.rank == 1 and exp_coprime(self.leads[i][1], self.leads[j][1]):
            quots = {t + (i << shift): -c for t, _, c in tails[j]}
            quots.update((t + (j << shift), c) for t, _, c in tails[i])
            return quots, {}
        # the S-vector u tail_i - v tail_j: the leading terms cancel
        p: dict = {}        # key -> coefficient
        mons: dict = {}     # key -> packed monomial
        for k, w, sign in ((i, u, 1), (j, v, -1)):
            wm, wk = self.codec.pack(0, w), self.order.step(w)
            for t, tk, tc in tails[k]:
                mk = tk + wk
                s = p.get(mk, 0) + sign * tc
                if s:
                    p[mk] = s
                    mons[mk] = t + wm
                else:
                    del p[mk]
        if any(m & guard for m in mons.values()):
            raise _overflow()
        quots: dict = {}
        rem: dict = {}
        divisors = self.divisors
        while p:
            best = max(p)
            c = p.pop(best)
            m = mons[best]
            for kpos, d, dk, tail in divisors.get(m >> shift, ()):
                if ((m | guard) - d) & guard == guard:
                    # best falls at every step, so each quotient term is new
                    q, qk = m - d, best - dk
                    quots[q + kpos] = c
                    for t, tk, tc in tail:
                        mk = tk + qk
                        s = p.get(mk)
                        if s is None:
                            # keys are exact on sums of two packed monomials,
                            # so only a new key can be a new monomial
                            mm = t + q
                            if mm & guard:
                                raise _overflow()
                            p[mk] = -c * tc
                            mons[mk] = mm
                        else:
                            s -= c * tc
                            if s:
                                p[mk] = s
                            else:
                                del p[mk]
                    break
            else:
                rem[m] = c
        return quots, rem


class GroebnerBasis:
    """Ordered list of monic generators plus S-pair reduction transcripts.

    Transcripts are built on demand by ``PackedLevel.spair_division`` on the
    generators packed as a level of R^1, the division the Schreyer
    resolution runs on every level: the closed form
    -(g - Lm g)*f + (f - Lm f)*g for a pair with coprime leading monomials,
    division against the basis for any other.  ``transcript`` raises
    ValueError for a pair that leaves a remainder; ``is_groebner_basis``
    reports such records instead.  The level's width is chosen by
    ``_widening`` and doubled whenever a division leaves it, so any exponent
    is taken; the widest level built is kept.  The generators share one
    ambient (ValueError otherwise).
    """

    def __init__(self, generators: Iterable[Polynomial], order: MonomialOrder):
        gens = tuple(generators)
        if any(not g for g in gens):
            raise ValueError("zero polynomial in basis")
        if any(g.variables != gens[0].variables for g in gens):
            raise ValueError("generators live in different ambients")
        self.generators = tuple(g.monic(order) for g in gens)
        self.order = order
        self._level = None

    def __reduce__(self):
        # the packed level is a cache, rebuilt on demand
        return GroebnerBasis, (self.generators, self.order)

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

    def _on_level(self, run):
        """run(level) on the generators packed as a level of R^1 under
        ``_widening``, from EXPONENT_BITS up; a level at least as wide as
        the attempt is reused."""
        def attempt(bits):
            if self._level is None or self._level.codec.bits < bits:
                codec = MonomialCodec(self.order.nvars, bits)
                self._level = PackedLevel(
                    SchreyerOrder.rank_one(self.order, codec),
                    [{codec.pack(0, exp): c for exp, c in g.terms.items()}
                     for g in self.generators],
                    [(0, exp) for exp in self.leading_exponents])
            return run(self._level)

        return _widening(0, attempt)

    def _record(self, level: PackedLevel, i: int, j: int) -> DivisionRecord:
        """The division record of S-pair (i, j) on the level."""
        lead_i, lead_j = level.leads[i][1], level.leads[j][1]
        lcm = exp_lcm(lead_i, lead_j)
        quots, rem = level.spair_division(i, j, exp_sub(lcm, lead_i), exp_sub(lcm, lead_j))
        variables = self.generators[0].variables
        return DivisionRecord(tuple(Polynomial._raw(variables, q)
                                    for q in level.coordinates(quots, len(self.generators))),
                              Polynomial._raw(variables, level.coordinates(rem, 1)[0]),
                              via_coprime_criterion=exp_coprime(lead_i, lead_j))

    def _spair_records(self) -> dict[tuple[int, int], DivisionRecord]:
        """The division record of every S-pair, remainders included."""
        n = len(self.generators)
        return self._on_level(lambda level: {(i, j): self._record(level, i, j)
                                             for i in range(n) for j in range(i + 1, n)})

    def transcript(self, i: int, j: int) -> DivisionRecord:
        if not 0 <= i < j < len(self.generators):
            raise ValueError("transcript wants a pair i < j of basis indices")
        record = self._on_level(lambda level: self._record(level, i, j))
        if record.remainder:
            raise remainder_error(i, j)
        return record

    def spair_transcripts(self) -> dict[tuple[int, int], DivisionRecord]:
        n = len(self.generators)
        return {(i, j): self.transcript(i, j) for i in range(n) for j in range(i + 1, n)}


def remainder_error(i: int, j: int) -> ValueError:
    return ValueError(f"not a Groebner basis: pair ({i}, {j}) does not reduce to zero")


def check_max_basis(max_basis) -> None:
    """ValueError unless max_basis is None or an int >= 0, bools excluded."""
    if max_basis is not None and (type(max_basis) is not int or max_basis < 0):
        raise ValueError(f"max_basis must be None or an int >= 0, got {max_basis!r}")


def _complete_with(basis: list, lead, reduce, first: int, codec: MonomialCodec,
                   max_basis: int | None = None, bound=None) -> None:
    """The one pair queue of Buchberger's algorithm, for any representation.

    Completes basis in place, queueing only the pairs with an element from
    index first on: basis[:first] is a Groebner basis.  lead(g) is the
    leading monomial of an element packed by codec, with total degree below
    codec.limit; reduce(i, j, lcm) returns the monic remainder of the S-pair
    (i, j), whose leads have the packed lcm lcm, on division by basis, or
    None when it reduces to zero.  Pairs pop by least lcm total degree, ties
    by index.

    Pairs with coprime leading monomials are never queued.  A popped pair
    (i, j) is skipped by the chain criterion when some other leading
    monomial lead_k divides lcm(lead_i, lead_j) and neither (i, k) nor
    (j, k) is still queued (Gebauer and Moeller 1988).  bound = (weights, D)
    truncates at weighted degree D: no pair whose lcm lies above D is
    queued.  The chain criterion stays sound under it, as the pairs (i, k)
    and (j, k) it relies on have lcms dividing lcm(lead_i, lead_j).

    Every test runs on the packed leads.  Two leads are coprime when their
    supports, the guard bits of their nonzero fields, share no bit.  The
    lcm takes the larger of each pair of fields, chosen for all fields at
    once by one guarded subtraction.  Its total degree is the lcm modulo
    2^bits - 1, which sums the fields; that is exact because two leads of
    degree below codec.limit have an lcm of degree below 2^bits - 1.  The
    chain criterion is one divisibility test per lead.

    max_basis, when not None, bounds the number of elements: an int >= 0,
    ValueError for anything else, bools included.
    """
    check_max_basis(max_basis)
    guard, exponents = codec.guard, codec.exponents
    top_bit = codec.bits - 1
    ones = guard >> top_bit
    mod = (1 << codec.bits) - 1
    weights, top = bound if bound is not None else ((), None)
    pairs: list[tuple[int, int, int, int]] = []
    pending: set[tuple[int, int]] = set()
    leads = [lead(g) for g in basis]
    supports = [((m | guard) - ones) & guard for m in leads]

    def add_pairs(k):
        lead_k, support_k = leads[k], supports[k]
        for i in range(k):
            if supports[i] & support_k:
                a = leads[i]
                ge = ((a | guard) - lead_k) & guard     # guard bits of the fields a wins
                lcm = lead_k ^ ((a ^ lead_k) & (ge - (ge >> top_bit)))
                if top is None or weighted_degree(exponents(lcm), weights) <= top:
                    heapq.heappush(pairs, (lcm % mod, i, k, lcm))
                    pending.add((i, k))

    def chained(i, j, lcm):
        high = lcm | guard
        for k, lead_k in enumerate(leads):
            if ((high - lead_k) & guard == guard and k != i and k != j
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
        r = reduce(i, j, lcm)
        if r is None:
            continue
        if max_basis is not None and len(basis) >= max_basis:
            raise ComputationLimitExceeded(
                f"Groebner basis exceeded {max_basis} elements")
        basis.append(r)
        leads.append(lead(r))
        supports.append(((leads[-1] | guard) - ones) & guard)
        add_pairs(len(basis) - 1)


def _widening(degree: int, attempt):
    """attempt(bits) at the narrowest field width, EXPONENT_BITS doubled,
    whose value bits hold degree with one bit to spare; rerun twice as wide
    each time it raises OverflowError.  No step depends on the width, so
    every run that ends gives the same result."""
    bits = EXPONENT_BITS
    while degree >= 1 << (bits - 2):
        bits *= 2
    while True:
        try:
            return attempt(bits)
        except OverflowError:
            bits *= 2


# ---- the binomial engine ----------------------------------------------------

def binomial_pairs(polys) -> list[tuple[tuple[int, ...], tuple[int, ...]]] | None:
    """The exponent pairs (u, v) of the polynomials, or None unless each is a
    pure binomial c*(x^u - x^v): two terms whose coefficients cancel."""
    pairs = []
    for g in polys:
        if len(g.terms) != 2 or sum(g.terms.values()):
            return None
        pairs.append(tuple(g.terms))
    return pairs


def _normal_form(m: int, key: int, basis, guard: int):
    """(normal form, its key) of the packed monomial m of key key: m is
    rewritten by the first element (lead, tail, lead_key, tail_key) of basis
    whose lead divides it, m -> m - lead + tail, until none does.
    OverflowError when an exponent leaves its field."""
    while True:
        if m & guard:
            raise _overflow()
        high = m | guard
        for lead, tail, lead_key, tail_key in basis:
            if (high - lead) & guard == guard:
                m += tail - lead
                key += tail_key - lead_key
                break
        else:
            return m, key


def _spair_remainder(binomials: "PackedBinomials", i: int, j: int, lcm: int):
    """The remainder of the S-pair (i, j) of binomials.basis, as a new
    element, or None.

    The S-pair of x^a - x^b and x^c - x^d is x^(L-c+d) - x^(L-a+b) with
    L = lcm(a, c).  Dividing a monomial by a monic binomial gives a
    monomial, so the remainder is the difference of the two normal forms,
    oriented by key, and zero exactly when they meet.  Keys are carried
    relative to the key of L until the remainder is known to be nonzero.
    """
    basis = binomials.basis
    a, b, a_key, b_key = basis[i]
    c, d, c_key, d_key = basis[j]
    guard = binomials.codec.guard
    p, p_key = _normal_form(lcm - a + b, b_key - a_key, basis, guard)
    q, q_key = _normal_form(lcm - c + d, d_key - c_key, basis, guard)
    if p == q:
        return None
    if p_key < q_key:
        p, p_key, q, q_key = q, q_key, p, p_key
    lead_key = binomials.lead_key(p)
    return p, q, lead_key, lead_key - p_key + q_key


class PackedBinomials:
    """Monic binomials x^lead - x^tail under one order, packed at one width:
    the binomial engine behind every toric completion.

    Each element of ``basis`` is (lead, tail, lead_key, tail_key): the two
    monomials packed by ``codec`` and their integer keys under the order
    (``MonomialOrder.integer_key`` on the box below codec.limit, so a key is
    linear and orders the monomials whose exponents stay in their fields).
    A monomial is divided by one test and rewritten by one addition, its
    key by another (``_normal_form``), and the pair queue of
    ``_complete_with`` runs on the packed leads.  Every lead keeps its total
    degree below codec.limit and every exponent stays in its field;
    OverflowError otherwise, which ``_widening`` answers by a rerun.
    """

    __slots__ = ("order", "codec", "coeffs", "basis")

    def __init__(self, order: MonomialOrder, bits: int, pairs=()):
        self.order = order
        self.codec = MonomialCodec(order.nvars, bits)
        self.coeffs = order.integer_key([self.codec.limit] * order.nvars)
        self.basis = [self.element(u, v) for u, v in pairs]

    def element(self, u, v) -> tuple[int, int, int, int]:
        """The binomial of the exponent vectors u and v, larger term first."""
        u_key, v_key = sum(map(mul, self.coeffs, u)), sum(map(mul, self.coeffs, v))
        if u_key < v_key:
            u, u_key, v, v_key = v, v_key, u, u_key
        if sum(u) >= self.codec.limit:
            raise _overflow()
        return self.codec.pack(0, u), self.codec.pack(0, v), u_key, v_key

    def lead_key(self, m: int) -> int:
        """The key of the packed monomial m, checked to be fit for a lead."""
        exp = self.codec.exponents(m)
        if sum(exp) >= self.codec.limit:
            raise _overflow()
        return sum(map(mul, self.coeffs, exp))

    def pairs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The elements as (lead, tail) exponent vectors."""
        exponents = self.codec.exponents
        return [(exponents(lead), exponents(tail)) for lead, tail, _, _ in self.basis]

    def polynomials(self, variables) -> list[Polynomial]:
        return binomial_polynomials(variables, self.pairs(), self.order)

    def contains(self, g) -> bool:
        """True when the element g reduces to zero: its terms' normal forms meet."""
        lead, tail, lead_key, tail_key = g
        guard = self.codec.guard
        return (_normal_form(lead, lead_key, self.basis, guard)[0]
                == _normal_form(tail, tail_key, self.basis, guard)[0])

    def complete(self, first: int = 0, max_basis: int | None = None, bound=None) -> None:
        """Complete the basis in place through the one pair queue."""
        _complete_with(self.basis, itemgetter(0), partial(_spair_remainder, self),
                       first, self.codec, max_basis, bound)

    def reduce(self) -> None:
        """Make the basis reduced: leads that another lead divides are
        dropped, then each tail is brought to normal form against the others
        in turn.  Reduction never moves a leading monomial, so an element
        stays reduced when the others are reduced after it."""
        guard = self.codec.guard
        kept: list = []
        for g in sorted(self.basis, key=itemgetter(2)):
            high = g[0] | guard
            if not any((high - h[0]) & guard == guard for h in kept):
                kept.append(g)
        for i, (lead, tail, lead_key, tail_key) in enumerate(kept):
            tail, tail_key = _normal_form(tail, tail_key, kept[:i] + kept[i + 1:], guard)
            kept[i] = (lead, tail, lead_key, tail_key)
        self.basis = kept


def binomial_run(pairs, order: MonomialOrder, run):
    """run(PackedBinomials(order, bits, pairs)) under ``_widening``, the
    width chosen from the largest total degree among the pairs' terms."""
    return _widening(max((sum(m) for pair in pairs for m in pair), default=0),
                     lambda bits: run(PackedBinomials(order, bits, pairs)))


def binomial_polynomials(variables, pairs, order: MonomialOrder) -> list[Polynomial]:
    """The monic binomials x^lead - x^tail of the engine's (lead, tail) pairs
    under order, each lead remembered: the engine ranks as ``order.key`` does."""
    polys = [Polynomial._raw(variables, {lead: 1, tail: -1}) for lead, tail in pairs]
    for g, (lead, _) in zip(polys, pairs):
        _set_lead(g, (order, lead, 1))
    return polys


# ---- any other input, and one code path per operation -----------------------

class PolynomialBasis:
    """Monic Polynomials under one order, with the methods of
    ``PackedBinomials``, for input that is not all pure binomials.  The pair
    queue runs on the leads packed by ``codec``; S-polynomials are reduced
    by ``divide``.  A lead of total degree codec.limit raises OverflowError."""

    __slots__ = ("order", "codec", "basis")

    def __init__(self, order: MonomialOrder, bits: int, polys=()):
        self.order = order
        self.codec = MonomialCodec(order.nvars, bits)
        self.basis = [g.monic(order) for g in polys]

    def polynomials(self, variables) -> list[Polynomial]:
        return list(self.basis)

    def contains(self, g: Polynomial) -> bool:
        """True when g reduces to zero on division by the basis."""
        return not divide(g, self.basis, self.order).remainder

    def _lead(self, g: Polynomial) -> int:
        exp = g.leading(self.order)[0]
        if sum(exp) >= self.codec.limit:
            raise _overflow()
        return self.codec.pack(0, exp)

    def _remainder(self, i: int, j: int, lcm: int):
        """The monic remainder of the S-polynomial (i, j), or None."""
        s = s_polynomial(self.basis[i], self.basis[j], self.order)
        r = divide(s, self.basis, self.order).remainder if s else s
        return r.monic(self.order) if r else None

    def complete(self, first: int = 0, max_basis: int | None = None, bound=None) -> None:
        """Complete the basis in place through the one pair queue."""
        _complete_with(self.basis, self._lead, self._remainder, first, self.codec, max_basis, bound)

    def reduce(self) -> None:
        """Make the basis reduced, in the steps of ``PackedBinomials.reduce``."""
        order = self.order
        kept: list[Polynomial] = []
        for g in sorted(self.basis, key=lambda g: order.key(g.leading(order)[0])):
            lead = g.leading(order)[0]
            if not any(exp_divides(h.leading(order)[0], lead) for h in kept):
                kept.append(g)
        for i in range(len(kept)):
            kept[i] = divide(kept[i], kept[:i] + kept[i + 1:], order).remainder.monic(order)
        self.basis = kept


def basis_run(polys, order: MonomialOrder, run):
    """run(basis) under ``_widening``, the width chosen from the largest term
    degree: basis holds the polynomials, monic, as ``PackedBinomials`` when
    each is a pure binomial, else as a ``PolynomialBasis``."""
    pairs = binomial_pairs(polys)
    return _widening(max((sum(e) for g in polys for e in g.terms), default=0),
                     lambda bits: run(PolynomialBasis(order, bits, polys) if pairs is None
                                      else PackedBinomials(order, bits, pairs)))


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
    The completion runs on the basis ``basis_run`` picks, and only the
    completions become new Polynomials.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    if any(not g for g in gens):
        raise ValueError("zero polynomial among generators")
    if any(g.variables != gens[0].variables for g in gens):
        raise ValueError("generators live in different ambients")
    monic = [g.monic(order) for g in gens]

    def completions(basis):
        basis.complete(max_basis=max_basis)
        del basis.basis[:len(monic)]
        return basis.polynomials(gens[0].variables)

    return GroebnerBasis(monic + basis_run(monic, order, completions), order)


def is_groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder):
    """Buchberger's criterion: (all S-pairs reduce to zero, S-pair records)."""
    records = GroebnerBasis(gens, order)._spair_records()
    return all(not rec.remainder for rec in records.values()), records


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of f modulo the basis; zero iff f is in the ideal."""
    return gb.normal_form(f)


def reduce_basis(gb: GroebnerBasis) -> GroebnerBasis:
    """The reduced Groebner basis: monic, auto-reduced, sorted, unique,
    reduced on the basis ``basis_run`` picks."""
    if not gb.generators:
        return gb

    def reduced(basis):
        basis.reduce()
        return basis.polynomials(gb.generators[0].variables)

    return GroebnerBasis(basis_run(gb.generators, gb.order, reduced), gb.order)


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
