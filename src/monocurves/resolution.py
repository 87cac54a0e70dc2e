"""Schreyer syzygies, graded free resolutions, minimalization, Betti numbers.

The resolution is built level by level.  A Groebner basis of the ideal gives
the first differential; the reduction transcript of each S-pair yields a
generating set of the syzygy module which is again a Groebner basis with
respect to the order induced on positions by the parent leading terms, so
the construction iterates without ever running a module Buchberger
completion.  Each level is a ``groebner.PackedLevel``: its elements are
packed term maps, every module monomial one int, each term with its
integer key under the level's ``SchreyerOrder``, and every level, the ring
level included, divides its S-pairs by ``PackedLevel.spair_division``.  The
leading monomial of each syzygy is read off its pair (Schreyer's theorem),
so a level is pruned on those leads first and only the kept pairs are
divided.  ``free_resolution`` builds dense differentials from these
levels, which minimalization reduces one unit entry at a time by Schur
complements.  The Betti numbers of a curve take no resolution: they are
the Koszul homology of k[S]/(t^m) over Ap(S, m), one rank a degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count

from .groebner import GroebnerBasis, PackedLevel, remainder_error
from .poly import Polynomial, _inverse, exp_divides, exp_lcm, exp_sub, weighted_degree
from .toric import GradedIdealPresentation, MonomialCurve, _fibre_minima, monomial_curve


def _dense_key(coords: list[dict]):
    """The tie key of a module element given by its coordinates {exp: c}:
    per position, its sorted (exponents, (numerator, denominator)) terms,
    as ``Polynomial.sort_key`` ranks one polynomial."""
    return tuple(tuple(sorted((exp, (c.numerator, c.denominator)) for exp, c in h.items()))
                 for h in coords)


def _pairs(leads) -> list[tuple]:
    """(i, j, u, v) for each S-pair u e_i - v e_j of a level, i < j leading
    at one position and u e_i, v e_j their lcm, in (i, j) order."""
    out = []
    for i, (ipos, iexp) in enumerate(leads):
        for j in range(i + 1, len(leads)):
            jpos, jexp = leads[j]
            if ipos == jpos:
                lcm = exp_lcm(iexp, jexp)
                out.append((i, j, exp_sub(lcm, iexp), exp_sub(lcm, jexp)))
    return out


def _syzygy(level: PackedLevel, pairs, n: int) -> dict:
    """The negated Schreyer tuple of pairs[n], a packed term map.

    A remainder means the ring level is no Groebner basis (ValueError naming
    the first such pair in (i, j) order, as a scan of every pair would) or,
    above it, breaks Schreyer's theorem (AssertionError).
    """
    i, j, u, v = pairs[n]
    quotients, rem = level.spair_division(i, j, u, v)
    if rem:
        if level.order.rank == 1:
            for i2, j2, u2, v2 in pairs:
                if level.spair_division(i2, j2, u2, v2)[1]:
                    raise remainder_error(i2, j2)
        raise AssertionError(f"transcript integrity failure: pair ({i}, {j}) left a remainder")
    # The negated tuple (-h_1, ..., u - h_i, ..., -v - h_j, ...) of
    # S(g_i, g_j) = u g_i - v g_j = sum h_k g_k, checked by accumulating
    # sum h_k g_k.  The quotients stay below the lcm, so the lead is (i, u)
    # with coefficient 1 (ties go to the smaller i); a quotient term at
    # (i, u) or (j, v) would be overwritten and fail the check.
    codec = level.codec
    shift, fields = codec.shift, codec.fields
    syz = {m: -c for m, c in quotients.items()}
    syz[codec.pack(i, u)], syz[codec.pack(j, v)] = 1, -1
    total: dict = {}
    for m, qc in syz.items():
        q = m & fields
        for t, _, tc in level.elements[m >> shift]:
            mm = t + q
            s = total.get(mm, 0) + qc * tc
            if s:
                total[mm] = s
            else:
                del total[mm]
    if total:
        raise AssertionError("syzygy does not annihilate the basis")
    return syz


def _kept_syzygies(level: PackedLevel):
    """The syzygies of a level that pruning keeps, and their leads (i, u).

    By Schreyer's theorem the syzygy of the pair (i, j) leads at (i, u), so
    the pairs are pruned on their leads first and only the kept ones are
    divided, with each member of a tied group the dense tie key needs.
    At the ring level this still decides whether the level is a Groebner
    basis.  The pair syzygies tau_ij = u e_i - v e_j of the leading terms
    are a Groebner basis of Syz(LT(G)) with leading monomials (i, u), so
    the kept ones, whose leads divide every pruned lead at its position,
    are one too and generate Syz(LT(G)).  By the syzygy form of Buchberger's criterion (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 2, section 9)
    G is a Groebner basis exactly when the S-pair of each element of a
    homogeneous generating set of Syz(LT(G)) reduces to zero, so a
    remainder among the kept pairs exists exactly when one does among all.
    """
    pairs = _pairs(level.leads)
    leads = [(i, u) for i, _, u, _ in pairs]
    found: dict = {}

    def syzygy(n):
        if n not in found:
            found[n] = _syzygy(level, pairs, n)
        return found[n]

    rank = len(level.leads)
    kept = _prune_and_sort(leads, lambda n: _dense_key(level.coordinates(syzygy(n), rank)))
    return [syzygy(n) for n in kept], [leads[n] for n in kept]


def schreyer_syzygies(gb: GroebnerBasis) -> list[tuple[Polynomial, ...]]:
    """Generators of Syz(g_1, ..., g_t) read off the S-pair transcripts,
    one for every pair (i, j), i < j, in pair order: the coordinates
    (h_1, ..., h_t) with sum h_k g_k = 0, where h_i = q_i - u, h_j = q_j + v,
    h_k = q_k otherwise, u g_i - v g_j the S-polynomial and q its quotients
    (``GroebnerBasis.transcript``)."""
    if len(gb) <= 1:
        return []
    variables = gb.generators[0].variables

    def syzygies(level):
        pairs = _pairs(level.leads)
        return [level.coordinates(_syzygy(level, pairs, n), len(gb)) for n in range(len(pairs))]

    return [tuple(Polynomial._raw(variables, {exp: -c for exp, c in h.items()}) for h in coords)
            for coords in gb._on_level(syzygies)]


def _prune_and_sort(leads, tie_key) -> list[int]:
    """Keep a minimal Groebner subset, arranged for the length bound.

    leads[k] = (pos, exp) is the leading monomial of the monic element k,
    read off its S-pair (at level 0, ``Polynomial.leading``): no term is
    ranked here.  Returns the kept indices.  An element whose leading
    monomial another kept one at the same position divides is redundant;
    of equal leading monomials the first by tie_key (``_dense_key`` of the
    element's coordinates, or at level 0 its ``Polynomial.sort_key``,
    called only inside such groups) is kept.  Survivors are sorted by
    position, then by descending plain-lex leading exponent; so each level
    drops one more variable from the leading monomials, which caps the
    resolution length by the variable count.
    """
    groups: dict = {}
    for k, lead in enumerate(leads):
        groups.setdefault(lead, []).append(k)
    kept: list[tuple] = []
    at: dict = {}       # pos -> the kept leading exponents there
    for lead in sorted(groups, key=lambda lead: (lead[0], sum(lead[1]), lead[1])):
        pos, exp = lead
        divisors = at.setdefault(pos, [])
        if not any(exp_divides(ke, exp) for ke in divisors):
            divisors.append(exp)
            group = groups[lead]
            kept.append((lead, group[0] if len(group) == 1 else min(group, key=tie_key)))
    kept.sort(key=lambda it: (it[0][0], tuple(-e for e in it[0][1])))
    return [k for _, k in kept]


# ---- graded resolutions -----------------------------------------------------

@dataclass
class GradedResolution:
    """Chain of free modules with degree labels and differential matrices.

    ``differentials[k]`` maps module k+1 to module k; its column c is the
    image of the c-th basis vector.  Entry (r, c) is homogeneous of degree
    shifts[k+1][c] - shifts[k][r].
    """

    ranks: list[int]
    shifts: list[list[int]]
    differentials: list[list[list[Polynomial]]]
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    minimal: bool = False

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    @property
    def betti(self) -> list[int]:
        return list(self.ranks[1:])

    def to_json_dict(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "shifts": [list(s) for s in self.shifts],
            "minimal": self.minimal,
            "variables": list(self.variables),
            "weights": list(self.weights),
            "differentials": [[[str(e) for e in row] for row in mat]
                              for mat in self.differentials],
        }

    def to_text(self) -> str:
        lines = [f"graded free resolution, length {self.length}"
                 f"{' (minimal)' if self.minimal else ''}"]
        lines.append("ranks: " + " ".join(str(r) for r in self.ranks))
        for k, s in enumerate(self.shifts):
            lines.append(f"shifts[{k}]: " + " ".join(str(x) for x in s))
        for k, mat in enumerate(self.differentials):
            lines.append(f"differential {k + 1} ({self.ranks[k]} x {self.ranks[k + 1]}):")
            for row in mat:
                lines.append("  [" + ", ".join(str(e) for e in row) + "]")
        return "\n".join(lines)


def _constant_value(poly: Polynomial):
    if len(poly.terms) != 1:
        return None
    (exp, c), = poly.terms.items()
    if any(exp):
        return None
    return c


def free_resolution(pres: GradedIdealPresentation) -> GradedResolution:
    """Schreyer resolution of R/I from a graded presentation of I, its
    differentials dense matrices of ``Polynomial``s.

    The generators must be a Groebner basis for ``pres.order`` (ValueError
    otherwise).  Each level, they and then the Schreyer syzygies of the
    previous one (a Groebner basis in the induced order), is pruned to a
    minimal basis and sorted, so iteration stops at the variable-count bound.
    Every level packs its monomials at the width ``GroebnerBasis`` chose
    for the generators; a level that outgrows it reruns the resolution
    twice as wide, so any exponent is taken.
    """
    variables, weights = pres.variables, pres.weights
    for g in pres.generators:
        if not g.is_weighted_homogeneous(weights):
            raise ValueError(f"non-homogeneous generator {g}")
    if not pres.generators:
        return GradedResolution([1], [[0]], [], variables, weights)
    gens = [g.monic(pres.order) for g in pres.generators]
    leads = [(0, g.leading(pres.order)[0]) for g in gens]
    kept = _prune_and_sort(leads, lambda k: gens[k].sort_key())
    gb = GroebnerBasis([gens[k] for k in kept], pres.order)
    # gb must span the generators it dropped; the level-1 transcripts check
    # it is a basis
    dropped = set(range(len(gens))).difference(kept)
    if any(gb.normal_form(pres.generators[k]) for k in sorted(dropped)):
        raise ValueError("presentation generators are not a Groebner basis")

    def resolve(ring):
        # columns[c] is the packed term map of the image of the c-th basis
        # vector of the level, its lead leads[c]
        level, shifts, diffs = ring, [[0]], []
        columns = [{m: c for m, _, c in terms} for terms in ring.elements]
        leads = ring.leads
        for depth in count(1):
            rank = len(shifts[-1])
            shifts.append([weighted_degree(exp, weights) + shifts[-1][pos] for pos, exp in leads])
            coords = [ring.coordinates(col, rank) for col in columns]
            diffs.append([[Polynomial._raw(variables, col[r]) for col in coords]
                          for r in range(rank)])
            columns, leads = _kept_syzygies(level)
            if not columns:
                return GradedResolution([len(s) for s in shifts], shifts, diffs,
                                        variables, weights)
            if depth >= len(variables):
                raise AssertionError("resolution exceeded the variable-count bound")
            level = PackedLevel(level.order.next(level.leads), columns, leads)

    return gb._on_level(resolve)


def _first_unit(mat, start, rows, columns):
    """(row, column) of the first nonzero constant of mat in row-major
    order from row start on, or None, looked for only where the row and
    column shifts are equal: a constant has degree 0."""
    at: dict = {}
    for c, s in enumerate(columns):
        at.setdefault(s, []).append(c)
    return next(((r, c) for r in range(start, len(mat)) for c in at.get(rows[r], ())
                 if _constant_value(mat[r][c]) is not None), None)


def minimalize(res: GradedResolution) -> GradedResolution:
    """Cancel unit entries to extract the minimal resolution.

    A nonzero constant u at (r0, c0) of d_k spans a trivial direct summand.
    Splitting it off replaces d_k by its Schur complement on the other rows
    and columns, entry (r, c) becoming d_k[r][c] - d_k[r][c0] * d_k[r0][c] / u,
    and deletes row c0 of d_{k+1} and column r0 of d_{k-1} with the two
    basis vectors.  Units are cancelled one at a time in row-major scan
    order, so the output is reproducible.

    The resolution must be graded with positive weights: each entry (r, c)
    of d_k is zero or homogeneous of degree shifts[k+1][c] - shifts[k][r].
    """
    diffs = [[row[:] for row in mat] for mat in res.differentials]
    shifts = [list(s) for s in res.shifts]
    for k, mat in enumerate(diffs):
        r0 = 0
        # A cancellation leaves d_{k-1} and d_{k+1} without new entries, and
        # puts a new constant at (r, c) of d_k only if d_k[r][c0] and
        # d_k[r0][c] both have degree 0 (their degrees add up to that of
        # (r, c)).  Then d_k[r][c0] is a unit too, so r > r0, or the scan
        # would have picked it first: the scan resumes at row r0.
        while (unit := _first_unit(mat, r0, shifts[k], shifts[k + 1])) is not None:
            r0, c0 = unit
            pivot = mat.pop(r0)
            inv = _inverse(_constant_value(pivot.pop(c0)))
            lam = [(c, p.scale(inv)) for c, p in enumerate(pivot) if p]
            for row in mat:
                m = row.pop(c0)
                if m:
                    for c, l in lam:
                        row[c] = row[c] - l * m
            if k + 1 < len(diffs):
                del diffs[k + 1][c0]
            if k:
                for row in diffs[k - 1]:
                    del row[r0]
            del shifts[k + 1][c0]
            del shifts[k][r0]
    while len(shifts) > 1 and not shifts[-1]:
        shifts.pop()
        diffs.pop()
    ranks = [len(s) for s in shifts]
    return GradedResolution(ranks, shifts, diffs, res.variables, res.weights,
                            minimal=True)


def betti_numbers(curve) -> list[int]:
    """Betti numbers beta_1, ..., beta_p of the curve's defining ideal, the
    graded ones of ``_graded_betti`` summed over s: no kernel, no Groebner
    basis and no resolution is built."""
    if not isinstance(curve, MonomialCurve):
        curve = monomial_curve(tuple(curve))
    betti = [0] * len(curve.exponents)
    for (i, _), b in _graded_betti(curve.exponents).items():
        betti[i] += b
    return betti[1:]


def _graded_betti(exponents) -> Counter:
    """{(i, s): beta_{i,s}} of k[S], i = 0, ..., p, over the ring of one
    variable per exponent, by Koszul homology over Ap(S, m).

    With m the least exponent and n_1, ..., n_p the others, t^m is a
    nonzerodivisor on k[S], so k[S] and B = k[S]/(t^m) over the other p
    variables have the same graded Betti numbers (Bruns and Herzog,
    Cohen-Macaulay Rings, ch. 1).  B has the basis t^w, w in Ap(S, m), and
    x_j t^w is t^(w + n_j) when w + n_j lies in Ap(S, m), 0 otherwise.  So
    beta_{i,s} is the homology in degree s of the Koszul complex K(x; B)
    (Stamate, Betti numbers for numerical semigroup rings, 2018): its basis
    in degree s and homological degree i is one e_F t^(s - n_F) for each
    i-subset F of the others with s - n_F in Ap(S, m), and d(e_F t^w) is
    the sum over the t-th member j of F of (-1)^t e_(F - j) t^(w + n_j).
    In degree s a vector is named by F alone, and e_(F - j) t^(w + n_j) is
    one exactly when F - j is named there, so each differential is a block
    of +-1 rows and beta_{i,s} = #F_{i,s} - rk d_i - rk d_(i+1), every rank
    taken by ``_rank``.  Ap(S, m) is the weighted degrees of the mu(w) of
    ``toric._fibre_minima``; at most m 2^p vectors occur.
    """
    exponents = tuple(exponents)
    low = exponents.index(min(exponents))
    others = tuple(j for j in range(len(exponents)) if j != low)
    apery = [weighted_degree(u, exponents)
             for u in _fibre_minima(exponents, others, exponents[low]).values()]
    # per subset F, a bitmask over others: n_F, |F| and the faces (F - j, (-1)^t)
    degree, size, faces = [0], [0], [()]
    for bit, j in enumerate(others):
        top = 1 << bit
        for f in range(top):
            degree.append(degree[f] + exponents[j])
            size.append(size[f] + 1)
            faces.append(tuple((g | top, c) for g, c in faces[f]) + ((f, (-1) ** size[f]),))
    vectors: dict = {}      # s -> {F: |F|}, one per vector e_F t^(s - n_F)
    for w in apery:
        for f, n in enumerate(degree):
            vectors.setdefault(w + n, {})[f] = size[f]
    graded: dict = {}
    for s, named in vectors.items():
        rows: dict = {}     # i -> the nonzero rows of d_i in degree s
        for f, i in named.items():
            graded[i, s] = graded.get((i, s), 0) + 1
            if row := {g: c for g, c in faces[f] if g in named}:
                rows.setdefault(i, []).append(row)
        for i, block in rows.items():
            rank = _rank(block)
            graded[i - 1, s] -= rank
            graded[i, s] -= rank
    return Counter({key: b for key, b in graded.items() if b})


def _rank(vectors) -> int:
    """Rank over Q of sparse vectors {index: c}, by exact elimination."""
    pivots: dict = {}       # index -> a reduced vector that is 1 there
    for v in map(dict, vectors):
        for p, w in pivots.items():
            if c := v.get(p):
                for q, wc in w.items():
                    v[q] = v.get(q, 0) - c * wc
        if v := {q: x for q, x in v.items() if x}:
            p, c = next(iter(v.items()))
            pivots[p] = {q: x * _inverse(c) for q, x in v.items()}
    return len(pivots)
