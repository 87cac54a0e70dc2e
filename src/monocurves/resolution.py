"""Schreyer syzygies, graded free resolutions, minimalization, Betti numbers.

The resolution is built level by level.  A Groebner basis of the ideal gives
the first differential; the reduction transcript of each S-pair
(``GroebnerBasis.transcript`` at the first level) yields a generating set of
the syzygy module which is again a Groebner basis with respect to the order
induced on positions by the parent leading terms, so the construction
iterates without ever running a module Buchberger completion.
Minimalization then splits off the trivial summands one unit entry at a
time, keeping the Schur complement of the differential that holds it; the
surviving ranks are the Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groebner import GroebnerBasis
from .orders import MonomialOrder
from .poly import (Polynomial, _inverse, exp_add, exp_divides, exp_lcm, exp_sub,
                   weighted_degree)
from .toric import GradedIdealPresentation, MonomialCurve, defining_ideal, monomial_curve


# ---- orders on free-module monomials (position, exponent vector) ----------

class SchreyerOrder:
    """Module order on one level of a Schreyer resolution, as one flat key.

    Level 0 is R^1 under the ring order (``rank_one``).  ``next(leads)``
    gives the order on the syzygies of a level whose elements have the
    leading monomials leads[k] = (pos, exp): (k, u) ranks as (pos, u * exp)
    does one level down, ties going to the smaller k.  With this order the
    Schreyer generators of the syzygy module are already a Groebner basis.

    Unwound to level 0, position k carries the offset off[k], the product
    of the leading monomials along its chain of positions p0 = 0, p1, ...,
    k, and the tie-breaks tie[k] = (-p0, -p1, ..., -k), so one flat key
    ranks the level: ``key((k, u)) = ring_key(u + off[k]) + tie[k]``.  The
    module monomial with the larger key is the larger one.
    """

    __slots__ = ("ring_key", "offsets", "ties")

    def __init__(self, ring_key, offsets, ties):
        self.ring_key = ring_key
        self.offsets = tuple(offsets)
        self.ties = tuple(ties)

    @classmethod
    def rank_one(cls, ring_order: MonomialOrder) -> "SchreyerOrder":
        return cls(ring_order.key, [(0,) * ring_order.nvars], [(0,)])

    def next(self, leads) -> "SchreyerOrder":
        """The order on the syzygies of elements with leading monomials leads."""
        return SchreyerOrder(self.ring_key,
                             [exp_add(exp, self.offsets[pos]) for pos, exp in leads],
                             [self.ties[pos] + (-k,) for k, (pos, _) in enumerate(leads)])

    def key(self, mm):
        pos, u = mm
        return self.ring_key(exp_add(u, self.offsets[pos])) + self.ties[pos]


# ---- free module elements --------------------------------------------------

class FreeModuleElement:
    """Vector of polynomials in a graded free module.

    ``shifts`` carries the weighted-degree label of each basis vector of the
    ambient module, so homogeneity of the element is checkable locally.
    """

    __slots__ = ("coordinates", "shifts")

    def __init__(self, coordinates: Sequence[Polynomial], shifts: Sequence[int]):
        coordinates = tuple(coordinates)
        if len(coordinates) != len(shifts):
            raise ValueError("one shift per coordinate")
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "shifts", tuple(shifts))

    def __setattr__(self, name, value):
        raise AttributeError("FreeModuleElement is immutable")

    def __bool__(self):
        return any(self.coordinates)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleElement)
                and self.coordinates == other.coordinates
                and self.shifts == other.shifts)

    def __repr__(self):
        return "(" + ", ".join(str(p) for p in self.coordinates) + ")"

    def scale(self, c) -> "FreeModuleElement":
        return FreeModuleElement(tuple(p.scale(c) for p in self.coordinates),
                                 self.shifts)

    def leading(self, key):
        """(position, exponents, coefficient) of the largest module monomial
        under the module order ``key``."""
        best = max(((pos, exp) for pos, poly in enumerate(self.coordinates)
                    for exp in poly.terms), key=key, default=None)
        if best is None:
            raise ValueError("zero element has no leading term")
        pos, exp = best
        return pos, exp, self.coordinates[pos].terms[exp]

    def degree(self, weights) -> int:
        """Homogeneous degree; raises when coordinates disagree."""
        degs = set()
        for shift, poly in zip(self.shifts, self.coordinates):
            for exp in poly.terms:
                degs.add(weighted_degree(exp, weights) + shift)
        if len(degs) != 1:
            raise ValueError(f"element is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def sort_key(self):
        return tuple(p.sort_key() for p in self.coordinates)


def _term_table(e: FreeModuleElement) -> tuple:
    """The terms ((position, exponents), coefficient) of a module element."""
    return tuple(((pos, exp), c)
                 for pos, poly in enumerate(e.coordinates)
                 for exp, c in poly.terms.items())


def _module_divide(p: dict, leads, flat, key):
    """Divide the vector with term map p (consumed) by monic divisors with
    leading monomials leads and term tables flat; returns (quotients,
    remainder dict).

    Same first-match strategy as ring division, restricted to divisors whose
    leading monomial sits at the current leading position.  key is the
    module order; each module monomial is ranked once, when it enters p.
    """
    quots: list[dict] = [{} for _ in flat]
    rem: dict = {}
    ranks = {mm: key(mm) for mm in p}
    while p:
        best = max(p, key=ranks.__getitem__)
        c = p[best]
        pos, exp = best
        for k, (dpos, dexp) in enumerate(leads):
            if dpos == pos and exp_divides(dexp, exp):
                qexp = exp_sub(exp, dexp)
                quots[k][qexp] = quots[k].get(qexp, 0) + c
                for (tpos, texp), tc in flat[k]:
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
    return [{e: c for e, c in q.items() if c} for q in quots], rem


def _syzygy_from_pair(i, j, quotients, leads, flat, ambient, shifts) -> FreeModuleElement:
    # Schreyer tuple (h_1, ..., h_i - u, ..., h_j + v, ..., h_t) for the
    # transcript S(g_i, g_j) = u g_i - v g_j = sum h_k g_k, checked by
    # accumulating sum h_k g_k over the term tables of the g_k
    lcm = exp_lcm(leads[i][1], leads[j][1])
    coords = list(quotients)
    for k, sign in ((i, -1), (j, 1)):
        u = exp_sub(lcm, leads[k][1])
        h = coords[k] = dict(coords[k])
        s = h.get(u, 0) + sign
        if s:
            h[u] = s
        else:
            del h[u]
    total: dict = {}
    for h, table in zip(coords, flat):
        for qexp, qc in h.items():
            for (tpos, texp), tc in table:
                mm = (tpos, exp_add(qexp, texp))
                s = total.get(mm, 0) + qc * tc
                if s:
                    total[mm] = s
                else:
                    del total[mm]
    if total:
        raise AssertionError("syzygy does not annihilate the basis")
    return FreeModuleElement([Polynomial._raw(ambient, h) for h in coords], shifts)


def _ring_syzygies(gb: GroebnerBasis, shifts):
    """Level 1: the Schreyer tuples of the ring S-pair transcripts, in pair order."""
    ambient = gb.generators[0].variables
    leads = [(0, exp) for exp in gb.leading_exponents]
    flat = [tuple(((0, exp), c) for exp, c in g.terms.items()) for g in gb.generators]
    t = len(flat)
    return [_syzygy_from_pair(i, j, [q.terms for q in gb.transcript(i, j).quotients],
                              leads, flat, ambient, shifts)
            for i in range(t) for j in range(i + 1, t)]


def _level_syzygies(elements, leads, key, shifts):
    """All Schreyer tuples of one module level (2 and up), in pair order.

    leads[k] = (pos, exp) is the leading monomial of elements[k] under key,
    as ``_prune_and_sort`` found it."""
    ambient = elements[0].coordinates[0].variables
    # _module_divide would loop forever on a divisor whose lead is not monic
    if any(e.coordinates[pos].terms[exp] != 1 for e, (pos, exp) in zip(elements, leads)):
        raise AssertionError("level elements must be monic")
    flat = [_term_table(e) for e in elements]
    t = len(elements)
    out = []
    for i in range(t):
        for j in range(i + 1, t):
            if leads[i][0] != leads[j][0]:
                continue
            lcm = exp_lcm(leads[i][1], leads[j][1])
            u, v = exp_sub(lcm, leads[i][1]), exp_sub(lcm, leads[j][1])
            spair = {(pos, exp_add(u, exp)): c for (pos, exp), c in flat[i]}
            for (pos, exp), c in flat[j]:
                mm = (pos, exp_add(v, exp))
                s = spair.get(mm, 0) - c
                if s:
                    spair[mm] = s
                else:
                    del spair[mm]
            quots, rem = _module_divide(spair, leads, flat, key)
            if rem:
                raise AssertionError("transcript integrity failure: "
                                     f"pair ({i}, {j}) left a remainder")
            out.append(_syzygy_from_pair(i, j, quots, leads, flat, ambient, shifts))
    return out


def schreyer_syzygies(gb: GroebnerBasis, weights=None) -> list[FreeModuleElement]:
    """Generators of Syz(g_1, ..., g_t) read off the S-pair transcripts."""
    if len(gb) <= 1:
        return []
    if weights is None:
        weights = (1,) * len(gb.generators[0].variables)
    shifts = tuple(g.weighted_degree(weights) for g in gb.generators)
    return _ring_syzygies(gb, shifts)


def _prune_and_sort(elements, key):
    """Keep a minimal Groebner subset, arranged for the length bound.

    Returns the kept elements, made monic, and their leading monomials
    (pos, exp) under key.  An element whose leading monomial is divisible
    by another kept one at the same position is redundant; among equal
    leading monomials the first by ``sort_key`` is kept.  Survivors are
    sorted by position, then by descending plain-lex leading exponent (kept
    leading monomials are distinct); with that arrangement each level drops
    one more variable from the leading monomials, which caps the resolution
    length by the variable count.
    """
    info = []
    for s in elements:
        pos, exp, c = s.leading(key)
        if c != 1:
            s = s.scale(_inverse(c))
        info.append(((pos, exp), s))
    info.sort(key=lambda it: (it[0][0], sum(it[0][1]), it[0][1], it[1].sort_key()))
    kept: list[tuple] = []
    for (pos, exp), s in info:
        if not any(kp == pos and exp_divides(ke, exp) for (kp, ke), _ in kept):
            kept.append(((pos, exp), s))
    kept.sort(key=lambda it: (it[0][0], tuple(-e for e in it[0][1])))
    return [s for _, s in kept], [lead for lead, _ in kept]


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

    def is_complex(self) -> bool:
        """Exact check that consecutive differentials compose to zero."""
        for k in range(len(self.differentials) - 1):
            a = self.differentials[k]
            b = self.differentials[k + 1]
            for r in range(self.ranks[k]):
                for c in range(self.ranks[k + 2]):
                    acc = Polynomial.zero(self.variables)
                    for m in range(self.ranks[k + 1]):
                        acc = acc + a[r][m] * b[m][c]
                    if acc:
                        return False
        return True

    def is_homogeneous(self) -> bool:
        for k, mat in enumerate(self.differentials):
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if not entry:
                        continue
                    want = self.shifts[k + 1][c] - self.shifts[k][r]
                    if (not entry.is_weighted_homogeneous(self.weights)
                            or entry.weighted_degree(self.weights) != want):
                        return False
        return True

    def has_constant_entries(self) -> bool:
        return any(_constant_value(e) is not None
                   for mat in self.differentials for row in mat for e in row)

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
    """Schreyer resolution of R/I from a graded presentation of I.

    The generators must be a Groebner basis for ``pres.order`` (ValueError
    otherwise).  Each level, they and then the Schreyer syzygies of the
    previous one (a Groebner basis in the induced order), is pruned to a
    minimal basis and sorted, so iteration stops at the variable-count bound.
    """
    variables, weights = pres.variables, pres.weights
    for g in pres.generators:
        if not g.is_weighted_homogeneous(weights):
            raise ValueError(f"non-homogeneous generator {g}")
    if not pres.generators:
        return GradedResolution([1], [[0]], [], variables, weights)
    order = SchreyerOrder.rank_one(pres.order)
    rank_one = [FreeModuleElement((g,), (0,)) for g in pres.generators]
    kept, leads = _prune_and_sort(rank_one, order.key)
    gb = GroebnerBasis([e.coordinates[0] for e in kept], pres.order)
    # gb must span every generator; the level-1 transcripts check it is a basis
    if any(gb.normal_form(g) for g in pres.generators):
        raise ValueError("presentation generators are not a Groebner basis")

    nvars = len(variables)
    shifts: list[list[int]] = [[0], [g.weighted_degree(weights) for g in gb]]
    diffs: list[list[list[Polynomial]]] = [[list(gb.generators)]]
    syz = _ring_syzygies(gb, tuple(shifts[-1]))
    while syz:
        if len(diffs) >= nvars:
            raise AssertionError("resolution exceeded the variable-count bound")
        order = order.next(leads)
        nxt, leads = _prune_and_sort(syz, order.key)
        diffs.append([[nxt[c].coordinates[r] for c in range(len(nxt))]
                      for r in range(len(shifts[-1]))])
        shifts.append([s.degree(weights) for s in nxt])
        syz = _level_syzygies(nxt, leads, order.key, tuple(shifts[-1]))
    ranks = [len(s) for s in shifts]
    return GradedResolution(ranks, shifts, diffs, variables, weights)


def _first_unit(mat, start):
    """(row, column) of the first nonzero constant of mat in row-major
    order from row start on, or None."""
    for r in range(start, len(mat)):
        for c, entry in enumerate(mat[r]):
            if _constant_value(entry) is not None:
                return r, c
    return None


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
        while (unit := _first_unit(mat, r0)) is not None:
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


def betti_numbers(curve, *, max_basis: int | None = None) -> list[int]:
    """Betti numbers beta_1, ..., beta_p of the curve's defining ideal."""
    if not isinstance(curve, MonomialCurve):
        curve = monomial_curve(tuple(curve))
    pres = defining_ideal(curve, max_basis=max_basis)
    res = free_resolution(pres)
    return minimalize(res).betti
