"""Test oracle for Betti numbers: the structure theorems of monomial curves.

Each theorem pins the Betti numbers of k[S] by combinatorics of S alone,
decided here on a membership table of S:

- Herzog (1970): for e = 3, (2, 1) if S is symmetric, else (3, 2).
- Kunz (1970): S is symmetric iff k[S] is Gorenstein, iff beta_p = 1.
- Bresinsky (1975): for e = 4 and S symmetric, (3, 3, 1) if S is a
  complete intersection, else beta_1 = 5 and, by Buchsbaum and Eisenbud,
  (5, 5, 1).
- Komeda (1982): for e = 4 and S pseudo-symmetric, (5, 6, 2).
- Delorme (1976): S is a complete intersection, beta_1 = e - 1, iff S is N
  or the gluing of two complete-intersection semigroups.

It imports nothing from ``src/`` or ``perfbench/``, and shares no code with
the Groebner path or with the other oracles.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def reach_table(gens, bound: int) -> bytearray:
    """reach[x] == 1 iff x <= bound is a nonnegative combination of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    for x in range(1, bound + 1):
        reach[x] = any(g <= x and reach[x - g] for g in gens)
    return reach


def frobenius_and_members(gens):
    """(F, contains) of the numerical semigroup <gens>, from one table
    through m * max(gens), above every gap."""
    bound = min(gens) * max(gens)
    reach = reach_table(gens, bound)
    frob = max((x for x in range(bound + 1) if not reach[x]), default=-1)
    return frob, lambda x: x > frob or (x >= 0 and bool(reach[x]))


def is_symmetric(gens) -> bool:
    """x in S exactly when F - x is not, for every integer x."""
    frob, contains = frobenius_and_members(gens)
    return all(contains(x) != contains(frob - x) for x in range(frob + 1))


def is_pseudo_symmetric(gens) -> bool:
    """F is even and x in S exactly when F - x is not, for x other than F/2."""
    frob, contains = frobenius_and_members(gens)
    return frob % 2 == 0 and all(contains(x) != contains(frob - x)
                                 for x in range(frob + 1) if 2 * x != frob)


def minimal(gens) -> tuple[int, ...]:
    """The minimal generators: those no combination of the smaller ones reaches."""
    kept: list[int] = []
    for g in sorted(set(gens)):
        if not (kept and reach_table(kept, g)[g]):
            kept.append(g)
    return tuple(kept)


def is_complete_intersection(gens) -> bool:
    """Delorme's recursion.  The minimal system A splits as A1 and A2, with
    d1 = gcd(A1) and d2 = gcd(A2), into a gluing of <A1/d1> and <A2/d2>
    exactly when d1 * d2 lies in <A1> and in <A2>: d2 in <A1/d1> and d1 in
    <A2/d2>."""
    gens = minimal(gens)
    if len(gens) <= 2:
        return True
    first, others = gens[0], gens[1:]
    for r in range(len(others)):
        for rest in combinations(others, r):
            a1 = (first,) + rest
            a2 = tuple(g for g in others if g not in rest)
            d1, d2 = gcd(*a1), gcd(*a2)
            s1, s2 = [a // d1 for a in a1], [a // d2 for a in a2]
            if (reach_table(s1, d2)[d2] and reach_table(s2, d1)[d1]
                    and is_complete_intersection(s1) and is_complete_intersection(s2)):
                return True
    return False


def structure_betti(gens):
    """The Betti numbers that Herzog's, Bresinsky's and Komeda's theorems pin
    for the minimal generators gens, or None where none of them applies."""
    if len(gens) == 3:
        return (2, 1) if is_symmetric(gens) else (3, 2)
    if len(gens) == 4:
        if is_symmetric(gens):
            return (3, 3, 1) if is_complete_intersection(gens) else (5, 5, 1)
        if is_pseudo_symmetric(gens):
            return (5, 6, 2)
    return None
