"""Independent semigroup oracle: round-robin Apéry sets (Böcker & Lipták 2007).

Nothing here calls the program under test.  Everything follows from the
Apéry set Ap(S, m) of the multiplicity m, a shortest-path table on Z/m:

- membership: x in S  iff  x >= Ap[x mod m];
- Frobenius number F = max Ap - m (Brauer & Shockley 1962), conductor F + 1;
- genus = sum(w // m for w in Ap) (Selmer 1977);
- pseudo-Frobenius numbers PF(S) = {w - m : w maximal in Ap under <=_S};
- type = |PF(S)|, and S is symmetric iff the type is 1 (Kunz 1970).

PF(S) is also the set of gaps a with a + s in S for every nonzero s in S,
which is the program's delta' of the derivation module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _round_robin(gens) -> list:
    """t[r] = least element of the monoid <gens> congruent to r modulo
    min(gens), or None where no element is.

    Round-robin: for each further generator a, walk every cycle of
    r -> r + a (mod m) once, starting from the cycle's minimum, relaxing
    t[r + a] against t[r] + a.
    """
    gens = sorted(set(gens))
    m = gens[0]
    table: list = [None] * m
    table[0] = 0
    for a in gens[1:]:
        step = a % m
        if step == 0:
            continue
        d = gcd(step, m)
        cycle = m // d
        for p in range(d):
            start, best = None, None
            r = p
            for _ in range(cycle):
                if table[r] is not None and (best is None or table[r] < best):
                    start, best = r, table[r]
                r = (r + step) % m
            if start is None:
                continue
            r = start
            for _ in range(cycle - 1):
                nxt = (r + step) % m
                cand = table[r] + a
                if table[nxt] is None or cand < table[nxt]:
                    table[nxt] = cand
                r = nxt
    return table


def apery_table(gens) -> list[int]:
    """Ap[r] = least element of <gens> congruent to r modulo min(gens)."""
    table = _round_robin(gens)
    if any(w is None for w in table):
        raise ValueError(f"generators {sorted(gens)} have gcd > 1")
    return table


def is_minimal_system(gens) -> bool:
    """No generator is a nonnegative combination of the others."""
    gens = sorted(gens)
    if len(set(gens)) != len(gens):
        return False
    for i, g in enumerate(gens):
        if i:
            w = _round_robin(gens[:i])[g % gens[0]]
            if w is not None and w <= g:
                return False
    return True


def gcd_all(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g


@dataclass(frozen=True)
class SemigroupFacts:
    multiplicity: int
    embedding_dimension: int
    frobenius: int
    conductor: int
    genus: int
    pseudo_frobenius: tuple[int, ...]
    apery: frozenset[int]

    @property
    def type(self) -> int:
        return len(self.pseudo_frobenius)

    @property
    def symmetric(self) -> bool:
        return self.type == 1


def facts(gens) -> SemigroupFacts:
    """Invariants of the semigroup minimally generated by ``gens`` (all >= 2)."""
    gens = tuple(sorted(gens))
    ap = apery_table(gens)
    m = gens[0]
    apery = frozenset(ap)
    maximal = [w for w in ap
               if all(w + a != ap[(w + a) % m] for a in gens[1:])]
    frob = max(ap) - m
    return SemigroupFacts(
        multiplicity=m,
        embedding_dimension=len(gens),
        frobenius=frob,
        conductor=frob + 1,
        genus=sum(w // m for w in ap),
        pseudo_frobenius=tuple(sorted(w - m for w in maximal)),
        apery=apery,
    )
