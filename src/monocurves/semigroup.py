"""Exact combinatorics of numerical semigroups."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd


def _closure_table(gens, bound: int) -> bytearray:
    """reach[i] == 1 iff i is a nonnegative integer combination of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    for i in range(1, bound + 1):
        for g in gens:
            if g <= i and reach[i - g]:
                reach[i] = 1
                break
    return reach


@dataclass(frozen=True)
class AperySet:
    """Least elements of the semigroup in each residue class mod base."""
    base: int
    elements: frozenset[int]

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class SemigroupInvariants:
    multiplicity: int
    embedding_dimension: int
    frobenius: int
    conductor: int
    genus: int


class NumericalSemigroup:
    """Additively closed subset of N with 0 and finite complement.

    Held as its Apéry set Ap(S, m) = (w_0, ..., w_{m-1}), w_r the least
    element of S congruent to r mod the multiplicity m, so x is in S
    exactly when x >= w_(x mod m), and every invariant is a formula on the
    m integers (Rosales and García-Sánchez, Numerical Semigroups, ch. 1-4).
    Immutable, so instances are safe to share across threads.
    """

    __slots__ = ("minimal_generators", "frobenius", "conductor", "_apery")

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generating set")
        if any(not isinstance(g, int) or isinstance(g, bool) or g < 1 for g in gens):
            raise ValueError("generators must be positive integers")
        if gcd(*gens) != 1:
            raise ValueError("not a numerical semigroup (gcd of generators is not 1)")
        m = min(gens)
        # m * max(gens) exceeds the classical bound (m - 1)(max - 1) on the
        # conductor, so the table holds the least element of every class
        reach = _closure_table(gens, m * max(gens))
        apery = tuple(r + m * reach[r::m].index(1) for r in range(m))
        # g is minimal unless it splits as x + (g - x) with both parts in S
        mins = tuple(g for g in sorted(set(gens))
                     if not any(reach[x] and reach[g - x] for x in range(1, g // 2 + 1)))
        object.__setattr__(self, "minimal_generators", mins)
        object.__setattr__(self, "frobenius", max(apery) - m)  # Brauer and Shockley
        object.__setattr__(self, "conductor", max(apery) - m + 1)
        object.__setattr__(self, "_apery", apery)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    def __reduce__(self):
        return NumericalSemigroup, (self.minimal_generators,)

    def __repr__(self):
        return f"NumericalSemigroup{self.minimal_generators}"

    def __eq__(self, other):
        return (isinstance(other, NumericalSemigroup)
                and self.minimal_generators == other.minimal_generators)

    def __hash__(self):
        return hash(self.minimal_generators)

    @property
    def multiplicity(self) -> int:
        return self.minimal_generators[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)

    def contains(self, x: int) -> bool:
        # a negative x lies below every w_r
        apery = self._apery
        return x >= apery[x % len(apery)]

    __contains__ = contains

    def apery_set(self, a: int) -> AperySet:
        """Apéry set with respect to a nonzero element a of the semigroup."""
        if not isinstance(a, int) or a <= 0 or not self.contains(a):
            raise ValueError(f"{a} is not a nonzero element of the semigroup")
        elems = []
        for r in range(a):
            s = r
            while not self.contains(s):
                s += a
            elems.append(s)
        return AperySet(a, frozenset(elems))

    def gaps(self) -> frozenset[int]:
        # the gaps of class r are r, r + m, ..., w_r - m
        m = len(self._apery)
        return frozenset(chain.from_iterable(range(r, w, m) for r, w in enumerate(self._apery)))

    def is_symmetric(self) -> bool:
        # S is symmetric exactly when it has (F + 1) / 2 gaps
        return 2 * self.genus() == self.conductor

    def genus(self) -> int:
        # class r holds w_r // m gaps (Selmer)
        m = len(self._apery)
        return sum(w // m for w in self._apery)

    def basic_invariants(self) -> SemigroupInvariants:
        return SemigroupInvariants(
            multiplicity=self.multiplicity,
            embedding_dimension=self.embedding_dimension,
            frobenius=self.frobenius,
            conductor=self.conductor,
            genus=self.genus(),
        )


def new_semigroup(generators) -> NumericalSemigroup:
    """Build the semigroup generated by ``generators`` (minimalized)."""
    return NumericalSemigroup(generators)
