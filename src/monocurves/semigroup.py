"""Exact combinatorics of numerical semigroups."""

from __future__ import annotations

from dataclasses import dataclass
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


def _minimal_system(gens: list[int]) -> tuple[int, ...]:
    # ascending scan: a generator is redundant iff the smaller kept ones
    # already represent it (larger generators cannot occur in a representation)
    kept: list[int] = []
    for g in sorted(set(gens)):
        if kept and _closure_table(kept, g)[g]:
            continue
        kept.append(g)
    return tuple(kept)


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

    Immutable; the membership table through the conductor is built at
    construction, so instances are safe to share across threads.
    """

    __slots__ = ("minimal_generators", "frobenius", "conductor", "_table")

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generating set")
        if any(not isinstance(g, int) or isinstance(g, bool) or g < 1 for g in gens):
            raise ValueError("generators must be positive integers")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise ValueError("not a numerical semigroup (gcd of generators is not 1)")
        mins = _minimal_system(gens)
        object.__setattr__(self, "minimal_generators", mins)
        if mins == (1,):
            frob, cond, table = -1, 0, (True,)
        else:
            bound = mins[0] * mins[-1]  # classical upper bound for the conductor
            reach = _closure_table(mins, bound)
            frob = max(i for i in range(bound + 1) if not reach[i])
            cond = frob + 1
            table = tuple(bool(reach[i]) for i in range(cond + 1))
        object.__setattr__(self, "frobenius", frob)
        object.__setattr__(self, "conductor", cond)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

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
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return self._table[x]

    def __contains__(self, x):
        return self.contains(x)

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
        return frozenset(x for x in range(self.conductor) if not self._table[x])

    def is_symmetric(self) -> bool:
        # gaps lie in 0..F; N itself (F = -1, no gaps) is symmetric
        frob = self.frobenius
        if frob % 2 == 0:
            return False
        return all(self.contains(frob - x) for x in self.gaps())

    def genus(self) -> int:
        return sum(1 for x in range(self.conductor) if not self._table[x])

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
