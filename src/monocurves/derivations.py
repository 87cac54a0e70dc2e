"""Minimal generator count of the derivation module from the Apéry set."""

from __future__ import annotations

from dataclasses import dataclass

from .semigroup import NumericalSemigroup


def delta_prime(semigroup: NumericalSemigroup) -> frozenset[int]:
    """Gaps a with a + s in the semigroup for every nonzero element s.

    Δ′ = PF(S) read off Ap(S, m): the w - m for the w != 0 of Ap(S, m)
    that are maximal under <=_S, that is w - m + n in S for every minimal
    generator n (Rosales and García-Sánchez, Numerical Semigroups,
    Prop. 2.20).  These are the gaps of the definition: a gap a has
    a + m in S exactly when a + m is in Ap(S, m), and checking a + n over
    the minimal generators suffices, since any nonzero s is n + s' with
    s' in S.  O(m * e) membership tests and no gap list.
    """
    m = semigroup.multiplicity
    gens = semigroup.minimal_generators[1:]  # w - m + m = w is in S
    contains = semigroup.contains
    return frozenset(w - m for w in semigroup.apery_set(m).elements
                     if w and all(contains(w - m + n) for n in gens))


@dataclass(frozen=True)
class KraftData:
    """Derivation-module data: mu equals card(delta_prime) + 1, realized by
    the derivations t^(a+1) d/dt for a in delta_prime and the Euler one."""
    semigroup: NumericalSemigroup
    delta_prime: frozenset[int]
    mu: int
    generator_exponents: frozenset[int]


def derivation_rank(semigroup: NumericalSemigroup) -> KraftData:
    dp = delta_prime(semigroup)
    return KraftData(
        semigroup=semigroup,
        delta_prime=dp,
        mu=len(dp) + 1,
        generator_exponents=frozenset(a + 1 for a in dp | {0}),
    )
