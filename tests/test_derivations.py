import random
from math import gcd

from monocurves import NumericalSemigroup, delta_prime, derivation_rank, new_semigroup


def brute_delta_prime(s):
    """Full-definition oracle: alpha + x in S for every nonzero element x."""
    out = set()
    for a in s.gaps():
        if all(s.contains(a + x)
               for x in range(1, a + s.conductor + 1) if s.contains(x)):
            out.add(a)
    return frozenset(out)


def test_357():
    s = new_semigroup([3, 5, 7])
    assert delta_prime(s) == frozenset({2, 4})
    data = derivation_rank(s)
    assert data.mu == 3
    assert data.generator_exponents == frozenset({1, 3, 5})


def test_naturals():
    s = new_semigroup([1])
    assert delta_prime(s) == frozenset()
    data = derivation_rank(s)
    assert data.mu == 1
    assert data.generator_exponents == frozenset({1})


def test_two_three():
    s = new_semigroup([2, 3])
    assert delta_prime(s) == frozenset({1})
    data = derivation_rank(s)
    assert data.mu == 2
    assert data.generator_exponents == frozenset({1, 2})


def test_generator_reduction_matches_full_definition():
    rng = random.Random(17)
    for _ in range(60):
        gens = sorted(rng.sample(range(2, 26), rng.randint(2, 4)))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        s = new_semigroup(gens)
        assert delta_prime(s) == brute_delta_prime(s), gens


def test_mu_one_only_for_naturals():
    rng = random.Random(18)
    for _ in range(80):
        gens = sorted(rng.sample(range(1, 20), rng.randint(1, 3)))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        s = new_semigroup(gens)
        data = derivation_rank(s)
        assert data.delta_prime <= s.gaps()
        assert data.mu >= 1
        assert (data.mu == 1) == (s.minimal_generators == (1,)), gens


def test_rank_is_read_off_the_held_apery_set(monkeypatch):
    # the cost, not a timing: no gap list for the rank, and no membership
    # walk for Ap(S, m); <1001,1003,1013> has about 86 000 gaps
    s = new_semigroup([1001, 1003, 1013])

    def refuse(*args):
        raise AssertionError("walked the gaps or the residue classes")

    monkeypatch.setattr(NumericalSemigroup, "gaps", refuse)
    data = derivation_rank(s)
    assert data.mu == 3 and max(data.delta_prime) == s.frobenius
    monkeypatch.setattr(NumericalSemigroup, "contains", refuse)
    monkeypatch.setattr(NumericalSemigroup, "__contains__", refuse)
    ap = s.apery_set(1001)
    assert ap.base == 1001 and {w % 1001 for w in ap.elements} == set(range(1001))
    assert max(ap.elements) - 1001 == s.frobenius
