import random
from itertools import combinations
from math import gcd

import pytest
from semigroup_oracle import invariants

from monocurves import NumericalSemigroup, derivation_rank, new_semigroup


def brute_members(gens, bound):
    """BFS closure oracle, independent of the membership table."""
    reach = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for x in frontier:
            for g in gens:
                y = x + g
                if y <= bound and y not in reach:
                    reach.add(y)
                    nxt.add(y)
        frontier = nxt
    return reach


def test_357_invariants():
    s = new_semigroup([3, 5, 7])
    inv = s.basic_invariants()
    assert (inv.multiplicity, inv.embedding_dimension) == (3, 3)
    assert (inv.frobenius, inv.conductor, inv.genus) == (4, 5, 3)
    assert not s.is_symmetric()
    assert sorted(s.gaps()) == [1, 2, 4]


def test_natural_numbers():
    s = new_semigroup([1])
    assert s.minimal_generators == (1,)
    inv = s.basic_invariants()
    assert (inv.frobenius, inv.conductor, inv.genus) == (-1, 0, 0)
    assert s.gaps() == frozenset()
    assert s.contains(0) and s.contains(123)
    # F = -1 and g = 0 = (F + 1) / 2: N is symmetric, k[t] is Gorenstein
    assert s.is_symmetric()


def test_two_three():
    s = new_semigroup([2, 3])
    assert s.frobenius == 1
    assert s.gaps() == frozenset({1})
    assert s.is_symmetric()


def test_minimalization():
    assert new_semigroup([2, 3, 4]).minimal_generators == (2, 3)
    assert new_semigroup([4, 3, 2]).minimal_generators == (2, 3)
    assert new_semigroup([6, 10, 15, 16, 21, 25]).minimal_generators == (6, 10, 15)


def test_minimalization_idempotent():
    for gens in [(3, 5, 7), (2, 3), (5, 8, 19, 22), (6, 10, 15)]:
        s = new_semigroup(gens)
        assert new_semigroup(s.minimal_generators).minimal_generators == s.minimal_generators


def test_validation():
    with pytest.raises(ValueError, match="not a numerical semigroup"):
        new_semigroup([4, 6])
    with pytest.raises(ValueError):
        new_semigroup([])
    with pytest.raises(ValueError):
        new_semigroup([0, 3])
    with pytest.raises(ValueError):
        new_semigroup([-2, 3])


def test_contains():
    s = new_semigroup([3, 5, 7])
    assert not s.contains(4)
    assert s.contains(0)
    assert s.contains(12)
    assert not s.contains(-3)
    assert 12 in s and 4 not in s


def test_contains_matches_oracle():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 13), k))
        try:
            s = new_semigroup(gens)
        except ValueError:
            continue
        bound = 2 * max(s.conductor, 1)
        members = brute_members(s.minimal_generators, bound)
        for x in range(bound + 1):
            assert s.contains(x) == (x in members), (gens, x)


def test_apery_examples():
    assert sorted(new_semigroup([3, 5, 7]).apery_set(3).elements) == [0, 5, 7]
    assert sorted(new_semigroup([1]).apery_set(1).elements) == [0]
    assert sorted(new_semigroup([2, 3]).apery_set(2).elements) == [0, 3]


def test_apery_errors():
    s = new_semigroup([3, 5, 7])
    with pytest.raises(ValueError):
        s.apery_set(4)  # not an element
    with pytest.raises(ValueError):
        s.apery_set(0)
    with pytest.raises(ValueError):
        s.apery_set(-3)
    # a bool is no element, as it is no generator, even where 1 is in S
    with pytest.raises(ValueError, match="True is not a nonzero element"):
        new_semigroup([1]).apery_set(True)


def test_apery_properties():
    rng = random.Random(1)
    for _ in range(20):
        gens = sorted(rng.sample(range(2, 20), rng.randint(2, 4)))
        try:
            s = new_semigroup(gens)
        except ValueError:
            continue
        for a in list(s.minimal_generators)[:2]:
            ap = s.apery_set(a)
            assert len(ap) == a
            assert {x % a for x in ap.elements} == set(range(a))
            for x in ap.elements:
                assert s.contains(x) and not s.contains(x - a)
                # least member of its residue class
                assert all(not s.contains(y)
                           for y in range(x % a, x, a))
        # frobenius from the apery set of the multiplicity
        ap0 = s.apery_set(s.multiplicity)
        assert s.frobenius == max(ap0.elements) - s.multiplicity


def test_symmetric():
    assert not new_semigroup([3, 5, 7]).is_symmetric()
    assert new_semigroup([2, 3]).is_symmetric()
    assert not new_semigroup([3, 4, 5]).is_symmetric()  # frobenius 2 is even


def test_symmetric_gap_count():
    rng = random.Random(2)
    seen = 0
    for _ in range(200):
        gens = sorted(rng.sample(range(2, 25), rng.randint(2, 3)))
        try:
            s = new_semigroup(gens)
        except ValueError:
            continue
        if s.is_symmetric():
            seen += 1
            assert len(s.gaps()) == (s.frobenius + 1) // 2
    assert seen > 0


def test_immutable_and_hashable():
    s = new_semigroup([3, 5, 7])
    with pytest.raises(AttributeError):
        s.frobenius = 10
    assert s == NumericalSemigroup([3, 5, 7])
    assert len({s, new_semigroup([5, 3, 7])}) == 1


# ---- the membership table as oracle -----------------------------------------

def gcd_one_sets(below, sizes):
    """Every gcd-1 set of ``sizes`` distinct generators in 1..below-1."""
    return [gens for k in sizes for gens in combinations(range(1, below), k)
            if gcd(*gens) == 1]


def agrees_with_table(gens, *givens):
    """The semigroup built from gens and from each other given sequence
    reports every invariant of the table oracle."""
    want = invariants(gens)
    m, frob = want["multiplicity"], want["frobenius"]
    for given in (gens, *givens):
        s = NumericalSemigroup(given)
        inv = s.basic_invariants()
        got = (s.minimal_generators, s.frobenius, s.conductor, s.gaps(), s.genus(),
               s.is_symmetric(), (inv.multiplicity, inv.embedding_dimension,
                                  inv.frobenius, inv.conductor, inv.genus))
        if got != (want["minimal_generators"], frob, want["conductor"], want["gaps"],
                   want["genus"], want["symmetric"],
                   (m, want["embedding_dimension"], frob, want["conductor"],
                    want["genus"])):
            return False
        if any(s.contains(x) != want["contains"](x) for x in range(-m, frob + m + 2)):
            return False
        if any(s.apery_set(a).elements != want["apery"](a)
               for a in {m, want["minimal_generators"][-1]}):
            return False
        kraft = derivation_rank(s)
        if (kraft.delta_prime, kraft.mu) != (want["delta_prime"], len(want["delta_prime"]) + 1):
            return False
    return True


def test_table_oracle_small_sets():
    sets = gcd_one_sets(26, (1, 2, 3)) + gcd_one_sets(18, (4,))
    assert len(sets) == 4522
    assert [gens for gens in sets if not agrees_with_table(gens)] == []


def test_table_oracle_given_out_of_order_and_redundant():
    # reversed with a repeated generator, and with the redundant sum of the
    # two smallest appended
    sets = gcd_one_sets(21, (2, 3))
    assert [gens for gens in sets
            if not agrees_with_table(gens, gens[::-1] + gens[:1],
                                     gens + (gens[0] + gens[1],))] == []


@pytest.mark.slow
def test_table_oracle_wide_sets():
    sets = gcd_one_sets(41, (1, 2, 3)) + gcd_one_sets(26, (4,))
    assert [gens for gens in sets if not agrees_with_table(gens)] == []


@pytest.mark.slow
@pytest.mark.parametrize("gens", [(1001, 1003, 1013), (3001, 3007, 3011)])
def test_table_oracle_large(gens):
    assert agrees_with_table(gens)
