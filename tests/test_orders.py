import random

import pytest
from hypothesis import given, settings
from elimination_order import elimination
from hypothesis import strategies as st

from monocurves import MonomialOrder, Polynomial


def cmp(order, u, v):
    """-1, 0 or 1 as u < v, u == v, u > v under order's key function."""
    ku, kv = order.key(u), order.key(v)
    return (ku > kv) - (ku < kv)


def all_kinds(nvars):
    return [
        MonomialOrder.lex(nvars),
        MonomialOrder.grlex(nvars),
        MonomialOrder.grevlex(nvars),
        MonomialOrder.weighted(tuple(range(2, nvars + 2))),
        elimination(nvars, 1, weights=(1,) * nvars),
    ]


def test_lex_with_permutation():
    # order induced by x2 > x1 > x0 > x3: a single x2 beats any power of x1
    order = MonomialOrder.lex(4, perm=(2, 1, 0, 3))
    assert cmp(order, (0, 0, 1, 0), (0, 2, 0, 0)) == 1
    assert cmp(order, (0, 2, 0, 0), (0, 0, 1, 0)) == -1


def test_weighted_example():
    order = MonomialOrder.weighted((2, 3))
    assert cmp(order, (2, 0), (0, 1)) == 1  # weight 4 vs 3


def test_equal_vectors():
    for order in all_kinds(3):
        assert cmp(order, (1, 2, 0), (1, 2, 0)) == 0


def test_grlex_grevlex_disagree():
    # classic pair: x0*x2^2 vs x1^3
    u, v = (1, 0, 2), (0, 3, 0)
    assert cmp(MonomialOrder.grlex(3), u, v) == 1
    assert cmp(MonomialOrder.grevlex(3), u, v) == -1


def test_elimination_blocks():
    order = elimination(3, 1, weights=(1, 2, 3))
    # any monomial containing the eliminated variable dominates
    assert cmp(order, (1, 0, 0), (0, 9, 9)) == 1
    # weights tie at 6, broken by reverse-lex on the inner block
    assert cmp(order, (0, 3, 0), (0, 0, 2)) == 1


def test_axioms_on_random_triples():
    rng = random.Random(42)
    nvars = 4
    orders = all_kinds(nvars)
    zero = (0,) * nvars
    for _ in range(10_000):
        u = tuple(rng.randint(0, 8) for _ in range(nvars))
        v = tuple(rng.randint(0, 8) for _ in range(nvars))
        w = tuple(rng.randint(0, 8) for _ in range(nvars))
        for order in orders:
            c = cmp(order, u, v)
            assert c == -cmp(order, v, u)
            assert (c == 0) == (u == v)  # totality
            # multiplicative
            assert cmp(order, tuple(a + b for a, b in zip(u, w)),
                       tuple(a + b for a, b in zip(v, w))) == c
            # 1 is minimal
            assert cmp(order, zero, u) <= 0


def test_degree_compatible_flags():
    assert MonomialOrder.grlex(3).degree_compatible
    assert MonomialOrder.grevlex(3).degree_compatible
    assert MonomialOrder.weighted((2, 2, 2)).degree_compatible
    assert not MonomialOrder.weighted((2, 3, 4)).degree_compatible
    assert not MonomialOrder.lex(3).degree_compatible
    assert not elimination(3, 1).degree_compatible


def test_validation():
    with pytest.raises(ValueError):
        MonomialOrder.lex(3, perm=(0, 1))
    with pytest.raises(ValueError):
        MonomialOrder.lex(3, perm=(0, 1, 1))
    with pytest.raises(ValueError):
        MonomialOrder.weighted((1, 0, 2))
    # weights are ints, never floats or bools, so integer keys stay exact
    for weights in [(1.5, 2), (True, 2), (2.0, 3)]:
        with pytest.raises(ValueError, match="weights must be positive integers"):
            MonomialOrder.weighted(weights)
    with pytest.raises(ValueError):
        MonomialOrder("weighted", 3, (0, 1, 2))
    with pytest.raises(ValueError):
        elimination(3, 3)
    with pytest.raises(ValueError):
        MonomialOrder("nope", 2, (0, 1))


def test_length_mismatch():
    # an order ranks exponent vectors of its own arity only
    f = Polynomial(("x0", "x1"), {(1, 2): 1, (0, 0): 1})
    assert f.leading(MonomialOrder.lex(2)) == ((1, 2), 1)
    for order in all_kinds(3):
        with pytest.raises(ValueError):
            f.leading(order)


@st.composite
def orders_and_bounds(draw):
    """Any order kind with a random perm (and weights, elim block) and a
    box of exponent bounds."""
    nvars = draw(st.integers(1, 6))
    perm = tuple(draw(st.permutations(range(nvars))))
    weights = tuple(draw(st.lists(st.integers(1, 40), min_size=nvars, max_size=nvars)))
    kinds = [MonomialOrder.lex(nvars, perm), MonomialOrder.grlex(nvars, perm),
             MonomialOrder.grevlex(nvars, perm), MonomialOrder.weighted(weights, perm)]
    if nvars > 1:
        elim = draw(st.integers(1, nvars - 1))
        kinds += [elimination(nvars, elim, perm=perm),
                  elimination(nvars, elim, weights, perm)]
    bounds = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 7, 1 << 16, 1 << 40)),
                                 min_size=nvars, max_size=nvars)))
    return draw(st.sampled_from(kinds)), bounds


@settings(derandomize=True, deadline=None, max_examples=150)
@given(orders_and_bounds(), st.data())
def test_integer_key_orders_like_the_key(order_bounds, data):
    order, bounds = order_bounds
    coeffs = order.integer_key(bounds)
    vector = st.tuples(*(st.integers(0, b - 1) for b in bounds))
    vectors = data.draw(st.lists(vector, min_size=2, max_size=12))
    for u in vectors:
        for v in vectors:
            ku = sum(c * a for c, a in zip(coeffs, u))
            kv = sum(c * a for c, a in zip(coeffs, v))
            assert cmp(order, u, v) == (ku > kv) - (ku < kv)
            # linear: the key of a product is the sum of the keys
            assert sum(c * (a + b) for c, a, b in zip(coeffs, u, v)) == ku + kv
