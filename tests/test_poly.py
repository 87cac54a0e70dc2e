import pickle
import random
from fractions import Fraction

import pytest
from checkers import division_holds, power, substitute
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocurves import (GroebnerBasis, MonomialOrder, NumericalSemigroup, Polynomial,
                        bresinsky_sequence, buchberger, concatenation_semigroup,
                        derivation_rank, divide, free_resolution, monomial_curve,
                        parametrization_kernel, parse_polynomial, poly_to_str,
                        reduce_basis, s_polynomial, verify_bresinsky)

XY = ("x0", "x1")
LEX2 = MonomialOrder.lex(2)


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def random_poly(rng, variables=XY, nterms=4, maxexp=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exp = tuple(rng.randint(0, maxexp) for _ in variables)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(variables, terms)


def test_canonical_form():
    f = Polynomial(XY, {(1, 0): 1, (0, 0): 0})
    assert (0, 0) not in f.terms
    g = Polynomial(XY, {(1, 0): Fraction(1, 2)})
    assert f != g and f == g + g
    assert Polynomial(XY, {(2, 0): 1, (2, 0): 1}) == p("x0^2")
    # coefficients are ints or Fractions, never bools or floats
    h = Polynomial(XY, {(1, 0): True, (0, 1): 0.5, (0, 0): 2.0})
    assert [type(h.terms[e]) for e in ((1, 0), (0, 1), (0, 0))] == [int, Fraction, int]
    assert h == p("x0 + 1/2*x1 + 2")
    with pytest.raises(ValueError, match=r"bad exponent vector \(1,\) for 2 variables"):
        Polynomial(XY, {(1,): 1})
    # a non-integer or bool exponent is a bad vector too, never a TypeError
    for exp in [("a", 1), (True, 1)]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(XY, {exp: 1})


def test_zero_and_equality():
    z = Polynomial.zero(XY)
    assert not z
    f = p("x0 + x1")
    assert f - f == z
    assert f + (-1) * f == z


def test_product_of_conjugates():
    assert p("x0 + x1") * p("x0 - x1") == p("x0^2 - x1^2")


def test_pow():
    assert power(p("x0 + 1"), 3) == p("x0^3 + 3*x0^2 + 3*x0 + 1")
    assert power(p("x0"), 0) == p("1")
    with pytest.raises(ValueError, match="negative exponent"):
        power(p("x0"), -1)


def test_scale():
    assert p("2*x0").scale(Fraction(1, 2)) == p("x0")


def test_substitute_eta_vanishing():
    f = p("x0^3 - x1^2")
    t = ("t",)
    images = [Polynomial.monomial(t, (2,)), Polynomial.monomial(t, (3,))]
    assert not substitute(f, images)
    g = p("x0 - x1")
    assert substitute(g, images) == parse_polynomial("t^2 - t^3", t)
    with pytest.raises(ValueError, match="need one image per variable"):
        substitute(f, images[:1])
    with pytest.raises(ValueError, match="images live in different ambients"):
        substitute(f, [images[0], Polynomial.monomial(("s",), (3,))])


def test_leading_data():
    assert p("x0^3 - x1^2").leading(LEX2) == ((3, 0), 1)
    assert p("5*x1^2").leading(LEX2) == ((0, 2), 5)
    vars4 = ("x1", "x2", "x3", "x4")
    g2 = parse_polynomial("x3*x4 - x2*x1", vars4)
    order = MonomialOrder.lex(4, perm=(2, 1, 0, 3))
    assert g2.leading(order)[0] == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        Polynomial.zero(XY).leading(LEX2)


def counting_key(order):
    """Replace the key of a (frozen) order by a wrapper; return its call list."""
    key, calls = order.key, []

    def counted(u):
        calls.append(u)
        return key(u)

    object.__setattr__(order, "key", counted)
    return calls


def test_divide_ranks_each_divisor_once():
    order = MonomialOrder.grevlex(2)
    calls = counting_key(order)
    divisors = [p("x0^2*x1 - x1^3 + 2"), p("x0*x1^2 - x0 + x1"), p("x1^4 - 3*x0")]
    f = p("x0^5*x1^3 + 3*x0^2*x1^4 - x1 + 7")
    costs, records = [], []
    for _ in range(2):
        before = len(calls)
        records.append(divide(f, divisors, order))
        costs.append(len(calls) - before)
    assert records[0] == records[1]
    assert costs[0] - costs[1] == sum(len(g.terms) for g in divisors)


def test_leading_is_remembered_per_order_object():
    rng = random.Random(7)
    grevlex = MonomialOrder.grevlex(2, perm=(1, 0))
    twin = MonomialOrder.lex(2)
    assert twin == LEX2 and twin is not LEX2
    twin_calls = counting_key(twin)

    def uncached(f, order):
        exp = max(f.terms, key=order.key)
        return exp, f.terms[exp]

    checked = 0
    for _ in range(40):
        f = random_poly(rng, nterms=6)
        if not f:
            continue
        for order in (LEX2, grevlex, LEX2, twin, LEX2, grevlex, twin):
            before = len(twin_calls)
            assert f.leading(order) == uncached(f, order)
            if order is twin:
                # an equal but distinct order object ranks the terms afresh
                assert len(twin_calls) - before == 2 * len(f.terms)
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.leading(grevlex) == f.leading(grevlex)
        checked += 1
    assert checked


def test_engine_binomials_arrive_with_their_lead():
    # the engine hands its binomials over with their lead under its order
    # remembered, so nothing ranks their terms again; the unit vectors that
    # integer_key reads its linear forms off are left out
    pres = parametrization_kernel((5, 7, 9, 11))
    kernel_terms = [u for g in pres.generators for u in g.terms]
    calls = counting_key(pres.order)
    free_resolution(pres)
    assert [u for u in calls if sum(u) != 1] == []
    grevlex = MonomialOrder.grevlex(4)
    calls = counting_key(grevlex)
    gb = reduce_basis(buchberger(pres.generators, grevlex))
    assert sorted(u for u in calls if sum(u) != 1) == sorted(kernel_terms)
    assert all(g.leading(grevlex) == (max(g.terms, key=grevlex.key), 1) for g in gb)


def test_public_values_pickle():
    # each public value type survives a pickle round trip; caches (a
    # remembered lead, an order's key) are rebuilt
    orders = [MonomialOrder.lex(2), MonomialOrder.grlex(3, perm=(2, 0, 1)),
              MonomialOrder.grevlex(2), MonomialOrder.weighted((3, 5), perm=(1, 0))]
    for order in orders:
        loaded = pickle.loads(pickle.dumps(order))
        u = (2, 1, 3)[:order.nvars]
        assert loaded == order and loaded.key(u) == order.key(u)

    f = p("x0^2*x1 - 3*x1 + 1/2")
    f.leading(LEX2)
    pres = parametrization_kernel((3, 5, 7))
    gb = GroebnerBasis(pres.generators, pres.order)
    record = gb.transcript(0, 1)
    loaded = pickle.loads(pickle.dumps(gb))
    assert loaded.generators == gb.generators and loaded.order == gb.order
    assert loaded.transcript(0, 1) == record

    semigroup = NumericalSemigroup((3, 5, 7))
    values = [f, pres, record, divide(f, [p("x1 - 1")], LEX2), free_resolution(pres),
              semigroup, NumericalSemigroup((1,)), semigroup.basic_invariants(),
              semigroup.apery_set(5), derivation_rank(semigroup), monomial_curve((3, 5, 7)),
              bresinsky_sequence(4), verify_bresinsky(bresinsky_sequence(4)),
              *concatenation_semigroup(5, 3, 19, 3)]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value, value
    loaded = pickle.loads(pickle.dumps(semigroup))
    assert (loaded.frobenius, loaded.gaps(), 4 in loaded) == (4, frozenset({1, 2, 4}), False)


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        p("x0") + parse_polynomial("t", ("t",))
    with pytest.raises(ValueError, match="divisor ambient mismatch"):
        divide(p("x0"), [parse_polynomial("t", ("t",))], LEX2)


def test_immutability():
    f = p("x0")
    with pytest.raises(AttributeError):
        f.terms = {}


# ---- division ---------------------------------------------------------------

def test_divide_by_self():
    f = p("x0^3 - x1^2")
    rec = divide(f, [f], LEX2)
    assert rec.quotients[0] == p("1") and not rec.remainder


def test_divide_single_step():
    rec = divide(p("x0^3"), [p("x0^3 - x1^2")], LEX2)
    assert rec.quotients[0] == p("1")
    assert rec.remainder == p("x1^2")


def test_divide_no_divisible_lead():
    f = p("x1 + 1")
    rec = divide(f, [p("x0^2")], LEX2)
    assert not rec.quotients[0]
    assert rec.remainder == f


def test_divide_zero_divisor_rejected():
    with pytest.raises(ValueError):
        divide(p("x0"), [Polynomial.zero(XY)], LEX2)


def test_divide_checks_the_order_arity_first():
    for f in (p("x0*x1"), Polynomial.zero(XY)):
        with pytest.raises(ValueError, match="order arity does not match ambient"):
            divide(f, [], MonomialOrder.lex(3))


def test_division_reconstruction_random():
    rng = random.Random(3)
    for _ in range(150):
        f = random_poly(rng)
        divisors = [random_poly(rng) for _ in range(rng.randint(1, 3))]
        divisors = [g for g in divisors if g]
        if not divisors:
            continue
        rec = divide(f, divisors, LEX2)
        assert division_holds(rec, f, divisors, LEX2)
        # no remainder monomial is divisible by a divisor leading monomial
        for exp in rec.remainder.terms:
            for g in divisors:
                lead = g.leading(LEX2)[0]
                assert not all(a <= b for a, b in zip(lead, exp))


# ---- S-polynomials -----------------------------------------------------------

def test_spoly_self_is_zero():
    f = p("x0^2 - x1")
    assert not s_polynomial(f, f, LEX2)
    with pytest.raises(ValueError, match="S-polynomial of a zero polynomial"):
        s_polynomial(f, Polynomial.zero(XY), LEX2)


def test_spoly_frozen_example():
    # expanded by hand: lcm = x0^3*x1, S = x1*f - x0^2*g
    f, g = p("x0^3 - x1^2"), p("x0*x1 - x0")
    assert s_polynomial(f, g, LEX2) == p("x0^3 - x1^3")


def test_spoly_antisymmetry():
    rng = random.Random(4)
    for _ in range(50):
        f, g = random_poly(rng), random_poly(rng)
        if not f or not g:
            continue
        f, g = f.monic(LEX2), g.monic(LEX2)
        assert s_polynomial(f, g, LEX2) == -s_polynomial(g, f, LEX2)


def test_spoly_coprime_leads():
    # force coprime leading monomials: f leads with a pure x0 power,
    # g with a pure x1 power
    rng = random.Random(5)
    for _ in range(60):
        f = p("x0^7") + random_poly(rng, maxexp=3)
        g = p("x1^8") + Polynomial(
            XY, {(0, rng.randint(0, 4)): rng.randint(-5, 5) or 1})
        f, g = f.monic(LEX2), g.monic(LEX2)
        lf, lg = f.leading(LEX2)[0], g.leading(LEX2)[0]
        assert not any(a and b for a, b in zip(lf, lg))
        s = s_polynomial(f, g, LEX2)
        # closed form Lm(g)*f - Lm(f)*g for monic coprime leads
        assert s == f.times_term(1, lg) - g.times_term(1, lf)
        # and it reduces to zero against {f, g}
        assert not divide(s, [f, g], LEX2).remainder


def test_spoly_cancels_lcm():
    rng = random.Random(6)
    for _ in range(80):
        f, g = random_poly(rng), random_poly(rng)
        if not f or not g:
            continue
        s = s_polynomial(f, g, LEX2)
        if not s:
            continue
        lf, lg = f.leading(LEX2)[0], g.leading(LEX2)[0]
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        assert LEX2.key(s.leading(LEX2)[0]) < LEX2.key(lcm)


# ---- text round trip ----------------------------------------------------------

def test_print_examples():
    assert poly_to_str(Polynomial.zero(XY)) == "0"
    assert poly_to_str(p("x0^2 - x1")) == "x0^2 - x1"
    assert str(p("-3/4*x0*x1^2 + 2")) == "-3/4*x0*x1^2 + 2"


def test_parse_variants():
    assert p("x0x1") == p("x0*x1")
    assert p("2x0") == p("2*x0")
    assert p("x0 - x0") == Polynomial.zero(XY)
    assert p("3/2") == Polynomial.constant(XY, Fraction(3, 2))


def test_parse_errors():
    with pytest.raises(ValueError):
        p("x9")
    with pytest.raises(ValueError):
        p("x0 +")
    with pytest.raises(ValueError):
        p("")
    with pytest.raises(ValueError):
        p("x0 $ x1")
    with pytest.raises(ValueError, match="expected integer, got 'y'"):
        p("x0^y")
    # the text ends inside a factor, a zero denominator, a non-ASCII digit
    with pytest.raises(ValueError, match="polynomial text ends inside a factor"):
        p("x0^")
    with pytest.raises(ValueError, match="zero denominator in polynomial text"):
        p("1/0")
    with pytest.raises(ValueError, match="cannot tokenize '\u0663\\*x0'"):
        p("\u0663*x0")
    with pytest.raises(ValueError, match="is not a name"):
        Polynomial(("x\u0663",), {(1,): 1})


# tokens of the grammar, a few that lie outside it, and the bare characters
_PARSE_TOKENS = ["x0", "x1", "y", "0", "1", "2", "10", "^", "*", "+", "-", "/", " ", "\u0663"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=8).map("".join)
       | st.text("0123456789xy^*+-/ \u0663", max_size=10))
def test_parse_raises_only_value_error(text):
    # outside input either parses, and then prints back to the same
    # polynomial, or raises ValueError
    try:
        f = p(text)
    except ValueError:
        return
    assert p(poly_to_str(f)) == f


def test_round_trip_random():
    rng = random.Random(7)
    vars3 = ("t", "x0", "x12")
    for _ in range(200):
        f = random_poly(rng, vars3, nterms=6, maxexp=9)
        assert parse_polynomial(poly_to_str(f), vars3) == f


def test_variable_names_must_read_back():
    # every name must be one parse_polynomial reads back, and names distinct
    for bad in [("y", "z-1"), ("x", "x"), ("x", ""), ("x", "z_1"), ("x", 3)]:
        with pytest.raises(ValueError):
            Polynomial(bad, {(1, 0): 1, (0, 2): -1})
        with pytest.raises(ValueError):
            Polynomial.monomial(bad, (0, 1))
        with pytest.raises(ValueError):
            Polynomial.variable(bad, 1)
        with pytest.raises(ValueError):
            parse_polynomial("1", bad)
    # an index outside the ambient, or one that is not an int, names no variable
    for i in [5, 2, -1, True, 1.0, "x"]:
        with pytest.raises(ValueError, match="variable index .* out of range for 2 variables"):
            Polynomial.variable(("x", "y"), i)
    f = Polynomial(("y", "z1"), {(1, 0): 1, (0, 2): -1})
    assert str(f) == "y - z1^2"
    assert parse_polynomial(str(f), f.variables) == f


def _with_fractions(f):
    return Polynomial(f.variables, {e: Fraction(c) for e, c in f.terms.items()})


_INT_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.integers(-4, 4).filter(bool), min_size=1, max_size=4)
_NON_UNIT = {(1, 0): 2, (0, 0): -3}     # 2*x0 - 3


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_INT_TERMS, st.lists(_INT_TERMS, min_size=1, max_size=3),
       st.sampled_from([LEX2, MonomialOrder.grlex(2), MonomialOrder.grevlex(2)]))
@example({(2, 1): 1, (0, 0): 5}, [_NON_UNIT], LEX2)
@example(_NON_UNIT, [_NON_UNIT, {(0, 1): -1, (0, 0): 1}], LEX2)
def test_int_coefficients_agree_with_fractions(f_terms, divisor_terms, order):
    f = Polynomial(XY, f_terms)
    divisors = [Polynomial(XY, t) for t in divisor_terms]
    f_q, divisors_q = _with_fractions(f), [_with_fractions(g) for g in divisors]
    rec, rec_q = divide(f, divisors, order), divide(f_q, divisors_q, order)
    assert rec.quotients == rec_q.quotients and rec.remainder == rec_q.remainder
    assert f.monic(order) == f_q.monic(order)
    assert s_polynomial(f, divisors[0], order) == s_polynomial(f_q, divisors_q[0], order)
    coeffs = [c for g in rec.quotients + (rec.remainder, f.monic(order))
              for c in g.terms.values()]
    assert all(type(c) in (int, Fraction) for c in coeffs)
    # a Fraction appears only after a division by a non-unit
    if all(abs(g.leading(order)[1]) == 1 for g in divisors):
        assert all(type(c) is int for g in rec.quotients + (rec.remainder,)
                   for c in g.terms.values())


# ---- packed module monomials --------------------------------------------------

def _packed_case(nvars, bits):
    """(bits, pos, u, v) with u, v in the fields of a codec of that width."""
    from monocurves.poly import MonomialCodec

    limit = MonomialCodec(nvars, bits).limit
    in_range = st.tuples(*[st.sampled_from((0, 1, 2, 5, limit - 2, limit - 1))
                           | st.integers(0, limit - 1)] * nvars)
    return st.tuples(st.just(bits), st.integers(0, 40), in_range, in_range)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.tuples(st.integers(1, 6), st.sampled_from((16, 32))).flatmap(
    lambda nb: _packed_case(*nb)))
def test_packed_product_and_divisibility(case):
    # a product is one addition, in range exactly when no guard bit is set,
    # and divisibility is one test on the guard bits
    from monocurves.poly import MonomialCodec, exp_add, exp_divides

    bits, pos, u, v = case
    codec = MonomialCodec(len(u), bits)
    m, d = codec.pack(pos, u), codec.pack(pos, v)
    assert codec.unpack(m) == (pos, u)
    w = exp_add(u, v)
    assert bool((m + codec.pack(0, v)) & codec.guard) == (max(w) >= codec.limit)
    if max(w) < codec.limit:
        assert codec.unpack(m + codec.pack(0, v)) == (pos, w)
    assert (((m | codec.guard) - d) & codec.guard == codec.guard) == exp_divides(v, u)
    lower = codec.pack(pos, tuple(map(min, u, v)))
    assert ((m | codec.guard) - lower) & codec.guard == codec.guard


def test_exponent_out_of_range_raises():
    from monocurves.poly import MonomialCodec

    for bits in (16, 32):
        codec = MonomialCodec(3, bits)
        top = codec.limit - 1
        assert codec.unpack(codec.pack(7, (top, 0, 1))) == (7, (top, 0, 1))
        for exp in ((top + 1, 0, 0), (0, 0, top + 1), (0, 3 * codec.limit, 0)):
            with pytest.raises(OverflowError, match="^monomial exponent outside its packed field"):
                codec.pack(0, exp)
