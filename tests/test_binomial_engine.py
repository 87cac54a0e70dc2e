"""The binomial engine against the Polynomial path.

``buchberger``, ``reduce_basis`` and ``minimal_generators`` run the packed
binomial engine (``groebner.PackedBinomials``) exactly when every generator
is a pure binomial c*(x^u - x^v), and a ``groebner.PolynomialBasis``
otherwise.  Here the engine meets the ``Polynomial`` loops of
``kernel_oracle`` and the same input forced onto a ``PolynomialBasis``:
equal bases under every kind of order, and an equal outcome for every
``max_basis`` bound.  Other input must stay off the engine with its old
output, the engine takes any exponent, and a completion whose exponents
outgrow their fields must give the output of one that fits, as must every
other packed structure.
"""

import random
from contextlib import contextmanager

import pytest
from checkers import substitute
from kernel_oracle import polynomial_complete, polynomial_reduce, restart_minimal_generators
from windows import window_curves

import monocurves.groebner as groebner_module
from monocurves import (ComputationLimitExceeded, GradedIdealPresentation, MonomialOrder,
                        Polynomial, buchberger, eta_check, free_resolution, is_groebner_basis,
                        minimal_generators, minimalize, parametrization_kernel,
                        parse_polynomial, reduce_basis, schreyer_syzygies)
from monocurves.poly import weighted_degree


def orders(weights, reversed_too):
    """One order of each kind, and with reversed_too each again with the
    variables in reverse priority."""
    n = len(weights)
    out = [MonomialOrder.lex(n), MonomialOrder.grlex(n), MonomialOrder.grevlex(n),
           MonomialOrder.weighted(weights)]
    if reversed_too:
        backwards = tuple(reversed(range(n)))
        out += [MonomialOrder.lex(n, backwards), MonomialOrder.grlex(n, backwards),
                MonomialOrder.grevlex(n, backwards), MonomialOrder.weighted(weights, backwards)]
    return out


def polynomial_buchberger(gens, order, max_basis=None):
    basis = [g.monic(order) for g in gens]
    polynomial_complete(basis, order, max_basis)
    return basis


def outcome(complete, gens, order, max_basis):
    """The printed basis, or the message of the limit raised."""
    try:
        return [str(g) for g in complete(gens, order, max_basis=max_basis)]
    except ComputationLimitExceeded as exc:
        return str(exc)


def engine_buchberger(gens, order, max_basis=None):
    return buchberger(gens, order, max_basis=max_basis).generators


@contextmanager
def on_polynomial_basis():
    """Every input runs on a PolynomialBasis, binomial or not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner_module, "binomial_pairs", lambda polys: None)
        yield


def assert_engine_matches(exponents, every_bound):
    """Equal completions, reduced bases and minimal generators on three
    sides: the engine, the oracle, and buchberger, reduce_basis and
    minimal_generators with the input forced onto a PolynomialBasis.  With
    every_bound, under eight orders, the engine and the oracle also run at
    each max_basis k up to one past the basis size.  Else, under four, the
    oracle's outcome at k is read off its full run: it raises when it
    appends to a basis of k or more elements, so exactly when it appends at
    all and ends with more than k.  The forced side runs at the last three
    k, where the outcome turns."""
    pres = parametrization_kernel(exponents)
    gens = list(pres.generators)
    for order in orders(exponents, reversed_too=every_bound):
        engine = buchberger(gens, order)
        oracle = polynomial_buchberger(gens, order)
        assert engine.generators == tuple(oracle), (exponents, order)
        reduced = reduce_basis(engine).generators
        assert reduced == tuple(polynomial_reduce(oracle, order))
        with on_polynomial_basis():
            forced = buchberger(gens, order)
            assert forced.generators == engine.generators, (exponents, order)
            assert reduce_basis(forced).generators == reduced, (exponents, order)
        for k in range(1, len(oracle) + 2):
            want = (outcome(polynomial_buchberger, gens, order, k) if every_bound
                    else f"Groebner basis exceeded {k} elements"
                    if len(gens) < len(oracle) > k else [str(g) for g in oracle])
            assert outcome(engine_buchberger, gens, order, k) == want, (exponents, order, k)
            if k >= len(oracle) - 1:
                with on_polynomial_basis():
                    assert outcome(engine_buchberger, gens, order, k) == want, (
                        exponents, order, k)
    mingens = minimal_generators(pres).generators
    assert mingens == restart_minimal_generators(pres), exponents
    with on_polynomial_basis():
        assert minimal_generators(pres).generators == mingens, exponents


def test_engine_matches_polynomial_path_on_a_window():
    curves = window_curves((5, 6), (3, 4)) + [(12, 15, 20, 23), (5, 6, 7, 8, 9)]
    assert len(curves) == 31
    for exponents in curves:
        assert_engine_matches(exponents, every_bound=True)


@pytest.mark.slow
def test_engine_matches_polynomial_path_on_the_pool():
    curves = window_curves(range(4, 11), (4, 5, 6))
    assert len(curves) == 666
    for exponents in curves:
        assert_engine_matches(exponents, every_bound=False)


def test_engine_runs_binomial_input_only(monkeypatch):
    runs = []
    engine = groebner_module.PackedBinomials

    def recording(order, bits, pairs=()):
        runs.append(bits)
        return engine(order, bits, pairs)

    monkeypatch.setattr(groebner_module, "PackedBinomials", recording)
    pres = parametrization_kernel((5, 7, 9, 11))
    runs.clear()
    gb = buchberger(pres.generators, MonomialOrder.grevlex(4))
    reduce_basis(gb)
    minimal_generators(pres)
    assert runs == [16, 16, 16]
    # a binomial with non-unit coefficients c*(x^u - x^v) is pure
    runs.clear()
    assert buchberger([parse_polynomial("3*x0^2 - 3*x1^3", ("x0", "x1"))],
                      MonomialOrder.lex(2)).generators == (
        parse_polynomial("x0^2 - x1^3", ("x0", "x1")),)
    assert runs == [16]


X3 = ("x0", "x1", "x2")

# buchberger and reduce_basis outputs of non-binomial input, printed before
# the engine existed: under lex, grevlex and weighted (2, 3, 5)
NON_BINOMIAL = {
    ("x0^2*x1",): [
        (["x0^2*x1"], ["x0^2*x1"])] * 3,
    ("x0^2 + x1^3",): [
        (["x0^2 + x1^3"], ["x0^2 + x1^3"])] * 3,
    ("2*x0^2 - x1^3",): [
        (["x0^2 - 1/2*x1^3"], ["x0^2 - 1/2*x1^3"]),
        (["-2*x0^2 + x1^3"], ["-2*x0^2 + x1^3"]),
        (["-2*x0^2 + x1^3"], ["-2*x0^2 + x1^3"])],
    ("x0^2 - x1^3", "x0*x1^2 + x2^2", "x1*x2 - x0"): [
        (["x0^2 - x1^3", "x0*x1^2 + x2^2", "x0 - x1*x2", "x1^3 - x1^2*x2^2",
          "x1^2*x2^3 + x2^2", "x1*x2^2 - x2^4", "x2^7 + x2^2"],
         ["x2^7 + x2^2", "x1*x2^2 - x2^4", "x1^3 - x2^6", "x0 - x1*x2"]),
        (["-x0^2 + x1^3", "x0*x1^2 + x2^2", "-x0 + x1*x2", "x0^3 + x0*x2", "x0^2*x2 + x2^2",
          "x0^2*x1 + x2^3", "-x0*x2 + x2^4", "-x0^2 + x0*x2^3"],
         ["-x0 + x1*x2", "x0^2*x2 + x2^2", "-x0^2 + x1^3", "x0*x1^2 + x2^2", "x0^2*x1 + x2^3",
          "x0^3 + x0*x2", "-x0*x2 + x2^4", "-x0^2 + x0*x2^3"]),
        (["-x0^2 + x1^3", "x0*x1^2 + x2^2", "-x0 + x1*x2", "x0^3 + x0*x2",
          "x0^5 + x0^2*x1^2", "x0^3*x1 + x0^2", "x0^4 + x0*x1^2"],
         ["x0^3 + x0*x2", "-x0 + x1*x2", "x0^4 + x0*x1^2", "-x0^2 + x1^3",
          "x0^3*x1 + x0^2", "x0*x1^2 + x2^2"])],
    ("x0^2 - x1^3", "x0*x1^2*x2"): [
        (["x0^2 - x1^3", "x0*x1^2*x2", "x1^5*x2"], ["x1^5*x2", "x0*x1^2*x2", "x0^2 - x1^3"]),
        (["-x0^2 + x1^3", "x0*x1^2*x2", "x0^3*x2"], ["-x0^2 + x1^3", "x0*x1^2*x2", "x0^3*x2"]),
        (["-x0^2 + x1^3", "x0*x1^2*x2", "x0^3*x2"], ["-x0^2 + x1^3", "x0^3*x2", "x0*x1^2*x2"])],
}

# minimal generators of weighted-homogeneous non-binomial sets, weights (2, 3, 5)
NON_BINOMIAL_MINIMAL = {
    ("x0^3 + x1^2", "x0*x1 - x2", "x0^5 - x2^2"): ["x0*x1 - x2", "x0^3 + x1^2", "x0^5 - x2^2"],
    ("2*x0^3 - x1^2", "x0^3*x1^2", "x1^2*x0^3 - x0^6"): ["2*x0^3 - x1^2", "x0^3*x1^2"],
    ("x0*x1 - x2", "x0^3 - x1^2", "x0^2*x2 + x1^3"): ["x0*x1 - x2", "x0^3 - x1^2",
                                                      "x0^2*x2 + x1^3"],
}


def test_non_binomial_input_stays_on_the_polynomial_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the binomial engine ran on non-binomial input")

    monkeypatch.setattr(groebner_module, "PackedBinomials", refuse)
    for texts, outputs in NON_BINOMIAL.items():
        gens = [parse_polynomial(t, X3) for t in texts]
        for order, (full, reduced) in zip(
                (MonomialOrder.lex(3), MonomialOrder.grevlex(3), MonomialOrder.weighted((2, 3, 5))),
                outputs):
            gb = buchberger(gens, order)
            assert [str(g) for g in gb.generators] == full, (texts, order)
            assert [str(g) for g in reduce_basis(gb).generators] == reduced, (texts, order)
            assert list(gb.generators) == polynomial_buchberger(gens, order)
    weights = (2, 3, 5)
    for texts, want in NON_BINOMIAL_MINIMAL.items():
        pres = GradedIdealPresentation(X3, weights, MonomialOrder.weighted(weights),
                                       tuple(parse_polynomial(t, X3) for t in texts))
        assert [str(g) for g in minimal_generators(pres).generators] == want, texts


# ---- exponents past the 16-bit fields ---------------------------------------

def test_exponent_range_is_not_limited(monkeypatch):
    widths = []
    engine = groebner_module.PackedBinomials

    def recording(order, bits, pairs=()):
        widths.append(bits)
        return engine(order, bits, pairs)

    monkeypatch.setattr(groebner_module, "PackedBinomials", recording)
    assert [str(g) for g in parametrization_kernel((2, 40001)).generators] == [
        "x0^40001 - x1^2"]
    # the width comes from the input: a term of degree 40001 needs 32 bits;
    # the one engine run is the step under the output order
    assert widths == [32]
    pres = parametrization_kernel((3, 40001, 40003))
    want = ["-x0^13333*x2 + x1^2", "x0^26668 - x1*x2", "x0^13335*x1 - x2^2"]
    assert [str(g) for g in pres.generators] == want
    assert [str(g) for g in minimal_generators(pres).generators] == want
    x01 = ("x0", "x1")
    for texts, full, reduced in [
            (("x0 - x1^40000", "x0*x1 - 1"), ["x0 - x1^40000", "x0*x1 - 1", "x1^40001 - 1"],
             ["x1^40001 - 1", "x0 - x1^40000"]),
            (("x0^2 - x1^20000", "x0*x1^3 - x1"),
             ["x0^2 - x1^20000", "x0*x1^3 - x1", "x0*x1 - x1^20003", "x1^20005 - x1"],
             ["x1^20005 - x1", "x0*x1 - x1^20003", "x0^2 - x1^20000"])]:
        gens = [parse_polynomial(t, x01) for t in texts]
        gb = buchberger(gens, MonomialOrder.lex(2))
        assert [str(g) for g in gb.generators] == full
        assert [str(g) for g in reduce_basis(gb).generators] == reduced


def test_mid_run_widening_keeps_the_output(monkeypatch):
    # every term has degree below 2^14, so the completion starts on 16-bit
    # fields; x1^49149 leaves them, and the rerun on 32-bit fields ends
    widths = []
    engine = groebner_module.PackedBinomials

    def recording(order, bits, pairs=()):
        widths.append(bits)
        return engine(order, bits, pairs)

    monkeypatch.setattr(groebner_module, "PackedBinomials", recording)
    lex = MonomialOrder.lex(2)
    gens = [parse_polynomial(t, ("x0", "x1")) for t in ("x0 - x1^16383", "x0^3 - x1")]
    gb = buchberger(gens, lex)
    assert widths == [16, 32]
    assert [str(g) for g in gb.generators] == ["x0 - x1^16383", "x0^3 - x1", "x1^49149 - x1"]
    assert list(gb.generators) == polynomial_buchberger(gens, lex)
    assert [str(g) for g in reduce_basis(gb).generators] == ["x1^49149 - x1", "x0 - x1^16383"]
    # the same bound outcomes on either width
    assert outcome(engine_buchberger, gens, lex, 2) == "Groebner basis exceeded 2 elements"


def test_mid_run_widening_on_the_polynomial_path(monkeypatch):
    widths = []
    codec = groebner_module.MonomialCodec

    def recording(nvars, bits):
        widths.append(bits)
        return codec(nvars, bits)

    monkeypatch.setattr(groebner_module, "MonomialCodec", recording)
    lex = MonomialOrder.lex(2)
    gens = [parse_polynomial(t, ("x0", "x1")) for t in ("x0 + x1^16383 + 1", "x0^3 - x1")]
    gb = buchberger(gens, lex)
    assert widths == [16, 32]
    assert list(gb.generators) == polynomial_buchberger(gens, lex)
    assert gb.generators[-1].leading(lex)[0] == (0, 49149)


def packed_outputs(exponents):
    """The outputs of every packed structure: the engine's bases, the
    transcript records and Schreyer syzygies of GroebnerBasis levels, and
    the raw and minimal resolutions."""
    pres = parametrization_kernel(exponents)
    mingens = minimal_generators(pres).generators
    out = [pres.generators, mingens]
    for order in orders(exponents, reversed_too=False):
        gb = buchberger(pres.generators, order)
        out += [gb.generators, reduce_basis(gb).generators]
    res = free_resolution(pres)
    return out + [is_groebner_basis(pres.generators, pres.order),
                  is_groebner_basis(mingens, pres.order),
                  schreyer_syzygies(pres.groebner_basis()), res, minimalize(res)]


@pytest.mark.parametrize("bits", [32, 64, 128])
def test_engine_output_does_not_depend_on_the_width(monkeypatch, bits):
    # the packed lcm, support, degree and divisibility tests, the S-pair
    # division and the module keys at every width, 128 bits past the widths
    # with a struct code
    curves = [(5, 7, 9, 11), (12, 15, 20, 23), (5, 6, 7, 8, 9)]
    want = [packed_outputs(exponents) for exponents in curves]
    widths = []
    codec = groebner_module.MonomialCodec

    def recording(nvars, bits):
        widths.append(bits)
        return codec(nvars, bits)

    monkeypatch.setattr(groebner_module, "MonomialCodec", recording)
    monkeypatch.setattr(groebner_module, "EXPONENT_BITS", bits)
    assert [packed_outputs(exponents) for exponents in curves] == want
    assert set(widths) == {bits}


# ---- eta_check by weighted degree -------------------------------------------

def vanishes_by_substitution(pres):
    """The old eta_check: substitute t^(n_i) into every generator."""
    target = ("t",)
    images = [Polynomial.monomial(target, (e,)) for e in pres.weights]
    return all(not substitute(g, images) for g in pres.generators)


def test_eta_check_matches_substitution():
    curves = window_curves((5, 6), (3, 4)) + [(12, 15, 20, 23), (5, 6, 7, 8, 9)]
    for exponents in curves:
        pres = parametrization_kernel(exponents)
        assert eta_check(pres) is vanishes_by_substitution(pres) is True
    bad = GradedIdealPresentation(
        variables=("x0", "x1"), weights=(2, 3),
        order=parametrization_kernel((2, 3)).order,
        generators=(parse_polynomial("x0 - x1", ("x0", "x1")),))
    assert eta_check(bad) is vanishes_by_substitution(bad) is False
    # random polynomials of up to five terms, most of them not binomials;
    # in most, each weighted degree's coefficients are made to cancel
    rng = random.Random(7)
    weights = (2, 3, 5)
    monomials = [(a, b, c) for a in range(6) for b in range(4) for c in range(3)]
    seen = {True: 0, False: 0}
    for _ in range(400):
        exps = rng.sample(monomials, rng.randint(1, 5))
        terms = {e: rng.choice((-2, -1, 1, 3)) for e in exps}
        if rng.random() < 0.7:
            classes: dict = {}
            for e in exps:
                classes.setdefault(weighted_degree(e, weights), []).append(e)
            for same in classes.values():
                terms[same[-1]] -= sum(terms[e] for e in same)
        pres = GradedIdealPresentation(X3, weights, MonomialOrder.weighted(weights),
                                       (Polynomial(X3, terms),))
        answer = eta_check(pres)
        assert answer is vanishes_by_substitution(pres), terms
        seen[answer] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.slow
def test_eta_check_matches_substitution_on_the_pool():
    for exponents in window_curves(range(4, 11), (4, 5, 6)):
        pres = parametrization_kernel(exponents)
        assert eta_check(pres) is vanishes_by_substitution(pres) is True
