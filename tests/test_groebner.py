import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import elimination_order, elimination_relations, polynomial_complete
from windows import window_curves

import monocurves.groebner as groebner_module
from monocurves import (ComputationLimitExceeded, GroebnerBasis,
                        MonomialOrder, Polynomial, buchberger,
                        homogenize_basis, is_groebner_basis, normal_form,
                        parametrization_kernel, parse_polynomial, reduce_basis)
from monocurves.families import bresinsky_generators, bresinsky_order, bresinsky_sequence
from monocurves.orders import _KINDS
from monocurves.poly import divide, exp_coprime, s_polynomial

XY = ("x0", "x1")
LEX2 = MonomialOrder.lex(2)


def p(text, variables=XY):
    return parse_polynomial(text, variables)


def test_principal_ideal_is_its_own_basis():
    f = p("x0^3 - x1^2")
    gb = buchberger([f], LEX2)
    assert gb.generators == (f,)
    ok, records = is_groebner_basis([f], LEX2)
    assert ok and records == {}


def test_completion_example():
    # lex completion of (x0^2 - x1, x0*x1 - 1) picks up x1^3 - 1
    gens = [p("x0^2 - x1"), p("x0*x1 - 1")]
    ok, _ = is_groebner_basis(gens, LEX2)
    assert not ok
    gb = buchberger(gens, LEX2)
    assert p("x1^3 - 1") in gb.generators
    assert is_groebner_basis(gb.generators, LEX2)[0]
    red = reduce_basis(gb)
    assert set(red.generators) == {p("x0 - x1^2"), p("x1^3 - 1")}


def test_buchberger_keeps_input():
    gens = [p("x0^2 - x1"), p("x0*x1 - 1")]
    gb = buchberger(gens, LEX2)
    assert gb.generators[:2] == tuple(gens)


def test_buchberger_rejects_bad_input():
    with pytest.raises(ValueError):
        buchberger([], LEX2)
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(XY)], LEX2)
    with pytest.raises(ValueError, match="generators live in different ambients"):
        buchberger([p("x0"), p("y0", ("x0", "y0"))], LEX2)


def test_bresinsky_set_is_closed_under_completion():
    inst = bresinsky_sequence(4)
    gens = bresinsky_generators(inst)
    order = bresinsky_order()
    gb = buchberger(gens, order)
    assert len(gb.generators) == len(gens)  # no new elements
    assert is_groebner_basis(gens, order)[0]


def test_normal_form():
    pres = parametrization_kernel((2, 3))
    gb = pres.groebner_basis()
    for g in gb.generators:
        assert not normal_form(g, gb)
    f = parse_polynomial("x0^3 - x1^2", pres.variables)
    assert not normal_form(f, gb)
    one = Polynomial.constant(pres.variables, 1)
    assert normal_form(one, gb) == one


def test_reduced_basis_unique_across_generating_sets():
    pres = parametrization_kernel((3, 5, 7))
    g1, g2, g3 = pres.generators
    alt = [g2 + g1, g3, g1, g2 + g3]
    a = reduce_basis(buchberger(list(pres.generators), pres.order))
    b = reduce_basis(buchberger(alt, pres.order))
    assert a.generators == b.generators
    # idempotent
    assert reduce_basis(a).generators == a.generators


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(window_curves(range(3, 8), (3, 4))), st.sampled_from(_KINDS), st.data())
def test_reduced_basis_does_not_depend_on_input_order(gens, kind, data):
    # the reduced basis of an ideal is unique: completing the kernel's
    # generators in any order, under any order of any kind, gives one basis
    kernel = list(parametrization_kernel(gens).generators)
    perm = tuple(data.draw(st.permutations(range(len(gens))), label="variable priority"))
    order = MonomialOrder(kind, len(gens), perm, gens if kind == "weighted" else None)
    expected = reduce_basis(buchberger(kernel, order)).generators
    shuffled = data.draw(st.permutations(kernel), label="generator order")
    assert reduce_basis(buchberger(shuffled, order)).generators == expected


def test_reduce_basis_principal():
    gb = buchberger([p("2*x0^2 - 2*x1")], LEX2)
    red = reduce_basis(gb)
    assert red.generators == (p("x0^2 - x1"),)


def test_transcripts_reconstruct_spairs():
    gens = [p("x0^2 - x1"), p("x0*x1 - 1")]
    gb = buchberger(gens, LEX2)
    records = gb.spair_transcripts()
    n = len(gb.generators)
    assert set(records) == {(i, j) for i in range(n) for j in range(i + 1, n)}
    from monocurves import s_polynomial
    for (i, j), rec in records.items():
        assert not rec.remainder
        s = s_polynomial(gb[i], gb[j], LEX2)
        total = Polynomial.zero(XY)
        for q, g in zip(rec.quotients, gb.generators):
            total = total + q * g
        assert total == s
        if rec.via_coprime_criterion:
            lf = gb[i].leading(LEX2)[0]
            lg = gb[j].leading(LEX2)[0]
            assert not any(a and b for a, b in zip(lf, lg))


def test_criterion_records_are_the_transcripts():
    gens = [p("x0^2 - x1"), p("x0*x1 - 1")]
    gb = buchberger(gens, LEX2)
    ok, records = is_groebner_basis(gb.generators, LEX2)
    assert ok and records == gb.spair_transcripts()
    # on a non-basis, exactly the pairs left with a remainder have no transcript
    ok, records = is_groebner_basis(gens, LEX2)
    assert not ok
    non_basis = GroebnerBasis(gens, LEX2)
    for (i, j), rec in records.items():
        if rec.remainder:
            with pytest.raises(ValueError):
                non_basis.transcript(i, j)
        else:
            assert non_basis.transcript(i, j) == rec


@pytest.mark.parametrize("gens, remainders", [((3, 5, 7), 0), ((4, 6, 7), 1),
                                               ((12, 15, 20, 23), 5)])
def test_records_divide_like_ring_division(gens, remainders):
    # the term-map division behind the records gives divide()'s quotients
    # and remainder on the S-polynomial, on the grevlex basis and on the
    # minimal generators, which are no basis for (4, 6, 7) and (12, 15, 20, 23)
    from monocurves import minimal_generators

    pres = parametrization_kernel(gens)
    left = 0
    for polys in (pres.groebner_basis().generators, minimal_generators(pres).generators):
        basis = GroebnerBasis(polys, pres.order)
        for (i, j), rec in is_groebner_basis(polys, pres.order)[1].items():
            if not rec.via_coprime_criterion:
                want = divide(s_polynomial(basis[i], basis[j], pres.order),
                              basis.generators, pres.order)
                assert (rec.quotients, rec.remainder) == (want.quotients, want.remainder)
                left += bool(rec.remainder)
    assert left == remainders


def chain_skipped(gens, order, **kwargs):
    """buchberger's basis and the pairs its chain criterion skipped: every
    pair with non-coprime leading monomials is queued, so these are the
    ones whose S-pair was never formed, by s_polynomial on the Polynomial
    path or by the binomial engine on pure binomials."""
    formed = set()
    engine_pairs = set()

    def recording(f, g, o):
        formed.add((id(f), id(g)))
        return s_polynomial(f, g, o)

    def engine_recording(binomials, i, j, lcm):
        engine_pairs.add((i, j))
        return spair_remainder(binomials, i, j, lcm)

    spair_remainder = groebner_module._spair_remainder
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner_module, "s_polynomial", recording)
        mp.setattr(groebner_module, "_spair_remainder", engine_recording)
        gb = buchberger(gens, order, **kwargs)
    assert not (formed and engine_pairs)
    leads = gb.leading_exponents
    # the coprime criterion: no such pair is formed
    assert not any(exp_coprime(leads[i], leads[j]) for i, j in engine_pairs)
    return gb, [(i, j) for i in range(len(gb)) for j in range(i + 1, len(gb))
                if not exp_coprime(leads[i], leads[j])
                and (id(gb[i]), id(gb[j])) not in formed and (i, j) not in engine_pairs]


def reduces_to_zero(gb, i, j):
    return not divide(s_polynomial(gb[i], gb[j], gb.order), gb.generators, gb.order).remainder


def test_criterion_sound_on_random_ideals():
    rng = random.Random(11)
    done = skipped = 0
    while done < 100:
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = (rng.randint(0, 3), rng.randint(0, 3))
                terms[exp] = rng.randint(-3, 3)
            f = Polynomial(XY, terms)
            if f:
                gens.append(f)
        if not gens:
            continue
        gb, chained = chain_skipped(gens, LEX2, max_basis=300)
        assert is_groebner_basis(gb.generators, LEX2)[0]
        assert all(reduces_to_zero(gb, i, j) for i, j in chained)
        skipped += len(chained)
        done += 1
    assert skipped


def test_binomial_closure_during_elimination():
    # completing the parametrization relations of the elimination oracle
    # only ever produces pure-difference binomials
    # (the Polynomial loop of the oracle: buchberger would run the binomial
    # engine, which holds binomials only)
    exponents = (3, 5, 7)
    order = elimination_order(exponents)
    gens = elimination_relations(exponents)
    basis = [g.monic(order) for g in gens]
    polynomial_complete(basis, order)
    assert len(basis) > len(gens)
    for g in basis:
        assert sorted(g.terms.values()) == [-1, 1]


def test_coprime_pairs_reduce_to_zero():
    # the pairs buchberger skips by the coprime criterion do reduce to zero
    # against its output
    checked = 0
    for gens in [(3, 5, 7), (4, 6, 7), (12, 15, 20, 23)]:
        pres = parametrization_kernel(gens)
        order = MonomialOrder.grevlex(len(gens))
        gb = buchberger(list(pres.generators), order)
        leads = gb.leading_exponents
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                if exp_coprime(leads[i], leads[j]):
                    s = s_polynomial(gb[i], gb[j], order)
                    assert not divide(s, gb.generators, order).remainder
                    checked += 1
    assert checked


def test_chain_skipped_pairs_reduce_to_zero():
    # the pairs _complete skips by the chain criterion do reduce to zero
    # against its output
    checked = 0
    for gens in [(3, 5, 7), (4, 6, 7), (12, 15, 20, 23)]:
        pres = parametrization_kernel(gens)
        gb, chained = chain_skipped(list(pres.generators), MonomialOrder.grevlex(len(gens)))
        assert all(reduces_to_zero(gb, i, j) for i, j in chained)
        checked += len(chained)
    assert checked


def test_max_basis_guard():
    gens = [p("x0^4 - x1^3 + x0"), p("x0*x1^2 - x0^2 - 1")]
    with pytest.raises(ComputationLimitExceeded):
        buchberger(gens, LEX2, max_basis=2)


def test_max_basis_must_be_a_count():
    # refused where the pair queue takes the bound, on either basis class
    gens = [p("x0^4 - x1^3 + x0"), p("x0*x1^2 - x0^2 - 1")]
    binomials = [p("x0^3 - x1^2"), p("x0*x1 - x1^2")]
    for bad in (-1, True, 2.5, "3"):
        for g in (gens, binomials):
            with pytest.raises(ValueError, match="max_basis must be None or an int >= 0"):
                buchberger(g, LEX2, max_basis=bad)


def test_homogenize_simple():
    gb = buchberger([p("x0^3 - x1^2")], MonomialOrder.grevlex(2))
    hom = homogenize_basis(gb, "h")
    assert hom == [parse_polynomial("x0^3 - x1^2*h", ("x0", "x1", "h"))]


def test_homogenize_homogeneous_input_unchanged():
    gb = buchberger([p("x0^2 - x1^2")], MonomialOrder.grevlex(2))
    hom = homogenize_basis(gb, "h")
    assert hom == [parse_polynomial("x0^2 - x1^2", ("x0", "x1", "h"))]


def test_homogenize_requires_graded_order():
    gb = buchberger([p("x0^3 - x1^2")], LEX2)
    with pytest.raises(ValueError):
        homogenize_basis(gb, "h")
    gb2 = buchberger([p("x0^3 - x1^2")], MonomialOrder.grevlex(2))
    with pytest.raises(ValueError):
        homogenize_basis(gb2, "x0")  # not fresh


def test_homogenize_rejects_unreadable_homvar():
    gb = buchberger([p("x0^3 - x1^2")], MonomialOrder.grevlex(2))
    for bad in ("2", "x-1", "1h", "h_1", " h", ""):
        with pytest.raises(ValueError):
            homogenize_basis(gb, bad)
    for good in ("h", "T", "t0", "hom12"):
        hom = homogenize_basis(gb, good)
        assert parse_polynomial(str(hom[0]), XY + (good,)) == hom[0]


def test_groebner_basis_container():
    pres = parametrization_kernel((3, 5, 7))
    gb = pres.groebner_basis()
    assert len(gb) == len(pres.generators)
    assert list(gb) == list(gb.generators)
    assert gb.contains(gb[0] * gb[1])
    with pytest.raises(ValueError):
        gb.transcript(1, 1)
    with pytest.raises(ValueError, match="zero polynomial in basis"):
        GroebnerBasis([Polynomial.zero(XY)], LEX2)


def test_groebner_basis_rejects_mixed_ambients():
    # two generators of one arity in different rings: the basis refuses
    # them, as buchberger does, so no transcript, criterion record or
    # syzygy mixes the two rings
    gens = [p("x0^2 - x1"), p("y0 - y1", ("y0", "y1"))]
    for build in (GroebnerBasis, is_groebner_basis):
        with pytest.raises(ValueError, match="^generators live in different ambients$"):
            build(gens, LEX2)
    assert GroebnerBasis(gens[:1], LEX2).generators == (p("x0^2 - x1"),)


def test_exponent_overflow_raises_in_lex_division():
    # lex division is not degree-bounded: the tails of a lex basis may pass
    # the top of a 16-bit field, in the S-vector or in a reduction step
    # (x1^(L-2) * x1^(L-1)); the records are then built on 32-bit fields,
    # and either way they are ring division of the S-polynomial
    from monocurves.poly import MonomialCodec

    top = MonomialCodec(2, 16).limit - 1
    for bits, a, b in ((16, top - 1, top // 2), (32, top, top)):
        for gens in ([p(f"x0 - x1^{a}"), p("x0*x1 - 1")], [p("x0^2 - 1"), p(f"x0*x1 - x1^{b}")]):
            basis = GroebnerBasis(gens, LEX2)
            want = divide(s_polynomial(basis[0], basis[1], LEX2), basis.generators, LEX2)
            ok, records = is_groebner_basis(gens, LEX2)
            assert not ok and want.remainder
            assert (records[0, 1].quotients, records[0, 1].remainder) == (want.quotients,
                                                                          want.remainder)
            with pytest.raises(ValueError, match=r"pair \(0, 1\) does not reduce"):
                basis.transcript(0, 1)
            assert basis._level.codec.bits == bits


def test_schreyer_key_is_exact_on_sums_of_packed_monomials():
    # key((k, u)) = R * K(u + off[k]) + tierank[k] ranks as the tuple
    # (ring key of u + off[k], tierank[k]) for every u below twice the
    # packed limit, a sum of two packed monomials, however large the
    # offsets: checked on a grid of few values, so that vectors often tie
    # on their leading entries and the lower ones decide
    from itertools import product

    from monocurves import SchreyerOrder
    from monocurves.poly import MonomialCodec

    orders = [MonomialOrder.lex(2), MonomialOrder.grlex(2, (1, 0)), MonomialOrder.grevlex(2),
              MonomialOrder.weighted((3, 1)), MonomialOrder.grevlex(3, (2, 0, 1))]
    for bits, order in product((16, 32), orders):
        n = order.nvars
        codec = MonomialCodec(n, bits)
        values = (0, 1, 2, codec.limit - 1, 2 * codec.limit - 1)[::1 if n == 2 else 2]
        for offsets in product([(0,) * n, (1,) + (0,) * (n - 1),
                                (0,) * (n - 1) + (3 * codec.limit,)], repeat=2):
            for tierank in ((0, 1), (1, 0)):
                schreyer = SchreyerOrder(order, codec, offsets, tierank)
                monomials = [(k, u) for k in (0, 1) for u in product(values, repeat=n)]
                tuple_key = lambda mm: (order.key(tuple(map(sum, zip(mm[1], offsets[mm[0]])))),
                                        tierank[mm[0]])
                assert sorted(monomials, key=schreyer.key) == sorted(monomials, key=tuple_key)
