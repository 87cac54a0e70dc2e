import json
import random
from math import gcd

import pytest

from monocurves import (GradedResolution, MonomialOrder, Polynomial, buchberger,
                        betti_numbers, free_resolution, minimal_generators,
                        minimalize, parametrization_kernel, parse_polynomial,
                        schreyer_syzygies)
from monocurves.toric import GradedIdealPresentation


def test_koszul_syzygy():
    variables = ("x0", "x1", "x2")
    order = MonomialOrder.lex(3)
    gb = buchberger([parse_polynomial("x0*x1", variables),
                     parse_polynomial("x0*x2", variables)], order)
    syz = schreyer_syzygies(gb)
    assert len(syz) == 1
    assert [str(c) for c in syz[0].coordinates] == ["-x2", "x1"]


def test_single_generator_has_no_syzygies():
    gb = buchberger([parse_polynomial("x0^3 - x1^2", ("x0", "x1"))],
                    MonomialOrder.lex(2))
    assert schreyer_syzygies(gb) == []


def test_syzygies_annihilate():
    pres = parametrization_kernel((3, 5, 7))
    gb = pres.groebner_basis()
    for s in schreyer_syzygies(gb, pres.weights):
        total = Polynomial.zero(pres.variables)
        for c, g in zip(s.coordinates, gb.generators):
            total = total + c * g
        assert not total


def test_resolution_principal():
    pres = parametrization_kernel((2, 3))
    res = minimalize(free_resolution(pres))
    assert res.ranks == [1, 1]
    assert res.length == 1
    assert res.betti == [1]
    assert res.is_complex() and res.is_homogeneous()


def test_resolution_357():
    pres = parametrization_kernel((3, 5, 7))
    raw = free_resolution(pres)
    assert raw.is_complex() and raw.is_homogeneous()
    res = minimalize(raw)
    assert res.ranks == [1, 3, 2]
    assert res.is_complex() and res.is_homogeneous()
    assert not res.has_constant_entries()


def test_resolution_zero_ideal():
    pres = parametrization_kernel((1,))
    res = minimalize(free_resolution(pres))
    assert res.ranks == [1]
    assert res.betti == []


def test_minimalize_cancels_trivial_padding():
    # p(2,3) resolution padded with a trivial summand R -> R between
    # homological degrees 2 and 1
    pres = parametrization_kernel((2, 3))
    g = pres.generators[0]
    variables, weights = pres.variables, pres.weights
    zero = Polynomial.zero(variables)
    one = Polynomial.constant(variables, 1)
    padded = GradedResolution(
        ranks=[1, 2, 1],
        shifts=[[0], [6, 9], [9]],
        differentials=[[[g, zero]], [[zero], [one]]],
        variables=variables, weights=weights)
    assert padded.is_complex() and padded.is_homogeneous()
    res = minimalize(padded)
    assert res.ranks == [1, 1]
    assert res.differentials == [[[g]]]


def test_minimalize_identity_on_minimal():
    pres = parametrization_kernel((3, 5, 7))
    res = minimalize(free_resolution(pres))
    again = minimalize(res)
    assert again.ranks == res.ranks
    assert again.differentials == res.differentials


def test_betti_examples():
    assert betti_numbers((2, 3)) == [1]
    assert betti_numbers((3, 5, 7)) == [3, 2]
    assert betti_numbers((3, 4, 5)) == [3, 2]


def test_betti_accepts_curve_or_sequence():
    from monocurves import monomial_curve
    assert betti_numbers(monomial_curve((3, 5, 7))) == betti_numbers((3, 5, 7))


def test_order_independence_of_betti():
    for gens in [(3, 5, 7), (4, 6, 7)]:
        pres = parametrization_kernel(gens)
        grevlex = MonomialOrder.grevlex(len(gens))
        alt_gb = buchberger(list(pres.generators), grevlex)
        alt = GradedIdealPresentation(pres.variables, pres.weights, grevlex,
                                      alt_gb.generators)
        a = minimalize(free_resolution(pres)).betti
        b = minimalize(free_resolution(alt)).betti
        assert a == b
        assert minimal_generators(pres).beta1 == a[0]
        assert minimal_generators(alt).beta1 == a[0]


def test_random_curves_resolution_properties():
    rng = random.Random(99)
    seen = set()
    count = 0
    while count < 8:
        gens = sorted(rng.sample(range(2, 25), rng.choice((2, 3, 4))))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        from monocurves import new_semigroup
        m = new_semigroup(gens).minimal_generators
        if len(m) < 2 or m in seen or m[-1] > 25:
            continue
        seen.add(m)
        count += 1
        p = len(m) - 1
        pres = parametrization_kernel(m)
        raw = free_resolution(pres)
        assert raw.is_complex() and raw.is_homogeneous()
        res = minimalize(raw)
        assert res.is_complex() and res.is_homogeneous()
        assert not res.has_constant_entries()
        assert res.length == p
        assert 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(res.betti)) == 0


def test_inhomogeneous_presentation_rejected():
    variables = ("x0", "x1")
    pres = GradedIdealPresentation(
        variables, (2, 3), MonomialOrder.weighted((2, 3)),
        (parse_polynomial("x0 + x1^2", variables),))
    with pytest.raises(ValueError):
        free_resolution(pres)


def test_non_basis_presentation_rejected():
    # x0^3 - x1^3 is not in the ideal of x0^2 - x1^2, whose leading
    # monomial divides its own: pruning alone would resolve a smaller ideal
    variables = ("x0", "x1")
    order = MonomialOrder.grevlex(2)
    pres = GradedIdealPresentation(
        variables, (1, 1), order,
        (parse_polynomial("x0^2 - x1^2", variables),
         parse_polynomial("x0^3 - x1^3", variables)))
    with pytest.raises(ValueError):
        free_resolution(pres)
    completed = GradedIdealPresentation(
        variables, (1, 1), order, buchberger(pres.generators, order).generators)
    assert minimalize(free_resolution(completed)).betti == [2, 1]


def test_minimal_generators_are_not_resolvable():
    with pytest.raises(ValueError):
        free_resolution(minimal_generators(parametrization_kernel((4, 6, 7))))


def test_last_module_is_the_type():
    # the last free module of the minimal resolution of k[S] has rank the
    # type |PF(S)| and shifts f + sum(n) for f in PF(S); rank one exactly
    # when S is symmetric (Kunz 1970)
    from monocurves import delta_prime, new_semigroup

    curves = [(a, b, c) for c in range(4, 13) for b in range(3, c) for a in range(2, b)
              if gcd(gcd(a, b), c) == 1
              and new_semigroup((a, b, c)).minimal_generators == (a, b, c)]
    curves += [(5, 7, 9, 11), (12, 15, 20, 23), (4, 5, 6, 7), (5, 6, 7, 8, 9)]
    assert len(curves) == 61
    for gens in curves:
        s = new_semigroup(gens)
        pf = delta_prime(s)
        res = minimalize(free_resolution(parametrization_kernel(gens)))
        assert res.betti[-1] == len(pf), gens
        assert sorted(res.shifts[-1]) == sorted(f + sum(gens) for f in pf), gens
        assert (res.betti[-1] == 1) == s.is_symmetric(), gens


def test_export_formats_deterministic():
    pres = parametrization_kernel((3, 5, 7))
    a = minimalize(free_resolution(pres)).to_json_dict()
    b = minimalize(free_resolution(pres)).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    text = minimalize(free_resolution(pres)).to_text()
    assert "ranks: 1 3 2" in text
    assert "differential 2" in text


def test_export_golden_two_three():
    res = minimalize(free_resolution(parametrization_kernel((2, 3))))
    assert res.to_json_dict() == {
        "ranks": [1, 1],
        "shifts": [[0], [6]],
        "minimal": True,
        "variables": ["x0", "x1"],
        "weights": [2, 3],
        "differentials": [[["x0^3 - x1^2"]]],
    }


def test_hilbert_series_identity():
    # independent exactness oracle: the semigroup generating function times
    # prod(1 - t^n_i) must equal the alternating sum of t^shift over the
    # resolution, degree by degree
    from monocurves import new_semigroup

    for gens in [(2, 3), (3, 5, 7), (4, 6, 7), (6, 10, 15), (12, 15, 20, 23)]:
        s = new_semigroup(gens)
        pres = parametrization_kernel(gens)
        for res in (free_resolution(pres), minimalize(free_resolution(pres))):
            upto = max(max(level) for level in res.shifts) + s.conductor + max(gens)
            series = [1 if s.contains(d) else 0 for d in range(upto + 1)]
            for n in gens:
                nxt = list(series)
                for d in range(n, upto + 1):
                    nxt[d] -= series[d - n]
                series = nxt
            expected = [0] * (upto + 1)
            for i, level in enumerate(res.shifts):
                for d in level:
                    expected[d] += (-1) ** i
            assert series == expected, (gens, res.minimal)
