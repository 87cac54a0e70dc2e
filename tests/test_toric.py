import random
from itertools import combinations
from math import gcd
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from semigroup_oracle import invariants
from kernel_oracle import (elimination_kernel, last_order, polynomial_kernel,
                           restart_minimal_generators)
from windows import window_curves

import monocurves.groebner as groebner_module
import monocurves.toric as toric_module
from monocurves import (ComputationLimitExceeded, GradedIdealPresentation, GroebnerBasis,
                        MonomialOrder, Polynomial, bresinsky_sequence, buchberger,
                        defining_ideal, eta_check, minimal_generators,
                        monomial_curve, new_semigroup, parametrization_kernel,
                        parse_polynomial)
from monocurves.poly import weighted_degree
from monocurves.resolution import _graded_betti
from monocurves.toric import _fibre_minima

CURVES = [(2, 3), (3, 5, 7), (3, 4, 5), (4, 6, 7), (6, 10, 15), (5, 7, 9, 13)]


def is_pure_difference_binomial(f):
    return sorted(f.terms.values()) == [-1, 1]


def test_curve_validation():
    curve = monomial_curve((3, 5, 7))
    assert curve.weights == (3, 5, 7)
    assert curve.variables == ("x0", "x1", "x2")
    with pytest.raises(ValueError):
        monomial_curve((2, 3, 4))  # 4 is redundant
    with pytest.raises(ValueError):
        monomial_curve((5, 3, 7))  # unsorted
    with pytest.raises(ValueError):
        monomial_curve((4, 6))  # gcd 2


def test_kernel_two_three():
    pres = parametrization_kernel((2, 3))
    assert [str(g) for g in pres.generators] == ["x0^3 - x1^2"]
    assert minimal_generators(pres).beta1 == 1


def test_kernel_trivial_curve():
    pres = parametrization_kernel((1,))
    assert pres.generators == ()
    mini = minimal_generators(pres)
    assert mini.beta1 == 0


def test_kernel_357():
    curve = monomial_curve((3, 5, 7))
    pres = defining_ideal(curve)
    mini = minimal_generators(pres)
    assert mini.beta1 == 3
    gb = GroebnerBasis(pres.generators, pres.order)
    f = parse_polynomial("x1^2 - x0*x2", pres.variables)
    assert not gb.normal_form(f)


def test_generators_are_homogeneous_binomials():
    for gens in CURVES:
        pres = parametrization_kernel(gens)
        for g in pres.generators:
            assert is_pure_difference_binomial(g), (gens, g)
            assert g.is_weighted_homogeneous(gens), (gens, g)
            # a prime toric ideal contains no monomial
            assert len(g.terms) == 2


def test_eta_check():
    for gens in CURVES:
        pres = parametrization_kernel(gens)
        assert eta_check(pres)
    bad = GradedIdealPresentation(
        variables=("x0", "x1"), weights=(2, 3),
        order=parametrization_kernel((2, 3)).order,
        generators=(parse_polynomial("x0 - x1", ("x0", "x1")),))
    assert not eta_check(bad)
    with pytest.raises(ValueError, match="need one image per variable"):
        eta_check(bad, (2, 3, 5))


def test_eta_check_bresinsky_ambient():
    # unsorted exponent assignment: variables keep their own weights
    pres = parametrization_kernel((20, 15, 23, 12), ("x1", "x2", "x3", "x4"))
    assert eta_check(pres)
    for g in pres.generators:
        assert g.is_weighted_homogeneous((20, 15, 23, 12))


def test_minimal_generators_order_independent():
    rng = random.Random(13)
    for gens in [(3, 5, 7), (4, 6, 7), (5, 7, 9, 13)]:
        pres = parametrization_kernel(gens)
        base = minimal_generators(pres).beta1
        for _ in range(3):
            shuffled = list(pres.generators)
            rng.shuffle(shuffled)
            alt = GradedIdealPresentation(pres.variables, pres.weights,
                                          pres.order, tuple(shuffled))
            assert minimal_generators(alt).beta1 == base


def test_minimal_generators_rejects_inhomogeneous():
    pres = parametrization_kernel((2, 3))
    bad = GradedIdealPresentation(
        pres.variables, pres.weights, pres.order,
        (parse_polynomial("x0 + x1^2", pres.variables),))
    with pytest.raises(ValueError):
        minimal_generators(bad)


def test_binomial_membership_matches_weighted_degree():
    # scaled-down version of the acceptance sweep
    gens = (3, 5, 7)
    pres = parametrization_kernel(gens)
    gb = GroebnerBasis(pres.generators, pres.order)
    vecs = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for u, v in combinations(vecs, 2):
        f = Polynomial(pres.variables, {u: 1, v: -1})
        if not f:
            continue
        member = not gb.normal_form(f)
        assert member == (weighted_degree(u, gens) == weighted_degree(v, gens))


def test_kernel_validation():
    with pytest.raises(ValueError):
        parametrization_kernel((4, 6))
    with pytest.raises(ValueError):
        parametrization_kernel(())
    with pytest.raises(ValueError):
        parametrization_kernel((2, 3), ("x0",))
    # bools and floats are refused, as NumericalSemigroup refuses them
    for bad in [(True, 2), (2, True, 5)]:
        with pytest.raises(ValueError, match="exponents must be positive integers"):
            parametrization_kernel(bad)
    # every printed generator must read back through parse_polynomial
    for bad in [("y", "z-1", "2"), ("x0", "x1", "x0"), ("x", "y", ""),
                ("x", "y", "z_1"), ("x", "y", 3)]:
        with pytest.raises(ValueError):
            parametrization_kernel((3, 5, 7), bad)
    pres = parametrization_kernel((3, 5, 7), ("y", "z", "w12"))
    for g in pres.generators:
        assert parse_polynomial(str(g), pres.variables) == g


def test_kernel_max_basis_guard():
    # the basis of (12,15,20,23) read off Ap(S, 23) has 10 elements, and
    # max_basis bounds that one basis
    for k in (2, 7, 9):
        with pytest.raises(ComputationLimitExceeded, match=f"exceeded {k} elements"):
            parametrization_kernel((12, 15, 20, 23), max_basis=k)
    assert len(parametrization_kernel((12, 15, 20, 23), max_basis=10).generators) == 10


def test_kernel_refuses_bad_max_basis():
    # bools, floats, strings and negative bounds are no element counts; 0
    # is one, which every kernel with a generator exceeds
    for exponents in [(3, 5, 7), (1,)]:
        for bad in (-1, True, 2.5, "3"):
            with pytest.raises(ValueError, match="max_basis must be None or an int >= 0"):
                parametrization_kernel(exponents, max_basis=bad)
    with pytest.raises(ComputationLimitExceeded):
        parametrization_kernel((3, 5, 7), max_basis=0)
    assert parametrization_kernel((1,), max_basis=0).generators == ()


def minimal_triples(top):
    return [(a, b, c) for c in range(4, top + 1) for b in range(3, c) for a in range(2, b)
            if gcd(gcd(a, b), c) == 1
            and new_semigroup((a, b, c)).minimal_generators == (a, b, c)]


def assert_matches_oracle(exponents, variables=None):
    pres = parametrization_kernel(exponents, variables)
    gens, order = elimination_kernel(exponents, variables)
    assert [str(g) for g in pres.generators] == [str(g) for g in gens], exponents
    assert repr(pres.order) == repr(order), exponents
    return pres


def test_kernel_matches_elimination_oracle():
    curves = minimal_triples(15)
    assert len(curves) == 148
    curves += [(5, 7, 9, 11), (12, 15, 20, 23), (4, 5, 6, 7), (5, 6, 7, 8, 9),
               (10, 11, 13, 17, 19), (31, 37, 41, 43), (25, 31, 36, 43, 47)]
    # unsorted or repeated exponents, and the edge cases
    curves += [(7, 5, 3), (5, 3, 7), (13, 5, 14), (2, 2, 3), (3, 3, 4, 4, 5), (1,), (1, 2)]
    for gens in curves:
        assert_matches_oracle(gens)
    assert assert_matches_oracle((1,), ("y",)).generators == ()
    assert [str(g) for g in assert_matches_oracle((1, 2), ("y", "z")).generators] == ["y^2 - z"]


def test_bresinsky_kernel_matches_elimination_oracle(completions):
    # the basis is read off Ap(S, n_p), and no completion follows
    for q2 in (4, 6, 8):
        inst = bresinsky_sequence(q2)
        completions.clear()
        assert len(assert_matches_oracle(inst.n, inst.variables).generators) == 2 * q2
        assert completions == [], q2


def test_kernel_completes_nothing(completions):
    # the basis is read off Ap(S, n_p) under the output order: no pair queue
    # runs, sorted or not, with repeats and 1s
    curves = window_curves(range(3, 11), (3, 4))
    curves += [(5, 3, 7), (13, 5, 14), (2, 2, 3), (1, 1)]
    curves += [bresinsky_sequence(q2).n for q2 in range(4, 13, 2)]
    for exponents in curves:
        completions.clear()
        parametrization_kernel(exponents)
        assert completions == [], exponents
    # the spy sees a completion
    buchberger(parametrization_kernel((5, 3, 7)).generators, MonomialOrder.lex(3))
    assert completions


def printed(gens):
    return [str(g) for g in gens]


def assert_apery_matches_oracles(exponents, variables=None, oracles=(elimination_kernel,
                                                                     polynomial_kernel)):
    """parametrization_kernel, read off Ap(S, n_p), is the kernel of each
    oracle, under the same order."""
    pres = parametrization_kernel(exponents, variables)
    for oracle in oracles:
        gens, order = oracle(exponents, variables)
        assert printed(pres.generators) == printed(gens), (exponents, oracle)
        assert repr(pres.order) == repr(order), (exponents, oracle)


def test_apery_kernel_matches_both_oracles():
    curves = window_curves(range(3, 17), (3,)) + window_curves(range(4, 11), (4,))
    assert len(curves) == 493 + 205
    curves += [(13, 14, 5), (5, 13, 14), (7, 11, 12, 13), (3, 5, 6, 7), (1,), (1, 1)]
    for exponents in curves:
        assert_apery_matches_oracles(exponents)
    # elimination takes 9 s on q2 = 10 and 12, which the slow test runs
    for q2 in range(4, 13, 2):
        inst = bresinsky_sequence(q2)
        oracles = (elimination_kernel, polynomial_kernel) if q2 <= 8 else (polynomial_kernel,)
        assert_apery_matches_oracles(inst.n, inst.variables, oracles)


@pytest.mark.slow
def test_apery_kernel_matches_both_oracles_wide():
    curves = window_curves(range(4, 11), (4, 5, 6))
    assert len(curves) == 666
    for exponents in curves:
        assert_apery_matches_oracles(exponents)
    for q2 in (10, 12):
        inst = bresinsky_sequence(q2)
        assert_apery_matches_oracles(inst.n, inst.variables, (elimination_kernel,))


def last_free_standard_monomials(pres):
    """The monomials free of x_p, the order's last variable, that no lead
    divides, by a walk from 1 that never extends a multiple of a lead."""
    order, last = pres.order, pres.order.perm[-1]
    leads = [g.leading(order)[0] for g in pres.generators]
    seen, todo = set(), [(0,) * order.nvars]
    while todo:
        u = todo.pop()
        if u in seen or any(all(map(le, lead, u)) for lead in leads):
            continue
        seen.add(u)
        todo += [u[:j] + (u[j] + 1,) + u[j + 1:] for j in range(order.nvars) if j != last]
    return seen


def test_apery_kernel_standard_degrees_are_the_apery_set():
    # k[S]/(t^n_p) has the basis t^w, w in Ap(S, n_p): one standard monomial
    # free of x_p in each degree of the Apery set, and no other
    curves = window_curves(range(3, 13), (3, 4)) + window_curves(range(5, 8), (5,))
    curves += [(13, 14, 5), (7, 11, 12, 13), (3, 3, 4, 4, 5), (2, 2, 3), (1, 1), (1,),
               (9, 6, 4), (40001, 40003, 3)]
    for exponents in curves:
        pres = parametrization_kernel(exponents)
        degrees = sorted(weighted_degree(u, exponents)
                         for u in last_free_standard_monomials(pres))
        assert degrees == sorted(invariants(exponents)["apery"](exponents[-1])), exponents


def fibre(exponents, degree):
    """Every exponent vector of weighted degree degree, by brute force."""
    if not exponents:
        return [()] if degree == 0 else []
    return [(k,) + rest for k in range(degree // exponents[0] + 1)
            for rest in fibre(exponents[1:], degree - k * exponents[0])]


def test_apery_kernel_tails_are_fibre_minima():
    curves = window_curves(range(3, 10), (3, 4, 5))
    curves += [(13, 14, 5), (7, 11, 12, 13), (3, 3, 4, 4, 5), (2, 2, 3), (1, 1), (9, 6, 4)]
    for exponents in curves:
        pres = parametrization_kernel(exponents)
        order = pres.order
        for g in pres.generators:
            lead, tail = sorted(g.terms, key=order.key, reverse=True)
            assert g.terms == {lead: 1, tail: -1}, (exponents, g)
            least = min(fibre(exponents, weighted_degree(lead, exponents)), key=order.key)
            assert tail == least, (exponents, g)


def test_fibre_minima_of_the_least_generator():
    # the pass _graded_betti reads, with x_low, the first variable of least
    # weight m, left out: one x_low-free monomial per residue mod m, of the
    # degree of Ap(S, m) there, and the least of that fibre's x_low-free
    # monomials under the weighted grevlex order with x_low last
    curves = window_curves(range(3, 10), (3, 4, 5))
    curves += [(13, 14, 5), (7, 11, 12, 13), (3, 3, 4, 4, 5), (2, 2, 3), (1, 1), (1,),
               (9, 6, 4), (3, 40001, 40003)]
    for exponents in curves:
        low = exponents.index(min(exponents))
        m, others = exponents[low], tuple(j for j in range(len(exponents)) if j != low)
        order = last_order(exponents, low)
        minima = _fibre_minima(exponents, others, m)
        degrees = {r: weighted_degree(u, exponents) for r, u in minima.items()}
        assert sorted(degrees.values()) == sorted(invariants(exponents)["apery"](m)), exponents
        for r, u in minima.items():
            assert degrees[r] % m == r and not u[low], (exponents, u)
            least = min((v for v in fibre(exponents, degrees[r]) if not v[low]), key=order.key)
            assert u == least, (exponents, u)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 20), min_size=1, max_size=5)
       .filter(lambda ns: gcd(*ns) == 1))
@example([1]).via("one variable")
@example([4, 1, 4]).via("a 1 and a repeat")
@example([6, 6, 10, 15]).via("a repeated least weight")
def test_apery_kernel_matches_polynomial_oracle_property(exponents):
    # unsorted tuples, 1s and repeats included
    exponents = tuple(exponents)
    lattice, order = polynomial_kernel(exponents)
    pres = parametrization_kernel(exponents)
    assert printed(pres.generators) == printed(lattice), exponents
    assert repr(pres.order) == repr(order), exponents
    assert eta_check(pres)


def test_graded_betti_visits_m_residues(monkeypatch):
    # one pass on Z/3: three residues settled, whatever n_p is
    popped = []
    heappop = toric_module.heapq.heappop

    def recording(heap):
        # a key is degree * 4^2 minus the exponents of x1, x2 in base m + 1 = 4
        key = heappop(heap)
        popped.append(-(-key // 4 ** 2) % 3)
        return key

    monkeypatch.setattr(toric_module.heapq, "heappop", recording)
    graded = _graded_betti((3, 40001, 40003))
    assert popped == [0, 2, 1]
    # beta_1 in the degrees of x1^2, x1*x2 and x2^2
    assert graded == {(0, 0): 1, (1, 80002): 1, (1, 80004): 1, (1, 80006): 1,
                      (2, 120005): 1, (2, 120007): 1}


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.integers(1, 20), min_size=3, max_size=4)
       .filter(lambda ns: gcd(*ns) == 1))
def test_kernel_matches_oracle_property(exponents):
    assert eta_check(assert_matches_oracle(exponents))


def kernel_outcome(kernel, exponents, variables=None, max_basis=None):
    """The printed basis and order, or the message of the limit raised."""
    try:
        gens, order = kernel(exponents, variables, max_basis)
    except ComputationLimitExceeded as exc:
        return str(exc)
    assert all(type(c) is int for g in gens for c in g.terms.values())
    return [str(g) for g in gens], repr(order)


def engine_kernel(exponents, variables=None, max_basis=None):
    pres = parametrization_kernel(exponents, variables, max_basis=max_basis)
    return pres.generators, pres.order


def assert_matches_polynomial_oracle(exponents, variables=None, max_basis=None):
    engine = kernel_outcome(engine_kernel, exponents, variables, max_basis)
    oracle = kernel_outcome(polynomial_kernel, exponents, variables, max_basis)
    assert engine == oracle, (exponents, max_basis)
    return engine


def test_kernel_matches_polynomial_oracle_at_every_max_basis():
    # max_basis bounds the one reduced basis each side builds, so equal
    # outcomes at every bound mean equal bases refused at the same size
    inst = bresinsky_sequence(6)
    for exponents, variables in [((12, 15, 20, 23), None),
                                 ((10, 11, 13, 17, 19), None),
                                 (inst.n, inst.variables)]:
        outcomes = [assert_matches_polynomial_oracle(exponents, variables, k)
                    for k in range(1, 31)]
        assert isinstance(outcomes[0], str) and not isinstance(outcomes[-1], str)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.lists(st.integers(1, 30), min_size=3, max_size=5)
       .filter(lambda ns: gcd(*ns) == 1))
def test_kernel_matches_polynomial_oracle_property(exponents):
    assert_matches_polynomial_oracle(exponents)


@pytest.mark.slow
def test_kernel_matches_polynomial_oracle_wide():
    curves = window_curves(range(4, 11), (4, 5, 6)) + window_curves((12,), (4,))
    assert len(curves) == 666 + 154
    curves += [tuple(range(9, 16)), (101, 103, 107, 109)]
    for exponents in curves:
        assert_matches_polynomial_oracle(exponents)
    for q2 in (4, 8, 12, 16, 20):
        inst = bresinsky_sequence(q2)
        assert_matches_polynomial_oracle(inst.n, inst.variables)


def test_minimal_generators_match_restart_oracle():
    curves = minimal_triples(15)
    curves += [(5, 7, 9, 11), (12, 15, 20, 23), (4, 5, 6, 7), (5, 6, 7, 8, 9)]
    assert len(curves) == 152
    for gens in curves:
        pres = parametrization_kernel(gens)
        mini = minimal_generators(pres)
        assert mini.generators == restart_minimal_generators(pres), gens
        assert mini.beta1 == len(mini.generators)


def test_minimal_generators_forms_each_pair_once(monkeypatch):
    # the basis grows: no S-pair of earlier generators is reduced again;
    # the generators are binomials, so the engine forms every S-pair
    formed = []
    spair_remainder = groebner_module._spair_remainder

    def recording(binomials, i, j, lcm):
        basis = binomials.basis
        formed.append(tuple(sorted((basis[i][:2], basis[j][:2]))))
        return spair_remainder(binomials, i, j, lcm)

    monkeypatch.setattr(groebner_module, "_spair_remainder", recording)
    for gens in [(5, 7, 9, 11), (12, 15, 20, 23), (5, 6, 7, 8, 9)]:
        pres = parametrization_kernel(gens)
        formed.clear()
        minimal_generators(pres)
        assert len(set(formed)) == len(formed), gens
        # the completion is truncated at the top generator degree: the two
        # others need no S-pair below it
        assert bool(formed) == (gens == (12, 15, 20, 23)), gens
    inst = bresinsky_sequence(16)
    pres = parametrization_kernel(inst.n, inst.variables)
    formed.clear()
    assert minimal_generators(pres).beta1 == 32
    # 795 pairs without the truncation
    assert len(formed) == len(set(formed)) == 55
