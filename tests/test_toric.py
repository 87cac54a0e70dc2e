import random
from itertools import combinations
from math import gcd
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from semigroup_oracle import invariants
from kernel_oracle import (change_order, elimination_kernel, polynomial_kernel,
                           restart_minimal_generators)
from windows import window_curves

import monocurves.groebner as groebner_module
import monocurves.toric as toric_module
from monocurves import (ComputationLimitExceeded, GradedIdealPresentation,
                        Polynomial, bresinsky_sequence, buchberger,
                        defining_ideal, eta_check, minimal_generators,
                        monomial_curve, new_semigroup, parametrization_kernel,
                        parse_polynomial, reduce_basis)
from monocurves.poly import weighted_degree
from monocurves.toric import _apery_kernel

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
    gb = pres.groebner_basis()
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
    gb = pres.groebner_basis()
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
    # the basis of (12,15,20,23) read off Ap(S, 12) has 8 elements; the step
    # under the output order grows it to 11 and reduces it to 10
    for k in (2, 7):
        with pytest.raises(ComputationLimitExceeded, match=f"exceeded {k} elements"):
            _apery_kernel((12, 15, 20, 23), max_basis=k)
    assert len(_apery_kernel((12, 15, 20, 23), max_basis=8).generators) == 8
    for k in (2, 7, 10):
        with pytest.raises(ComputationLimitExceeded, match=f"exceeded {k} elements"):
            parametrization_kernel((12, 15, 20, 23), max_basis=k)
    assert len(parametrization_kernel((12, 15, 20, 23), max_basis=11).generators) == 10


def test_kernel_refuses_bad_max_basis():
    # bools, floats, strings and negative bounds are no element counts; 0
    # is one, which every kernel with a completion step exceeds
    for exponents in [(3, 5, 7), (1,)]:
        for bad in (-1, True, 2.5, "3"):
            with pytest.raises(ValueError, match="max_basis must be None or an int >= 0"):
                parametrization_kernel(exponents, max_basis=bad)
            with pytest.raises(ValueError, match="max_basis must be None or an int >= 0"):
                _apery_kernel(exponents, max_basis=bad)
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
    curves += [(7, 5, 3), (2, 2, 3), (3, 3, 4, 4, 5), (1,), (1, 2)]
    for gens in curves:
        assert_matches_oracle(gens)
    assert assert_matches_oracle((1,), ("y",)).generators == ()
    assert [str(g) for g in assert_matches_oracle((1, 2), ("y", "z")).generators] == ["y^2 - z"]


def test_bresinsky_kernel_matches_elimination_oracle(completions):
    # n puts the least weight last: the x_low basis is the kernel under the
    # output order, and no completion follows
    for q2 in (4, 6, 8):
        inst = bresinsky_sequence(q2)
        completions.clear()
        assert len(assert_matches_oracle(inst.n, inst.variables).generators) == 2 * q2
        assert completions == [], q2


def test_apery_kernel_then_one_output_step(completions):
    # the x_low basis takes no completion; parametrization_kernel completes
    # it under the output order, x_p last, when x_low is not x_p
    for exponents, low in [((3, 5, 7), 0), ((5, 3, 7), 1), ((5, 7, 3), 2),
                           ((7, 11, 12, 13), 0), ((8, 11, 13, 15), 0), ((5, 13, 14), 0),
                           ((13, 5, 14), 1), ((13, 14, 5), 2), ((2, 2, 3), 0), ((1, 1), 0)]:
        completions.clear()
        pres = _apery_kernel(exponents)
        assert completions == [], exponents
        assert pres.order.perm[-1] == low, exponents
        last = len(exponents) - 1
        kernel = assert_matches_oracle(exponents)
        assert completions == ([last] if low != last else []), exponents
        # the same ideal, under another order
        assert reduce_basis(buchberger(pres.generators, kernel.order)).generators \
            == kernel.generators, exponents


def printed(gens):
    return [str(g) for g in gens]


def assert_apery_matches_oracles(exponents, variables=None, oracles=(elimination_kernel,
                                                                     polynomial_kernel)):
    """_apery_kernel is the kernel of each oracle under its order, x_low
    last, and parametrization_kernel is theirs under the output order."""
    pres = _apery_kernel(exponents, variables)
    assert pres.order.perm[-1] == exponents.index(min(exponents)), exponents
    kernel = printed(parametrization_kernel(exponents, variables).generators)
    for oracle in oracles:
        gens, _ = oracle(exponents, variables)
        assert kernel == printed(gens), (exponents, oracle)
        assert printed(pres.generators) == printed(change_order(gens, pres.order)), \
            (exponents, oracle)


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


def x_low_free_standard_monomials(pres):
    """The monomials free of x_low, the order's last variable, that no lead
    divides, by a walk from 1 that never extends a multiple of a lead."""
    order, low = pres.order, pres.order.perm[-1]
    leads = [g.leading(order)[0] for g in pres.generators]
    seen, todo = set(), [(0,) * order.nvars]
    while todo:
        u = todo.pop()
        if u in seen or any(all(map(le, lead, u)) for lead in leads):
            continue
        seen.add(u)
        todo += [u[:j] + (u[j] + 1,) + u[j + 1:] for j in range(order.nvars) if j != low]
    return seen


def test_apery_kernel_standard_degrees_are_the_apery_set():
    # k[S]/(t^m) has the basis t^w, w in Ap(S, m): one standard monomial free
    # of x_low in each degree of the Apery set, and no other
    curves = window_curves(range(3, 13), (3, 4)) + window_curves(range(5, 8), (5,))
    curves += [(13, 14, 5), (7, 11, 12, 13), (3, 3, 4, 4, 5), (2, 2, 3), (1, 1), (1,),
               (9, 6, 4), (3, 40001, 40003)]
    for exponents in curves:
        pres = _apery_kernel(exponents)
        m = min(exponents)
        degrees = sorted(weighted_degree(u, exponents)
                         for u in x_low_free_standard_monomials(pres))
        assert degrees == sorted(invariants(exponents)["apery"](m)), exponents


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
        pres = _apery_kernel(exponents)
        order = pres.order
        for g in pres.generators:
            lead, tail = sorted(g.terms, key=order.key, reverse=True)
            assert g.terms == {lead: 1, tail: -1}, (exponents, g)
            least = min(fibre(exponents, weighted_degree(lead, exponents)), key=order.key)
            assert tail == least, (exponents, g)


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
    pres = _apery_kernel(exponents)
    assert printed(pres.generators) == printed(change_order(lattice, pres.order)), exponents
    assert printed(parametrization_kernel(exponents).generators) == printed(lattice), exponents
    assert eta_check(pres)


def test_apery_kernel_visits_m_residues(monkeypatch):
    # one pass on Z/3: three residues settled, whatever n_p is
    popped = []
    heappop = toric_module.heapq.heappop

    def recording(heap):
        # a key is degree * 4^2 minus the exponents of x1, x2 in base m + 1 = 4
        key = heappop(heap)
        popped.append(-(-key // 4 ** 2) % 3)
        return key

    monkeypatch.setattr(toric_module.heapq, "heappop", recording)
    pres = _apery_kernel((3, 40001, 40003))
    assert popped == [0, 2, 1]
    # every lead is free of x0, the last variable of the order
    assert printed(pres.generators) == [
        "-x0^13333*x2 + x1^2", "-x0^26668 + x1*x2", "-x0^13335*x1 + x2^2"]


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
    # max_basis bounds every intermediate basis, so equal outcomes at every
    # bound mean the two loops grow their bases alike step for step
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
