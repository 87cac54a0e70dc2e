"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All comparisons are exact (integer or rational arithmetic); the stated
runtime ceilings are asserted as hard bounds.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

from checkers import has_constant_entries, is_complex, substitute

from monocurves import (MonomialOrder, Polynomial, buchberger, betti_numbers,
                        bresinsky_generators, bresinsky_order,
                        bresinsky_sequence, delta_prime, derivation_rank,
                        free_resolution, homogenize_basis, is_groebner_basis,
                        minimal_generators, minimalize, new_semigroup,
                        parametrization_kernel, reduce_basis, verify_bresinsky)
from monocurves.poly import weighted_degree


def report(number: int, description: str, ok: bool):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_minimal_curves(rng, count, max_gen, sizes=(2, 3, 4)):
    curves = []
    seen = set()
    while len(curves) < count:
        gens = sorted(rng.sample(range(2, max_gen + 1), rng.choice(sizes)))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        m = new_semigroup(gens).minimal_generators
        if len(m) < 2 or m[-1] > max_gen or m in seen:
            continue
        seen.add(m)
        curves.append(m)
    return curves


def test_criterion_1_semigroup_invariants():
    t0 = time.perf_counter()
    s = new_semigroup([3, 5, 7])
    inv = s.basic_invariants()
    symmetric = s.is_symmetric()
    elapsed = time.perf_counter() - t0
    ok = ((inv.multiplicity, inv.embedding_dimension, inv.frobenius,
           inv.conductor) == (3, 3, 4, 5)
          and symmetric is False
          and elapsed < 0.1)
    report(1, f"Gamma(3,5,7): m=3 e=3 F=4 c=5 not symmetric in {elapsed:.4f}s", ok)


def test_criterion_2_bresinsky_betti_formulas():
    ok = True
    details = []
    for q2 in (4, 6):
        t0 = time.perf_counter()
        inst = bresinsky_sequence(q2)
        beta = tuple(betti_numbers(sorted(inst.n)))
        elapsed = time.perf_counter() - t0
        expected = (2 * q2, 4 * (q2 - 1), 2 * q2 - 3)
        ok = ok and beta == expected and elapsed < 300
        details.append(f"q2={q2}: beta={beta} in {elapsed:.1f}s")
    report(2, "; ".join(details), ok)


def test_criterion_3_bresinsky_groebner_claim():
    ok = True
    details = []
    for q2 in (4, 6):
        inst = bresinsky_sequence(q2)
        gens = bresinsky_generators(inst)
        gb_ok, _ = is_groebner_basis(gens, bresinsky_order())
        rep = verify_bresinsky(inst)
        ok = ok and gb_ok and len(gens) == 2 * q2 and rep.generates
        details.append(f"q2={q2}: |S|={len(gens)} gb={gb_ok} generates={rep.generates}")
    report(3, "; ".join(details), ok)


def test_criterion_4_herzog_bound():
    t0 = time.perf_counter()
    attained = 0
    checked = 0
    ok = True
    for n2 in range(4, 16):
        for n1 in range(3, n2):
            for n0 in range(2, n1):
                if gcd(gcd(n0, n1), n2) != 1:
                    continue
                if new_semigroup([n0, n1, n2]).minimal_generators != (n0, n1, n2):
                    continue
                checked += 1
                beta1 = minimal_generators(parametrization_kernel((n0, n1, n2))).beta1
                if beta1 not in (2, 3):
                    ok = False
                if beta1 == 3:
                    attained += 1
    elapsed = time.perf_counter() - t0
    spot = minimal_generators(parametrization_kernel((3, 5, 7))).beta1
    ok = ok and attained > 0 and spot == 3 and elapsed < 120
    report(4, f"{checked} minimal 3-generated curves (n2<=15): beta1 in {{2,3}}, "
              f"3 attained {attained}x, {elapsed:.1f}s", ok)


def test_criterion_5_kraft_equivalence():
    seen = set()
    checked = 0
    ok = True
    # exhaustive over minimal generating sets with n0 <= 10, up to four
    # generators bounded by 30, then filtered to frobenius <= 60
    for e in (1, 2, 3, 4):
        for gens in combinations(range(1, 31), e):
            if gens[0] > 10:
                continue
            g = 0
            for x in gens:
                g = gcd(g, x)
            if g != 1:
                continue
            s = new_semigroup(gens)
            if s.minimal_generators != gens or s.frobenius > 60:
                continue
            if gens in seen:
                continue
            seen.add(gens)
            checked += 1
            brute = frozenset(
                a for a in s.gaps()
                if all(s.contains(a + x) for x in range(1, a + s.conductor + 1)
                       if s.contains(x)))
            fast = delta_prime(s)
            data = derivation_rank(s)
            if fast != brute or data.mu != len(fast) + 1:
                ok = False
    spot = derivation_rank(new_semigroup([3, 5, 7]))
    ok = ok and spot.mu == 3
    report(5, f"{checked} semigroups: reduced delta' == brute-force delta', "
              f"mu = |delta'|+1; Gamma(3,5,7) mu=3", ok)


def test_criterion_6_resolution_properties():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    curves = random_minimal_curves(rng, 25, 30)
    ok = True
    for m in curves:
        p = len(m) - 1
        pres = parametrization_kernel(m)
        raw = free_resolution(pres)
        res = minimalize(raw)
        euler = 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(res.betti))
        good = (is_complex(raw) and is_complex(res)
                and not has_constant_entries(res)
                and euler == 0
                and res.length == p
                and minimal_generators(pres).beta1 == res.betti[0])
        if not good:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    report(6, f"25 random curves (p<=3, n_p<=30): complex, minimal, Euler sum 0, "
              f"length p, beta1 agreement, {elapsed:.1f}s", ok)


def test_criterion_7_toric_correctness():
    curves = [(3, 5, 7), (4, 6, 7), (6, 10, 15), (5, 7, 9, 13)]
    rng = random.Random(1)
    ok = True
    positives = negatives = 0
    for gens in curves:
        pres = parametrization_kernel(gens)
        gb = pres.groebner_basis()
        target = ("t",)
        images = [Polynomial.monomial(target, (n,)) for n in gens]
        for g in pres.generators:
            if substitute(g, images) or not g.is_weighted_homogeneous(gens):
                ok = False
        k = len(gens)
        vecs = [()]
        for _ in range(k):
            vecs = [v + (e,) for v in vecs for e in range(7)]
        by_deg = {}
        for v in vecs:
            by_deg.setdefault(weighted_degree(v, gens), []).append(v)
        for group in by_deg.values():
            for u, v in combinations(group, 2):
                positives += 1
                if gb.normal_form(Polynomial(pres.variables, {u: 1, v: -1})):
                    ok = False
        for _ in range(2500):
            u, v = rng.choice(vecs), rng.choice(vecs)
            if weighted_degree(u, gens) == weighted_degree(v, gens):
                continue
            negatives += 1
            if not gb.normal_form(Polynomial(pres.variables, {u: 1, v: -1})):
                ok = False
    report(7, f"eta-vanishing + homogeneity on all generators; membership iff "
              f"equal weighted degree ({positives} equal, {negatives} unequal pairs)", ok)


def test_criterion_8_homogenization():
    rng = random.Random(7)
    curves = random_minimal_curves(rng, 10, 30)
    ok = True
    for m in curves:
        pres = parametrization_kernel(m)
        order = MonomialOrder.grevlex(len(m))
        gb = reduce_basis(buchberger(list(pres.generators), order))
        hom = homogenize_basis(gb, "h")
        if hom:
            gb_ok, _ = is_groebner_basis(hom, MonomialOrder.grevlex(len(m) + 1))
        else:
            gb_ok = True
        if not gb_ok:
            ok = False
        d = m[-1]
        for _ in range(20):
            u = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            v = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            point = [Polynomial.constant(("z",), u ** (d - n) * v ** n) for n in m]
            point.append(Polynomial.constant(("z",), u ** d))
            if any(substitute(f, point) for f in hom):
                ok = False
    report(8, "10 random curves: homogenized basis passes Buchberger's criterion "
              "and vanishes on the projective parametrization (20 points each)", ok)
