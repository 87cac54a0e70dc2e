import json
import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from checkers import has_constant_entries, is_complex, is_homogeneous
from hypothesis import given, settings
from hypothesis import strategies as st

from monocurves import (GradedResolution, MonomialOrder, Polynomial, buchberger,
                        betti_numbers, free_resolution, minimal_generators, minimalize,
                        parametrization_kernel, parse_polynomial, schreyer_syzygies)
from monocurves.resolution import _graded_betti, _rank
from monocurves.toric import GradedIdealPresentation


def test_koszul_syzygy():
    variables = ("x0", "x1", "x2")
    order = MonomialOrder.lex(3)
    gb = buchberger([parse_polynomial("x0*x1", variables),
                     parse_polynomial("x0*x2", variables)], order)
    syz = schreyer_syzygies(gb)
    assert len(syz) == 1
    assert [str(c) for c in syz[0]] == ["-x2", "x1"]


SCHREYER_SYZYGIES = {
    # count, sha256 of one line "(c1, c2, ...) [shifts]" per element, the
    # shifts the weighted degrees of the generators
    (3, 5, 7):
        (3, "7985ff988c7981fd319114fc1aa3fea0cce40fa4080370b51a3552fe88d226bf"),
    (5, 7, 9, 11):
        (10, "8abc2daa4450b4c57f099fe08beb82bdfc5a71521efdb004cfbbc3cadb201c11"),
    (12, 15, 20, 23):
        (45, "f4e94e2fa8d8b9fc6ddcb9496b7947f167b8c400bfeb4fc1dbd48389504f47b4"),
}


@pytest.mark.parametrize("gens", sorted(SCHREYER_SYZYGIES))
def test_schreyer_syzygies_pinned(gens):
    import hashlib

    pres = parametrization_kernel(gens)
    gb = pres.groebner_basis()
    syz = schreyer_syzygies(gb)
    shifts = [g.weighted_degree(pres.weights) for g in gb.generators]
    assert all(len(s) == len(shifts) for s in syz)
    text = "".join(f"({', '.join(map(str, s))}) {shifts}\n" for s in syz)
    assert (len(syz), hashlib.sha256(text.encode()).hexdigest()) == SCHREYER_SYZYGIES[gens]
    if gens == (3, 5, 7):
        assert text == ("(-x0^4 + x1*x2, -x0*x2 + x1^2, 0) [10, 12, 14]\n"
                        "(-x0^3, -x2, x1) [10, 12, 14]\n"
                        "(-x2, -x1, x0) [10, 12, 14]\n")


def test_single_generator_has_no_syzygies():
    gb = buchberger([parse_polynomial("x0^3 - x1^2", ("x0", "x1"))],
                    MonomialOrder.lex(2))
    assert schreyer_syzygies(gb) == []


def test_syzygies_annihilate():
    pres = parametrization_kernel((3, 5, 7))
    gb = pres.groebner_basis()
    for s in schreyer_syzygies(gb):
        total = Polynomial.zero(pres.variables)
        for c, g in zip(s, gb.generators):
            total = total + c * g
        assert not total


def test_resolution_principal():
    pres = parametrization_kernel((2, 3))
    res = minimalize(free_resolution(pres))
    assert res.ranks == [1, 1]
    assert res.length == 1
    assert res.betti == [1]
    assert is_complex(res) and is_homogeneous(res)


def test_resolution_357():
    pres = parametrization_kernel((3, 5, 7))
    raw = free_resolution(pres)
    assert is_complex(raw) and is_homogeneous(raw)
    res = minimalize(raw)
    assert res.ranks == [1, 3, 2]
    assert is_complex(res) and is_homogeneous(res)
    assert not has_constant_entries(res)


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
    assert is_complex(padded) and is_homogeneous(padded)
    res = minimalize(padded)
    assert res.ranks == [1, 1]
    assert res.differentials == [[[g]]]
    assert_minimalize_matches_oracle(padded)


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
        assert is_complex(raw) and is_homogeneous(raw)
        res = minimalize(raw)
        assert is_complex(res) and is_homogeneous(res)
        assert not has_constant_entries(res)
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


@pytest.mark.parametrize("gens, betti", [((2, 40001), [1]), ((3, 40001, 40003), [3, 2]),
                                         ((5, 70001, 70003, 70007, 70009), [10, 20, 15, 4])])
def test_betti_numbers_take_any_exponent(gens, betti):
    # these exponents leave 16-bit fields, and every packed level is rebuilt
    # on wider ones; the last Betti number is the type mu - 1
    from monocurves import derivation_rank, new_semigroup

    res = free_resolution(parametrization_kernel(gens))
    mini = minimalize(res)
    assert betti_numbers(gens) == mini.betti == betti
    assert is_complex(res) and is_complex(mini)
    assert sum((-1) ** k * r for k, r in enumerate(mini.ranks)) == 0
    assert betti[-1] == derivation_rank(new_semigroup(gens)).mu - 1


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


# ---- the oracle corpus: graded Betti numbers, the integer key, exactness ----

def oracle_curves():
    """Every minimal 3-generated semigroup with n0 <= 9 and n2 <= 12, five
    larger curves and the Bresinsky curves for q2 = 4, 6."""
    from monocurves import new_semigroup
    from monocurves.families import bresinsky_sequence

    triples = [(a, b, c) for c in range(4, 13) for b in range(3, c) for a in range(2, min(b, 10))
               if gcd(gcd(a, b), c) == 1
               and new_semigroup((a, b, c)).minimal_generators == (a, b, c)]
    return (triples + [(5, 7, 9, 11), (12, 15, 20, 23), (4, 5, 6, 7), (5, 6, 7, 8, 9),
                       (10, 11, 13, 17, 19)]
            + [bresinsky_sequence(q2).n for q2 in (4, 6)])


@pytest.fixture(scope="module")
def oracle_resolutions():
    """(generators, kernel, free resolution, minimal resolution) per curve."""
    out = []
    for gens in oracle_curves():
        pres = parametrization_kernel(gens)
        raw = free_resolution(pres)
        out.append((gens, pres, raw, minimalize(raw)))
    assert len(out) == 63
    return out


@pytest.fixture(scope="module")
def divisor_complex_betti(oracle_resolutions):
    """The oracle's graded Betti numbers of each oracle curve."""
    from betti_oracle import graded_betti

    return [graded_betti(gens) for gens, _, _, _ in oracle_resolutions]


def graded(res):
    """{(i, s): beta_{i,s}} of a minimal resolution."""
    return Counter((i, s) for i, level in enumerate(res.shifts) for s in level)


def test_graded_betti_numbers_match_divisor_complex_oracle(oracle_resolutions,
                                                           divisor_complex_betti):
    for (gens, _, _, res), oracle in zip(oracle_resolutions, divisor_complex_betti):
        assert graded(res) == oracle, gens


def assert_hilbert_identity(gens, res):
    """Exactness in every degree: sum_i (-1)^i sum of t^s over the shifts s
    of F_i is the numerator of the Hilbert series of k[S] over prod(1 -
    t^n_j), sum of t^w over w in Ap(S, m) times prod over j != low of
    (1 - t^n_j), Ap(S, m) from the Koszul oracle's own loop.  It checks the
    shifts of a resolution, raw or minimal."""
    from apery_koszul_oracle import apery_set

    m, apery = apery_set(gens)
    numerator = Counter(apery)
    for n in gens:
        if n != m:
            numerator.subtract({d + n: c for d, c in numerator.items()})
    alternating = Counter()
    for i, level in enumerate(res.shifts):
        for s in level:
            alternating[s] += (-1) ** i
    assert ({d: c for d, c in numerator.items() if c}
            == {d: c for d, c in alternating.items() if c}), (gens, res.minimal)


def test_hilbert_series_identity(oracle_resolutions):
    for gens, _, raw, res in oracle_resolutions:
        assert_hilbert_identity(gens, raw)
        assert_hilbert_identity(gens, res)
    for gens in [(2, 3), (6, 10, 15)]:
        raw = free_resolution(parametrization_kernel(gens))
        assert_hilbert_identity(gens, raw)
        assert_hilbert_identity(gens, minimalize(raw))


@pytest.mark.slow
def test_hilbert_series_identity_wide():
    from windows import window_curves

    # the curve pool of the benchmark corpus, raw resolutions
    curves = window_curves(range(4, 11), (4, 5, 6))
    assert len(curves) == 666
    for gens in curves:
        assert_hilbert_identity(gens, free_resolution(parametrization_kernel(gens)))


def test_artinian_reduction_matches_divisor_complex_oracle(oracle_resolutions,
                                                           divisor_complex_betti):
    # the graded Betti numbers of k[S]/(t^m) over the other p variables, as
    # Koszul homology over Ap(S, m)
    for (gens, _, _, _), oracle in zip(oracle_resolutions, divisor_complex_betti):
        assert _graded_betti(gens) == oracle, gens


def test_koszul_oracle_matches_divisor_complex_oracle(oracle_resolutions,
                                                      divisor_complex_betti):
    from apery_koszul_oracle import graded_betti

    for (gens, _, _, _), oracle in zip(oracle_resolutions, divisor_complex_betti):
        assert graded_betti(gens) == oracle, gens


def assert_reduction_matches_full(exponents, variables=None):
    """The graded Betti numbers of the reduction's Koszul homology are the
    shifts, level by level, of the minimal resolution of I(S) itself."""
    full = minimalize(free_resolution(parametrization_kernel(exponents, variables)))
    assert _graded_betti(exponents) == graded(full), exponents


def test_artinian_reduction_matches_full_resolution():
    from windows import window_curves

    curves = window_curves(range(4, 9), (4,))
    assert len(curves) == 69
    for gens in curves:
        assert_reduction_matches_full(gens)


@pytest.mark.slow
def test_artinian_reduction_matches_full_resolution_wide():
    from windows import window_curves

    from monocurves.families import bresinsky_sequence

    # the curve and betti pools of the benchmark corpus
    curves = (window_curves(range(4, 11), (4, 5, 6)) + window_curves((12,), (4,))
              + window_curves((10,), (5,)))
    assert len(curves) == 945
    for gens in curves:
        assert_reduction_matches_full(gens)
    for q2 in range(4, 26, 2):
        inst = bresinsky_sequence(q2)
        assert_reduction_matches_full(inst.n, inst.variables)


def test_koszul_betti_small_cases():
    # N has the zero ideal: Ap(S, 1) = {0} and no other variable, so e_{} t^0 is
    # the one Koszul vector
    assert _graded_betti((1,)) == Counter({(0, 0): 1})
    assert betti_numbers((1,)) == []
    # the kernel of (2, 3) is x0^3 - x1^2, of degree 6: Ap(S, 2) = {0, 3}
    assert _graded_betti((2, 3)) == Counter({(0, 0): 1, (1, 6): 1})
    # the exponents need not be sorted: the least one is taken wherever it sits
    assert _graded_betti((7, 3, 5)) == _graded_betti((3, 5, 7))
    assert _graded_betti((3, 5, 7)) == Counter({(0, 0): 1, (1, 10): 1, (1, 12): 1, (1, 14): 1,
                                                (2, 17): 1, (2, 19): 1})


def test_graded_betti_matches_koszul_oracle():
    from apery_koszul_oracle import graded_betti
    from windows import window_curves

    curves = window_curves(range(4, 9), (4,))
    assert len(curves) == 69
    for gens in curves:
        assert _graded_betti(gens) == graded_betti(gens), gens


@pytest.mark.slow
def test_graded_betti_matches_koszul_oracle_wide():
    from apery_koszul_oracle import graded_betti
    from windows import window_curves

    # every 4- and 5-generated curve of the benchmark's curve and betti pools
    curves = sorted(set(window_curves(range(4, 11), (4, 5)) + window_curves((12,), (4,))
                        + window_curves((10,), (5,))))
    assert len(curves) == 610
    for gens in curves:
        assert _graded_betti(gens) == graded_betti(gens), gens


def independent_rank(rows):
    """The size of the largest nonzero minor, each minor expanded along its
    first row in exact integer arithmetic."""
    def det(m):
        if not m:
            return 1
        return sum((-1) ** c * m[0][c] * det([row[:c] + row[c + 1:] for row in m[1:]])
                   for c in range(len(m)))

    n, k = len(rows), len(rows[0]) if rows else 0
    return max((size for size in range(1, min(n, k) + 1)
                for rs in combinations(range(n), size) for cs in combinations(range(k), size)
                if det([[rows[r][c] for c in cs] for r in rs])), default=0)


@pytest.mark.parametrize("rows", [
    [],
    [[0, 0], [0, 0]],
    [[1, -1], [-1, 1]],
    [[2, 4], [1, 2]],                        # rank-deficient, non-unit pivot
    [[2, 3], [3, 5]],                        # Fraction pivots: 5 - 3 * 3/2
    [[2, 3, 5], [4, 6, 10], [1, 1, 1]],
    [[3, 1, 2], [6, 2, 4], [9, 3, 7], [0, 0, 1]],
    [[0, 2, 3], [2, 0, 3], [2, 2, 6]],       # third row the sum of the others
    [[5], [7], [0]],
])
def test_block_rank(rows):
    # _rank takes the columns of a block as sparse {row: c} maps
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]}
               for c in range(len(rows[0]) if rows else 0)]
    assert _rank(columns) == independent_rank(rows)
    assert _rank([dict(enumerate(row)) for row in rows]) == independent_rank(rows)


def test_block_rank_on_random_blocks():
    rng = random.Random(25)
    for _ in range(300):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3, -4)) for _ in range(k)] for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            a, b = rng.randint(-2, 3), rng.randint(-2, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % n])]
        columns = [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(k)]
        assert _rank(columns) == independent_rank(rows), rows


def test_last_shifts_reach_the_oracle_scan_bound(oracle_resolutions):
    # the largest shift is F(S) + sum(n), in the last module (F is in PF(S))
    from betti_oracle import scan_bound

    for gens, _, _, res in oracle_resolutions:
        assert max(res.shifts[-1]) == scan_bound(gens), gens
        assert max(max(level) for level in res.shifts) == scan_bound(gens), gens


def test_flat_schreyer_key_matches_nested_oracle(oracle_resolutions):
    # at every level, the monomials of the differential's columns (and their
    # multiples by each variable) sort the same under the integer key and
    # the nested tuple key
    from schreyer_oracle import rank_one_key, schreyer_key

    from monocurves import SchreyerOrder
    from monocurves.poly import MonomialCodec

    for gens, pres, raw, _ in oracle_resolutions:
        flat = SchreyerOrder.rank_one(pres.order, MonomialCodec(len(gens), 16))
        nested = rank_one_key(pres.order)
        units = [tuple(int(k == i) for k in range(len(gens))) for i in range(len(gens))]
        for mat in raw.differentials:
            columns = [[(r, exp) for r, row in enumerate(mat) for exp in row[c].terms]
                       for c in range(len(mat[0]))]
            monomials = {(r, tuple(a + b for a, b in zip(exp, unit)))
                         for col in columns for r, exp in col for unit in units}
            monomials.update(mm for col in columns for mm in col)
            assert all(type(flat.key(mm)) is int for mm in monomials)
            assert sorted(monomials, key=flat.key) == sorted(monomials, key=nested), gens
            leads = [max(col, key=nested) for col in columns]
            flat, nested = flat.next(leads), schreyer_key(nested, leads)


def _coefficients(polys):
    return [c for f in polys for c in f.terms.values()]


def test_coefficients_are_exact_integers(oracle_resolutions):
    # toric binomials have coefficients +-1 and every division in the
    # pipeline is by a unit, so no coefficient ever becomes a Fraction
    from monocurves import homogenize_basis, reduce_basis

    for gens, pres, raw, res in oracle_resolutions:
        grevlex = reduce_basis(buchberger(pres.generators, MonomialOrder.grevlex(len(gens))))
        coeffs = _coefficients(pres.generators + minimal_generators(pres).generators
                               + grevlex.generators + tuple(homogenize_basis(grevlex)))
        for r in (raw, res):
            coeffs += _coefficients(e for mat in r.differentials for row in mat for e in row)
        assert coeffs and all(type(c) is int for c in coeffs), gens


# ---- the annihilation check is not narrower ---------------------------------

# each corrupts the output of the one S-pair division, PackedLevel.spair_division:
# it adds 1 to the constant coefficient of the quotient at the last position
# other than the pair's own two, which a check of those two would miss

def _corrupt_division(monkeypatch, on_ring, coprime=None):
    from monocurves.groebner import PackedLevel
    from monocurves.poly import exp_coprime

    true_division = PackedLevel.spair_division

    def corrupted(self, i, j, u, v):
        quotients, rem = true_division(self, i, j, u, v)
        if on_ring != (self.order.rank == 1) or (
                on_ring and exp_coprime(self.leads[i][1], self.leads[j][1]) != coprime):
            return quotients, rem
        k = max(set(range(len(self.elements))) - {i, j})
        mm = k << self.codec.shift      # the monomial 1 at position k
        return {**quotients, mm: quotients.get(mm, 0) + 1}, rem

    monkeypatch.setattr(PackedLevel, "spair_division", corrupted)


@pytest.mark.parametrize("corruptions", [
    # level 1: once on a coprime pair (closed form), once on a divided pair
    [lambda m: _corrupt_division(m, True, True), lambda m: _corrupt_division(m, True, False)],
    # level 2 and up: every module division
    [lambda m: _corrupt_division(m, False)],
], ids=["level-1-transcript", "level-2-module-division"])
def test_corrupted_quotient_breaks_annihilation(corruptions, monkeypatch, capsys):
    from monocurves.cli import main

    pres = parametrization_kernel((5, 7, 9, 11))
    for corrupt in corruptions:
        with monkeypatch.context() as m:
            corrupt(m)
            with pytest.raises(AssertionError, match="^syzygy does not annihilate the basis$"):
                free_resolution(pres)
            assert main(["resolution", "5", "7", "9", "11"]) == 3
            assert capsys.readouterr().err == ("error: internal invariant broken: "
                                               "syzygy does not annihilate the basis\n")


def test_level_one_remainder_is_a_value_error():
    # the minimal generators of (4, 6, 7) pass the normal-form check (each
    # is one of them), but their divided pair (0, 1) leaves a remainder
    with pytest.raises(ValueError, match=r"^not a Groebner basis: pair \(0, 1\) "
                                         r"does not reduce to zero$"):
        free_resolution(minimal_generators(parametrization_kernel((4, 6, 7))))


# ---- minimalize against the rescanning oracle; the work it does ------------

def assert_minimalize_matches_oracle(raw):
    import minimalize_oracle

    assert minimalize(raw).to_json_dict() == minimalize_oracle.minimalize(raw).to_json_dict()


def test_minimalize_matches_oracle_on_the_corpus(oracle_resolutions):
    for _, _, raw, _ in oracle_resolutions:
        assert_minimalize_matches_oracle(raw)


@pytest.mark.parametrize("gens", [(3, 5, 7), (5, 7, 9, 11), (6, 7, 8, 9, 10, 11),
                                  (12, 15, 20, 23), tuple(range(9, 16))])
def test_minimalize_matches_oracle_on_golden_curves(gens):
    assert_minimalize_matches_oracle(free_resolution(parametrization_kernel(gens)))


def _minimal_exponents(ns):
    from monocurves import new_semigroup

    return gcd(*ns) == 1 and new_semigroup(ns).minimal_generators == tuple(ns)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.integers(2, 20), min_size=3, max_size=4, unique=True)
       .map(sorted).filter(_minimal_exponents))
def test_minimalize_matches_oracle_property(exponents):
    assert_minimalize_matches_oracle(free_resolution(parametrization_kernel(exponents)))


def test_resolution_ranks_and_cancels_without_repeats(monkeypatch):
    # pruning reads every lead off its S-pair, so it never ranks a term with
    # SchreyerOrder.key; from level 1 on it builds the dense tie key once for
    # each element of a surviving group of equal leads (26 on this curve) and
    # for no other; it runs once more on the last level, which has no pairs;
    # minimalize resumes its scan after each cancellation (248 965
    # _constant_value calls on this curve when it restarted) and looks only
    # where the row and column shifts are equal (11 806 calls when it
    # looked at every entry)
    from monocurves import SchreyerOrder, resolution

    pres = parametrization_kernel(tuple(range(9, 16)))
    calls = {"levels": 0, "key": 0, "dense": 0, "tied": 0, "constant": 0}
    pruning = []
    prune, key, dense = resolution._prune_and_sort, SchreyerOrder.key, resolution._dense_key

    def counted_prune(leads, tie_key):
        pruning.append(True)
        kept = prune(leads, tie_key)
        pruning.pop()
        if calls["levels"]:
            sizes = Counter(leads)
            calls["tied"] += sum(sizes[leads[k]] for k in kept if sizes[leads[k]] > 1)
        calls["levels"] += 1
        return kept

    def counted_key(self, mm):
        calls["key"] += bool(pruning)
        return key(self, mm)

    def counted_dense(coords):
        calls["dense"] += 1
        return dense(coords)

    monkeypatch.setattr(resolution, "_prune_and_sort", counted_prune)
    monkeypatch.setattr(SchreyerOrder, "key", counted_key)
    monkeypatch.setattr(resolution, "_dense_key", counted_dense)
    raw = free_resolution(pres)
    assert calls["levels"] == len(raw.ranks)
    assert calls["key"] == 0
    assert calls["dense"] == calls["tied"] == 26

    def counted_constant(poly):
        calls["constant"] += 1
        return constant(poly)

    constant = resolution._constant_value
    monkeypatch.setattr(resolution, "_constant_value", counted_constant)
    minimalize(raw)
    assert calls["constant"] == 77


# ---- the sparse prune against the dense oracle ------------------------------

def _element(coords, variables, sign):
    return tuple(Polynomial(variables, {e: sign * c for e, c in h.items()}) for h in coords)


def assert_prune_matches_oracle(pres, monkeypatch):
    """At every level, the sparse prune keeps the elements the dense oracle
    keeps from the syzygies of every pair, in the same order and with the
    same leads, and every lead read off a pair is the largest monomial of
    its Schreyer tuple, coefficient -1.  Returns the number of leads read
    off pairs."""
    from prune_oracle import leading, prune_and_sort

    from monocurves import SchreyerOrder, resolution

    levels = []
    kept_syzygies = resolution._kept_syzygies

    def recording(level):
        levels.append((level, kept_syzygies(level)))
        return levels[-1][1]

    with monkeypatch.context() as m:
        m.setattr(resolution, "_kept_syzygies", recording)
        free_resolution(pres)
    assert levels[-1][1] == ([], [])

    ring = levels[0][0]
    order = SchreyerOrder.rank_one(pres.order, ring.codec)
    want, want_leads = prune_and_sort([(g,) for g in pres.generators], order.key)
    assert [_element(ring.coordinates({m: c for m, _, c in terms}, 1), pres.variables, 1)
            for terms in ring.elements] == want
    assert ring.leads == want_leads
    read = 0
    for level, (kept, kept_leads) in levels:
        # the dense oracle gets the syzygy of every pair
        pairs = resolution._pairs(level.leads)
        syz = [resolution._syzygy(level, pairs, n) for n in range(len(pairs))]
        syz_leads = [(i, u) for i, _, u, _ in pairs]
        order, rank = order.next(want_leads), len(want_leads)
        tuples = [_element(level.coordinates(s, rank), pres.variables, -1) for s in syz]
        assert [leading(t, order.key) for t in tuples] == [lead + (-1,) for lead in syz_leads]
        read += len(syz)
        want, want_leads = prune_and_sort(tuples, order.key)
        assert [_element(level.coordinates(s, rank), pres.variables, 1) for s in kept] == want
        assert kept_leads == want_leads
    return read


def test_only_kept_pairs_are_divided(monkeypatch):
    # leads are read off the pairs, so a level is pruned before it is
    # divided: on (9, ..., 15) the ring level forms 171 pairs and keeps 61,
    # and 267 of the 372 pairs of all levels are divided, the kept ones and
    # the members of tied groups that the dense tie key needs
    from monocurves import resolution
    from monocurves.groebner import PackedLevel

    formed, divided = [], []
    pairs, division = resolution._pairs, PackedLevel.spair_division

    def counted_pairs(leads):
        formed.append(len(pairs(leads)))
        return pairs(leads)

    def counted_division(self, *args):
        divided.append(args[:2])
        return division(self, *args)

    monkeypatch.setattr(resolution, "_pairs", counted_pairs)
    monkeypatch.setattr(PackedLevel, "spair_division", counted_division)
    raw = free_resolution(parametrization_kernel(tuple(range(9, 16))))
    assert raw.ranks == [1, 19, 61, 89, 70, 29, 5]
    assert formed == [171, 90, 73, 32, 6, 0]
    assert len(divided) == 267


def test_prune_matches_dense_oracle(monkeypatch):
    golden = [(6, 7, 8, 9, 10, 11), tuple(range(9, 16))]
    read = sum(assert_prune_matches_oracle(parametrization_kernel(gens), monkeypatch)
               for gens in oracle_curves() + golden)
    assert read == 1068     # 517 of them on the oracle corpus


def test_ring_level_error_names_the_first_failing_pair(monkeypatch):
    # the ring level divides only the pairs its prune keeps, yet
    # free_resolution raises ValueError exactly when is_groebner_basis says
    # the presentation is no basis, naming the first pair (i, j) of the
    # basis it resolves that leaves a remainder, as a scan of every pair does
    from monocurves import GroebnerBasis, is_groebner_basis, resolution

    bases = []

    class Recording(GroebnerBasis):
        def __init__(self, *args):
            super().__init__(*args)
            bases.append(self)

    monkeypatch.setattr(resolution, "GroebnerBasis", Recording)
    # window curves m < n_1 < ... < n_(e-1) < 2m; on 25 of the 72 that fail,
    # the first kept pair with a remainder is not the first pair with one
    window = [(m,) + rest for m in range(4, 9) for e in (3, 4, 5)
              for rest in combinations(range(m + 1, 2 * m), e - 1) if gcd(m, *rest) == 1]
    assert len(window) == 176
    failed = 0
    for gens in window:
        mini = minimal_generators(parametrization_kernel(gens))
        ok = is_groebner_basis(mini.generators, mini.order)[0]
        bases.clear()
        try:
            free_resolution(mini)
        except ValueError as exc:
            gb, = bases
            records = is_groebner_basis(gb.generators, gb.order)[1]
            first = min(pair for pair, rec in records.items() if rec.remainder)
            assert (ok, str(exc)) == (False, "not a Groebner basis: pair "
                                             f"({first[0]}, {first[1]}) does not reduce to zero")
            failed += 1
        else:
            assert ok
    assert failed == 72
