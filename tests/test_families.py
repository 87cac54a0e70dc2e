import json
from math import gcd

import pytest

import monocurves.groebner as groebner_module
from monocurves import (GroebnerBasis, NumericalSemigroup, Polynomial, buchberger,
                        bresinsky_generators, bresinsky_order, bresinsky_sequence,
                        concatenation_semigroup, eta_check, families,
                        family_sweep, free_resolution, minimalize,
                        parametrization_kernel, sweep_to_text, verify_bresinsky)
from monocurves.toric import GradedIdealPresentation


def test_sequence_values():
    inst = bresinsky_sequence(4)
    assert (inst.q1, inst.d1) == (5, 3)
    assert inst.n == (20, 15, 23, 12)
    assert bresinsky_sequence(6).n == (42, 35, 47, 30)


def test_sequence_gcd_is_one():
    for q2 in range(4, 401, 2):
        assert gcd(*bresinsky_sequence(q2).n) == 1


def test_sequence_validation():
    for bad in (3, 5, 2, 0, -4):
        with pytest.raises(ValueError):
            bresinsky_sequence(bad)


def test_generator_count_and_shape():
    for q2 in (4, 6, 8):
        inst = bresinsky_sequence(q2)
        gens = bresinsky_generators(inst)
        assert len(gens) == 2 * q2
        for g in gens:
            assert sorted(g.terms.values()) == [-1, 1]
            assert g.is_weighted_homogeneous(inst.weights)


def test_first_family_member():
    inst = bresinsky_sequence(4)
    f1 = bresinsky_generators(inst)[0]
    assert str(f1) == "-x2^3*x4^2 + x3^3"


def test_g2_weighted_degree():
    inst = bresinsky_sequence(4)
    g2 = bresinsky_generators(inst)[-1]
    degs = {sum(e * w for e, w in zip(exp, inst.weights)) for exp in g2.terms}
    assert degs == {35}


def test_generators_vanish_under_parametrization():
    for q2 in (4, 6):
        inst = bresinsky_sequence(q2)
        pres = GradedIdealPresentation(
            inst.variables, inst.weights, bresinsky_order(),
            tuple(bresinsky_generators(inst)))
        assert eta_check(pres, inst.n)


def test_verify_q2_4():
    report = verify_bresinsky(bresinsky_sequence(4))
    assert report.ok
    assert report.betti == (8, 12, 5)


def test_dropping_a_generator_breaks_generation():
    inst = bresinsky_sequence(4)
    gens = bresinsky_generators(inst)
    kernel = parametrization_kernel(inst.n, inst.variables)
    partial = buchberger(gens[1:], bresinsky_order())
    assert any(partial.normal_form(g) for g in kernel.generators)


def test_either_half_of_generation_can_fail(monkeypatch):
    # (S) in I(S) fails on x1 - x2, which does not vanish on the curve,
    # though every kernel generator still reduces to zero; I(S) in (S)
    # fails once g2 is dropped, though what is left still vanishes
    inst = bresinsky_sequence(4)
    gens = bresinsky_generators(inst)
    x1_x2 = Polynomial(inst.variables, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    for changed in (gens + [x1_x2], gens[:-1]):
        monkeypatch.setattr(families, "bresinsky_generators", lambda inst: list(changed))
        report = verify_bresinsky(inst)
        assert report.generates is False
        assert report.betti_match


def test_verifier_divides_only_the_kernel(monkeypatch):
    # (S) in I(S) takes no division: the only normal forms are those of the
    # kernel generators by the basis of (S), and the kernel gets no basis
    inst = bresinsky_sequence(4)
    kernel = parametrization_kernel(inst.n, inst.variables)
    divisions, bases = [], []
    divide, init = groebner_module.divide, GroebnerBasis.__init__

    def counting_divide(f, divisors, order):
        divisions.append(f)
        return divide(f, divisors, order)

    def recording_init(self, generators, order):
        init(self, generators, order)
        bases.append(self.generators)

    monkeypatch.setattr(groebner_module, "divide", counting_divide)
    monkeypatch.setattr(GroebnerBasis, "__init__", recording_init)
    assert verify_bresinsky(inst).ok
    assert divisions == list(kernel.generators)
    assert kernel.generators not in bases


def test_verify_q2_8():
    report = verify_bresinsky(bresinsky_sequence(8))
    assert report.ok
    assert report.betti == (16, 28, 13)


@pytest.mark.parametrize("q2", [10, 12, 16, pytest.param(24, marks=pytest.mark.slow),
                                pytest.param(32, marks=pytest.mark.slow)])
def test_verify_at_scale(q2):
    report = verify_bresinsky(bresinsky_sequence(q2))
    assert report.ok
    assert report.betti == (2 * q2, 4 * (q2 - 1), 2 * q2 - 3)


@pytest.mark.parametrize("q2", [10, 12, 16, pytest.param(24, marks=pytest.mark.slow)])
def test_bresinsky_betti_formula(q2):
    inst = bresinsky_sequence(q2)
    kernel = parametrization_kernel(inst.n, inst.variables)
    betti = tuple(minimalize(free_resolution(kernel)).betti)
    assert betti == (2 * q2, 4 * (q2 - 1), 2 * q2 - 3)


def test_concatenation_valid_instance():
    inst, s = concatenation_semigroup(5, 3, 19, 3)
    assert inst.generators == (5, 8, 19, 22)
    assert s.embedding_dimension == inst.p + 1
    assert s.minimal_generators == inst.generators


def test_concatenation_rejects_non_minimal():
    # 12 = 5 + 7, so the concatenated set is not minimal
    with pytest.raises(ValueError, match="minimal"):
        concatenation_semigroup(5, 2, 12, 3)


def test_concatenation_rejects_d_dividing_gap():
    with pytest.raises(ValueError, match="divide"):
        concatenation_semigroup(4, 3, 10, 3)
    with pytest.raises(ValueError, match="divide"):
        concatenation_semigroup(5, 3, 17, 3)  # 3 divides 17 - 5


def test_concatenation_rejects_bad_arithmetic():
    with pytest.raises(ValueError):
        concatenation_semigroup(4, 2, 11, 3)  # gcd(a, d) = 2
    with pytest.raises(ValueError):
        concatenation_semigroup(5, 3, 8, 3)  # b = a + (p-2) d
    with pytest.raises(ValueError):
        concatenation_semigroup(5, 3, 19, 2)  # p too small
    with pytest.raises(ValueError):
        concatenation_semigroup(0, 3, 19, 3)


def test_embedding_dimension_matches_p():
    for (a, d, b, p) in [(5, 3, 19, 3), (7, 2, 10, 3), (7, 3, 15, 4)]:
        inst, s = concatenation_semigroup(a, d, b, p)
        assert len(inst.generators) == p + 1
        assert s.embedding_dimension == p + 1


def test_bresinsky_sweep():
    rows = family_sweep("bresinsky", [4, 6])
    assert [row["beta1"] for row in rows] == [8, 12]
    assert [row["beta"] for row in rows] == [[8, 12, 5], [12, 20, 9]]
    assert all(row["eta_ok"] and row["error"] is None for row in rows)
    assert family_sweep("bresinsky", [5]) == [
        {"family": "bresinsky", "params": {"q2": 5}, "error": "q2 must be an even integer >= 4"}]


def test_empty_sweep():
    assert family_sweep("bresinsky", []) == []


def test_concatenation_sweep_records_errors():
    rows = family_sweep("concatenation",
                        [(5, 3, b, 3) for b in (17, 18, 19)])
    assert rows[0]["error"] is not None  # d | b - a
    assert rows[1]["error"] is not None  # not minimal
    assert rows[2]["error"] is None
    assert rows[2]["eta_ok"]
    assert rows[2]["beta"][0] == rows[2]["beta1"]


def test_one_semigroup_per_sweep_row(monkeypatch):
    builds = []
    init = NumericalSemigroup.__init__

    def counting(self, generators):
        builds.append(tuple(generators))
        init(self, generators)

    monkeypatch.setattr(NumericalSemigroup, "__init__", counting)
    rows = family_sweep("concatenation",
                        [(5, 3, 9, 3), (5, 3, 19, 3), (7, 3, 12, 3), (6, 5, 20, 4)])
    assert all(row["error"] is None for row in rows)
    assert builds == [tuple(row["n"]) for row in rows]
    builds.clear()
    family_sweep("bresinsky", [4])
    assert builds == [(20, 15, 23, 12)]


def test_sweep_propagates_broken_invariants(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("syzygy does not annihilate the basis")

    monkeypatch.setattr(families, "_curve_row", broken)
    with pytest.raises(AssertionError):
        family_sweep("bresinsky", [4])
    with pytest.raises(AssertionError):
        family_sweep("concatenation", [(5, 3, 19, 3)])


def test_sweep_serialization():
    # the rows are plain JSON values, as concat-sweep --format json prints them
    rows = family_sweep("bresinsky", [4])
    assert json.loads(json.dumps(rows, sort_keys=True)) == rows
    assert len(rows) == 1 and rows[0]["params"] == {"q2": 4}
    text = sweep_to_text(rows)
    assert "q2=4" in text and "beta=[8, 12, 5]" in text


def test_unknown_family():
    with pytest.raises(ValueError):
        family_sweep("nope", [1])
