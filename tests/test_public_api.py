"""The package's public names: the pinned list, and a README line for each."""

import re
from pathlib import Path

import monocurves

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "AperySet", "BresinskyInstance", "BresinskyReport", "ComputationLimitExceeded",
    "ConcatenationInstance", "DivisionRecord", "GradedIdealPresentation",
    "GradedResolution", "GroebnerBasis", "KraftData", "MonomialCurve", "MonomialOrder",
    "NumericalSemigroup", "Polynomial", "SchreyerOrder", "SemigroupInvariants",
    "betti_numbers", "bresinsky_generators", "bresinsky_order", "bresinsky_sequence",
    "buchberger", "concatenation_semigroup", "defining_ideal", "delta_prime",
    "derivation_rank", "divide", "eta_check", "family_sweep", "free_resolution",
    "homogenize_basis", "is_groebner_basis", "minimal_generators", "minimalize",
    "monomial_curve", "new_semigroup", "normal_form", "parametrization_kernel",
    "parse_polynomial", "poly_to_str", "reduce_basis", "s_polynomial",
    "schreyer_syzygies", "sweep_to_text", "verify_bresinsky",
]


def test_public_names_are_pinned():
    assert sorted(monocurves.__all__) == PUBLIC


def test_public_names_resolve():
    assert [name for name in PUBLIC if not hasattr(monocurves, name)] == []


def test_public_names_have_a_readme_line():
    # each name appears in README.md as a code span of its own
    spans = set(re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")))
    assert [name for name in PUBLIC if name not in spans] == []
