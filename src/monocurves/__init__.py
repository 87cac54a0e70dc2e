"""Computational toolkit for affine monomial curves and numerical semigroups.

Covers the full pipeline: semigroup invariants, defining ideals of monomial
curves, Groebner bases with reduction transcripts, Schreyer syzygies and
graded free resolutions with Betti numbers, derivation-module ranks, and
verifiers for the Bresinsky and concatenation families.
"""

from .derivations import KraftData, delta_prime, derivation_rank
from .families import (BresinskyInstance, BresinskyReport, ConcatenationInstance,
                       bresinsky_generators, bresinsky_order, bresinsky_sequence,
                       concatenation_semigroup, family_sweep, sweep_to_text,
                       verify_bresinsky)
from .groebner import (ComputationLimitExceeded, GroebnerBasis, SchreyerOrder,
                       buchberger, homogenize_basis, is_groebner_basis,
                       normal_form, reduce_basis)
from .orders import MonomialOrder
from .poly import (DivisionRecord, Polynomial, divide, parse_polynomial,
                   poly_to_str, s_polynomial)
from .resolution import (GradedResolution, betti_numbers, free_resolution, minimalize,
                         schreyer_syzygies)
from .semigroup import (AperySet, NumericalSemigroup, SemigroupInvariants,
                        new_semigroup)
from .toric import (GradedIdealPresentation, MonomialCurve, defining_ideal,
                    eta_check, minimal_generators, monomial_curve,
                    parametrization_kernel)

__version__ = "0.1.0"

__all__ = [
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
