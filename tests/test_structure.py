"""The Betti numbers of the pipeline against the structure theorems of
``structure_oracle``, on every window curve of embedding dimension 3 and 4,
and 5 under slow.

The windows reach both branches of ``parametrization_kernel``: kernels
certified after the saturation by x0 and kernels that fall back to
saturating by every variable.  Each window pins how many fall back, so a
certificate that accepts too much shows in the Betti numbers and one that
accepts too little in that count.
"""

from collections import Counter

import pytest
from structure_oracle import (is_complete_intersection, is_pseudo_symmetric, is_symmetric,
                              structure_betti)
from windows import window_curves

from monocurves import betti_numbers


def check_windows(saturations, curves):
    """Check every curve against the theorems of Herzog, Bresinsky, Komeda,
    Kunz and Delorme: ({(betti, class): count} over the symmetric and the
    pseudo-symmetric curves, the number of kernels that fell back)."""
    tally, fallbacks = Counter(), 0
    for gens in curves:
        saturations.clear()
        betti = tuple(betti_numbers(gens))
        # a sorted curve is certified after the steps by x0 and by x_p
        fallbacks += saturations != [0, len(gens) - 1]
        expected = structure_betti(gens)
        assert expected is None or betti == expected, gens
        symmetric = is_symmetric(gens)
        assert (betti[-1] == 1) == symmetric, gens
        assert (betti[0] == len(gens) - 1) == is_complete_intersection(gens), gens
        if symmetric:
            tally[betti, "symmetric"] += 1
        elif is_pseudo_symmetric(gens):
            tally[betti, "pseudo-symmetric"] += 1
    return tally, fallbacks


def test_structure_theorems_three_generators(saturations):
    curves = window_curves(range(3, 17), (3,))
    assert len(curves) == 493
    assert check_windows(saturations, curves) == (
        {((2, 1), "symmetric"): 201, ((3, 2), "pseudo-symmetric"): 14}, 117)


def test_structure_theorems_four_generators(saturations):
    curves = window_curves(range(4, 11), (4,))
    assert len(curves) == 205
    assert check_windows(saturations, curves) == (
        {((3, 3, 1), "symmetric"): 11, ((5, 5, 1), "symmetric"): 16,
         ((5, 6, 2), "pseudo-symmetric"): 8}, 16)


@pytest.mark.slow
def test_structure_theorems_wide(saturations):
    curves = window_curves(range(3, 25), (3,))
    assert len(curves) == 1747
    assert check_windows(saturations, curves) == (
        {((2, 1), "symmetric"): 607, ((3, 2), "pseudo-symmetric"): 23}, 485)
    curves = window_curves(range(4, 16), (4,))
    assert len(curves) == 1325
    assert check_windows(saturations, curves) == (
        {((3, 3, 1), "symmetric"): 76, ((5, 5, 1), "symmetric"): 72,
         ((5, 6, 2), "pseudo-symmetric"): 25}, 232)
    # only Kunz's and Delorme's theorems reach five generators
    curves = window_curves(range(5, 11), (5,))
    assert len(curves) == 251
    assert check_windows(saturations, curves) == (
        {((6, 10, 6, 1), "symmetric"): 14, ((7, 12, 7, 1), "symmetric"): 1,
         ((9, 16, 9, 1), "symmetric"): 24, ((9, 16, 10, 2), "pseudo-symmetric"): 1,
         ((9, 17, 11, 2), "pseudo-symmetric"): 1}, 6)
