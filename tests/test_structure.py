"""The Betti numbers of the pipeline against the structure theorems of
``structure_oracle``, on every window curve of embedding dimension 3 and 4,
and 5 under slow.

``betti_numbers`` takes the Koszul homology of k[S]/(t^m) over Ap(S, m),
read off the fibre minima of ``toric._fibre_minima``, so a wrong Apery
element shows in the Betti numbers; each window also pins that no curve
takes a completion on the way.  On the symmetric curves the graded Betti
numbers of ``_graded_betti`` are checked to be self-dual, as Kunz's theorem
makes them.
"""

from collections import Counter

import pytest
from structure_oracle import (frobenius_and_members, is_complete_intersection,
                              is_pseudo_symmetric, is_symmetric, structure_betti)
from windows import window_curves

from monocurves import betti_numbers
from monocurves.resolution import _graded_betti


def assert_self_dual(gens):
    """beta_{i,s} = beta_{p-i, sigma-s} with sigma = F + sum(n), for a
    symmetric semigroup: k[S] is Gorenstein, so its minimal resolution is
    self-dual (Kunz 1970)."""
    sigma = frobenius_and_members(gens)[0] + sum(gens)
    p = len(gens) - 1
    graded = _graded_betti(gens)
    assert graded == Counter({(p - i, sigma - s): b for (i, s), b in graded.items()}), gens


def check_windows(completions, curves):
    """Check every curve against the theorems of Herzog, Bresinsky, Komeda,
    Kunz and Delorme: ({(betti, class): count} over the symmetric and the
    pseudo-symmetric curves, {completions: count} over the curves, where
    betti_numbers builds no kernel)."""
    tally, steps = Counter(), Counter()
    for gens in curves:
        completions.clear()
        betti = tuple(betti_numbers(gens))
        steps[len(completions)] += 1
        expected = structure_betti(gens)
        assert expected is None or betti == expected, gens
        symmetric = is_symmetric(gens)
        assert (betti[-1] == 1) == symmetric, gens
        assert (betti[0] == len(gens) - 1) == is_complete_intersection(gens), gens
        if symmetric:
            assert_self_dual(gens)
            tally[betti, "symmetric"] += 1
        elif is_pseudo_symmetric(gens):
            tally[betti, "pseudo-symmetric"] += 1
    return tally, steps


def test_structure_theorems_three_generators(completions):
    curves = window_curves(range(3, 17), (3,))
    assert len(curves) == 493
    assert check_windows(completions, curves) == (
        {((2, 1), "symmetric"): 201, ((3, 2), "pseudo-symmetric"): 14}, {0: 493})


def test_structure_theorems_four_generators(completions):
    curves = window_curves(range(4, 11), (4,))
    assert len(curves) == 205
    assert check_windows(completions, curves) == (
        {((3, 3, 1), "symmetric"): 11, ((5, 5, 1), "symmetric"): 16,
         ((5, 6, 2), "pseudo-symmetric"): 8}, {0: 205})


@pytest.mark.slow
def test_structure_theorems_wide(completions):
    curves = window_curves(range(3, 25), (3,))
    assert len(curves) == 1747
    assert check_windows(completions, curves) == (
        {((2, 1), "symmetric"): 607, ((3, 2), "pseudo-symmetric"): 23}, {0: 1747})
    curves = window_curves(range(4, 16), (4,))
    assert len(curves) == 1325
    assert check_windows(completions, curves) == (
        {((3, 3, 1), "symmetric"): 76, ((5, 5, 1), "symmetric"): 72,
         ((5, 6, 2), "pseudo-symmetric"): 25}, {0: 1325})
    # only Kunz's and Delorme's theorems reach five generators
    curves = window_curves(range(5, 11), (5,))
    assert len(curves) == 251
    assert check_windows(completions, curves) == (
        {((6, 10, 6, 1), "symmetric"): 14, ((7, 12, 7, 1), "symmetric"): 1,
         ((9, 16, 9, 1), "symmetric"): 24, ((9, 16, 10, 2), "pseudo-symmetric"): 1,
         ((9, 17, 11, 2), "pseudo-symmetric"): 1}, {0: 251})
