"""Exact checkers that the tests apply to the package's values.

The substitution oracle evaluates a polynomial under a ring map by
expanding every power; ``eta_check`` compares weighted degrees instead.
The resolution checks recompute d_k * d_(k+1) and the
degree of every entry from the dense matrices; ``division_holds`` rebuilds a
dividend from a ``DivisionRecord``.  None of them is on the package's path.
"""

from typing import Sequence

from monocurves import DivisionRecord, GradedResolution, MonomialOrder, Polynomial
from monocurves.resolution import _constant_value


# ---- the substitution oracle ------------------------------------------------

def power(f: Polynomial, e: int) -> Polynomial:
    """f**e by repeated squaring, e >= 0 (ValueError otherwise)."""
    if e < 0:
        raise ValueError("negative exponent")
    result = Polynomial.constant(f.variables, 1)
    base = f
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


def substitute(f: Polynomial, images: Sequence[Polynomial]) -> Polynomial:
    """The ring map sending variable i to images[i]; images share one ambient."""
    if len(images) != len(f.variables):
        raise ValueError("need one image per variable")
    target = images[0].variables
    for im in images:
        if im.variables != target:
            raise ValueError("images live in different ambients")
    powers: dict[tuple[int, int], Polynomial] = {}

    def image_power(i, e):
        if (i, e) not in powers:
            powers[(i, e)] = power(images[i], e)
        return powers[(i, e)]

    total = Polynomial.zero(target)
    for exp, c in f.terms.items():
        term = Polynomial.constant(target, c)
        for i, e in enumerate(exp):
            if e:
                term = term * image_power(i, e)
        total = total + term
    return total


# ---- graded resolutions -------------------------------------------------------

def is_complex(res: GradedResolution) -> bool:
    """Exact check that consecutive differentials compose to zero."""
    for k in range(len(res.differentials) - 1):
        a = res.differentials[k]
        b = res.differentials[k + 1]
        for r in range(res.ranks[k]):
            for c in range(res.ranks[k + 2]):
                acc = Polynomial.zero(res.variables)
                for m in range(res.ranks[k + 1]):
                    acc = acc + a[r][m] * b[m][c]
                if acc:
                    return False
    return True


def is_homogeneous(res: GradedResolution) -> bool:
    """Each entry (r, c) of d_k is zero or homogeneous of degree
    shifts[k+1][c] - shifts[k][r]."""
    for k, mat in enumerate(res.differentials):
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if not entry:
                    continue
                want = res.shifts[k + 1][c] - res.shifts[k][r]
                if (not entry.is_weighted_homogeneous(res.weights)
                        or entry.weighted_degree(res.weights) != want):
                    return False
    return True


def has_constant_entries(res: GradedResolution) -> bool:
    return any(_constant_value(e) is not None
               for mat in res.differentials for row in mat for e in row)


# ---- division records -----------------------------------------------------------

def division_holds(record: DivisionRecord, dividend: Polynomial,
                   divisors: Sequence[Polynomial], order: MonomialOrder) -> bool:
    """dividend = sum(quotients[i] * divisors[i]) + remainder, and no product
    quotients[i] * divisors[i] leads above the dividend."""
    total = record.remainder
    for q, g in zip(record.quotients, divisors):
        total = total + q * g
    if total != dividend:
        return False
    if not dividend:
        return True
    top = order.key(dividend.leading(order)[0])
    for q, g in zip(record.quotients, divisors):
        prod = q * g
        if prod and order.key(prod.leading(order)[0]) > top:
            return False
    return True
