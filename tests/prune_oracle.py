"""The dense prune of a Schreyer level, kept as the oracle for the sparse one.

Each candidate is a ``FreeModuleElement``.  Its leading monomial is ranked
with ``FreeModuleElement.leading`` under the level's module order, the
element is made monic, and among equal leading monomials the first by
``FreeModuleElement.sort_key`` is kept.  ``resolution._prune_and_sort``
reads the leads off the S-pairs instead and builds the tie key only inside
groups of equal leads; both must keep the same elements in the same order.
"""

from monocurves.poly import _inverse, exp_divides
from monocurves.resolution import FreeModuleElement


def prune_and_sort(elements, key):
    """(kept monic elements, their leading monomials (pos, exp)) in the
    arrangement of the length bound: by position, then by descending
    plain-lex leading exponent."""
    info = []
    for s in elements:
        pos, exp, c = s.leading(key)
        if c != 1:
            s = FreeModuleElement([p.scale(_inverse(c)) for p in s.coordinates], s.shifts)
        info.append(((pos, exp), s))
    info.sort(key=lambda it: (it[0][0], sum(it[0][1]), it[0][1], it[1].sort_key()))
    kept: list[tuple] = []
    for (pos, exp), s in info:
        if not any(kp == pos and exp_divides(ke, exp) for (kp, ke), _ in kept):
            kept.append(((pos, exp), s))
    kept.sort(key=lambda it: (it[0][0], tuple(-e for e in it[0][1])))
    return [s for _, s in kept], [lead for lead, _ in kept]
