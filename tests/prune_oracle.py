"""The dense prune of a Schreyer level, kept as the oracle for the sparse one.

Each candidate is a tuple of ``Polynomial`` coordinates.  Its leading
monomial is ranked with ``leading`` under the level's module order, the
element is made monic, and among equal leading monomials the first by
``tie_key`` is kept.  ``resolution._prune_and_sort`` reads the leads off the
S-pairs instead and builds the tie key only inside groups of equal leads;
both must keep the same elements in the same order.
"""

from monocurves.poly import _inverse, exp_divides


def leading(coords, key):
    """(position, exponents, coefficient) of the largest module monomial of
    the coordinate tuple under the module order ``key``."""
    best = max(((pos, exp) for pos, poly in enumerate(coords) for exp in poly.terms),
               key=key, default=None)
    if best is None:
        raise ValueError("zero element has no leading term")
    pos, exp = best
    return pos, exp, coords[pos].terms[exp]


def tie_key(coords):
    return tuple(p.sort_key() for p in coords)


def prune_and_sort(elements, key):
    """(kept monic coordinate tuples, their leading monomials (pos, exp)) in
    the arrangement of the length bound: by position, then by descending
    plain-lex leading exponent."""
    info = []
    for s in elements:
        pos, exp, c = leading(s, key)
        if c != 1:
            s = tuple(p.scale(_inverse(c)) for p in s)
        info.append(((pos, exp), s))
    info.sort(key=lambda it: (it[0][0], sum(it[0][1]), it[0][1], tie_key(it[1])))
    kept: list[tuple] = []
    for (pos, exp), s in info:
        if not any(kp == pos and exp_divides(ke, exp) for (kp, ke), _ in kept):
            kept.append(((pos, exp), s))
    kept.sort(key=lambda it: (it[0][0], tuple(-e for e in it[0][1])))
    return [s for _, s in kept], [lead for lead, _ in kept]
