"""The nested Schreyer module order, kept as the oracle for the integer key.

Each level's key calls its parent level's key once, down to the rank-one
key on the ideal's own free module: (i, u) beats (j, v) iff u * Lm(g_i)
beats v * Lm(g_j) in the parent module, ties going to the smaller index.
"""

from monocurves.poly import exp_add


def rank_one_key(ring_order):
    """Module order on R^1: the ring order, ties going to the smaller position."""
    ring_key = ring_order.key
    return lambda mm: (ring_key(mm[1]), -mm[0])


def schreyer_key(parent_key, leads):
    """The order induced on positions by the parent leading monomials
    leads[k] = (position, exponents)."""
    leads = tuple(leads)

    def key(mm):
        pos, u = mm
        lpos, lexp = leads[pos]
        return parent_key((lpos, exp_add(u, lexp))), -pos

    return key
