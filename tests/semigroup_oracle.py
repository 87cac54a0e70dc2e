"""Test oracle for ``NumericalSemigroup``: the membership table.

The semigroup's invariants computed the way the library once computed
them, by scanning a closure table: the minimal system by one table per
generator, the Frobenius number as the last entry of the table through
m * M that is not reached, the gaps and the genus by a scan up to the
conductor, symmetry by pairing every gap a with F - a, each Apéry set
by walking its residue classes on the table, and Δ′ by scanning the gaps
a with a + n in S for every minimal generator n.  It imports nothing from
``src/`` or ``perfbench/``.
"""

from __future__ import annotations


def closure_table(gens, bound: int) -> bytearray:
    """reach[i] == 1 iff i is a nonnegative integer combination of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    for i in range(1, bound + 1):
        for g in gens:
            if g <= i and reach[i - g]:
                reach[i] = 1
                break
    return reach


def minimal_system(gens) -> tuple[int, ...]:
    # ascending scan: a generator is redundant iff the smaller kept ones
    # already represent it (larger generators cannot occur in a representation)
    kept: list[int] = []
    for g in sorted(set(gens)):
        if kept and closure_table(kept, g)[g]:
            continue
        kept.append(g)
    return tuple(kept)


def invariants(gens) -> dict:
    """Every invariant ``NumericalSemigroup`` reports, from the table."""
    mins = minimal_system(gens)
    bound = mins[0] * mins[-1]  # classical upper bound for the conductor
    reach = closure_table(mins, bound)
    frob = max((i for i in range(bound + 1) if not reach[i]), default=-1)
    gaps = frozenset(i for i in range(frob + 1) if not reach[i])

    def contains(x):
        return x >= 0 and (x > frob or bool(reach[x]))

    def apery(a):
        elems = []
        for r in range(a):
            s = r
            while not contains(s):
                s += a
            elems.append(s)
        return frozenset(elems)

    return {
        "minimal_generators": mins,
        "multiplicity": mins[0],
        "embedding_dimension": len(mins),
        "frobenius": frob,
        "conductor": frob + 1,
        "gaps": gaps,
        "genus": len(gaps),
        # N itself (F = -1, no gaps) is symmetric
        "symmetric": frob % 2 == 1 and all(contains(frob - a) for a in gaps),
        "delta_prime": frozenset(a for a in gaps if all(contains(a + n) for n in mins)),
        "contains": contains,
        "apery": apery,
    }
