"""Seeded corpora for the three workloads.

Inputs are made with the benchmark's own integer arithmetic (``oracle``);
the program under test only ever sees the generated generator lists.  Each
corpus has a fixed size and contents that depend only on the seed.  No
curve or semigroup appears twice in a corpus, so a cache held across
operations cannot make later ones free.
"""

from __future__ import annotations

import itertools
import random

from oracle import facts, gcd_all, is_minimal_system

# ---- pools of curves with recorded reference outputs -------------------------


def window_curves(multiplicities, dims) -> list[tuple[int, ...]]:
    """Minimal gcd-1 sequences m < n_1 < ... < n_{e-1} < 2m.

    Every generator lies below 2m, so no one is a sum of two others; the
    minimality test is still run as a guard.
    """
    out = []
    for m in multiplicities:
        for e in dims:
            for rest in itertools.combinations(range(m + 1, 2 * m), e - 1):
                gens = (m,) + rest
                if gcd_all(gens) == 1 and is_minimal_system(gens):
                    out.append(gens)
    return out


def curve_pool() -> list[tuple[int, ...]]:
    """Embedding dimension 4-6, multiplicity at most 10."""
    return window_curves(range(4, 11), (4, 5, 6))


def betti_pool() -> list[tuple[int, ...]]:
    """Kernel-heavy 4-generated (m = 12) and 5-generated (m = 10) curves."""
    return window_curves((12,), (4,)) + window_curves((10,), (5,))


def cost_bands(ranked, bands) -> list[list[tuple[int, ...]]]:
    """Slices of a cost-ranked pool between the given quantiles."""
    n = len(ranked)
    return [ranked[round(lo * n):round(hi * n)] for lo, hi in bands]


def pinned_and_drawn(pool, cost, pinned, bands, rng: random.Random) -> list:
    """The pool's entries at the ``pinned`` cost quantiles, then one seeded
    entry from each cost band, in seeded order."""
    ranked = sorted(pool, key=lambda g: (cost[g], g))
    chosen = [ranked[round(q * (len(ranked) - 1))] for q in pinned]
    chosen += [rng.choice(band) for band in cost_bands(ranked, bands)]
    return rng.sample(chosen, len(chosen))


# ---- workload corpora -------------------------------------------------------

# q2 = 6 is left out: its one command takes 12 s, too long to repeat often
# enough in a run to give a steady time on a shared machine
BRESINSKY_Q2 = (4,)
# The latency percentiles of a corpus of a dozen operations move from seed to
# seed by more than the machine's noise unless they fall on the same
# operations, so each corpus pins the pool's entries at some cost quantiles
# and draws the rest from cost bands that lie clear of them.
#
# betti commands (pool of both generator counts): the pool's median, 65th-
# and 80th-percentile commands fall at the corpus median (the 4th of 7) and
# below --q2 4 at its 90th percentile; three seeded ones from between the
# 20th and 35th percentiles lie below them, in a band narrow enough in cost
# that the seed moves wall_s by little
BETTI_PINNED = (0.5, 0.65, 0.8)
BETTI_BANDS = ((.2, .25), (.25, .3), (.3, .35))
# curves: the pool's median, 78th- and 86th-percentile curves fall at the
# corpus median (the 6th of 11), 90th percentile (the 10th) and maximum;
# five seeded curves lie below the median and three between it and the
# 78th.  The costliest 14 % of the pool, 1.1-2.6 s a curve, never enter:
# single operations that long moved by 15 % from run to run
CURVE_PINNED = (0.5, 0.78, 0.86)
CURVE_BANDS = ((0, .08), (.08, .16), (.16, .24), (.24, .32), (.32, .4),
               (.6, .64), (.64, .68), (.68, .72))

SMALL_SEMIGROUPS = 2000   # 2-5 generators, each at most 60
# <1001,1003,1013> is the costliest operation of every corpus.  <3001,3007,3011>
# is left out: its 9-million-entry table made its time move by a fifth from
# run to run even in reference seconds
FIXED_LARGE = ((1001, 1003, 1013),)
LARGE_BANDS = tuple(range(300, 1000, 100))   # one per multiplicity band of width 100
# cap on genus / m^2 per embedding dimension; it cuts the long tail of
# near-arithmetic sequences such as <m, m+1, m+2>, whose gap lists are
# several times longer than the rest of the band's
LARGE_GENUS_CAP = {3: 0.06, 4: 0.035}
LARGE_OFFSETS = 30        # generators lie in (m, m + 30]


def bresinsky_corpus(seed: int, cost) -> list:
    rng = random.Random(seed)
    bettis = pinned_and_drawn(betti_pool(), cost, BETTI_PINNED, BETTI_BANDS, rng)
    corpus = [("bresinsky", q2) for q2 in BRESINSKY_Q2] + [("betti", g) for g in bettis]
    return rng.sample(corpus, len(corpus))


def curves_corpus(seed: int, cost) -> list:
    rng = random.Random(seed)
    return [("curve", g)
            for g in pinned_and_drawn(curve_pool(), cost, CURVE_PINNED, CURVE_BANDS, rng)]


def _small_semigroup(rng: random.Random, seen: set) -> tuple[int, ...]:
    while True:
        gens = tuple(sorted(rng.sample(range(2, 61), rng.randint(2, 5))))
        if gens not in seen and gcd_all(gens) == 1 and is_minimal_system(gens):
            seen.add(gens)
            return gens


def _large_semigroup(rng: random.Random, seen: set, band: int, e: int):
    while True:
        m = rng.randrange(band, band + 100)
        gens = (m,) + tuple(m + o for o in sorted(rng.sample(range(1, LARGE_OFFSETS + 1), e - 1)))
        if gens in seen or gcd_all(gens) != 1:
            continue
        if facts(gens).genus <= LARGE_GENUS_CAP[e] * m * m:
            seen.add(gens)
            return gens


def semigroups_corpus(seed: int) -> list:
    rng = random.Random(seed)
    seen: set = set(FIXED_LARGE)
    large = list(FIXED_LARGE)
    for k, band in enumerate(LARGE_BANDS):
        large.append(_large_semigroup(rng, seen, band, 3 + k % 2))
    small = [_small_semigroup(rng, seen) for _ in range(SMALL_SEMIGROUPS)]
    return [("semigroup", g) for g in rng.sample(small + large, len(small) + len(large))]
