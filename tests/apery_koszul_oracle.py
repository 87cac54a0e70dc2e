"""Graded Betti numbers of k[S] by Koszul homology over the Apery set.

With m the least generator and n_1, ..., n_p the others, t^m is a
nonzerodivisor on k[S], so k[S] over k[x_0, ..., x_p] and B = k[S]/(t^m)
over k[x_1, ..., x_p] have the same graded Betti numbers (Bruns and Herzog,
Cohen-Macaulay Rings, ch. 1).  B has the basis t^w, w in Ap(S, m), and
x_j t^w is t^(w + n_j) when w + n_j lies in Ap(S, m) and 0 otherwise (then
w + n_j - m lies in S).  So beta_{i,s} is the dimension of the homology in
degree s of the Koszul complex K(x_1, ..., x_p; B), whose degree-s part in
homological degree i has one basis vector e_F t^(s - n_F) for each i-subset
F with s - n_F in Ap(S, m), and d(e_F t^w) is the sum over the t-th member
j of F of (-1)^t e_(F - j) x_j t^w (Stamate, Betti numbers for numerical
semigroup rings, 2018).  At most m 2^p degrees occur.

Ap(S, m) comes from this file's own shortest-path loop on Z/m.  It imports
nothing from ``src/`` or ``perfbench/``, and shares no code with
``betti_oracle``, which reads the same numbers off divisor complexes.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations


def apery_set(gens):
    """(m, Ap(S, m)) for m the least generator: the least element of S in
    each residue class mod m, by Dijkstra's algorithm on Z/m."""
    m = min(gens)
    least = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, r = heappop(heap)
        if d > least[r]:
            continue
        for n in gens:
            if d + n < least.get((r + n) % m, d + n + 1):
                least[(r + n) % m] = d + n
                heappush(heap, (d + n, (r + n) % m))
    if len(least) != m:
        raise ValueError(f"{gens} has gcd > 1")
    return m, set(least.values())


def rank(rows):
    """Rank over Q of a dense matrix given by its rows."""
    rows = [[Fraction(a) for a in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(r + 1, len(rows)):
            f = rows[k][c] / rows[r][c]
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def graded_betti(gens):
    """Counter of (i, s) with multiplicity beta_{i,s}, for i = 0, ..., p."""
    m, apery = apery_set(gens)
    others = [n for n in gens if n != m]
    p = len(others)
    # chains[s][i]: the i-subsets F with s - n_F in Ap(S, m), in a fixed order
    chains = defaultdict(lambda: defaultdict(list))
    for w in apery:
        for i in range(p + 1):
            for subset in combinations(range(p), i):
                chains[w + sum(others[j] for j in subset)][i].append(subset)
    out = Counter()
    for s, by_degree in chains.items():
        ranks = Counter()
        for i in range(1, p + 1):
            index = {f: k for k, f in enumerate(by_degree[i - 1])}
            rows = []
            for subset in by_degree[i]:
                row = [0] * len(index)
                for t in range(i):
                    face = subset[:t] + subset[t + 1:]
                    if face in index:
                        row[index[face]] = (-1) ** t
                rows.append(row)
            ranks[i] = rank(rows)
        for i in range(p + 1):
            b = len(by_degree[i]) - ranks[i] - ranks[i + 1]
            if b:
                out[(i, s)] = b
    return out
