"""Graded Betti numbers of k[S] from the squarefree divisor complexes.

For s in S, the squarefree divisor complex Delta_s has the vertices
0, ..., p and a face F whenever s - sum_{j in F} n_j lies in S.  Then
beta_{i,s} = dim_Q H~_{i-1}(Delta_s) (Campillo and Marijuan 1991; Briales,
Campillo, Marijuan and Pison 1998), which needs only membership in S:
nothing here uses a polynomial, an order or a resolution.  Every degree
with a nonzero Betti number lies at most F(S) + sum(n), so the scan stops
there.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations


def membership(gens, upto):
    """member[x] is True exactly when x in S, for 0 <= x <= upto."""
    member = [False] * (upto + 1)
    member[0] = True
    for x in range(1, upto + 1):
        member[x] = any(x >= n and member[x - n] for n in gens)
    return member


def frobenius(gens):
    """The largest integer outside S (-1 when S is all of N)."""
    m = min(gens)
    member = [True]
    run, x, last_gap = 1, 0, -1
    while run < m:
        x += 1
        member.append(any(x >= n and member[x - n] for n in gens))
        if member[x]:
            run += 1
        else:
            run, last_gap = 0, x
    return last_gap


def scan_bound(gens):
    return frobenius(gens) + sum(gens)


def rank(rows):
    """Rank over Q of a matrix given as a list of rows, by Gaussian elimination."""
    rows = [[Fraction(a) for a in row] for row in rows if any(row)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def reduced_homology(faces, nverts):
    """Dimensions of H~_k for k = -1, ..., nverts - 2 of a complex on the
    vertices 0, ..., nverts - 1, given all its faces as sorted tuples (the
    empty face included)."""
    by_dim = {k: sorted(f for f in faces if len(f) == k + 1) for k in range(-1, nverts)}
    index = {k: {f: i for i, f in enumerate(fs)} for k, fs in by_dim.items()}

    def boundary_rank(k):
        # d_k : C_k -> C_{k-1}, one row per k-face
        if k < 0 or not by_dim[k] or not by_dim[k - 1]:
            return 0
        rows = []
        for f in by_dim[k]:
            row = [0] * len(by_dim[k - 1])
            for t in range(len(f)):
                row[index[k - 1][f[:t] + f[t + 1:]]] = (-1) ** t
            rows.append(row)
        return rank(rows)

    return [len(by_dim[k]) - boundary_rank(k) - boundary_rank(k + 1)
            for k in range(-1, nverts - 1)]


def graded_betti(gens):
    """Counter of (i, s) with multiplicity beta_{i,s}, for i = 0, ..., p."""
    bound = scan_bound(gens)
    member = membership(gens, bound)
    vertices = range(len(gens))
    out = Counter()
    for s in range(bound + 1):
        if not member[s]:
            continue
        faces = [f for k in range(len(gens) + 1) for f in combinations(vertices, k)
                 if sum(gens[j] for j in f) <= s and member[s - sum(gens[j] for j in f)]]
        # beta_{i,s} = dim H~_{i-1}: entry i of the list for k = -1, ...
        for i, b in enumerate(reduced_homology(faces, len(gens))):
            if b:
                out[(i, s)] += b
    return out
