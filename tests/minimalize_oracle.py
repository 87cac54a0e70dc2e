"""The rescanning minimalization, kept as the oracle for ``minimalize``.

After each cancellation it scans every differential again from the start,
and it also carries the row and column operations onto the two
neighbouring differentials and onto the pivot's column before deleting
them.  The Schur-complement ``minimalize`` must give the same resolution.
"""

from monocurves.poly import Polynomial, _inverse
from monocurves.resolution import GradedResolution, _constant_value


def minimalize(res: GradedResolution) -> GradedResolution:
    """Cancel unit entries to extract the minimal resolution.

    Each nonzero constant entry spans a trivial direct summand; clearing its
    row and column with exact row/column operations (mirrored onto the
    neighbouring differentials) and deleting both basis vectors splits the
    summand off without changing homology.  Entries are processed one at a
    time in row-major scan order for reproducibility.
    """
    diffs = [[row[:] for row in mat] for mat in res.differentials]
    shifts = [list(s) for s in res.shifts]
    zero = Polynomial.zero(res.variables)
    while True:
        found = None
        for k, mat in enumerate(diffs):
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if _constant_value(entry) is not None:
                        found = (k, r, c)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break
        k, r0, c0 = found
        mat = diffs[k]
        u = _constant_value(mat[r0][c0])
        inv = _inverse(u)
        lam = {c: mat[r0][c].scale(inv) for c in range(len(mat[r0]))
               if c != c0 and mat[r0][c]}
        for c, l in lam.items():
            for r in range(len(mat)):
                if mat[r][c0]:
                    mat[r][c] = mat[r][c] - l * mat[r][c0]
        if k + 1 < len(diffs) and lam:
            nxt = diffs[k + 1]
            for c, l in lam.items():
                for cc in range(len(nxt[c])):
                    if nxt[c][cc]:
                        nxt[c0][cc] = nxt[c0][cc] + l * nxt[c][cc]
        mu = {r: mat[r][c0].scale(inv) for r in range(len(mat))
              if r != r0 and mat[r][c0]}
        for r in mu:
            mat[r][c0] = zero
        if k - 1 >= 0 and mu:
            prv = diffs[k - 1]
            for r, m in mu.items():
                for q in range(len(prv)):
                    if prv[q][r]:
                        prv[q][r0] = prv[q][r0] + m * prv[q][r]
        diffs[k] = [[row[c] for c in range(len(row)) if c != c0]
                    for r, row in enumerate(mat) if r != r0]
        if k + 1 < len(diffs):
            diffs[k + 1] = [row for r, row in enumerate(diffs[k + 1]) if r != c0]
        if k - 1 >= 0:
            diffs[k - 1] = [[row[c] for c in range(len(row)) if c != r0]
                            for row in diffs[k - 1]]
        del shifts[k + 1][c0]
        del shifts[k][r0]
    while len(shifts) > 1 and not shifts[-1]:
        shifts.pop()
        diffs.pop()
    ranks = [len(s) for s in shifts]
    return GradedResolution(ranks, shifts, diffs, res.variables, res.weights,
                            minimal=True)
