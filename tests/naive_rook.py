"""Rook-matrix arithmetic written position by position, the oracle of the
rook kernels: each entry and each pair of positions is read by its indices,
every product entry is joined by join_of, and every result goes through
rook_matrix again.

The matrices built are biskit's RookMatrix, so kernels and oracle can be
fed each other's results.
"""

import itertools

from biskit.errors import CertificateFailed, DimensionMismatch, NotRook
from biskit.rook import RookMatrix


def rook_violation(base, n, entries):
    s = base.base
    z = s.zero
    for i in range(n):
        for j1, j2 in itertools.combinations(range(n), 2):
            a, b = entries[i][j1], entries[i][j2]
            if s.table[s.inv[a]][b] != z:
                return ("row", i, j1, j2)
    for j in range(n):
        for i1, i2 in itertools.combinations(range(n), 2):
            a, b = entries[i1][j], entries[i2][j]
            if s.table[a][s.inv[b]] != z:
                return ("col", j, i1, i2)
    return None


def rook_matrix(base, entries):
    entries = tuple(tuple(r) for r in entries)
    n = len(entries)
    if any(len(r) != n for r in entries):
        raise DimensionMismatch("rook matrix must be square")
    bad = rook_violation(base, n, entries)
    if bad is not None:
        raise NotRook(bad)
    return RookMatrix(base, n, entries)


def rook_mul(a, b):
    if a.base is not b.base or a.n != b.n:
        raise DimensionMismatch("rook product needs one base and one size")
    base, n = a.base, a.n
    s = base.base
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [
                s.table[a.entries[i][k]][b.entries[k][j]] for k in range(n)
            ]
            terms = [t for t in terms if t != s.zero]
            for t1, t2 in itertools.combinations(terms, 2):
                if not s.orth[t1][t2]:
                    raise CertificateFailed(("terms-not-orthogonal", i, j, t1, t2))
            row.append(base.join_of(terms))
        out.append(tuple(row))
    return rook_matrix(base, out)


def rook_star(a):
    s = a.base.base
    return rook_matrix(
        a.base,
        tuple(
            tuple(s.inv[a.entries[j][i]] for j in range(a.n))
            for i in range(a.n)
        ),
    )
