"""The groupoid validation Gpd replaced, kept as a test oracle.

naive_groupoid(ptable) makes every check Gpd makes, in the same order, the
plain way: each entry on its own, the inverse of each arrow among all m
arrows, composability at all m*m pairs, and associativity at every
composable triple.  It raises the NotGroupoid Gpd must raise, or returns
(inv, d, r, identities).
"""

from biskit.errors import NotGroupoid


def naive_groupoid(ptable):
    rows = tuple(tuple(r) for r in ptable)
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise NotGroupoid("shape", i)
        for v in row:
            if v is not None and (not isinstance(v, int) or not 0 <= v < m):
                raise NotGroupoid("entry-range", (i, v))

    inv = []
    for x in range(m):
        cands = [
            y
            for y in range(m)
            if rows[x][y] is not None
            and rows[y][x] is not None
            and rows[x][rows[y][x]] == x
            and rows[y][rows[x][y]] == y
        ]
        if len(cands) != 1:
            raise NotGroupoid("unique-inverse", (x, tuple(cands)))
        inv.append(cands[0])

    d = tuple(rows[inv[x]][x] for x in range(m))
    r = tuple(rows[x][inv[x]] for x in range(m))
    identities = tuple(sorted(x for x in range(m) if d[x] == x))
    for e in identities:
        if r[e] != e or rows[e][e] != e:
            raise NotGroupoid("identity", e)
    for x in range(m):
        if d[x] not in identities or r[x] not in identities:
            raise NotGroupoid("domain-range", x)
        if rows[x][d[x]] != x or rows[r[x]][x] != x:
            raise NotGroupoid("unit-law", x)

    for x in range(m):
        for y in range(m):
            if (rows[x][y] is not None) != (d[x] == r[y]):
                raise NotGroupoid("composability", (x, y))

    # only composable triples, in lexicographic order: y ends where x
    # starts, z where y starts
    ending_at = {e: [] for e in identities}
    for y in range(m):
        ending_at[r[y]].append(y)
    for x in range(m):
        for y in ending_at[d[x]]:
            for z in ending_at[d[y]]:
                if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                    raise NotGroupoid("associativity", (x, y, z))
    return tuple(inv), d, r, identities
