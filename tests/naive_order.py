"""The natural partial order read from its definition, the one order oracle
of the tests: a <= b exactly when a = b*d(a), with d(a) = a'*a.

leq reads only the table and the inverses, never InvSgp.up or InvSgp.down,
the stored form of the order that the code under test reads.

naive_structure keeps the derivation InvSgp replaced: inverses by the
all-pairs scan, and the up-set of a read down column d(a).  It raises the
NotInverse or IdempotentsDontCommute that scan raised, with its witness.
"""

import itertools

from biskit.errors import IdempotentsDontCommute, NotInverse


def leq(s, a, b):
    t = s.table
    return t[b][t[s.inv[a]][a]] == a


def naive_structure(table):
    """inv, d, r, up, down, atoms, zero and identity of an associative
    table of ids, by the all-pairs scans."""
    t = tuple(map(tuple, table))
    ids = range(len(t))
    inv = []
    for a in ids:
        cands = tuple(b for b in ids if t[t[a][b]][a] == a and t[t[b][a]][b] == b)
        if len(cands) != 1:
            raise NotInverse(a, cands)
        inv.append(cands[0])
    idem = [e for e in ids if t[e][e] == e]
    for e, f in itertools.combinations(idem, 2):
        if t[e][f] != t[f][e]:
            raise IdempotentsDontCommute((e, f))
    zero = next((z for z in idem if all(t[z][x] == z == t[x][z] for x in ids)), None)
    identity = next((e for e in idem if all(t[e][x] == x == t[x][e] for x in ids)), None)
    d = tuple(t[inv[a]][a] for a in ids)
    r = tuple(t[a][inv[a]] for a in ids)
    cols = tuple(zip(*t))
    up = tuple(tuple(b for b in ids if cols[d[a]][b] == a) for a in ids)
    down = tuple(tuple(a for a in ids if b in up[a]) for b in ids)
    atoms = None
    if zero is not None:
        atoms = tuple(a for a in ids if a != zero and set(down[a]) == {zero, a})
    return {
        "inv": tuple(inv),
        "d": d,
        "r": r,
        "up": up,
        "down": down,
        "atoms": atoms,
        "zero": zero,
        "identity": identity,
    }
