"""The natural partial order read from its definition, the one order oracle
of the tests: a <= b exactly when a = b*d(a), with d(a) = a'*a.

It reads only the table and the inverses, never InvSgp.up or InvSgp.down,
the stored form of the order that the code under test reads.
"""


def leq(s, a, b):
    t = s.table
    return t[b][t[s.inv[a]][a]] == a
