"""The kernels of biskit's views read by rows with itemgetter: the oracles
each kernel is compared against, in both forms of its view
(tests/test_byte_kernels.py).

Each reads the tables themselves, not a view, and decides what its kernel
decides: Light's test, InvSgp.compat_partners, the distributivity pass of
check_boolean, law fish's generator rows, law eggs' E4, law
restricted-product and law setminus-4's checks.
"""

import itertools
from operator import contains, eq, getitem, itemgetter

from biskit.core import _on_generators, _picker, _positions
from biskit.laws import _down_set_products, _down_sets_multiply


def light_test_by_rows(rows, gens):
    """core._light_test on the rows: row x*g against row x read at row g."""
    for g in gens:
        x_g = map(rows.__getitem__, map(itemgetter(g), rows))  # rows of x*g
        if not all(map(eq, x_g, map(_picker(rows[g]), rows))):
            return False
    return True


def compat_partners_by_rows(t, inv, idempotents):
    """InvSgp.compat_partners: only the b where row a' holds an idempotent
    are read at row a, at b'."""
    is_idem = set(idempotents).__contains__
    ids = range(len(t))
    return tuple(
        tuple(
            b
            for b in itertools.compress(ids, map(is_idem, t[ia]))
            if is_idem(ra[inv[b]])
        )
        for ra, ia in zip(t, inv)
    )


def joins_kept_by_rows(jt, per_a):
    """boolean._joins_kept: one itemgetter read of the join row per a and
    side; per_a holds the partners and joins as tuples or bytes."""
    per_a = [(a, _picker(partners), _picker(joins)) for a, partners, joins in per_a]

    def holds(side):
        return all(
            _picker(at_partners(side))(jt[side[a]]) == at_joins(side)
            for a, at_partners, at_joins in per_a
        )

    return holds


def fish_kept_by_rows(s):
    """laws._fish_kept: per a, one picker of the b with a meet and one of
    their meets."""
    t, mt = s.table, s.meet_table
    met = []  # (the b with a meet, their meets), as pickers, per a
    for row in mt:
        bs = [b for b, m in enumerate(row) if m is not None]
        met.append((_picker(bs), _picker([row[b] for b in bs])))

    def holds(g):
        tg = t[g]
        return all(
            at_meets(tg) == tuple(map(mt[ga].__getitem__, at_b(tg)))
            for ga, (at_b, at_meets) in zip(tg, met)  # ga = g*a
        )

    return holds


def joins_extend(jt, rows, splits):
    """laws._meets_extend on rows, the meet table: rows[x] is the entrywise
    join (jt) of rows[y] and rows[α] for every split (x, y, α)."""
    return all(
        tuple(map(getitem, map(jt.__getitem__, rows[y]), rows[a])) == rows[x]
        for x, y, a in splits
    )


def restricted_product_by_rows(s):
    """Law restricted-product by rows: the first witness (a, b), or
    (a, b, "down-set-product"), or None.

    The first part is read a row a at a time, with the b grouped by
    e = r(b): a2 = a*e is one id per group, and b2 = f*b depends on a
    through f = d(a) only.  So for each f, whether every f*b <= b, r(b2) for
    each group (-1 when it is not one id) and the pickers of each group's
    b2 are found once.  A row that fails is scanned by b for the witness.
    The down-set part is decided on generators b (_on_generators); when the
    pass declines every pair is scanned for the witness.
    """
    t, down, d, r = s.table, s.down, s.d, s.r
    ids, es = range(s.size), sorted(set(r))
    at_e = [_picker(_positions(r, e)) for e in es]  # a row at the b with r(b) = e
    per_f = {}
    for f in set(d):
        b2s = [at(t[f]) for at in at_e]
        r_b2 = ({r[b2] for b2 in group} for group in b2s)
        per_f[f] = (
            all(map(contains, down, t[f])),
            tuple(rs.pop() if len(rs) == 1 else -1 for rs in r_b2),
            list(map(_picker, b2s)),
        )
    for a, row in enumerate(t):
        below, r_b2, at_b2 = per_f[d[a]]
        a2s = [row[e] for e in es]
        if not (
            below
            and all(map(down[a].__contains__, a2s))
            and tuple(map(d.__getitem__, a2s)) == r_b2
            and all(at(t[a2]) == at_b(row) for at, at_b, a2 in zip(at_b2, at_e, a2s))
        ):
            for b in ids:
                a2, b2 = row[r[b]], t[d[a]][b]
                ordered = a2 in down[a] and b2 in down[b]
                if not (ordered and d[a2] == r[b2] and t[a2][b2] == row[b]):
                    return (a, b)
    multiplies = _down_sets_multiply(s)
    if _on_generators(s, lambda b: all(multiplies(a, b) for a in ids)):
        return None
    return _down_set_products(s, multiplies)


def setminus_4_by_rows(bs, pairs, setminus_2):
    """laws._setminus_4_on_generators read by rows: every check, in order.
    A relative complement is read off its row of bs.rc_rows, None where
    the row has no such key."""
    if not setminus_2:
        return "setminus-2"
    s = bs.base
    tab, rcs, jt, d = s.table, bs.rc_rows, s.join_table, s.d
    z, one = s.zero, s.identity
    if z is None or any(
        z not in s.down[u] or rcs[u].get(z) != u or jt[u][z] != u for u in range(s.size)
    ):
        return "F1"
    xs, ts = (list(ids) for ids in zip(*pairs))
    sts = list(map(dict.get, map(rcs.__getitem__, xs), ts))  # x-t, each pair
    x_rows, st_rows = list(map(tab.__getitem__, xs)), list(map(tab.__getitem__, sts))
    if list(map(getitem, x_rows, map(d.__getitem__, ts))) != ts:
        return "F2"
    for f in set(map(d.__getitem__, ts)):
        c = rcs[one].get(f) if one is not None else None
        if c is None:
            return "H"
        xf_rows = map(jt.__getitem__, map(itemgetter(f), x_rows))  # row x*f
        joins = list(map(getitem, xf_rows, ts))
        if None in joins or list(map(itemgetter(c), st_rows)) != list(
            map(dict.get, map(rcs.__getitem__, xs), joins)
        ):
            return "H"
    return None
