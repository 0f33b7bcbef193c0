"""The witness scans that core._translation_failure replaced, kept as the
oracles of its callers: each takes the tuples of its relation in order,
then every u, left before right, and returns the first failure in its own
witness format.

_distributivity_failure keeps its pair prefilter: a pair a <= b whose
joined rows and columns are row and column a v b is not scanned by c.
naive_additive_ideal is verify_additive_ideal's witness from _ideal_scan
and the joins.  refuse_full_scans makes every such scan, and K's table,
raise where biskit reads it, so a valid table must decide without them.
"""

import itertools
from bisect import bisect_right

import biskit.boolean
import biskit.laws
from biskit.boolean import KOfGroupoid


def _distributivity_failure(s):
    """check_boolean's first distributivity failure over compatible pairs
    a <= b: ("left-distributivity", c, a, b) or ("right-distributivity", a,
    b, c), or None."""
    t, jt = s.table, s.join_table
    cols = tuple(zip(*t))
    for a, partners in enumerate(s.compat_partners):
        for b in partners[bisect_right(partners, a - 1) :]:  # the partners b >= a
            j = jt[a][b]
            if tuple([jt[x][y] for x, y in zip(cols[a], cols[b])]) == cols[j] and (
                tuple([jt[x][y] for x, y in zip(t[a], t[b])]) == t[j]
            ):
                continue
            for c in range(s.size):
                left = jt[t[c][a]][t[c][b]]
                if left is None or left != t[c][j]:
                    return ("left-distributivity", c, a, b)
                right = jt[t[a][c]][t[b][c]]
                if right is None or right != t[j][c]:
                    return ("right-distributivity", a, b, c)
    return None


def _ideal_scan(t, subset):
    """The first ("left-ideal", x, a) or ("right-ideal", a, x), for the
    members a in subset's order and each x, with x*a or a*x outside it."""
    for a in subset:
        for x in range(len(t)):
            if t[x][a] not in subset:
                return ("left-ideal", x, a)
            if t[a][x] not in subset:
                return ("right-ideal", a, x)
    return None


def naive_additive_ideal(bs, subset):
    """verify_additive_ideal's witness from the plain scans: the zero, the
    products by _ideal_scan, then the joins of members a < b."""
    s = bs.base
    if s.zero not in subset:
        return ("missing-zero",)
    bad = _ideal_scan(s.table, subset)
    if bad is not None:
        return bad
    for a, b in itertools.combinations(sorted(subset), 2):
        if b in s.compat_partners[a] and s.join_table[a][b] not in subset:
            return ("join", a, b)
    return None


def _oj_scan(s):
    """law oj on every orthogonal pair (a, b), then every u: the first
    (a, b, u, side) that fails, or None."""
    for a in range(s.size):
        for b in sorted(s.orth[a]):
            for u in range(s.size):
                if s.table[u][b] not in s.orth[s.table[u][a]]:
                    return (a, b, u, "left")
                if s.table[b][u] not in s.orth[s.table[a][u]]:
                    return (a, b, u, "right")
    return None


def _setminus_2_scan(bs):
    """law setminus-2 on every down-pair (x, t), then every a: the first
    (a, x, t, side) that fails, or None.  NotBelow from bs.rc."""
    s = bs.base
    for x in range(s.size):
        for t in s.down[x]:
            w = bs.rc(x, t)
            for a in range(s.size):
                if s.table[a][w] != bs.rc(s.table[a][x], s.table[a][t]):
                    return (a, x, t, "left")
                if s.table[w][a] != bs.rc(s.table[x][a], s.table[t][a]):
                    return (a, x, t, "right")
    return None


def _definition_scan(s):
    """law definition on every compatible pair (a, b), then every u: the
    first witness, or None."""
    for a in range(s.size):
        for b in s.compat_partners[a]:
            j = s.join_table[a][b]
            if j is None:
                return (a, b, "missing-join")
            for u in range(s.size):
                if s.join_table[s.table[u][a]][s.table[u][b]] != s.table[u][j]:
                    return (u, a, b, "left")
                if s.join_table[s.table[a][u]][s.table[b][u]] != s.table[j][u]:
                    return (a, b, u, "right")
    return None


def refuse_full_scans(mp):
    """Make the slow paths raise when they run: the witness scan of
    check_boolean's and the ideals' generator passes, the conjugation by
    every id that idempotent_ideals falls back to, the scans the laws fall
    back to when a pass declines, and K's table."""

    def refuse(what):
        def refused(*args):
            raise AssertionError(f"{what} ran")

        return refused

    mp.setattr(biskit.boolean, "_translation_failure", refuse("translation scan"))
    for scan in (
        "_down_set_products",
        "_fish_scan",
        "_translation_failure",  # the scans of laws oj, setminus-2 and definition
        "_setminus_4_scan",
        "_eggs_scan",
        "orthogonalize",  # law orthogonal's fallback, one family at a time
        "filter_groupoid",  # the setwise filter scan of carre and discrete-topology
    ):
        mp.setattr(biskit.laws, scan, refuse(scan))
    mp.setattr(KOfGroupoid, "table", property(refuse("KOfGroupoid.table")))
    conjugating = biskit.boolean._conjugating_generators  # None: every id is read
    mp.setattr(
        biskit.boolean,
        "_conjugating_generators",
        lambda s: conjugating(s) or refuse("conjugation scan")(),
    )
