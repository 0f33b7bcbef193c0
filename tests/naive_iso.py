"""Isomorphism oracles for tests: a per-element backtracking search for
semigroup tables, and a search over the images of the shortest generating
sequence for groups, each deciding what core._table_iso decides a second
way.  Small inputs only: neither has a cap."""

import itertools

from biskit.groupoid import is_groupoid_iso


def semigroup_iso(s, t):
    """A table isomorphism s -> t, or None: each element takes an image
    with its profile (idempotent, zero, identity, up- and down-set sizes,
    square idempotent), and every product among assigned elements is
    checked as it is assigned."""
    if s.size != t.size:
        return None
    k = s.size

    def profile(u):
        down_sizes = sorted(len(u.down[x]) for x in range(k))
        return (
            tuple(sorted(len(u.down[e]) for e in u.idempotents)),
            down_sizes,
            u.zero is None,
        )

    if profile(s) != profile(t):
        return None

    def elem_profile(u, x):
        return (
            u.is_idempotent(x),
            x == u.zero,
            x == u.identity,
            len(u.down[x]),
            len(u.up[x]),
            u.is_idempotent(u.table[x][x]),
        )

    sprof = [elem_profile(s, x) for x in range(k)]
    tprof = [elem_profile(t, x) for x in range(k)]
    cands = [[y for y in range(k) if tprof[y] == sprof[x]] for x in range(k)]
    if any(not c for c in cands):
        return None

    img = [None] * k
    used = [False] * k
    order = sorted(range(k), key=lambda x: len(cands[x]))

    def consistent(x):
        for a in range(k):
            if img[a] is None:
                continue
            ab = s.table[a][x]
            if img[ab] is not None and t.table[img[a]][img[x]] != img[ab]:
                return False
            ba = s.table[x][a]
            if img[ba] is not None and t.table[img[x]][img[a]] != img[ba]:
                return False
        return True

    def rec(pos):
        if pos == len(order):
            return True
        x = order[pos]
        for y in cands[x]:
            if used[y]:
                continue
            img[x] = y
            used[y] = True
            if consistent(x) and rec(pos + 1):
                return True
            img[x] = None
            used[y] = False
        return False

    return tuple(img) if rec(0) else None


def element_orders(g):
    """Order of each element of a group: the powers of x counted until
    they reach the identity."""
    e = g.identities[0]
    orders = []
    for x in range(g.size):
        acc, n = x, 1
        while acc != e:
            acc = g.ptable[acc][x]
            n += 1
        orders.append(n)
    return tuple(orders)


def generating_sequence(g):
    """The first tuple of ids that generates the whole group, shortest
    first and then in lexicographic order."""
    e = g.identities[0]
    for length in range(1, g.size + 1):
        for seq in itertools.product(range(g.size), repeat=length):
            closure = {e}
            frontier = [e]
            while frontier:
                x = frontier.pop()
                for s in seq:
                    y = g.ptable[x][s]
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            if len(closure) == g.size:
                return seq
    raise AssertionError("group without generating sequence")


def group_iso(a, b):
    """An isomorphism between the groups a and b, or None: every choice of
    images of generating_sequence(a) with the same element orders, each
    extended from the identity and checked by is_groupoid_iso."""
    if a.size != b.size:
        return None
    n = a.size
    if n == 1:
        return (0,)
    orders_a, orders_b = element_orders(a), element_orders(b)
    if sorted(orders_a) != sorted(orders_b):
        return None
    gens = generating_sequence(a)
    by_order = {}
    for y in range(n):
        by_order.setdefault(orders_b[y], []).append(y)

    def build(images):
        ea, eb = a.identities[0], b.identities[0]
        phi = {ea: eb}
        frontier = [ea]
        while frontier:
            x = frontier.pop()
            for s, t in zip(gens, images):
                y = a.ptable[x][s]
                fy = b.ptable[phi[x]][t]
                if y in phi:
                    if phi[y] != fy:
                        return None
                elif fy in phi.values():
                    return None
                else:
                    phi[y] = fy
                    frontier.append(y)
        if len(phi) != n:
            return None
        out = tuple(phi[x] for x in range(n))
        return out if is_groupoid_iso(a, b, out) else None

    cand_lists = [by_order.get(orders_a[s], []) for s in gens]
    for images in itertools.product(*cand_lists):
        phi = build(images)
        if phi is not None:
            return phi
    return None
