"""Seeded benchmark inputs, built from their definitions without biskit.

Every table is defined here on its own (I4 and the 18 corpus members),
relabelled by a permutation drawn from the seed, and rendered in biskit's
.ist/.grp text format.  The permutation never fixes id 0 when a table has
more than one element, so the zero of a relabelled table is never id 0.
The same seed always gives the same bytes.

Known answers for I4 come from the definition of partial one-to-one maps,
not from biskit: the zero is the empty map, the idempotents are the partial
identities, and tau(e) = (|dom e|,).
"""

from __future__ import annotations

import itertools
import random

# -- definitions --------------------------------------------------------------


def partial_injections(n):
    """All partial one-to-one maps on n points as image tuples (-1 = undefined).

    The empty map comes first, so it is id 0 before relabelling.
    """
    return [
        f
        for f in itertools.product(range(-1, n), repeat=n)
        if len({y for y in f if y >= 0}) == sum(y >= 0 for y in f)
    ]


def symmetric_inverse(n):
    """Table of I_n: row a, column b is 'a then b' as partial maps."""
    maps = partial_injections(n)
    index = {f: i for i, f in enumerate(maps)}
    table = [
        [index[tuple(b[y] if y >= 0 else -1 for y in a)] for b in maps]
        for a in maps
    ]
    return table, maps


def group_with_zero(n):
    """Cyclic group of order n on ids 1..n, with a zero at id 0."""
    return [
        [0 if a == 0 or b == 0 else (a + b - 2) % n + 1 for b in range(n + 1)]
        for a in range(n + 1)
    ]


def matrix_units(n):
    """Brandt semigroup B_n: zero plus matrix units (i, j), (i,j)(j,k) = (i,k)."""
    units = list(itertools.product(range(n), repeat=2))
    index = {u: i + 1 for i, u in enumerate(units)}
    table = [[0] * (len(units) + 1) for _ in range(len(units) + 1)]
    for (i, j), (k, l) in itertools.product(units, repeat=2):
        if j == k:
            table[index[(i, j)]][index[(k, l)]] = index[(i, l)]
    return table


def product_table(s, t):
    """Componentwise product; pair (a, b) is id a * |t| + b."""
    m = len(t)
    return [
        [s[a][c] * m + t[b][d] for c in range(len(s)) for d in range(m)]
        for a in range(len(s))
        for b in range(m)
    ]


def rook_matrices_z2(n):
    """n x n rook matrices over the order-2 group with zero.

    A matrix is a partial one-to-one map whose defined points carry a group
    label; the product composes the maps and adds the labels mod 2.
    """
    elems = []
    for f in partial_injections(n):
        defined = [x for x in range(n) if f[x] >= 0]
        for labels in itertools.product((0, 1), repeat=len(defined)):
            lab = dict(zip(defined, labels))
            elems.append(tuple((f[x], lab[x]) if f[x] >= 0 else None for x in range(n)))
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        out = []
        for entry in a:
            if entry is None or b[entry[0]] is None:
                out.append(None)
            else:
                y, g = entry
                z, h = b[y]
                out.append((z, g ^ h))
        return tuple(out)

    return [[index[mul(a, b)] for b in elems] for a in elems]


def pair_groupoid_z2(n):
    """Connected groupoid on n objects with local group Z2: arrows (a, g, b)."""
    arrows = list(itertools.product(range(n), (0, 1), range(n)))
    index = {x: i for i, x in enumerate(arrows)}
    return [
        [index[(a, g ^ h, c)] if b == b2 else None for (b2, h, c) in arrows]
        for (a, g, b) in arrows
    ]


def discrete(n):
    return [[i if i == j else None for j in range(n)] for i in range(n)]


SEMIGROUPS = {
    "trivial": lambda: [[0]],
    "chain3": lambda: [[min(a, b) for b in range(3)] for a in range(3)],
    "antichain3": lambda: [[a if a == b else 0 for b in range(3)] for a in range(3)],
    "powerset2": lambda: [[a & b for b in range(4)] for a in range(4)],
    "z2-group": lambda: [[(a + b) % 2 for b in range(2)] for a in range(2)],
    "z2zero": lambda: group_with_zero(2),
    "z3zero": lambda: group_with_zero(3),
    "b2": lambda: matrix_units(2),
    "i2": lambda: symmetric_inverse(2)[0],
    "i3": lambda: symmetric_inverse(3)[0],
    "i2xz2zero": lambda: product_table(symmetric_inverse(2)[0], group_with_zero(2)),
    "m2z2zero": lambda: rook_matrices_z2(2),
}

GROUPOIDS = {
    "trivial1": lambda: discrete(1),
    "pair2": lambda: discrete(2),
    "disc3": lambda: discrete(3),
    "z2": lambda: [[0, 1], [1, 0]],
    "z2pair2": lambda: [[0, 1, None], [1, 0, None], [None, None, 2]],
    "conn2z2": lambda: pair_groupoid_z2(2),
}

# -- relabelling and rendering ------------------------------------------------


def permutation(k, seed, name):
    """A seeded permutation of range(k) that moves id 0 whenever k > 1."""
    rng = random.Random(f"{seed}/{name}")
    perm = list(range(k))
    rng.shuffle(perm)
    if k > 1 and perm[0] == 0:
        j = rng.randrange(1, k)
        perm[0], perm[j] = perm[j], perm[0]
    return perm


def relabel(table, perm):
    """The table with every id a renamed to perm[a]; None stays undefined."""
    out = [[None] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = None if v is None else perm[v]
    return out


def render(table, comment):
    rows = (" ".join("-1" if v is None else str(v) for v in row) for row in table)
    return "\n".join([f"# {comment}", f"n {len(table)}", *rows]) + "\n"


def relabelled_file(name, table, ext, seed):
    perm = permutation(len(table), seed, name)
    text = render(relabel(table, perm), f"{name}, ids relabelled by seed {seed}")
    return f"{name}.{ext}", text, perm


# -- workloads ----------------------------------------------------------------


def i4_inputs(seed):
    """I4 as one relabelled .ist file, plus the answers analyze must report."""
    table, maps = symmetric_inverse(4)
    if len(table) != 209:
        raise AssertionError(f"I4 must have 209 elements, built {len(table)}")
    fname, text, perm = relabelled_file("i4", table, "ist", seed)
    idem = [i for i, f in enumerate(maps) if all(y in (-1, x) for x, y in enumerate(f))]
    expected = {
        "validity": True,
        "error": None,
        "zero": perm[0],
        "idempotent_count": 16,
        "atom_count": 16,
        "boolean": True,
        "boolean_failure": None,
        "fundamental": True,
        "zero_simplifying": True,
        "simple": True,
        "decomposition_signature": [[4, 1, "trivial"]],
        "type_monoid_rank": 1,
        "tau": sorted([perm[e], [sum(y >= 0 for y in maps[e])]] for e in idem),
    }
    if len(expected["tau"]) != expected["idempotent_count"]:
        raise AssertionError("I4 must have 16 partial identities")
    return {fname: text}, expected


def corpus_inputs(seed):
    """The 12 semigroup and 6 groupoid corpus tables as relabelled files."""
    files = {}
    for name, build in SEMIGROUPS.items():
        fname, text, _ = relabelled_file(name, build(), "ist", seed)
        files[fname] = text
    for name, build in GROUPOIDS.items():
        fname, text, _ = relabelled_file(name, build(), "grp", seed)
        files[fname] = text
    return files, None


def calibration_table():
    """The fixed table the calibration loop indexes: I3, unrelabelled."""
    return symmetric_inverse(3)[0]
