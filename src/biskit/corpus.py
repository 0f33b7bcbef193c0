"""Bundled worked examples.

Every table is produced by a builder here and also shipped as a data file;
a test regenerates the files and compares bytes.  Convention: when a zero
element exists it has id 0 (adjoin_zero appends instead, so corpus tables
for groups with zero are written out directly).
"""

from __future__ import annotations

import itertools
from importlib.resources import files

from .core import InvSgp, table_product
from .groupoid import Gpd


def trivial_table():
    return [[0]]


def chain3_table():
    """Three idempotents in a line; meets exist, joins mostly don't."""
    return [[min(i, j) for j in range(3)] for i in range(3)]


def antichain3_table():
    """Zero plus two orthogonal idempotents."""
    return [[i if i == j else 0 for j in range(3)] for i in range(3)]


def powerset2_table():
    """Subsets of a 2-set under intersection, ids are bitmasks."""
    return [[i & j for j in range(4)] for i in range(4)]


def z2_table():
    return [[0, 1], [1, 0]]


def z2zero_table():
    """Order-2 group with a zero put first."""
    return [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def z3zero_table():
    """Order-3 group with a zero put first."""
    return [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]


def b2_table():
    """Five elements: zero, two orthogonal idempotents, and the two
    translations between them.  The join of the idempotents is missing."""
    return [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 3, 0],
        [0, 0, 2, 0, 4],
        [0, 0, 3, 0, 1],
        [0, 4, 0, 2, 0],
    ]


def symmetric_inverse_table(n):
    """Partial one-to-one maps on n points under composition.

    A map is its image tuple, -1 where undefined; ids order by (size,
    sorted pairs (x, f(x))), so the empty map (the zero) is id 0.  Row f,
    column g is f after g.
    """
    maps = [
        f
        for f in itertools.product(range(-1, n), repeat=n)
        if len({y for y in f if y >= 0}) == n - f.count(-1)
    ]
    maps.sort(key=lambda f: (n - f.count(-1), [p for p in enumerate(f) if p[1] >= 0]))
    index = {f: i for i, f in enumerate(maps)}
    return [[index[tuple(y if y < 0 else f[y] for y in g)] for g in maps] for f in maps]


def i2xz2zero_table():
    s = InvSgp(symmetric_inverse_table(2))
    t = InvSgp(z2zero_table())
    return table_product(s, t)


def m2z2zero_table():
    from .rook import build_Mn_G0

    return [list(r) for r in build_Mn_G0(2, Gpd(z2_table())).structure.base.table]


def trivial1_ptable():
    return [[0]]


def pair2_ptable():
    return [[0, None], [None, 1]]


def disc3_ptable():
    return [[i if i == j else None for j in range(3)] for i in range(3)]


def z2_ptable():
    return [[0, 1], [1, 0]]


def z2pair2_ptable():
    """One object carrying the order-2 group, one bare identity."""
    return [[0, 1, None], [1, 0, None], [None, None, 2]]


def conn2z2_ptable():
    """Connected: two identities, order-2 local group, eight arrows."""

    def enc(x, g, y):
        return (x * 2 + g) * 2 + y

    t = [[None] * 8 for _ in range(8)]
    for x, g, y in itertools.product((0, 1), repeat=3):
        for x2, h, z in itertools.product((0, 1), repeat=3):
            if y == x2:
                t[enc(x, g, y)][enc(x2, h, z)] = enc(x, g ^ h, z)
    return t


SEMIGROUP_BUILDERS = {
    "trivial": trivial_table,
    "chain3": chain3_table,
    "antichain3": antichain3_table,
    "powerset2": powerset2_table,
    "z2-group": z2_table,
    "z2zero": z2zero_table,
    "z3zero": z3zero_table,
    "b2": b2_table,
    "i2": lambda: symmetric_inverse_table(2),
    "i3": lambda: symmetric_inverse_table(3),
    "i2xz2zero": i2xz2zero_table,
    "m2z2zero": m2z2zero_table,
}

GROUPOID_BUILDERS = {
    "trivial1": trivial1_ptable,
    "pair2": pair2_ptable,
    "disc3": disc3_ptable,
    "z2": z2_ptable,
    "z2pair2": z2pair2_ptable,
    "conn2z2": conn2z2_ptable,
}

# members whose compatible joins all exist; the rest are there to fail
BOOLEAN_NAMES = (
    "trivial",
    "powerset2",
    "z2zero",
    "z3zero",
    "i2",
    "i3",
    "i2xz2zero",
    "m2z2zero",
)

SEMIGROUP_COMMENTS = {
    "trivial": "one element",
    "chain3": "three-element chain of idempotents",
    "antichain3": "zero with two orthogonal idempotents",
    "powerset2": "subsets of a 2-set under intersection, ids are bitmasks",
    "z2-group": "group of order 2, no zero",
    "z2zero": "group of order 2 with zero first",
    "z3zero": "group of order 3 with zero first",
    "b2": "matrix-unit example: zero, e1, e2, e1<-e2, e2<-e1",
    "i2": "partial one-to-one maps on 2 points, ids by (size, pairs)",
    "i3": "partial one-to-one maps on 3 points, ids by (size, pairs)",
    "i2xz2zero": "direct product of i2 and z2zero, pair (a,b) is id b*7+a",
    "m2z2zero": "2x2 rook matrices over the order-2 group with zero",
}

GROUPOID_COMMENTS = {
    "trivial1": "one identity",
    "pair2": "two disconnected identities",
    "disc3": "three disconnected identities",
    "z2": "one object, local group of order 2",
    "z2pair2": "one object with order-2 group, one bare identity",
    "conn2z2": "connected, two identities, order-2 local group",
}


def render_ist(table, comment=None):
    """A table as .ist or .grp text: an undefined entry, None, is -1."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"n {len(table)}")
    for row in table:
        lines.append(" ".join("-1" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def corpus_semigroup(name):
    return InvSgp(SEMIGROUP_BUILDERS[name]())


def corpus_groupoid(name):
    return Gpd(GROUPOID_BUILDERS[name]())


def corpus_path(name):
    """Path to the bundled data file; name includes the extension."""
    return files("biskit").joinpath("data", name)


def corpus_text(name):
    return corpus_path(name).read_text()


def write_corpus(dirpath):
    """Regenerate every data file under dirpath; returns the file names."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    names = []
    for ext, builders, comments in (
        ("ist", SEMIGROUP_BUILDERS, SEMIGROUP_COMMENTS),
        ("grp", GROUPOID_BUILDERS, GROUPOID_COMMENTS),
    ):
        for name, builder in builders.items():
            fname = f"{name}.{ext}"
            with open(os.path.join(dirpath, fname), "w") as fh:
                fh.write(render_ist(builder(), comments[name]))
            names.append(fname)
    return names
