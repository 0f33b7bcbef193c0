"""Finite groupoids given by partial multiplication tables.

A product entry of None (or -1 in .grp text) means undefined.  Validation
checks that each position has a unique inverse, that products are defined
exactly when domain meets range, and that composition is associative
wherever it types.  Associativity is decided on a generating set
(_associative_on_generators), one row comparison per generator and arrow;
the scan over composable triples runs only to name the witness when that
fails, or in its place on short rows, where it is cheaper.  The empty
groupoid is allowed: it is what the nonzero-part construction yields for
the one-element semigroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter

from .core import _dr_classes, _parse_table, _picker, _table_invariants, _table_iso
from .errors import CertificateFailed, NotAGroup, NotGroupoid


_SCAN_TRIPLES_PER_ARROW = 64  # where the two cost about the same, on CPython 3.11


def _associative_on_generators(rows, d, r, identities, ending_at):
    """True when (x*t)*y = x*(t*y) for every composable triple, decided on
    generators; False when a generator fails, and the triple scan decides.

    Run once composability, identities and unit laws are checked.  Let T be
    the t with (x*t)*y = x*(t*y) for all x, y with d(x) = r(t), d(t) = r(y).
    Every identity is in T, by the unit laws.  A t in T has d(x*t) = d(t)
    and r(t*y) = r(t), as (x*t)*d(t) = x*t and r(t)*(t*y) = t*y are
    defined.  So for s, t in T with d(s) = r(t), and x, y composable with
    s*t, every product below is defined and (x*(s*t))*y = ((x*s)*t)*y =
    (x*s)*(t*y) = x*(s*(t*y)) = x*((s*t)*y): T is closed under composition.
    Generators are picked by ascending id: an arrow not in the closure of the
    identities under right multiplication by the generators so far becomes
    one.  The closure is computed in the table, assuming no associativity,
    so once every generator is in T, T is every arrow.  One comparison per
    generator t and x starting where t ends: the row of x*t against the row
    of x read at the row of t, both at the y ending where t starts.

    It also declines when the composable triples number at most
    _SCAN_TRIPLES_PER_ARROW per arrow: the scan takes one step per triple and
    the pass some dozens per arrow, so on short rows the scan is cheaper.
    """
    m = len(rows)
    if m * m <= _SCAN_TRIPLES_PER_ARROW:  # at most m**3 triples
        return False
    # composable triples: per x, each y ending where x starts, times the z
    # ending where y starts
    after = {e: sum(len(ending_at[d[y]]) for y in ys) for e, ys in ending_at.items()}
    if sum(after[e] for e in d) <= _SCAN_TRIPLES_PER_ARROW * m:
        return False
    starting_at = {e: [e] for e in identities}  # the closure, by d
    gens_at = {e: [] for e in identities}  # the generators, by r
    seen = set(identities)
    gens = []

    def grow(todo):
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                starting_at[d[w]].append(w)
                todo.extend(map(rows[w].__getitem__, gens_at[d[w]]))

    for g in range(m):
        if g not in seen:
            gens.append(g)
            gens_at[r[g]].append(g)
            grow([rows[x][g] for x in starting_at[r[g]]])
    for t in gens:
        at_y = _picker(ending_at[d[t]])
        at_ty = _picker(at_y(rows[t]))
        xs = [rows[x] for x in starting_at[r[t]]]
        x_t = map(rows.__getitem__, map(itemgetter(t), xs))
        if not all(map(eq, map(at_y, x_t), map(at_ty, xs))):
            return False
    return True


class Gpd:
    """A validated finite groupoid on ids 0..m-1."""

    def __init__(self, ptable, labels=None):
        rows = tuple(tuple(r) for r in ptable)
        m = len(rows)
        for i, row in enumerate(rows):
            if len(row) != m:
                raise NotGroupoid("shape", i)
            for v in row:
                if v is not None and (not isinstance(v, int) or not 0 <= v < m):
                    raise NotGroupoid("entry-range", (i, v))

        # defined[x]: the y with x*y defined, ascending; an inverse of x is
        # one of them, as x*y is defined for it
        arrows = range(m)
        defined = [[y for y in arrows if row[y] is not None] for row in rows]
        inv = []
        for x, (rx, ys) in enumerate(zip(rows, defined)):
            cands = [
                y
                for y in ys
                if rows[y][x] is not None
                and rx[rows[y][x]] == x
                and rows[y][rx[y]] == y
            ]
            if len(cands) != 1:
                raise NotGroupoid("unique-inverse", (x, tuple(cands)))
            inv.append(cands[0])

        d = tuple(rows[inv[x]][x] for x in arrows)
        r = tuple(rows[x][inv[x]] for x in arrows)
        identities = tuple(x for x in arrows if d[x] == x)
        for e in identities:
            if r[e] != e or rows[e][e] != e:
                raise NotGroupoid("identity", e)
        for x in arrows:
            if d[x] not in identities or r[x] not in identities:
                raise NotGroupoid("domain-range", x)
            if rows[x][d[x]] != x or rows[r[x]][x] != x:
                raise NotGroupoid("unit-law", x)

        # x*y must be defined exactly at the y ending where x starts: row x's
        # defined positions against one pattern per identity
        ending_at = {e: [] for e in identities}
        for y in arrows:
            ending_at[r[y]].append(y)
        for x in arrows:
            if defined[x] != ending_at[d[x]]:
                y = next(y for y in arrows if (rows[x][y] is not None) != (d[x] == r[y]))
                raise NotGroupoid("composability", (x, y))

        if not _associative_on_generators(rows, d, r, identities, ending_at):
            # only composable triples: y ends where x starts, z where y starts
            for x in arrows:
                rx = rows[x]
                for y in ending_at[d[x]]:
                    rxy, ry = rows[rx[y]], rows[y]
                    for z in ending_at[d[y]]:
                        if rxy[z] != rx[ry[z]]:
                            raise NotGroupoid("associativity", (x, y, z))

        self.size = m
        self.ptable = rows
        self.inv = tuple(inv)
        self.d = d
        self.r = r
        self.identities = identities
        self.labels = labels if labels is not None else tuple(range(m))

    @cached_property
    def form(self):
        """component_form(self), the tuple of Components, built on first
        read; every reader of a groupoid's components reads it here."""
        return component_form(self)

    @cached_property
    def hom(self):
        """hom[(e, f)]: the arrows from identity e to identity f, ascending,
        for each pair with one.  Built on first read; every reader of the
        arrows between two identities reads them here."""
        hom = {}
        for x, ends in enumerate(zip(self.d, self.r)):
            hom.setdefault(ends, []).append(x)
        return {ends: tuple(xs) for ends, xs in hom.items()}

    def is_group(self):
        return self.size >= 1 and len(self.identities) == 1 and all(
            v is not None for row in self.ptable for v in row
        )

    def __repr__(self):
        return f"Gpd(size={self.size}, identities={len(self.identities)})"


def parse_groupoid(text):
    """Parse .grp text (entries may be -1 for undefined) into a Gpd."""
    return Gpd(_parse_table(text, allow_undefined=True))


@dataclass(frozen=True)
class Component:
    identity_count: int
    group: Gpd  # local group at the least identity, relabelled 0..h-1
    member_ids: tuple  # all arrows in the component, ascending
    identities: tuple  # identities in the component, ascending


def _local_group(g, e):
    """Loops at identity e, relabelled densely; validates as one-object Gpd."""
    loops = g.hom[(e, e)]
    index = {x: i for i, x in enumerate(loops)}
    ptable = [[index[g.ptable[x][y]] for y in loops] for x in loops]
    local = Gpd(ptable, labels=loops)
    if not local.is_group():
        raise NotAGroup(f"loops at identity {e} do not form a group")
    return local


def component_form(g):
    """Split g into connected components with one local group each, as a
    tuple of Components ordered by least identity; read as g.form."""
    classes = _dr_classes(g.identities, g.d, g.r)
    comp_of = {e: ci for ci, ids in enumerate(classes) for e in ids}
    members = [[] for _ in classes]
    for x, dx in enumerate(g.d):
        members[comp_of[dx]].append(x)
    return tuple(
        Component(
            identity_count=len(ids),
            group=_local_group(g, ids[0]),
            member_ids=tuple(xs),
            identities=ids,
        )
        for ids, xs in zip(classes, members)
    )


def reconstruct(form):
    """Rebuild a groupoid from the (identity count, local group) data of
    each Component in form alone.

    Component c with n identities and group H becomes the set of triples
    (x, h, y) with product (x, h, y)(y, h2, z) = (x, h*h2, z); components are
    laid out one after another, and within one the arrow (x, h, y) has id
    offset + (x*n + y)*|H| + h, so ids sort by (row, column, group id).
    """
    total = sum(c.identity_count**2 * c.group.size for c in form)
    ptable = [[None] * total for _ in range(total)]
    off = 0
    for comp in form:
        n, h, gt = comp.identity_count, comp.group.size, comp.group.ptable
        block = [[off + (x * n + y) * h for y in range(n)] for x in range(n)]
        for x, y, z in itertools.product(range(n), repeat=3):
            for g, g2 in itertools.product(range(h), repeat=2):
                ptable[block[x][y] + g][block[y][z] + g2] = block[x][z] + gt[g][g2]
        off += n * n * h
    return Gpd(ptable)


def _element_orders(g):
    """Order of each element of a one-object groupoid (a group): the
    periods of core._table_invariants."""
    return tuple(period for _, period, _, _ in _table_invariants(g.ptable))


def group_name(g):
    """Short human name for a small group, for report text."""
    n = g.size
    orders = sorted(_element_orders(g))
    if n == 1:
        return "trivial"
    if n in orders and orders.count(n) >= 1 and max(orders) == n:
        return f"Z{n}"
    if n == 4:
        return "V4"
    if n == 6:
        return "S3"
    if n == 8:  # not cyclic: told apart by how many elements have order 1, 2, 4
        counts = tuple(map(orders.count, (1, 2, 4)))
        return {(1, 3, 4): "Z2xZ4", (1, 7, 0): "Z2^3", (1, 5, 2): "D4", (1, 1, 6): "Q8"}[counts]
    return f"G{n}"


def group_iso(a, b):
    """Explicit isomorphism between one-object groupoids, or None.

    core._table_iso on the two tables, all of whose entries a group
    defines; its invariants are then the element orders.  The map is
    re-checked as a groupoid isomorphism (is_groupoid_iso), else
    CertificateFailed.
    """
    if not a.is_group() or not b.is_group():
        raise NotAGroup("group_iso needs one-object groupoids")
    phi = _table_iso(a.ptable, b.ptable)
    if phi is not None and not is_groupoid_iso(a, b, phi):
        raise CertificateFailed(("group-iso", phi))
    return phi


def is_principal(g):
    """All local groups trivial: at most one arrow between two identities."""
    return all(c.group.size == 1 for c in g.form)


def is_connected(g):
    """Exactly one component: the empty groupoid is not connected."""
    return len(g.form) == 1


@dataclass(frozen=True)
class Coordinates:
    """Triple form of a groupoid g: arrow -> (component, row, group id, col),
    component ci being g.form[ci]."""

    coord: tuple  # coord[x] = (ci, xi, g, yi)
    rebuilt: tuple  # rebuilt[x] = the id of x's triple in reconstruct(g.form)


def coordinatize(g):
    """Pick anchor arrows and express every arrow as (component, x, g, y).

    For identity number xi in component ci the anchor a_xi is the least
    arrow from the component's least identity, the base, to that identity;
    the base is its own anchor.  A component has such an arrow for each of
    its identities: it is joined to the base by a path of arrows, and the
    path's arrows and their inverses compose.  The group part of an arrow t
    is then anchor(r)^-1 * t * anchor(d), a loop at the base identity.
    Sending each arrow to its triple is an isomorphism onto
    reconstruct(g.form).
    """
    all_coords = [None] * g.size
    rebuilt = [None] * g.size
    off = 0  # where the component's triples start in reconstruct(g.form)
    for ci, comp in enumerate(g.form):
        ids = comp.identities
        base = ids[0]
        anchors = [e if e == base else g.hom[(base, e)][0] for e in ids]
        pos = {e: i for i, e in enumerate(ids)}
        group_index = {x: i for i, x in enumerate(comp.group.labels)}
        n, h = len(ids), comp.group.size
        for t in comp.member_ids:
            xi, yi = pos[g.r[t]], pos[g.d[t]]
            loop = group_index[g.ptable[g.ptable[g.inv[anchors[xi]]][t]][anchors[yi]]]
            all_coords[t] = (ci, xi, loop, yi)
            rebuilt[t] = off + (xi * n + yi) * h + loop
        off += n * n * h
    return Coordinates(tuple(all_coords), tuple(rebuilt))


def groupoid_iso(g, h):
    """Explicit isomorphism g -> h as an id tuple, or None.

    Components are matched by (identity count, sorted element orders) and
    kept only where group_iso finds a local group isomorphism; matched
    components are then coordinatized and mapped triple-by-triple through
    it.  The candidate is fully re-checked against both partial tables
    (is_groupoid_iso), else CertificateFailed.
    """
    comps_g, comps_h = g.form, h.form
    if len(comps_g) != len(comps_h):
        return None

    def sig(comp):
        return (comp.identity_count, sorted(_element_orders(comp.group)))

    sig_g = [sig(c) for c in comps_g]
    sig_h = [sig(c) for c in comps_h]
    if sorted(sig_g) != sorted(sig_h):
        return None

    match = [None] * len(comps_g)
    used = [False] * len(comps_h)

    def assign(i):
        if i == len(comps_g):
            return True
        for j in range(len(comps_h)):
            if used[j] or sig_h[j] != sig_g[i]:
                continue
            phi = group_iso(comps_g[i].group, comps_h[j].group)
            if phi is None:
                continue
            match[i] = (j, phi)
            used[j] = True
            if assign(i + 1):
                return True
            used[j] = False
        return False

    if not assign(0):
        return None

    cg, ch = coordinatize(g), coordinatize(h)
    inv_coord_h = {}
    for t in range(h.size):
        inv_coord_h[ch.coord[t]] = t
    out = [None] * g.size
    for t in range(g.size):
        ci, xi, gg, yi = cg.coord[t]
        cj, phi = match[ci]
        out[t] = inv_coord_h[(cj, xi, phi[gg], yi)]

    if not is_groupoid_iso(g, h, out):
        raise CertificateFailed(("groupoid-iso", tuple(out)))
    return tuple(out)


def is_groupoid_iso(g, h, mp):
    """True when mp (g id -> h id) is a bijection carrying g's partial table
    onto h's: a product is defined exactly where the product of the images
    is, and then mp of it is that product."""
    if len(mp) != g.size or sorted(mp) != list(range(h.size)):
        return False
    for x in range(g.size):
        for y in range(g.size):
            p = g.ptable[x][y]
            q = h.ptable[mp[x]][mp[y]]
            if (p is None) != (q is None):
                return False
            if p is not None and mp[p] != q:
                return False
    return True
