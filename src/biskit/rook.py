"""Rook matrices over a Boolean inverse semigroup, and the decomposition of
a finite Boolean inverse monoid into matrix monoids over groups with zero.

A rook matrix keeps its rows range-orthogonal and its columns
domain-orthogonal, so the entrywise products in a matrix product can be
joined orthogonally and the result is a rook matrix again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boolean import BoolInvSgp, ThetaIso, check_boolean, direct_product, theta_iso
from .core import InvSgp
from .errors import DimensionMismatch, NotAGroup, NotMonoid, TooLarge
from .groupoid import canonical_group_key, coordinatize, group_name


@dataclass(frozen=True)
class RookMatrix:
    base: BoolInvSgp
    n: int
    entries: tuple  # n rows of n ids into base

    def entry(self, i, j):
        return self.entries[i][j]


def rook_violation(base, n, entries):
    """Witness against the rook conditions, or None.

    Two entries in one row must have orthogonal ranges (a' * b = 0); two in
    one column orthogonal domains (a * b' = 0).
    """
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
        raise ValueError(f"rook condition fails: {bad}")
    return RookMatrix(base, n, entries)


def rook_mul(a, b):
    """Matrix product; each entry is an orthogonal join of entrywise terms."""
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
                assert s.orth[t1][t2], "rook product terms must be orthogonal"
            row.append(base.join_of(terms))
        out.append(tuple(row))
    return rook_matrix(base, out)


def rook_star(a):
    """Transpose with inverted entries; a = a * a'(star) * a always holds."""
    s = a.base.base
    return rook_matrix(
        a.base,
        tuple(
            tuple(s.inv[a.entries[j][i]] for j in range(a.n))
            for i in range(a.n)
        ),
    )


def zero_rook(base, n):
    z = base.base.zero
    return rook_matrix(base, [[z] * n for _ in range(n)])


def identity_rook(base, n):
    if base.top is None:
        raise NotMonoid("identity matrix needs an identity entry")
    z = base.base.zero
    return rook_matrix(
        base,
        [[base.top if i == j else z for j in range(n)] for i in range(n)],
    )


def diag_rook(base, n, diagonal):
    z = base.base.zero
    return rook_matrix(
        base,
        [[diagonal[i] if i == j else z for j in range(n)] for i in range(n)],
    )


MN_ENTRY_CAP = 64
MN_CARRIER_CAP = 20000


@dataclass(frozen=True)
class MnG0:
    structure: BoolInvSgp
    cells: tuple  # id -> frozenset of (row, col, group id)
    n: int
    group: object  # the one-object Gpd the entries came from


def build_Mn_G0(n, group):
    """Tabulate the n-by-n rook matrices over the group-with-zero on group.

    Entries of such a matrix are either zero or group elements, and the rook
    conditions force at most one nonzero entry per row and per column, so
    elements are partial one-to-one placements with group labels.
    """
    if not group.is_group():
        raise NotAGroup("matrix base must be a one-object groupoid")
    h = group.size
    if n * n * h > MN_ENTRY_CAP:
        raise TooLarge(f"{n}x{n} over group of order {h} exceeds entry cap")
    count = sum(
        math.comb(n, k) ** 2 * math.factorial(k) * h**k for k in range(n + 1)
    )
    if count > MN_CARRIER_CAP:
        raise TooLarge(f"carrier {count} exceeds cap {MN_CARRIER_CAP}")

    cells = []
    for k in range(n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(n), k):
                for gs in itertools.product(range(h), repeat=k):
                    cells.append(
                        frozenset(zip(rows, cols, gs))
                    )
    cells = sorted(set(cells), key=lambda c: (len(c), sorted(c)))
    assert len(cells) == count
    index = {c: i for i, c in enumerate(cells)}
    size = len(cells)
    table = [[0] * size for _ in range(size)]
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            prod = frozenset(
                (ra, cb, group.ptable[ga][gb])
                for (ra, ca, ga) in a
                for (rb, cb, gb) in b
                if ca == rb
            )
            table[i][j] = index[prod]
    base = InvSgp(table)
    rep = check_boolean(base)
    assert rep.boolean, f"matrix monoid must be Boolean: {rep.failure}"
    return MnG0(rep.structure, tuple(cells), n, group)


@dataclass(frozen=True)
class DecompositionCertificate:
    """S recognized as a product of matrix monoids over groups with zero."""

    signature: tuple  # sorted (identity count, group order, group name)
    canonical: tuple  # sorted (identity count, canonical group key)
    factors: tuple  # of MnG0, in atom-component order
    product: BoolInvSgp
    iso: tuple  # source id -> product id, fully table-checked
    verified: bool
    theta: ThetaIso  # the verified atom duality the iso runs through


def decompose(bs):
    """Split a finite Boolean inverse monoid along its atom components.

    Component i of the atoms, with n_i identities and local group G_i,
    contributes the n_i-by-n_i rook matrices over G_i with zero; the witness
    isomorphism runs through atom sets coordinatized against the component
    anchors and is re-checked entry by entry on the full tables.
    """
    if bs.top is None:
        raise NotMonoid("decomposition needs an identity element")
    theta = theta_iso(bs)
    assert theta.verified, "atom duality must verify before decomposition"
    coords = coordinatize(theta.atoms)
    comps = coords.form.components

    factors = tuple(
        build_Mn_G0(c.identity_count, c.group) for c in comps
    )
    signature = tuple(
        sorted(
            (c.identity_count, c.group.size, group_name(c.group))
            for c in comps
        )
    )
    canonical = tuple(
        sorted((c.identity_count, canonical_group_key(c.group)) for c in comps)
    )

    if not factors:
        product = check_boolean(InvSgp(((0,),))).structure
    else:
        product = factors[0].structure
        for f in factors[1:]:
            product = direct_product(product, f.structure)

    s = bs.base
    iso = []
    for a in range(s.size):
        atom_set = theta.target.bisections[theta.map[a]]
        per_comp = [[] for _ in comps]
        for t in atom_set:
            ci, xi, g, yi = coords.coord[t]
            per_comp[ci].append((xi, yi, g))
        pid = 0
        stride = 1
        for ci, cell_list in enumerate(per_comp):
            fi = factors[ci].cells.index(frozenset(cell_list))
            pid += fi * stride
            stride *= factors[ci].structure.size
        iso.append(pid)

    p = product.base
    verified = sorted(iso) == list(range(p.size)) and s.size == p.size
    if verified:
        for a in range(s.size):
            for b in range(s.size):
                if iso[s.table[a][b]] != p.table[iso[a]][iso[b]]:
                    verified = False
                    break
            if not verified:
                break
    return DecompositionCertificate(
        signature=signature,
        canonical=canonical,
        factors=factors,
        product=product,
        iso=tuple(iso),
        verified=verified,
        theta=theta,
    )
