"""Rook matrices over a Boolean inverse semigroup, the decomposition of a
finite Boolean inverse monoid into matrix monoids over groups with zero, and
the atom duality read off that decomposition.

A rook matrix keeps its rows range-orthogonal and its columns
domain-orthogonal, so the entrywise products in a matrix product can be
joined orthogonally and the result is a rook matrix again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import NamedTuple

from .boolean import BoolInvSgp, KOfGroupoid, k_of_groupoid
from .core import _on_generators
from .errors import (
    CertificateFailed,
    DimensionMismatch,
    NotAGroup,
    NotMonoid,
    NotRook,
    TooLarge,
)
from .groupoid import (
    Component,
    Gpd,
    coordinatize,
    group_name,
    is_groupoid_iso,
    reconstruct,
)


class RookMatrix(NamedTuple):
    """An n-by-n matrix over base.  A NamedTuple, as the generated __init__
    of a frozen dataclass costs about twice as much; it equals a plain tuple
    of its fields, so matrices are compared by their entries."""

    base: BoolInvSgp
    n: int
    entries: tuple  # n rows of n ids into base


@cache
def _indices(n):
    """The positions 0..n-1 of a row or a column, and their pairs p < q.

    The rook kernels loop over these tuples and index the entries, as a
    zip, map or enumerate object costs more than the few reads of a small
    matrix."""
    return tuple(range(n)), tuple(itertools.combinations(range(n), 2))


def rook_violation(base, n, entries):
    """Witness against the rook conditions, or None.

    Two entries in one row must have orthogonal ranges (a' * b = 0); two in
    one column orthogonal domains (a * b' = 0).  Every pair of positions is
    tested, zero entries included, rows first.
    """
    s = base.base
    table, inv, z = s.table, s.inv, s.zero
    positions, pairs = _indices(n)
    for i in positions:
        row = entries[i]
        for j1, j2 in pairs:
            if table[inv[row[j1]]][row[j2]] != z:
                return ("row", i, j1, j2)
    for j in positions:
        for i1, i2 in pairs:
            if table[entries[i1][j]][inv[entries[i2][j]]] != z:
                return ("col", j, i1, i2)
    return None


def _checked(base, entries):
    """The rook matrix of a square tuple of row tuples; NotRook names the
    first rook condition it fails."""
    n = len(entries)
    bad = rook_violation(base, n, entries)
    if bad is not None:
        raise NotRook(bad)
    return RookMatrix(base, n, entries)


def rook_matrix(base, entries):
    entries = tuple(map(tuple, entries))
    if any(len(r) != len(entries) for r in entries):
        raise DimensionMismatch("rook matrix must be square")
    return _checked(base, entries)


def rook_matrices(base, candidates):
    """The rook matrices among candidates, square tuples of row tuples, in
    order; each candidate is tested once."""
    for entries in candidates:
        if rook_violation(base, len(entries), entries) is None:
            yield RookMatrix(base, len(entries), entries)


def rook_mul(a, b):
    """Matrix product; each entry is an orthogonal join of entrywise terms.

    Entry (i, j) reads its terms a[i][k] * b[k][j] in the order of k and
    keeps the nonzero ones.  Two or more are checked pairwise orthogonal,
    in that order (CertificateFailed names the first pair that is not), and
    joined through the join table (join_of); one term is the entry, and
    none gives the zero.
    """
    base, n = a.base, a.n
    if base is not b.base or n != b.n:
        raise DimensionMismatch("rook product needs one base and one size")
    s = base.base
    table, z, rows_a, rows_b = s.table, s.zero, a.entries, b.entries
    positions = _indices(n)[0]
    out = []
    for i in positions:
        row, out_row = rows_a[i], []
        for j in positions:
            terms = []
            for k in positions:
                t = table[row[k]][rows_b[k][j]]
                if t != z:
                    terms.append(t)
            if len(terms) < 2:
                out_row.append(terms[0] if terms else z)
                continue
            for t1, t2 in itertools.combinations(terms, 2):
                if t2 not in s.orth[t1]:
                    raise CertificateFailed(("terms-not-orthogonal", i, j, t1, t2))
            out_row.append(s.join_of(terms))
        out.append(tuple(out_row))
    return _checked(base, tuple(out))


def rook_star(a):
    """Transpose with inverted entries; a = a * a'(star) * a always holds."""
    inv, entries = a.base.base.inv, a.entries
    out = []
    for j in _indices(a.n)[0]:
        col = []
        for row in entries:
            col.append(inv[row[j]])
        out.append(tuple(col))
    return _checked(a.base, tuple(out))


def identity_rook(base, n):
    one, z = base.base.identity, base.base.zero
    if one is None:
        raise NotMonoid("identity matrix needs an identity entry")
    return rook_matrix(
        base,
        [[one if i == j else z for j in range(n)] for i in range(n)],
    )


MN_ENTRY_CAP = 64


def build_Mn_G0(n, group):
    """Tabulate the n-by-n rook matrices over the group-with-zero on group.

    Entries of such a matrix are either zero or group elements, and the rook
    conditions force at most one nonzero entry per row and per column, so a
    matrix is a local bisection of the groupoid n x H x n: this is K of that
    groupoid, with its elements sorted by (size, (row, col, group id)s).
    More than K_OF_GROUPOID_CAP matrices raise TooLarge from k_of_groupoid
    before any is enumerated.
    """
    if not group.is_group():
        raise NotAGroup("matrix base must be a one-object groupoid")
    h = group.size
    if n * n * h > MN_ENTRY_CAP:
        raise TooLarge(
            f"{n}x{n} over group of order {h} has {n * n * h} entries, "
            f"above entry cap MN_ENTRY_CAP={MN_ENTRY_CAP}"
        )
    # reconstruct reads only the identity count and the group of a component
    g = reconstruct((Component(n, group, member_ids=(), identities=()),))
    return k_of_groupoid(g)


@dataclass(frozen=True)
class DecompositionCertificate:
    """S recognized as a product of matrix monoids over groups with zero."""

    signature: tuple  # sorted (identity count, group order, group name)
    atoms: Gpd  # the atoms groupoid G(S)
    rebuilt: tuple  # atoms-groupoid id -> its triple's id in reconstruct(atoms.form)
    target: KOfGroupoid  # K(reconstruct(atoms.form))
    iso: tuple  # source id -> product id, checked on the generators

    @property
    def product(self):
        return self.target.structure


def decompose(bs):
    """Split a finite Boolean inverse monoid along its atom components.

    Component i of the atoms, with n_i identities and local group G_i, is
    rebuilt as the groupoid n_i x G_i x n_i, whose local bisections are the
    n_i-by-n_i rook matrices over G_i with zero; the local bisections of all
    rebuilt components together are the product of those matrix monoids.
    Each element goes to the bisection of the rebuilt atoms below it.  This
    is the one place K is built for a structure's atoms; theta_iso reads it.

    iso is checked to be a bijection onto K(R), R the rebuilt groupoid, and
    multiplicative on generators g of S (_on_generators), one column of K
    each: iso(a*g) = iso(a)*iso(g) for every a.  The b with iso(a*b) =
    iso(a)*iso(b) for every a are closed under the product, as iso(a*b*c) =
    iso(a*b)*iso(c) = iso(a)*iso(b)*iso(c) = iso(a)*iso(b*c), the setwise
    product of bisections of the validated groupoid R being associative.
    When the pass declines, the rows of K's table are scanned, and
    CertificateFailed names the first row a where iso fails to be
    multiplicative.

    K's table is therefore neither built nor validated here: it is the
    validated table of bs relabelled by iso.  Every reader of it goes
    through product, which validates it all the same.
    """
    if bs.base.identity is None:
        raise NotMonoid("decomposition needs an identity element")
    ag = bs.atoms_groupoid
    coords = coordinatize(ag)
    signature = tuple(
        sorted((c.identity_count, c.group.size, group_name(c.group)) for c in ag.form)
    )
    kg = k_of_groupoid(reconstruct(ag.form))

    s = bs.base
    rebuilt = dict(zip(ag.labels, coords.rebuilt))
    iso = tuple(
        kg.index.get(frozenset(rebuilt[x] for x in s.down[a] if x in rebuilt))
        for a in range(s.size)
    )
    if s.size != len(kg.bisections) or set(iso) != set(range(s.size)):
        raise CertificateFailed(("decomposition-not-bijective",))

    def column_holds(g):  # iso(a*g) against iso(a)*iso(g), every a
        col = kg.column(iso[g])
        got = map(iso.__getitem__, map(itemgetter(g), s.table))
        return tuple(got) == tuple(map(col.__getitem__, iso))

    if not _on_generators(s, column_holds):
        # some row differs: a failed column's products are K's, and were
        # iso multiplicative onto K's associative product, the table read
        # would be associative too, and pass Light's test
        p = kg.table
        a = next(
            a
            for a, row in enumerate(s.table)
            if tuple(map(iso.__getitem__, row))
            != tuple(map(p[iso[a]].__getitem__, iso))
        )
        raise CertificateFailed(("decomposition-not-iso", a))
    return DecompositionCertificate(
        signature=signature,
        atoms=ag,
        rebuilt=coords.rebuilt,
        target=kg,
        iso=iso,
    )


def theta_iso(bs, decomposition):
    """Check the duality: a finite Boolean inverse monoid is the local
    bisections of its own atoms.

    decomposition, the caller's decompose(bs), sends a to the bisection
    {rebuilt(x) : x an atom below a} of R and has checked that map as an
    isomorphism S -> K(R) on the generators of S.  K's table is not read
    here either; every reader of it goes through KOfGroupoid.structure,
    which validates it.  What is left is that rebuilt carries G(S) onto R,
    checked on the m-by-m partial tables of the m atoms; then K(rebuilt) is
    an isomorphism K(G(S)) -> K(R), and composing its inverse gives a ->
    (atoms below a) as an isomorphism S -> K(G(S)): the atoms below a are
    the preimage under rebuilt of the bisection target.bisections[iso[a]].
    An isomorphism preserves the natural order, hence joins and atoms, so
    every element is the join of the atoms below it.  Returns the
    decomposition once rebuilt is checked.  CertificateFailed is raised for
    a decomposition of another structure, one whose atoms are not bs's own
    atoms groupoid, and for a rebuilt map that is not a groupoid isomorphism.
    """
    cert = decomposition
    if cert.atoms is not bs.atoms_groupoid:
        raise CertificateFailed(("decomposition-of-another-structure",))
    if not is_groupoid_iso(cert.atoms, cert.target.groupoid, cert.rebuilt):
        raise CertificateFailed(("atoms-not-carried",))
    return cert
