"""Type monoids of finite Boolean inverse semigroups.

For a finite structure the type monoid is a free commutative monoid of rank
the number of atom components; the type of an idempotent counts its atomic
idempotents component by component.  The matrix-truncation oracle below
recomputes the same equivalence inside 2-by-2 rook matrices, with every
equivalence it asserts backed by an explicit matrix witness, and checks the
two computations agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .boolean import as_boolean
from .core import d_relation_idempotents
from .errors import CertificateFailed, NotBelow, NotRook, TooLarge
from .rook import rook_matrix, rook_mul, rook_star

MATRIX_IDEMPOTENT_CAP = 100_000


@dataclass(frozen=True)
class TypeMonoid:
    rank: int
    atomic_idempotents: tuple  # per component, frozenset of atomic idempotents
    tau: dict  # idempotent id -> tuple of per-component counts


def type_monoid(bs):
    """Compute the component count and the per-idempotent count vectors.

    The axioms are re-checked on the result: zero maps to the zero vector,
    orthogonal joins add, equivalent idempotents agree, and the count vector
    separates exactly the idempotent classes connected through the carrier,
    and e and f minus e add up to f for idempotents e <= f.  A check that
    fails raises CertificateFailed naming it.  f minus e is read off row f
    of the relative complements (bs.rc_row), built for the idempotents f
    alone; an e that row lacks raises NotBelow((f, e)), as bs.rc does, and
    a w = f minus e that is not an idempotent raises
    CertificateFailed(("complement-not-idempotent", f, e, w)).
    """
    bs = as_boolean(bs)
    s = bs.base
    ag = bs.atoms_groupoid
    comps = sorted(ag.form, key=lambda c: min(ag.labels[t] for t in c.member_ids))
    atomic = tuple(frozenset(ag.labels[e] for e in c.identities) for c in comps)
    rank = len(atomic)
    atom_set = set(s.atoms)
    tau = {}
    for e in s.idempotents:
        below = {x for x in s.down[e] if x in atom_set}
        if not all(s.is_idempotent(x) for x in below):
            raise CertificateFailed(("atom-below-idempotent-not-idempotent", e))
        tau[e] = tuple(len(below & a) for a in atomic)

    if tau[s.zero] != (0,) * rank:
        raise CertificateFailed(("zero-type-not-zero", tau[s.zero]))
    t, z = s.table, s.zero
    for e in s.idempotents:
        for f in s.idempotents:
            if t[e][f] == z:  # e'f = ef' = ef: orthogonal
                j = s.join_table[e][f]
                if tau[j] != tuple(x + y for x, y in zip(tau[e], tau[f])):
                    raise CertificateFailed(("orthogonal-join-types-do-not-add", e, f))
    dcls = {e: i for i, block in enumerate(d_relation_idempotents(s)) for e in block}
    for e in s.idempotents:
        for f in s.idempotents:
            if (tau[e] == tau[f]) != (dcls[e] == dcls[f]):
                raise CertificateFailed(("types-do-not-separate-classes", e, f))
    minus = {f: bs.rc_row(f) for f in s.idempotents}
    for e in s.idempotents:
        for f in filter(s.is_idempotent, s.up[e]):
            if e not in minus[f]:
                raise NotBelow((f, e))
            w = minus[f][e]
            rest = tau.get(w)
            if rest is None:
                raise CertificateFailed(("complement-not-idempotent", f, e, w))
            if tau[f] != tuple(x + y for x, y in zip(tau[e], rest)):
                raise CertificateFailed(("complement-types-do-not-add", e, f))
    return TypeMonoid(rank, atomic, tau)


def refinement_check(tm):
    """Whenever realized vectors satisfy a1+a2 = b1+b2, a common refinement
    exists; and only the zero vector is invertible.  The ordered pairs are
    grouped by their sum, so only quadruples with equal sums are formed."""
    realized = sorted(set(tm.tau.values()))

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    by_sum = {}
    for u, v in itertools.product(realized, repeat=2):
        by_sum.setdefault(add(u, v), []).append((u, v))
    if any(any(u) or any(v) for u, v in by_sum.get((0,) * tm.rank, ())):
        return False
    quads = (q for pairs in by_sum.values() for q in itertools.product(pairs, repeat=2))
    for (a1, a2), (b1, b2) in quads:
        c11 = tuple(min(x, y) for x, y in zip(a1, b1))
        c12 = tuple(x - y for x, y in zip(a1, c11))
        c21 = tuple(x - y for x, y in zip(b1, c11))
        c22 = tuple(x - y for x, y in zip(a2, c21))
        if any(x < 0 for x in c22):
            return False
        if add(c11, c12) != a1 or add(c21, c22) != a2:
            return False
        if add(c11, c21) != b1 or add(c12, c22) != b2:
            return False
    return True


@dataclass(frozen=True)
class IdealTriple:
    """Three posets that must be one: idempotent ideals, additive ideals,
    and coordinate supports of the count-vector monoid; the first two are
    ideal_triple's inputs."""

    matched: bool
    simple_iff_rank_one: bool


def ideal_triple(bs, tm, ideals, idem_ideals):
    """Match the three ideal posets of bs, given its type monoid tm, its
    additive ideals and its idempotent ideals (the idempotent_ideals
    scan)."""
    supports = sorted(
        (frozenset(t) for r in range(tm.rank + 1)
         for t in itertools.combinations(range(tm.rank), r)),
        key=_by_size,
    )
    simple_iff = (tm.rank == 1) == (len(ideals) == 2)
    matched = _ideals_match(bs.base, tm, ideals, idem_ideals, supports)
    return IdealTriple(matched, simple_iff)


def _by_size(f):
    """Sort key of a set: by size, then by its sorted members."""
    return (len(f), sorted(f))


def _ideals_match(s, tm, ideals, idem_ideals, supports):
    """Whether the additive ideals match the idempotent ideals and the
    supports one to one: each carrier's idempotents form an idempotent
    ideal whose induced set (the x with d(x) in it) is the carrier, and the
    carriers' supports, read off tau, are the supports, in the same order
    of inclusion."""
    if not len(idem_ideals) == len(ideals) == len(supports):
        return False
    to_idem = {c: frozenset(filter(s.is_idempotent, c)) for c in ideals}
    if sorted(to_idem.values(), key=_by_size) != list(idem_ideals):
        return False
    for carrier, idem in to_idem.items():
        if frozenset(x for x in range(s.size) if s.d[x] in idem) != carrier:
            return False
    supp = {
        c: frozenset(ci for e in idem for ci in range(tm.rank) if tm.tau[e][ci])
        for c, idem in to_idem.items()
    }
    if sorted(supp.values(), key=_by_size) != supports:
        return False
    if len(set(supp.values())) != len(ideals):
        return False
    pairs = itertools.product(supp.items(), repeat=2)
    return all((c1 <= c2) == (v1 <= v2) for (c1, v1), (c2, v2) in pairs)


# -- matrix truncation oracle ----------------------------------------------


def _atom_edges(bs):
    """The least witness x with d(x) = p and r(x) = q per pair of atomic
    idempotents with one, read off the atoms groupoid: an x whose d(x) is an
    atom is an atom.  Existence of a witness is the edge relation."""
    ag = bs.atoms_groupoid
    label = ag.labels.__getitem__
    return {(label(p), label(q)): label(xs[0]) for (p, q), xs in ag.hom.items()}


def _atom_components(bs):
    """The component, an index into bs.atoms_groupoid.form, of each atomic
    idempotent."""
    ag = bs.atoms_groupoid
    return {ag.labels[e]: ci for ci, c in enumerate(ag.form) for e in c.identities}


def _slots(s, diag):
    """Atom slots of a diagonal idempotent tuple: (slot, atomic idempotent)."""
    atoms = set(s.atoms)
    return [(slot, p) for slot, e in enumerate(diag) for p in s.down[e] if p in atoms]


def _match_slots(left, right, comp):
    """Perfect matching between slot lists along the witness edges, as
    (left slot, right slot) pairs, or None; comp is _atom_components.

    _atom_edges has a witness from p to q exactly when p and q lie in one
    component of the atoms groupoid, which has an arrow between any two of
    its identities.  So the edges join each component's slots completely, a
    perfect matching exists iff both lists have as many slots in every
    component, and pairing the slots in component order is one.
    """
    def key(slot):
        return comp[slot[1]]

    left, right = sorted(left, key=key), sorted(right, key=key)
    if list(map(key, left)) != list(map(key, right)):
        return None
    return tuple(zip(left, right))


def _diag(a, b, zero):
    """The entries of the 2-by-2 diagonal matrix diag(a, b)."""
    return ((a, zero), (zero, b))


def _witness_verified(bs, pairs, left_diag, right_diag, edges):
    """Build the rook matrix carrying right_diag's atoms onto left_diag's
    along pairs, the matching, and verify that it is one, X*X =
    diag(right_diag) and XX* = diag(left_diag) by matrix arithmetic."""
    s = bs.base
    cells = {}
    for (dst_slot, q), (src_slot, p) in pairs:
        # entry (dst, src) needs a witness with domain p and range q
        cells.setdefault((dst_slot, src_slot), []).append(edges[(p, q)])
    entries = [[s.join_of(cells.get((i, j), ())) for j in (0, 1)] for i in (0, 1)]
    try:
        x = rook_matrix(bs, entries)
    except NotRook:
        return False  # X is no rook matrix
    xs = rook_star(x)
    return (
        rook_mul(xs, x).entries == _diag(*right_diag, s.zero)
        and rook_mul(x, xs).entries == _diag(*left_diag, s.zero)
    )


@dataclass(frozen=True)
class MatrixOracle:
    partition_agrees: bool  # matrix classes == summed count-vector classes
    witnesses_verified: bool  # every merge had a checked matrix witness
    separation_ok: bool  # orthogonal representatives exist for all sums


def type_via_matrices(bs, tm):
    """Recompute the idempotent equivalence inside 2-by-2 rook matrices.

    Diagonal idempotent pairs are classed by explicit matrix reachability:
    two pairs fall together only after a witness matrix X with X*X and XX*
    the two diagonals has been constructed and multiplied out.  The
    resulting partition must agree with summed count vectors, tm's, and
    every pairwise sum must be realizable by orthogonal diagonal
    representatives.
    """
    s = bs.base
    idem, z = s.idempotents, s.zero
    if len(idem) ** 2 > MATRIX_IDEMPOTENT_CAP:
        raise TooLarge(
            f"{len(idem)}^2 = {len(idem) ** 2} diagonal idempotents, "
            f"above cap MATRIX_IDEMPOTENT_CAP={MATRIX_IDEMPOTENT_CAP}"
        )
    edges, comp = _atom_edges(bs), _atom_components(bs)

    diags = list(itertools.product(idem, repeat=2))
    slots = {diag: _slots(s, diag) for diag in diags}
    by_total = {}  # the class representatives, by slot count
    class_of = {}  # diag -> its class representative
    witnesses_verified = True
    for diag in diags:
        mine = slots[diag]
        reps = by_total.setdefault(len(mine), [])
        for rep in reps:
            pairs = _match_slots(slots[rep], mine, comp)
            if pairs is not None:
                witnesses_verified &= _witness_verified(bs, pairs, rep, diag, edges)
                class_of[diag] = rep
                break
        else:
            reps.append(diag)
            class_of[diag] = diag

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    # the classes and the summed count vectors are one partition when
    # class -> sum is a function and one to one
    sums = {(e, f): add(tm.tau[e], tm.tau[f]) for e, f in diags}
    classed = {(class_of[diag], sums[diag]) for diag in diags}
    partition_agrees = (
        len(classed) == len(set(class_of.values())) == len(set(sums.values()))
    )

    # diag(e, 0) and diag(0, f) are orthogonal, their join diag(e, f) must
    # sum tau[e] and tau[f], and diag(0, f) is reached from diag(f, 0) by
    # the single-entry shift matrix with f at (1, 0)
    jt = s.join_table
    separation_ok = all(
        sums[(jt[e][z], jt[z][f])] == sums[(e, f)] for e, f in diags
    )
    for f in idem:
        y = rook_matrix(bs, [[z, z], [f, z]])
        ys = rook_star(y)
        if not (
            rook_mul(ys, y).entries == _diag(f, z, z)
            and rook_mul(y, ys).entries == _diag(z, f, z)
            and class_of[(f, z)] == class_of[(z, f)]
        ):
            separation_ok = False

    return MatrixOracle(
        partition_agrees=partition_agrees,
        witnesses_verified=witnesses_verified,
        separation_ok=separation_ok,
    )


def mu_type_invariance(bs, tm, mu, tm_q):
    """The type data survives the maximum idempotent-separating quotient.

    tm and mu are the caller's type monoid and mu_and_quotient of bs, and
    tm_q is the type monoid of mu's quotient (tm itself when bs is
    fundamental).
    """
    if tm.rank != tm_q.rank:
        return False
    proj = mu.mu
    match = []
    for comp in tm.atomic_idempotents:
        images = {proj[e] for e in comp}
        targets = [
            i for i, c in enumerate(tm_q.atomic_idempotents) if images & c
        ]
        if len(targets) != 1 or not images <= tm_q.atomic_idempotents[targets[0]]:
            return False
        match.append(targets[0])
    if sorted(match) != list(range(tm_q.rank)):
        return False
    for e in bs.base.idempotents:
        vec_s = tm.tau[e]
        vec_q = tm_q.tau[proj[e]]
        if any(vec_s[i] != vec_q[match[i]] for i in range(tm.rank)):
            return False
    return True
