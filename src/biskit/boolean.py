"""Boolean inverse semigroups: joins, complements, ideals, local
bisections and the atoms groupoid.

A BoolInvSgp wraps a validated InvSgp that has passed check_boolean: all
compatible pairs have joins, multiplication distributes over them, and every
idempotent interval is complemented.  The complement witnesses found during
the check are tabulated and drive the relative complement of arbitrary
elements.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb, factorial
from operator import and_, itemgetter, or_

from .core import (
    InvSgp,
    _IdRows,
    _dr_classes,
    _form,
    _mask,
    _on_generator_sides,
    _on_generators,
    _picker,
    _translation_failure,
    _view,
    check_congruence,
    congruence_from_key,
    quotient_table,
    table_product,
)
from .errors import (
    CertificateFailed,
    NoZero,
    NotAnIdeal,
    NotBelow,
    NotBoolean,
    NotCompatible,
    NotMultiplicative,
    NotZeroPreserving,
    TooLarge,
    ZeroIdempotent,
)
from .groupoid import Gpd


@dataclass(frozen=True)
class BooleanCheck:
    boolean: bool
    failure: tuple | None  # (kind, ids...) naming the first violation
    structure: "BoolInvSgp | None"


class BoolInvSgp:
    """A finite Boolean inverse semigroup (hence monoid) over an InvSgp."""

    def __init__(self, base, complement, top):
        self.base = base
        self.complement = complement  # (f, e) with e <= f, both idempotent -> f minus e
        self.top = top  # identity element; None only in a hand-built wrapper
        self.size = base.size
        self.zero = base.zero
        self.ideal_carriers = set()  # carriers _ideal_witness has passed

    def __repr__(self):
        return f"BoolInvSgp(size={self.size})"

    @cached_property
    def rc_table(self):
        """rc_table[x][y] is the relative complement x minus y when y <= x,
        and None when y is not below x.

        x minus y is x * (d(x) minus d(y)); the idempotent complement comes
        from the witness table built by check_boolean.  A y in down[x] with
        no witness for (d(x), d(y)), as when down is overwritten after
        validation, is not below x either.
        """
        b = self.base
        out = []
        for x, row in enumerate(b.table):
            entries = [None] * self.size
            for y in b.down[x]:
                c = self.complement.get((b.d[x], b.d[y]))
                entries[y] = None if c is None else row[c]
            out.append(tuple(entries))
        return tuple(out)

    @cached_property
    def rc_view(self):
        """The _view of rc_table on down: x minus y at each y <= x, no id at
        every other entry (in the tuple form, rc_table itself).  None when
        an entry read is neither None nor an id.  Only the kernel of law
        setminus-4 reads it, so analyze never builds it."""
        return _view(self.rc_table, self.size, self.base.down)

    def rc(self, x, y):
        """Relative complement x minus y, for y <= x; read off rc_table."""
        w = self.rc_table[x][y]
        if w is None:
            raise NotBelow((x, y))
        return w

    @cached_property
    def atoms_groupoid(self):
        """The atoms under the restricted product, as a groupoid G(S), built
        on first read.

        Labels give the original atom ids.  The product of two atoms, when
        domain meets range, both read off the table as the product is, is
        checked to be an atom again; CertificateFailed names a pair whose
        product is not.
        """
        s = self.base
        if s.zero is None:
            raise NoZero("atoms need a zero")
        t, inv, ats = s.table, s.inv, s.atoms
        index = {a: i for i, a in enumerate(ats)}
        m = len(ats)
        ptable = [[None] * m for _ in range(m)]
        for i, x in enumerate(ats):
            for j, y in enumerate(ats):
                if t[inv[x]][x] == t[y][inv[y]]:
                    p = t[x][y]
                    if p not in index:
                        raise CertificateFailed(("atom-product-not-atom", x, y, p))
                    ptable[i][j] = index[p]
        return Gpd(ptable, labels=ats)


def check_boolean(s):
    """Decide the Boolean axioms for s, returning witnesses on failure.

    Checks, in order: a zero exists; every compatible pair has a join;
    multiplication distributes over the joins that exist; every idempotent
    interval [0, f] has unique complements.  A table that passes has an
    identity, the join of all its idempotents; one without raises
    CertificateFailed(("no-identity",)).
    """
    if s.zero is None:
        return BooleanCheck(False, ("no-zero",), None)
    per_a, none = _partner_joins(s)
    for a, partners, joins in per_a:
        i = bisect_left(partners, a)  # the partners b >= a
        if none in joins[i:]:
            b = partners[joins.index(none, i)]
            return BooleanCheck(False, ("missing-join", a, b), None)
    failure = _distributivity_failure(s, per_a, none)
    if failure is not None:
        return BooleanCheck(False, failure, None)
    complement, jt = {}, s.join_table
    for f in s.idempotents:
        below = s.down[f]  # only idempotents lie below an idempotent
        for e in below:
            wits = [g for g in below if s.table[g][e] == s.zero and jt[e][g] == f]
            if len(wits) != 1:
                return BooleanCheck(False, ("complement", e, f), None)
            complement[(f, e)] = wits[0]
    if s.identity is None:
        # the join e of all idempotents is one: e*x = e*r(x)*x = r(x)*x = x
        raise CertificateFailed(("no-identity",))
    return BooleanCheck(True, None, BoolInvSgp(s, complement, s.identity))


def _partner_joins(s):
    """(a, the partners b of a, their joins a v b) per a, each join row
    gathered at the partners once through the join view
    (InvSgp.join_view), and the view's entry for no id.  Without a view,
    as when a join is no id, the join table is read in the tuple form."""
    rows = s.join_view or s.join_table
    form = _form(rows)
    per_a = enumerate(map(form.ids, s.compat_partners))
    return [(a, ps, form.read(ps, rows[a])) for a, ps in per_a], form.none


def _distributivity_failure(s, per_a, none):
    """The first distributivity failure over compatible pairs a <= b, or None.

    The pass (_on_generator_sides) keeps the relation x v y = z on the
    triples (a, b, a v b) of the ordered compatible pairs, as (c*a, c*b)
    can come in either order; a reversed pair without a join (none in
    _partner_joins' per_a) declines it.  Per a and side, side[a] v side[b]
    over the partners b of a is read against side at the joins a v b
    (_joins_kept, one view call for every side).  When the pass declines,
    _translation_failure names the first c, left before right:
    ("left-distributivity", c, a, b) or ("right-distributivity", a, b, c).
    """
    if not any(none in joins for _, _, joins in per_a):
        sides = []  # the sides of the pass, whose views are built in one call
        collected = _on_generator_sides(s, lambda side: sides.append(side) or True)
        if collected and _joins_kept(s, per_a)(sides):
            return None
    jt = s.join_table
    triples = (
        (a, b, jt[a][b])
        for a, partners in enumerate(s.compat_partners)
        for b in _above(partners, a - 1)  # the partners b >= a
    )
    bad = _translation_failure(s, triples, lambda x, y, j: jt[x][y] == j)
    if bad is None:
        return None
    (a, b, _), c, side = bad
    if side == "left":
        return ("left-distributivity", c, a, b)
    return ("right-distributivity", a, b, c)


def _joins_kept(s, per_a):
    """holds(sides) of _distributivity_failure's pass: side[a] v side[b] is
    side[a v b] for each (a, partners b, joins a v b) of per_a, one per id,
    and each side of sides.

    The views of all the sides are built in one call.  The partners are
    gathered through the view of a side, and their images then through
    join row side[a] of the join view (InvSgp.join_view), against the joins
    gathered through the side.  The byte view holds no id off the
    partners, so a side whose images leave them declines, and
    _translation_failure reads the join table there.  Without a view every
    side declines.
    """
    view, k = s.join_view, s.size
    if view is None:
        return lambda sides: False
    form = _form(view)
    read = form.read

    def holds(sides):
        return all(
            read(read(ps, at), view[side[a]]) == read(js, at)
            for side, at in zip(sides, form.view(sides, k))
            for a, ps, js in per_a
        )

    return holds


def as_boolean(s):
    """check_boolean that raises NotBoolean instead of reporting."""
    if isinstance(s, BoolInvSgp):
        return s
    rep = check_boolean(s)
    if not rep.boolean:
        raise NotBoolean(rep.failure)
    return rep.structure


def orthogonalize(bs, elems):
    """Turn a compatible family into an orthogonal one with the same join.

    t_i = s_i minus (join of earlier s's meet s_i).  The output is verified:
    pairwise orthogonal, t_i <= s_i, and the joins agree.  A violation raises
    CertificateFailed naming it.
    """
    s = bs.base
    elems = list(elems)
    for a, b in itertools.combinations(elems, 2):
        if b not in s.compat_partners[a]:
            raise NotCompatible((a, b))
    out = []
    sofar = None
    for x in elems:
        if sofar is None:
            out.append(x)
            sofar = x
            continue
        m = s.meet_table[sofar][x]
        if m is None:
            raise CertificateFailed(("missing-meet", sofar, x))
        out.append(bs.rc(x, m))
        sofar = s.join_of((sofar, x))
    for a, b in itertools.combinations(out, 2):
        if b not in s.orth[a]:
            raise CertificateFailed(("not-orthogonal", a, b))
    for t, x in zip(out, elems):
        if t not in s.down[x]:
            raise CertificateFailed(("not-below", t, x))
    if s.join_of(out) != s.join_of(elems):
        raise CertificateFailed(("join-differs", tuple(out), tuple(elems)))
    return tuple(out)


K_OF_GROUPOID_CAP = 4096


def _bisection_count(identities, d, r):
    """How many local bisections a groupoid has, without enumerating them.

    The groupoid is given by its identities and the domain d and range r of
    each arrow.  A local bisection picks, in each connected component, a
    partial bijection between the component's identities and one arrow per
    matched pair.  With n identities and isotropy groups of order h that is
    the sum over m of C(n, m)^2 m! h^m; the components multiply.  A count
    above K_OF_GROUPOID_CAP raises TooLarge naming the count and the cap.
    """
    loops = Counter(e for e, f in zip(d, r) if e == f)
    count = 1
    for ids in _dr_classes(identities, d, r):
        n, h = len(ids), loops[ids[0]]
        count *= sum(comb(n, m) ** 2 * factorial(m) * h**m for m in range(n + 1))
    if count > K_OF_GROUPOID_CAP:
        cap = f"K_OF_GROUPOID_CAP={K_OF_GROUPOID_CAP}"
        raise TooLarge(f"local bisection count {count} above cap {cap}")
    return count


def _bisections(g):
    """All subsets of g on which both d and r are injective.

    Enumerated as partial matchings between identities (a chosen arrow per
    matched pair), so nothing outside the result is ever generated.  Sorted
    by (size, membership) so the empty set is id 0 and singletons follow;
    KOfGroupoid relies on this order, in which a minus its largest arrow
    comes before a.  Raises TooLarge, naming the count and the cap, before
    enumerating more than K_OF_GROUPOID_CAP of them.
    """
    _bisection_count(g.identities, g.d, g.r)
    ids = g.identities
    out = []

    def rec(i, used_r, chosen):
        if i == len(ids):
            out.append(frozenset(chosen))
            return
        e = ids[i]
        rec(i + 1, used_r, chosen)  # e not in the domain image
        for f in ids:
            if f in used_r:
                continue
            for x in g.hom.get((e, f), ()):
                rec(i + 1, used_r | {f}, chosen + [x])

    rec(0, frozenset(), [])
    return sorted(out, key=lambda a: (len(a), sorted(a)))


@dataclass(frozen=True)
class KOfGroupoid:
    """The local bisections of a groupoid under the setwise product.

    A bisection b is read as the bitmask of its arrows.  r is injective on
    b, so an arrow x composes with at most one y in b, the one with r(y) =
    d(x): single[x][b], the mask of {x}*b, is one lookup in b's range dict.
    The setwise product a*b is the union over the arrows x of a of {x}*b.
    Its terms have distinct ranges, so a*b is (a - {top})*b OR-ed with
    {top}*b, top the largest arrow of a; a - {top} comes earlier in
    _bisections' (size, membership) order.  column(c) reads every b*c that
    way, and table, every product, is built on first read.  A product mask
    that is not a bisection raises CertificateFailed.
    """

    bisections: tuple  # id -> frozenset of groupoid ids
    groupoid: Gpd
    index: dict = field(compare=False, repr=False)  # bisection -> id

    @cached_property
    def _steps(self):
        """(single, steps, mask_id): steps lists (id of b - {top}, top) for
        each id b > 0, top its largest arrow; mask_id reads a mask as an id."""
        g = self.groupoid
        pt, d, r = g.ptable, g.d, g.r
        by_range = [{r[y]: y for y in b} for b in self.bisections]
        single = [
            [1 << pt[x][rb[d[x]]] if d[x] in rb else 0 for rb in by_range]
            for x in range(g.size)
        ]
        masks = [sum(1 << x for x in a) for a in self.bisections]
        mask_id = {m: i for i, m in enumerate(masks)}
        steps = []
        for m in masks[1:]:
            top = m.bit_length() - 1
            steps.append((mask_id[m ^ (1 << top)], top))
        return single, steps, mask_id

    def _ids(self, masks):
        *_, mask_id = self._steps
        try:
            return tuple(map(mask_id.__getitem__, masks))
        except KeyError as e:
            raise CertificateFailed(("product-not-a-bisection", e.args[0])) from None

    def column(self, c):
        """b*c for every id b, as ids."""
        single, steps, _ = self._steps
        at_c = [row[c] for row in single]
        col = [0]  # the empty bisection is id 0
        for rest, top in steps:
            col.append(col[rest] | at_c[top])
        return self._ids(col)

    @cached_property
    def table(self):
        """Rows of ids, table[a][b] = a*b, built a row at a time: n rows of n
        ids, each looked up by _ids, so InvSgp does not check them again
        (_IdRows)."""
        single, steps, _ = self._steps
        rows = [(0,) * (len(steps) + 1)]
        for rest, top in steps:
            rows.append(tuple(map(or_, rows[rest], single[top])))
        return _IdRows(map(self._ids, rows))

    @cached_property
    def structure(self):
        """The table validated by check_boolean on first read; a table that
        fails it raises CertificateFailed naming the failure."""
        rep = check_boolean(InvSgp(self.table))
        if not rep.boolean:
            raise CertificateFailed(("bisections-not-boolean", rep.failure))
        return rep.structure


def k_of_groupoid(g):
    """The Boolean inverse monoid of all local bisections of g.

    Product is the setwise partial product; the natural order comes out as
    inclusion and the atoms as the singletons.  Only the bisections are
    enumerated here: the table is built when first read, and validated like
    any other when structure is first read (check_boolean, else
    CertificateFailed names the failure).  Every reader of the table in
    biskit goes through structure: law finite, booleanize, the groupoid laws
    and build_Mn_G0.  rook.decompose reads neither: it checks its map
    against column products, on the generators of a validated table, and
    that proves the product it reads the validated one relabelled.
    """
    carrier = _bisections(g)
    return KOfGroupoid(tuple(carrier), g, {a: i for i, a in enumerate(carrier)})


# -- additive ideals ------------------------------------------------------


def _above(partners, a):
    """The entries of the ascending tuple partners that are greater than a."""
    return partners[bisect_right(partners, a):]


def verify_additive_ideal(bs, subset):
    """Witness that subset is not an additive ideal, or None if it is.

    Checks, in order: the zero is in; for each member a (in the subset's own
    iteration order) and each x, x*a then a*x are in; for each compatible
    pair a < b of members, their join is in.

    The products are decided on generators (_on_generator_sides): row g
    and column g of each generator g, read at the members, must lie in the
    subset.  When the pass declines, _translation_failure names the first
    witness, the members taken in subset's order, then every x.  A member's
    joins are decided by whether the joins with its compatible partners are
    in; only one that fails is scanned one b at a time.
    """
    s = bs.base
    if s.zero not in subset:
        return ("missing-zero",)
    members = subset if isinstance(subset, (set, frozenset)) else set(subset)
    inside = members.__contains__

    def holds(side):
        return all(map(inside, map(side.__getitem__, members)))

    if not _on_generator_sides(s, holds):
        bad = _translation_failure(s, ((a,) for a in subset), inside)
        if bad is not None:
            (a,), x, side = bad
            return ("left-ideal", x, a) if side == "left" else ("right-ideal", a, x)
    partners, jt = s.compat_partners, s.join_table
    for a in sorted(subset):
        # joins with every compatible member, a superset of the pairs a < b
        if all(map(inside, map(jt[a].__getitem__, filter(inside, partners[a])))):
            continue
        for b in filter(inside, _above(partners[a], a)):
            if jt[a][b] not in subset:
                return ("join", a, b)
    return None


def _ideal_witness(bs, subset):
    """verify_additive_ideal(bs, subset), read from bs.ideal_carriers when
    the same carrier has passed before.  A pass is kept once per carrier; a
    failure is not kept, as its witness follows subset's iteration order."""
    carrier = frozenset(subset)
    if carrier in bs.ideal_carriers:
        return None
    bad = verify_additive_ideal(bs, subset)
    if bad is None:
        bs.ideal_carriers.add(carrier)
    return bad


def ideal_closure(bs, gens):
    """Least additive ideal containing gens, as a frozenset: close under
    s*x*t, then joins.

    S*x*S is the union of the rows of the distinct u*x.  Each join round
    pairs the members, ascending, with their greater compatible partners
    among them, until a round adds nothing.  The result is certified with
    verify_additive_ideal, once per carrier (_ideal_witness), and
    CertificateFailed is raised if that fails.
    """
    s = bs.base
    gens = list(gens)
    if not gens:
        raise NotAnIdeal(("empty-generators",))
    t = s.table
    members = set()
    for x in gens:
        for ux in dict.fromkeys(map(itemgetter(x), t)):  # distinct u*x, by first u
            members.update(t[ux])
    partners, jt = s.compat_partners, s.join_table
    size = 0
    while size != len(members):
        size = len(members)
        snapshot = sorted(members)
        in_snapshot = frozenset(snapshot).__contains__
        for a in snapshot:
            joins = filter(in_snapshot, _above(partners[a], a))
            members.update(map(jt[a].__getitem__, joins))
    bad = _ideal_witness(bs, members)
    if bad is not None:
        raise CertificateFailed(("closure-not-an-ideal", bad))
    return frozenset(members)


def _conjugating_generators(s):
    """The generators of s when conjugation by them decides closure under
    conjugation by every id, else None.

    If a = g1*...*gn then a' = gn'*...*g1', so a'*e*a =
    gn'*(...(g1'*e*g1)...)*gn, and a set closed under conjugation by each
    generator is closed under conjugation by every id (the translation
    argument of _on_generator_sides).  That needs the table s reads to be
    associative, which Light's test on its generators shows
    (_on_generators), and s.inv to turn its products around, (m*g)' =
    g'*m' for every id m and generator g: checked one column per
    generator, as s.inv was found for the table s was built with.
    """
    t, inv = s.table, s.inv
    at_inv = _picker(inv)
    gens = []

    def carried(g):  # (m*g)' over every m, against row g' read at the m'
        gens.append(g)  # _on_generators passes each generator in turn
        return tuple(map(inv.__getitem__, map(itemgetter(g), t))) == at_inv(t[inv[g]])

    return gens if _on_generators(s, carried) else None


def idempotent_ideals(s):
    """Every set of idempotents that contains the zero and is downward
    closed, join closed, and closed under conjugation; ascending by size,
    then by members.

    Such a set holds the join m of all its members (join closed) and lies
    below it, so, being downward closed, it is the down-set of m.  The
    candidates are therefore the |E| down-sets s.down[m] of the idempotents
    m, not the 2^|E| subsets of E; each is tested for the zero, for joins (a
    pair without a join rejects it) and for conjugation e -> a'*e*a, by the
    generators a when _conjugating_generators gives them, else by every id.
    """
    t, inv, jt = s.table, s.inv, s.join_table
    conjugators = _conjugating_generators(s) or range(s.size)
    conjugations = [(t[inv[a]], a) for a in conjugators]  # (row a', a)
    out = []
    for m in s.idempotents:
        fset = frozenset(s.down[m])
        inside = fset.__contains__
        if s.zero in fset and all(
            all(map(inside, map(jt[e].__getitem__, fset)))
            and all(inside(t[row[e]][a]) for row, a in conjugations)
            for e in fset
        ):
            out.append(fset)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


def enumerate_additive_ideals(bs, idem_ideals):
    """Every additive ideal of bs, as frozensets, ascending by size, then
    by members.

    An additive ideal is determined by its idempotents (x is in exactly when
    d(x) is), so candidates are the idempotent ideals idem_ideals, the
    caller's idempotent_ideals(bs.base); each induced subset is then
    re-verified against the definition directly, unless its carrier has
    passed on bs before (_ideal_witness).
    """
    s = bs.base
    out = []
    for fset in idem_ideals:
        subset = frozenset(x for x in range(s.size) if s.d[x] in fset)
        if _ideal_witness(bs, subset) is None:
            out.append(subset)
    out.sort(key=lambda i: (len(i), sorted(i)))
    return tuple(out)


def preceq(bs, e, f):
    """Idempotent domination: e is below f in every additive ideal sense.

    Holds exactly when e lies in the least additive ideal around f, that is
    when a pencil from e to f exists: returns the atom pencil
    (_atom_pencils), checked by _check_pencil, or None when there is none.
    """
    s = bs.base
    if e == s.zero or f == s.zero:
        raise ZeroIdempotent("pencil endpoints must be nonzero idempotents")
    if not s.is_idempotent(e) or not s.is_idempotent(f):
        raise ZeroIdempotent("pencil endpoints must be idempotents")
    pencil = _atom_pencils(bs)(e, f)
    if pencil is not None:
        _check_pencil(s, pencil, e, f)
    return pencil


def _atom_pencils(bs):
    """pencil(e, f): for each idempotent atom α <= e, ascending, the first
    atom x with d(x) = α and r(x) <= f, read off the atoms groupoid's hom;
    None when some α has none.  The first arrows from each α are found once
    per f.

    An atom pencil exists exactly when any pencil does: if e is the join of
    the d(xi), with every r(xi) <= f, each atom α <= e lies below some
    d(xi), and xi*α is an atom with domain α and range below r(xi) <= f.
    """
    s, ag = bs.base, bs.atoms_groupoid
    hom, labels = ag.hom, ag.labels

    @cache
    def below(e):  # the identities of ag whose atom lies below e, ascending
        down = frozenset(s.down[e])
        return [i for i in ag.identities if labels[i] in down]

    @cache
    def arrows(f):  # arrows(f)[i]: the first arrow from i with range below f
        ends = below(f)
        return {
            i: min((hom[(i, j)][0] for j in ends if (i, j) in hom), default=None)
            for i in ag.identities
        }

    def pencil(e, f):
        p = tuple(map(arrows(f).__getitem__, below(e)))
        return None if None in p else tuple(map(labels.__getitem__, p))

    return pencil


def _check_pencil(s, pencil, e, f):
    """Raise CertificateFailed unless pencil is one from e to f: every
    range r(x) lies below f, and the domains d(x) join to e.  The
    certificates of preceq and of law toby.

    r(x) <= f is read as f in up[r(x)]: the pencil reader found x through
    down[f], so the check reads the order's other stored form."""
    for x in pencil:
        if f not in s.up[s.r[x]]:
            raise CertificateFailed(("pencil-range-not-below", x, f))
    if s.join_of(s.d[x] for x in pencil) != e:
        raise CertificateFailed(("pencil-join-differs", pencil, e))


@dataclass(frozen=True)
class ZeroSimplifying:
    holds: bool
    witness: frozenset | None  # a proper nonzero ideal when not


def is_zero_simplifying(bs, ideals):
    """No additive ideals besides {0} and everything.

    Decided from the additive ideals alone, the caller's
    enumerate_additive_ideals(bs, ...), each checked there with
    verify_additive_ideal.  On one element {0} is everything, so there is
    only one ideal and the answer is no.  The second characterisation,
    pencil domination between all nonzero idempotents, is cross-checked in
    law toby.
    """
    proper = [i for i in ideals if 1 < len(i) < bs.size]
    return ZeroSimplifying(len(ideals) == 2, proper[0] if proper else None)


# -- quotients by ideals, morphisms ---------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A map of ids.  additive and weakly_meet_preserving are decided on
    first read and kept; cached_property writes __dict__, frozen or not."""

    source: object  # InvSgp or BoolInvSgp
    target: object
    map: tuple

    def __call__(self, x):
        return self.map[x]

    @cached_property
    def additive(self):
        return is_additive_morphism(self.source, self.target, self.map)

    @cached_property
    def weakly_meet_preserving(self):
        return is_weakly_meet_preserving(self.source, self.target, self.map)


def _base(s):
    return s.base if isinstance(s, BoolInvSgp) else s


def check_multiplicative(source, target, mp):
    """Raise NotMultiplicative((a, b)) for the first pair, in lexicographic
    order, with mp[a*b] != mp[a]*mp[b].

    Decided on the source's generators (_on_generators), one column each:
    column g mapped by mp against the target's column mp[g] read at mp.
    The b with mp[a*b] = mp[a]*mp[b] for every a are closed under the
    product when both tables are associative: mp[a*g*h] = mp[a*g]*mp[h] =
    mp[a]*mp[g]*mp[h] = mp[a]*mp[g*h].  So the pass also needs Light's test
    to hold on the target's table.  Only when the pass declines are the
    pairs scanned.
    """
    s, t = _base(source), _base(target)

    def column_holds(g):
        col = tuple(map(itemgetter(mp[g]), t.table))  # x*mp[g], every x
        return [mp[ag] for ag in map(itemgetter(g), s.table)] == [col[x] for x in mp]

    if _on_generators(t, lambda h: True) and _on_generators(s, column_holds):
        return
    for a in range(s.size):
        for b in range(s.size):
            if mp[s.table[a][b]] != t.table[mp[a]][mp[b]]:
                raise NotMultiplicative((a, b))


def check_zero_preserving(source, target, mp):
    s, t = _base(source), _base(target)
    if s.zero is not None:
        if t.zero is None or mp[s.zero] != t.zero:
            raise NotZeroPreserving((s.zero,))


def is_additive_morphism(source, target, mp):
    """Multiplicative, zero-preserving, and preserves compatible joins."""
    s, t = _base(source), _base(target)
    try:
        check_multiplicative(source, target, mp)
        check_zero_preserving(source, target, mp)
    except (NotMultiplicative, NotZeroPreserving):
        return False
    for a, partners in enumerate(s.compat_partners):
        ja, ta = s.join_table[a], t.join_table[mp[a]]
        for b in partners:
            if ja[b] is not None and ta[mp[b]] != mp[ja[b]]:
                return False
    return True


def epsilon_quotient(bs, ideal):
    """Collapse an additive ideal I: relate a, b when some common lower
    bound c has both differences a minus c and b minus c in I.

    The classes come from one key: with m the join of I's idempotents and
    f = 1 minus m, a and b are related exactly when a*f = b*f.  I is closed
    under conjugation, so a*m*a^-1 <= m, whence a*m <= m*a and, with a^-1,
    m and f are central.  If a*f = b*f = c, then c lies below both, with
    a - c = a*m and b - c = b*m in I.  Conversely x in I has x*f = 0, as
    d(x) <= m; so a - c in I, for c <= a, gives a*f = c*f, since a is the
    orthogonal join c v (a - c).  CertificateFailed names the first premise
    that fails on the tables read: ("ideal-top-missing", m), m None when
    undefined; ("not-the-complement", m, f) unless f*m = 0 and f v m = 1,
    f None when 1 minus m is not tabulated;
    ("complement-not-central", f, x) at the first x with f*x != x*f;
    ("not-split-by-complement", a, a*f) unless a*f <= a, a - a*f in I.

    Returns the projection, a Morphism onto the quotient whose map sends
    each element to its class id.  The relation is verified to be an
    additive congruence whose kernel is exactly I, and the projection is
    checked weakly meet preserving; a check that fails raises
    CertificateFailed naming it.
    """
    s = bs.base
    carrier = frozenset(ideal)
    bad = _ideal_witness(bs, carrier)
    if bad is not None:
        raise NotAnIdeal(bad)

    k, t, jt = s.size, s.table, s.join_table
    m = s.zero
    for e in s.idempotents:
        if e in carrier and m is not None:
            m = jt[m][e]
    if m not in carrier:
        raise CertificateFailed(("ideal-top-missing", m))
    f = bs.rc_table[bs.top][m]
    if f is None or t[f][m] != s.zero or jt[f][m] != bs.top:
        raise CertificateFailed(("not-the-complement", m, f))
    for x, row in enumerate(t):
        if row[f] != t[f][x]:
            raise CertificateFailed(("complement-not-central", f, x))
    for a, row in enumerate(t):
        if bs.rc_table[a][row[f]] not in carrier:  # None: a*f is not below a
            raise CertificateFailed(("not-split-by-complement", a, row[f]))
    class_of = congruence_from_key(s, lambda a: t[a][f])
    bad = check_congruence(s, class_of)
    if bad is not None:
        raise CertificateFailed(("not-a-congruence", bad))
    table = quotient_table(s, class_of)
    if table == s.table:  # the zero ideal of a structure: nothing collapses
        quotient = bs
    else:
        qrep = check_boolean(InvSgp(table))
        if not qrep.boolean:
            raise CertificateFailed(("quotient-not-boolean", qrep.failure))
        quotient = qrep.structure
    proj = Morphism(bs, quotient, class_of)
    if not proj.additive:
        raise CertificateFailed(("projection-not-additive",))
    kernel = frozenset(x for x in range(k) if class_of[x] == class_of[s.zero])
    if kernel != carrier:
        raise CertificateFailed(("kernel-differs", tuple(sorted(kernel))))
    if not proj.weakly_meet_preserving:
        raise CertificateFailed(("projection-not-weakly-meet-preserving",))
    return proj


def is_weakly_meet_preserving(source, target, mp):
    """Every lower bound of two images lifts below a common lower bound.

    Decided on down-set bitsets of the target.  The target elements a pair
    (a, b) covers are those below the image of some common lower bound c;
    the pair holds when every common lower bound of mp[a] and mp[b] is
    covered.  With a meet m, the common lower bounds of a and b are the
    down-set of m, so the covered bitset is built once per m.  A pair
    without a meet takes the union over its common lower bounds itself.
    A map onto the one point 0, with 0 below every element, holds at once,
    and so does the identity onto the source's own structure, with each
    element below itself.
    """
    s, t = _base(source), _base(target)
    if t.size == 1 and set(mp) == {0} and all(s.zero in d for d in s.down):
        return True  # each pair has the lower bound 0, whose image covers t
    identity = tuple(mp) == tuple(range(s.size))
    if t is s and identity and all(c in d for c, d in enumerate(s.down)):
        return True  # each common lower bound c of a and b covers itself
    t_down = [_mask(t.down[u]) for u in range(t.size)]
    img_down = [t_down[mp[x]] for x in range(s.size)]

    def covered(lower):
        acc = 0
        for c in lower:
            acc |= img_down[c]
        return acc

    # uncovered[m]: target elements below no image of an element below m;
    # a pair without a meet reads 0 here and is decided below
    uncovered = {None: 0}
    for m, lower in enumerate(s.down):
        uncovered[m] = ~covered(lower)
    for a, meets in enumerate(s.meet_table):
        common = map(img_down[a].__and__, img_down)
        try:
            if any(map(and_, common, map(uncovered.__getitem__, meets))):
                return False
        except KeyError as e:  # a meet that is neither None nor an id
            m = e.args[0]
            raise CertificateFailed(("meet-not-an-id", a, meets.index(m), m)) from None
        if None not in meets:
            continue
        for b, m in enumerate(meets):
            if m is None:
                lower = set(s.down[a]).intersection(s.down[b])
                if img_down[a] & img_down[b] & ~covered(lower):
                    return False
    return True


def kernel_of(m):
    """The ids morphism m sends to the target's zero (none if it has no
    zero)."""
    z = _base(m.target).zero
    return frozenset(x for x, y in enumerate(m.map) if z is not None and y == z)


@dataclass(frozen=True)
class MorphismAnalysis:
    additive: bool
    kernel_carrier: frozenset
    idempotent_separating: bool
    weakly_meet_preserving: bool
    factorization: tuple | None  # (projection, embedding-like second leg)


def analyze_morphism(m, eps):
    """Break a morphism into an ideal collapse followed by an
    idempotent-separating map, checking each certified property.

    eps is the caller's epsilon_quotient of m's kernel, a projection onto
    the quotient, read only when m is additive and its kernel an additive
    ideal.  Before it is used it is checked to be over the source's table
    and to collapse exactly the kernel; otherwise, or when it is None,
    NotAnIdeal(("not-the-kernel", kernel)) is raised.  When eps is m (same
    source, target and map), its certificates are read.  An additive map is
    multiplicative and zero preserving; only one that is not is checked
    again, for the witness.  A certified property that fails raises
    CertificateFailed naming it.  The factorization m = phi . projection
    needs no check of its own: phi is read off m class by class, and
    not-constant-on-classes has compared m at every member of each class
    with the value phi takes there.
    """
    if eps is not None and eps == m:
        m = eps
    additive = m.additive
    if not additive:
        check_multiplicative(m.source, m.target, m.map)
        check_zero_preserving(m.source, m.target, m.map)
    s = _base(m.source)
    kernel_carrier = kernel_of(m)
    idem_sep = len({m.map[e] for e in s.idempotents}) == len(s.idempotents)
    wmp = m.weakly_meet_preserving
    factorization = None
    if additive and isinstance(m.source, BoolInvSgp):
        bad = _ideal_witness(m.source, kernel_carrier)
        if bad is not None:
            raise CertificateFailed(("kernel-not-an-ideal", bad))
        trivial_kernel = kernel_carrier == {s.zero}
        if trivial_kernel != idem_sep:
            raise CertificateFailed(("separation-differs-from-kernel", idem_sep))
        if (
            eps is None
            or _base(eps.source).table != s.table
            or kernel_of(eps) != kernel_carrier
        ):
            raise NotAnIdeal(("not-the-kernel", tuple(sorted(kernel_carrier))))
        phi_map = [None] * eps.target.size
        for x in range(s.size):
            c = eps.map[x]
            if phi_map[c] is None:
                phi_map[c] = m.map[x]
            elif phi_map[c] != m.map[x]:
                raise CertificateFailed(("not-constant-on-classes", x, c))
        phi = Morphism(eps.target, m.target, tuple(phi_map))
        check_multiplicative(eps.target, m.target, phi.map)
        qidem = eps.target.base.idempotents
        if len({phi.map[e] for e in qidem}) < len(qidem):
            raise CertificateFailed(("second-factor-not-idempotent-separating",))
        factorization = (eps, phi)
    return MorphismAnalysis(
        additive=additive,
        kernel_carrier=kernel_carrier,
        idempotent_separating=idem_sep,
        weakly_meet_preserving=wmp,
        factorization=factorization,
    )


def direct_product(bs, bt):
    """Componentwise product structure; pair (a, b) has id b*|S| + a.

    The product is checked Boolean and both projections additive
    morphisms; a check that fails raises CertificateFailed naming it.
    """
    s, t = bs.base, bt.base
    prod = InvSgp(table_product(s, t))
    rep = check_boolean(prod)
    if not rep.boolean:
        raise CertificateFailed(("product-not-boolean", rep.failure))
    left = tuple(i % s.size for i in range(prod.size))
    right = tuple(i // s.size for i in range(prod.size))
    if not is_additive_morphism(rep.structure, bs, left):
        raise CertificateFailed(("projection-not-additive", "left"))
    if not is_additive_morphism(rep.structure, bt, right):
        raise CertificateFailed(("projection-not-additive", "right"))
    return rep.structure
