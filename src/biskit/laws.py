"""Registry of named law checks, driven by cmd_verify and the test suite.

Each law quantifies an identity or a structural claim over all applicable
tuples of one structure and returns the first counterexample as a witness
tuple, or None.  Laws are grouped by what they need: any inverse semigroup,
one with zero, a Boolean one (a finite Boolean table is a monoid), or a
groupoid.  A law that cannot run at the instance's size reports a skip,
never a silent pass.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import contains, getitem, itemgetter

from .boolean import (
    BooleanCheck,
    BoolInvSgp,
    Morphism,
    _above,
    _atom_pencils,
    _check_pencil,
    analyze_morphism,
    check_boolean,
    enumerate_additive_ideals,
    epsilon_quotient,
    ideal_closure,
    idempotent_ideals,
    is_weakly_meet_preserving,
    is_zero_simplifying,
    k_of_groupoid,
    kernel_of,
    orthogonalize,
)
from .booleanization import (
    FILTER_SCAN_CAP,
    _is_filter,
    booleanize,
    enumerate_filters,
    filter_groupoid,
    gamma_extension,
    principal_map_is_iso,
)
from .core import (
    CONGRUENCE_SCAN_CAP,
    _Bytes,
    _Tuples,
    _checked_meets,
    _first_split,
    _form,
    _is_additive_congruence,
    _mask,
    _on_generator_sides,
    _on_generators,
    _picker,
    _positions,
    _restricted_product_kept,
    _translation_failure,
    all_congruences,
    d_relation_idempotents,
    is_fundamental,
    mu_and_quotient,
)
from .errors import (
    BiskitError,
    NotBelow,
    NotBoolean,
    NotCompatible,
    TooLarge,
    Undecided,
)
from .groupoid import (
    Gpd,
    group_name,
    groupoid_iso,
    is_connected,
    is_principal,
    reconstruct,
)
from .rook import (
    decompose,
    identity_rook,
    rook_matrices,
    rook_mul,
    rook_star,
    theta_iso,
)
from .typemon import (
    ideal_triple,
    mu_type_invariance,
    refinement_check,
    type_monoid,
    type_via_matrices,
)

ROOK_ENUM_CAP = 4  # brute-force 2x2 matrix enumeration is |S|^4 candidates


class _Skip(Exception):
    """Raised inside a law to report inapplicability at this size."""


def _skip_above(s, cap, name, what):
    """Skip, naming the cap and the carrier size, when s is larger than cap."""
    if s.size > cap:
        raise _Skip(f"{what} capped at {name}={cap}, carrier has {s.size} elements")


@dataclass(frozen=True)
class LawResult:
    key: str
    status: str  # "pass" | "fail" | "skip"
    witness: tuple | None = None
    note: str | None = None
    seconds: float = field(default=0.0, compare=False)  # time the law took


class Analysis:
    """One structure and the results derived from it, each computed once.

    cli.build_report and every law read these properties instead of calling
    the builders again, and the builders that need one of them take it as
    a required argument, so each is computed here only.  Only results more
    than one reader needs are kept.
    """

    def __init__(self, s):
        if isinstance(s, BoolInvSgp):
            self.s, self.bs, self.check = s.base, s, BooleanCheck(True, None, s)
        else:
            self.s = s

    @cached_property
    def check(self):
        """check_boolean's verdict, or None without a zero."""
        return check_boolean(self.s) if self.s.zero is not None else None

    @cached_property
    def bs(self):
        return self.check.structure if self.check else None

    @cached_property
    def setminus_2_on_generators(self):
        """_setminus_2_on_generators: law setminus-2's decision, and a
        premise of law setminus-4's pass."""
        return _setminus_2_on_generators(self.bs)

    @cached_property
    def atom_splits(self):
        """_atom_splits of the tables laws definition and eggs read."""
        return _atom_splits(self.bs)

    @cached_property
    def filter_order(self):
        """_filter_order of the tables laws carre and discrete-topology read."""
        return _filter_order(self.s)

    @cached_property
    def fundamental(self):
        return is_fundamental(self.s).fundamental

    @cached_property
    def atom_set(self):
        return set(self.s.atoms)

    @cached_property
    def idem_ideals(self):
        return idempotent_ideals(self.s)

    @cached_property
    def ideals(self):
        return enumerate_additive_ideals(self.bs, self.idem_ideals)

    @cached_property
    def zero_simplifying(self):
        return is_zero_simplifying(self.bs, self.ideals).holds

    @cached_property
    def eps_projections(self):
        """(ideal, its epsilon_quotient projection), per additive ideal."""
        return [(i, epsilon_quotient(self.bs, i)) for i in self.ideals]

    @cached_property
    def filters(self):
        return enumerate_filters(self.s)

    @cached_property
    def tm(self):
        return type_monoid(self.bs)

    @cached_property
    def triple(self):
        return ideal_triple(self.bs, self.tm, self.ideals, self.idem_ideals)

    @cached_property
    def decomposition(self):
        return decompose(self.bs)

    @cached_property
    def mu(self):
        return mu_and_quotient(self.s)

    @cached_property
    def mu_check(self):
        q = self.mu.quotient
        return self.check if q is self.s else check_boolean(q)

    @cached_property
    def mu_tm(self):
        check = self.mu_check
        if not check.boolean:
            raise NotBoolean(check.failure)
        return self.tm if check.structure is self.bs else type_monoid(check.structure)

    @cached_property
    def congruences(self):
        return all_congruences(self.s)


# -- laws on any inverse semigroup ------------------------------------------


def law_l_and_r_order(c):
    s = c.s
    for a in range(s.size):
        da = s.down[a]
        for x in da:
            for y in da:
                if x < y and s.d[x] == s.d[y]:
                    return (a, x, y)
    return None


def law_order_dr_monotone(c):
    s = c.s
    for a in range(s.size):
        for b in s.up[a]:
            if s.d[a] not in s.down[s.d[b]] or s.r[a] not in s.down[s.r[b]]:
                return (a, b)
    return None


def law_wedge(c):
    """a meet b = a*d(b) for every compatible pair (a, b).

    With the meet view (InvSgp.meet_view) row a is two gathers at the
    partners b of a: meet row a, against row a gathered at d.  A meet that
    is None reads as no id, never a product.  When a row differs, or
    without a view, _wedge_scan names the first witness (a, b, a meet b)."""
    s = c.s
    if (meets := s.meet_view) is not None:
        form = _form(meets)
        read, (d_at,) = form.read, form.view((s.d,), s.size)
        rows = zip(map(form.ids, s.compat_partners), meets, s.view)
        if all(read(ps, m) == read(read(ps, d_at), t) for ps, m, t in rows):
            return None
    return _wedge_scan(s)


def _wedge_scan(s):
    """law wedge pair by pair: the first (a, b, a meet b) that fails, b
    ascending within a, or None."""
    for a in range(s.size):
        for b in s.compat_partners[a]:
            m = s.meet_table[a][b]
            if m is None or m != s.table[a][s.d[b]]:
                return (a, b, m)
    return None


def _fish_on_generators(s):
    """True when u*(a meet b) = (u*a) meet (u*b), the right side defined,
    for every pair (a, b) with a meet and every u.

    Decided on generators (_on_generators): the u for which this holds are
    closed under the product, as (g*h)*(a meet b) = g*(h*a meet h*b) =
    g*h*a meet g*h*b, (h*a, h*b) having a meet again.  For each generator g
    and each a, meet row g*a is gathered at row g read at the b with a
    meet, against row g gathered at the meets of row a (_fish_kept).
    Without a meet view it declines.
    """
    return s.meet_view is not None and _on_generators(s, _fish_kept(s))


def _fish_kept(s):
    """holds(g) of _fish_on_generators through the meet view: for each a,
    the b with a meet are gathered through row g and then through meet row
    g*a, against the meets of row a gathered through row g.  Where meet
    row a is total, as on every row of I5, the b are every id, so meet row
    g*a is read at row g itself, by one gather of row g made once per
    generator.  A meet of g*a that is None reads as no id, never a
    product."""
    t, rows, meets, k = s.table, s.view, s.meet_view, s.size
    form = _form(meets)
    gather, read = form.gather, form.read
    per_a = [  # (the b with a meet, or None when every b has one; their meets)
        (None if len(at) == k else gather(at), gather(m))
        for at, m in form.defined(meets)
    ]

    def holds(g):
        row_g = rows[g]
        at_g = gather(row_g[:k])
        return all(
            (at_g(meets[ga]) if at is None else read(at(row_g), meets[ga]))
            == at_meets(row_g)
            for ga, (at, at_meets) in zip(t[g], per_a)  # ga = g*a
        )

    return holds


def _fish_scan(s):
    """law fish on every pair (a, b) with a meet, then every u: the first
    (u, a, b) that fails, or None."""
    for a in range(s.size):
        for b in range(s.size):
            m = s.meet_table[a][b]
            if m is None:
                continue
            for u in range(s.size):
                if s.meet_table[s.table[u][a]][s.table[u][b]] != s.table[u][m]:
                    return (u, a, b)
    return None


def law_fish(c):
    """u*(a meet b) = (u*a) meet (u*b): _fish_on_generators, else
    _fish_scan, which names the witness.  Each generator's row is read
    through the meet view (_fish_kept).  A meet that is no id fails the
    law (_checked_meets)."""
    _checked_meets(c.s)
    if _fish_on_generators(c.s):
        return None
    return _fish_scan(c.s)


def _down_sets_multiply(s):
    """multiplies(a, b): the setwise product down(a)*down(b) is down(a*b)."""
    t, down, chain = s.table, s.down, itertools.chain.from_iterable
    pick = list(map(_picker, down))  # pick[b](row): row at down[b]
    rows = [[t[x] for x in d] for d in down]  # rows[a]: the rows of down[a]
    below = list(map(frozenset, down))
    return lambda a, b: set(chain(map(pick[b], rows[a]))) == below[t[a][b]]


def _down_set_products(s, multiplies):
    """(a, b, "down-set-product") for the first a, then b, with not
    multiplies(a, b), or None."""
    ids = range(s.size)
    bad = ((a, b) for a in ids for b in ids if not multiplies(a, b))
    return next(((a, b, "down-set-product") for a, b in bad), None)


def law_restricted_product(c):
    """Every product a*b is a2*b2 with a2 = a*r(b) <= a, b2 = d(a)*b <= b
    and d(a2) = r(b2), and down(a)*down(b) = down(a*b) setwise.

    Decided through the table's view, once Light's test has certified the
    table associative (_on_generators): then a2*b2 = (a*e)*b2 = a*(e*b2)
    for e = r(b), so the products a2*b2 over every b are row a read at the
    e*b2, which depend on a only through f = d(a)
    (core._restricted_product_kept).  When that declines,
    _restricted_product_scan names the witness."""
    s = c.s
    if _restricted_product_kept(s):
        return None
    return _restricted_product_scan(s)


def _restricted_product_scan(s):
    """Law restricted-product pair by pair: the first (a, b), b ascending
    within a, whose a2, b2 fail, or else the first (a, b,
    "down-set-product"), or None."""
    t, down, d, r = s.table, s.down, s.d, s.r
    for a, row in enumerate(t):
        for b, ab in enumerate(row):
            a2, b2 = row[r[b]], t[d[a]][b]
            ordered = a2 in down[a] and b2 in down[b]
            if not (ordered and d[a2] == r[b2] and t[a2][b2] == ab):
                return (a, b)
    return _down_set_products(s, _down_sets_multiply(s))


def law_mu_separating(c):
    mu_cls = c.mu.mu  # construction re-checks congruence and separation
    what = "construction verified, maximality scan"
    _skip_above(c.s, CONGRUENCE_SCAN_CAP, "CONGRUENCE_SCAN_CAP", what)
    es = c.s.idempotents
    for cls in c.congruences:
        separating = len(set(map(cls.__getitem__, es))) == len(es)
        if separating and (split := _first_split(cls, mu_cls)):
            return split
    return None


def law_universal_groupoid(c):
    """Every proper filter is principal: a raw scan of all 2^k subsets for
    a filter missing from enumerate_filters, which is the witness."""
    s = c.s
    _skip_above(s, FILTER_SCAN_CAP, "FILTER_SCAN_CAP", "raw subset scan")
    principal = {frozenset(s.up[x]) for x in c.filters.proper}
    for m in range(1, 1 << s.size):
        subset = frozenset(i for i in range(s.size) if m >> i & 1)
        if s.zero not in subset and subset not in principal and _is_filter(s, subset):
            return (tuple(sorted(subset)),)
    return None


def _filter_order(s):
    """True when these hold on s.up, s.inv and s.table, writing a <= b for
    b in up[a]; False when one fails:
      P1  the up-sets are pairwise distinct, and a <= a;
      P2  a <= b implies up[b] lies within up[a];
      P3  a <= b implies a' <= b';
      P4  a <= b implies a*y <= b*y and y*a <= y*b, for each y.
    P4 is decided on generators (_on_generator_sides).  Then x >= a and
    y >= b give x*y >= a*y >= a*b (P2), and the up-closure of up[a]*up[b],
    which holds a*b (P1), is up[a*b].  With P3 the domain filter of up[a]
    is up[a'*a], and the range filter of up[b] is up[b*b'], so by P1
    up[a]*up[b] is defined exactly when a'*a = b*b': x -> up[x] is then an
    isomorphism from the restricted groupoid on the nonzero ids onto the
    filter groupoid.
    """
    inv, up = s.inv, s.up
    masks = [_mask(u) for u in up]
    if len(set(masks)) < s.size or not all(m >> a & 1 for a, m in enumerate(masks)):
        return False
    pairs = [(a, b) for a, ups in enumerate(up) for b in ups]
    if any(masks[b] & ~masks[a] or not masks[inv[a]] >> inv[b] & 1 for a, b in pairs):
        return False
    return _on_generator_sides(
        s, lambda side: all(masks[side[a]] >> side[b] & 1 for a, b in pairs)
    )


def law_carre(c):
    """x -> up[x] is an isomorphism from the nonzero elements under the
    restricted product onto the proper filters under the up-closed setwise
    product.  When the order is compatible with product and inversion
    (_filter_order) and the proper filters are the up[x] of the nonzero x,
    up[a]*up[b] closes up to up[a*b], defined exactly when a'*a = b*b', so
    the filter groupoid is the restricted groupoid; else the setwise scan
    builds it."""
    s = c.s
    nonzero = s.nonzero()
    if c.filter_order and c.filters.proper == nonzero:
        fg = s.restricted_groupoid
    else:
        fg = filter_groupoid(s, c.filters.proper)
    if not principal_map_is_iso(s, nonzero, fg):
        return ("filter-groupoid-mismatch",)
    return None


def law_booleanization_finite(c):
    b = booleanize(c.s)
    gamma = gamma_extension(b, b.beta, b.bs)
    n = b.bs.size
    if gamma.map != tuple(range(n)):
        return ("unit-extension-not-identity",)
    return None


# -- laws needing a zero -----------------------------------------------------


def law_atom_idempotent(c):
    s = c.s
    ats = c.atom_set
    for a in range(s.size):
        if (a in ats) != (s.d[a] in ats):
            return (a, s.d[a])
    for block in d_relation_idempotents(s):
        flags = {e in ats for e in block}
        if len(flags) > 1:
            return tuple(sorted(block))
    return None


def _oj_on_generators(s):
    """True when (u*a, u*b) and (a*u, b*u) are orthogonal for every
    orthogonal pair (a, b) and every u, by _on_generator_sides: row g and
    column g of each generator g, read at the orthogonal pairs."""
    elems, orth = range(s.size), s.orth
    pairs = [(a, b) for a in elems for b in itertools.compress(elems, orth[a])]
    if not pairs:
        return False
    at_a, at_b = (_picker(ids) for ids in zip(*pairs))

    def holds(side):
        return all(map(getitem, map(orth.__getitem__, at_a(side)), at_b(side)))

    return _on_generator_sides(s, holds)


def law_oj(c):
    """Orthogonality survives multiplying on either side: _oj_on_generators,
    else _translation_failure over the orthogonal pairs (a, b), which names
    the witness (a, b, u, side)."""
    s = c.s
    if _oj_on_generators(s):
        return None
    elems, orth = range(s.size), s.orth
    pairs = ((a, b) for a in elems for b in itertools.compress(elems, orth[a]))
    bad = _translation_failure(s, pairs, lambda x, y: orth[x][y])
    if bad is None:
        return None
    (a, b), u, side = bad
    return (a, b, u, side)


def law_buffs(c):
    s = c.s
    for a in range(s.size):
        for b in s.compat_partners[a]:
            o = s.orth[a][b]
            if o != s.orth[s.d[a]][s.d[b]] or o != s.orth[s.r[a]][s.r[b]]:
                return (a, b)
    return None


# -- laws needing a Boolean structure ----------------------------------------


def _atom_splits(bs):
    """The split (x, y, α) of each x with two or more atoms below it, when
    the premises below hold on the tables read; else None.

    Write beta(x) for the bitmask of the atoms in down[x], bit i standing
    for atoms[i]; it serves only as a labelling of the ids.  Checked:
      B1  beta is injective;
      B2  beta(0) = 0, and beta(atoms[i]) = 1 << i;
      B3  join_table[p][q] is the id whose beta is beta(p) | beta(q), or
          None when there is none, for every p and q (_joins_are_unions,
          by translates in the byte form);
      B4  for each x with two or more bits, α is the atom of its highest
          bit, y = x - α (rc_table), and beta(y) = beta(x) without α.
    By B1 and B2 only 0 has no bit and only the atoms have one, so the
    splits reach every other x, and |beta(y)| = |beta(x)| - 1.
    """
    s = bs.base
    atoms, jt, rct = s.atoms, s.join_table, bs.rc_table
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    beta = [sum(map(bit.__getitem__, bit.keys() & down)) for down in s.down]
    owner = {b: x for x, b in enumerate(beta)}
    if len(owner) < s.size or beta[s.zero] or any(beta[a] != b for a, b in bit.items()):
        return None
    if not _joins_are_unions(s, beta, owner):
        return None
    splits = []
    for x, b in enumerate(beta):
        if b & (b - 1):
            a = atoms[b.bit_length() - 1]
            y = rct[x][a]
            if y is None or beta[y] != b ^ bit[a]:
                return None
            splits.append((x, y, a))
    return splits


def _joins_are_unions(s, beta, owner):
    """B3 of _atom_splits, given B1 and B2: join_table[p][q] is U(p, q),
    the id whose beta is beta(p) | beta(q), or None when there is none.

    In the byte form of the table's view (core._Bytes), and when premise D
    holds on beta, each row U(x, .) is one bytes.translate of an earlier
    row, 255 standing for None:
      D   every beta(x) without any one of its bits is beta(y) for an id y.
    The views of rows 0 and of the atoms are looked up in owner, in one
    call.  For x with two or more bits, α the atom of its highest bit and y
    the id of beta(x) without it (D), U(x, .) is U(y, .) read through
    U(α, .), 255 to 255, and beta(y) < beta(x), so rows are built by
    ascending beta.  D makes this exact.  Where U(y, q) = w, beta(w) =
    beta(y) | beta(q) (B1), so U(α, w) = U(x, q).  Where U(y, q) is None,
    U(x, q) is None too: beta(x) | beta(q) is beta(y) | beta(q) when q has
    α's bit, and otherwise it loses that bit to beta(y) | beta(q), no beta,
    so by D it is no beta either.

    Join row x is then read where U(x, .) is defined and compared as bytes,
    and it must hold None at every other q: as many Nones as U(x, .) has
    bytes 255 below k.  Without D, and in the tuple form, whose U rows hold
    None and so cannot index a gather, _joins_are_unions_by_rows decides.
    """
    k, jt = s.size, s.join_table
    bits = ((b, 1 << i) for b in owner for i in range(b.bit_length()) if b >> i & 1)
    if _form(s.view) is _Tuples or not all(b ^ bit in owner for b, bit in bits):
        return _joins_are_unions_by_rows(jt, beta, owner)
    get, rows = owner.get, [None] * k
    ones = [(b, x) for b, x in owner.items() if not b & (b - 1)]  # 0 and the atoms
    made = _Bytes.view([tuple(map(get, map(b.__or__, beta))) for b, _ in ones], k)
    for (_, x), row in zip(ones, made):
        rows[x] = row
    for b, x in sorted(owner.items()):
        if b & (b - 1):  # two or more bits
            top = 1 << (b.bit_length() - 1)
            rows[x] = rows[owner[b ^ top]].translate(rows[owner[top]])
    for (at, joins_u), row in zip(_Bytes.defined(rows), jt):
        try:
            joins = bytes(_picker(at)(row))  # raises at a None or a non-byte
        except (TypeError, ValueError):
            return False
        if joins != joins_u or row.count(None) != k - len(at):
            return False
    return True


def _joins_are_unions_by_rows(jt, beta, owner):
    """_joins_are_unions without premise D, or in the tuple form: row p of
    the join table against owner read at beta(p) | beta(q), for every q."""
    get = owner.get
    return all(tuple(map(get, map(b.__or__, beta))) == row for b, row in zip(beta, jt))


def _definition_by_atoms(s, splits):
    """True when law definition holds, shown from splits, the checked
    _atom_splits (Analysis.atom_splits), and these, checked on the tables
    read:
      D1  the zero row and the zero column of the table are all 0;
      D2  every compatible pair has a join;
      D3  for each generator g, row g and column g keep the splits: side[x]
          is the join (jt) of side[y] and side[α] for each split (x, y, α),
          decided by _on_generator_sides.
    Let P(u) say that for every x, beta(u*x) is the union of the beta(u*β)
    over the atoms β <= x.  D3 on row u gives P(u), by induction on
    |beta(x)|: x = 0 by D1, an atom at once, and else u*x = (u*y) v (u*α)
    by D3, whose beta is beta(u*y) | beta(u*α) by B3.  P(u) and P(v) give
    P(u*v): by P(v) at x, the atoms below v*x are those below the v*β, so
    P(u) at v*x and at each v*β gives beta(u*(v*x)) as the union of the
    beta(u*(v*β)), and Light's test makes u*(v*x) = (u*v)*x.  So P holds
    for every u, each a product of generators (_on_generators).  Then for a
    compatible (a, b), with j = a v b (D2) and beta(j) = beta(a) | beta(b)
    (B3), beta(u*j) = beta(u*a) | beta(u*b): an id has that beta, so B3
    makes (u*a) v (u*b) defined and equal to u*j.  The right side is the
    mirror image, from column g.  No join is assumed a least upper bound,
    and no product is assumed to keep a pair compatible.
    """
    if splits is None:
        return False
    t, jt, z = s.table, s.join_table, s.zero
    if set(t[z]) != {z} or set(map(itemgetter(z), t)) != {z}:
        return False
    if any(None in map(row.__getitem__, ps) for row, ps in zip(jt, s.compat_partners)):
        return False

    def holds(side):
        return all(jt[side[y]][side[a]] == side[x] for x, y, a in splits)

    return _on_generator_sides(s, holds)


def law_definition(c):
    """Multiplication distributes over compatible joins on both sides:
    _definition_by_atoms, else _translation_failure over the compatible
    pairs (a, b), in order, which names the witness (u, a, b, "left") or
    (a, b, u, "right"); or (a, b, "missing-join") at the first pair without
    a join, when no earlier pair fails.  This law is the first reader of
    Analysis.atom_splits, whose join premise B3 is a kernel
    (_joins_are_unions)."""
    s = c.bs.base
    if _definition_by_atoms(s, c.atom_splits):
        return None
    jt = s.join_table
    pairs = [(a, b, jt[a][b]) for a, ps in enumerate(s.compat_partners) for b in ps]
    joined = itertools.takewhile(lambda abj: abj[2] is not None, pairs)
    bad = _translation_failure(s, joined, lambda x, y, j: jt[x][y] == j)
    if bad is not None:
        (a, b, _), u, side = bad
        return (u, a, b, "left") if side == "left" else (a, b, u, "right")
    return next(((a, b, "missing-join") for a, b, j in pairs if j is None), None)


def law_meets_semisimple(c):
    """The first (a, b), row by row, without a meet; or None."""
    for a, row in enumerate(c.bs.base.meet_table):
        if None in row:
            return (a, row.index(None))
    return None


def _eggs_pairs_by_atoms(s, splits):
    """True when law eggs holds on every pair and every triple, shown from
    splits, the checked _atom_splits (Analysis.atom_splits), and these,
    checked on the tables read:
      E1  every meet is defined;
      E2  the meet table equals its transpose;
      E3  the zero row of the meet table is all 0;
      E4  row x of the meet table is the entrywise join of rows y and α,
          for each split (x, y, α).
    As for _definition_by_atoms, by E3, E4 and B3 beta(x meet u) is the
    union of the beta(β meet u) over the atoms β <= x.  So for a pair with
    j = a v b, beta(j) = beta(a) | beta(b) (B3) and, by E2, beta(u meet j)
    = beta(a meet u) | beta(b meet u): by B3 that is the join of the two
    meets, all defined by E1.  A triple splits the same way: with
    j = (a v b) v c, beta(j) = beta(a) | beta(b) | beta(c) by B3 twice, so
    beta(u meet j) = beta(a meet u) | beta(b meet u) | beta(c meet u); by
    the pair case and B3 that is the join of u meet (a v b) and c meet u.

    E1 is read off the meet view (InvSgp.meet_view), no meet being no id;
    E4 is _meets_extend.  Without a view it declines.
    """
    k, mt, z, meets = s.size, s.meet_table, s.zero, s.meet_view
    if splits is None or meets is None:
        return False
    none = _form(meets).none
    if any(none in row[:k] for row in meets) or list(map(tuple, mt)) != list(zip(*mt)):
        return False
    return set(mt[z]) == {z} and _meets_extend(s, splits)


def _meets_extend(s, splits):
    """E4 of _eggs_pairs_by_atoms, given E1: row x of the meet table is the
    entrywise join of rows y and α, for each split (x, y, α).

    When row α of the meet table holds only z and α for each atom α of a
    split, α meet u is α or z, so the join of rows y and α is row y read
    through join column α at the u where row α holds α, and through join
    column z at the others: per split, rows x and y are gathered at each
    of the two sets of u, the positions found once per atom, and row y's
    images gathered through the column.  A join that is None reads as no
    id, never a meet.  Otherwise, or when a join is no id, it declines.
    """
    jt, z, meets, k = s.join_table, s.zero, s.meet_view, s.size
    form = _form(meets)
    read = form.read
    alphas = sorted({a for _, _, a in splits})
    cols = form.view([tuple(map(itemgetter(a), jt)) for a in (z, *alphas)], k)
    if cols is None or any(set(meets[a][:k]) - {z, a} for a in alphas):
        return False

    def at(a, m):  # the u where row α holds m, as a gather
        return form.gather(form.ids(_positions(meets[a][:k], m)))

    per_atom = {  # α: the u with α meet u = α, then the others, as gathers
        a: (at(a, a), col_a, at(a, z), cols[0]) for a, col_a in zip(alphas, cols[1:])
    }
    for x, y, a in splits:
        at_a, col_a, at_z, col_z = per_atom[a]
        mx, my = meets[x], meets[y]
        if at_a(mx) != read(at_a(my), col_a) or at_z(mx) != read(at_z(my), col_z):
            return False
    return True


def _eggs_scan(s, m):
    """law eggs on its m-tuples a < b [< c] whose join (a v b) [v c] is
    defined, in lexicographic order, then every u with u meet that join
    defined: the first witness, or None."""
    mt, jt = s.meet_table, s.join_table
    for combo in itertools.combinations(range(s.size), m):
        j = combo[0]
        for x in combo[1:]:
            j = jt[j][x]
            if j is None:
                break
        if j is None:
            continue
        for u in range(s.size):
            rhs = mt[combo[0]][u]  # the join of the x meet u, None if one is
            for x in combo[1:]:
                mx = mt[x][u]
                rhs = None if rhs is None or mx is None else jt[rhs][mx]
            if mt[u][j] is not None and rhs != mt[u][j]:
                return combo + (u,)
    return None


def law_eggs(c):
    """Meets distribute over the joins of pairs and triples: for every u,
    u meet (x v y [v z]) = (x meet u) v (y meet u) [v (z meet u)].
    Decided by _eggs_pairs_by_atoms, which covers triples too, its meet
    premise E4 read through the meet view (_meets_extend); when
    it declines, _eggs_scan names the first witness, pairs before
    triples.  A meet that is no id fails the law (_checked_meets)."""
    s = c.bs.base
    _checked_meets(s)
    if _eggs_pairs_by_atoms(s, c.atom_splits):
        return None
    return _eggs_scan(s, 2) or _eggs_scan(s, 3)


def law_chicken(c):
    bs = c.bs
    s = bs.base
    for x in range(s.size):
        for y in s.down[x]:
            w = bs.rc(x, y)
            if not (
                s.orth[y][w]
                and s.join_table[y][w] == x
                and s.d[w] == bs.rc(s.d[x], s.d[y])
                and s.r[w] == bs.rc(s.r[x], s.r[y])
            ):
                return (x, y)
    return None


def law_pork(c):
    bs = c.bs
    s = bs.base
    mt = _checked_meets(s)
    for x in range(s.size):
        for y in s.compat_partners[x]:
            m = mt[x][y]
            w = bs.rc(x, m)
            if not s.orth[w][y]:
                return (x, y, "not-orthogonal")
            if s.join_table[w][y] != s.join_table[x][y]:
                return (x, y)
    return None


def law_orthogonal(c):
    """orthogonalize certifies its result (raising on any violated post) for
    every pairwise compatible pair, then triple, of nonzero elements, in
    lexicographic order; only those are enumerated, from the compatible
    partners of each element.

    Each step orthogonalize takes is computed once.  step(x, y) adds y to a
    family with join x: m = x meet y is defined, t = y - m and j = x v y are
    (bs.rc and bs.join do not raise), orth[x][t], x <= x, t <= y and
    join_of([x, t]) = j; it gives (t, j).  orthogonalize((a, b)) reads the
    partners of a, which hold b, and step(a, b).  orthogonalize((a, b, c))
    reads the partners of a and of b, which hold b and c, step(a, b) =
    (t2, j), step(j, c) = (t3, J), and orth of (a, t3) and (t2, t3).  Its
    join check holds as join_of folds left: join_of([a, t2, t3]) = j v t3 =
    J = join_of([a, b, c]).  A family with a failed read goes to
    orthogonalize itself, which raises its witness in the same order, or
    returns when that read is one it does not make (orth[j][t3], j <= j).
    So the law returns None, or raises the error orthogonalize raises for
    the first family that fails.
    """
    bs = c.bs
    s = bs.base
    meet, orth, down = _checked_meets(s), s.orth, s.down
    # later[a]: the nonzero b > a compatible with a, ascending
    later = [
        [b for b in _above(p, a) if b != s.zero]
        for a, p in enumerate(s.compat_partners)
    ]

    @cache
    def step(x, y):
        m = meet[x][y]
        if m is None:
            return None
        try:
            t, j = bs.rc(y, m), bs.join(x, y)
        except (NotBelow, NotCompatible):
            return None
        ok = orth[x][t] and x in down[x] and t in down[y] and s.join_of([x, t]) == j
        return (t, j) if ok else None

    nonzero = s.nonzero()
    for a in nonzero:
        for b in later[a]:
            if not step(a, b):
                orthogonalize(bs, (a, b))
    for a in nonzero:
        ca, oa = set(later[a]), orth[a]
        for b in later[a]:
            ab = step(a, b)  # (t2, j)
            for c3 in filter(ca.__contains__, later[b]):
                jc = ab and step(ab[1], c3)  # (t3, J)
                if not (jc and oa[jc[0]] and orth[ab[0]][jc[0]]):
                    orthogonalize(bs, (a, b, c3))
    return None


def _setminus_2_on_generators(bs):
    """True when a*(x-t) = a*x - a*t and (x-t)*a = x*a - t*a for every a
    and every down-pair t <= x, by _on_generator_sides on the relation
    "t <= x and x-t = w" over the triples (x, t, x-t).  Write x-t for the
    relative complement, read off rc_table, checked defined on every
    down-pair first."""
    s, rct = bs.base, bs.rc_table
    triples = [(x, t, rct[x][t]) for x in range(s.size) for t in s.down[x]]
    if not triples or any(st is None for _, _, st in triples):
        return False
    below = [frozenset(ds) for ds in s.down]
    at_x, at_t, at_st = (_picker(ids) for ids in zip(*triples))

    def holds(side):
        xs, ts = at_x(side), at_t(side)
        if not all(map(frozenset.__contains__, map(below.__getitem__, xs), ts)):
            return False
        return at_st(side) == tuple(map(getitem, map(rct.__getitem__, xs), ts))

    return _on_generator_sides(s, holds)


def law_setminus_2(c):
    """a*(x minus t) = a*x minus a*t and (x minus t)*a = x*a minus t*a for
    every t <= x: _setminus_2_on_generators, else _translation_failure over
    the down-pairs (x, t), which names the witness (a, x, t, side).  A
    complement read at a pair not in the order raises NotBelow."""
    if c.setminus_2_on_generators:
        return None
    bs, s = c.bs, c.bs.base
    triples = ((x, t, bs.rc(x, t)) for x in range(s.size) for t in s.down[x])
    bad = _translation_failure(s, triples, lambda x, t, w: bs.rc(x, t) == w)
    if bad is None:
        return None
    (x, t, _), a, side = bad
    return (a, x, t, side)


def _setminus_4_scan(bs, pairs):
    """law setminus-4 on every outer pair (x, t), then every inner pair
    (u, v): the first witness, or None."""
    s = bs.base
    for x, t in pairs:
        st = bs.rc(x, t)
        for u, v in pairs:
            uv = bs.rc(u, v)
            lhs = s.table[st][uv]
            inner = s.join_table[s.table[x][v]][s.table[t][u]]
            if inner is None:
                return (x, t, u, v, "inner-join-missing")
            if lhs != bs.rc(s.table[x][u], inner):
                return (x, t, u, v)
    return None


def _setminus_4_on_generators(bs, setminus_2):
    """None when law setminus-4 holds on every pair of down-pairs, given
    setminus_2, law setminus-2's pass (Analysis.setminus_2_on_generators);
    else the name of the first check below that fails.

    Write x-t for the relative complement, read off rc_table, and P for the
    down-pairs t <= x.  Checked on the tables read, every complement and
    join named being defined:
      setminus-2  law setminus-2's pass holds: on the generators
          (_on_generators), with x-t defined on P, it shows (x*u, t*u) in
          P and (x-t)*u = x*u - t*u for every u and every (x, t) in P;
      F1  for every u, (u, 0) is in P, u-0 = u and u v 0 = u;
      F2  u*d(v) = v for every (u, v) in P;
      H   (x-t)*(1-f) = x - (x*f v t) for every f = d(v) and (x, t) in P.
    H on (u, 0), with F1 and F2, gives u-v = u*(1-f) for f = d(v).  Then
    (x-t)*(u-v) = ((x-t)*u)*(1-f) = (x*u - t*u)*(1-f) = x*u - (x*u*f v t*u)
    by setminus-2 and H on (x*u, t*u), and x*u*f = x*v by F2: the law, with
    its inner join and outer complement defined.  No join is assumed
    associative or distributive, and 0 and 1 need only have the properties
    checked.

    Read through the join and relative-complement views (InvSgp.join_view,
    BoolInvSgp.rc_view), the down-sets taken by x as index rows.  F1 is
    column 0 of both views against the ids, and fails without them or with
    an entry of down that is no id.  F2 is down[x] gathered through d and
    then row x, against down[x].  For each f, H compares the x-t of every
    pair (down[x] gathered through rc row x, joined over x) gathered
    through column 1-f of the table with down[x] gathered through join row
    x*f and then rc row x, joined over x; a join that is None fails it.
    """
    if not setminus_2:
        return "setminus-2"
    s = bs.base
    joins, rcs, one, z, k = s.join_view, bs.rc_view, s.identity, s.zero, s.size
    if joins is None or rcs is None or z is None:
        return "F1"
    form = _form(joins)
    gather, read, ids, none = form.gather, form.read, form.ids, form.none
    try:
        downs = list(map(ids, s.down))
    except (TypeError, ValueError):
        return "F1"
    every, ts, at_z = ids(range(k)), form.join(downs), itemgetter(z)
    if (
        not set(every).issuperset(ts)  # an entry not an id
        or not all(map(contains, s.down, itertools.repeat(z)))
        or ids(map(at_z, rcs)) != every
        or ids(map(at_z, joins)) != every
    ):
        return "F1"
    t, d_view = s.table, form.view((s.d,), k)
    if d_view is None or any(
        read(read(ds, d_view[0]), row) != ds for ds, row in zip(downs, s.view)
    ):
        return "F2"
    sts = form.join(map(read, downs, rcs))
    if one is None or none in sts:
        return "H"
    fs = set(read(ts, d_view[0]))
    cs = [rcs[one][f] for f in fs]  # the 1-f
    if none in cs:
        return "H"
    at_sts = gather(sts)
    for f, column in zip(fs, form.view([tuple(map(itemgetter(c), t)) for c in cs], k)):
        xf_joins = map(joins.__getitem__, map(itemgetter(f), t))  # join row x*f
        js = list(map(read, downs, xf_joins))
        if none in form.join(js) or at_sts(column) != form.join(map(read, js, rcs)):
            return "H"
    return None


def law_setminus_4(c):
    """(x minus t)*(u minus v) = x*u minus ((x*v) v (t*u)) for all pairs of
    down-pairs t <= x and v <= u, in order.

    Decided by law setminus-2's pass and the idempotents d(v)
    (_setminus_4_on_generators): |E| columns over the down-pairs, 16 over
    I4's 1,473, instead of every inner pair per outer pair.  When any of its
    checks fails, _setminus_4_scan names the witness.
    """
    bs = c.bs
    s = bs.base
    if _setminus_4_on_generators(bs, c.setminus_2_on_generators) is None:
        return None
    return _setminus_4_scan(bs, [(x, t) for x in range(s.size) for t in s.down[x]])


def law_setminus_1_corrected(c):
    bs = c.bs
    s = bs.base
    for x in range(s.size):
        for t in s.down[x]:
            if s.inv[bs.rc(x, t)] != bs.rc(s.inv[x], s.inv[t]):
                return (x, t)
    return None


def law_setminus_5_corrected(c):
    bs = c.bs
    s = bs.base
    for cc in range(s.size):
        for b in s.down[cc]:
            for a in s.down[b]:
                if bs.rc(cc, b) not in s.down[bs.rc(cc, a)]:
                    return (a, b, cc)
    return None


def law_atoms_semisimple(c):
    bs = c.bs
    s = bs.base
    for a in range(s.size):
        if a == s.zero:
            continue
        below = [x for x in s.down[a] if x in c.atom_set]
        if not below or s.join_of(below) != a:
            return (a,)
    return None


def law_dichotomy(c):
    s = c.bs.base
    if s.size > 1 and not s.atoms:
        return ("atomless",)
    for a in range(s.size):
        if a != s.zero and not any(x in c.atom_set for x in s.down[a]):
            return (a,)
    return None


def law_smallest(c):
    """The closure of each a, read as that of d(a), holds a, is one of the
    ideals and lies in every ideal holding a.

    x is in an additive ideal exactly when d(x) is, as x = x*d(x) and
    d(x) = x'*x.  One ideal_closure is run per set of components of the
    atoms groupoid that meet the atoms below an idempotent, of the first
    idempotent with that set.  The closure of an idempotent e depends only
    on that set:
      (i)   E(S) is a finite Boolean algebra (check_boolean), so e is the
            join of the atoms below it;
      (ii)  an additive ideal, closed under products and joins, holds e
            exactly when it holds those atoms;
      (iii) an arrow x of the atoms groupoid runs from the identity d(x)
            to r(x), both idempotent atoms; as x = x*d(x) = r(x)*x,
            d(x) = x'*x and r(x) = x*x', an ideal holds d(x) iff it holds
            x iff it holds r(x).
    So the ideals holding e are those holding every atom of its components.
    The three checks below find any carrier that is not the least ideal
    holding it.
    """
    s, bs = c.s, c.bs
    ag = bs.atoms_groupoid
    comp = {  # idempotent atom -> the index of its component
        ag.labels[e]: i
        for i, component in enumerate(ag.form)
        for e in component.identities
    }
    by_key, closure = {}, {}
    for e in s.idempotents:
        key = frozenset(comp[x] for x in s.down[e] if x in comp)
        if key not in by_key:
            by_key[key] = ideal_closure(bs, [e])
        closure[e] = by_key[key]
    for a in range(s.size):
        cl = closure[s.d[a]]
        if a not in cl:
            return (a, "not-in-closure")
        if cl not in c.ideals:
            return (a, "closure-not-an-ideal")
        for carrier in c.ideals:
            if a in carrier and not cl <= carrier:
                return (a, "closure-not-least")
    return None


def law_toby(c):
    """0-simplifying, as decided from the ideals, agrees with pencil
    domination: every nonzero idempotent e lies in the least additive ideal
    around every nonzero idempotent f.

    The one-element structure is exempt: domination is vacuous there, yet
    {0} is both trivial ideals.  On disagreement the witness is (e, f): the
    first pair not dominated when the ideals say 0-simplifying, or the last
    pair scanned when every pair is dominated although they say it is not.

    Domination is read off the atom pencils (_atom_pencils), as preceq
    reads it, each checked by the range and join certificates
    (_check_pencil).  An atom pencil exists exactly when any pencil does, so
    e is not dominated by f when some atom α <= e has no arrow into f.
    """
    s = c.s
    if s.size == 1:
        return None
    pencil = _atom_pencils(c.bs)
    nonzero = [e for e in s.idempotents if e != s.zero]
    for e in nonzero:
        for f in nonzero:
            p = pencil(e, f)
            if p is None:
                return (e, f) if c.zero_simplifying else None
            _check_pencil(s, p, e, f)
    return None if c.zero_simplifying else (e, f)


def law_noise(c):
    s = c.s
    for ideal, p in c.eps_projections:
        if kernel_of(p) != ideal:
            return (tuple(sorted(ideal)), "kernel-mismatch")
    what = "kernels verified, minimality scan"
    _skip_above(s, CONGRUENCE_SCAN_CAP, "CONGRUENCE_SCAN_CAP", what)
    additive = {}  # kernel -> the classes of each additive congruence with it
    for cls in c.congruences:
        if _is_additive_congruence(s, cls):
            additive.setdefault(frozenset(_positions(cls, cls[s.zero])), []).append(cls)
    for ideal, p in c.eps_projections:
        for cls in additive.get(ideal, ()):
            if split := _first_split(p.map, cls):
                return (tuple(sorted(ideal)), *split)
    return None


def _meets_preserved(p):
    """Whether map p sends each meet to the meet of the images, compared
    one row of the source's meet table at a time; None when a premise of
    law anja's argument fails on the tables read: a meet table with an
    undefined entry, or p not monotone on down-sets.  The identity onto
    the same table, and the map onto the one-point table, need no row."""
    s, t, mp = p.source.base, p.target.base, p.map
    smt, tmt = s.meet_table, t.meet_table
    tables = (smt,) if tmt is smt else (smt, tmt)
    if any(None in row for mt in tables for row in mt):
        return None
    t_down, image = [frozenset(d) for d in t.down], mp.__getitem__
    if not all(t_down[mp[x]].issuperset(map(image, d)) for x, d in enumerate(s.down)):
        return None
    if tmt is smt and mp == tuple(range(s.size)) or tmt == ((0,),) and set(mp) == {0}:
        return True  # every row compared with itself, or both sides all 0
    at_images = _picker(mp)  # row u of tmt read at every p(b)
    return all(_picker(row)(mp) == at_images(tmt[mp[a]]) for a, row in enumerate(smt))


def law_anja(c):
    """Each epsilon projection p is weakly meet preserving: every lower
    bound of p(a) and p(b) lies below p(x) for some common lower bound x of
    a and b.  Decided here, not read from the certificate epsilon_quotient
    raised on.

    When both meet tables are total and p is monotone on down-sets, that is
    p(a meet b) = p(a) meet p(b) for all a, b (_meets_preserved).  With m =
    a meet b, the lower bounds that lift are those below p(m), and those of
    p(a) and p(b) are the ones below p(a) meet p(b), which is above p(m):
    all lift exactly when the two are equal.  When a premise fails on the
    tables read, is_weakly_meet_preserving decides afresh.
    """
    for ideal, p in c.eps_projections:
        holds = _meets_preserved(p)
        if holds is None:
            holds = is_weakly_meet_preserving(p.source, p.target, p.map)
        if not holds:
            return (tuple(sorted(ideal)),)
    return None


def law_idept_sep_kernel(c):
    """Each map reuses the cached quotient by its kernel, and its
    projection's certificates when it is that projection; the mu quotient
    is read as checked once (Analysis.mu_check)."""
    bs = c.bs
    eps_of = dict(c.eps_projections)
    ident = Morphism(bs, bs, tuple(range(bs.size)))
    rep = analyze_morphism(ident, eps_of.get(kernel_of(ident)))
    if not (rep.idempotent_separating and rep.kernel_carrier == {bs.zero}):
        return ("identity",)
    check = c.mu_check
    if not check.boolean:
        return ("mu-quotient-not-boolean", check.failure)
    proj = Morphism(bs, check.structure, c.mu.mu)
    rep = analyze_morphism(proj, eps_of.get(kernel_of(proj)))
    if not rep.idempotent_separating:
        return ("mu-projection",)
    return None


def law_factorization(c):
    for ideal, p in c.eps_projections:
        analysis = analyze_morphism(p, p)
        if not analysis.additive or analysis.factorization is None:
            return (tuple(sorted(ideal)),)
    return None


def law_ale(c):
    """The 2x2 rook matrices form an inverse monoid ordered entrywise: b(a'a)
    = a exactly when a <= b entrywise.  Each candidate is tested once
    (rook_matrices) and each star taken once; a'a takes few values, so
    b(a'a) is computed once per pair (b, a'a)."""
    bs = c.bs
    s = bs.base
    _skip_above(s, ROOK_ENUM_CAP, "ROOK_ENUM_CAP", "2x2 matrix enumeration")
    quads = itertools.product(range(s.size), repeat=4)
    mats = list(rook_matrices(bs, (((p, q), (r, t)) for p, q, r, t in quads)))
    ident = identity_rook(bs, 2)
    z = s.zero
    stars = []  # a* for each a of mats, in order
    for a in mats:
        if rook_mul(a, ident).entries != a.entries:
            return (a.entries, "right-unit")
        if rook_mul(ident, a).entries != a.entries:
            return (a.entries, "left-unit")
        stars.append(rook_star(a))
        if rook_mul(rook_mul(a, stars[-1]), a).entries != a.entries:
            return (a.entries, "inverse")
        sq = rook_mul(a, a)
        diag_idem = (
            a.entries[0][1] == z
            and a.entries[1][0] == z
            and s.is_idempotent(a.entries[0][0])
            and s.is_idempotent(a.entries[1][1])
        )
        if (sq.entries == a.entries) != diag_idem:
            return (a.entries, "idempotent-shape")
    downs = [tuple(map(s.down.__getitem__, b.entries[0] + b.entries[1])) for b in mats]

    def order_witness(a, products):
        """(a, b, "order") for the first b, of the first len(products) of
        mats, where b(a'a) = a and a <= b entrywise disagree, or None."""
        flat = a.entries[0] + a.entries[1]
        equal = [p == a.entries for p in products]
        entrywise = [all(map(contains, d, flat)) for d in downs[: len(products)]]
        if equal == entrywise:
            return None
        k = next(k for k, (e, w) in enumerate(zip(equal, entrywise)) if e != w)
        return (a.entries, mats[k].entries, "order")

    by_da = {}  # a'a entries -> b(a'a) entries for each b of mats, in order
    for a, a_star in zip(mats, stars):
        da = rook_mul(a_star, a)
        products = by_da.get(da.entries)
        if products is None:
            products = by_da[da.entries] = []
            try:
                for b in mats:
                    products.append(rook_mul(b, da).entries)
            except BiskitError:
                # a is compared with each b before the product that raised
                bad = order_witness(a, products)
                if bad is not None:
                    return bad
                raise
        bad = order_witness(a, products)
        if bad is not None:
            return bad
    return None


def law_main_finite(c):
    theta_iso(c.bs, c.decomposition)
    return None


def law_finite(c):
    """The product of matrix monoids decomposes again, verified, into the
    same signature."""
    cert = c.decomposition
    again = decompose(cert.product)
    if again.signature != cert.signature:
        return (cert.signature, again.signature, "signature-unstable")
    return None


def law_finite_stuff(c):
    trivial_groups = all(h == 1 for (_n, h, _name) in c.decomposition.signature)
    if c.fundamental != trivial_groups:
        return (c.fundamental, c.decomposition.signature)
    return None


def law_discrete_topology(c):
    """The ultrafilters are the up-sets of the atoms, and x -> up[x] is an
    isomorphism from the atoms under the restricted product onto their
    groupoid.  As for law carre, when the order is compatible with product
    and inversion (_filter_order), up[a]*up[b] closes up to up[a*b],
    defined exactly when a'*a = b*b', so the ultrafilter groupoid is the
    atoms groupoid; else the setwise scan builds it."""
    s = c.s
    ultra = c.filters.ultra
    if len(ultra) != len(s.atoms):
        return (len(ultra), len(s.atoms))
    if set(ultra) != c.atom_set:
        return ("ultrafilter-generators",)
    ufg = c.bs.atoms_groupoid if c.filter_order else filter_groupoid(s, ultra)
    if not principal_map_is_iso(s, s.atoms, ufg):
        return ("ultrafilter-groupoid",)
    return None


def law_order_isomorphisms(c):
    if not c.triple.matched:
        return ("ideal-posets-differ",)
    return None


def law_rain(c):
    if not c.triple.simple_iff_rank_one:
        return (c.tm.rank, len(c.ideals))
    return None


def law_type_monoid_basics(c):
    if not refinement_check(c.tm):
        return ("refinement",)
    realized = set(c.tm.tau.values())
    for v in realized:  # image is downward closed in the product order
        for u in itertools.product(*(range(x + 1) for x in v)):
            if tuple(u) not in realized:
                return (v, tuple(u))
    return None


def law_type_fundamental(c):
    if not mu_type_invariance(c.bs, c.tm, c.mu, c.mu_tm):
        return ("mu-invariance",)
    return None


def law_butterfly(c):
    rep = type_via_matrices(c.bs, c.tm)
    if not (rep.partition_agrees and rep.witnesses_verified and rep.separation_ok):
        return (rep.partition_agrees, rep.witnesses_verified, rep.separation_ok)
    return None


# -- groupoid laws -----------------------------------------------------------


def glaw_connected_groupoids(c):
    g = c.g
    rebuilt = reconstruct(g.form)
    if groupoid_iso(g, rebuilt) is None:
        return ("reconstruction-differs",)
    return None


def glaw_groupoids(c):
    g = c.g
    kg = c.kg
    s = kg.structure.base
    singles = {
        i for i, b in enumerate(kg.bisections) if len(b) == 1
    }
    if set(s.atoms) != singles:
        return ("atoms-not-singletons",)
    for i, a in enumerate(kg.bisections):
        for j, b in enumerate(kg.bisections):
            if (i in s.down[j]) != (a <= b):
                return (i, j, "order-not-inclusion")
    pos = {next(iter(kg.bisections[i])): i for i in singles}
    ag = kg.structure.atoms_groupoid
    if ag.size != g.size:
        return ("atom-groupoid-size",)
    for x in range(g.size):
        for y in range(g.size):
            want = g.ptable[x][y]
            i, j = pos[x], pos[y]
            got = s.table[i][j]
            if want is None:
                if got != s.zero:
                    return (x, y, "phantom-product")
            elif kg.bisections[got] != frozenset((want,)):
                return (x, y, "wrong-product")
    return None


def glaw_bordeaux1(c):
    if c.k.fundamental != is_principal(c.g):
        return ("fundamental-vs-principal",)
    if c.k.zero_simplifying != is_connected(c.g):
        return ("simplifying-vs-connected",)
    return None


def glaw_local_bisections_rook(c):
    if not is_connected(c.g):
        raise _Skip("stated for connected groupoids")
    cert = c.k.decomposition
    comp = c.g.form[0]
    want = (
        comp.identity_count,
        comp.group.size,
        group_name(comp.group),
    )
    if cert.signature != (want,):
        return (cert.signature, want)
    return None


class GpdContext:
    """One groupoid g and its local bisections K(g), with one Analysis of
    K(g)'s structure that the groupoid laws read."""

    def __init__(self, g):
        self.g = g

    @cached_property
    def kg(self):
        return k_of_groupoid(self.g)

    @cached_property
    def k(self):
        return Analysis(self.kg.structure)


SEMIGROUP_LAWS = (
    ("l-and-r-order", "invsgp", law_l_and_r_order),
    ("order-dr-monotone", "invsgp", law_order_dr_monotone),
    ("wedge", "invsgp", law_wedge),
    ("fish", "invsgp", law_fish),
    ("restricted-product", "invsgp", law_restricted_product),
    ("mu-separating", "invsgp", law_mu_separating),
    ("universal-groupoid", "invsgp", law_universal_groupoid),
    ("carre", "invsgp", law_carre),
    ("booleanization-finite", "invsgp", law_booleanization_finite),
    ("atom-idempotent", "zero", law_atom_idempotent),
    ("oj", "zero", law_oj),
    ("buffs", "zero", law_buffs),
    ("definition", "boolean", law_definition),
    ("meets-semisimple", "boolean", law_meets_semisimple),
    ("eggs", "boolean", law_eggs),
    ("chicken", "boolean", law_chicken),
    ("pork", "boolean", law_pork),
    ("orthogonal", "boolean", law_orthogonal),
    ("setminus-2", "boolean", law_setminus_2),
    ("setminus-4", "boolean", law_setminus_4),
    ("setminus-1-corrected", "boolean", law_setminus_1_corrected),
    ("setminus-5-corrected", "boolean", law_setminus_5_corrected),
    ("atoms-semisimple", "boolean", law_atoms_semisimple),
    ("dichotomy", "boolean", law_dichotomy),
    ("smallest", "boolean", law_smallest),
    ("toby", "boolean", law_toby),
    ("noise", "boolean", law_noise),
    ("anja", "boolean", law_anja),
    ("idept-sep-kernel", "boolean", law_idept_sep_kernel),
    ("factorization", "boolean", law_factorization),
    ("ale", "boolean", law_ale),
    ("main-finite", "boolean", law_main_finite),
    ("finite", "boolean", law_finite),
    ("finite-stuff", "boolean", law_finite_stuff),
    ("discrete-topology", "boolean", law_discrete_topology),
    ("order-isomorphisms", "boolean", law_order_isomorphisms),
    ("rain", "boolean", law_rain),
    ("type-monoid-basics", "boolean", law_type_monoid_basics),
    ("type-fundamental", "boolean", law_type_fundamental),
    ("butterfly", "boolean", law_butterfly),
)

GROUPOID_LAWS = (
    ("connected-groupoids", "groupoid", glaw_connected_groupoids),
    ("groupoids", "groupoid", glaw_groupoids),
    ("bordeaux1", "groupoid", glaw_bordeaux1),
    ("local-bisections-rook", "groupoid", glaw_local_bisections_rook),
)

def _applicable(kind, ctx):
    if kind in ("invsgp", "groupoid"):
        return True, None
    if kind == "zero":
        return (ctx.s.zero is not None), "no zero"
    if kind == "boolean":
        return (ctx.bs is not None), "not Boolean"
    raise ValueError(kind)


def run_laws(obj):
    """Run every applicable law on an InvSgp, BoolInvSgp, or Gpd.

    Returns LawResults in registry order.  Failures carry the witness; laws
    whose preconditions or size caps rule them out report a skip.  Each
    result carries the seconds its law took, including the shared results
    it was the first to need.
    """
    results = []
    if isinstance(obj, Gpd):
        ctx, table = GpdContext(obj), GROUPOID_LAWS
    else:
        ctx, table = Analysis(obj), SEMIGROUP_LAWS
    for key, kind, fn in table:
        start = time.perf_counter()
        status, witness, note = _run_law(kind, fn, ctx)
        seconds = round(time.perf_counter() - start, 6)
        results.append(LawResult(key, status, witness, note, seconds))
    return results


def _run_law(kind, fn, ctx):
    """One law's (status, witness, note)."""
    ok, why = _applicable(kind, ctx)
    if not ok:
        return "skip", None, why
    try:
        witness = fn(ctx)
    except _Skip as e:
        return "skip", None, str(e)
    except (TooLarge, Undecided) as e:
        return "skip", None, f"{type(e).__name__}: {e}"
    except BiskitError as e:
        return "fail", ("raised", type(e).__name__, str(e)[:200]), None
    if witness is None:
        return "pass", None, None
    return "fail", tuple(witness), None
