"""The Booleanization of a finite inverse semigroup, filters, and the
universal extension property.

booleanize(s) is the local-bisection monoid of the nonzero part of s (a zero
is adjoined explicitly first when s has none), together with the embedding
that sends a to the set of nonzero elements below it.  gamma_extension
factors any morphism into a Boolean structure through that embedding, with
the extension's values forced singleton by singleton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_not

from .boolean import (
    BoolInvSgp,
    KOfGroupoid,
    Morphism,
    _bisection_count,
    as_boolean,
    check_multiplicative,
    check_zero_preserving,
    k_of_groupoid,
)
from .core import InvSgp, _picker, adjoin_zero
from .errors import (
    CertificateFailed,
    NotBoolean,
    NotHomomorphism,
    NotMultiplicative,
    NotZeroPreserving,
    TargetNotBoolean,
)
from .groupoid import Gpd, groupoid_iso


@dataclass(frozen=True)
class Booleanization:
    source: InvSgp  # what the caller handed in
    source0: InvSgp  # same, or with a zero adjoined as the last id
    target: KOfGroupoid  # its groupoid: source0's nonzero part, restricted product
    beta: tuple  # source0 id -> id in target.structure

    @property
    def bs(self):
        return self.target.structure


def booleanize(s):
    """Local bisections of the nonzero part of s, with the order embedding.

    beta(a) collects the nonzero elements below a; it is checked injective
    and multiplicative, and a failed check raises CertificateFailed, naming
    the first failing pair (a, b) for the product check.  The down-set
    product law (below a) * (below b) = below(a*b) needs no check of its own
    on a validated table: for z <= a*b, y = b*d(z) <= b and x = a*r(y) <= a
    give x*y = z.  Law restricted-product checks it independently.

    The bisections are counted from s0's own domains and ranges first, so
    a structure above K_OF_GROUPOID_CAP raises TooLarge before the
    restricted groupoid is built.
    """
    s0 = s if s.zero is not None else adjoin_zero(s)
    nonzero = s0.nonzero()
    _bisection_count(
        [e for e in s0.idempotents if e != s0.zero],
        [s0.d[x] for x in nonzero],
        [s0.r[x] for x in nonzero],
    )
    g = s0.restricted_groupoid
    pos = {lab: i for i, lab in enumerate(g.labels)}
    kg = k_of_groupoid(g)
    beta = []
    for a in range(s0.size):
        below = frozenset(pos[x] for x in s0.down[a] if x != s0.zero)
        beta.append(kg.index[below])
    if len(set(beta)) != s0.size:
        raise CertificateFailed(("beta-not-injective",))
    try:
        check_multiplicative(s0, kg.structure, beta)
    except NotMultiplicative as ex:
        raise CertificateFailed(("beta-not-multiplicative", *ex.witness)) from None
    return Booleanization(s, s0, kg, tuple(beta))


def gamma_extension(b, alpha, target):
    """Extend a morphism s -> target through b, the Booleanization of s.

    The singleton value at a is alpha(a) minus the join of alpha over the
    elements strictly below a; general values are orthogonal joins of
    singleton values.  Returns that extension, a Morphism from b.bs into
    target, verified to be additive and to agree with alpha along beta; each
    singleton value is checked forced, which settles uniqueness.  A failed
    check raises CertificateFailed naming it.
    """
    if not isinstance(target, BoolInvSgp):
        try:
            target = as_boolean(target)
        except NotBoolean as ex:
            raise TargetNotBoolean(str(ex)) from None
    s, s0 = b.source, b.source0
    t = target.base
    alpha = list(alpha)
    if len(alpha) == s.size and s0.size == s.size + 1:
        alpha.append(t.zero)
    if len(alpha) != s0.size:
        raise NotHomomorphism(("arity", len(alpha), s0.size))
    alpha = tuple(alpha)
    try:
        check_multiplicative(s0, target, alpha)
        check_zero_preserving(s0, target, alpha)
    except (NotMultiplicative, NotZeroPreserving) as ex:
        raise NotHomomorphism(ex.witness) from None

    gamma1 = {}
    for a in range(s0.size):
        if a == s0.zero:
            continue
        strict = [x for x in s0.down[a] if x != a and x != s0.zero]
        j = t.zero
        for x in strict:
            j = t.join_table[j][alpha[x]]
            if j is None:
                raise CertificateFailed(("join-below-alpha-missing", a, x))
        gamma1[a] = target.rc(alpha[a], j)

    labels = b.target.groupoid.labels
    pos = {lab: i for i, lab in enumerate(labels)}
    gmap = []
    for k, aset in enumerate(b.target.bisections):
        vals = [gamma1[labels[i]] for i in sorted(aset)]
        for v1, v2 in itertools.combinations(vals, 2):
            if not t.orth[v1][v2]:
                raise CertificateFailed(("singletons-not-orthogonal", k, v1, v2))
        gmap.append(target.join_of(vals) if vals else t.zero)
    gamma = Morphism(b.bs, target, tuple(gmap))

    for a in range(s0.size):
        if gmap[b.beta[a]] != alpha[a]:
            raise CertificateFailed(("extension-not-alpha", a))
    if not gamma.additive:  # a map that is not is checked again for the witness
        check_multiplicative(b.bs, target, gamma.map)
        check_zero_preserving(b.bs, target, gamma.map)
        raise CertificateFailed(("extension-not-additive",))

    # Uniqueness: the singleton at a equals beta(a) minus the join of beta
    # over everything strictly below, so any additive extension of alpha is
    # pinned there, and the rest are orthogonal joins of singletons.
    bsb = b.bs.base
    for a in range(s0.size):
        if a == s0.zero:
            continue
        strict = [x for x in s0.down[a] if x != a and x != s0.zero]
        jb = bsb.join_of([b.beta[x] for x in strict]) if strict else bsb.zero
        singleton_id = b.target.index[frozenset({pos[a]})]
        if (
            b.bs.rc(b.beta[a], jb) != singleton_id
            or gamma.map[singleton_id] != gamma1[a]
        ):
            raise CertificateFailed(("singleton-not-forced", a))
    return gamma


# -- filters ---------------------------------------------------------------


def _is_filter(s, subset):
    if not subset:
        return False
    for a in subset:
        for b in s.up[a]:
            if b not in subset:
                return False
    for a in subset:
        for b in subset:
            if not any(x in subset for x in s.down[a] if x in s.down[b]):
                return False
    return True


FILTER_SCAN_CAP = 12  # law universal-groupoid scans all 2^k subsets up to here


@dataclass(frozen=True)
class FilterReport:
    proper: tuple  # of ids x, each for the filter up[x]
    ultra: tuple  # of ids, the minimal nonzero ones: the ultrafilters' x


def enumerate_filters(s):
    """All proper filters of s, each as the id x of its up-set up[x]: in a
    finite table every proper filter is one.

    For nonzero x the up-set x-up is a proper filter with nothing to check:
    it is up-closed, as the order is transitive; down-directed, through x,
    which lies below any two of its members; and zero-free, since 0 >= x
    gives x = 0*d(x) = 0.  Law universal-groupoid checks this list against a
    raw scan of every subset with _is_filter, for carriers up to
    FILTER_SCAN_CAP.
    """
    nonzero = s.nonzero()
    ultra = tuple(x for x in nonzero if set(s.down[x]) <= {x, s.zero})
    return FilterReport(nonzero, ultra)


def _up_closure(s, seed):
    """The up-set generated by the ids in seed."""
    out = set()
    for x in seed:
        out.update(s.up[x])
    return frozenset(out)


def filter_groupoid(s, ids):
    """Partial product on the filters up[x], x in ids: A*B is the up-closure
    of the setwise product, defined when the domain filter of A is the range
    filter of B.  A product that is not among them raises CertificateFailed
    naming the positions of A and B.
    """
    carriers = [frozenset(s.up[x]) for x in ids]
    index = {c: i for i, c in enumerate(carriers)}
    t, inv = s.table, s.inv
    doms = [_up_closure(s, {t[inv[y]][z] for y in a for z in a}) for a in carriers]
    rans = [_up_closure(s, {t[y][inv[z]] for y in b for z in b}) for b in carriers]
    m = len(ids)
    ptable = [[None] * m for _ in range(m)]
    for i, a in enumerate(carriers):
        for j, b in enumerate(carriers):
            if doms[i] != rans[j]:
                continue
            prod = _up_closure(s, {t[x][y] for x in a for y in b})
            if prod not in index:
                raise CertificateFailed(("filter-product-not-listed", i, j))
            ptable[i][j] = index[prod]
    return Gpd(ptable, labels=tuple(ids))


def principal_map_is_iso(s, sub_ids, fg):
    """Check x -> x-up matches the restricted product on the given ids, a
    row x at a time: where row x of fg is defined, as one tuple, against
    the y with r(y) = d(x), then the products at those entries only."""
    want = {x: pos_f for pos_f, x in enumerate(fg.labels)}
    if fg.size != len(sub_ids) or not all(x in want for x in sub_ids):
        return False
    if not sub_ids:
        return True
    at_cols, nones = _picker([want[y] for y in sub_ids]), itertools.repeat(None)
    per_d = {}  # d(x) -> the pattern, and pickers of the defined entries and y
    for e in {s.d[x] for x in sub_ids}:
        ks = [k for k, y in enumerate(sub_ids) if s.r[y] == e]
        at_ys = ks and _picker([sub_ids[k] for k in ks])
        per_d[e] = (tuple(s.r[y] == e for y in sub_ids), ks and _picker(ks), at_ys)
    for x in sub_ids:
        got = at_cols(fg.ptable[want[x]])
        pattern, at_defined, at_ys = per_d[s.d[x]]
        if tuple(map(is_not, got, nones)) != pattern or (
            at_ys and tuple(map(want.get, at_ys(s.table[x]))) != at_defined(got)
        ):
            return False
    return True


# -- Booleanization isomorphism --------------------------------------------


def booleanization_iso(s, t):
    """Compare Booleanizations through the nonzero-part groupoids: the id
    map between the two Booleanizations, or None when they are not
    isomorphic.

    The groupoids determine the Booleanizations: a groupoid isomorphism
    induces a bisection-by-bisection map, which is re-checked as a table
    isomorphism (a bijection, then check_multiplicative); CertificateFailed
    names the first pair where it fails.
    """
    b_s, b_t = booleanize(s), booleanize(t)
    gmap = groupoid_iso(b_s.target.groupoid, b_t.target.groupoid)
    if gmap is None:
        return None
    induced = tuple(
        b_t.target.index.get(frozenset(gmap[x] for x in aset))
        for aset in b_s.target.bisections
    )
    sb, tb = b_s.bs.base, b_t.bs.base
    if sb.size != tb.size or set(induced) != set(range(tb.size)):
        raise CertificateFailed(("induced-not-bijective",))
    try:
        check_multiplicative(b_s.bs, b_t.bs, induced)
    except NotMultiplicative as ex:
        raise CertificateFailed(("induced-not-multiplicative", *ex.witness)) from None
    return induced
