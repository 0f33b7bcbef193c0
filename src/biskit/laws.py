"""Registry of named law checks, driven by cmd_verify and the test suite.

Each law quantifies an identity or a structural claim over all applicable
tuples of one structure and returns the first counterexample as a witness
tuple, or None.  Laws are grouped by what they need: any inverse semigroup,
one with zero, a Boolean one, a Boolean monoid, or a groupoid.  A law that
cannot run at the instance's size reports a skip, never a silent pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .boolean import (
    BoolInvSgp,
    Morphism,
    analyze_morphism,
    atoms_groupoid,
    check_boolean,
    enumerate_additive_ideals,
    epsilon_quotient,
    ideal_closure,
    is_weakly_meet_preserving,
    is_zero_simplifying,
    k_of_groupoid,
    kernel_of,
    orthogonalize,
    read_pencil,
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
    all_congruences,
    d_relation_idempotents,
    is_fundamental,
    mu_and_quotient,
)
from .errors import BiskitError, SizeCapExceeded, TooLarge, Undecided
from .groupoid import (
    Gpd,
    component_form,
    group_name,
    groupoid_iso,
    is_connected,
    is_principal,
    reconstruct,
)
from .rook import decompose, identity_rook, rook_matrix, rook_mul, rook_star
from .typemon import (
    ideal_triple,
    mu_type_invariance,
    refinement_check,
    type_monoid,
    type_via_matrices,
)

CONGRUENCE_SCAN_CAP = 9
ROOK_ENUM_CAP = 4  # brute-force 2x2 matrix enumeration is |S|^4 candidates


class _Skip(Exception):
    """Raised inside a law to report inapplicability at this size."""


@dataclass(frozen=True)
class LawResult:
    key: str
    status: str  # "pass" | "fail" | "skip"
    witness: tuple | None = None
    note: str | None = None


class Analysis:
    """One structure and the results derived from it, each computed once.

    cli.build_report and every law read these properties instead of calling
    the builders again.  Only results more than one reader needs are kept.
    """

    def __init__(self, s):
        if isinstance(s, BoolInvSgp):
            self.s, self.bs = s.base, s
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
    def fundamental(self):
        return is_fundamental(self.s).fundamental

    @cached_property
    def atom_set(self):
        return set(self.s.atoms)

    @cached_property
    def ideals(self):
        return enumerate_additive_ideals(self.bs)

    @cached_property
    def zero_simplifying(self):
        return is_zero_simplifying(self.bs, self.ideals).holds

    @cached_property
    def eps_reports(self):
        return [(i, epsilon_quotient(self.bs, i)) for i in self.ideals]

    @cached_property
    def filters(self):
        return enumerate_filters(self.s)

    @cached_property
    def tm(self):
        return type_monoid(self.bs)

    @cached_property
    def triple(self):
        return ideal_triple(self.bs, self.tm, self.ideals)

    @cached_property
    def decomposition(self):
        return decompose(self.bs)

    @cached_property
    def mu(self):
        return mu_and_quotient(self.s)


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
        for b in range(s.size):
            if s.leq[a][b]:
                if not s.leq[s.d[a]][s.d[b]] or not s.leq[s.r[a]][s.r[b]]:
                    return (a, b)
    return None


def law_wedge(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            if not s.compat[a][b]:
                continue
            m = s.meet_table[a][b]
            if m is None or m != s.table[a][s.d[b]]:
                return (a, b, m)
    return None


def law_fish(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            m = s.meet_table[a][b]
            if m is None:
                continue
            for u in range(s.size):
                lhs = s.table[u][m]
                rhs = s.meet_table[s.table[u][a]][s.table[u][b]]
                if rhs != lhs:
                    return (u, a, b)
    return None


def law_restricted_product(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            a2 = s.table[a][s.r[b]]
            b2 = s.table[s.d[a]][b]
            if not (
                s.leq[a2][a]
                and s.leq[b2][b]
                and s.d[a2] == s.r[b2]
                and s.table[a2][b2] == s.table[a][b]
            ):
                return (a, b)
    for a in range(s.size):
        for b in range(s.size):
            prods = {s.table[x][y] for x in s.down[a] for y in s.down[b]}
            if prods != set(s.down[s.table[a][b]]):
                return (a, b, "down-set-product")
    return None


def law_mu_separating(c):
    s = c.s
    rep = c.mu  # construction re-checks congruence and separation
    if s.size > CONGRUENCE_SCAN_CAP:
        raise _Skip(
            f"construction verified, maximality scan capped at {CONGRUENCE_SCAN_CAP}"
        )
    mu_cls = rep.mu.class_of
    for cong in all_congruences(s):
        cls = cong.class_of
        separating = not any(
            e != f and cls[e] == cls[f]
            for e in s.idempotents
            for f in s.idempotents
        )
        if not separating:
            continue
        for x in range(s.size):
            for y in range(s.size):
                if cls[x] == cls[y] and mu_cls[x] != mu_cls[y]:
                    return (x, y)
    return None


def law_universal_groupoid(c):
    """Every proper filter is principal: a raw scan of all 2^k subsets for
    a filter missing from enumerate_filters, which is the witness."""
    s = c.s
    if s.size > FILTER_SCAN_CAP:
        raise _Skip(
            f"raw subset scan capped at FILTER_SCAN_CAP={FILTER_SCAN_CAP}, "
            f"carrier has {s.size} elements"
        )
    principal = {f.carrier for f in c.filters.proper}
    for m in range(1, 1 << s.size):
        subset = frozenset(i for i in range(s.size) if m >> i & 1)
        if s.zero not in subset and subset not in principal and _is_filter(s, subset):
            return (tuple(sorted(subset)),)
    return None


def law_carre(c):
    s = c.s
    fg = filter_groupoid(s, c.filters.proper)
    nonzero = [x for x in range(s.size) if x != s.zero]
    if not principal_map_is_iso(s, nonzero, fg):
        return ("filter-groupoid-mismatch",)
    return None


def law_booleanization_finite(c):
    b = booleanize(c.s)
    gamma = gamma_extension(c.s, b.beta, b.bs, booleanization=b)
    n = b.bs.size
    if gamma.morphism.map != tuple(range(n)):
        return ("unit-extension-not-identity",)
    if not gamma.unique:
        return ("unit-extension-not-forced",)
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


def law_oj(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            if not s.orth[a][b]:
                continue
            for u in range(s.size):
                if not s.orth[s.table[u][a]][s.table[u][b]]:
                    return (a, b, u, "left")
                if not s.orth[s.table[a][u]][s.table[b][u]]:
                    return (a, b, u, "right")
    return None


def law_buffs(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            if not s.compat[a][b]:
                continue
            o = s.orth[a][b]
            if o != s.orth[s.d[a]][s.d[b]] or o != s.orth[s.r[a]][s.r[b]]:
                return (a, b)
    return None


# -- laws needing a Boolean structure ----------------------------------------


def law_definition(c):
    bs = c.bs
    s = bs.base
    for a in range(s.size):
        for b in range(s.size):
            if not s.compat[a][b]:
                continue
            j = s.join_table[a][b]
            if j is None:
                return (a, b, "missing-join")
            for u in range(s.size):
                if s.join_table[s.table[u][a]][s.table[u][b]] != s.table[u][j]:
                    return (u, a, b, "left")
                if s.join_table[s.table[a][u]][s.table[b][u]] != s.table[j][u]:
                    return (a, b, u, "right")
    return None


def law_meets_semisimple(c):
    s = c.bs.base
    for a in range(s.size):
        for b in range(s.size):
            if s.meet_table[a][b] is None:
                return (a, b)
    return None


def law_eggs(c):
    bs = c.bs
    s = bs.base
    for m in (2, 3):
        for combo in itertools.combinations(range(s.size), m):
            join = combo[0]
            for x in combo[1:]:
                join = s.join_table[join][x] if join is not None else None
                if join is None:
                    break
            if join is None:
                continue
            for u in range(s.size):
                lhs = s.meet_table[u][join]
                if lhs is None:
                    continue
                rhs = None
                ok = True
                for x in combo:
                    mx = s.meet_table[x][u]
                    if mx is None:
                        ok = False
                        break
                    rhs = mx if rhs is None else s.join_table[rhs][mx]
                    if rhs is None:
                        ok = False
                        break
                if not ok or rhs != lhs:
                    return combo + (u,)
    return None


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
    for x in range(s.size):
        for y in range(s.size):
            if not s.compat[x][y]:
                continue
            m = s.meet_table[x][y]
            w = bs.rc(x, m)
            if not s.orth[w][y]:
                return (x, y, "not-orthogonal")
            if s.join_table[w][y] != s.join_table[x][y]:
                return (x, y)
    return None


def law_orthogonal(c):
    bs = c.bs
    s = bs.base
    for m in (2, 3):
        for combo in itertools.combinations(range(s.size), m):
            if s.zero in combo:
                continue
            if not all(
                s.compat[a][b] for a, b in itertools.combinations(combo, 2)
            ):
                continue
            orthogonalize(bs, combo)  # raises on any violated post
    return None


def law_setminus_2(c):
    bs = c.bs
    s = bs.base
    for x in range(s.size):
        for t in s.down[x]:
            w = bs.rc(x, t)
            for a in range(s.size):
                if s.table[a][w] != bs.rc(s.table[a][x], s.table[a][t]):
                    return (a, x, t, "left")
                if s.table[w][a] != bs.rc(s.table[x][a], s.table[t][a]):
                    return (a, x, t, "right")
    return None


def law_setminus_4(c):
    bs = c.bs
    s = bs.base
    pairs = [(x, t) for x in range(s.size) for t in s.down[x]]
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
                if not s.leq[bs.rc(cc, b)][bs.rc(cc, a)]:
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
    bs = c.bs
    s = bs.base
    carriers = [i.carrier for i in c.ideals]
    for a in range(s.size):
        cl = ideal_closure(bs, [a]).carrier
        if cl not in carriers:
            return (a, "closure-not-an-ideal")
        for carrier in carriers:
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
    Each f is closed once, and that closure is read for every e.
    """
    s = c.s
    if s.size == 1:
        return None
    nonzero = [e for e in s.idempotents if e != s.zero]
    closure = {f: ideal_closure(c.bs, [f]) for f in nonzero}
    for e in nonzero:
        for f in nonzero:
            if not read_pencil(c.bs, closure[f], e, f).holds:
                return (e, f) if c.zero_simplifying else None
    return None if c.zero_simplifying else (e, f)


def _is_additive_congruence(s, cls):
    for a in range(s.size):
        for b in range(s.size):
            if not s.compat[a][b] or s.join_table[a][b] is None:
                continue
            for a2 in range(s.size):
                if cls[a2] != cls[a]:
                    continue
                for b2 in range(s.size):
                    if cls[b2] != cls[b]:
                        continue
                    j2 = s.join_table[a2][b2]
                    if j2 is None or cls[j2] != cls[s.join_table[a][b]]:
                        return False
    return True


def law_noise(c):
    bs = c.bs
    s = bs.base
    for ideal, rep in c.eps_reports:
        kernel = frozenset(
            x
            for x in range(s.size)
            if rep.projection.map[x] == rep.quotient.base.zero
        )
        if kernel != ideal.carrier:
            return (tuple(sorted(ideal.carrier)), "kernel-mismatch")
    if s.size > CONGRUENCE_SCAN_CAP:
        raise _Skip(
            f"kernels verified, minimality scan capped at {CONGRUENCE_SCAN_CAP}"
        )
    for ideal, rep in c.eps_reports:
        eps_cls = rep.congruence.class_of
        for cong in all_congruences(s):
            cls = cong.class_of
            kern = frozenset(x for x in range(s.size) if cls[x] == cls[s.zero])
            if kern != ideal.carrier or not _is_additive_congruence(s, cls):
                continue
            for x in range(s.size):
                for y in range(s.size):
                    if eps_cls[x] == eps_cls[y] and cls[x] != cls[y]:
                        return (tuple(sorted(ideal.carrier)), x, y)
    return None


def law_anja(c):
    for ideal, rep in c.eps_reports:
        if not is_weakly_meet_preserving(
            c.bs, rep.quotient, rep.projection.map
        ):
            return (tuple(sorted(ideal.carrier)),)
    return None


def law_idept_sep_kernel(c):
    """Each map reuses the cached quotient by its kernel."""
    bs = c.bs
    eps_of = {ideal.carrier: rep for ideal, rep in c.eps_reports}
    ident = Morphism(bs, bs, tuple(range(bs.size)))
    rep = analyze_morphism(ident, eps_of.get(kernel_of(ident)))
    if not (rep.idempotent_separating and rep.kernel_carrier == {bs.zero}):
        return ("identity",)
    mu = c.mu
    qrep = check_boolean(mu.quotient)
    if qrep.boolean:
        proj = Morphism(bs, qrep.structure, tuple(mu.projection))
        rep = analyze_morphism(proj, eps_of.get(kernel_of(proj)))
        if not rep.idempotent_separating:
            return ("mu-projection",)
    return None


def law_factorization(c):
    for ideal, rep in c.eps_reports:
        analysis = analyze_morphism(rep.projection, rep)
        if not analysis.additive or analysis.factorization is None:
            return (tuple(sorted(ideal.carrier)),)
    return None


def law_ale(c):
    bs = c.bs
    s = bs.base
    if s.size > ROOK_ENUM_CAP:
        raise _Skip(f"2x2 matrix enumeration capped at {ROOK_ENUM_CAP}")
    if bs.top is None:
        raise _Skip("needs an identity")
    mats = []
    for quad in itertools.product(range(s.size), repeat=4):
        entries = [list(quad[:2]), list(quad[2:])]
        try:
            mats.append(rook_matrix(bs, entries))
        except ValueError:
            continue
    ident = identity_rook(bs, 2)
    z = s.zero
    for a in mats:
        if rook_mul(a, ident).entries != a.entries:
            return (a.entries, "right-unit")
        if rook_mul(ident, a).entries != a.entries:
            return (a.entries, "left-unit")
        if rook_mul(rook_mul(a, rook_star(a)), a).entries != a.entries:
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
    for a in mats:
        da = rook_mul(rook_star(a), a)
        for b in mats:
            entrywise = all(
                s.leq[a.entries[i][j]][b.entries[i][j]]
                for i in range(2)
                for j in range(2)
            )
            if (rook_mul(b, da).entries == a.entries) != entrywise:
                return (a.entries, b.entries, "order")
    return None


# -- laws needing a Boolean monoid -------------------------------------------


def law_main_finite(c):
    cert = c.decomposition.theta
    if not cert.verified or cert.target.structure.size != c.bs.size:
        return ("theta-unverified",)
    return None


def law_finite(c):
    cert = c.decomposition
    if not cert.verified:
        return ("decomposition-unverified",)
    for factor in cert.factors:
        again = decompose(factor.structure)
        want = (factor.n, factor.group.size, group_name(factor.group))
        if again.signature != (want,):
            return (want, "signature-unstable")
    return None


def law_finite_stuff(c):
    trivial_groups = all(h == 1 for (_n, h, _name) in c.decomposition.signature)
    if c.fundamental != trivial_groups:
        return (c.fundamental, c.decomposition.signature)
    return None


def law_discrete_topology(c):
    s = c.s
    ultra = c.filters.ultra
    if len(ultra) != len(s.atoms):
        return (len(ultra), len(s.atoms))
    if {f.principal_at for f in ultra} != c.atom_set:
        return ("ultrafilter-generators",)
    ufg = filter_groupoid(s, ultra)
    if not principal_map_is_iso(s, list(s.atoms), ufg):
        return ("ultrafilter-groupoid",)
    return None


def law_order_isomorphisms(c):
    if not c.triple.matched:
        return ("ideal-posets-differ",)
    return None


def law_rain(c):
    if not c.triple.simple_iff_rank_one:
        return (c.tm.rank, len(c.triple.additive_ideals))
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
    if not mu_type_invariance(c.bs, c.tm, c.mu):
        return ("mu-invariance",)
    return None


def law_butterfly(c):
    rep = type_via_matrices(c.bs, 2, c.tm)
    if not (rep.partition_agrees and rep.witnesses_verified and rep.separation_ok):
        return (rep.partition_agrees, rep.witnesses_verified, rep.separation_ok)
    return None


# -- groupoid laws -----------------------------------------------------------


def glaw_connected_groupoids(c):
    g = c.g
    rebuilt = reconstruct(c.cf)
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
            if s.leq[i][j] != (a <= b):
                return (i, j, "order-not-inclusion")
    pos = {next(iter(kg.bisections[i])): i for i in singles}
    ag = atoms_groupoid(kg.structure)
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
    kg = c.kg.structure
    if is_fundamental(kg.base).fundamental != is_principal(c.g):
        return ("fundamental-vs-principal",)
    if is_zero_simplifying(kg).holds != is_connected(c.g):
        return ("simplifying-vs-connected",)
    return None


def glaw_local_bisections_rook(c):
    if not is_connected(c.g):
        raise _Skip("stated for connected groupoids")
    cert = decompose(c.kg.structure)
    comp = c.cf.components[0]
    want = (
        comp.identity_count,
        comp.group.size,
        group_name(comp.group),
    )
    if cert.signature != (want,) or not cert.verified:
        return (cert.signature, want)
    return None


class GpdContext:
    def __init__(self, g):
        self.g = g

    @cached_property
    def cf(self):
        return component_form(self.g)

    @cached_property
    def kg(self):
        return k_of_groupoid(self.g)


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
    ("main-finite", "boolean-monoid", law_main_finite),
    ("finite", "boolean-monoid", law_finite),
    ("finite-stuff", "boolean-monoid", law_finite_stuff),
    ("discrete-topology", "boolean-monoid", law_discrete_topology),
    ("order-isomorphisms", "boolean-monoid", law_order_isomorphisms),
    ("rain", "boolean-monoid", law_rain),
    ("type-monoid-basics", "boolean-monoid", law_type_monoid_basics),
    ("type-fundamental", "boolean-monoid", law_type_fundamental),
    ("butterfly", "boolean-monoid", law_butterfly),
)

GROUPOID_LAWS = (
    ("connected-groupoids", "groupoid", glaw_connected_groupoids),
    ("groupoids", "groupoid", glaw_groupoids),
    ("bordeaux1", "groupoid", glaw_bordeaux1),
    ("local-bisections-rook", "groupoid", glaw_local_bisections_rook),
)

# criterion names cmd_verify must be able to report individually
CORE_LAW_KEYS = (
    "l-and-r-order",
    "wedge",
    "fish",
    "oj",
    "buffs",
    "restricted-product",
    "eggs",
    "chicken",
    "pork",
    "orthogonal",
    "setminus-2",
    "setminus-4",
    "setminus-1-corrected",
    "setminus-5-corrected",
)


def _applicable(kind, ctx):
    if kind == "invsgp":
        return True, None
    if kind == "zero":
        return (ctx.s.zero is not None), "no zero"
    if kind == "boolean":
        return (ctx.bs is not None), "not Boolean"
    if kind == "boolean-monoid":
        if ctx.bs is None:
            return False, "not Boolean"
        return (ctx.bs.top is not None), "no identity"
    raise ValueError(kind)


def run_laws(obj, keys=None):
    """Run every applicable law on an InvSgp, BoolInvSgp, or Gpd.

    Returns LawResults in registry order.  Failures carry the witness; laws
    whose preconditions or size caps rule them out report a skip.
    """
    results = []
    if isinstance(obj, Gpd):
        ctx = GpdContext(obj)
        table = GROUPOID_LAWS
        applies = lambda kind: (True, None)  # noqa: E731
    else:
        ctx = Analysis(obj)
        table = SEMIGROUP_LAWS
        applies = lambda kind: _applicable(kind, ctx)  # noqa: E731
    for key, kind, fn in table:
        if keys is not None and key not in keys:
            continue
        ok, why = applies(kind)
        if not ok:
            results.append(LawResult(key, "skip", None, why))
            continue
        try:
            witness = fn(ctx)
        except _Skip as e:
            results.append(LawResult(key, "skip", None, str(e)))
            continue
        except (TooLarge, SizeCapExceeded, Undecided) as e:
            results.append(LawResult(key, "skip", None, f"{type(e).__name__}: {e}"))
            continue
        except (BiskitError, AssertionError) as e:
            results.append(
                LawResult(key, "fail", ("raised", type(e).__name__, str(e)[:200]))
            )
            continue
        if witness is None:
            results.append(LawResult(key, "pass"))
        else:
            results.append(LawResult(key, "fail", tuple(witness)))
    return results
