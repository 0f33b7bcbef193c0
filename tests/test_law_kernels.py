"""The laws with a pass or a row-wise kernel, and the additive-ideal
closure, against the scalar scans they replaced.

Each oracle below is the per-element loop a law's pass or kernel replaced,
kept verbatim; those of laws oj, setminus-2 and definition, and of
verify_additive_ideal, are the scans in tests/naive_translation.py.  Laws fish, oj, setminus-2, setminus-4, definition and eggs
fall back to the same loop when their pass declines, which names the
witness; laws carre and discrete-topology fall back to the setwise filter
scan, filter_groupoid, which their oracles always run.  Where the order is
compatible, those laws read the restricted and the atoms groupoid instead,
which name a composable pair with an unlisted product by its ids, and the
oracles name it so too.  Law and oracle must return the same witness, or
raise the same error, on the corpus, on generated products, on structures
with one corrupted table entry, which makes the passes decline, and on the
corpus with every pass made to decline.  Law orthogonal calls
orthogonalize, its oracle's loop, on each family its cached steps miss.
The oracles read the order where the laws do, off down, so a corrupted
table or order reaches both alike; tests/naive_order.py checks down itself.
"""

import itertools
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biskit.laws as laws
from biskit.boolean import (
    Morphism,
    _atom_pencils,
    _check_pencil,
    ideal_closure,
    is_weakly_meet_preserving,
    orthogonalize,
    preceq,
    verify_additive_ideal,
)
from biskit.booleanization import (
    enumerate_filters,
    filter_groupoid,
    principal_map_is_iso,
)
from biskit.core import (
    CONGRUENCE_SCAN_CAP,
    InvSgp,
    _dr_classes,
    all_congruences,
    table_product,
)
from biskit.corpus import (
    BOOLEAN_NAMES,
    SEMIGROUP_BUILDERS,
    corpus_semigroup,
    symmetric_inverse_table,
)
from biskit.errors import CertificateFailed, NotAnIdeal
from biskit.rook import identity_rook
from biskit.laws import (
    ROOK_ENUM_CAP,
    Analysis,
    _meets_preserved,
    _Skip,
    _applicable,
    law_ale,
    law_carre,
    law_definition,
    law_discrete_topology,
    law_eggs,
    law_fish,
    law_mu_separating,
    law_noise,
    law_oj,
    law_orthogonal,
    law_restricted_product,
    law_setminus_2,
    law_setminus_4,
    law_smallest,
    law_toby,
)
from biskit.typemon import _atom_edges
from generated import i4_subsemigroup_tables
from naive_rook import rook_matrix, rook_mul, rook_star
from naive_translation import (
    _definition_scan,
    _oj_scan,
    _setminus_2_scan,
    naive_additive_ideal,
)

# -- the scalar scans -------------------------------------------------------


def oracle_fish(c):
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


def oracle_restricted_product(c):
    s = c.s
    for a in range(s.size):
        for b in range(s.size):
            a2 = s.table[a][s.r[b]]
            b2 = s.table[s.d[a]][b]
            if not (
                a2 in s.down[a]
                and b2 in s.down[b]
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


def oracle_oj(c):
    return _oj_scan(c.s)


def oracle_definition(c):
    return _definition_scan(c.bs.base)


def oracle_eggs(c):
    s = c.bs.base
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


def oracle_orthogonal(c):
    bs = c.bs
    s = bs.base
    for m in (2, 3):
        for combo in itertools.combinations(range(s.size), m):
            if s.zero in combo:
                continue
            if not all(
                b in s.compat_partners[a] for a, b in itertools.combinations(combo, 2)
            ):
                continue
            orthogonalize(bs, combo)
    return None


def oracle_setminus_2(c):
    return _setminus_2_scan(c.bs)


def oracle_setminus_4(c):
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


def oracle_ale(c):
    bs = c.bs
    s = bs.base
    if s.size > ROOK_ENUM_CAP:
        raise _Skip(
            f"2x2 matrix enumeration capped at ROOK_ENUM_CAP={ROOK_ENUM_CAP}, "
            f"carrier has {s.size} elements"
        )
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
                a.entries[i][j] in s.down[b.entries[i][j]]
                for i in range(2)
                for j in range(2)
            )
            if (rook_mul(b, da).entries == a.entries) != entrywise:
                return (a.entries, b.entries, "order")
    return None


def oracle_mu_separating(c):
    s = c.s
    rep = c.mu  # construction re-checks congruence and separation
    if s.size > CONGRUENCE_SCAN_CAP:
        raise _Skip(
            "construction verified, maximality scan capped at "
            f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}, carrier has {s.size} elements"
        )
    mu_cls = rep.mu
    for cls in all_congruences(s):
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


def oracle_is_additive_congruence(s, cls):
    for a in range(s.size):
        for b in range(s.size):
            if b not in s.compat_partners[a] or s.join_table[a][b] is None:
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


def oracle_noise(c):
    bs = c.bs
    s = bs.base
    for ideal, p in c.eps_projections:
        kernel = frozenset(x for x in range(s.size) if p.map[x] == p.target.base.zero)
        if kernel != ideal:
            return (tuple(sorted(ideal)), "kernel-mismatch")
    if s.size > CONGRUENCE_SCAN_CAP:
        raise _Skip(
            "kernels verified, minimality scan capped at "
            f"CONGRUENCE_SCAN_CAP={CONGRUENCE_SCAN_CAP}, carrier has {s.size} elements"
        )
    for ideal, p in c.eps_projections:
        eps_cls = p.map
        for cls in all_congruences(s):
            kern = frozenset(x for x in range(s.size) if cls[x] == cls[s.zero])
            if kern != ideal or not oracle_is_additive_congruence(s, cls):
                continue
            for x in range(s.size):
                for y in range(s.size):
                    if eps_cls[x] == eps_cls[y] and cls[x] != cls[y]:
                        return (tuple(sorted(ideal)), x, y)
    return None


def oracle_principal_map_is_iso(s, sub_ids, fg):
    pos = {x: i for i, x in enumerate(sub_ids)}
    if fg.size != len(sub_ids):
        return False
    want = {x: pos_f for pos_f, x in enumerate(fg.labels)}
    for x in sub_ids:
        if x not in want:
            return False
    for x in sub_ids:
        for y in sub_ids:
            defined = s.d[x] == s.r[y]
            p = fg.ptable[want[x]][want[y]]
            if defined != (p is not None):
                return False
            if defined:
                prod = s.table[x][y]
                if prod not in want or want[prod] != p:
                    return False
    return True


def oracle_carre(c):
    s = c.s
    proper = c.filters.proper
    try:
        fg = filter_groupoid(s, proper)
    except CertificateFailed as e:
        # where law carre reads the restricted groupoid, it names a composable
        # pair whose product is the zero by its ids
        _, i, j = e.witness
        x, y = proper[i], proper[j]
        if c.filter_order and proper == s.nonzero() and s.table[x][y] == s.zero:
            raise CertificateFailed(("restricted-product-zero", x, y)) from None
        raise
    nonzero = [x for x in range(s.size) if x != s.zero]
    if not oracle_principal_map_is_iso(s, nonzero, fg):
        return ("filter-groupoid-mismatch",)
    return None


def oracle_discrete_topology(c):
    s = c.s
    ultra = c.filters.ultra
    if len(ultra) != len(s.atoms):
        return (len(ultra), len(s.atoms))
    if set(ultra) != c.atom_set:
        return ("ultrafilter-generators",)
    try:
        ufg = filter_groupoid(s, ultra)
    except CertificateFailed as e:
        # where law discrete-topology reads the atoms groupoid, it names a
        # composable pair of atoms whose product is no atom by its ids
        _, i, j = e.witness
        x, y = ultra[i], ultra[j]
        p = s.table[x][y]
        if c.filter_order and p not in c.atom_set:
            raise CertificateFailed(("atom-product-not-atom", x, y, p)) from None
        raise
    if not oracle_principal_map_is_iso(s, list(s.atoms), ufg):
        return ("ultrafilter-groupoid",)
    return None


def oracle_ideal_closure(bs, gens):
    s = bs.base
    gens = list(gens)
    if not gens:
        raise NotAnIdeal(("empty-generators",))
    members = set()
    for x in gens:
        for u in range(s.size):
            su = s.table[u][x]
            for v in range(s.size):
                members.add(s.table[su][v])
    changed = True
    while changed:
        changed = False
        snapshot = sorted(members)
        for a, b in itertools.combinations(snapshot, 2):
            if b not in s.compat_partners[a]:
                continue
            j = s.join_table[a][b]
            if j not in members:
                members.add(j)
                changed = True
    bad = naive_additive_ideal(bs, members)
    if bad is not None:
        raise CertificateFailed(("closure-not-an-ideal", bad))
    return frozenset(members)


KERNELS = {
    "fish": ("invsgp", law_fish, oracle_fish),
    "restricted-product": ("invsgp", law_restricted_product, oracle_restricted_product),
    "oj": ("zero", law_oj, oracle_oj),
    "definition": ("boolean", law_definition, oracle_definition),
    "eggs": ("boolean", law_eggs, oracle_eggs),
    "orthogonal": ("boolean", law_orthogonal, oracle_orthogonal),
    "setminus-2": ("boolean", law_setminus_2, oracle_setminus_2),
    "setminus-4": ("boolean", law_setminus_4, oracle_setminus_4),
    "carre": ("invsgp", law_carre, oracle_carre),
    "discrete-topology": ("boolean", law_discrete_topology, oracle_discrete_topology),
    "ale": ("boolean", law_ale, oracle_ale),
}


def outcome(fn, *args):
    """What fn returned, or the type and text of what it raised."""
    try:
        return ("returned", fn(*args))
    except Exception as e:  # noqa: BLE001 - any difference must show
        return ("raised", type(e).__name__, str(e))


def assert_kernels_match(c):
    for key, (kind, law, oracle) in KERNELS.items():
        if _applicable(kind, c)[0]:
            assert outcome(law, c) == outcome(oracle, c), key


def assert_closures_match(bs):
    for a in range(bs.size):
        assert outcome(ideal_closure, bs, [a]) == outcome(oracle_ideal_closure, bs, [a]), a


def assert_closures_match_on_pairs(bs):
    for gens in itertools.combinations(range(bs.size), 2):
        assert outcome(ideal_closure, bs, gens) == outcome(oracle_ideal_closure, bs, gens), gens


# -- uncorrupted structures -------------------------------------------------

TABLES = {
    **SEMIGROUP_BUILDERS,
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "i2 x z2zero": lambda: table_product(
        corpus_semigroup("i2"), corpus_semigroup("z2zero")
    ),
    "powerset2 x z3zero": lambda: table_product(
        corpus_semigroup("powerset2"), corpus_semigroup("z3zero")
    ),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_law_kernels_match_oracles(name):
    c = Analysis(InvSgp(TABLES[name]()))
    assert_kernels_match(c)
    if c.bs is not None:
        assert_closures_match(c.bs)
        assert_closures_match_on_pairs(c.bs)
        for ideal in c.ideals:
            assert verify_additive_ideal(c.bs, ideal) is None
    # every pass declined, Light's test read as failed on the table: each
    # law's plain scan runs on a valid table
    declined = Analysis(InvSgp(TABLES[name]()))
    declined.s._associative = (declined.s.table, None)
    declined.atom_splits = None
    assert_kernels_match(declined)


@pytest.mark.parametrize("name", ("trivial", "powerset2", "z2zero", "z3zero"))
def test_law_ale_matches_oracle(name):
    c = Analysis(corpus_semigroup(name))
    assert outcome(law_ale, c) == outcome(oracle_ale, c) == ("returned", None)


def test_law_ale_matches_oracle_on_a_wrong_order():
    # read as discrete, the order no longer matches b*(a'a) = a
    c = Analysis(corpus_semigroup("powerset2"))
    c.bs.base.down = tuple((b,) for b in range(4))
    got = outcome(law_ale, c)
    assert got == outcome(oracle_ale, c)
    assert got[0] == "returned" and got[1][-1] == "order"


def test_law_ale_matches_oracle_when_a_product_raises(monkeypatch):
    # with the order read as discrete, the witness (a, w) comes from the
    # products b(a'a); an error planted at one of them, in turn for each b,
    # comes out where the oracle's scan meets it before w, and the witness
    # where it does not
    c = Analysis(corpus_semigroup("powerset2"))
    c.bs.base.down = tuple((b,) for b in range(4))
    a = rook_matrix(c.bs, outcome(oracle_ale, c)[1][0])
    da = rook_mul(rook_star(a), a).entries
    quads = itertools.product(range(4), repeat=4)
    candidates = [((p, q), (r, t)) for p, q, r, t in quads]
    mats = [m for m in candidates if outcome(rook_matrix, c.bs, m)[0] == "returned"]

    def planted(mul, b):
        def mul_or_raise(x, y):
            if (x.entries, y.entries) == (b, da):
                raise CertificateFailed(("planted", b))
            return mul(x, y)

        return mul_or_raise

    seen = set()
    for b in mats:
        with monkeypatch.context() as mp:
            mp.setattr(laws, "rook_mul", planted(laws.rook_mul, b))
            mp.setitem(globals(), "rook_mul", planted(rook_mul, b))
            got = outcome(law_ale, c)
            assert got == outcome(oracle_ale, c), b
        seen.add(got[0])
    assert seen == {"returned", "raised"}


# -- the congruence laws ----------------------------------------------------


def reversed_ids(table):
    """The same table with id x renamed k - 1 - x, so the zero is no longer
    id 0."""
    k = len(table)
    return [[k - 1 - table[k - 1 - a][k - 1 - b] for b in range(k)] for a in range(k)]


def congruence_corrupted(name, kind):
    """Analysis of a corpus table, its ids reversed when name ends in
    "-reversed", with its mu or first epsilon projection replaced, so that
    laws mu-separating and noise name a witness: mu read as equality, the
    projection sending every element outside the ideal to one class, which
    keeps the kernel, or the projection sending everything to the zero."""
    base, flip = name.removesuffix("-reversed"), name.endswith("-reversed")
    table = [list(row) for row in corpus_semigroup(base).table]
    c = Analysis(InvSgp(reversed_ids(table) if flip else table))
    k = c.s.size
    if kind == "mu-equality":
        c.mu = replace(c.mu, mu=tuple(range(k)))
    elif kind != "none" and c.bs is not None:
        (ideal, p), *rest = c.eps_projections
        zero = p.map[c.s.zero]
        if kind == "eps-universal":
            other = p.map[c.bs.top]
            cls = tuple(zero if x in ideal else other for x in range(k))
        else:
            cls = (zero,) * k
        c.eps_projections = [(ideal, Morphism(c.bs, p.target, cls)), *rest]
    return c


SCANNED = [n for n in SEMIGROUP_BUILDERS if corpus_semigroup(n).size <= CONGRUENCE_SCAN_CAP]
CONGRUENCE_CORRUPTIONS = ("none", "mu-equality", "eps-universal", "eps-kernel")


@pytest.mark.parametrize("kind", CONGRUENCE_CORRUPTIONS)
@pytest.mark.parametrize("name", [*SCANNED, *(f"{n}-reversed" for n in SCANNED), "i3"])
def test_congruence_laws_match_oracles(name, kind):
    # the shared scan, the first split and the per-congruence additivity
    # give the old witnesses and skip notes
    c = congruence_corrupted(name, kind)
    for applies, law, oracle in (
        ("invsgp", law_mu_separating, oracle_mu_separating),
        ("boolean", law_noise, oracle_noise),
    ):
        if _applicable(applies, c)[0]:
            assert outcome(law, c) == outcome(oracle, c), law.__name__


def test_congruence_law_corruptions_reach_the_witnesses():
    witnesses = {
        (name, kind, law.__name__): outcome(law, congruence_corrupted(name, kind))[1]
        for name in SCANNED
        for kind in CONGRUENCE_CORRUPTIONS[1:]
        for law in (law_mu_separating, law_noise)
        if kind == "mu-equality" or corpus_semigroup(name).zero is not None
    }
    named = {key for key, w in witnesses.items() if isinstance(w, tuple)}
    assert {law for _n, _k, law in named} == {"law_mu_separating", "law_noise"}
    assert {kind for _n, kind, _l in named} == set(CONGRUENCE_CORRUPTIONS[1:])


# -- corrupted structures ---------------------------------------------------

# cached tables read off the multiplication table; a corrupted table drops
# them so that every reader, kernel and oracle alike, sees the corruption
FROM_TABLE = ("cols", "compat_partners", "orth")


def corrupted(name, which, a, b, value):
    """Analysis of a Boolean corpus table with entry [a][b] of one table set
    to value.  For which "order", value says whether a lies in down[b]; the
    tables built from the order (meets, joins, relative complements) are
    built from the valid one first, so only reads of down see the change."""
    c = Analysis(corpus_semigroup(name))
    bs, s = c.bs, c.s
    if which == "order":
        s.meet_table, s.join_table, bs.rc_table
        down = list(map(set, s.down))
        (down[b].add if value else down[b].discard)(a)
        s.down = tuple(tuple(sorted(d)) for d in down)
        return c
    if which == "rc_table":
        owner = bs
    else:
        owner = s
        for cached in FROM_TABLE:
            s.__dict__.pop(cached, None)
        bs.__dict__.pop("rc_table", None)
    rows = [list(r) for r in getattr(owner, which)]
    rows[a][b] = value
    setattr(owner, which, tuple(map(tuple, rows)))
    return c


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_a_corrupted_table_keeps_the_valid_join_table(name):
    # join_table reads compat_partners, which a corrupted table drops; the
    # join table itself was built by check_boolean from the valid table, so
    # a corrupted table reaches the join kernels only through reads of it
    c = corrupted(name, "table", 0, 0, corpus_semigroup(name).size - 1)
    assert "join_table" in c.s.__dict__
    assert c.s.join_table == corpus_semigroup(name).join_table


@st.composite
def corruptions(draw, names=BOOLEAN_NAMES, tables=("table", "meet_table", "join_table", "rc_table")):
    name = draw(st.sampled_from(names))
    k = corpus_semigroup(name).size
    which = draw(st.sampled_from(tables))
    a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    ids = st.integers(0, k - 1)
    value = draw(ids if which == "table" else st.one_of(st.none(), ids))
    return name, which, a, b, value


@settings(max_examples=200, deadline=None)
@given(corruptions())
# the corrupted tables stay associative and keep every atom split, and law
# definition's split check on the generators' rows is what fails them
@example(("powerset2", "table", 1, 1, 0))
@example(("powerset2", "table", 2, 2, 0))
def test_law_kernels_match_oracles_on_corrupted_tables(corruption):
    assert_kernels_match(corrupted(*corruption))


@settings(max_examples=50, deadline=None)
@given(corruptions(names=("i3",)))
def test_law_kernels_match_oracles_on_corrupted_i3(corruption):
    # i3 is symmetric_inverse_table(3): a corrupted product usually fails
    # Light's test in law fish's generator pass, and the column scan decides
    assert_kernels_match(corrupted(*corruption))


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables)
def test_law_kernels_match_oracles_on_generated_structures(table):
    # law fish applies to every one of these, law eggs to the Boolean ones
    assert_kernels_match(Analysis(InvSgp(table)))


# law orthogonal on powerset2 (0, atoms 1 and 2, top 3), one corruption per
# read of a step or a triple: (table, a, b, value).  Its pairs (1, 2), (1, 3)
# and (2, 3) give (t, j) = (2, 3), (2, 3) and (1, 3); its one triple
# (1, 2, 3) reads step (1, 2) and step (3, 3) = (0, 3)
ORTHOGONAL_CORRUPTIONS = {
    "missing meet": ("meet_table", 1, 2, None),
    "rc raising": ("rc_table", 2, 0, None),
    "missing join": ("join_table", 1, 2, None),
    "orth false": ("orth", 1, 2, False),
    "x not below x": ("order", 1, 1, False),
    "t not below y": ("order", 2, 3, False),
    "join differs": ("join_table", 1, 3, 1),
    "triple-only orth miss of a": ("orth", 1, 0, False),
    "triple-only orth miss of t2": ("orth", 2, 0, False),
    "triple-only missing meet": ("meet_table", 3, 3, None),
    "miss orthogonalize accepts": ("order", 3, 3, False),  # j <= j, step (3, 3)
}


@pytest.mark.parametrize("kind", sorted(ORTHOGONAL_CORRUPTIONS))
def test_law_orthogonal_matches_oracle_on_each_read(kind):
    corruption = ("powerset2", *ORTHOGONAL_CORRUPTIONS[kind])
    got = outcome(law_orthogonal, corrupted(*corruption))
    assert got == outcome(oracle_orthogonal, corrupted(*corruption))
    assert got[0] == ("returned" if kind == "miss orthogonalize accepts" else "raised")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BOOLEAN_NAMES), st.sampled_from(("orth", "order")), st.data())
def test_law_orthogonal_matches_oracle_on_corrupted_order_tables(name, which, data):
    k = corpus_semigroup(name).size
    a, b = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    corruption = (name, which, a, b, data.draw(st.booleans()))
    assert outcome(law_orthogonal, corrupted(*corruption)) == (
        outcome(oracle_orthogonal, corrupted(*corruption))
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BOOLEAN_NAMES), st.data())
def test_principal_map_is_iso_matches_oracle_on_changed_groupoids(name, data):
    # a filter groupoid of laws carre and discrete-topology with one entry
    # changed, and two labels swapped
    s = corpus_semigroup(name)
    report = enumerate_filters(s)
    filters, sub_ids = data.draw(
        st.sampled_from(((report.proper, s.nonzero()), (report.ultra, s.atoms)))
    )
    fg = filter_groupoid(s, filters)
    rows, labels, ids = [list(r) for r in fg.ptable], list(fg.labels), range(fg.size)
    if fg.size:
        i, j, a, b = (data.draw(st.sampled_from(ids)) for _ in range(4))
        rows[i][j] = data.draw(st.one_of(st.none(), st.sampled_from(ids)))
        labels[a], labels[b] = labels[b], labels[a]
    changed = SimpleNamespace(size=fg.size, labels=tuple(labels), ptable=rows)
    assert principal_map_is_iso(s, sub_ids, changed) == (
        oracle_principal_map_is_iso(s, sub_ids, changed)
    )


@settings(max_examples=150, deadline=None)
@given(corruptions())
# Light's test fails on this table, and generators the structure was built
# with would close {7} and {14} into {0, 7, 14}, which is no ideal of it
@example(("i2xz2zero", "table", 1, 0, 1))
def test_ideal_closure_matches_oracle_on_corrupted_tables(corruption):
    assert_closures_match(corrupted(*corruption).bs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOOLEAN_NAMES), st.data())
def test_verify_additive_ideal_matches_oracle_on_subsets(name, data):
    bs = Analysis(corpus_semigroup(name)).bs
    order = data.draw(st.permutations(range(bs.size)))
    keep = data.draw(st.lists(st.booleans(), min_size=bs.size, max_size=bs.size))
    subset = set()
    for x, kept in zip(order, keep):
        if kept:
            subset.add(x)
    for candidate in (subset, frozenset(subset)):
        assert verify_additive_ideal(bs, candidate) == (
            naive_additive_ideal(bs, candidate)
        )


# -- plain projections -------------------------------------------------------


def oracle_weakly_meet_preserving(p):
    """Every common lower bound of p(a) and p(b) lies below p(x) for some
    common lower bound x of a and b, read off the down-sets pair by pair."""
    s, t, mp = p.source.base, p.target.base, p.map
    s_down, t_down = [set(d) for d in s.down], [set(d) for d in t.down]
    for a in range(s.size):
        for b in range(s.size):
            covered = set().union(*(t_down[mp[x]] for x in s_down[a] & s_down[b]))
            if not t_down[mp[a]] & t_down[mp[b]] <= covered:
                return False
    return True


def oracle_meets_preserved(p):
    s, t, mp = p.source.base, p.target.base, p.map
    return all(
        mp[s.meet_table[a][b]] == t.meet_table[mp[a]][mp[b]]
        for a in range(s.size)
        for b in range(s.size)
    )


PLAIN_PROJECTION_TABLES = {
    **{name: lambda name=name: corpus_semigroup(name).table for name in BOOLEAN_NAMES},
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
}


@pytest.mark.parametrize("name", sorted(PLAIN_PROJECTION_TABLES))
def test_plain_projections_match_the_full_checks(name):
    # the epsilon projections by the ideal {0}, the identity, and by the
    # whole structure, onto one point, are decided without reading a pair
    c = Analysis(InvSgp(PLAIN_PROJECTION_TABLES[name]()))
    kinds = set()
    for _ideal, p in c.eps_projections:
        if p.target is p.source and p.map == tuple(range(p.source.size)):
            kinds.add("identity")
        elif p.target.size != 1:
            continue
        if p.target.size == 1:
            kinds.add("point")
            got = is_weakly_meet_preserving(p.source, p.target, p.map)
            assert got is oracle_weakly_meet_preserving(p) is True
        assert _meets_preserved(p) is oracle_meets_preserved(p) is True
    assert kinds == {"identity", "point"}


# -- the atoms groupoid: closures, pencils, edges, the identity -------------

# Boolean inverse subsemigroups of I4
boolean_i4_tables = i4_subsemigroup_tables.filter(
    lambda table: Analysis(InvSgp(table)).bs is not None
)


def oracle_atom_components(s):
    """keys[e]: the set of atom components that meet the atoms below e,
    for each idempotent e, as a frozenset of component indices; None unless
    every atom's d and r is an idempotent atom.  The components are the
    classes of the idempotent atoms (_dr_classes) under an edge d(x)-r(x)
    for each atom x, found from the table without building the groupoid."""
    atoms = s.atoms
    idem_atoms = [a for a in atoms if s.is_idempotent(a)]
    ds, rs = [s.d[x] for x in atoms], [s.r[x] for x in atoms]
    if not set(idem_atoms).issuperset(ds + rs):
        return None
    comp = {a: i for i, ids in enumerate(_dr_classes(idem_atoms, ds, rs)) for a in ids}
    keys = (frozenset(comp[a] for a in s.down[e] if a in comp) for e in s.idempotents)
    return dict(zip(s.idempotents, keys))


def oracle_atom_pencils(s):
    """pencil(e, f): for each idempotent atom α <= e, ascending, the first
    atom x with d(x) = α and r(x) <= f, read off the table; None when some
    α has none."""
    by_domain = {}  # by_domain[α]: the atoms x with d(x) = α, ascending
    for x in s.atoms:
        by_domain.setdefault(s.d[x], []).append(x)
    idem_atoms = {a for a in s.atoms if s.is_idempotent(a)}
    below = {e: [a for a in s.down[e] if a in idem_atoms] for e in s.idempotents}

    def arrows(f):  # arrows(f)[α]: the first atom from α with range below f
        below_f = frozenset(s.down[f])
        return {
            a: next((x for x in by_domain.get(a, ()) if s.r[x] in below_f), None)
            for a in idem_atoms
        }

    def pencil(e, f):
        p = tuple(map(arrows(f).__getitem__, below[e]))
        return None if None in p else p

    return pencil


def oracle_atom_edges(s):
    """The least witness x with d(x) = p and r(x) = q per pair of atomic
    idempotents with one, from a scan of every element."""
    atomic = [e for e in s.atoms if s.is_idempotent(e)]
    wit = {}
    for x in range(s.size):
        p, q = s.d[x], s.r[x]
        if p in atomic and q in atomic and (p, q) not in wit:
            wit[(p, q)] = x
    return wit


# closures law smallest runs: one per set of components of the atoms
# groupoid, which has none on trivial, two on powerset2 and i2xz2zero, and
# one on the others
CLOSURE_RUNS = {
    "trivial": 1,
    "powerset2": 4,
    "z2zero": 2,
    "z3zero": 2,
    "i2": 2,
    "i3": 2,
    "i2xz2zero": 4,
    "m2z2zero": 2,
}


def smallest_closures(c):
    """The generators of each ideal_closure law smallest runs, in order,
    once they are checked against the table scan's component sets: one run
    per set, of the first idempotent with it, whose carrier is that of
    every idempotent with the set."""
    c.ideals
    with mock.patch.object(laws, "ideal_closure", wraps=ideal_closure) as spy:
        assert law_smallest(c) is None
    runs = [list(call.args[1]) for call in spy.call_args_list]
    keys = oracle_atom_components(c.s)
    first = {}
    for e in c.s.idempotents:
        first.setdefault(keys[e], e)
    assert runs == [[e] for e in first.values()]
    for e in c.s.idempotents:
        want = ideal_closure(c.bs, [first[keys[e]]])
        assert ideal_closure(c.bs, [e]) == want, e
    return runs


def assert_atom_pencils_match_preceq(c):
    # the atom pencils against the table scan, preceq, and the closures: a
    # pencil from e to f exists exactly when e lies in the closure of f
    s = c.s
    pencil, oracle = _atom_pencils(c.bs), oracle_atom_pencils(s)
    nonzero = [e for e in s.idempotents if e != s.zero]
    for f in nonzero:
        closure = ideal_closure(c.bs, [f])
        for e in nonzero:
            p = pencil(e, f)
            assert p == oracle(e, f) == preceq(c.bs, e, f), (e, f)
            assert (p is not None) == (e in closure), (e, f)
            if p is not None:
                _check_pencil(s, p, e, f)
    assert law_toby(c) is None


def assert_identity_shortcut_matches_scan(bs):
    ids = tuple(range(bs.size))
    twin = InvSgp(bs.base.table)  # equal tables, so the scan decides
    assert twin is not bs.base
    assert is_weakly_meet_preserving(bs, bs, ids) is True
    assert is_weakly_meet_preserving(bs, twin, ids) is True


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_closures_per_component_set_match_closures_per_idempotent(name):
    runs = smallest_closures(Analysis(corpus_semigroup(name)))
    assert len(runs) == CLOSURE_RUNS[name]


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_atom_pencils_match_preceq(name):
    assert_atom_pencils_match_preceq(Analysis(corpus_semigroup(name)))


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_atom_edges_match_the_table_scan(name):
    bs = Analysis(corpus_semigroup(name)).bs
    assert _atom_edges(bs) == oracle_atom_edges(bs.base)


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_identity_shortcut_matches_the_scan(name):
    assert_identity_shortcut_matches_scan(Analysis(corpus_semigroup(name)).bs)


@settings(max_examples=40, deadline=None)
@given(boolean_i4_tables)
def test_atoms_groupoid_readings_on_generated_structures(table):
    c = Analysis(InvSgp(table))
    smallest_closures(c)
    assert_atom_pencils_match_preceq(c)
    assert _atom_edges(c.bs) == oracle_atom_edges(c.s)
    assert_identity_shortcut_matches_scan(c.bs)
