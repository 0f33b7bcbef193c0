import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biskit.boolean
from biskit.boolean import (
    _bisection_count,
    _bisections,
    analyze_morphism,
    as_boolean,
    check_boolean,
    check_multiplicative,
    check_zero_preserving,
    direct_product,
    enumerate_additive_ideals,
    epsilon_quotient,
    idempotent_ideals,
    is_additive_morphism,
    is_weakly_meet_preserving,
    is_zero_simplifying,
    k_of_groupoid,
    Morphism,
    orthogonalize,
    preceq,
    verify_additive_ideal,
)
from biskit.core import (
    InvSgp,
    check_congruence,
    mu_and_quotient,
    quotient_table,
    restricted_groupoid,
    table_product,
)
from biskit.corpus import (
    BOOLEAN_NAMES,
    GROUPOID_BUILDERS,
    SEMIGROUP_BUILDERS,
    corpus_groupoid,
    corpus_semigroup,
    symmetric_inverse_table,
)
from biskit.errors import (
    BiskitError,
    CertificateFailed,
    NotAnIdeal,
    NotBoolean,
    NotCompatible,
    NotMultiplicative,
    NotZeroPreserving,
    TooLarge,
)
from biskit.booleanization import booleanize
from biskit.groupoid import Gpd, reconstruct
from biskit.laws import Analysis
from biskit.rook import decompose, theta_iso
from corpus_structures import boolean
from generated import (
    bisection_count,
    component_forms,
    generated_table,
    i4_subsemigroup_tables,
    then,
)
from naive_order import leq
from naive_translation import naive_additive_ideal
from unchecked import replaced, unchecked


def additive_ideals(bs):
    return enumerate_additive_ideals(bs, idempotent_ideals(bs.base))


def test_check_boolean_failures():
    assert check_boolean(corpus_semigroup("chain3")).failure == ("complement", 1, 2)
    assert check_boolean(corpus_semigroup("antichain3")).failure == (
        "missing-join",
        1,
        2,
    )
    assert not check_boolean(corpus_semigroup("b2")).boolean


def test_as_boolean_raises():
    with pytest.raises(NotBoolean):
        as_boolean(corpus_semigroup("b2"))


def test_powerset2_is_the_subset_algebra():
    # ids are bitmasks, so join/meet/rc must be |, &, & ~
    bs = boolean("powerset2")
    for a in range(4):
        for b in range(4):
            assert bs.join(a, b) == a | b
            assert bs.meet(a, b) == a & b
            if b & a == b:
                assert bs.rc(a, b) == a & ~b


def test_relative_complement_atom_oracle():
    # atoms below x minus y are exactly the atoms below x not below y
    for name in ("i2", "m2z2zero"):
        bs = boolean(name)
        s = bs.base
        atoms = set(s.atoms)
        for x in range(s.size):
            for y in range(s.size):
                if not leq(s, y, x):
                    continue
                z = bs.rc(x, y)
                below = lambda w: {a for a in atoms if leq(s, a, w)}
                assert below(z) == below(x) - below(y)
                assert bs.join(z, y) == x


def test_rc_requires_comparable():
    bs = boolean("i2")
    with pytest.raises(Exception):
        bs.rc(1, 6)


def test_orthogonalize():
    bs = boolean("i2")
    s = bs.base
    # 5 = identity, 1 = restriction to point 0: compatible, not orthogonal
    out = orthogonalize(bs, (5, 1))
    assert bs.join_of(out) == bs.join(5, 1)
    for a, b in itertools.combinations(out, 2):
        assert s.table[s.inv[a]][b] == s.zero
        assert s.table[a][s.inv[b]] == s.zero
    with pytest.raises(NotCompatible):
        orthogonalize(bs, (5, 6))


def test_k_of_groupoid_counts():
    assert k_of_groupoid(corpus_groupoid("disc3")).structure.size == 8
    assert k_of_groupoid(corpus_groupoid("z2")).structure.size == 3
    assert k_of_groupoid(corpus_groupoid("z2pair2")).structure.size == 6
    assert k_of_groupoid(corpus_groupoid("conn2z2")).structure.size == 17


def test_k_of_groupoid_cap(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(biskit.boolean, "K_OF_GROUPOID_CAP", 4)
        with pytest.raises(TooLarge) as info:
            k_of_groupoid(corpus_groupoid("disc3"))
    assert str(info.value) == "local bisection count 8 above cap K_OF_GROUPOID_CAP=4"
    # I3's nonzero part: 34 * 139 * 7 local bisections over its three
    # components, refused before any is enumerated
    g = restricted_groupoid(corpus_semigroup("i3"))
    with pytest.raises(TooLarge) as info:
        k_of_groupoid(g)
    assert str(info.value) == (
        "local bisection count 33082 above cap K_OF_GROUPOID_CAP=4096"
    )


@pytest.mark.parametrize(
    "g",
    [
        *(corpus_groupoid(name) for name in sorted(GROUPOID_BUILDERS)),
        *(
            restricted_groupoid(corpus_semigroup(name))
            for name in ("i2", "b2", "m2z2zero", "i2xz2zero")
        ),
        reconstruct(corpus_groupoid("conn2z2").form),
        Gpd([]),
    ],
    ids=repr,
)
def test_bisection_count_matches_enumeration(g, monkeypatch):
    # i2 x z2zero's restricted groupoid has 5,355, above K_OF_GROUPOID_CAP
    monkeypatch.setattr(biskit.boolean, "K_OF_GROUPOID_CAP", 10_000)
    assert bisection_count(g) == _bisection_count(g.identities, g.d, g.r)
    assert bisection_count(g) == len(_bisections(g))


def test_k_is_boolean_with_inclusion_order():
    kg = k_of_groupoid(corpus_groupoid("conn2z2"))
    bs = kg.structure
    for a in range(bs.size):
        for b in range(bs.size):
            assert leq(bs.base, a, b) == (kg.bisections[a] <= kg.bisections[b])


def test_atoms_groupoid_i2():
    bs = boolean("i2")
    ag = bs.atoms_groupoid
    assert ag.size == 4
    assert set(ag.labels) == set(bs.base.atoms)
    assert [(c.identity_count, c.group.size) for c in ag.form] == [(2, 1)]
    assert bs.atoms_groupoid is ag and ag.form is ag.form  # built once each


def test_boolean_corpus_tables_are_monoids():
    # the join of all idempotents is an identity of a finite Boolean table
    for name in BOOLEAN_NAMES:
        s = corpus_semigroup(name)
        assert check_boolean(s).structure.top == s.identity is not None, name


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables)
def test_boolean_generated_tables_are_monoids(table):
    s = InvSgp(table)
    chk = check_boolean(s)
    if chk.boolean:
        assert chk.structure.top == s.identity is not None


def test_check_boolean_refuses_a_boolean_table_without_identity():
    s = corpus_semigroup("i2")
    s.identity = None
    with pytest.raises(CertificateFailed, match="no-identity"):
        check_boolean(s)


def test_theta_on_m2z2zero():
    bs = boolean("m2z2zero")
    th = theta_iso(bs, decompose(bs))
    assert sorted(th.iso) == list(range(bs.size))


def test_additive_ideals_against_raw_scan():
    # brute force every subset; keep those closed under joins of
    # compatible pairs, downward closure, and conjugation
    for name in ("powerset2", "z2zero", "i2"):
        bs = boolean(name)
        s = bs.base
        found = set()
        for m in range(1 << s.size):
            sub = {x for x in range(s.size) if m >> x & 1}
            if s.zero not in sub:
                continue
            ok = all(
                s.table[s.table[u][x]][v] in sub
                for x in sub
                for u in range(s.size)
                for v in range(s.size)
            )
            ok = ok and all(
                s.join_table[a][b] in sub
                for a in sub
                for b in sub
                if s.join_table[a][b] is not None
            )
            if ok:
                found.add(frozenset(sub))
        ideals = additive_ideals(bs)
        assert set(ideals) == found, name


def test_preceq_pencil():
    bs = boolean("i2")
    s = bs.base
    pencil = preceq(bs, 5, 1)  # identity covered from the atom 1
    assert pencil is not None
    parts = [s.d[x] for x in pencil]
    assert bs.join_of(parts) == 5
    for x in pencil:
        assert leq(s, s.r[x], 1)


def test_zero_simplifying_corpus():
    expected = {
        "trivial": False,
        "powerset2": False,
        "z2zero": True,
        "z3zero": True,
        "i2": True,
        "i3": True,
        "i2xz2zero": False,
        "m2z2zero": True,
    }
    for name, want in expected.items():
        bs = boolean(name)
        assert is_zero_simplifying(bs, additive_ideals(bs)).holds == want, name


def test_simple_corpus():
    def simple(name):
        a = Analysis(boolean(name))
        return a.zero_simplifying and a.fundamental

    assert simple("i2")
    assert not simple("z2zero")  # not fundamental
    assert not simple("powerset2")  # not 0-simplifying


def test_epsilon_quotient_z2zero():
    bs = boolean("z2zero")
    ideals = additive_ideals(bs)
    by_size = {len(i): i for i in ideals}
    assert epsilon_quotient(bs, by_size[1]).target.size == bs.size
    assert epsilon_quotient(bs, by_size[3]).target.size == 1


def test_epsilon_collapses_one_product_factor():
    bs = boolean("i2xz2zero")
    sizes = sorted(len(set(epsilon_quotient(bs, i).map)) for i in additive_ideals(bs))
    assert sizes == [1, 3, 7, 21]


def test_analyze_identity_morphism():
    bs = boolean("i2")
    m = Morphism(bs, bs, tuple(range(bs.size)))
    rep = analyze_morphism(m, epsilon_quotient(bs, [bs.zero]))
    assert rep.additive
    assert rep.kernel_carrier == frozenset({bs.zero})
    assert rep.idempotent_separating
    assert rep.weakly_meet_preserving


def test_analyze_mu_projection():
    s = corpus_semigroup("m2z2zero")
    mu = mu_and_quotient(s)
    bs = boolean("m2z2zero")
    bq = as_boolean(mu.quotient)
    eps = epsilon_quotient(bs, [s.zero])
    rep = analyze_morphism(Morphism(bs, bq, mu.mu), eps)
    assert rep.idempotent_separating
    assert rep.kernel_carrier == frozenset({s.zero})
    assert rep.additive
    assert rep.factorization is not None


def test_direct_product_is_boolean():
    bs = boolean("z2zero")
    bt = boolean("powerset2")
    p = direct_product(bs, bt)
    assert p.size == bs.size * bt.size
    assert p.top is not None


@settings(max_examples=60)
@given(st.integers(0, 33), st.integers(0, 33))
def test_meet_is_greatest_lower_bound_i3(a, b):
    s = corpus_semigroup("i3")
    m = s.meet_table[a][b]
    lower = [x for x in range(s.size) if leq(s, x, a) and leq(s, x, b)]
    assert m in lower
    assert all(leq(s, x, m) for x in lower)


def test_analyze_morphism_reuses_the_kernel_quotient():
    bs = boolean("i2xz2zero")
    for ideal in additive_ideals(bs):
        eps = epsilon_quotient(bs, ideal)
        fresh = analyze_morphism(eps, epsilon_quotient(bs, ideal))
        reused = analyze_morphism(eps, eps)
        assert dataclasses.replace(fresh, factorization=None) == (
            dataclasses.replace(reused, factorization=None)
        )
        for got, want in zip(reused.factorization, fresh.factorization):
            assert got.map == want.map
            assert got.source.base.table == want.source.base.table
            assert got.target.base.table == want.target.base.table


def test_analyze_morphism_rejects_a_report_for_another_ideal():
    bs = boolean("i2xz2zero")
    ideals = additive_ideals(bs)
    eps = [epsilon_quotient(bs, i) for i in ideals]
    kernel = tuple(sorted(ideals[1]))
    for other in (eps[2], None):
        with pytest.raises(NotAnIdeal) as info:
            analyze_morphism(eps[1], other)
        assert info.value.witness == ("not-the-kernel", kernel)


# -- check_boolean against the naive per-c distributivity loop --------------


def naive_check_boolean(s):
    """check_boolean as a scan over every c: (failure, complement table)."""
    if s.zero is None:
        return ("no-zero",), None
    k = s.size
    jt = s.join_table
    for a in range(k):
        for b in range(a, k):
            if b in s.compat_partners[a] and jt[a][b] is None:
                return ("missing-join", a, b), None
    for a in range(k):
        for b in range(a, k):
            if b not in s.compat_partners[a]:
                continue
            j = jt[a][b]
            for c in range(k):
                left = jt[s.table[c][a]][s.table[c][b]]
                if left is None or left != s.table[c][j]:
                    return ("left-distributivity", c, a, b), None
                right = jt[s.table[a][c]][s.table[b][c]]
                if right is None or right != s.table[j][c]:
                    return ("right-distributivity", a, b, c), None
    complement = {}
    idem = s.idempotents
    for f in idem:
        for e in idem:
            if not leq(s, e, f):
                continue
            wits = [
                g
                for g in idem
                if leq(s, g, f) and s.table[g][e] == s.zero and jt[e][g] == f
            ]
            if len(wits) != 1:
                return ("complement", e, f), None
            complement[(f, e)] = wits[0]
    return None, complement


def assert_check_boolean_matches_oracle(s):
    rep = check_boolean(s)
    failure, complement = naive_check_boolean(s)
    assert rep.failure == failure
    assert rep.boolean == (failure is None)
    if rep.boolean:
        assert rep.structure.complement == complement


ORACLE_TABLES = {
    **SEMIGROUP_BUILDERS,
    "symmetric_inverse_table(3)": lambda: symmetric_inverse_table(3),
    "powerset2 x z2zero": lambda: table_product(
        corpus_semigroup("powerset2"), corpus_semigroup("z2zero")
    ),
    "one element": lambda: [[0]],
}


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_check_boolean_matches_oracle(name):
    assert_check_boolean_matches_oracle(InvSgp(ORACLE_TABLES[name]()))


@settings(max_examples=150)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_check_boolean_matches_oracle_on_corrupted_tables(name, data):
    table = [list(r) for r in SEMIGROUP_BUILDERS[name]()]
    k = len(table)
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    table[a][b] = v
    try:
        s = InvSgp(table)
    except BiskitError:
        return
    assert_check_boolean_matches_oracle(s)


@settings(max_examples=150)
@given(st.sampled_from(BOOLEAN_NAMES), st.data())
def test_check_boolean_matches_oracle_on_corrupted_joins(name, data):
    # a wrong join table entry is what the distributivity scans can catch;
    # both sides read the same corrupted table
    s = corpus_semigroup(name)
    k = s.size
    a, b = (data.draw(st.integers(0, k - 1)) for _ in range(2))
    v = data.draw(st.one_of(st.none(), st.integers(0, k - 1)))
    assert_check_boolean_matches_oracle(
        unchecked(s, join_table=replaced(s.join_table, a, b, v))
    )


@pytest.mark.parametrize(
    "name", [n for n in BOOLEAN_NAMES if corpus_semigroup(n).size <= 21]
)
def test_check_boolean_matches_oracle_on_every_join_corruption(name):
    # every single-entry corruption of the join table: to None and, on the
    # tables up to 7 elements, to every id.  A None on a reversed pair, such
    # as i2's jt[1][0], must send the generator pass to the full scan
    s = corpus_semigroup(name)
    values = [None, *range(s.size)] if s.size <= 7 else [None]
    clean = s.join_table
    for a, b in itertools.product(range(s.size), repeat=2):
        for v in values:
            bad = unchecked(s, join_table=replaced(clean, a, b, v))
            assert_check_boolean_matches_oracle(bad)


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables, st.booleans())
def test_check_boolean_matches_oracle_on_generated_structures(table, flip):
    # real inverse semigroups, and their transposes (the opposite product):
    # these reach no-zero, missing-join, left- and right-distributivity and
    # complement failures without any corruption
    assert_check_boolean_matches_oracle(InvSgp(list(zip(*table)) if flip else table))


def test_left_distributivity_counterexample():
    # in the inverse subsemigroup of I4 these generate, c = {0->3} times
    # {0->0} v {2->2} is c, but c*{0->0} v c*{2->2} is the empty map
    c = frozenset({(0, 3)})
    gens = [c, frozenset({(0, 2), (1, 1), (2, 0), (3, 3)}),
            frozenset({(0, 2), (1, 1), (2, 3), (3, 0)})]
    elems, table = generated_table(gens)
    s = InvSgp(table)
    ids = {f: i for i, f in enumerate(elems)}
    a, b = ids[frozenset({(0, 0)})], ids[frozenset({(2, 2)})]
    ab = s.join_table[a][b]
    assert then(c, elems[ab]) == c
    assert s.join_table[s.table[ids[c]][a]][s.table[ids[c]][b]] == ids[frozenset()]
    assert check_boolean(s).failure == ("left-distributivity", ids[c], a, b)
    assert_check_boolean_matches_oracle(s)
    # under the opposite product it is right distributivity that breaks
    opposite = InvSgp(list(zip(*table)))
    assert check_boolean(opposite).failure[0] == "right-distributivity"
    assert_check_boolean_matches_oracle(opposite)


# -- idempotent_ideals against the scan of every subset of idempotents -------


def oracle_idempotent_ideals(s):
    """idempotent_ideals as a scan of all 2^|E| subsets of idempotents.

    Compared only on real tables, never with a corrupted join_table: that
    idempotent_ideals need test only the down-sets rests on join_table being
    the join of the natural order, which InvSgp derives itself.
    """
    idem = s.idempotents
    out = []
    for bits in itertools.product((False, True), repeat=len(idem)):
        fset = frozenset(e for e, b in zip(idem, bits) if b)
        if s.zero not in fset:
            continue
        if any(leq(s, e2, e) and e2 not in fset for e in fset for e2 in idem):
            continue
        if any(s.join_table[e][f] not in fset for e in fset for f in fset):
            continue
        if any(
            s.table[s.table[s.inv[a]][e]][a] not in fset
            for e in fset
            for a in range(s.size)
        ):
            continue
        out.append(fset)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


IDEAL_ORACLE_TABLES = {
    **ORACLE_TABLES,
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
    **{
        f"{a} x {b}": lambda a=a, b=b: table_product(
            corpus_semigroup(a), corpus_semigroup(b)
        )
        for a, b in (("i2", "z2zero"), ("powerset2", "z3zero"))
    },
}


def scan_idempotent_ideals(s):
    """idempotent_ideals with closure under conjugation decided by every id
    a, never on the generators: e -> a'*e*a for each member e and each a."""
    t, inv, jt = s.table, s.inv, s.join_table
    out = []
    for m in s.idempotents:
        fset = frozenset(s.down[m])
        inside = fset.__contains__
        if s.zero in fset and all(
            all(map(inside, map(jt[e].__getitem__, fset)))
            and all(inside(t[t[ia][e]][a]) for a, ia in enumerate(inv))
            for e in fset
        ):
            out.append(fset)
    out.sort(key=lambda f: (len(f), sorted(f)))
    return out


@pytest.mark.parametrize("name", sorted(IDEAL_ORACLE_TABLES))
def test_idempotent_ideals_match_subset_scan(name):
    s = InvSgp(IDEAL_ORACLE_TABLES[name]())
    got = idempotent_ideals(s)
    assert got == scan_idempotent_ideals(s) == oracle_idempotent_ideals(s)


@settings(max_examples=100, deadline=None)
@given(i4_subsemigroup_tables)
def test_idempotent_ideals_match_subset_scan_on_generated_structures(table):
    # mostly not Boolean: down-sets fail on a pair without a join or on
    # conjugation, and some tables have no zero at all
    s = InvSgp(table)
    got = idempotent_ideals(s)
    assert got == scan_idempotent_ideals(s) == oracle_idempotent_ideals(s)


def with_entry(name, which, a, b, value):
    """A Boolean corpus table validated, then built unchecked with entry
    [a][b] of its table (which "table") or entry a of its inverse map
    (which "inv") set to value; the order and joins stay those of the valid
    table."""
    s = corpus_semigroup(name)
    s.join_table
    if which == "inv":
        return unchecked(s, inv=(*s.inv[:a], value, *s.inv[a + 1 :]))
    return unchecked(s, table=replaced(s.table, a, b, value))


@pytest.mark.parametrize("name", ["i2", "powerset2", "z2zero", "z3zero"])
def test_idempotent_ideals_match_the_conjugation_scan_on_every_corruption(name):
    # powerset2 and z2zero each have corruptions that stay associative, so
    # Light's test holds on them and the generators decide; on the rest the
    # scan does.  A wrong inverse leaves the table associative: there it is
    # the check (m*g)' = g'*m' that keeps the generators from deciding
    k = corpus_semigroup(name).size
    corruptions = [
        *(("table", a, b, v) for a, b, v in itertools.product(range(k), repeat=3)),
        *(("inv", a, 0, v) for a, v in itertools.product(range(k), repeat=2)),
    ]
    for corruption in corruptions:
        s = with_entry(name, *corruption)
        assert idempotent_ideals(s) == scan_idempotent_ideals(s), corruption


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOOLEAN_NAMES), st.sampled_from(("table", "inv")), st.data())
def test_idempotent_ideals_match_the_conjugation_scan_on_corruptions(name, which, data):
    k = corpus_semigroup(name).size
    a, b, v = (data.draw(st.integers(0, k - 1)) for _ in range(3))
    s = with_entry(name, which, a, b, v)
    assert idempotent_ideals(s) == scan_idempotent_ideals(s)


@st.composite
def ideal_candidates(draw):
    """(s, members in a drawn order): an ideal of s read off an idempotent
    ideal, the same with one member removed, or a drawn set with the zero."""
    named = st.sampled_from(sorted(IDEAL_ORACLE_TABLES)).map(
        lambda name: IDEAL_ORACLE_TABLES[name]()
    )
    s = InvSgp(draw(st.one_of(named, i4_subsemigroup_tables)))
    fsets = idempotent_ideals(s)
    kind = draw(st.sampled_from(("ideal", "ideal-minus-one", "drawn")))
    if kind == "drawn" or not fsets:
        members = {x for x in range(s.size) if draw(st.booleans())}
        members.add(s.zero if s.zero is not None else 0)
    else:
        fset = draw(st.sampled_from(fsets))
        members = {x for x in range(s.size) if s.d[x] in fset}
        if kind == "ideal-minus-one":
            members.discard(draw(st.sampled_from(sorted(members))))
    return s, draw(st.permutations(sorted(members)))


@settings(max_examples=200, deadline=None)
@given(ideal_candidates())
def test_verify_additive_ideal_matches_the_plain_scan(candidate):
    s, order = candidate
    bs = dataclasses.make_dataclass("Wrapped", ["base"])(s)
    for subset in (order, frozenset(order)):
        assert verify_additive_ideal(bs, subset) == naive_additive_ideal(
            bs, subset
        )


# -- is_weakly_meet_preserving against the set version -----------------------


def naive_is_weakly_meet_preserving(source, target, mp):
    """Every lower bound of two images lifts below a common lower bound."""
    s = getattr(source, "base", source)
    t = getattr(target, "base", target)
    s_down = [set(s.down[a]) for a in range(s.size)]
    t_down = [set(t.down[u]) for u in range(t.size)]
    for a in range(s.size):
        for b in range(s.size):
            images = {mp[c] for c in s_down[a] & s_down[b]}
            for u in t_down[mp[a]] & t_down[mp[b]]:
                if not any(leq(t, u, w) for w in images):
                    return False
    return True


def law_suite_maps(s):
    """(source, target, map) for the maps the law suite checks: the identity,
    the projection onto the mu quotient and, when s is Boolean, each
    epsilon_quotient projection."""
    mu = mu_and_quotient(s)
    maps = [(s, s, tuple(range(s.size))), (s, mu.quotient, mu.mu)]
    bs = check_boolean(s).structure
    if bs is not None:
        for ideal in additive_ideals(bs):
            proj = epsilon_quotient(bs, ideal)
            maps.append((bs, proj.target, proj.map))
    return maps


@pytest.mark.parametrize("name", sorted(ORACLE_TABLES))
def test_weakly_meet_preserving_matches_oracle(name):
    for source, target, mp in law_suite_maps(InvSgp(ORACLE_TABLES[name]())):
        want = naive_is_weakly_meet_preserving(source, target, mp)
        assert is_weakly_meet_preserving(source, target, mp) == want


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(sorted(SEMIGROUP_BUILDERS)).map(
            lambda name: SEMIGROUP_BUILDERS[name]()
        ),
        i4_subsemigroup_tables,
    ),
    st.data(),
)
def test_weakly_meet_preserving_matches_oracle_on_corrupted_maps(table, data):
    # generated sources lack meets, which the bitset kernel decides on sets
    maps = law_suite_maps(InvSgp(table))
    source, target, mp = data.draw(st.sampled_from(maps))
    mp = list(mp)
    mp[data.draw(st.integers(0, len(mp) - 1))] = data.draw(
        st.integers(0, target.size - 1)
    )
    want = naive_is_weakly_meet_preserving(source, target, mp)
    assert is_weakly_meet_preserving(source, target, mp) == want


# -- check_multiplicative against the pairwise loop ---------------------------


def oracle_check_multiplicative(source, target, mp):
    """check_multiplicative as a scan of every pair (a, b)."""
    s = getattr(source, "base", source)
    t = getattr(target, "base", target)
    for a in range(s.size):
        for b in range(s.size):
            if mp[s.table[a][b]] != t.table[mp[a]][mp[b]]:
                raise NotMultiplicative((a, b))


def multiplicative_outcome(fn, source, target, mp):
    try:
        return ("returned", fn(source, target, mp))
    except NotMultiplicative as e:
        return ("raised", e.witness)


def multiplicative_maps(s):
    """(source, target, map): the identity, each epsilon_quotient projection
    when s is Boolean, and beta into the Booleanization where K(G) is under
    its cap (not on i3 and i2xz2zero)."""
    maps = [(s, s, tuple(range(s.size)))]
    bs = check_boolean(s).structure if s.zero is not None else None
    if bs is not None:
        for ideal in additive_ideals(bs):
            proj = epsilon_quotient(bs, ideal)
            maps.append((bs, proj.target, proj.map))
    try:
        b = booleanize(s)
    except TooLarge:
        return maps
    maps.append((b.source0, b.bs, b.beta))
    return maps


def oracle_is_additive_morphism(source, target, mp):
    """is_additive_morphism with the joins compared over every pair a <= b
    of ids."""
    s = getattr(source, "base", source)
    t = getattr(target, "base", target)
    try:
        oracle_check_multiplicative(source, target, mp)
        check_zero_preserving(source, target, mp)
    except (NotMultiplicative, NotZeroPreserving):
        return False
    for a in range(s.size):
        for b in range(a, s.size):
            if b in s.compat_partners[a]:
                j = s.join_table[a][b]
                if j is not None and t.join_table[mp[a]][mp[b]] != mp[j]:
                    return False
    return True


@pytest.mark.parametrize("name", sorted(SEMIGROUP_BUILDERS))
def test_check_multiplicative_matches_oracle(name):
    # beta into the Booleanization of a Boolean table is multiplicative but
    # does not preserve joins, so is_additive_morphism answers both ways
    for source, target, mp in multiplicative_maps(corpus_semigroup(name)):
        want = multiplicative_outcome(oracle_check_multiplicative, source, target, mp)
        assert want == ("returned", None)
        assert multiplicative_outcome(check_multiplicative, source, target, mp) == want
        want = oracle_is_additive_morphism(source, target, mp)
        assert is_additive_morphism(source, target, mp) == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SEMIGROUP_BUILDERS)), st.data())
def test_check_multiplicative_matches_oracle_on_changed_maps(name, data):
    maps = multiplicative_maps(corpus_semigroup(name))
    source, target, mp = data.draw(st.sampled_from(maps))
    mp = list(mp)
    mp[data.draw(st.integers(0, len(mp) - 1))] = data.draw(
        st.integers(0, target.size - 1)
    )
    want = multiplicative_outcome(oracle_check_multiplicative, source, target, mp)
    assert multiplicative_outcome(check_multiplicative, source, target, mp) == want
    want = oracle_is_additive_morphism(source, target, mp)
    assert is_additive_morphism(source, target, mp) == want


# -- the epsilon relation against the scan of common lower bounds -------------


def oracle_epsilon_classes(bs, carrier):
    """class_of of epsilon_quotient, related(a, b) decided by scanning the
    c below a for one below b with a minus c and b minus c in the ideal."""
    s = bs.base

    def related(a, b):
        for c in s.down[a]:
            if leq(s, c, b) and bs.rc(a, c) in carrier and bs.rc(b, c) in carrier:
                return True
        return False

    class_of = [None] * s.size
    nxt = 0
    for a in range(s.size):
        if class_of[a] is None:
            for b in range(a, s.size):
                if related(a, b):
                    class_of[b] = nxt
            nxt += 1
    return tuple(class_of)


EPSILON_TABLES = {
    **{name: SEMIGROUP_BUILDERS[name] for name in BOOLEAN_NAMES},
    **{
        f"{a} x {b}": lambda a=a, b=b: table_product(
            corpus_semigroup(a), corpus_semigroup(b)
        )
        for a, b in (("i2", "z2zero"), ("powerset2", "z3zero"), ("powerset2", "z2zero"))
    },
}


EPSILON_ORACLE_TABLES = {
    **EPSILON_TABLES,
    "symmetric_inverse_table(4)": lambda: symmetric_inverse_table(4),
}


def epsilon_structure(name):
    return check_boolean(InvSgp(EPSILON_ORACLE_TABLES[name]())).structure


def assert_epsilon_classes_match_oracle(bs):
    for ideal in additive_ideals(bs):
        assert epsilon_quotient(bs, ideal).map == oracle_epsilon_classes(bs, ideal)


@pytest.mark.parametrize("name", sorted(EPSILON_ORACLE_TABLES))
def test_epsilon_relation_matches_oracle(name):
    assert_epsilon_classes_match_oracle(epsilon_structure(name))


@settings(max_examples=25, deadline=None)
@given(component_forms)
def test_epsilon_relation_matches_oracle_on_component_forms(form):
    # 1-3 components: every sub-product of them is an additive ideal
    bs = k_of_groupoid(reconstruct(form)).structure
    assert len(additive_ideals(bs)) == 2 ** len(form)
    assert_epsilon_classes_match_oracle(bs)


def epsilon_failure(bs, ideal):
    """The witness of the CertificateFailed epsilon_quotient raises, or None."""
    try:
        epsilon_quotient(bs, ideal)
    except CertificateFailed as e:
        return e.witness
    return None


def ideal_top(bs, ideal):
    s = bs.base
    return max((e for e in s.idempotents if e in ideal), key=lambda e: len(s.down[e]))


@pytest.mark.parametrize("name", sorted(EPSILON_ORACLE_TABLES))
def test_epsilon_quotient_names_each_broken_premise(name):
    bs = epsilon_structure(name)
    s, t, top = bs.base, bs.base.table, bs.top
    real_rc_table = bs.rc_table

    def read_as(a, c, w):  # bs with rc_table entry (a, c) read as w
        return unchecked(bs, rc_table=replaced(real_rc_table, a, c, w))

    for ideal in additive_ideals(bs):
        m = ideal_top(bs, ideal)
        f = bs.rc(top, m)
        assert epsilon_failure(bs, ideal) is None  # and the carrier is kept
        # the top idempotent m left out of a carrier that is its join's
        rest = frozenset(ideal) - {m}
        if m != s.zero and bs.join_of(e for e in s.idempotents if e in rest) == m:
            bs.ideal_carriers.add(rest)
            assert epsilon_failure(bs, rest) == ("ideal-top-missing", m)
        # 1 minus m answered wrongly, or not at all
        for wrong in (None, s.zero if m == s.zero else top):
            if wrong != f:
                bad = read_as(top, m, wrong)
                assert epsilon_failure(bad, ideal) == ("not-the-complement", m, wrong)
        # a - a*f read as undefined or outside the ideal, one a at a time
        outside = [x for x in range(bs.size) if x not in ideal]
        for a in range(bs.size):
            if (a, t[a][f]) == (top, m):  # one element: that entry is f itself
                continue
            for diff in (None, *outside[:1]):
                bad = read_as(a, t[a][f], diff)
                want = ("not-split-by-complement", a, t[a][f])
                assert epsilon_failure(bad, ideal) == want
    # the down-set of an idempotent that is not central: m is that
    # idempotent and f its complement, but f is not central either
    for e in s.idempotents:
        if all(t[e][x] == t[x][e] for x in range(bs.size)):
            continue
        carrier = frozenset(s.down[e])
        bs.ideal_carriers.add(carrier)
        f = bs.rc(top, e)
        x = next(x for x in range(bs.size) if t[f][x] != t[x][f])
        assert epsilon_failure(bs, carrier) == ("complement-not-central", f, x)


def test_epsilon_quotient_names_an_undefined_ideal_top():
    bs = boolean("powerset2")
    whole = frozenset(range(bs.size))
    assert epsilon_failure(bs, whole) is None
    s = bs.base
    a, b = s.atoms
    jt = replaced(replaced(s.join_table, a, b, None), b, a, None)
    bs = unchecked(bs, base=unchecked(s, join_table=jt))
    assert epsilon_failure(bs, whole) == ("ideal-top-missing", None)


# -- check_congruence against the scan of every class member ------------------


def oracle_check_congruence(s, cls):
    """check_congruence as a scan: each class's least member against every
    other member b, at every c, left side before right."""
    t = s.table
    classes = {}
    for x in range(s.size):
        classes.setdefault(cls[x], []).append(x)
    for members in classes.values():
        rep = members[0]
        for b in members[1:]:
            for c in range(s.size):
                if cls[t[c][rep]] != cls[t[c][b]]:
                    return (rep, b, c, "left")
                if cls[t[rep][c]] != cls[t[b][c]]:
                    return (rep, b, c, "right")
    return None


CONGRUENCE_TABLES = {**SEMIGROUP_BUILDERS, **EPSILON_TABLES}


def law_suite_congruences(s):
    """mu and, when s is Boolean, every epsilon congruence of s."""
    congs = [mu_and_quotient(s).mu]
    bs = check_boolean(s).structure if s.zero is not None else None
    if bs is not None:
        congs += [epsilon_quotient(bs, i).map for i in additive_ideals(bs)]
    return congs


@pytest.mark.parametrize("name", sorted(CONGRUENCE_TABLES))
def test_check_congruence_matches_oracle(name):
    # each congruence, then each with one element moved to a class of its own
    s = InvSgp(CONGRUENCE_TABLES[name]())
    for cong in law_suite_congruences(s):
        assert check_congruence(s, cong) is None
        assert oracle_check_congruence(s, cong) is None
        for x in range(s.size):
            cls = list(cong)
            cls[x] = s.size
            moved = tuple(cls)
            assert check_congruence(s, moved) == oracle_check_congruence(s, moved)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONGRUENCE_TABLES)), st.data())
def test_check_congruence_matches_oracle_on_edited_classes(name, data):
    # one to three entries of a congruence's class ids set to any class id,
    # merging classes, splitting them or moving elements between them
    s = InvSgp(CONGRUENCE_TABLES[name]())
    cls = list(data.draw(st.sampled_from(law_suite_congruences(s))))
    for _ in range(data.draw(st.integers(1, 3))):
        cls[data.draw(st.integers(0, s.size - 1))] = data.draw(st.integers(0, s.size))
    cong = tuple(cls)
    assert check_congruence(s, cong) == oracle_check_congruence(s, cong)


def test_check_congruence_reads_both_sides():
    # on b2 this partition is respected by left translations and not by
    # right ones; under the opposite product it is the other way round
    s = corpus_semigroup("b2")
    op = InvSgp(tuple(zip(*s.table)))
    cong = (0, 1, 2, 1, 2)
    assert check_congruence(s, cong) == oracle_check_congruence(s, cong) == (1, 3, 1, "right")
    assert check_congruence(op, cong) == oracle_check_congruence(op, cong)
    assert check_congruence(op, cong)[3] == "left"


def test_quotient_table_under_a_one_to_one_numbering():
    # the identity numbering gives the table itself; a rotation of the ids
    # gives the table relabelled
    for name in SEMIGROUP_BUILDERS:
        s = corpus_semigroup(name)
        k = s.size
        assert quotient_table(s, tuple(range(k))) is s.table
        cls = (*range(1, k), 0)
        q = quotient_table(s, cls)
        assert all(
            q[cls[a]][cls[b]] == cls[s.table[a][b]] for a in range(k) for b in range(k)
        )
