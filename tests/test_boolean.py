import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biskit.boolean import (
    analyze_morphism,
    as_boolean,
    atoms_groupoid,
    check_boolean,
    direct_product,
    enumerate_additive_ideals,
    epsilon_quotient,
    ideal_closure,
    is_simple,
    is_zero_simplifying,
    k_of_groupoid,
    Morphism,
    orthogonalize,
    preceq,
    theta_iso,
)
from biskit.core import mu_and_quotient
from biskit.corpus import BOOLEAN_NAMES, corpus_groupoid, corpus_semigroup
from biskit.errors import NotBoolean, NotCompatible, TooLarge
from biskit.groupoid import component_form, Gpd


def boolean(name):
    return check_boolean(corpus_semigroup(name)).structure


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
                if not s.leq[y][x]:
                    continue
                z = bs.rc(x, y)
                below = lambda w: {a for a in atoms if s.leq[a][w]}
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


def test_k_of_groupoid_cap():
    with pytest.raises(TooLarge):
        k_of_groupoid(corpus_groupoid("disc3"), cap=4)


def test_k_is_boolean_with_inclusion_order():
    kg = k_of_groupoid(corpus_groupoid("conn2z2"))
    bs = kg.structure
    for a in range(bs.size):
        for b in range(bs.size):
            assert bs.base.leq[a][b] == (kg.bisections[a] <= kg.bisections[b])


def test_atoms_groupoid_i2():
    bs = boolean("i2")
    ag = atoms_groupoid(bs)
    assert ag.size == 4
    assert set(ag.labels) == set(bs.base.atoms)
    cf = component_form(ag)
    assert [(c.identity_count, c.group.size) for c in cf.components] == [(2, 1)]


def test_theta_on_m2z2zero():
    bs = boolean("m2z2zero")
    th = theta_iso(bs)
    assert th.verified
    assert sorted(th.map) == list(range(bs.size))


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
        ideals = enumerate_additive_ideals(bs)
        assert {i.carrier for i in ideals} == found, name


def test_ideal_closure_provenance_replays():
    bs = boolean("i2xz2zero")
    s = bs.base
    for gen in range(1, s.size):
        ideal = ideal_closure(bs, (gen,))
        for x in ideal.carrier:
            step = ideal.provenance[x]
            if step is None:
                assert x == s.zero or x == gen
            elif step[0] == "gen":
                _, u, y, v = step
                assert s.table[s.table[u][y]][v] == x
            else:
                _, a, b = step
                assert s.join_table[a][b] == x


def test_preceq_pencil():
    bs = boolean("i2")
    s = bs.base
    rep = preceq(bs, 5, 1)  # identity covered from the atom 1
    assert rep.holds
    parts = [s.d[x] for x in rep.pencil]
    assert bs.join_of(parts) == 5
    for x in rep.pencil:
        assert s.leq[s.r[x]][1]


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
        assert is_zero_simplifying(boolean(name)).holds == want, name


def test_simple_corpus():
    assert is_simple(boolean("i2"))
    assert not is_simple(boolean("z2zero"))  # not fundamental
    assert not is_simple(boolean("powerset2"))  # not 0-simplifying


def test_epsilon_quotient_z2zero():
    bs = boolean("z2zero")
    ideals = enumerate_additive_ideals(bs)
    by_size = {len(i.carrier): i for i in ideals}
    rep = epsilon_quotient(bs, by_size[1])
    assert rep.quotient.size == bs.size
    rep = epsilon_quotient(bs, by_size[3])
    assert rep.quotient.size == 1


def test_epsilon_collapses_one_product_factor():
    bs = boolean("i2xz2zero")
    sizes = sorted(
        len(
            set(
                epsilon_quotient(bs, i).projection.map
            )
        )
        for i in enumerate_additive_ideals(bs)
    )
    assert sizes == [1, 3, 7, 21]


def test_analyze_identity_morphism():
    bs = boolean("i2")
    m = Morphism(bs, bs, tuple(range(bs.size)))
    rep = analyze_morphism(m)
    assert rep.additive
    assert rep.kernel_carrier == frozenset({bs.zero})
    assert rep.idempotent_separating
    assert rep.weakly_meet_preserving


def test_analyze_mu_projection():
    s = corpus_semigroup("m2z2zero")
    mu = mu_and_quotient(s)
    bs = boolean("m2z2zero")
    bq = as_boolean(mu.quotient)
    rep = analyze_morphism(Morphism(bs, bq, tuple(mu.projection)))
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
    lower = [x for x in range(s.size) if s.leq[x][a] and s.leq[x][b]]
    assert m in lower
    assert all(s.leq[x][m] for x in lower)
