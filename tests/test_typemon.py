import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from biskit.boolean import as_boolean, check_boolean, direct_product, k_of_groupoid
from biskit.core import InvSgp, d_relation_idempotents
from biskit.corpus import BOOLEAN_NAMES
from biskit.errors import BiskitError, CertificateFailed, NotBelow, TooLarge
from biskit.groupoid import reconstruct
from biskit.laws import Analysis, _run_law, law_butterfly
from biskit import typemon
from biskit.typemon import (
    _atom_components,
    _atom_edges,
    _match_slots,
    _slots,
    ideal_triple,
    mu_type_invariance,
    refinement_check,
    type_monoid,
    TypeMonoid,
    type_via_matrices,
)
from corpus_structures import boolean, fresh_boolean
from generated import component_forms, i4_subsemigroup_tables
from naive_order import leq
from unchecked import unchecked


def test_ranks():
    ranks = {
        "trivial": 0,
        "powerset2": 2,
        "z2zero": 1,
        "z3zero": 1,
        "i2": 1,
        "i3": 1,
        "i2xz2zero": 2,
        "m2z2zero": 1,
    }
    for name, r in ranks.items():
        assert type_monoid(boolean(name)).rank == r, name


def test_tau_counts_atomic_idempotents_below():
    for name in BOOLEAN_NAMES:
        bs = boolean(name)
        s = bs.base
        tm = type_monoid(bs)
        atomic = set(s.atoms) & set(s.idempotents)
        for e, vec in tm.tau.items():
            assert sum(vec) == sum(1 for a in atomic if leq(s, a, e))


def test_tau_table_i2xz2zero():
    tm = type_monoid(boolean("i2xz2zero"))
    assert tm.tau == {
        0: (0, 0),
        1: (1, 0),
        4: (1, 0),
        5: (2, 0),
        7: (0, 1),
        8: (1, 1),
        11: (1, 1),
        12: (2, 1),
    }


def test_tau_tops():
    for name, top_type in (("i3", (3,)), ("m2z2zero", (2,))):
        bs = boolean(name)
        assert type_monoid(bs).tau[bs.base.identity] == top_type
    assert type_monoid(boolean("powerset2")).tau[3] == (1, 1)


def test_component_order_follows_least_atom():
    # in the product, i2 atoms sit at ids 1..4 and the z2 atoms above them,
    # so the i2 coordinate must come first
    tm = type_monoid(boolean("i2xz2zero"))
    assert min(tm.atomic_idempotents[0]) < min(tm.atomic_idempotents[1])
    assert tm.tau[12] == (2, 1)


def test_refinement_all_boolean_corpus():
    for name in BOOLEAN_NAMES:
        assert refinement_check(type_monoid(boolean(name))), name


def oracle_refinement_check(tm):
    """refinement_check by the 4-fold scan of every quadruple of realized
    vectors."""
    realized = sorted(set(tm.tau.values()))

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    for u, v in itertools.product(realized, repeat=2):
        if add(u, v) == (0,) * tm.rank and (any(u) or any(v)):
            return False
    for a1, a2, b1, b2 in itertools.product(realized, repeat=4):
        if add(a1, a2) != add(b1, b2):
            continue
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


@st.composite
def vector_sets(draw):
    """A rank and a set of integer vectors of that length, read as the
    realized types; negative entries are the only way the check fails."""
    rank = draw(st.integers(0, 3))
    vec = st.tuples(*[st.integers(-2, 3)] * rank)
    return rank, draw(st.lists(vec, min_size=1, max_size=7))


def tm_of(rank, vectors):
    return SimpleNamespace(rank=rank, tau=dict(enumerate(vectors)))


@settings(max_examples=300, deadline=None)
@given(vector_sets())
@example((1, [(1,), (-1,)]))  # a nonzero vector with an inverse
@example((1, [(2,), (-1,)]))  # -1 + 2 = 2 + -1 has no refinement
@example((2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
def test_refinement_check_matches_the_4_fold_scan(case):
    tm = tm_of(*case)
    assert refinement_check(tm) == oracle_refinement_check(tm)


def test_refinement_check_reaches_both_outcomes():
    # both outcomes, and a failure that no zero sum explains
    assert refinement_check(tm_of(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert not refinement_check(tm_of(1, [(1,), (-1,)]))
    assert not refinement_check(tm_of(1, [(2,), (-1,)]))


def test_ideal_triple_counts():
    expected = {"i2": 2, "z2zero": 2, "i2xz2zero": 4, "powerset2": 4, "m2z2zero": 2}
    for name, n in expected.items():
        a = Analysis(boolean(name))
        tri = ideal_triple(a.bs, a.tm, a.ideals, a.idem_ideals)
        assert tri.matched, name
        assert len(a.ideals) == n, name
        assert len(a.idem_ideals) == n, name
        assert 2 ** a.tm.rank == n, name  # one support per subset of coordinates
        assert tri.simple_iff_rank_one, name


def test_ideal_triple_needs_inclusion_order_to_match():
    # a semilattice 0..7 read with the carriers {0}, {0, x} for x = 1..6 and
    # everything, and tau giving the supports {}, {0}, {1}, {2}, {0, 1},
    # {0, 2}, {1, 2} and {0, 1, 2}: counts, sorted supports and induced sets
    # agree, but {0, 1} is below no carrier whose support holds {0}'s
    s = SimpleNamespace(size=8, d=tuple(range(8)), is_idempotent=lambda x: True)
    supports = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    tau = {x: tuple(int(i in supp) for i in range(3)) for x, supp in enumerate(supports)}
    tm = SimpleNamespace(rank=3, tau=tau)
    carriers = [frozenset({0, x}) for x in range(7)] + [frozenset(range(8))]
    triple = ideal_triple(
        SimpleNamespace(base=s), tm, carriers, carriers
    )
    assert not triple.matched


def test_matrix_oracle_runs_clean():
    for name in ("i2", "z2zero", "i2xz2zero"):
        bs = boolean(name)
        mo = type_via_matrices(bs, type_monoid(bs))
        assert mo.partition_agrees, name
        assert mo.witnesses_verified, name
        assert mo.separation_ok, name


def test_matrix_oracle_cap(monkeypatch):
    i3 = fresh_boolean("i3")  # patched
    monkeypatch.setattr(typemon, "MATRIX_IDEMPOTENT_CAP", 63)
    with pytest.raises(TooLarge) as info:
        type_via_matrices(i3, type_monoid(i3))
    assert str(info.value) == (
        "8^2 = 64 diagonal idempotents, above cap MATRIX_IDEMPOTENT_CAP=63"
    )


def search_match_slots(left, right, edges):
    """The augmenting-path search the component pairing replaced: a perfect
    matching between slot lists along the witness edges, as (left index,
    right index) pairs, or None."""
    if len(left) != len(right):
        return None
    match_r = [None] * len(right)

    def augment(i, seen):
        for j in range(len(right)):
            if seen[j] or (left[i][1], right[j][1]) not in edges:
                continue
            seen[j] = True
            if match_r[j] is None or augment(match_r[j], seen):
                match_r[j] = i
                return True
        return False

    for i in range(len(left)):
        if not augment(i, [False] * len(right)):
            return None
    return tuple((match_r[j], j) for j in range(len(right)))


def assert_pairing_matches_search(bs, lists):
    """On every ordered pair of same-size slot lists, _match_slots pairs
    them exactly when the search matches them, one to one and along
    witness edges."""
    edges, comp = _atom_edges(bs), _atom_components(bs)
    by_size = {}
    for slots in lists:
        by_size.setdefault(len(slots), []).append(slots)
    for same in by_size.values():
        for left, right in itertools.product(same, repeat=2):
            pairs = _match_slots(left, right, comp)
            found = search_match_slots(left, right, edges) is not None
            assert (pairs is not None) == found, (left, right)
            if pairs is not None:
                assert sorted(a for a, _ in pairs) == sorted(left)
                assert sorted(b for _, b in pairs) == sorted(right)
                assert all((p, q) in edges for (_, q), (_, p) in pairs)


@pytest.mark.parametrize("name", [*BOOLEAN_NAMES, "i4"])
def test_component_pairing_matches_the_search(name):
    bs = boolean(name)
    s = bs.base
    diags = itertools.product(s.idempotents, repeat=2)
    assert_pairing_matches_search(bs, [_slots(s, diag) for diag in diags])


@settings(max_examples=25, deadline=None)
@given(component_forms, st.data())
def test_component_pairing_matches_the_search_on_component_forms(form, data):
    # each drawn slot list next to its image under a permutation of the
    # atomic idempotents: one size, matched exactly when the permutation
    # keeps how many slots each component has
    bs = k_of_groupoid(reconstruct(form)).structure
    atomic = sorted(_atom_components(bs))
    slot = st.tuples(st.integers(0, 1), st.sampled_from(atomic))
    lists = []
    for _ in range(4):
        left = data.draw(st.lists(slot, unique=True, max_size=6))
        image = dict(zip(atomic, data.draw(st.permutations(atomic))))
        lists += [left, [(i, image[p]) for i, p in left]]
    assert_pairing_matches_search(bs, lists)


@pytest.mark.parametrize("name", ["i2", "powerset2", "i2xz2zero"])
def test_a_wrong_witness_fails_law_butterfly(name, monkeypatch):
    # each witness read as another pair's: a matrix built with it is no rook
    # matrix, misses a join or fails its products, so the law cannot pass
    real = typemon._atom_edges
    keys = sorted(real(fresh_boolean(name)))  # patched
    for moved, source in itertools.permutations(keys, 2):

        def wrong(bs):
            edges = real(bs)
            edges[moved] = edges[source]
            return edges

        monkeypatch.setattr(typemon, "_atom_edges", wrong)
        c = Analysis(fresh_boolean(name))
        status, _, _ = _run_law("boolean", law_butterfly, c)
        assert status == "fail", (moved, source)


def test_mu_invariance():
    for name in BOOLEAN_NAMES:
        a = Analysis(boolean(name))
        assert mu_type_invariance(a.bs, a.tm, a.mu, a.mu_tm), name


def product_type_check(bs, bt):
    """Types over a direct product are the two types side by side."""
    p = direct_product(bs, bt)
    tm_p, tm_s, tm_t = type_monoid(p), type_monoid(bs), type_monoid(bt)
    if tm_p.rank != tm_s.rank + tm_t.rank:
        return False
    ks = bs.base.size
    sides = []
    for comp in tm_p.atomic_idempotents:
        e = min(comp)
        a, b = e % ks, e // ks
        if b == bt.base.zero:
            side = ("left", next(
                i for i, c in enumerate(tm_s.atomic_idempotents) if a in c
            ))
        else:
            side = ("right", next(
                i for i, c in enumerate(tm_t.atomic_idempotents) if b in c
            ))
        sides.append(side)
    if sorted(sides) != sorted(
        [("left", i) for i in range(tm_s.rank)]
        + [("right", i) for i in range(tm_t.rank)]
    ):
        return False
    for e in bs.base.idempotents:
        for f in bt.base.idempotents:
            pid = f * ks + e
            vec = tm_p.tau[pid]
            for ci, side in enumerate(sides):
                tag, i = side
                want = tm_s.tau[e][i] if tag == "left" else tm_t.tau[f][i]
                if vec[ci] != want:
                    return False
    return True


def test_product_type_concatenates():
    assert product_type_check(boolean("i2"), boolean("z2zero"))
    assert product_type_check(boolean("z2zero"), boolean("z3zero"))
    assert product_type_check(boolean("powerset2"), boolean("z2zero"))


# -- type_monoid against its complement check read by definition -----------


def rc_type_monoid(bs):
    """type_monoid with its last check reading f minus e by its
    definition x * (d(x) minus d(y)): f times check_boolean's complement
    witness for (f, e), for e <= f, and not through bs.rc."""
    bs = as_boolean(bs)
    s = bs.base
    ag = bs.atoms_groupoid
    comps = sorted(
        ag.form, key=lambda c: min(ag.labels[t] for t in c.member_ids)
    )
    atomic = tuple(
        frozenset(ag.labels[e] for e in c.identities) for c in comps
    )
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
    dcls = {}
    for i, block in enumerate(d_relation_idempotents(s)):
        for e in block:
            dcls[e] = i
    for e in s.idempotents:
        for f in s.idempotents:
            if (tau[e] == tau[f]) != (dcls[e] == dcls[f]):
                raise CertificateFailed(("types-do-not-separate-classes", e, f))
    for e in s.idempotents:
        for f in filter(s.is_idempotent, s.up[e]):
            c = bs.complement.get(s.d[f], {}).get(s.d[e]) if e in s.down[f] else None
            if c is None:
                raise NotBelow((f, e))
            w = t[f][c]
            rest = tau.get(w)
            if rest is None:
                raise CertificateFailed(("complement-not-idempotent", f, e, w))
            if tau[f] != tuple(x + y for x, y in zip(tau[e], rest)):
                raise CertificateFailed(("complement-types-do-not-add", e, f))
    return TypeMonoid(rank, atomic, tau)


def type_outcome(fn, bs):
    try:
        tm = fn(bs)
    except BiskitError as e:
        return ("raised", type(e).__name__, str(e))
    return ("returned", tm)


def generated_boolean_structures():
    return st.builds(check_boolean, i4_subsemigroup_tables.map(InvSgp)).filter(
        lambda chk: chk.boolean
    ).map(lambda chk: chk.structure)


@pytest.mark.parametrize("name", [*BOOLEAN_NAMES, "i4"])
def test_type_monoid_matches_the_rc_version(name):
    bs = fresh_boolean(name)  # its fields read
    assert type_monoid(bs) == rc_type_monoid(fresh_boolean(name))
    s = bs.base
    assert all(row.keys() <= set(s.down[x]) for x, row in enumerate(bs.rc_rows))


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(generated_boolean_structures())
def test_type_monoid_matches_the_rc_version_on_generated_structures(bs):
    assert type_monoid(bs) == rc_type_monoid(bs)


def idempotent_pairs(name):
    """The pairs e < f of idempotents of a Boolean corpus table."""
    s = boolean(name).base
    return [(e, f) for f in s.idempotents for e in s.down[f] if e != f]


@pytest.mark.parametrize("name", BOOLEAN_NAMES)
def test_type_monoid_matches_the_rc_version_on_corruptions(name):
    # every complement between idempotents read as another id or missing,
    # and every pair e < f dropped from down[f]: the same result, or the
    # same error and witness (NotBelow where bs.rc raises, and
    # complement-not-idempotent where f minus e has no type); each corrupted
    # copy drops the relative complements read off the valid structure
    def outcomes(corrupt):
        fns = (type_monoid, rc_type_monoid)
        return [type_outcome(fn, corrupt(boolean(name))) for fn in fns]

    k, atoms = boolean(name).base.size, boolean(name).base.atoms
    for e, f in idempotent_pairs(name):
        for value in (None, *range(k)):
            def set_complement(bs):
                row = {**bs.complement[f], e: value}
                if value is None:
                    del row[e]
                complement = {**bs.complement, f: row}
                return unchecked(bs, ("rc_rows",), complement=complement)

            got, want = outcomes(set_complement)
            assert got == want, (e, f, value)

        def drop_from_down(bs):
            s = bs.base
            down = (*s.down[:f], tuple(x for x in s.down[f] if x != e), *s.down[f + 1 :])
            return unchecked(bs, ("rc_rows",), base=unchecked(s, down=down))

        got, want = outcomes(drop_from_down)
        assert got == want, (e, f)
        # types count the atoms below, so dropping any other e leaves every
        # type as it was, and the complement of e in [0, f] is the first
        # read to fail
        assert got[:2] == ("raised", "CertificateFailed" if e in atoms else "NotBelow")


def test_a_complement_that_is_not_idempotent_is_named():
    # i2 with the witness for f minus e overwritten by a non-idempotent id c
    # whose product f*c, read as f minus e, is no idempotent either: a
    # typed certificate failure naming f, e and that f minus e, not a
    # KeyError
    bs = boolean("i2")
    s = bs.base
    e, f = idempotent_pairs("i2")[0]
    c = next(c for c in range(s.size) if not s.is_idempotent(s.table[f][c]))
    complement = {**bs.complement, f: {**bs.complement[f], e: c}}
    bs = unchecked(bs, ("rc_rows",), complement=complement)
    with pytest.raises(CertificateFailed) as err:
        type_monoid(bs)
    assert err.value.witness == ("complement-not-idempotent", f, e, s.table[f][c])
